"""Numerical validation layer: expansion evaluation against the oracle (the
a_j evaluated in floats from heat.closed_form_table's exact tables), residual
ladders with sign-robust slope fits, the off-diagonal free-operator
formula, spectral projection perturbation bounds, and the contour identity
for monotone quadratic matrix families.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CoincidingPoints, ContourTooClose, DivergentSeries
from .roots import brent_root


def weyl_constant(d: int) -> float:
    """C_d = w_d / (2 pi)^d, w_d the unit ball volume."""
    w_d = math.pi ** (d / 2.0) / math.gamma(1.0 + d / 2.0)
    return w_d / (2.0 * math.pi) ** d


# -- expansion evaluation -------------------------------------------------------


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Coefficients a_j(x), j = 1..len(a_funcs), as callables of the point x."""

    dimension: int
    a_funcs: tuple

    def values(self, x) -> tuple:
        """(a_1(x), ..., a_L(x)); ValueError unless x holds `dimension` finite
        coordinates, also when there is no a_j to evaluate."""
        pt = np.atleast_1d(np.asarray(x, dtype=float))
        if pt.shape != (self.dimension,) or not np.isfinite(pt).all():
            raise ValueError("x needs %d finite coordinates, got %r"
                             % (self.dimension, x))
        return tuple(float(f(pt)) for f in self.a_funcs)


def _wave_sum(const: float, thetas: np.ndarray, coefs: np.ndarray, x) -> float:
    """const * Re sum_theta c_theta e^{i<theta, x>}."""
    return const * (coefs * np.exp(1j * (thetas @ x))).sum().real


def coefficients_from_potential(b, L: int) -> ExpansionCoefficients:
    """a_j, j = 1..L, of a trigonometric potential b (a heat.TrigPotential,
    real since frequency.fourier_table read it): each exact (const, table) of
    heat.closed_form_table evaluated in numpy as
    float(const) * Re sum_theta c_theta e^{i<theta, x>}.  heat raises the
    ValueError for a j it has no closed form for."""
    # lazy: heat loads sympy, which validate, bloch and gauge do not need
    from .heat import closed_form_table

    d = b.dimension
    funcs = []
    for j in range(1, L + 1):
        const, table = closed_form_table(b, j)
        thetas = np.array(list(table) or np.empty((0, d)), dtype=float)
        coefs = np.array([complex(float(c.x), float(c.y))
                          for c in table.values()], dtype=complex)
        funcs.append(functools.partial(_wave_sum, float(const), thetas, coefs))
    return ExpansionCoefficients(d, tuple(funcs))


def expansion_eval(coeffs: ExpansionCoefficients, lam, x,
                   L: Optional[int] = None):
    """lambda^{d/2} (C_d + sum_{j<=L} a_j(x) lambda^{-j}); L=0 is the Weyl term."""
    lam = np.asarray(lam, dtype=float)
    d = coeffs.dimension
    if L is None:
        L = len(coeffs.a_funcs)
    if L > len(coeffs.a_funcs):
        raise ValueError("L exceeds available coefficients")
    acc = np.full(lam.shape, weyl_constant(d))
    vals = coeffs.values(x)
    for j in range(1, L + 1):
        acc = acc + vals[j - 1] * lam ** (-float(j))
    out = lam ** (d / 2.0) * acc
    return float(out) if out.ndim == 0 else out


def free_offdiagonal(lam, x, y, d: int):
    """Leading off-diagonal term of the free spectral function:
    (2 / (2 pi |x-y|)^{(d+1)/2}) lambda^{(d-1)/4} sin(sqrt(lam)|x-y| - pi(d-1)/4)."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    r = float(np.linalg.norm(xv - yv))
    if r == 0.0:
        raise CoincidingPoints("free_offdiagonal needs x != y")
    lam = np.asarray(lam, dtype=float)
    amp = 2.0 / (2.0 * math.pi * r) ** ((d + 1) / 2.0)
    out = amp * lam ** ((d - 1) / 4.0) * np.sin(np.sqrt(lam) * r
                                                - math.pi * (d - 1) / 4.0)
    return float(out) if out.ndim == 0 else out


# -- residual ladders -----------------------------------------------------------


def fit_power_coefficient(lams, residuals, exponent: float) -> float:
    """Least-squares c with residuals ~ c * lambda^exponent."""
    lams = np.asarray(lams, dtype=float)
    res = np.asarray(residuals, dtype=float)
    basis = lams**exponent
    return float(basis @ res / (basis @ basis))


def _check_positive(lams: np.ndarray):
    """ValueError unless every lambda is finite and > 0: the geometric bins
    grow from the smallest by a ratio, so they never pass an infinite top and
    never leave a start at or below 0."""
    if not (np.isfinite(lams).all() and (lams > 0).all()):
        raise ValueError("every lambda must be finite and > 0, got %r" % (lams,))


def binned_envelope(lams, residuals):
    """Geometric bins of ratio 1.3; median |R| per bin; bins where the
    residual changes sign are dropped (oscillatory terms).  If the sign rule
    keeps fewer than 3 bins the residual oscillates faster than the bin width
    and the median |R| over all bins is itself the envelope, so all bins are
    kept instead.  Returns (centers, medians); ValueError unless every lambda
    is finite and > 0."""
    lams = np.asarray(lams, dtype=float)
    _check_positive(lams)
    res = np.asarray(residuals, dtype=float)
    order = np.argsort(lams)
    lams, res = lams[order], res[order]
    centers, medians, coherent = [], [], []
    lo = lams[0]
    while lo <= lams[-1] * (1.0 + 1e-12):
        hi = lo * 1.3
        mask = (lams >= lo) & (lams < hi)
        if mask.any():
            chunk = res[mask]
            signs = np.sign(chunk[np.abs(chunk) > 0])
            centers.append(math.sqrt(lo * hi))
            medians.append(float(np.median(np.abs(chunk))))
            coherent.append(bool(signs.size and (signs == signs[0]).all()))
        lo = hi
    centers = np.asarray(centers)
    medians = np.asarray(medians)
    coherent = np.asarray(coherent, dtype=bool)
    if coherent.sum() >= 3:
        return centers[coherent], medians[coherent]
    return centers, medians


def _log_slope(centers, medians):
    keep = medians > 0
    if keep.sum() < 3:
        return None
    return float(np.polyfit(np.log(centers[keep]), np.log(medians[keep]), 1)[0])


@dataclass
class ResidualLadder:
    residuals: dict          # L -> array R_L(lambda)
    slopes: dict             # L -> binned log-log slope (None if noise floor)
    noise_floor: dict        # L -> bool


def residual_ladder(coeffs: ExpansionCoefficients, ladder, oracle_values,
                    L: int, x) -> ResidualLadder:
    """R_L(lambda) = N_oracle - expansion through L terms at the point x, for
    each L' <= L, with sign-robust binned slope fits; an R_L below
    1e-8 max |N_oracle| is at the noise floor and gets no fit.  ValueError
    unless the ladder is strictly increasing, finite and > 0."""
    ladder = np.asarray(ladder, dtype=float)
    if ladder.ndim != 1 or not (np.diff(ladder) > 0).all():
        raise ValueError("ladder must be strictly increasing")
    _check_positive(ladder)
    oracle_values = np.asarray(oracle_values, dtype=float)
    if oracle_values.shape != ladder.shape:
        raise ValueError("oracle values must match the ladder")
    if L > len(coeffs.a_funcs):
        raise ValueError("L exceeds available coefficients")
    d = coeffs.dimension
    scale = float(np.max(np.abs(oracle_values)))
    residuals, slopes, noise = {}, {}, {}
    for Lp in range(L + 1):
        R = oracle_values - expansion_eval(coeffs, ladder, x, L=Lp)
        residuals[Lp] = R
        noise[Lp] = bool(scale > 0 and np.max(np.abs(R)) < 1e-8 * scale)
        slopes[Lp] = None if noise[Lp] else _log_slope(*binned_envelope(ladder, R))
    return ResidualLadder(residuals=residuals, slopes=slopes, noise_floor=noise)


def diagonal_growth_check(lams, values, d: int) -> dict:
    """e_lambda(x,x) <= C lambda^{d/2} along the ladder (wave packet bound),
    C = 2 C_d + 1."""
    lams = np.asarray(lams, dtype=float)
    values = np.asarray(values, dtype=float)
    C = 2.0 * weyl_constant(d) + 1.0
    ratio = values / lams ** (d / 2.0)
    worst = float(np.max(ratio))
    return {"C": C, "max_ratio": worst, "passed": bool(worst <= C)}


# -- spectral projection perturbation lemmas -------------------------------------


def _spectral_indicator(evals, lo: float, hi: float):
    """1.0 where lo <= eval <= hi, else 0.0."""
    return ((evals >= lo) & (evals <= hi)).astype(float)


def _random_hermitian(rng, n: int) -> np.ndarray:
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2.0


def check_projection_perturbation(n: int, s: int, eps: float, trials: int,
                                  seed: int,
                                  delta: Optional[float] = None) -> dict:
    """Seeded random trials of the projection perturbation bounds.

    H_2 is Hermitian with spectrum in [1, 10]; H_1 = H_2 + E with
    ||E (H_2 + 1)^s|| < eps; lambda = 5 in the middle of the spectrum and
    delta = sqrt(eps) by default.  Checks the norm bound
    ||E_{(-inf, lam-delta]}(H_1) E_{[lam+delta, inf)}(H_2) (H_2+1)^s||
    <= pi eps / delta and the vector bound
    ||E_lam(H_2) f - E_lam(H_1) f|| <= 2 ||E_{[lam-delta,lam+delta]}(H_2) f||
    + (2 pi eps / delta) (||E_{(-inf,lam]}(H_2) f|| + ||(H_2+1)^{-s} f||).
    """
    if delta is None:
        delta = math.sqrt(eps)
    if delta < eps:
        raise ValueError("requires delta >= eps")
    rng = np.random.default_rng(seed)
    lam = 5.0
    bound1 = math.pi * eps / delta
    slack1_min = math.inf
    slack2_min = math.inf
    records = []
    for t in range(trials):
        ev = np.sort(np.linalg.eigvalsh(_random_hermitian(rng, n)))
        span = ev[-1] - ev[0]
        ev = 1.0 + 9.0 * (ev - ev[0]) / (span if span > 0 else 1.0)
        U = np.linalg.qr(_random_hermitian(rng, n)
                         + 1j * _random_hermitian(rng, n))[0]
        H2 = (U * ev) @ U.conj().T
        H2 = (H2 + H2.conj().T) / 2.0

        E = _random_hermitian(rng, n)
        weight = np.linalg.matrix_power(H2 + np.eye(n), s)
        cur = np.linalg.norm(E @ weight, 2)
        E *= 0.5 * eps / cur
        H1 = H2 + E

        # V diag(x) V^H as (V * x) V^H: scaling the columns gives the bits of
        # the product with the diagonal matrix, one matrix product fewer
        ev2, V2 = np.linalg.eigh(H2)
        ev1, V1 = np.linalg.eigh(H1)
        P1_low = (V1 * _spectral_indicator(ev1, -np.inf, lam - delta)) \
            @ V1.conj().T
        P2_high = (V2 * _spectral_indicator(ev2, lam + delta, np.inf)) \
            @ V2.conj().T
        W2 = (V2 * (ev2 + 1.0) ** s) @ V2.conj().T
        lhs1 = np.linalg.norm(P1_low @ P2_high @ W2, 2)

        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f /= np.linalg.norm(f)
        P2_lam = (V2 * _spectral_indicator(ev2, -np.inf, lam)) @ V2.conj().T
        P1_lam = (V1 * _spectral_indicator(ev1, -np.inf, lam)) @ V1.conj().T
        P2_win = (V2 * _spectral_indicator(ev2, lam - delta, lam + delta)) \
            @ V2.conj().T
        Winv = (V2 * (ev2 + 1.0) ** (-s)) @ V2.conj().T
        lhs2 = np.linalg.norm(P2_lam @ f - P1_lam @ f)
        rhs2 = (2.0 * np.linalg.norm(P2_win @ f)
                + 2.0 * math.pi * eps / delta * np.linalg.norm(P2_lam @ f)
                + 2.0 * math.pi * eps / delta * np.linalg.norm(Winv @ f))
        slack1_min = min(slack1_min, bound1 - lhs1)
        slack2_min = min(slack2_min, rhs2 - lhs2)
        records.append({"trial": t, "lhs_norm": float(lhs1),
                        "lhs_vector": float(lhs2), "rhs_vector": float(rhs2)})
    return {
        "n": n, "s": s, "eps": eps, "delta": delta, "trials": trials,
        "lambda": lam, "norm_bound": bound1,
        "min_slack_norm": float(slack1_min),
        "min_slack_vector": float(slack2_min),
        "passed": bool(slack1_min >= 0.0 and slack2_min >= 0.0),
        "records": records,
    }


# -- contour identity ------------------------------------------------------------


def _power(z, k: int):
    """z**k at one node, or at each node of a 1-D z the scalar power z_j**k,
    shaped (N, 1, 1) to scale one matrix per node."""
    if np.ndim(z) == 0:
        return z**k
    return np.array([zj**k for zj in z])[:, None, None]


@dataclass(frozen=True)
class MatrixFamily:
    """Polynomial Hermitian family S(r) = sum_k S_k r^k with H_2(r) = r^2 I + S(r)."""

    coeffs: tuple  # tuple of (n, n) Hermitian ndarrays

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("need at least one polynomial coefficient")
        shape = np.shape(self.coeffs[0])
        for C in self.coeffs:
            C = np.asarray(C)
            if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape != shape:
                raise ValueError("polynomial coefficients must be square "
                                 "and of one size")
            # absolute: numpy's default rtol would pass |C - C^H| ~ 1e-5 |C|
            if not np.allclose(C, C.conj().T, rtol=0.0, atol=1e-13):
                raise ValueError("polynomial coefficients must be Hermitian")

    @property
    def size(self) -> int:
        return self.coeffs[0].shape[0]

    def S(self, z):
        """S(z) at one node z, or stacked (N, n, n) at each node of a 1-D
        array.  A stacked node takes its powers as the scalar z_j**k (the
        array power z**k rounds differently), so it gets the same bits as
        its own call."""
        acc = np.zeros(np.shape(z) + (self.size, self.size), dtype=complex)
        for k, C in enumerate(self.coeffs):
            acc = acc + np.asarray(C, dtype=complex) * _power(z, k)
        return acc

    def H2(self, z):
        """H_2(z) at one node, or stacked at each node of a 1-D array (S)."""
        return _power(z, 2) * np.eye(self.size, dtype=complex) + self.S(z)

    def s_norm_bound(self, r_hi: float) -> float:
        return sum(np.linalg.norm(C, 2) * r_hi**k
                   for k, C in enumerate(self.coeffs))

    def s_prime_bound(self, r_hi: float) -> float:
        return sum(k * np.linalg.norm(C, 2) * r_hi ** (k - 1)
                   for k, C in enumerate(self.coeffs) if k >= 1)


def random_family(n: int, degree: int, seed: int) -> MatrixFamily:
    """Random Hermitian polynomial family with ||S_k|| = 0.1 / 3^k, so
    ||S(r)|| stays of order 0.1 for r up to 3."""
    rng = np.random.default_rng(seed)
    coeffs = []
    for k in range(degree + 1):
        H = _random_hermitian(rng, n)
        coeffs.append(0.1 / 3.0**k * H / max(np.linalg.norm(H, 2), 1e-30))
    return MatrixFamily(tuple(coeffs))


def scalar_free_family() -> MatrixFamily:
    return MatrixFamily((np.zeros((1, 1)),))


@functools.lru_cache(maxsize=None)
def _leggauss(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1]; shared, never modified."""
    return np.polynomial.legendre.leggauss(n)


def _gauss_nodes(a: float, b: float, n: int):
    x, w = _leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _crossing_points(fam: MatrixFamily, level: float, r_lo: float,
                     r_hi: float) -> list:
    """All r in [r_lo, r_hi] with some eigenvalue of H_2(r) equal to level;
    monotonicity of H_2(r) makes each sorted eigenvalue curve cross once."""
    out = []
    for j in range(fam.size):
        def fj(r, j=j):
            return float(np.linalg.eigvalsh(fam.H2(r))[j] - level)
        flo, fhi = fj(r_lo), fj(r_hi)
        if flo == 0.0:
            out.append(r_lo)
        elif flo * fhi < 0:
            out.append(brent_root(fj, r_lo, r_hi, xtol=1e-13, rtol=1e-15))
    return out


@dataclass
class QuadratureConfig:
    n_r: int = 64          # Gauss nodes per smooth r-subinterval
    n_mu: int = 64         # Gauss nodes for the mu integral
    n_contour: int = 256   # trapezoid nodes on the circle (spectral accuracy)
    margin: float = 0.25   # contour margin beyond [a, b], times (b - a + 1)
    min_sv: float = 1e-6   # ContourTooClose threshold for H_2(z) - mu


# relative rounding margin of the contour guard's Weyl bound, per unit of n
_GUARD_ROUNDING = 2.0**10 * np.finfo(float).eps


def _const_ones(n: int):
    v = np.ones(n, dtype=complex)

    def f(z):
        return v

    return f


def check_contour_identity(fam: MatrixFamily, interval: Sequence[float],
                           f: Optional[Callable] = None,
                           g: Optional[Callable] = None,
                           quad: Optional[QuadratureConfig] = None) -> dict:
    """Both sides of the spectral identity
    int_a^b (E_{[lam', lam'']}(H_2(r)) f(r), g(r)) dr
      = (1/2 pi i) int_{lam'}^{lam''} dmu oint ((H_2(z)-mu)^{-1} f(z), g(zbar)) dz
    over a circular contour enclosing [a, b]; reports |LHS - RHS|.

    Raises ContourTooClose at the first (mu, z), mu nodes in order and z in
    contour order, where the smallest singular value of H_2(z) - mu is below
    quad.min_sv.  As H_2(z) - mu = (z^2 - mu) I + S(z), Weyl's inequality for
    singular values gives sigma_min >= |z^2 - mu| - ||S(z)||_2, which takes
    one svd per z.  A point needs no svd of its own when this bound, less a
    rounding margin of 1024 n eps (|z^2| + |mu| + ||S(z)||_2) (eps the machine
    epsilon, n the size), is at least min_sv; the margin is ample for the
    rounding in forming H_2(z) - mu and S(z) and in the singular values.
    The exact svd runs at the other points only, so the check raises on the
    same inputs, at the same point and with the same message as one svd at
    every (mu, z).
    """
    lam_lo, lam_hi = float(interval[0]), float(interval[1])
    if not lam_lo < lam_hi:
        raise ValueError("need lambda' < lambda''")
    if quad is None:
        quad = QuadratureConfig()
    n = fam.size
    if f is None:
        f = _const_ones(n)
    if g is None:
        g = _const_ones(n)

    r_guess = math.sqrt(lam_hi) + 1.0
    smax = fam.s_norm_bound(r_guess + 1.0)
    if lam_lo <= smax:
        raise ValueError("interval too low for this family: lambda' <= ||S||")
    r_lo = math.sqrt(lam_lo - smax)
    r_hi = math.sqrt(lam_hi + smax)
    # monotonicity of H_2(r) = r^2 I + S(r) on the range
    if fam.s_prime_bound(r_hi) >= 2.0 * r_lo:
        raise ValueError("eigenvalue curves not provably monotone: "
                         "||S'|| >= 2 min r")

    cuts = sorted(set([r_lo, r_hi]
                      + _crossing_points(fam, lam_lo, r_lo, r_hi)
                      + _crossing_points(fam, lam_hi, r_lo, r_hi)))
    lhs = 0.0
    for left, right in zip(cuts[:-1], cuts[1:]):
        if right - left < 1e-14:
            continue
        nodes, weights = _gauss_nodes(left, right, quad.n_r)
        evs, Vs = np.linalg.eigh(fam.H2(nodes))
        for r, wt, ev, V in zip(nodes, weights, evs, Vs):
            sel = (ev >= lam_lo) & (ev <= lam_hi)
            if not sel.any():
                continue
            fr = np.asarray(f(r), dtype=complex)
            gr = np.asarray(g(r), dtype=complex)
            Ef = V[:, sel] @ (V[:, sel].conj().T @ fr)
            lhs += wt * float(np.real(np.vdot(gr, Ef)))

    center = 0.5 * (r_lo + r_hi)
    radius = 0.5 * (r_hi - r_lo) + quad.margin * (r_hi - r_lo + 1.0)
    phis = 2.0 * math.pi * np.arange(quad.n_contour) / quad.n_contour
    zs = center + radius * np.exp(1j * phis)
    dz = 1j * radius * np.exp(1j * phis) * (2.0 * math.pi / quad.n_contour)

    mu_nodes, mu_weights = _gauss_nodes(lam_lo, lam_hi, quad.n_mu)
    Hs = fam.H2(zs)
    fs = np.array([np.asarray(f(z), dtype=complex) for z in zs])
    gconj = np.conj([np.asarray(g(np.conj(z)), dtype=complex) for z in zs])
    # the Weyl bound's parts, one svd per z; S(z) is taken as H_2(z) - z^2 I,
    # whose rounding the margin covers
    z2 = zs**2
    abs_z2 = np.abs(z2)
    s_norm = np.linalg.svd(Hs - z2[:, None, None] * np.eye(n),
                           compute_uv=False)[:, 0]
    rounding = _GUARD_ROUNDING * n
    rhs = 0.0 + 0.0j
    # one stacked solve per mu node; stacking every (mu, z) at once would hold
    # n_mu times as many matrices
    for mu, mw in zip(mu_nodes, mu_weights):
        Ms = Hs - mu * np.eye(n)
        bound = (np.abs(z2 - mu) - s_norm
                 - rounding * (abs_z2 + abs(mu) + s_norm))
        unsure = np.flatnonzero(~(bound >= quad.min_sv))  # NaN is unsure
        if unsure.size:
            sv_min = np.linalg.svd(Ms[unsure], compute_uv=False)[:, -1]
            close = np.flatnonzero(sv_min < quad.min_sv)
            if close.size:
                raise ContourTooClose(
                    "singular value %.3e below %.1e on the contour"
                    % (sv_min[close[0]], quad.min_sv))
        sols = np.linalg.solve(Ms, fs[:, :, None])[:, :, 0]
        rhs += mw * np.sum(np.einsum("ij,ij->i", gconj, sols) * dz)
    rhs = rhs / (2.0j * math.pi)

    return {
        "lhs": float(lhs),
        "rhs_real": float(np.real(rhs)),
        "rhs_imag": float(np.imag(rhs)),
        "abs_diff": float(abs(lhs - rhs)),
        "r_range": (r_lo, r_hi),
        "contour_center": center,
        "contour_radius": radius,
        "crossings": cuts[1:-1],
    }


def refine_contour_identity(fam: MatrixFamily, interval: Sequence[float],
                            f: Optional[Callable] = None,
                            g: Optional[Callable] = None,
                            levels: int = 3,
                            base: Optional[QuadratureConfig] = None) -> dict:
    """Quadrature refinement study: doubles all node counts per level."""
    if base is None:
        base = QuadratureConfig()
    reports = []
    for lv in range(levels):
        q = QuadratureConfig(n_r=base.n_r * 2**lv, n_mu=base.n_mu * 2**lv,
                             n_contour=base.n_contour * 2**lv,
                             margin=base.margin, min_sv=base.min_sv)
        reports.append(check_contour_identity(fam, interval, f, g, q))
    return {"levels": reports, "final_abs_diff": reports[-1]["abs_diff"]}


def resolvent_series_check(fam: MatrixFamily, z: complex, mu: float,
                           terms: int) -> dict:
    """Partial sums of (H_2(z)-mu)^{-1} = sum_l (-1)^l S^l(z) (z^2-mu)^{-(l+1)};
    requires ||S(z)|| < |z^2 - mu|."""
    n = fam.size
    Sz = fam.S(z)
    denom = z * z - mu
    s_norm = float(np.linalg.norm(Sz, 2))
    ratio = s_norm / abs(denom)
    if ratio >= 1.0:
        raise DivergentSeries("||S(z)|| = %.3e >= |z^2 - mu| = %.3e"
                              % (s_norm, abs(denom)))
    M = fam.H2(z) - mu * np.eye(n)
    true_inv = np.linalg.inv(M)
    errors = []
    partial = np.zeros((n, n), dtype=complex)
    Spow = np.eye(n, dtype=complex)
    for l in range(terms):
        partial = partial + (-1) ** l * Spow / denom ** (l + 1)
        errors.append(float(np.linalg.norm(partial - true_inv, 2)))
        Spow = Spow @ Sz
    rates = [errors[i + 1] / errors[i] for i in range(len(errors) - 1)
             if errors[i] > 1e-15]
    measured = float(np.exp(np.mean(np.log(rates)))) if rates else 0.0
    return {"ratio": ratio, "errors": errors, "measured_rate": measured,
            "expected_rate": ratio}
