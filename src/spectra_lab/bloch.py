"""Plane-wave Bloch oracle for periodic Schrodinger operators in d = 1, 2.

The operator -Delta + b with b(x) = sum_{m in Z^d} bhat(m) e^{i<m,x>} is
diagonalized fiber-wise over the Brillouin zone [-1/2, 1/2)^d; the spectral
function is a quasimomentum integral of eigenvector data.

Two quadratures are provided:
  * plain midpoint k-grid (d = 1, 2, the baseline design), and
  * an edge-corrected d=1 mode that sums complete bands by an Nh-node
    Gauss-Legendre rule on (0, 1/2) and resolves the Fermi-crossing band by
    Brent's root finder plus Gauss quadrature.  The plain grid carries
    O(1/N_k) jitter from the sharp eigenvalue cut, which buries the
    lambda^{-3/2} residual signal.  A complete band's integrand is analytic
    on (0, 1/2) but not periodic, so a midpoint rule converges there only
    as O(Nh^-2), and the Gauss rule spectrally (Trefethen & Weideman, SIAM
    Review 56, 2014).  Measured against a 1024-node reference on five
    tables (b = 0.24 cos x, 0.4 cos x and the pentadiagonal, bandwidth-3
    and complex golden tables, M_cut 60, x = 0, pi/2, pi and
    (x, y) = (0.3, 1.3)), the default Nh = 32 is within 5.3e-15 for
    lambda >= 100, 3.8e-5 on [10, 100] and 4.1e-5 on [1, 10]; 128 midpoints
    were within 2.0e-7, 7.7e-5 and 1.5e-4.  The low ranges are where gaps
    are tiny (the bandwidth-3 table's, or b = 0.24 cos x below lambda ~ 13,
    where it is 6.2e-11 on [10, 100]): a band's vector turns within a
    k-window about as wide as its gap, and neither rule resolves it
    (ROADMAP item 19).

A fiber is real whenever lattice_fourier returns a real table (every even
potential).  In d = 1 it is banded with half-bandwidth max |theta|, and
LAPACK serves its solves by route:
  * every eigenpair below a cut (both midpoint grids, the oracle's
    complete-band nodes and band edges): the whole spectrum by divide and
    conquer, then the cut;
    stevd for a real tridiagonal fiber (a single cosine, or b = 0), sbevd for
    any other real fiber, hbevd for a complex one;
  * one eigenpair by index (the oracle's crossing energy, and a Gauss-node
    vector that fails its certificate): bisection and inverse iteration
    (stebz + stein) on a real tridiagonal fiber, sbevx / hbevx on any other.
    Inside (0, 1/2) the fiber eigenvalues are simple (Hill's equation), so
    an index is a band;
  * the crossing band's Gauss-node vectors: two Rayleigh-quotient inverse
    iteration steps on every node at once, each one banded LU solve of the
    stacked shifted fibers (gtsv when tridiagonal, gbsv otherwise), from the
    band's eigenvectors at the nearest complete-band node; each node is
    certified by its residual and the band's edges
    (BlochOracle1D._node_vectors).
BlochOracle1D keeps the complete-band node eigenvectors and, per
(band, lambda), the crossing point and the Gauss-node eigenvectors of the
crossing band, so a later point x, y only forms amplitudes.  It keeps each
eigenvector as its support window (_support_windows): the run of entries
from the first to the last above tau = eps / (64 n), n = 2 M_cut + 1.  For
a trigonometric polynomial b the Fourier components of a Bloch eigenvector
decay faster than exponentially away from the few m with (k + m)^2 near its
energy (Reed & Simon IV, XIII.16), so the windows are short: at most 22 of
441 entries at the 32 complete-band nodes of bhat(+-1) = 0.23, M_cut 220,
lambda up to 1e4 (1.1 MB; whole vectors at 128 nodes took 92.6 MB), and at
most 39 of 129 on bhat(+-1) = 0.15, bhat(+-2) = 0.05, M_cut 64, lambda up
to 1e3.  Each entry dropped has magnitude at most tau, so an amplitude
moves by less than eps / 64.

The plain midpoint has one path for every table with each theta on an axis
(b = b_1(x_1) + ... + b_d(x_d): every d = 1 table, the axis tables of d = 2,
and b = 0).  On the square |m_i| <= M_cut such a table has the fiber
H_1(k_1) (x) I + I (x) H_2(k_2) (Reed & Simon IV, XIII.16), so each axis's
d = 1 fiber is solved once per grid k it needs, and the energies E_1 + E_2
carry the amplitudes u_1(x_1) u_2(x_2); d = 1 is the one-axis case
(_midpoint_separable).  An off-axis theta such as +-(1, 1) makes the d = 2
fiber dense: the coupling bhat(m_i - m_j) is built once per call, each k
adds |k + m|^2 on its diagonal, and only the eigenpairs below the cut are
solved (LAPACK syevr / heevr).

For real b, E(-k) = E(k) and u_{-k} = conj u_k, so the midpoint sums run
over half the grid, each point standing for itself and -k; an odd grid's
k = 0 is its own partner and counts once.  An axis solves only the k that
this half grid reaches: the half grid in d = 1, about half of the first
axis's k in d = 2.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np
from scipy.linalg import (LinAlgError, eig_banded, eigh, eigh_tridiagonal,
                          solve_banded)

from .errors import NonLatticeFrequencies, TruncationCeiling, UnsupportedGenerators
from .frequency import fourier_table
from .roots import brent_root

_EPS = np.finfo(float).eps


def lattice_fourier(b: Mapping, d: int) -> dict:
    """b's Fourier table (frequency.fourier_table) on the integer lattice,
    {integer coord tuple: coeff}.

    A key that fourier_table refuses (a surd theta, a wrong dimension) and a
    non-integer theta raise NonLatticeFrequencies.  A non-real b raises
    fourier_table's NonHermitianPotential: the fibers read only theta > 0,
    so they would make it real without notice.

    The table comes back real (float coefficients, so real fibers) when every
    |Im c| <= eps |c|, eps the machine epsilon, and complex otherwise.  The
    imaginary parts dropped move a fiber by at most eps sum |c| in the 1-norm,
    inside the eps ||H||_1 rounding every fiber solve already carries
    (BlochOracle1D._rounding); a real b shifted by s ~ 1e-300 would otherwise
    build complex fibers with subnormal entries, on which the complex banded
    solvers run about tenfold slower.
    """
    if not isinstance(b, Mapping):
        raise NonLatticeFrequencies("unsupported potential representation")
    try:
        table = fourier_table(b, d)
    except (UnsupportedGenerators, ValueError) as e:
        raise NonLatticeFrequencies(str(e)) from e
    out = {}
    for th, c in table.items():
        if any(t.denominator != 1 for t in th):
            raise NonLatticeFrequencies("non-integer frequency %r" % (th,))
        out[tuple(map(int, th))] = complex(c)
    if all(abs(c.imag) <= _EPS * abs(c) for c in out.values()):
        return {th: c.real for th, c in out.items()}
    return out


@dataclass
class FiberMatrix:
    k: np.ndarray
    indices: list          # dual-lattice points, deterministic order
    matrix: np.ndarray     # dense Hermitian


def _coupling(four: dict, M_cut: int, d: int):
    """The square index set (rows m_i of an int array, last coordinate
    fastest) and the k-independent part V[i, j] = bhat(m_i - m_j) of every
    fiber on it; V is real when the table is (lattice_fourier)."""
    marr = np.array(list(itertools.product(range(-M_cut, M_cut + 1), repeat=d)))
    V = np.zeros((len(marr), len(marr)), dtype=np.result_type(float, *four.values()))
    stride = (2 * M_cut + 1) ** np.arange(d - 1, -1, -1)
    for th, c in four.items():
        j = np.nonzero((np.abs(marr + th) <= M_cut).all(axis=1))[0]
        V[j + stride @ th, j] = c
    return marr, V


def build_fiber(k, b, M_cut: int, d: Optional[int] = None) -> FiberMatrix:
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if d is None:
        d = k.size
    marr, M = _coupling(lattice_fourier(b, d), M_cut, d)
    M[np.diag_indices_from(M)] += ((k + marr) ** 2).sum(axis=1)
    return FiberMatrix(k=k, indices=[tuple(m) for m in marr.tolist()], matrix=M)


def _check_ceiling(lam_max: float, M_cut: int):
    if lam_max > (M_cut / 2.0) ** 2:
        raise TruncationCeiling(
            "lambda=%g exceeds reliability ceiling (M_cut/2)^2=%g"
            % (lam_max, (M_cut / 2.0) ** 2))


def _midpoint_grid(Nk: int) -> np.ndarray:
    return (np.arange(Nk) + 0.5) / Nk - 0.5


def _paired_grid(Nk: int, d: int):
    """Half of the d-dimensional midpoint grid and its weights.  Lexicographic
    point p mirrors to -k at Nk^d - 1 - p, so the second half stands for the
    whole grid: weight 1 for k != 0 (2 for k and -k times the 1/2 that averages
    the two counts of _fermi_sums), 1/2 for an odd grid's k = 0."""
    pts = np.array(list(itertools.product(_midpoint_grid(Nk), repeat=d)))
    half = pts[len(pts) // 2:]
    wts = np.ones(len(half))
    wts[0] = 0.5 if Nk % 2 else 1.0
    return half, wts


# -- free-potential fast path (exact grid-point counting) ----------------------


def _parity_points(B: int, d: int, par: int) -> int:
    """#{a in Z^d : every a_i = par mod 2, |a|^2 <= B} for d = 1, 2, exactly."""
    if B < 0:
        return 0
    s = math.isqrt(B)
    if d == 2:  # row by row: each row's isqrt from the float one, corrected
        a2 = np.arange(-s, s + 1, dtype=np.int64)
        R = B - a2[(a2 - par) % 2 == 0] ** 2
        s = np.floor(np.sqrt(R)).astype(np.int64)
        s -= s * s > R
        s += (s + 1) * (s + 1) <= R
    # the integers of parity par in [-s, s], summed over the rows
    return int(np.sum(2 * ((s + par) // 2) + 1 - par))


def free_lds(lams: np.ndarray, Nk: int, d: int) -> np.ndarray:
    """Plain-midpoint N(lambda; x) for b = 0 in d = 1, 2, counted exactly.
    In units of 1/(2 Nk) the points k + m of the midpoint grid are the odd
    integers (even Nk) or the even integers (odd Nk), so |k + m|^2 <= lambda
    is |a|^2 <= T with T = 4 lambda Nk^2, the float lambda taken as the exact
    Fraction it is.  The <= and < conventions are averaged as the midpoint
    does: |a|^2 <= floor(T) and |a|^2 <= ceil(T) - 1.  No state lies below 0."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    par = 1 - Nk % 2
    out = np.empty(lams.shape)
    for i, lam in enumerate(lams):
        T = 4 * Fraction(float(lam)) * Nk * Nk
        total = sum(_parity_points(B, d, par)
                    for B in (math.floor(T), math.ceil(T) - 1))
        out[i] = 0.5 * total / Nk**d / (2 * math.pi) ** d
    return out


# -- plain midpoint oracle ------------------------------------------------------


def _checked_inputs(lam, x, y, d: int):
    """lam as a ladder, x and y as points; ValueError unless the ladder is
    non-empty and finite and each point has exactly d finite coordinates."""
    lams, x, y = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (lam, x, y))
    if lams.size == 0 or not np.isfinite(lams).all():
        raise ValueError("lambda must be a non-empty finite ladder, got %r" % (lam,))
    if x.shape != (d,) or y.shape != (d,) or not np.isfinite([x, y]).all():
        raise ValueError("x and y need %d finite coordinates each, got %r and %r"
                         % (d, x, y))
    return lams, x, y


def _check_sizes(**sizes):
    """ValueError unless every size is a positive integer (a bool is not):
    a float M_cut shifts the whole index set, and a float Nk the grid."""
    for name, v in sizes.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
            raise ValueError("%s must be a positive integer, got %r" % (name, v))


def spectral_function(lam, x, y, b, M_cut: int, Nk: int, d: int = 1):
    """Midpoint-grid e_lambda(x, y); on-diagonal x == y gives N(lambda; x).

    lam may be a scalar or an ascending ladder (shared eigensolves).
    Counting conventions E <= lam and E < lam are averaged.  M_cut and Nk
    must be positive integers.
    """
    _check_sizes(M_cut=M_cut, Nk=Nk)
    lams, x, y = _checked_inputs(lam, x, y, d)
    if d not in (1, 2):
        raise NonLatticeFrequencies("oracle implemented for d in {1, 2}")
    _check_ceiling(float(lams.max()), M_cut)
    four = lattice_fourier(b, d)
    if not four and np.array_equal(x, y):
        vals = free_lds(lams, Nk, d)
    else:
        emax = float(lams.max()) * 1.0000001 + 1.0
        # b = b_1(x_1) + ... + b_d(x_d), every d = 1 table and b = 0 included
        separable = all(sum(map(bool, th)) <= 1 for th in four)
        midpoint = _midpoint_separable if separable else _midpoint_dense
        vals = midpoint(lams, x, y, four, M_cut, Nk, emax) / Nk**d / (2 * math.pi) ** d
    return vals if np.ndim(lam) else float(vals[0])


def _banded_rep(four: dict, M_cut: int):
    ms = np.arange(-M_cut, M_cut + 1)
    bw = max((abs(th[0]) for th in four), default=0)
    return ms, bw


def _fiber_bands(k, ms: np.ndarray, four: dict, bw: int) -> np.ndarray:
    """The d = 1 fiber at each point of k (a float or an array) in lower band
    storage, ab[..., t, i] = H[i + t, i]: shape k.shape + (bw + 1, n), real
    when the table is (lattice_fourier).  Only the diagonal depends on k."""
    k = np.asarray(k, dtype=float)
    n = ms.size
    ab = np.zeros(k.shape + (bw + 1, n), dtype=np.result_type(float, *four.values()))
    ab[..., 0, :] = (k[..., None] + ms) ** 2
    for th, c in four.items():
        t = th[0]
        if t == 0:
            ab[..., 0, :] += c
        elif t > 0:
            # entry (m + t, m): lower band t; negative t is the Hermitian mirror
            ab[..., t, : n - t] = c
    return ab


def _eig_banded_k(k: float, ms: np.ndarray, four: dict, bw: int,
                  emax: Optional[float] = None, index: Optional[int] = None,
                  vectors: bool = True):
    n = ms.size
    ab = _fiber_bands(k, ms, four, bw)
    real = not np.iscomplexobj(ab)
    # one eigenpair by index, or the whole spectrum and then the cut at emax
    sel = {} if index is None else {"select": "i", "select_range": (index, index)}
    if real and bw <= 1:
        # stebz + stein for one eigenpair, stevd (divide and conquer) for all
        off = ab[1, : n - 1] if bw else np.zeros(n - 1)
        out = eigh_tridiagonal(ab[0], off, eigvals_only=not vectors,
                               lapack_driver="stevd" if index is None else "stebz",
                               **sel)
    else:
        # sbevx / hbevx for one eigenpair, sbevd / hbevd for all
        out = eig_banded(ab, lower=True, eigvals_only=not vectors, **sel)
    w, v = out if vectors else (out, None)
    if index is None and emax is not None:
        keep = w <= emax
        w, v = w[keep], (v[:, keep] if vectors else None)
    return w, v


def _wave_amp(vecs: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """sum_m e^{i phase_m} v_m per column, phase_m = <k + m, x>; real vectors
    stay real in the products."""
    return np.cos(phase) @ vecs + 1j * (np.sin(phase) @ vecs)


# The most that an amplitude moves when an eigenvector is kept as its support
# window: every entry dropped from an n-entry vector has magnitude at most
# tau = _WINDOW_EPS / n, so sum_m v_m e^{i(k+m)x} moves by at most
# (n - W) tau < eps / 64, below the rounding of the sum itself
_WINDOW_EPS = _EPS / 64


def _support_windows(v: np.ndarray):
    """The columns of v (vectors over ms) as support windows: a start index
    into ms per column and the entries V[j, c] = v[start_c + j, c], j < W.
    W spans the widest run, over all columns, from a column's first to its
    last entry above tau = _WINDOW_EPS / n; a start moves down where
    start + W would pass the end, so a window holds only the column's own
    entries.  Each of the n - W entries dropped has magnitude at most tau."""
    n, cols = v.shape
    big = np.abs(v) > _WINDOW_EPS / n
    first = big.argmax(axis=0)
    last = n - 1 - big[::-1].argmax(axis=0)
    width = int((last - first).max(initial=0)) + 1
    start = np.minimum(first, n - width)
    return start, v[start + np.arange(width)[:, None], np.arange(cols)]


def _window_amp(km0: np.ndarray, V: np.ndarray, x: float) -> np.ndarray:
    """u(x) = sum_m v_m e^{i(k+m)x} per windowed column, as
    e^{i(k+m0)x} sum_j V_j e^{ijx}; km0 = k + m0 per column, m0 = ms[start]."""
    return np.exp(1j * km0 * x) * _wave_amp(V, np.arange(V.shape[0]) * x)


def _fermi_sums(w: np.ndarray, contrib: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Per lambda, the contributions summed over E <= lambda plus those
    summed over E < lambda (twice the averaged count)."""
    order = np.argsort(w, kind="stable")
    wsort = w[order]
    csum = np.concatenate([[0.0], np.cumsum(contrib[order])])
    n_le = np.searchsorted(wsort, lams, side="right")
    n_lt = np.searchsorted(wsort, lams, side="left")
    return csum[n_le] + csum[n_lt]


def _midpoint_separable(lams, x, y, four, M_cut, Nk, emax):
    """The paired midpoint sum of a table with every theta on an axis, as the
    Kronecker sum of the d axis fibers; d = 1 is its one-axis case."""
    d = len(x)
    tabs = [{} for _ in range(d)]  # axis a: the thetas along it; axis 0: bhat(0)
    for th, c in four.items():
        a = next((i for i, t in enumerate(th) if t), 0)
        tabs[a][(th[a],)] = c
    # no axis-a energy is below lo[a] (Gershgorin), so keep E_a <= emax - the other lo
    lo = [sum(c.real if t == (0,) else -abs(c) for t, c in tab.items())
          for tab in tabs]
    _, wts = _paired_grid(Nk, d)
    first, grid = Nk**d - len(wts), _midpoint_grid(Nk)
    axes = [{} for _ in range(d)]  # axis a: grid index -> (energies, u(x) conj u(y))
    for a, tab in enumerate(tabs):
        ms, bw = _banded_rep(tab, M_cut)
        emax_a = emax - sum(lo[:a] + lo[a + 1:])
        # point p has axis-a index p // Nk^(d-1-a) % Nk: the half grid
        # p >= first reaches axis 0 from first // Nk^(d-1), any other axis whole
        for i in range(first // Nk ** (d - 1) if a == 0 else 0, Nk):
            w, v = _eig_banded_k(grid[i], ms, tab, bw, emax=emax_a)
            ux = _wave_amp(v, (grid[i] + ms) * x[a])
            uy = ux if y[a] == x[a] else _wave_amp(v, (grid[i] + ms) * y[a])
            axes[a][i] = (w, ux * np.conj(uy))
    acc = np.zeros(lams.shape)
    for p, wt in enumerate(wts, first):
        ws, cs = zip(*(axes[a][p // Nk ** (d - 1 - a) % Nk] for a in range(d)))
        acc += wt * _fermi_sums(functools.reduce(np.add.outer, ws).ravel(),
                                functools.reduce(np.outer, cs).real.ravel(), lams)
    return acc


def _midpoint_dense(lams, x, y, four, M_cut, Nk, emax):
    """The paired midpoint sum with an off-axis theta, which couples the
    axes: one dense fiber per k."""
    d = len(x)
    acc = np.zeros(lams.shape)
    marr, V = _coupling(four, M_cut, d)
    ii = np.diag_indices_from(V)
    diag = np.array_equal(x, y)
    for k, wt in zip(*_paired_grid(Nk, d)):
        M = V.copy()
        M[ii] += ((k + marr) ** 2).sum(axis=1)
        w, v = eigh(M, overwrite_a=True, check_finite=False,
                    subset_by_value=(-np.inf, emax), driver="evr")
        ux = _wave_amp(v, (k + marr) @ x)
        uy = ux if diag else _wave_amp(v, (k + marr) @ y)
        acc += wt * _fermi_sums(w, (ux * np.conj(uy)).real, lams)
    return acc


# -- edge-corrected d=1 oracle ---------------------------------------------------

# Rayleigh-quotient steps per crossing-band node: the first from the
# interpolated shift, the second from the first's Rayleigh quotient
_RQI_STEPS = 2

# relative tolerance of the crossing point k*, 4 eps; its absolute one is 1e-13
_KSTAR_RTOL = 4 * sys.float_info.epsilon


class BlochOracle1D:
    """High-accuracy d=1 spectral function: complete bands by an Nh-node
    Gauss-Legendre rule over the half Brillouin zone (0, 1/2) (doubled by
    k -> -k symmetry), the Fermi-crossing band by root-finding plus a
    gauss_nodes-node Gauss-Legendre rule.  The module docstring gives the
    floors by lambda range: rounding for lambda >= 100 at the default Nh.
    The crossing point k* is the shared Brent root finder's root
    (roots.brent_root) of the band's eigenvalue by index; a crossing within
    1e-12 of 0 or 1/2 makes the band empty or whole.  The Gauss-node
    eigenvectors come from one batched, certified inverse iteration
    (_node_vectors).  Every eigenvector kept, at the complete-band nodes and
    at the Gauss nodes, is its support window (_support_windows), and every
    amplitude is formed from the window (_window_amp).  M_cut, Nh and
    gauss_nodes must be positive integers."""

    def __init__(self, b, M_cut: int, Nh: int = 32, gauss_nodes: int = 48):
        _check_sizes(M_cut=M_cut, Nh=Nh, gauss_nodes=gauss_nodes)
        self.four = lattice_fourier(b, 1)
        self.M_cut = M_cut
        self.Nh = Nh
        self.ms, self.bw = _banded_rep(self.four, M_cut)
        x, w = np.polynomial.legendre.leggauss(Nh)  # mapped to (0, 1/2)
        self.kgrid, self.kweights = 0.25 + 0.25 * x, 0.25 * w
        self.gx, self.gw = np.polynomial.legendre.leggauss(gauss_nodes)
        self._grid_spec = None   # lazily: per-k (energies, window starts, windows)
        self._edges = None       # band energies at k=0 and k=1/2
        self._emax_cached = 0.0
        self._crossing = {}      # (band, lambda) -> Gauss half-width, nodes, windows
        # eps ||H||_1 bounded over every fiber (|k + m| <= M_cut + 1/2)
        self._rounding = _EPS * ((M_cut + 0.5) ** 2
                                 + sum(abs(c) for c in self.four.values()))

    def _ensure_spectra(self, emax: float):
        if self._grid_spec is not None and emax <= self._emax_cached:
            return
        pad = emax * 1.05 + 10.0
        self._grid_spec = []
        for k in self.kgrid:
            w, v = _eig_banded_k(float(k), self.ms, self.four, self.bw, emax=pad)
            self._grid_spec.append((w, *_support_windows(v)))
        e0, _ = _eig_banded_k(0.0, self.ms, self.four, self.bw, emax=pad,
                              vectors=False)
        eh, _ = _eig_banded_k(0.5, self.ms, self.four, self.bw, emax=pad,
                              vectors=False)
        nb = min(e0.size, eh.size, min(w.size for w, _, _ in self._grid_spec))
        self._edges = (e0[:nb], eh[:nb])
        self._nbands = nb
        self._emax_cached = emax

    def _band_weight_grid(self, x: float, y: float) -> np.ndarray:
        """w[n, i] = Re u_n(x) conj(u_n(y)) at grid k_i, truncated to nb bands."""
        nb = self._nbands
        out = np.empty((nb, self.Nh))
        for i, (_, start, V) in enumerate(self._grid_spec):
            km0 = self.kgrid[i] + self.ms[start[:nb]]
            ux = _window_amp(km0, V[:, :nb], x)
            uy = ux if y == x else _window_amp(km0, V[:, :nb], y)
            out[:, i] = (ux * np.conj(uy)).real
        return out

    def evaluate(self, lams, x: float, y: Optional[float] = None) -> np.ndarray:
        lams, (x,), (y,) = _checked_inputs(lams, x, x if y is None else y, 1)
        lam_max = float(lams.max())
        _check_ceiling(lam_max, self.M_cut)
        self._ensure_spectra(lam_max)
        Wg = self._band_weight_grid(x, y)
        band_int = Wg @ self.kweights             # int_0^{1/2} per band
        cum = np.concatenate([[0.0], np.cumsum(band_int)])
        e0, eh = self._edges
        band_lo = np.minimum(e0, eh)
        band_hi = np.maximum(e0, eh)
        out = np.empty(lams.shape)
        for j, lam in enumerate(lams):
            n_full = int(np.searchsorted(band_hi, lam, side="right"))
            total = cum[n_full]
            n = n_full
            while n < self._nbands and band_lo[n] < lam:
                total += self._crossing_band(n, lam, x, y)
                n += 1
            out[j] = total * 2.0 / (2 * math.pi)
        return out

    def _crossing_nodes(self, n: int, lam: float):
        """Band n's part of {E_n(k) <= lam} in (0, 1/2) as a Gauss rule: the
        half-width, the nodes and the node eigenvectors as support windows
        (one column per node), solved once per (band, lam) for every later
        x, y."""
        hit = self._crossing.get((n, lam))
        if hit is None:
            e0, eh = self._edges
            increasing = eh[n] > e0[n]
            f = functools.cache(lambda k: _eig_banded_k(
                k, self.ms, self.four, self.bw, index=n, vectors=False)[0][0] - lam)
            lo, hi = 1e-12, 0.5 - 1e-12
            if (f(lo) > 0) == (f(hi) > 0):
                # the crossing lies within 1e-12 of an end of (0, 1/2): band n
                # counts as empty (above lam there) or whole (below it)
                kstar = 0.0 if (f(lo) > 0) == increasing else 0.5
            else:
                kstar = brent_root(f, lo, hi, xtol=1e-13, rtol=_KSTAR_RTOL)
            a, b = (0.0, kstar) if increasing else (kstar, 0.5)
            halfw = 0.5 * (b - a)
            nodes = 0.5 * (a + b) + halfw * self.gx
            vecs = self._node_vectors(n, nodes) if halfw else None
            hit = self._crossing[(n, lam)] = (halfw, nodes, vecs)
        return hit

    def _node_vectors(self, n: int, nodes: np.ndarray):
        """Band n's eigenvectors at the nodes as support windows
        (_support_windows), one column per node.

        Rayleigh-quotient inverse iteration on every node at once: the
        shifted fibers H(k_j) - sigma_j are stacked into one block-diagonal
        band matrix, zero at the block seams, so each step is one banded
        solve.  A node starts from band n's eigenvector at the nearest
        complete-band node, its window padded with zeros to the whole of ms,
        with sigma interpolated from band n's node energies and edges.

        Each node is then certified, else solved by index.  Its residual
        r = ||Hv - Ev|| must be at most eps ||H||_1: converged vectors were
        measured at up to 3.9 eps (|E| + sum |bhat|), and the ceiling keeps
        |E| <= (M_cut / 2)^2, about ||H||_1 / 4.  And [E - r, E + r] must lie
        inside band n's edges, each moved inward by its rounding bound
        n eps ||H||_1.  Some eigenvalue of H(k_j) lies within r of E
        (Parlett, The Symmetric Eigenvalue Problem, ch. 4), and in d = 1 no
        other band has energies there, so v is band n's."""
        ms, bw, kgrid = self.ms, self.bw, self.kgrid
        size = ms.size
        ab = _fiber_bands(nodes, ms, self.four, bw)
        e0, eh = self._edges
        grid = np.searchsorted(0.5 * (kgrid[1:] + kgrid[:-1]), nodes)  # nearest rule node
        vecs = np.zeros((nodes.size, size), dtype=ab.dtype)
        for row, i in zip(vecs, grid):
            _, start, V = self._grid_spec[i]
            row[start[n]:start[n] + V.shape[0]] = V[:, n]
        sigma = np.interp(nodes, np.r_[0.0, kgrid, 0.5],
                          np.r_[e0[n], [w[n] for w, _, _ in self._grid_spec], eh[n]])
        stacked = np.zeros((2 * bw + 1, nodes.size * size), dtype=ab.dtype)
        for t in range(1, bw + 1):
            stacked[bw + t] = ab[:, t].ravel()
            stacked[bw - t, t:] = stacked[bw + t, :-t].conj()
        res = np.full(nodes.size, np.inf)
        for _ in range(_RQI_STEPS):
            stacked[bw] = (ab[:, 0] - sigma[:, None]).ravel()
            try:
                vecs = solve_banded((bw, bw), stacked, vecs.ravel(),
                                    check_finite=False).reshape(vecs.shape)
            except LinAlgError:  # a shift on an eigenvalue: certify the last step
                break
            vecs /= np.linalg.norm(vecs, axis=1)[:, None]
            hv = ab[:, 0] * vecs
            for t in range(1, bw + 1):
                hv[:, t:] += ab[:, t, :-t] * vecs[:, :-t]
                hv[:, :-t] += ab[:, t, :-t].conj() * vecs[:, t:]
            sigma = np.einsum("ij,ij->i", vecs.conj(), hv).real
            res = np.linalg.norm(hv - sigma[:, None] * vecs, axis=1)
        lo, hi = min(e0[n], eh[n]), max(e0[n], eh[n])
        tol = size * self._rounding
        ok = ((res <= self._rounding) & (sigma - res > lo + tol)
              & (sigma + res < hi - tol))
        for j in np.flatnonzero(~ok):
            vecs[j] = _eig_banded_k(float(nodes[j]), ms, self.four, bw, index=n)[1][:, 0]
        return _support_windows(vecs.T)

    def _crossing_band(self, n: int, lam: float, x: float, y: float) -> float:
        halfw, nodes, windows = self._crossing_nodes(n, lam)
        if not halfw:
            return 0.0
        start, V = windows
        km0 = nodes + self.ms[start]
        ux = _window_amp(km0, V, x)
        uy = ux if y == x else _window_amp(km0, V, y)
        vals = (ux * np.conj(uy)).real
        return float(halfw * (self.gw * vals).sum())
