import json
import math
import os

import mpmath
import numpy as np
import pytest

from spectra_lab.errors import NonMultiplicationInput, ZeroFrequency
from spectra_lab.frequency import algebraic_sum, freq
from spectra_lab.gauge import (CutoffFamily, GaugeOutput, cutoff_eval, run_gauge,
                               verify_b3)
from spectra_lab.symbols import (Abs, Affine, Const, Iota, Prod, QuadShift,
                                 Quot, Sqrt, Sum, Symbol, XiGrid, is_symmetric,
                                 laplace_symbol, multiplication_symbol,
                                 op_matrix)
from spectra_lab.zones import ZoneParameters, sample_annulus

RHO = 1000.0


@pytest.fixture(scope="module")
def cf1():
    zp = ZoneParameters.create(RHO, 1)
    return CutoffFamily(RHO, zp.beta), zp


@pytest.fixture(scope="module")
def cf2():
    zp = ZoneParameters.create(RHO, 2)
    return CutoffFamily(RHO, zp.beta), zp


def _mathieu(basis, v):
    return multiplication_symbol({freq([1], basis): v, freq([-1], basis): v})


def test_cutoff_e_plateau(rational_basis, cf1):
    cf, _ = cf1
    th = freq([1], rational_basis)
    # |xi + theta/2| = 3 rho -> argument 0 -> 1
    assert cutoff_eval("e", th, np.array([3 * RHO - 0.5]), cf) == 1.0
    # far outside the shell -> 0
    assert cutoff_eval("e", th, np.array([10 * RHO]), cf) == 0.0


def test_cutoff_phi_and_chi(rational_basis, cf1):
    cf, _ = cf1
    th = freq([1], rational_basis)
    # <theta, xi + theta/2> = 0 -> phi = 0 and chi = 0/0 = 0
    xi = np.array([-0.5])
    assert cutoff_eval("phi", th, xi, cf) == 0.0
    assert cutoff_eval("chi", th, xi, cf) == 0.0
    with pytest.raises(ZeroFrequency):
        cutoff_eval("phi", freq([0], rational_basis), xi, cf)


def test_cutoff_ranges(rational_basis, cf1, rng):
    cf, _ = cf1
    th = freq([1], rational_basis)
    xi = rng.uniform(-5 * RHO, 5 * RHO, size=(300, 1))
    e = cutoff_eval("e", th, xi, cf)
    p = cutoff_eval("phi", th, xi, cf)
    assert ((0 <= e) & (e <= 1)).all()
    assert ((0 <= p) & (p <= 1)).all()


def test_cutoff_symmetry_identity(rational_basis, cf1, rng):
    # e_theta(xi) = e_{-theta}(xi + theta), same for phi
    cf, _ = cf1
    th = freq([1], rational_basis)
    xi = rng.uniform(-4 * RHO, 4 * RHO, size=(200, 1))
    t = th.to_float()
    for kind in ("e", "phi"):
        a = cutoff_eval(kind, th, xi, cf)
        b = cutoff_eval(kind, -th, xi + t, cf)
        assert np.abs(np.asarray(a) - np.asarray(b)).max() < 1e-12


def test_first_order_psi_formula(rational_basis, cf1, mathieu1d, rng):
    cf, _ = cf1
    v = 0.37
    b = _mathieu(rational_basis, v)
    psi1 = run_gauge(b, 1, cf, mathieu1d).psi[0]
    th = freq([1], rational_basis)
    xi = rng.uniform(0.5 * RHO, 4 * RHO, size=(100, 1))
    got = psi1.coeff(th).eval(xi)
    e = cutoff_eval("e", th, xi, cf)
    p = cutoff_eval("phi", th, xi, cf)
    want = 1j * v * e * p / (2.0 * (xi[:, 0] + 0.5))
    assert np.abs(got - want).max() < 1e-14


def test_requires_multiplication_symbol(rational_basis, cf1, mathieu1d):
    cf, _ = cf1
    bad = Symbol({freq([1], rational_basis): QuadShift([0.0])})
    with pytest.raises(NonMultiplicationInput):
        run_gauge(bad, 1, cf, mathieu1d)


def test_gauge_zero_potential(rational_basis, cf1, mathieu1d):
    cf, _ = cf1
    zero = Symbol({})
    out = run_gauge(zero, 2, cf, mathieu1d)
    assert out.w.is_zero() or all(
        th.is_zero() for th in out.w.support())
    assert all(p.is_zero() for p in out.psi)


def test_ktilde1_closed_form(rational_basis, cf1, mathieu1d, rng):
    cf, zp = cf1
    v = 0.25
    b = _mathieu(rational_basis, v)
    out = run_gauge(b, 1, cf, mathieu1d)
    th = freq([1], rational_basis)
    xi = sample_annulus(1, RHO, 100, rng)
    e = cutoff_eval("e", th, xi, cf)
    p = cutoff_eval("phi", th, xi, cf)
    want = v * (1.0 - e * p)
    got = out.w.coeff(th).eval(xi)
    assert np.abs(got - want).max() == 0.0


def test_gauge_symmetry_and_support(rational_basis, cf1, mathieu1d, rng):
    cf, zp = cf1
    b = _mathieu(rational_basis, 0.25)
    out = run_gauge(b, 2, cf, mathieu1d)
    pts = sample_annulus(1, RHO, 150, rng)
    grid = XiGrid(pts, zp.beta)
    assert is_symmetric(out.psi[0], grid)
    assert is_symmetric(out.psi[1], grid)
    assert is_symmetric(out.w, grid)
    theta2 = set(algebraic_sum(mathieu1d, 2).elements)
    assert set(out.w.support()) <= theta2


@pytest.mark.parametrize("a1, a2, xi", [
    (0.11, 0.21, (2951.9086737777775, 1.8791913152021311)),
    (0.39, 0.29, (-0.5752834687455157, 2234.6233962862575)),
    (0.32, 0.26, (-1.460769454850074, -1662.6667052615041)),
])
def test_w_k3_symmetric_at_large_xi(axes2d, rational_basis, a1, a2, xi):
    """w at ktilde = 3 is symmetric to is_symmetric's absolute 1e-12 at large
    |xi|.  [|xi|^2, g] formed as a difference of two compositions, with
    terms of size |xi|^2 ~ 1e7, misses it here by 1.7e-12 to 3.1e-12."""
    e1, e2 = freq([1, 0], rational_basis), freq([0, 1], rational_basis)
    b = multiplication_symbol({e1: a1, -e1: a1, e2: a2, -e2: a2})
    zp = ZoneParameters.create(RHO, 2, ktilde=3)
    out = run_gauge(b, 3, CutoffFamily(RHO, zp.beta), axes2d)
    assert is_symmetric(out.w, XiGrid(np.array([xi]), zp.beta))


def test_verify_b3_mathieu(rational_basis, cf1, mathieu1d, rng):
    cf, zp = cf1
    b = _mathieu(rational_basis, 0.25)
    out = run_gauge(b, 2, cf, mathieu1d)
    pts = sample_annulus(1, RHO, 400, rng)
    rep = verify_b3(out, pts, mathieu1d, zp)
    assert rep["passed"]
    assert rep["checked"] > 0
    assert rep["tol"] == 1e-12


def test_verify_b3_flags_nonzero_w_off_the_slab(rational_basis):
    """A hand-built w with a nonzero constant at theta = 1: every sample where
    xi or xi + 1 leaves the slab |xi| <= L_1 (13.34 at rho_n = 1000) is a
    violation; theta = -1's constant is below B3_TOL and theta = 0 is exempt."""
    zp = ZoneParameters.create(RHO, 1)
    one = freq([1], rational_basis)
    w = Symbol({one: Const(2e-12), -one: Const(1e-13), one - one: Const(5.0)})
    out = GaugeOutput(psi=[], w=w, diagnostics={})
    pts = np.array([[0.0], [5.0], [100.0], [-200.0], [13.0]])
    rep = verify_b3(out, pts, None, zp)
    # theta = 1 checks 100, -200 and 13 (13 + 1 leaves); theta = -1 checks
    # 100 and -200
    assert rep["checked"] == 5
    assert rep["violations"] == [
        {"theta": (1.0,), "xi": (100.0,), "abs_w": 2e-12},
        {"theta": (1.0,), "xi": (-200.0,), "abs_w": 2e-12},
        {"theta": (1.0,), "xi": (13.0,), "abs_w": 2e-12}]
    assert not rep["passed"]


def _b3_per_theta(out, samples, zp):
    """verify_b3's checked count and violations, each theta evaluated alone."""
    L1 = zp.L(1)
    checked, violations = 0, []
    for th, ex in out.w.coeffs.items():
        if th.is_zero():
            continue
        t = th.to_float()
        nt = np.linalg.norm(t)
        mask = (np.abs(samples @ t) / nt > L1) | (np.abs((samples + t) @ t) / nt > L1)
        if not mask.any():
            continue
        vals = np.abs(ex.eval(samples[mask]))
        checked += int(mask.sum())
        for i, v in zip(np.where(mask)[0], vals):
            if v > 1e-12:
                violations.append({"theta": tuple(t), "xi": tuple(samples[i]),
                                   "abs_w": float(v)})
    return checked, violations


def test_verify_b3_matches_per_theta_loop(axes2d, rational_basis):
    """On the axes2d gauge at ktilde = 3, and on its w plus 1e-15 |xi + theta|^2
    at every theta (which breaks b3 off the slab), the shared-memo
    verify_b3 reports what evaluating each theta alone does."""
    e1, e2 = freq([1, 0], rational_basis), freq([0, 1], rational_basis)
    b = multiplication_symbol({e1: 0.3, -e1: 0.3, e2: 0.25, -e2: 0.25})
    zp = ZoneParameters.create(RHO, 2, ktilde=3)
    out = run_gauge(b, 3, CutoffFamily(RHO, zp.beta), axes2d)
    pts = sample_annulus(2, RHO, 300, np.random.default_rng(7))
    bent = GaugeOutput(psi=out.psi, diagnostics={}, w=Symbol({
        th: Sum([ex, Prod([Const(1e-15), QuadShift(th.to_float())])])
        for th, ex in out.w.coeffs.items()}))
    reps = []
    for o in (out, bent):
        rep = verify_b3(o, pts, axes2d, zp)
        checked, violations = _b3_per_theta(o, pts, zp)
        assert checked > 0 and rep["checked"] == checked
        assert rep["violations"] == violations
        reps.append(rep)
    assert reps[0]["passed"]
    assert len(reps[1]["violations"]) == reps[1]["checked"] == reps[0]["checked"]


def test_norm_ladder_decreases(rational_basis, cf1, mathieu1d, rng):
    cf, zp = cf1
    b = _mathieu(rational_basis, 0.25)
    grid = XiGrid(sample_annulus(1, RHO, 200, rng), zp.beta)
    out = run_gauge(b, 3, cf, mathieu1d, norm_grid=grid)
    ladder = [e["norm"] for e in out.diagnostics["psi_norm_ladder"]]
    assert ladder[0] > ladder[1] > ladder[2]
    assert "remainder_norm" in out.diagnostics


def test_finite_matrix_conjugation_crosscheck(rational_basis, cf1, mathieu1d, rng):
    """Independent check of the order-2 construction: conjugate the operator
    matrix on a frequency window by exp(i Psi) (3-commutator truncation) and
    compare against the matrix of the gauged symbol w."""
    cf, zp = cf1
    v = 0.1
    b = _mathieu(rational_basis, v)
    out = run_gauge(b, 2, cf, mathieu1d)
    H_sym = laplace_symbol(1, rational_basis) + b
    psi_sym = out.psi[0] + out.psi[1]
    w_sym = laplace_symbol(1, rational_basis) + out.w

    J = 6
    for _ in range(20):
        base = rng.uniform(0.8 * RHO, 1.2 * RHO)
        etas = [freq([j], rational_basis) for j in range(-J, J + 1)]
        shift = np.array([base])
        H = _op_matrix_at(H_sym, etas, shift)
        P = _op_matrix_at(psi_sym, etas, shift)
        W = _op_matrix_at(w_sym, etas, shift)
        iP = 1j * P
        A = H.copy()
        C = H.copy()
        fact = 1.0
        for l in range(1, 4):
            C = C @ iP - iP @ C
            fact *= l
            A = A + C / fact
        # compare central columns; edges are polluted by window truncation
        mid = slice(J - 2, J + 3)
        assert np.abs(A[mid, mid] - W[mid, mid]).max() < 1e-5


def _op_matrix_at(sym, etas, shift):
    n = len(etas)
    M = np.zeros((n, n), dtype=complex)
    for j, eta in enumerate(etas):
        xi = eta.to_float() + shift
        for i, etap in enumerate(etas):
            ex = sym.coeffs.get(etap - eta)
            if ex is not None:
                M[i, j] = complex(ex.eval(xi))
    return M


# -- golden values: axes2d report, psi_j and w at fixed xi ------------------------

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "gauge_axes2d.json")
AXES2D = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "axes2d.json")
GOLDEN_TOL = 1e-14


def _coeff_table(sym, xi):
    """theta -> [re, im] of the coefficient at every xi, for theta in the support."""
    out = {}
    for th in sym.support():
        vals = np.broadcast_to(sym.coeff(th).eval(xi), xi.shape[:-1])
        key = ",".join(format(float(v), "g") for v in th.to_float())
        out[key] = [vals.real.tolist(), vals.imag.tolist()]
    return out


def golden_gauge_axes2d(tmp_dir):
    """Everything tests/golden/gauge_axes2d.json holds, computed afresh."""
    from spectra_lab.cli import main
    from spectra_lab.frequency import FrequencySet, GeneratorBasis

    report_path = os.path.join(tmp_dir, "gauge_report.json")
    assert main(["gauge", "--config", AXES2D, "--out", report_path]) == 0
    with open(report_path) as fh:
        report = json.load(fh)

    basis = GeneratorBasis(None)
    e1, e2 = freq([1, 0], basis), freq([0, 1], basis)
    S = FrequencySet.build(2, basis, [e1, e2])
    b = multiplication_symbol({e1: 0.3, -e1: 0.3, e2: 0.25, -e2: 0.25})
    xi = sample_annulus(2, RHO, 16, np.random.default_rng(20240817))
    orders = {}
    for k in (1, 2, 3):
        zp = ZoneParameters.create(RHO, 2, ktilde=k)
        out = run_gauge(b, k, CutoffFamily(RHO, zp.beta), S)
        orders[str(k)] = {"psi": [_coeff_table(p, xi) for p in out.psi],
                          "w": _coeff_table(out.w, xi)}
    return {"report": report, "xi": xi.tolist(), "orders": orders}


def _assert_matches(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_matches(got[key], want[key], "%s.%s" % (path, key))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, "%s[%d]" % (path, i))
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= GOLDEN_TOL, \
            "%s: %r != %r" % (path, got, want)
    else:  # bool, int, str, None: supports, flags and counts are exact
        assert type(got) is type(want) and got == want, "%s: %r != %r" % (path, got, want)


def test_gauge_axes2d_golden(tmp_path):
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = json.loads(json.dumps(golden_gauge_axes2d(str(tmp_path))))
    _assert_matches(got, want)


# -- a 50-digit referee for the gauge report's class norms ------------------------


def _mp_eval(node, xi, memo):
    """The node at one point xi (mpf coordinates) in mpmath, memoised in memo;
    the arithmetic of each of the nine node types, with the float leaves
    (constants, weights, shifts, iota's breakpoints) taken exactly."""
    v = memo.get(node)
    if v is not None:
        return v
    if isinstance(node, Const):
        v = mpmath.mpc(node.c.real, node.c.imag)
    elif isinstance(node, Affine):
        v = sum((x * w for x, w in zip(xi, node.w)), mpmath.mpc(node.c.real, node.c.imag))
    elif isinstance(node, QuadShift):
        v = mpmath.mpc(sum((x + c) ** 2 for x, c in zip(xi, node.v)))
    elif isinstance(node, Sum):
        v = sum((_mp_eval(t, xi, memo) for t in node.terms), mpmath.mpc(0))
    elif isinstance(node, Prod):
        v = mpmath.mpc(1)
        for f in node.factors:
            v = v * _mp_eval(f, xi, memo)
    elif isinstance(node, Quot):
        n = _mp_eval(node.num, xi, memo)
        v = n / _mp_eval(node.den, xi, memo) if n != 0 else mpmath.mpc(0)
    else:
        u = mpmath.re(_mp_eval(node.arg, xi, memo))
        if isinstance(node, Abs):
            v = mpmath.mpc(abs(u))
        elif isinstance(node, Sqrt):
            v = mpmath.mpc(mpmath.sqrt(max(u, 0)))
        else:
            assert isinstance(node, Iota), type(node)
            v = mpmath.mpc(_mp_iota(u))
    memo[node] = v
    return v


def _mp_iota(z):
    z0, z1 = mpmath.mpf(0.25), mpmath.mpf(0.275)
    if z <= z0:
        return mpmath.mpf(1)
    if z >= z1:
        return mpmath.mpf(0)
    u = (z1 - z) / (z1 - z0)
    fu, fv = mpmath.exp(-1 / u), mpmath.exp(-1 / (1 - u))
    return fu / (fu + fv)


def _mp_class_norm(sym, pts, memos):
    """sum_theta |bhat(theta, xi_theta)| at 50 digits, where xi_theta is the
    float argmax of |bhat(theta, .)| over pts."""
    total = mpmath.mpf(0)
    for ex in sym.coeffs.values():
        i = int(np.argmax(np.abs(ex.eval(pts))))
        memo = memos.setdefault(i, {})
        total += abs(_mp_eval(ex, [mpmath.mpf(float(x)) for x in pts[i]], memo))
    return total


def test_gauge_report_norms_match_high_precision():
    """The axes2d gauge report's psi_2 and remainder class norms agree with a
    50-digit evaluation of the same DAG to 1e-15.  A Laplacian commutator
    formed as |xi+phi|^2 g - g |xi|^2 misses by 8.5e-14 and 2.1e-12: its
    terms of size |xi|^2 ~ 1e7 cancel."""
    from spectra_lab.config import parse_config
    from spectra_lab.frequency import (FrequencySet, GeneratorBasis,
                                       potential_frequencies)
    from spectra_lab.gauge import _graded_conjugate

    cfg = parse_config(AXES2D, "gauge")
    S = FrequencySet.build(cfg.dimension, GeneratorBasis(cfg.surd_D),
                           potential_frequencies(cfg.potential))
    zp = ZoneParameters.create(cfg.rho_n, cfg.dimension, alpha=cfg.alpha,
                               ktilde=cfg.ktilde)
    b = multiplication_symbol(cfg.potential)
    pts = sample_annulus(cfg.dimension, cfg.rho_n, cfg.samples,
                         np.random.default_rng(cfg.seed))
    out = run_gauge(b, cfg.ktilde, CutoffFamily(cfg.rho_n, zp.beta), S,
                    norm_grid=XiGrid(pts, zp.beta))
    H = {0: laplace_symbol(cfg.dimension, S.basis), 1: b}
    iPsi = {j: p.scale(1j) for j, p in enumerate(out.psi, start=1) if not p.is_zero()}
    remainder = _graded_conjugate(H, iPsi, cfg.ktilde + 1)[cfg.ktilde + 1]
    memos: dict = {}
    with mpmath.workdps(50):
        psi2 = _mp_class_norm(out.psi[1], pts, memos)
        rem = _mp_class_norm(remainder, pts, memos)
    assert abs(out.diagnostics["psi_norm_ladder"][1]["norm"] - float(psi2)) <= 1e-15
    assert abs(out.diagnostics["remainder_norm"] - float(rem)) <= 1e-15


if __name__ == "__main__":
    # Regenerate the golden file: PYTHONPATH=src python tests/test_gauge.py
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        payload = golden_gauge_axes2d(tmp)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
