import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectra_lab.errors import (CoincidingPoints, ContourTooClose,
                                DivergentSeries, NonHermitianPotential)
from spectra_lab.validation import (ExpansionCoefficients, MatrixFamily,
                                    QuadratureConfig, binned_envelope,
                                    check_contour_identity,
                                    check_projection_perturbation,
                                    coefficients_from_potential,
                                    diagonal_growth_check, expansion_eval,
                                    fit_power_coefficient, free_offdiagonal,
                                    random_family, refine_contour_identity,
                                    residual_ladder,
                                    resolvent_series_check,
                                    scalar_free_family, weyl_constant)


def test_expansion_weyl_term():
    c = ExpansionCoefficients(1, ())
    lam = np.array([4.0, 100.0])
    assert np.allclose(expansion_eval(c, lam, 0.0),
                       weyl_constant(1) * np.sqrt(lam), atol=0)
    c2 = ExpansionCoefficients(2, (lambda x: -0.5,))
    # L = 0 is the Weyl term regardless of available coefficients
    assert expansion_eval(c2, 100.0, 0.0, L=0) == weyl_constant(2) * 100.0


def test_expansion_with_a1():
    from spectra_lab.heat import TrigPotential

    b = TrigPotential.build(1, {(1,): 1, (-1,): 1})  # 2 cos x
    coeffs = coefficients_from_potential(b, 1)
    # a_1(0) = -1/pi
    assert abs(coeffs.values([0.0])[0] + 1.0 / math.pi) < 1e-14
    val = expansion_eval(coeffs, 100.0, [0.0], L=1)
    want = 10.0 / math.pi + (-1.0 / math.pi) * 0.1
    assert abs(val - want) < 1e-13


# exact coefficients as sympy strings; d3 has a complex Hermitian pair
COEFFICIENT_TABLES = {
    "tri": (1, {(1,): "1/5", (-1,): "1/5"}),
    "penta": (1, {(1,): "1/5", (-1,): "1/5", (2,): "1/10", (-2,): "1/10"}),
    "const": (1, {(0,): "1/10", (1,): "1/5", (-1,): "1/5", (3,): "7/100",
                  (-3,): "7/100"}),
    "axes2d": (2, {(1, 0): "3/10", (-1, 0): "3/10", (0, 1): "1/4",
                   (0, -1): "1/4"}),
    "d3": (3, {(1, 0, 0): "1/5", (-1, 0, 0): "1/5", (0, 1, 1): "1/10 + I/20",
               (0, -1, -1): "1/10 - I/20", (1, 0, 2): "1/20",
               (-1, 0, -2): "1/20"}),
}


@pytest.mark.parametrize("name", sorted(COEFFICIENT_TABLES))
def test_coefficients_match_closed_form(name):
    """a_1, a_2 from the Fourier data against the lambdified exact
    heat.closed_form_a at 20 seeded points; in d = 2 a_2 is exactly 0.0."""
    import sympy as sp

    from spectra_lab.heat import TrigPotential, closed_form_a, x_vars

    d, table = COEFFICIENT_TABLES[name]
    b = TrigPotential.build(d, {th: sp.sympify(c) for th, c in table.items()})
    coeffs = coefficients_from_potential(b, 2)
    xs = x_vars(d)
    exact = [sp.lambdify(xs, closed_form_a(b, j), "numpy") for j in (1, 2)]
    rng = np.random.default_rng(2024)
    for x in rng.uniform(-2 * math.pi, 2 * math.pi, (20, d)):
        got = coeffs.values(x)
        want = [float(np.real(f(*x))) for f in exact]
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-15, (x, got, want)
        if d == 2:
            assert got[1] == 0.0


def _reference_a(d, table):
    """a_1 = -(d/2) C_d b and a_2 = d (d-2)/24 C_d (3 b^2 - Delta b) as
    plain sympy over heat.x_vars(d), with Delta from sp.diff."""
    import sympy as sp

    from spectra_lab.heat import x_vars

    xs = x_vars(d)
    b = sum(sp.sympify(c) * sp.exp(sp.I * sum(t * v for t, v in zip(th, xs)))
            for th, c in table.items())
    C = sp.pi ** sp.Rational(d, 2) / sp.gamma(1 + sp.Rational(d, 2)) \
        / (2 * sp.pi) ** d
    lap = sum(sp.diff(b, v, 2) for v in xs)
    return (-sp.Rational(d, 2) * C * b,
            sp.Rational(d * (d - 2), 24) * C * (3 * b**2 - lap))


@pytest.mark.parametrize("name", sorted(COEFFICIENT_TABLES))
def test_exact_coefficients_match_reference(name):
    """heat's table arithmetic against an independent sympy derivation: a_1,
    a_2 and their means equal exactly, and the sigma-engine ratio is
    2/(d+2) by ==."""
    import sympy as sp

    from spectra_lab.heat import (TrigPotential, closed_form_a,
                                  discrepancy_report, mean_a, x_vars)

    d, table = COEFFICIENT_TABLES[name]
    b = TrigPotential.build(d, {th: sp.sympify(c) for th, c in table.items()})
    xs = x_vars(d)
    for j, ref in enumerate(_reference_a(d, table), start=1):
        ref = sp.expand(ref)
        diff = sp.expand((closed_form_a(b, j) - ref).rewrite(sp.exp))
        assert diff == 0, (j, diff)
        ref_mean = sum(t for t in sp.Add.make_args(ref) if not t.has(*xs))
        assert sp.expand(mean_a(b, j) - ref_mean) == 0, j
    rep = discrepancy_report(b, [0.3] * d)
    assert rep["ratio"] == sp.Rational(2, d + 2)


@st.composite
def hermitian_tables(draw):
    """(d, table): a Hermitian table with rational coefficients and integer
    frequencies of bandwidth <= 3 in d in {1, 2, 3}."""
    d = draw(st.integers(1, 3))
    coef = st.fractions(-1, 1, max_denominator=60)
    thetas = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d),
                           min_size=1, max_size=5))
    table = {}
    for th in thetas:
        re = draw(coef)
        im = 0 if not any(th) else draw(coef)
        table[th] = (re, im)
        table[tuple(-t for t in th)] = (re, -im)
    return d, table


@settings(max_examples=40, deadline=None)
@given(hermitian_tables(), st.data())
def test_exact_coefficients_float_agree(dt, data):
    """float of the exact a_1, a_2 at a drawn x lies within 4 eps scale of
    the numpy values, scale the sum of the terms' magnitudes, each widened
    by its phase |<theta, x>| (the rounding of the argument)."""
    import sympy as sp

    from spectra_lab.heat import TrigPotential, at_point, closed_form_a

    d, table = dt
    x = data.draw(st.lists(st.floats(-2 * math.pi, 2 * math.pi),
                           min_size=d, max_size=d))
    b = TrigPotential.build(d, {th: sp.Rational(re) + sp.I * sp.Rational(im)
                                for th, (re, im) in table.items()})
    got = coefficients_from_potential(b, 2).values(x)
    mags = [(abs(complex(re, im)), float(np.dot(th, th)),
             1.0 + abs(float(np.dot(th, x)))) for th, (re, im) in table.items()]
    c1 = d / 2.0 * weyl_constant(d)
    c2 = abs(d * (d - 2) / 24.0) * weyl_constant(d)
    size = sum(m for m, _, _ in mags)
    scales = (c1 * sum(m * w for m, _, w in mags),
              c2 * sum((6 * size + n) * m * w for m, n, w in mags))
    eps = np.finfo(float).eps
    for j, (g, scale) in enumerate(zip(got, scales), start=1):
        want = float(at_point(closed_form_a(b, j), x))
        assert abs(want - g) <= 4 * eps * scale, (j, want, g, scale)


def test_coefficients_reject_bad_input():
    from spectra_lab.heat import TrigPotential

    b = TrigPotential.build(1, {(1,): 1, (-1,): 1})
    with pytest.raises(ValueError):
        coefficients_from_potential(b, 3)
    with pytest.raises(ValueError):
        coefficients_from_potential(b, 2).values([0.0, 1.0])
    # no conjugate partner, and a purely imaginary b = 0.2i (e^{ix} + e^{-ix})
    for table in ({(1,): 0.2}, {(1,): 0.2j, (-1,): 0.2j}):
        with pytest.raises(NonHermitianPotential):
            coefficients_from_potential(TrigPotential.build(1, table), 2)


def test_free_offdiagonal_d1_identity():
    lam = np.geomspace(1.0, 1e4, 25)
    r = 1.3
    got = free_offdiagonal(lam, 0.0, r, 1)
    want = np.sin(np.sqrt(lam) * r) / (math.pi * r)
    assert np.max(np.abs(got - want)) < 1e-14


def test_free_offdiagonal_d3_leading():
    lam = np.array([7.0, 150.0])
    r = 0.6
    got = free_offdiagonal(lam, np.zeros(3), np.array([r, 0, 0]), 3)
    want = -np.sqrt(lam) * np.cos(np.sqrt(lam) * r) / (2 * math.pi**2 * r**2)
    assert np.max(np.abs(got - want)) < 1e-12


def test_free_offdiagonal_zeros():
    d, r = 2, 1.0
    for k in range(1, 5):
        root = (k * math.pi + math.pi * (d - 1) / 4) / r
        assert abs(free_offdiagonal(root**2, 0.0 * np.zeros(2),
                                    np.array([r, 0.0]), d)) < 1e-12


def test_coinciding_points():
    with pytest.raises(CoincidingPoints):
        free_offdiagonal(10.0, 0.5, 0.5, 1)


def test_residual_ladder_noise_floor():
    lam = np.geomspace(100.0, 10000.0, 30)
    c = ExpansionCoefficients(1, ())
    oracle = expansion_eval(c, lam, 0.0) * (1 + 1e-12)  # pure noise residual
    rl = residual_ladder(c, lam, oracle, 0, 0.0)
    assert rl.noise_floor[0]
    assert rl.slopes[0] is None


def test_residual_ladder_recovers_coefficient():
    lam = np.geomspace(100.0, 10000.0, 60)
    c = ExpansionCoefficients(1, ())
    a1 = -0.05
    oracle = expansion_eval(c, lam, 0.0) + a1 * lam**-0.5 + 1e-4 * lam**-1.5
    rl = residual_ladder(c, lam, oracle, 0, 0.0)
    fit = fit_power_coefficient(lam, rl.residuals[0], -0.5)
    assert abs(fit - a1) / abs(a1) < 0.01
    assert rl.slopes[0] == pytest.approx(-0.5, abs=0.02)


def test_binned_envelope_sign_rule():
    lam = np.geomspace(100.0, 10000.0, 200)
    # coherent signal keeps only uniform-sign bins
    centers, meds = binned_envelope(lam, lam**-0.5)
    assert len(centers) >= 10
    # fast oscillation falls back to all-bin medians
    osc = lam**-0.5 * np.sin(5.0 * np.sqrt(lam))
    centers2, meds2 = binned_envelope(lam, osc)
    assert len(centers2) >= 10
    slope = np.polyfit(np.log(centers2), np.log(meds2), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


@pytest.mark.parametrize("lams", [[0.0, 1.0, 2.0], [-2.0, -1.0, 1.0],
                                  [1.0, 2.0, math.inf], [1.0, math.nan, 2.0]])
def test_ladder_finite_and_positive(lams):
    """Each geometric bin edge is the last times 1.3, so an edge at 0 stays
    there, a negative one runs off to -inf and an infinite top is never
    passed: both entry points raise before the bin loop instead."""
    with pytest.raises(ValueError, match="finite and > 0"):
        binned_envelope(lams, np.ones(3))
    c = ExpansionCoefficients(1, ())
    if (np.diff(lams) > 0).all():
        with pytest.raises(ValueError, match="finite and > 0"):
            residual_ladder(c, lams, np.ones(3), 0, 0.0)


def test_projection_perturbation_bounds():
    for s, eps in ((0, 1e-2), (2, 1e-3)):
        rep = check_projection_perturbation(25, s, eps, 25, seed=3)
        assert rep["passed"]
        assert rep["min_slack_norm"] >= 0.0
        assert rep["min_slack_vector"] >= 0.0


def test_projection_perturbation_delta_boundary():
    rep = check_projection_perturbation(20, 0, 1e-3, 10, seed=5, delta=1e-3)
    assert rep["passed"]
    with pytest.raises(ValueError):
        check_projection_perturbation(10, 0, 1e-2, 1, seed=0, delta=1e-3)


def test_contour_identity_scalar():
    rep = check_contour_identity(scalar_free_family(), (1.0, 4.0))
    assert abs(rep["lhs"] - 1.0) < 1e-12
    assert rep["abs_diff"] < 1e-12


def test_contour_identity_zero_f():
    fam = random_family(3, 2, 1)
    rep = check_contour_identity(fam, (1.0, 4.0),
                                 f=lambda z: np.zeros(3, dtype=complex))
    assert rep["lhs"] == 0.0
    assert abs(rep["rhs_real"]) + abs(rep["rhs_imag"]) < 1e-15


def test_contour_identity_random_family():
    fam = random_family(4, 2, 11)
    rep = check_contour_identity(fam, (1.0, 4.0))
    assert rep["abs_diff"] < 1e-8


def test_contour_too_close():
    # zero margin puts the contour through the eigenvalue crossing points
    quad = QuadratureConfig(margin=0.0, min_sv=1e-2)
    # names the first contour point, in (mu, z) order, below min_sv
    msg = "^singular value 1.042e-03 below 1.0e-02 on the contour$"
    with pytest.raises(ContourTooClose, match=msg):
        check_contour_identity(scalar_free_family(), (1.0, 4.0), quad=quad)


GUARD_QUAD = dict(n_r=8, n_mu=8, n_contour=32)


def _contour_points(fam, interval, quad):
    """The mu nodes and contour points of check_contour_identity, in order."""
    lam_lo, lam_hi = interval
    smax = fam.s_norm_bound(math.sqrt(lam_hi) + 1.0 + 1.0)
    r_lo, r_hi = math.sqrt(lam_lo - smax), math.sqrt(lam_hi + smax)
    center = 0.5 * (r_lo + r_hi)
    radius = 0.5 * (r_hi - r_lo) + quad.margin * (r_hi - r_lo + 1.0)
    phis = 2.0 * math.pi * np.arange(quad.n_contour) / quad.n_contour
    x, _ = np.polynomial.legendre.leggauss(quad.n_mu)
    mus = 0.5 * (lam_hi - lam_lo) * x + 0.5 * (lam_lo + lam_hi)
    return mus, center + radius * np.exp(1j * phis)


def _reference_guard(fam, interval, quad):
    """The message of the first (mu, z), in order, where one svd of
    H_2(z) - mu finds a singular value below quad.min_sv; None if none does."""
    mus, zs = _contour_points(fam, interval, quad)
    for mu in mus:
        for z in zs:
            M = fam.H2(z) - mu * np.eye(fam.size)
            sv = np.linalg.svd(M, compute_uv=False)[-1]
            if sv < quad.min_sv:
                return ("singular value %.3e below %.1e on the contour"
                        % (sv, quad.min_sv))
    return None


def _assert_guard_matches_reference(fam, quad):
    want = _reference_guard(fam, (1.0, 4.0), quad)
    if want is None:
        check_contour_identity(fam, (1.0, 4.0), quad=quad)
    else:
        with pytest.raises(ContourTooClose) as err:
            check_contour_identity(fam, (1.0, 4.0), quad=quad)
        assert str(err.value) == want


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 4]),
       margin=st.floats(0.0, 0.3), log_min_sv=st.floats(-4.0, 1.0))
# the bound clears only some points and the exact svd passes the rest
@example(seed=2, n=2, margin=0.02, log_min_sv=math.log10(0.46))
def test_contour_guard_matches_reference(seed, n, margin, log_min_sv):
    quad = QuadratureConfig(margin=margin, min_sv=10.0**log_min_sv,
                            **GUARD_QUAD)
    _assert_guard_matches_reference(random_family(n, 2, seed), quad)


def test_contour_guard_bound_certifies_nothing():
    fam = random_family(4, 2, 0)
    quad = QuadratureConfig(min_sv=10.0, **GUARD_QUAD)
    mus, zs = _contour_points(fam, (1.0, 4.0), quad)
    s_norm = np.array([np.linalg.norm(fam.S(z), 2) for z in zs])
    weyl = np.abs(zs[None, :] ** 2 - mus[:, None]) - s_norm
    # no (mu, z) is cleared by the bound, so the exact svd decides
    assert weyl.max() < quad.min_sv
    _assert_guard_matches_reference(fam, quad)


def test_resolvent_series_rate():
    fam = random_family(4, 2, 3)
    z, mu = 2.5 + 0.0j, 4.0
    ratio = np.linalg.norm(fam.S(z), 2) / abs(z * z - mu)
    fam2 = MatrixFamily(tuple(C * (0.5 / ratio) for C in fam.coeffs))
    rep = resolvent_series_check(fam2, z, mu, 12)
    assert rep["ratio"] == pytest.approx(0.5, abs=1e-12)
    rates = [rep["errors"][i + 1] / rep["errors"][i] for i in range(4, 8)]
    assert all(abs(r - 0.5) < 0.1 for r in rates)


def test_resolvent_series_trivial_and_divergent():
    fam = scalar_free_family()
    rep = resolvent_series_check(fam, 3.0 + 0.0j, 4.0, 2)
    assert rep["errors"][0] < 1e-15
    with pytest.raises(DivergentSeries):
        resolvent_series_check(MatrixFamily((10.0 * np.eye(2),)), 2.0, 4.1, 3)


def test_matrix_family_requires_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        MatrixFamily((bad,))
    # off by 5e-3 absolute: inside numpy's default rtol of 1e-5 times 1e3
    near = np.array([[1.0, 1e3], [1e3 + 5e-3, 2.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        MatrixFamily((near,))
    MatrixFamily((np.array([[1.0, 1e3], [1e3 + 1e-14, 2.0]]),))


@pytest.mark.parametrize("coeffs", [
    (),
    (np.zeros((2, 3)),),
    (np.zeros(2),),
    (np.eye(2), np.eye(3)),
])
def test_matrix_family_requires_square_coefficients_of_one_size(coeffs):
    with pytest.raises(ValueError):
        MatrixFamily(coeffs)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_matrix_family_stacked_nodes_bit_identical(degree):
    """S and H_2 stacked over real Gauss nodes and complex contour nodes give
    each node the bits of its own call."""
    fam = random_family(4, degree, seed=degree)
    r_nodes = np.polynomial.legendre.leggauss(64)[0] + 2.0
    z_nodes = 2.0 + 1.3 * np.exp(2j * math.pi * np.arange(256) / 256)
    for nodes in (r_nodes, z_nodes):
        assert np.array_equal(fam.S(nodes), [fam.S(z) for z in nodes])
        assert np.array_equal(fam.H2(nodes), [fam.H2(z) for z in nodes])


def test_diagonal_growth():
    lam = np.geomspace(10.0, 1000.0, 12)
    vals = weyl_constant(1) * np.sqrt(lam)
    assert diagonal_growth_check(lam, vals, 1)["passed"]
    assert not diagonal_growth_check(lam, 100.0 * vals, 1)["passed"]


# -- golden values: criterion 08's contour sides and projection records ----------

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "contour_values.json")
CONTOUR_KEYS = ("lhs", "rhs_real", "rhs_imag")
RECORD_KEYS = ("lhs_norm", "lhs_vector", "rhs_vector")
PROJECTION_SETTINGS = [(s, eps) for s in (0, 2) for eps in (1e-2, 1e-4)]


def _hex_sides(rep):
    return {k: float.hex(rep[k]) for k in CONTOUR_KEYS}


def golden_contour_values(runs):
    """Everything tests/golden/contour_values.json holds, as hex floats:
    criterion 08's contour sides per level for seeds 0-19 and the scalar
    family, read from runs = conftest.contour_runs(), and
    check_projection_perturbation(50, s, eps, 100, 7 + i) for the i-th
    (s, eps) of PROJECTION_SETTINGS, computed afresh."""
    scalar, refined = runs
    contour = {"scalar": _hex_sides(scalar)}
    for seed, rep in enumerate(refined):
        contour[str(seed)] = [_hex_sides(lv) for lv in rep["levels"]]
    projection = []
    for i, (s, eps) in enumerate(PROJECTION_SETTINGS):
        rep = check_projection_perturbation(50, s, eps, 100, seed=7 + i)
        projection.append({
            "s": s, "eps": eps, "seed": 7 + i,
            "min_slack_norm": float.hex(rep["min_slack_norm"]),
            "min_slack_vector": float.hex(rep["min_slack_vector"]),
            "records": [{k: float.hex(r[k]) for k in RECORD_KEYS}
                        for r in rep["records"]],
        })
    return {"contour": contour, "projection": projection}


def test_contour_values_golden(criterion_08_contour):
    with open(GOLDEN) as fh:
        want = json.load(fh)
    # hex strings compare equal exactly when the floats are bit-identical
    assert golden_contour_values(criterion_08_contour) == want


if __name__ == "__main__":
    # Regenerate the golden file: PYTHONPATH=src python tests/test_validation.py
    from conftest import contour_runs

    with open(GOLDEN, "w") as fh:
        json.dump(golden_contour_values(contour_runs()), fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
