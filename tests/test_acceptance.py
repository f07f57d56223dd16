"""End-to-end acceptance suite.

Each test is one pinned criterion; run with `pytest -v tests/test_acceptance.py`
to get one pass/fail line per criterion.  Tests that sample draw from their own
generator seeded with SEED, so each checks the same points whether it runs
alone or in the module.

Congruence-class bound (criterion 09, and test_zones).  PAPER.md carries only
the paper's title and abstract, so its constant cannot be read here; the bound
below follows from the definitions that zones.py documents and test_zones pins.
Lambda(theta) is the slab |<xi, theta/|theta|>| <= L_1, boundary inclusive, and
the class Upsilon(xi) is the closure under steps eta -> eta + l theta that start
and land in Lambda(theta).  For xi in Xi(V) with dim V = m:
  * the subtraction rule keeps xi out of Lambda(theta) for theta not in V, so
    the closure steps along V only: eta - xi lies in V for every eta in
    Upsilon(xi), i.e. P_{V^perp} eta = xi_{V^perp};
  * radius: for m = 1 each eta lies in the slab of a theta spanning V, so
    |eta_V| = |<eta, n(theta)>| <= L_1; in general flag confinement of a point
    of Xi_1(V) gives |eta_V|^2 <= sum_{j<=m} L_j^2 <= m L_m^2, so
    |eta_V| <= sqrt(m) L_m <= m L_m;
  * diameter: two class points differ only in V, so diam <= 2 m L_m.
The diameter alone cannot stay below m L_m: a slab of width 2 L_1 holds 5 or 6
points of a unit-step line, so at rho_n = 1000 (L_1 ~ 2.943) a class along an
axis spans 4 or 5.
"""

import math

import numpy as np
import pytest
import sympy as sp

from spectra_lab.bloch import BlochOracle1D, free_lds
from spectra_lab.frequency import FrequencySet, GeneratorBasis, algebraic_sum, freq
from spectra_lab.gauge import CutoffFamily, cutoff_eval, run_gauge, verify_b3
from spectra_lab.heat import (TrigPotential, at_point, closed_form_a,
                              cosine_potential, discrepancy_report)
from spectra_lab.symbols import XiGrid, is_symmetric, multiplication_symbol
from spectra_lab.validation import (binned_envelope,
                                    check_projection_perturbation,
                                    coefficients_from_potential, expansion_eval,
                                    fit_power_coefficient, free_offdiagonal,
                                    residual_ladder)
from spectra_lab.zones import ZoneGeometry, ZoneParameters, sample_annulus

RHO = 1000.0
LADDER = np.geomspace(1e2, 1e4, 80)
X_POINTS = (0.0, math.pi / 2, math.pi)
SEED = 20240817


@pytest.fixture(scope="module")
def basis():
    return GeneratorBasis(None)


@pytest.fixture(scope="module")
def diag_ladders():
    """Residual ladders for b = 0.4 cos x at the three test points."""
    oracle = BlochOracle1D({(1,): 0.2, (-1,): 0.2}, M_cut=220)
    b = TrigPotential.build(1, {(1,): sp.Rational(1, 5),
                                (-1,): sp.Rational(1, 5)})
    coeffs = coefficients_from_potential(b, 2)
    out = {}
    for x in X_POINTS:
        vals = oracle.evaluate(LADDER, x)
        out[x] = (coeffs, residual_ladder(coeffs, LADDER, vals, 2, [x]))
    return out


@pytest.fixture(scope="module")
def gauge_2d(basis):
    S = FrequencySet.build(2, basis, [freq([1, 0], basis), freq([0, 1], basis)])
    zp = ZoneParameters.create(RHO, 2, ktilde=2)
    cf = CutoffFamily(RHO, zp.beta)
    b = multiplication_symbol({freq([1, 0], basis): 0.3,
                               freq([-1, 0], basis): 0.3,
                               freq([0, 1], basis): 0.25,
                               freq([0, -1], basis): 0.25})
    out = run_gauge(b, 2, cf, S)
    return S, zp, cf, out


def test_criterion_01_free_weyl_term():
    lams1 = np.geomspace(1e2, 1e4, 12)
    N1 = free_lds(lams1, 4096, 1)
    assert np.max(np.abs(N1 / (np.sqrt(lams1) / math.pi) - 1)) <= 1e-4
    lams2 = np.geomspace(10.0, 200.0, 8)
    N2 = free_lds(lams2, 512, 2)
    assert np.max(np.abs(N2 / (lams2 / (4 * math.pi)) - 1)) <= 1e-4


def test_criterion_02_on_diagonal_a1(diag_ladders):
    for x in X_POINTS:
        coeffs, rl = diag_ladders[x]
        fit = fit_power_coefficient(LADDER, rl.residuals[0], -0.5)
        target = float(coeffs.values([x])[0])
        if abs(target) > 1e-12:
            assert abs(fit - target) / abs(target) <= 0.05
        else:
            # b(pi/2) = 0 so a_1 vanishes; the fit sits at the noise floor
            assert abs(fit) <= 1e-6


def test_criterion_03_on_diagonal_residual_decay(diag_ladders):
    for x in X_POINTS:
        _, rl = diag_ladders[x]
        # at x = pi/2 both corrections vanish and R_1 is pure noise
        assert rl.noise_floor[1] or rl.slopes[1] <= -1.25


def test_criterion_04_off_diagonal_leading_term():
    oracle = BlochOracle1D({(1,): 0.1, (-1,): 0.1}, M_cut=220)
    x, y = 0.3, 1.3
    ladder = np.geomspace(1e2, 1e4, 140)
    vals = oracle.evaluate(ladder, x, y)
    R = vals - free_offdiagonal(ladder, x, y, 1)
    assert abs(R[-1]) <= 0.1  # lambda^{(d-1)/4} = 1 in d = 1
    centers, meds = binned_envelope(ladder, R)
    slope = np.polyfit(np.log(centers), np.log(meds), 1)[0]
    assert slope <= -0.4


def test_criterion_05_gauge_structural_invariant(gauge_2d):
    S, zp, cf, out = gauge_2d
    rng = np.random.default_rng(SEED)
    pts = sample_annulus(2, RHO, 1000, rng)
    rep = verify_b3(out, pts, S, zp)
    assert rep["passed"] and rep["checked"] > 0
    theta2 = set(algebraic_sum(S, 2).elements)
    assert set(out.w.support()) <= theta2


def test_criterion_06_gauge_symmetry_and_closed_form(gauge_2d, basis):
    S, zp, cf, out = gauge_2d
    rng = np.random.default_rng(SEED)
    grid = XiGrid(sample_annulus(2, RHO, 200, rng), zp.beta)
    assert is_symmetric(out.psi[0], grid)
    assert is_symmetric(out.w, grid)
    # ktilde = 1 closed form, d = 1 Mathieu
    S1 = FrequencySet.build(1, basis, [freq([1], basis)])
    zp1 = ZoneParameters.create(RHO, 1)
    cf1 = CutoffFamily(RHO, zp1.beta)
    v = 0.2
    b = multiplication_symbol({freq([1], basis): v, freq([-1], basis): v})
    out1 = run_gauge(b, 1, cf1, S1)
    th = freq([1], basis)
    xi = sample_annulus(1, RHO, 100, rng)
    e = cutoff_eval("e", th, xi, cf1)
    p = cutoff_eval("phi", th, xi, cf1)
    got = out1.w.coeff(th).eval(xi)
    assert np.abs(got - v * (1.0 - e * p)).max() == 0.0


def test_criterion_07_perturbation_lemmas():
    for s in (0, 2):
        for eps in (1e-2, 1e-4):
            rep = check_projection_perturbation(
                50, s, eps, 100, seed=7, delta=math.sqrt(eps))
            assert rep["passed"], (s, eps)


def test_criterion_08_contour_identity(criterion_08_contour):
    rep, refined = criterion_08_contour
    assert abs(rep["lhs"] - 1.0) <= 1e-10
    assert rep["abs_diff"] <= 1e-10
    for seed, rep in enumerate(refined):
        assert rep["final_abs_diff"] <= 1e-8, seed


def test_criterion_09_geometry_suite(basis):
    rng = np.random.default_rng(SEED)
    S = FrequencySet.build(2, basis, [freq([1, 0], basis), freq([0, 1], basis)])
    zp = ZoneParameters.create(RHO, 2)
    geom = ZoneGeometry(S, zp)
    pts = sample_annulus(2, RHO, 10000, rng)
    resonant = []
    for xi in pts:
        hits = [V for V in geom.subspaces if geom.in_xi(V, xi)]
        assert len(hits) == 1  # partition
        if hits[0].dimension > 0:
            resonant.append((xi, hits[0]))
        else:
            cls = geom.congruence_class(xi)
            assert len(cls) == 1 and np.allclose(cls.points[0], xi)
    # d = 1 annulus is entirely non-resonant
    S1 = FrequencySet.build(1, basis, [freq([1], basis)])
    zp1 = ZoneParameters.create(RHO, 1)
    geom1 = ZoneGeometry(S1, zp1)
    for xi in sample_annulus(1, RHO, 500, rng):
        assert geom1.classify_point(xi).dim == 0
    # class confinement (see the module docstring): no drift off xi in V^perp,
    # radius m L_m in V, diameter 2 m L_m
    violations = []
    for xi, V in resonant:
        m = V.dimension
        bound = m * zp.L(m)
        B = V.float_basis()
        cls = geom.congruence_class(xi)
        for eta in cls.points:
            off = eta - xi
            drift = np.linalg.norm(off - B @ (B.T @ off))
            radius = np.linalg.norm(B.T @ eta)
            if drift > 1e-9 or radius > bound:
                violations.append((tuple(xi), tuple(eta), drift, radius, bound))
        if cls.diameter() > 2 * bound:
            violations.append((tuple(xi), cls.diameter(), 2 * bound))
    assert not violations, violations[:3]


def test_criterion_10_heat_invariant_cross_check(diag_ladders):
    assert closed_form_a(cosine_potential(2), 2) == 0
    b = TrigPotential.build(1, {(1,): 1, (-1,): 1})
    assert sp.simplify(at_point(closed_form_a(b, 1), [0]) + 1 / sp.pi) == 0
    b02 = TrigPotential.build(1, {(1,): sp.Rational(1, 5),
                                  (-1,): sp.Rational(1, 5)})
    rep = discrepancy_report(b02, [0])
    assert sp.simplify(rep["ratio"] - rep["expected_ratio"]) == 0
    coeffs, rl = diag_ladders[0.0]
    fit = fit_power_coefficient(LADDER, rl.residuals[0], -0.5)
    closed = float(sp.N(rep["a1_closed_form"]))
    verbatim = float(sp.N(rep["a1_verbatim"]))
    assert abs(fit - closed) / abs(closed) <= 0.05
    assert abs(fit - verbatim) / abs(verbatim) > 0.05
