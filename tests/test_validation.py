import math

import numpy as np
import pytest

from spectra_lab.errors import (CoincidingPoints, ContourTooClose,
                                DivergentSeries)
from spectra_lab.validation import (ExpansionCoefficients, MatrixFamily,
                                    QuadratureConfig, binned_envelope,
                                    check_contour_identity,
                                    check_projection_perturbation,
                                    coefficients_from_potential,
                                    diagonal_growth_check, expansion_eval,
                                    fit_power_coefficient, free_offdiagonal,
                                    random_family, residual_ladder,
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


def test_diagonal_growth():
    lam = np.geomspace(10.0, 1000.0, 12)
    vals = weyl_constant(1) * np.sqrt(lam)
    assert diagonal_growth_check(lam, vals, 1)["passed"]
    assert not diagonal_growth_check(lam, 100.0 * vals, 1)["passed"]
