import pytest
import sympy as sp

from spectra_lab.errors import UnsupportedGenerators
from spectra_lab.frequency import GeneratorBasis, freq
from spectra_lab.heat import (TrigPotential, _xy_vars, a_from_sigma,
                              apply_H, at_point, closed_form_a,
                              cosine_potential, discrepancy_report, mean_a,
                              sigma_j, unit_ball_volume, weyl_constant,
                              z_norm_power, zero_potential)


def _mathieu():
    # b = 2 cos x, exact integer coefficients
    return TrigPotential.build(1, {(1,): 1, (-1,): 1})


def _at_diagonal(expr, d):
    xs, ys = _xy_vars(d)
    return expr.subs(dict(zip(ys, xs)))


def test_apply_H_on_one():
    b = _mathieu()
    one = z_norm_power(1, 0)
    out = apply_H(one, b)
    assert sp.simplify(out - b.to_expr([sp.Symbol("y0", real=True)])) == 0


def test_laplacian_of_z_squared():
    for d in (1, 2, 3):
        elem = z_norm_power(d, 1)
        out = apply_H(elem, zero_potential(d))
        assert sp.simplify(_at_diagonal(out, d) - (-2 * d)) == 0


def test_H_squared_on_z_squared():
    for d in (1, 2):
        b = cosine_potential(d)
        elem = z_norm_power(d, 1)
        out = apply_H(apply_H(elem, b), b)
        xs = sp.symbols("x0:%d" % d, real=True)
        bx = b.to_expr(xs)
        assert sp.simplify(_at_diagonal(out, d) - (-4 * d * bx)) == 0


def test_sigma_zero():
    for d in (1, 2, 3):
        assert sp.simplify(sigma_j(cosine_potential(d), 0) - sp.Rational(2, d)) == 0


def test_sigma_one_free():
    assert sp.simplify(sigma_j(zero_potential(1), 1)) == 0


def test_closed_form_mathieu_exact():
    b = _mathieu()
    a1 = at_point(closed_form_a(b, 1), [0])
    assert sp.simplify(a1 + 1 / sp.pi) == 0   # a_1(0) = -1/pi exactly


def test_a2_vanishes_d2():
    b = cosine_potential(2, amplitude=sp.Rational(3, 7))
    assert sp.simplify(closed_form_a(b, 2)) == 0


def test_zero_potential_coefficients():
    for j in (1, 2):
        assert sp.simplify(closed_form_a(zero_potential(1), j)) == 0


def test_a1_linearity():
    b1 = cosine_potential(1, amplitude=1)
    b3 = cosine_potential(1, amplitude=3)
    assert sp.simplify(closed_form_a(b3, 1) - 3 * closed_form_a(b1, 1)) == 0


def test_a1_reality():
    b = TrigPotential.build(1, {(1,): sp.Rational(1, 2) + sp.I,
                                (-1,): sp.Rational(1, 2) - sp.I})
    expr = sp.expand(sp.re(sp.expand_complex(closed_form_a(b, 1))))
    full = sp.expand_complex(closed_form_a(b, 1))
    assert sp.simplify(sp.im(full)) == 0


def test_build_from_frequency_vectors():
    basis = GeneratorBasis(2)
    b = TrigPotential.build(1, {freq([1], basis): 1, freq([-1], basis): 1})
    assert b == _mathieu()
    # a surd frequency is refused, never cut down to its rational part
    with pytest.raises(UnsupportedGenerators):
        TrigPotential.build(1, {freq([(1, 1)], basis): 1})


def test_mean_a1_from_fourier():
    d = 1
    b = TrigPotential.build(d, {(0,): sp.Rational(2, 5), (1,): 1, (-1,): 1})
    want = -sp.Rational(d, 2) * unit_ball_volume(d) / (2 * sp.pi) ** d \
        * sp.Rational(2, 5)
    assert sp.simplify(mean_a(b, 1) - want) == 0


def test_a_from_sigma_gamma_pole_is_zero():
    # d = 2, j = 2: 1/Gamma(0) = 0 exactly
    assert a_from_sigma(cosine_potential(2), 2) == 0


def test_discrepancy_ratio():
    for d in (1, 2):
        rep = discrepancy_report(cosine_potential(d), [sp.Rational(3, 10)] * d)
        assert sp.simplify(rep["ratio"] - sp.Rational(2, d + 2)) == 0


def test_weyl_constant_values():
    assert sp.simplify(weyl_constant(1) - 1 / sp.pi) == 0
    assert sp.simplify(weyl_constant(2) - 1 / (4 * sp.pi)) == 0
