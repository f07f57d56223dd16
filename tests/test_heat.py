import pytest
import sympy as sp
from sympy.polys.domains import QQ_I

from spectra_lab.errors import NonHermitianPotential, UnsupportedGenerators
from spectra_lab.frequency import GeneratorBasis, freq
from spectra_lab.heat import (TrigPotential, a_from_sigma, apply_H, at_point,
                              closed_form_a, cosine_potential, diagonal,
                              discrepancy_report, mean_a, sigma_j,
                              unit_ball_volume, weyl_constant, z_norm_jet,
                              zero_potential)


def _mathieu():
    # b = 2 cos x, exact integer coefficients
    return TrigPotential.build(1, {(1,): 1, (-1,): 1})


def _nonzero(table):
    return {th: c for th, c in table.items() if c}


def test_apply_H_on_one():
    b = _mathieu()
    one = z_norm_jet(1, 0)
    out = apply_H(one, b)
    assert list(out) == [(0,)]   # no power of z is left
    assert _nonzero(diagonal(out)) == b.fourier


def test_laplacian_of_z_squared():
    for d in (1, 2, 3):
        elem = z_norm_jet(d, 1)
        out = apply_H(elem, zero_potential(d))
        assert _nonzero(diagonal(out)) == {(0,) * d: QQ_I(-2 * d, 0)}


def test_H_squared_on_z_squared():
    for d in (1, 2):
        b = cosine_potential(d)
        elem = z_norm_jet(d, 1)
        out = apply_H(apply_H(elem, b), b)
        assert _nonzero(diagonal(out)) == {th: -4 * d * c
                                           for th, c in b.fourier.items()}


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
    # a theta with fewer than d coordinates is refused, never reshaped into
    # another theta
    with pytest.raises(ValueError):
        TrigPotential.build(2, {(1,): 0.2, (-1,): 0.2})
    # a non-real b is refused, not given a complex "exact" a_1
    with pytest.raises(NonHermitianPotential):
        TrigPotential.build(1, {(1,): 0.2j})


def test_mean_a1_from_fourier():
    d = 1
    b = TrigPotential.build(d, {(0,): sp.Rational(2, 5), (1,): 1, (-1,): 1})
    want = -sp.Rational(d, 2) * unit_ball_volume(d) / (2 * sp.pi) ** d \
        * sp.Rational(2, 5)
    assert sp.simplify(mean_a(b, 1) - want) == 0


def test_a_from_sigma_gamma_pole_is_zero():
    # d = 2, j = 2: 1/Gamma(0) = 0 exactly; j = 3, 4 too, and the cap on j
    # holds at a pole all the same
    for j in (2, 3, 4):
        assert a_from_sigma(cosine_potential(2), j) == 0
    with pytest.raises(ValueError):
        a_from_sigma(cosine_potential(2), 5)


def test_discrepancy_ratio():
    for d in (1, 2):
        rep = discrepancy_report(cosine_potential(d), [sp.Rational(3, 10)] * d)
        assert sp.simplify(rep["ratio"] - sp.Rational(2, d + 2)) == 0


def test_weyl_constant_values():
    assert sp.simplify(weyl_constant(1) - 1 / sp.pi) == 0
    assert sp.simplify(weyl_constant(2) - 1 / (4 * sp.pi)) == 0


def _strings(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from _strings(v)
    elif isinstance(node, str):
        yield node


def test_heat_report_exact_on_shipped_configs(monkeypatch):
    """cmd_heat without sympy's simplify, expand_trig or rewrite: every
    string field is exact (no Float), a rational times a power of pi at
    x = 0 and rationals times cos/sin of rational arguments at
    validate_default's x = 0.3."""
    import json
    import os

    from spectra_lab.cli import cmd_heat
    from spectra_lab.config import parse_config

    def refuse(*args, **kwargs):
        raise AssertionError("sympy simplification on the heat path")

    for name in ("simplify", "expand_trig"):
        monkeypatch.setattr(sp, name, refuse)
    monkeypatch.setattr(sp.Basic, "simplify", refuse)
    monkeypatch.setattr(sp.Basic, "rewrite", refuse)
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    reports = {}
    for name in ("mathieu", "axes2d", "validate_default"):
        code, text = cmd_heat(parse_config(os.path.join(root, name + ".json")))
        assert code == 0
        reports[name] = json.loads(text)
        for field in _strings(reports[name]):
            assert "Float(" not in field and "." not in field, (name, field)
    m, a = reports["mathieu"], reports["axes2d"]
    assert m["a1"]["pretty"] == "-1/(5*pi)"
    assert m["a1"]["exact"] == sp.srepr(-1 / (5 * sp.pi))
    assert m["a2"]["pretty"] == "-11/(300*pi)"
    assert m["mean_a2"] == "-1/(100*pi)"
    assert m["sigma_engine"]["a1_verbatim"] == "-2/(15*pi)"
    assert m["sigma_engine"]["ratio"] == "2/3"
    assert a["a1"]["pretty"] == "-11/(40*pi)"
    assert a["sigma_engine"]["ratio"] == "1/2"
    v = reports["validate_default"]
    assert v["a1"]["pretty"] == "-cos(3/10)/(10*pi)"
    assert v["sigma_engine"]["a1_verbatim"] == "-cos(3/10)/(15*pi)"
    assert v["sigma_engine"]["ratio"] == "2/3"
