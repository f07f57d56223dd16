import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_lab.frequency import freq
from spectra_lab.symbols import (Affine, Const, Prod, QuadShift, Quot, Sum,
                                 Symbol, XiGrid, apply_to_wave, class_norm,
                                 compose, evaluate, iota, is_symmetric,
                                 laplace_symbol, multiplication_symbol,
                                 op_matrix)


def test_iota_plateaus():
    assert iota(0.2) == 1.0
    assert iota(0.25) == 1.0
    assert iota(0.275) == 0.0
    assert iota(0.3) == 0.0
    mid = iota(0.2625)
    assert 0.0 < mid < 1.0


def test_iota_monotone():
    z = np.linspace(0.24, 0.28, 200)
    v = iota(z)
    assert (np.diff(v) <= 1e-15).all()


def _mathieu(basis, v=1.0):
    return multiplication_symbol({freq([1], basis): v, freq([-1], basis): v})


def test_evaluate_examples(rational_basis):
    one = multiplication_symbol({freq([0], rational_basis): 1.0})
    assert evaluate(one, np.array([0.3]), np.array([2.0])) == 1.0
    b = _mathieu(rational_basis, 0.7)
    assert abs(evaluate(b, np.array([0.0]), np.array([5.0])) - 1.4) < 1e-15
    x = 0.9
    assert abs(evaluate(b, np.array([x]), np.array([1.0]))
               - 2 * 0.7 * math.cos(x)) < 1e-14


def test_compose_identity(rational_basis):
    ident = multiplication_symbol({freq([0], rational_basis): 1.0})
    b = _mathieu(rational_basis, 0.5)
    c = compose(b, ident)
    for th in b.support():
        xi = np.array([1.7])
        assert abs(complex(c.coeff(th).eval(xi)) - complex(b.coeff(th).eval(xi))) < 1e-15


def test_compose_single_frequencies(rational_basis):
    b = multiplication_symbol({freq([2], rational_basis): 1.0})
    g = multiplication_symbol({freq([-1], rational_basis): 1.0})
    c = compose(b, g)
    assert c.support() == [freq([1], rational_basis)]
    assert complex(c.coeff(freq([1], rational_basis)).eval(np.array([0.0]))) == 1.0


def test_compose_cosine_square(rational_basis):
    b = _mathieu(rational_basis, 1.0)
    c = compose(b, b)
    sup = {tuple(th.to_float()) for th in c.support()}
    assert sup == {(-2.0,), (0.0,), (2.0,)}
    assert abs(complex(c.coeff(freq([0], rational_basis)).eval(np.array([3.0]))) - 2.0) < 1e-15


def test_compose_associative(rational_basis, rng):
    e1 = freq([1, 0], rational_basis)
    e2 = freq([0, 1], rational_basis)
    zero = freq([0, 0], rational_basis)
    a = Symbol({e1: QuadShift([0.5, 0.0]), -e1: QuadShift([-0.5, 0.0])})
    b = Symbol({e2: Affine([1.0, 2.0], 0.3), zero: Const(2.0)})
    c = Symbol({e1 + e2: Const(1j), zero: Affine([0.0, 1.0], 0.0)})
    lhs = compose(compose(a, b), c)
    rhs = compose(a, compose(b, c))
    for _ in range(100):
        x = rng.normal(size=2)
        xi = rng.normal(size=2) * 3
        assert abs(evaluate(lhs, x, xi) - evaluate(rhs, x, xi)) < 1e-10


def test_class_norm(rational_basis):
    grid = XiGrid(np.linspace(-5, 5, 11)[:, None], 0.1)
    b = _mathieu(rational_basis, 0.4)
    assert abs(class_norm(b, grid) - 0.8) < 1e-15
    assert class_norm(Symbol({}), grid) == 0.0
    assert abs(class_norm(b.scale(3.0), grid)
               - 3.0 * class_norm(b, grid)) < 1e-12


def test_is_symmetric(rational_basis):
    grid = XiGrid(np.linspace(-4, 4, 9)[:, None], 0.0)
    assert is_symmetric(_mathieu(rational_basis, 0.3), grid)
    lone = multiplication_symbol({freq([1], rational_basis): 1.0})
    assert not is_symmetric(lone, grid)


def test_symmetric_symbol_hermitian_matrix(rational_basis):
    b = _mathieu(rational_basis, 0.3) + laplace_symbol(1, rational_basis)
    window = [freq([j], rational_basis) for j in range(-3, 4)]
    M = op_matrix(b, window)
    assert np.allclose(M, M.conj().T, atol=1e-14)


def test_apply_to_wave(rational_basis):
    lap = laplace_symbol(1, rational_basis)
    eta = freq([3], rational_basis)
    out = apply_to_wave(lap, {eta: 1.0})
    assert out == {eta: 9.0 + 0.0j}
    b = _mathieu(rational_basis, 1.0)
    out = apply_to_wave(b, {freq([0], rational_basis): 1.0})
    assert out == {freq([1], rational_basis): 1.0 + 0.0j,
                   freq([-1], rational_basis): 1.0 + 0.0j}


def test_wave_norm_bound(rational_basis, rng):
    b = _mathieu(rational_basis, 0.45)
    grid = XiGrid(np.linspace(-6, 6, 13)[:, None], 0.0)
    bound = class_norm(b, grid)
    for _ in range(20):
        wave = {freq([j], rational_basis): complex(*rng.normal(size=2))
                for j in range(-4, 5)}
        nin = math.sqrt(sum(abs(c) ** 2 for c in wave.values()))
        out = apply_to_wave(b, wave)
        nout = math.sqrt(sum(abs(c) ** 2 for c in out.values()))
        assert nout <= bound * nin + 1e-12


def _smooth_tree():
    # representative tree: quotient of products of affine and quadratic forms
    num = Prod([Const(0.7), QuadShift([0.3, -0.2]), Affine([1.0, 0.5], 2.0)])
    den = Sum([QuadShift([0.0, 0.0]), Const(4.0)])
    return Quot(num, den)


def test_shift_consistency():
    ex = _smooth_tree()
    eta = np.array([0.4, -1.1])
    pts = np.random.default_rng(3).normal(size=(20, 2))
    shifted = ex.shift(eta)
    assert np.allclose(shifted.eval(pts), ex.eval(pts + eta), atol=1e-14)


def test_quot_zero_over_zero():
    q = Quot(Const(0.0), Affine([1.0], 0.0))
    assert complex(q.eval(np.array([0.0]))) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.1, 2.0))
def test_quadshift_eval(x1, x2, s):
    ex = QuadShift([s, -s])
    v = complex(ex.eval(np.array([x1, x2])))
    assert abs(v - ((x1 + s) ** 2 + (x2 - s) ** 2)) < 1e-10
