import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_lab.frequency import freq
from spectra_lab.gauge import CutoffFamily, run_gauge
from spectra_lab.symbols import (Abs, Affine, CoefficientExpr, Const, Iota,
                                 Prod, QuadShift, Quot, Sqrt, Sum, Symbol,
                                 XiGrid, apply_to_wave, class_norm, compose,
                                 evaluate, iota, is_symmetric, laplace_symbol,
                                 multiplication_symbol, op_matrix,
                                 _SharedMemo)
from spectra_lab.zones import ZoneParameters, sample_annulus


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


# -- interning -------------------------------------------------------------------


def test_equal_trees_are_one_node():
    a, b = _smooth_tree(), _smooth_tree()
    assert a is b
    assert a.num is b.num and a.den is b.den
    assert Affine(np.array([1.0, 0.5]), 2.0) is Affine([1, 0.5], 2)
    assert _smooth_tree().shift([0.4, -1.1]) is _smooth_tree().shift(np.array([0.4, -1.1]))


def test_interning_keeps_exact_parameters_apart():
    one_up = np.nextafter(1.0, 2.0)
    assert Const(0.0) is not Const(-0.0)
    assert Const(1.0) is not Const(one_up)
    assert Const(1j) is not Const(complex(-0.0, 1.0))
    assert Affine([1.0, 0.0], 0.0) is not Affine([one_up, 0.0], 0.0)
    assert Affine([1.0, 0.0], 0.0) is not Affine([1.0, -0.0], 0.0)
    assert QuadShift([0.0, 0.0]) is not QuadShift([0.0, -0.0])
    assert QuadShift(np.zeros(2)) is not QuadShift(np.zeros((2, 1)))
    assert Iota(Const(0.5)) is not Abs(Const(0.5))


def test_nodes_are_immutable():
    node = Affine([1.0, 2.0], 0.5)
    for name, value in (("c", 1.0), ("w", np.zeros(2)), ("extra", 0)):
        with pytest.raises(AttributeError):
            setattr(node, name, value)
    with pytest.raises(ValueError):
        node.w[0] = 3.0
    with pytest.raises(AttributeError):
        Sum([node, Const(1.0)]).terms = ()
    assert node.w.tolist() == [1.0, 2.0] and node.c == 0.5


def test_eval_visits_shared_node_once(monkeypatch):
    step = Iota(Abs(Affine([1.0, 0.0], -0.26)))
    ex = Sum([step, Prod([QuadShift([0.0, 1.0]), step]), Quot(step, Const(3.0))])
    calls = []
    inner = Iota._eval

    def counted(self, xi, memo):
        calls.append(self)
        return inner(self, xi, memo)

    monkeypatch.setattr(Iota, "_eval", counted)
    xi = np.array([[0.0, 0.0], [0.265, 1.0], [0.5, 2.0]])
    got = ex.eval(xi)
    assert calls == [step]
    s = iota(np.abs(xi[:, 0] - 0.26)).astype(complex)
    q = (xi[:, 0] ** 2 + (xi[:, 1] + 1.0) ** 2).astype(complex)
    assert np.allclose(got, s + q * s + s / 3.0, atol=1e-15)


def test_intern_table_frees_dropped_nodes(axes2d, rational_basis):
    """Nodes live only while something uses them: a gauge construction that
    is dropped leaves the intern table as it was, with no help from the
    cycle collector (the shift memo must hold its results weakly)."""
    e1 = freq([1, 0], rational_basis)
    zp = ZoneParameters.create(1000.0, 2, ktilde=2)
    gc.disable()
    try:
        before = len(CoefficientExpr._interned)
        out = run_gauge(multiplication_symbol({e1: 0.2, -e1: 0.2}), 2,
                        CutoffFamily(1000.0, zp.beta), axes2d)
        assert len(CoefficientExpr._interned) > before
        del out
        assert len(CoefficientExpr._interned) <= before
    finally:
        gc.enable()


def _children(node):
    if isinstance(node, Sum):
        return node.terms
    if isinstance(node, Prod):
        return node.factors
    if isinstance(node, Quot):
        return (node.num, node.den)
    if isinstance(node, (Abs, Sqrt, Iota)):
        return (node.arg,)
    return ()


def _walk(node, xi):
    """Memo-free recursive evaluation, the arithmetic of each node spelled out."""
    if isinstance(node, Const):
        return np.full(xi.shape[:-1], node.c, dtype=complex)
    if isinstance(node, Affine):
        return (xi @ node.w).astype(complex) + node.c
    if isinstance(node, QuadShift):
        z = xi + node.v
        return ((z * z).sum(axis=-1)).astype(complex)
    if isinstance(node, (Sum, Prod)):
        parts = _children(node)
        acc = _walk(parts[0], xi)
        for p in parts[1:]:
            acc = acc + _walk(p, xi) if isinstance(node, Sum) else acc * _walk(p, xi)
        return acc
    if isinstance(node, Quot):
        n, d = _walk(node.num, xi), _walk(node.den, xi)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = n / d
        return np.where(n != 0, q, 0.0 + 0.0j)
    u = _walk(node.arg, xi).real
    if isinstance(node, Abs):
        return np.abs(u).astype(complex)
    if isinstance(node, Sqrt):
        return np.sqrt(np.maximum(u, 0.0)).astype(complex)
    return iota(u).astype(complex)


@pytest.fixture(scope="module")
def w_axes2d_k3(axes2d, rational_basis):
    """w at ktilde = 3 for the axes2d potential (0.3, 0.25)."""
    e1, e2 = freq([1, 0], rational_basis), freq([0, 1], rational_basis)
    b = multiplication_symbol({e1: 0.3, -e1: 0.3, e2: 0.25, -e2: 0.25})
    zp = ZoneParameters.create(1000.0, 2, ktilde=3)
    return run_gauge(b, 3, CutoffFamily(1000.0, zp.beta), axes2d).w


def test_memoised_eval_matches_tree_walk(w_axes2d_k3):
    xi = sample_annulus(2, 1000.0, 32, np.random.default_rng(20240817))
    for th in w_axes2d_k3.support():
        ex = w_axes2d_k3.coeff(th)
        assert ex.eval(xi).tobytes() == _walk(ex, xi).tobytes(), th


def test_shared_memo_drops_each_value_at_its_last_use(w_axes2d_k3):
    """The memo of class_norm and is_symmetric: every coefficient of w on one
    grid gives eval's bits, and each node's value is read exactly as often as
    counted, then dropped (a miscount leaves a value or reads one twice)."""
    xi = sample_annulus(2, 1000.0, 32, np.random.default_rng(20240817))
    coeffs = list(w_axes2d_k3.coeffs.values())
    memo = _SharedMemo(coeffs)
    got = [ex._memo(xi, memo) for ex in coeffs]
    assert not memo and set(memo._uses.values()) == {0}
    for ex, v in zip(coeffs, got):
        assert v.tobytes() == ex.eval(xi).tobytes()


def test_w_dag_size(w_axes2d_k3):
    """w at ktilde = 3 is a tree of 67,634 nodes (the Laplacian commutator
    taken in affine form; 111,086 as a difference of two compositions);
    interned, it is a DAG of about two thousand.  A construction that copies
    subtrees again fails here."""
    distinct, tree = {}, {}

    def size(node):
        if node not in tree:
            distinct[node] = None
            tree[node] = 1 + sum(size(c) for c in _children(node))
        return tree[node]

    total = sum(size(ex) for ex in w_axes2d_k3.coeffs.values())
    assert total == 67_634
    assert len(distinct) <= 2_500, len(distinct)
