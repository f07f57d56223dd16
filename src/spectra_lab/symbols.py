"""Quasi-periodic pseudodifferential symbols.

A symbol is a finite map theta -> coefficient function of xi; coefficients are
closed-form expressions supporting exact xi-shifts, so composition stays
symbolic in xi.  Expression nodes are interned and immutable, so the
coefficients of a symbol form a DAG in which equal subexpressions are stored
once; shift is memoised per exact shift.  Evaluation is vectorized (eval
accepts xi of shape (..., d)) and visits each node of the DAG once per call,
in the same term order as the expanded tree, so values do not depend on the
sharing.
"""

from __future__ import annotations

import collections
import struct
import weakref
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .frequency import FrequencyVector

# -- smooth step --------------------------------------------------------------
# iota(z) = 1 for z <= 1/4, 0 for z >= 1.1/4, glued by the standard exp(-1/u)
# partition in between; C-infinity and reproducible bit for bit.

_Z0 = 0.25
_Z1 = 0.275
_W = _Z1 - _Z0


def _f(u):
    out = np.zeros_like(u, dtype=float)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def iota(z):
    z = np.asarray(z, dtype=float)
    u = (_Z1 - z) / _W
    uc = np.clip(u, 0.0, 1.0)
    fu = _f(uc)
    fv = _f(1.0 - uc)
    with np.errstate(invalid="ignore"):
        s = np.where(fu + fv > 0, fu / (fu + fv), 0.0)
    return np.where(z <= _Z0, 1.0, np.where(z >= _Z1, 0.0, s))


# -- expression DAG ------------------------------------------------------------
# Nodes are interned: building a node whose type, exact parameters (floats
# compared by their bytes, arrays by shape and bytes) and children match a
# live node returns that node, so equal subexpressions are stored once and a
# symbol's coefficients form a DAG.  The intern table holds its nodes weakly;
# a key holds the children themselves, which their parent keeps alive anyway.


def _bits(c: complex) -> bytes:
    return struct.pack("<2d", c.real, c.imag)


def _frozen(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class CoefficientExpr:
    """Interned immutable node.  A subclass names its fields in _fields (and
    __slots__), builds them and their intern key in _make, and implements
    _eval (from its children's memoised values) and _shift."""

    __slots__ = ("_shifts", "__weakref__")
    _interned = weakref.WeakValueDictionary()

    def __new__(cls, *args):
        fields, key = cls._make(*args)
        key = (cls,) + key
        node = CoefficientExpr._interned.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "_shifts", {})
            CoefficientExpr._interned[key] = node
        return node

    def __setattr__(self, name, value):
        raise AttributeError("%s nodes are immutable" % type(self).__name__)

    def eval(self, xi: np.ndarray):
        """Values at xi of shape (..., d); every node of the DAG below self is
        evaluated once per call."""
        return self._memo(np.asarray(xi, dtype=float), {})

    def _memo(self, xi, memo):
        v = memo.get(self)
        if v is None:
            v = memo[self] = self._eval(xi, memo)
        return v

    def shift(self, eta: np.ndarray) -> "CoefficientExpr":
        """The node of xi -> self(xi + eta), memoised per exact eta.  The memo
        holds its results weakly: a zero shift often returns self, and a
        strong memo would make cycles that only the garbage collector frees."""
        eta = np.asarray(eta, dtype=float)
        key = (eta.shape, eta.tobytes())
        ref = self._shifts.get(key)
        out = ref() if ref is not None else None
        if out is None:
            out = self._shift(eta)
            self._shifts[key] = weakref.ref(out)
        return out


def as_expr(x) -> CoefficientExpr:
    if isinstance(x, CoefficientExpr):
        return x
    return Const(complex(x))


class Const(CoefficientExpr):
    __slots__ = _fields = ("c",)

    @staticmethod
    def _make(c):
        c = complex(c)
        return (c,), (_bits(c),)

    def _eval(self, xi, memo):
        return np.full(xi.shape[:-1], self.c, dtype=complex)

    def shift(self, eta):
        return self


class Affine(CoefficientExpr):
    """<w, xi> + c with real w and complex c."""

    __slots__ = _fields = ("w", "c")

    @staticmethod
    def _make(w, c=0.0):
        w, c = _frozen(w), complex(c)
        return (w, c), (w.shape, w.tobytes(), _bits(c))

    def _eval(self, xi, memo):
        return (xi @ self.w).astype(complex) + self.c

    def _shift(self, eta):
        return Affine(self.w, self.c + float(eta @ self.w))


class QuadShift(CoefficientExpr):
    """|xi + v|^2."""

    __slots__ = _fields = ("v",)

    @staticmethod
    def _make(v):
        v = _frozen(v)
        return (v,), (v.shape, v.tobytes())

    def _eval(self, xi, memo):
        z = xi + self.v
        return ((z * z).sum(axis=-1)).astype(complex)

    def _shift(self, eta):
        return QuadShift(self.v + eta)


class Sum(CoefficientExpr):
    __slots__ = _fields = ("terms",)

    @staticmethod
    def _make(terms: Iterable[CoefficientExpr]):
        flat = []
        const = 0.0 + 0.0j
        for t in terms:
            t = as_expr(t)
            if isinstance(t, Sum):
                flat.extend(t.terms)
            elif isinstance(t, Const):
                const += t.c
            else:
                flat.append(t)
        if const != 0 or not flat:
            flat.append(Const(const))
        flat = tuple(flat)
        return (flat,), flat

    def _eval(self, xi, memo):
        acc = self.terms[0]._memo(xi, memo)
        for t in self.terms[1:]:
            acc = acc + t._memo(xi, memo)
        return acc

    def _shift(self, eta):
        return Sum([t.shift(eta) for t in self.terms])


class Prod(CoefficientExpr):
    __slots__ = _fields = ("factors",)

    @staticmethod
    def _make(factors: Iterable[CoefficientExpr]):
        flat = []
        const = 1.0 + 0.0j
        for f in factors:
            f = as_expr(f)
            if isinstance(f, Prod):
                for g in f.factors:
                    if isinstance(g, Const):
                        const *= g.c
                    else:
                        flat.append(g)
            elif isinstance(f, Const):
                const *= f.c
            else:
                flat.append(f)
        if const == 0:
            flat = []
        if const != 1 or not flat:
            flat.insert(0, Const(const))
        flat = tuple(flat)
        return (flat,), flat

    def is_zero_const(self):
        return len(self.factors) == 1 and isinstance(self.factors[0], Const) \
            and self.factors[0].c == 0

    def _eval(self, xi, memo):
        acc = self.factors[0]._memo(xi, memo)
        for f in self.factors[1:]:
            acc = acc * f._memo(xi, memo)
        return acc

    def _shift(self, eta):
        return Prod([f.shift(eta) for f in self.factors])


class Quot(CoefficientExpr):
    """num/den with the convention 0/0 = 0: numerator is evaluated first and
    wherever it vanishes the quotient is 0 regardless of the denominator."""

    __slots__ = _fields = ("num", "den")

    @staticmethod
    def _make(num: CoefficientExpr, den: CoefficientExpr):
        pair = (as_expr(num), as_expr(den))
        return pair, pair

    def _eval(self, xi, memo):
        n = self.num._memo(xi, memo)
        d = self.den._memo(xi, memo)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = n / d
        return np.where(n != 0, q, 0.0 + 0.0j)

    def _shift(self, eta):
        return Quot(self.num.shift(eta), self.den.shift(eta))


class _Unary(CoefficientExpr):
    """A fixed scalar function of one real-valued subexpression."""

    __slots__ = _fields = ("arg",)

    @staticmethod
    def _make(arg: CoefficientExpr):
        arg = as_expr(arg)
        return (arg,), (arg,)

    def _shift(self, eta):
        return type(self)(self.arg.shift(eta))


class Abs(_Unary):
    """|u| for a real-valued scalar subexpression u."""

    __slots__ = ()

    def _eval(self, xi, memo):
        return np.abs(self.arg._memo(xi, memo).real).astype(complex)


class Sqrt(_Unary):
    __slots__ = ()

    def _eval(self, xi, memo):
        return np.sqrt(np.maximum(self.arg._memo(xi, memo).real, 0.0)).astype(complex)


class Iota(_Unary):
    """The fixed smooth step applied to a real scalar subexpression."""

    __slots__ = ()

    def _eval(self, xi, memo):
        return iota(self.arg._memo(xi, memo).real).astype(complex)


# -- symbols -------------------------------------------------------------------


@dataclass(frozen=True)
class XiGrid:
    """Sample points for the sup in class norms (a lower bound of the true sup
    over R^d).  beta, the weight exponent of the symbol class, is kept for
    callers that pass it but is no longer applied: class norms are unweighted."""

    points: np.ndarray  # (n, d)
    beta: float = 0.0


class Symbol:
    """Finite-support frequency map theta -> coefficient expression."""

    def __init__(self, coeffs: Mapping[FrequencyVector, CoefficientExpr]):
        clean = {}
        for th, ex in coeffs.items():
            ex = as_expr(ex)
            if isinstance(ex, Const) and ex.c == 0:
                continue
            if isinstance(ex, Prod) and ex.is_zero_const():
                continue
            clean[th] = ex
        self.coeffs = clean

    def support(self) -> list[FrequencyVector]:
        return sorted(self.coeffs, key=lambda t: tuple(t.to_float()))

    def coeff(self, theta: FrequencyVector) -> CoefficientExpr:
        return self.coeffs.get(theta, Const(0.0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Symbol") -> "Symbol":
        out = dict(self.coeffs)
        for th, ex in other.coeffs.items():
            out[th] = Sum([out[th], ex]) if th in out else ex
        return Symbol(out)

    def scale(self, c) -> "Symbol":
        return Symbol({th: Prod([Const(c), ex]) for th, ex in self.coeffs.items()})


def evaluate(sym: Symbol, x: np.ndarray, xi: np.ndarray) -> complex:
    """b(x, xi) = sum_theta bhat(theta, xi) exp(i<theta, x>)."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    acc = 0.0 + 0.0j
    for th, ex in sym.coeffs.items():
        acc += complex(ex.eval(xi)) * np.exp(1j * float(th.to_float() @ x))
    return acc


def compose(b: Symbol, g: Symbol) -> Symbol:
    """(b o g)^(chi, xi) = sum_{theta+phi=chi} bhat(theta, xi+phi) ghat(phi, xi)."""
    out: dict[FrequencyVector, list] = {}
    for th, bex in b.coeffs.items():
        for ph, gex in g.coeffs.items():
            chi = th + ph
            term = Prod([bex.shift(ph.to_float()), gex])
            out.setdefault(chi, []).append(term)
    return Symbol({chi: Sum(ts) if len(ts) > 1 else ts[0] for chi, ts in out.items()})


def _children(node: CoefficientExpr):
    for name in node._fields:
        v = getattr(node, name)
        if isinstance(v, CoefficientExpr):
            yield v
        elif isinstance(v, tuple):
            yield from (t for t in v if isinstance(t, CoefficientExpr))


class _SharedMemo(dict):
    """A memo for evaluating several roots on one grid: each node of their
    DAG is evaluated once, and its value is dropped at its last use, so the
    memo holds only values still to be read (a plain shared dict would hold
    every node's values at once).  A use is one _memo call: one per
    occurrence of the node among the roots and the children of its distinct
    parents."""

    def __init__(self, roots):
        super().__init__()
        uses = collections.Counter(roots)
        seen, stack = set(), list(uses)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            for child in _children(node):
                uses[child] += 1
                stack.append(child)
        self._uses = uses

    def get(self, node):
        self._uses[node] -= 1
        if self._uses[node]:
            return dict.get(self, node)
        return self.pop(node, None)

    def __setitem__(self, node, value):
        if self._uses[node]:
            dict.__setitem__(self, node, value)


def class_norm(sym: Symbol, grid: XiGrid) -> float:
    """sum_theta sup_grid |bhat(theta, xi)|."""
    pts = np.asarray(grid.points, dtype=float)
    coeffs = list(sym.coeffs.values())
    memo = _SharedMemo(coeffs)
    total = 0.0
    for ex in coeffs:
        total += float(np.abs(ex._memo(pts, memo)).max(initial=0.0))
    return total


# absolute tolerance of is_symmetric
SYMMETRY_TOL = 1e-12


def is_symmetric(sym: Symbol, grid: XiGrid) -> bool:
    """bhat(theta, xi) == conj(bhat(-theta, xi+theta)) on the grid, to
    SYMMETRY_TOL."""
    pts = np.asarray(grid.points, dtype=float)
    # the left-hand sides share one memo at pts; each right-hand side is the
    # only evaluation on its grid pts + theta, so eval's own memo serves it
    memo = _SharedMemo(list(sym.coeffs.values()))
    for th, ex in sym.coeffs.items():
        mirror = sym.coeff(-th)
        lhs = ex._memo(pts, memo)
        rhs = np.conj(mirror.eval(pts + th.to_float()))
        if np.abs(lhs - rhs).max(initial=0.0) > SYMMETRY_TOL:
            return False
    return True


def apply_to_wave(sym: Symbol, wave: Mapping[FrequencyVector, complex]) -> dict:
    """Op(b) sum c_eta e_eta = sum_eta sum_theta c_eta bhat(theta, eta) e_{eta+theta}."""
    out: dict[FrequencyVector, complex] = {}
    for eta, c in wave.items():
        eta_f = eta.to_float()
        for th, ex in sym.coeffs.items():
            amp = c * complex(ex.eval(eta_f))
            if amp == 0:
                continue
            key = eta + th
            out[key] = out.get(key, 0.0 + 0.0j) + amp
    return {k: v for k, v in out.items() if v != 0}


def op_matrix(sym: Symbol, freqs: Sequence[FrequencyVector]) -> np.ndarray:
    """Matrix of Op(b) on span{e_eta}: M[i, j] = bhat(eta_i - eta_j, eta_j)."""
    n = len(freqs)
    M = np.zeros((n, n), dtype=complex)
    for j, eta in enumerate(freqs):
        eta_f = eta.to_float()
        for i, etap in enumerate(freqs):
            ex = sym.coeffs.get(etap - eta)
            if ex is not None:
                M[i, j] = complex(ex.eval(eta_f))
    return M


def multiplication_symbol(fourier: Mapping[FrequencyVector, complex]) -> Symbol:
    """Symbol of multiplication by b(x) = sum bhat(theta) e_theta(x)."""
    return Symbol({th: Const(c) for th, c in fourier.items()})


def laplace_symbol(d: int, basis) -> Symbol:
    """Symbol |xi|^2 of -Delta."""
    zero = FrequencyVector([(0, 0)] * d, basis)
    return Symbol({zero: QuadShift(np.zeros(d))})
