"""Quasi-periodic pseudodifferential symbols.

A symbol is a finite map theta -> coefficient function of xi; coefficients are
closed-form expression trees supporting exact xi-shifts, so composition stays
symbolic in xi.  Evaluation is vectorized: eval accepts xi of shape (..., d).
"""

from __future__ import annotations

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


# -- expression trees ----------------------------------------------------------


class CoefficientExpr:
    """Base node; subclasses implement eval and shift."""

    def eval(self, xi: np.ndarray):
        raise NotImplementedError

    def shift(self, eta: np.ndarray) -> "CoefficientExpr":
        raise NotImplementedError

    def __add__(self, other):
        return Sum([self, as_expr(other)])

    __radd__ = __add__

    def __mul__(self, other):
        return Prod([self, as_expr(other)])

    __rmul__ = __mul__

    def __neg__(self):
        return Prod([Const(-1.0), self])

    def __sub__(self, other):
        return Sum([self, -as_expr(other)])


def as_expr(x) -> CoefficientExpr:
    if isinstance(x, CoefficientExpr):
        return x
    return Const(complex(x))


class Const(CoefficientExpr):
    def __init__(self, c):
        self.c = complex(c)

    def eval(self, xi):
        xi = np.asarray(xi, dtype=float)
        return np.full(xi.shape[:-1], self.c, dtype=complex)

    def shift(self, eta):
        return self


class Affine(CoefficientExpr):
    """<w, xi> + c with real w and complex c."""

    def __init__(self, w, c=0.0):
        self.w = np.asarray(w, dtype=float)
        self.c = complex(c)

    def eval(self, xi):
        xi = np.asarray(xi, dtype=float)
        return (xi @ self.w).astype(complex) + self.c

    def shift(self, eta):
        return Affine(self.w, self.c + float(np.asarray(eta, dtype=float) @ self.w))


class QuadShift(CoefficientExpr):
    """|xi + v|^2."""

    def __init__(self, v):
        self.v = np.asarray(v, dtype=float)

    def eval(self, xi):
        xi = np.asarray(xi, dtype=float)
        z = xi + self.v
        return ((z * z).sum(axis=-1)).astype(complex)

    def shift(self, eta):
        return QuadShift(self.v + np.asarray(eta, dtype=float))


class Sum(CoefficientExpr):
    def __init__(self, terms: Iterable[CoefficientExpr]):
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
        self.terms = flat

    def eval(self, xi):
        acc = self.terms[0].eval(xi)
        for t in self.terms[1:]:
            acc = acc + t.eval(xi)
        return acc

    def shift(self, eta):
        return Sum([t.shift(eta) for t in self.terms])


class Prod(CoefficientExpr):
    def __init__(self, factors: Iterable[CoefficientExpr]):
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
        self.factors = flat

    def is_zero_const(self):
        return len(self.factors) == 1 and isinstance(self.factors[0], Const) \
            and self.factors[0].c == 0

    def eval(self, xi):
        acc = self.factors[0].eval(xi)
        for f in self.factors[1:]:
            acc = acc * f.eval(xi)
        return acc

    def shift(self, eta):
        return Prod([f.shift(eta) for f in self.factors])


class Quot(CoefficientExpr):
    """num/den with the convention 0/0 = 0: numerator is evaluated first and
    wherever it vanishes the quotient is 0 regardless of the denominator."""

    def __init__(self, num: CoefficientExpr, den: CoefficientExpr):
        self.num = as_expr(num)
        self.den = as_expr(den)

    def eval(self, xi):
        n = self.num.eval(xi)
        d = self.den.eval(xi)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = n / d
        return np.where(n != 0, q, 0.0 + 0.0j)

    def shift(self, eta):
        return Quot(self.num.shift(eta), self.den.shift(eta))


class Abs(CoefficientExpr):
    """|u| for a real-valued scalar subexpression u."""

    def __init__(self, arg: CoefficientExpr):
        self.arg = as_expr(arg)

    def eval(self, xi):
        return np.abs(self.arg.eval(xi).real).astype(complex)

    def shift(self, eta):
        return Abs(self.arg.shift(eta))


class Sqrt(CoefficientExpr):
    def __init__(self, arg: CoefficientExpr):
        self.arg = as_expr(arg)

    def eval(self, xi):
        return np.sqrt(np.maximum(self.arg.eval(xi).real, 0.0)).astype(complex)

    def shift(self, eta):
        return Sqrt(self.arg.shift(eta))


class Iota(CoefficientExpr):
    """The fixed smooth step applied to a real scalar subexpression."""

    def __init__(self, arg: CoefficientExpr):
        self.arg = as_expr(arg)

    def eval(self, xi):
        return iota(self.arg.eval(xi).real).astype(complex)

    def shift(self, eta):
        return Iota(self.arg.shift(eta))


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


def class_norm(sym: Symbol, grid: XiGrid) -> float:
    """sum_theta sup_grid |bhat(theta, xi)|."""
    pts = np.asarray(grid.points, dtype=float)
    total = 0.0
    for ex in sym.coeffs.values():
        total += float(np.abs(ex.eval(pts)).max(initial=0.0))
    return total


def is_symmetric(sym: Symbol, grid: XiGrid, tol: float = 1e-12) -> bool:
    """bhat(theta, xi) == conj(bhat(-theta, xi+theta)) on the grid."""
    pts = np.asarray(grid.points, dtype=float)
    for th, ex in sym.coeffs.items():
        mirror = sym.coeff(-th)
        lhs = ex.eval(pts)
        rhs = np.conj(mirror.eval(pts + th.to_float()))
        if np.abs(lhs - rhs).max(initial=0.0) > tol:
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
