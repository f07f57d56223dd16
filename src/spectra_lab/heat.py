"""Local heat invariants sigma_j(x) and LDS expansion coefficients a_j(x) for
trigonometric-polynomial potentials, computed exactly.

Two routes are provided: the verbatim k-sum for sigma_j (with exact
half-integer Gamma factors) and the closed forms for a_1, a_2.  The k-sum's
terms, |x - y|^{2k} and H_y applied to it, are plain sympy expressions over
the joint (x, y) variables (z_norm_power, apply_H).  The two
disagree on normalization for j >= 1 (the verbatim sigma_1 comes out as
-2b/(d+2) instead of -b); both values are reported and the closed forms are
what the spectral oracle reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import sympy as sp

from .errors import UnsupportedGenerators


def _xy_vars(d: int):
    xs = sp.symbols("x0:%d" % d, real=True)
    ys = sp.symbols("y0:%d" % d, real=True)
    return xs, ys


@dataclass(frozen=True)
class TrigPotential:
    """b(x) = sum_theta c_theta exp(i <theta, x>) with rational frequency
    coordinates and exact coefficients; must be real-valued."""

    dimension: int
    fourier: tuple  # tuple of (theta coords tuple, sympy coefficient)

    @classmethod
    def build(cls, d: int, fourier: Mapping) -> "TrigPotential":
        """`fourier` is keyed by coordinate tuples or FrequencyVector; a
        frequency with a surd part raises UnsupportedGenerators."""
        entries = []
        for th, c in fourier.items():
            if hasattr(th, "coords"):
                if any(s != 0 for _, s in th.coords):
                    raise UnsupportedGenerators(
                        "TrigPotential needs rational frequencies, got %r" % (th,))
                th = tuple(a for a, _ in th.coords)
            th = tuple(sp.Rational(Fraction(t)) for t in th)
            entries.append((th, sp.sympify(c)))
        return cls(d, tuple(entries))

    def to_expr(self, vars_: Sequence[sp.Symbol]) -> sp.Expr:
        acc = sp.Integer(0)
        for th, c in self.fourier:
            phase = sum(t * v for t, v in zip(th, vars_))
            acc += c * sp.exp(sp.I * phase)
        return sp.expand(acc)


def zero_potential(d: int) -> TrigPotential:
    return TrigPotential.build(d, {})


def cosine_potential(d: int, amplitude=1, axis: int = 0) -> TrigPotential:
    """b(x) = amplitude * 2 cos(x_axis)."""
    plus = tuple(1 if i == axis else 0 for i in range(d))
    minus = tuple(-1 if i == axis else 0 for i in range(d))
    return TrigPotential.build(d, {plus: amplitude, minus: amplitude})


def z_norm_power(d: int, k: int) -> sp.Expr:
    """|x - y|^{2k} over the joint (x, y) variables."""
    xs, ys = _xy_vars(d)
    q = sum((xs[i] - ys[i]) ** 2 for i in range(d))
    return sp.expand(q**k)


def apply_H(expr: sp.Expr, b: TrigPotential) -> sp.Expr:
    """H_y expr = (-Delta_y + b(y)) expr, exactly, for an expression over the
    joint (x, y) variables of b's dimension."""
    _, ys = _xy_vars(b.dimension)
    lap = sum(sp.diff(expr, y, 2) for y in ys)
    return sp.expand(-lap + b.to_expr(ys) * expr)


_J_MAX = 4  # the highest sigma_j: the term algebra grows fast with j


def _require_j(j: int):
    if j > _J_MAX:
        raise ValueError("sigma_j capped at j_max=%d (term algebra growth)" % _J_MAX)


def sigma_j(b: TrigPotential, j: int) -> sp.Expr:
    """Verbatim k-sum: sum_k (-1)^j Gamma(j+d/2) /
    (4^k k! (k+j)! (j-k)! Gamma(k+d/2+1)) * H^{k+j}(|z|^{2k}) at y = x."""
    _require_j(j)
    d = b.dimension
    xs, ys = _xy_vars(d)
    acc = sp.Integer(0)
    for k in range(j + 1):
        elem = z_norm_power(d, k)
        for _ in range(k + j):
            elem = apply_H(elem, b)
        pref = ((-1) ** j * sp.gamma(j + sp.Rational(d, 2))
                / (4**k * sp.factorial(k) * sp.factorial(k + j)
                   * sp.factorial(j - k) * sp.gamma(k + sp.Rational(d, 2) + 1)))
        acc += pref * sp.expand(elem.subs(dict(zip(ys, xs))))  # at y = x
    return sp.simplify(acc)


def a_from_sigma(b: TrigPotential, j: int) -> sp.Expr:
    """a_j(x) = sigma_j(x) / ((4 pi)^{d/2} Gamma(d/2 - j + 1)); the 1/Gamma
    factor at non-positive integers is an exact zero, returned without
    computing sigma_j (the cap on j is checked first all the same)."""
    _require_j(j)
    d = b.dimension
    gam = sp.gamma(sp.Rational(d, 2) - j + 1)
    if gam == sp.zoo or gam.is_infinite:
        return sp.Integer(0)
    sig = sigma_j(b, j)
    return sp.simplify(sig / ((4 * sp.pi) ** sp.Rational(d, 2) * gam))


def unit_ball_volume(d: int) -> sp.Expr:
    return sp.pi ** sp.Rational(d, 2) / sp.gamma(1 + sp.Rational(d, 2))


def weyl_constant(d: int) -> sp.Expr:
    return unit_ball_volume(d) / (2 * sp.pi) ** d


def closed_form_a(b: TrigPotential, j: int) -> sp.Expr:
    """Closed forms a_1 = -(d w_d / (2 (2 pi)^d)) b and
    a_2 = (d (d-2) w_d / (24 (2 pi)^d)) (3 b^2 - Delta b); exact."""
    d = b.dimension
    xs, _ = _xy_vars(d)
    w_d = unit_ball_volume(d)
    bexpr = b.to_expr(xs)
    if j == 1:
        out = -sp.Rational(d, 2) * w_d / (2 * sp.pi) ** d * bexpr
    elif j == 2:
        lap = sum(sp.diff(bexpr, xs[i], 2) for i in range(d))
        out = (sp.Rational(d * (d - 2), 24) * w_d / (2 * sp.pi) ** d
               * (3 * bexpr**2 - lap))
    else:
        raise ValueError("closed forms provided for j in {1, 2}")
    return sp.simplify(out)


def at_point(expr: sp.Expr, x: Sequence) -> sp.Expr:
    """An x-dependent closed form at the point x, simplified."""
    xs, _ = _xy_vars(len(x))
    return sp.simplify(expr.subs(dict(zip(xs, [sp.sympify(v) for v in x]))))


def mean_a(b: TrigPotential, j: int, closed: Optional[sp.Expr] = None) -> sp.Expr:
    """M_x a_j(x), exact from the Fourier data (zero-frequency extraction);
    closed is closed_form_a(b, j) when the caller has it already."""
    d = b.dimension
    xs, _ = _xy_vars(d)
    if closed is None:
        closed = closed_form_a(b, j)
    expr = sp.expand(sp.expand_trig(closed))
    expr = expr.rewrite(sp.exp)
    mean = sp.Integer(0)
    for term in sp.Add.make_args(sp.expand(expr)):
        if not term.has(*xs):
            mean += term
    return sp.simplify(mean)


def discrepancy_report(b: TrigPotential, x: Sequence,
                       closed: Optional[sp.Expr] = None) -> dict:
    """Verbatim sigma-engine a_1 versus the closed form at a point; the ratio
    2/(d+2) is the known normalization gap of the verbatim k-sum.  closed is
    at_point(closed_form_a(b, 1), x) when the caller has it already."""
    d = b.dimension
    xs, _ = _xy_vars(d)
    subs = dict(zip(xs, [sp.sympify(v) for v in x]))
    verbatim = sp.simplify(a_from_sigma(b, 1).subs(subs))
    if closed is None:
        closed = at_point(closed_form_a(b, 1), x)
    ratio = sp.simplify(verbatim / closed) if closed != 0 else None
    return {
        "a1_verbatim": verbatim,
        "a1_closed_form": closed,
        "ratio": ratio,
        "expected_ratio": sp.Rational(2, d + 2),
        "note": "verbatim sigma_1 = -2b/(d+2); closed form needs sigma_1 = -b",
    }
