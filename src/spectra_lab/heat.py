"""Local heat invariants sigma_j(x) and LDS expansion coefficients a_j(x) for
trigonometric-polynomial potentials, computed exactly on one Fourier table
{theta: c}: b's table as frequency.fourier_table reads it, with each c made
exact in Q(i).  A float c is the shortest decimal that round-trips to it, so
a config's 0.2 is 1/5; a literal with more than 17 significant digits is not
read as written.  Results are rationals times a power of pi times cos/sin of
<theta, x> (rational arguments at a point).

Two routes: the verbatim k-sum for sigma_j, on jets z^alpha e^{i<theta, y>},
z = x - y, read off at z = 0, and the closed forms for a_1, a_2.  They
disagree on normalization for j >= 1 (the verbatim sigma_1 is -2b/(d+2), not
-b); both are reported and the closed forms are what the oracle reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, prod
from types import MappingProxyType
from typing import Mapping, Sequence

import sympy as sp
from sympy.polys.domains import QQ_I

from .frequency import fourier_table, rational


def x_vars(d: int):
    return sp.symbols("x0:%d" % d, real=True)


def _add(acc: dict, table: Mapping, scale=lambda th: 1) -> dict:
    """acc += scale(theta) * table, entrywise."""
    for th, c in table.items():
        acc[th] = acc.get(th, QQ_I.zero) + c * scale(th)
    return acc


def _times(p: Mapping, q: Mapping) -> dict:
    """The product of two trigonometric polynomials."""
    out = {}
    for (th, a), (ph, b) in product(p.items(), q.items()):
        _add(out, {tuple(s + t for s, t in zip(th, ph)): a * b})
    return out


def _norm2(th) -> Fraction:
    return sum(t * t for t in th)


@dataclass(frozen=True)
class TrigPotential:
    """b(x) = sum_theta c_theta exp(i <theta, x>), rational theta and
    Gaussian-rational c_theta; the table is read-only."""

    dimension: int
    fourier: Mapping  # {theta Fractions tuple: QQ_I coefficient}

    @classmethod
    def build(cls, d: int, fourier: Mapping) -> "TrigPotential":
        """b read by frequency.fourier_table, each coefficient made exact in
        Q(i) by `rational`."""
        return cls(d, MappingProxyType({
            th: QQ_I(*map(rational, sp.sympify(c).as_real_imag()))
            for th, c in fourier_table(fourier, d).items()}))


def zero_potential(d: int) -> TrigPotential:
    return TrigPotential.build(d, {})


def cosine_potential(d: int, amplitude=1, axis: int = 0) -> TrigPotential:
    """b(x) = amplitude * 2 cos(x_axis)."""
    plus = tuple(1 if i == axis else 0 for i in range(d))
    minus = tuple(-1 if i == axis else 0 for i in range(d))
    return TrigPotential.build(d, {plus: amplitude, minus: amplitude})


def _expr(const: sp.Expr, table: Mapping, xs: Sequence) -> sp.Expr:
    """const * sum_theta c_theta e^{i<theta, x>}, each +-theta pair written
    as (c + c') cos phi + i (c - c') sin phi."""
    terms, done = [], set()
    for th, c in table.items():
        neg = tuple(-t for t in th)
        if th not in done:
            done.update((th, neg))
            c2 = table.get(neg, QQ_I.zero) if neg != th else QQ_I.zero
            phase = sum(sp.Rational(t) * v for t, v in zip(th, xs))
            terms += [const * QQ_I.to_sympy(c + c2) * sp.cos(phase),
                      const * QQ_I.to_sympy((c - c2) * QQ_I(0, 1)) * sp.sin(phase)]
    return sp.Add(*terms)


def z_norm_jet(d: int, k: int) -> dict:
    """|x - y|^{2k} as a jet {alpha: {theta: c}} for z^alpha e^{i<theta, y>},
    z = x - y: the multinomial expansion of (z_1^2 + ... + z_d^2)^k."""
    return {tuple(2 * i for i in beta):
            {(0,) * d: QQ_I(factorial(k) // prod(map(factorial, beta)), 0)}
            for beta in product(range(k + 1), repeat=d) if sum(beta) == k}


def apply_H(jet: Mapping, b: TrigPotential) -> dict:
    """H_y = -Delta_y + b(y) on a jet, exactly:
    -d^2/dy_i^2 (z^alpha e^{i theta y}) = (-alpha_i (alpha_i - 1) z^{alpha-2e_i}
    + 2 i theta_i alpha_i z^{alpha-e_i} + theta_i^2 z^alpha) e^{i theta y}."""
    out = {}
    for al, table in jet.items():
        _add(_add(out.setdefault(al, {}), table, _norm2), _times(table, b.fourier))
        for i, a in enumerate(al):
            for step, scale in ((1, lambda th: QQ_I(0, 2 * a * th[i])),
                                (2, lambda th: -a * (a - 1))):
                if a >= step:
                    low = al[:i] + (a - step,) + al[i + 1:]
                    _add(out.setdefault(low, {}), table, scale)
    return out


def diagonal(jet: Mapping) -> dict:
    """A jet at y = x (z = 0): its z^0 Fourier table."""
    return next((t for al, t in jet.items() if not any(al)), {})


def _require_j(j: int) -> None:
    if j > 4:  # the jets grow fast with j
        raise ValueError("sigma_j capped at j_max=4 (term algebra growth)")


def _sigma_table(b: TrigPotential, j: int) -> dict:
    """Verbatim k-sum: sum_k (-1)^j Gamma(j+d/2) /
    (4^k k! (k+j)! (j-k)! Gamma(k+d/2+1)) * H^{k+j}(|z|^{2k}) at y = x.
    Each H lowers the z-degree by at most 2, so a z^alpha with |alpha| above
    twice the H's still to come never reaches z = 0 and is dropped."""
    _require_j(j)
    d = b.dimension
    acc = {}
    for k in range(j + 1):
        jet = z_norm_jet(d, k)
        for left in range(k + j - 1, -1, -1):
            jet = {al: t for al, t in apply_H(jet, b).items() if sum(al) <= 2 * left}
        pref = QQ_I.from_sympy(
            (-1) ** j * sp.gamma(j + sp.Rational(d, 2))
            / (4**k * factorial(k) * factorial(k + j) * factorial(j - k)
               * sp.gamma(k + sp.Rational(d, 2) + 1)))
        _add(acc, diagonal(jet), lambda th: pref)
    return acc


def sigma_j(b: TrigPotential, j: int) -> sp.Expr:
    return _expr(sp.Integer(1), _sigma_table(b, j), x_vars(b.dimension))


def _sigma_a(b: TrigPotential, j: int):
    """(const, table) with a_j = const * table = sigma_j / ((4 pi)^{d/2}
    Gamma(d/2 - j + 1)); at a 1/Gamma pole const = 0 and sigma_j is skipped."""
    _require_j(j)
    h = sp.Rational(b.dimension, 2)
    const = 1 / ((4 * sp.pi) ** h * sp.gamma(h - j + 1))
    return const, _sigma_table(b, j) if const else {}


def a_from_sigma(b: TrigPotential, j: int) -> sp.Expr:
    return _expr(*_sigma_a(b, j), x_vars(b.dimension))


def unit_ball_volume(d: int) -> sp.Expr:
    return sp.pi ** sp.Rational(d, 2) / sp.gamma(1 + sp.Rational(d, 2))


def weyl_constant(d: int) -> sp.Expr:
    return unit_ball_volume(d) / (2 * sp.pi) ** d


def _closed(b: TrigPotential, j: int):
    """(const, table) with a_1 = -(d/2) C_d b and
    a_2 = (d (d-2)/24) C_d (3 b^2 - Delta b), C_d = weyl_constant(d)."""
    d = b.dimension
    if j == 1:
        return -sp.Rational(d, 2) * weyl_constant(d), b.fourier
    if j == 2:
        # -Delta e^{i<theta, x>} = |theta|^2 e^{i<theta, x>}
        table = _add(_add({}, _times(b.fourier, b.fourier), lambda th: 3),
                     b.fourier, _norm2)
        return sp.Rational(d * (d - 2), 24) * weyl_constant(d), table
    raise ValueError("closed forms provided for j in {1, 2}")


def closed_form_a(b: TrigPotential, j: int) -> sp.Expr:
    """The closed form of a_j, j in {1, 2}, over x_vars(d); exact."""
    return _expr(*_closed(b, j), x_vars(b.dimension))


def at_point(expr: sp.Expr, x: Sequence) -> sp.Expr:
    """An x-dependent form at the point x, each coordinate taken exactly."""
    pt = [sp.Rational(rational(v)) for v in x]
    return expr.xreplace(dict(zip(x_vars(len(x)), pt)))


def mean_a(b: TrigPotential, j: int) -> sp.Expr:
    """M_x a_j(x), exact: the zero-frequency entry of a_j's table."""
    const, table = _closed(b, j)
    return const * QQ_I.to_sympy(table.get((0,) * b.dimension, QQ_I.zero))


def discrepancy_report(b: TrigPotential, x: Sequence) -> dict:
    """Verbatim sigma-engine a_1 versus the closed form at a point.  The ratio
    2/(d+2), exact as the quotient of the two tables: H 1 = b and
    H^2 |z|^2 = -4d b at z = 0 make the verbatim sigma_1 a multiple of b."""
    d = b.dimension
    (kv, v), (kc, c) = _sigma_a(b, 1), _closed(b, 1)
    verbatim = at_point(_expr(kv, v, x_vars(d)), x)
    closed = at_point(_expr(kc, c, x_vars(d)), x)
    ratio = None if closed == 0 else kv / kc * QQ_I.to_sympy(  # c is nonzero
        next(v.get(t, QQ_I.zero) / q for t, q in c.items() if q))
    return {
        "a1_verbatim": verbatim,
        "a1_closed_form": closed,
        "ratio": ratio,
        "expected_ratio": sp.Rational(2, d + 2),
        "note": "verbatim sigma_1 = -2b/(d+2); closed form needs sigma_1 = -b",
    }
