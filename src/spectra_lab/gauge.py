"""Gauge transform: cut-off families e_theta, phi_theta, chi_theta and the
order-by-order construction of the conjugating symbols psi_j and the gauged
symbol w.

Convention: H1 = e^{-i Psi} H e^{i Psi}, equivalently H1 = sum_l ad^l(H)/l!
with ad(A) = [A, i Psi].  The opposite convention flips the sign of Psi and
nothing else; this choice is recorded in diagnostics.

Commutators are compose(A, B) - compose(B, A), except those with -Delta,
the only grade-0 part of H.  [|xi|^2, g] is formed directly as
(2<phi, xi> + |phi|^2) ghat(phi, xi): as a difference of compositions it is
|xi+phi|^2 ghat - ghat |xi|^2, two terms of size |xi|^2 (~1e7 on the
annulus at rho_n = 1000) that cancel, and their round-off made w miss its
symmetry by up to 3e-12 at k = 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConditionAViolation, NonMultiplicationInput, ZeroFrequency
from .frequency import FrequencySet, FrequencyVector, check_condition_A
from .symbols import (
    Abs,
    Affine,
    CoefficientExpr,
    Const,
    Iota,
    Prod,
    QuadShift,
    Quot,
    Sqrt,
    Sum,
    Symbol,
    XiGrid,
    _SharedMemo,
    class_norm,
    compose,
    laplace_symbol,
)


@dataclass(frozen=True)
class CutoffFamily:
    """Factories for the C-infinity cut-offs; all scales enter through here."""

    rho_n: float
    beta: float

    def e_expr(self, theta: FrequencyVector) -> CoefficientExpr:
        """e_theta(xi) = iota(| (|xi+theta/2| - 3 rho_n) / (10 rho_n) |)."""
        t = theta.to_float()
        inner = Prod([Const(1.0 / (10.0 * self.rho_n)),
                      Sum([Sqrt(QuadShift(t / 2.0)), Const(-3.0 * self.rho_n)])])
        return Iota(Abs(inner))

    def phi_expr(self, theta: FrequencyVector) -> CoefficientExpr:
        """phi_theta(xi) = 1 - iota(|<theta, xi+theta/2>| / (rho_n^beta |theta|))."""
        if theta.is_zero():
            raise ZeroFrequency("phi_theta needs theta != 0")
        t = theta.to_float()
        nt = float(np.linalg.norm(t))
        inner = Prod([Const(1.0 / (self.rho_n**self.beta * nt)),
                      Abs(Affine(t, 0.5 * nt * nt))])
        return Sum([Const(1.0), Prod([Const(-1.0), Iota(inner)])])

    def chi_expr(self, theta: FrequencyVector) -> CoefficientExpr:
        """chi_theta = e phi / (|xi+theta|^2 - |xi|^2), with 0/0 = 0; chi_0 = 0."""
        if theta.is_zero():
            return Const(0.0)
        t = theta.to_float()
        return Quot(Prod([self.e_expr(theta), self.phi_expr(theta)]),
                    Affine(2.0 * t, float(t @ t)))


def cutoff_eval(kind: str, theta: FrequencyVector, xi: np.ndarray,
                cf: CutoffFamily):
    if kind == "e":
        ex = cf.e_expr(theta)
    elif kind == "phi":
        ex = cf.phi_expr(theta)
    elif kind == "chi":
        ex = cf.chi_expr(theta)
    else:
        raise ValueError("kind must be e, phi or chi")
    out = ex.eval(np.asarray(xi, dtype=float)).real
    return float(out) if out.ndim == 0 else out


@dataclass
class GaugeOutput:
    psi: list            # Symbol, j = 1..ktilde
    w: Symbol            # symbol of W = H2 + Delta
    diagnostics: dict


def _require_multiplication(b: Symbol):
    for ex in b.coeffs.values():
        if not isinstance(ex, Const):
            raise NonMultiplicationInput("gauge input must be xi-independent")


# -- graded symbol algebra: dict grade -> Symbol -------------------------------


def _graded_add(A: dict, B: dict, scale=1.0) -> dict:
    out = dict(A)
    for g, s in B.items():
        ss = s.scale(scale) if scale != 1.0 else s
        out[g] = out[g] + ss if g in out else ss
    return {g: s for g, s in out.items() if not s.is_zero()}


def _laplace_commutator(g: Symbol) -> Symbol:
    """[|xi|^2, g] in affine form: (2<phi, xi> + |phi|^2) ghat(phi, xi).

    compose(lap, g) - compose(g, lap) is |xi+phi|^2 ghat - ghat |xi|^2, whose
    two terms are of size |xi|^2 ~ 1e7 on the annulus and cancel to the
    affine factor; forming the factor directly keeps the round-off of ghat
    alone.  The phi = 0 term is exactly 0 and is left out."""
    out = {}
    for ph, gex in g.coeffs.items():
        if ph.is_zero():
            continue
        t = ph.to_float()
        out[ph] = Prod([Affine(2.0 * t, float(t @ t)), gex])
    return Symbol(out)


def _graded_commutator(A: dict, B: dict, cap: int) -> dict:
    """[A, B] by grade, truncated at cap.  Grade 0 of A, where present, is
    the symbol |xi|^2 of -Delta alone (the conjugated operator's only
    grade-0 part), and its commutators are taken in affine form."""
    out: dict = {}
    for ga, sa in A.items():
        for gb, sb in B.items():
            g = ga + gb
            if g > cap:
                continue
            if ga == 0:
                term = _laplace_commutator(sb)
            else:
                term = compose(sa, sb) + compose(sb, sa).scale(-1.0)
            out[g] = out[g] + term if g in out else term
    return {g: s for g, s in out.items() if not s.is_zero()}


def _graded_conjugate(H: dict, iPsi: dict, cap: int) -> dict:
    """sum_l ad^l(H; iPsi)/l! truncated at total grade cap."""
    total = dict(H)
    C = dict(H)
    l = 1
    fact = 1.0
    while C and l <= cap:
        C = _graded_commutator(C, iPsi, cap)
        fact *= l
        total = _graded_add(total, C, 1.0 / fact)
        l += 1
    return total


def run_gauge(b: Symbol, ktilde: int, cf: CutoffFamily, S: FrequencySet,
              norm_grid: Optional[XiGrid] = None) -> GaugeOutput:
    """Order-by-order gauge construction up to grade ktilde.

    At order j the grade-j symbol Y_j of the partially conjugated operator is
    split: the chi-solvable part is cancelled by psi_j with
    hat psi_j = i Yhat_j chi_theta, and the remainder
    hat w_j(theta) = Yhat_j (1 - e_theta phi_theta) (theta != 0),
    hat w_j(0) = Yhat_j(0) goes into w.  The (1 - e phi) factorization is used
    verbatim so that w vanishes exactly on the cut-off plateaus.

    The psi-norm ladder and the remainder ledger (the class norm of the
    grade ktilde+1 part of the full conjugation) are built only when
    norm_grid is given; nothing else reads them.  Raises
    ConditionAViolation unless S satisfies Condition A up to order ktilde.
    """
    _require_multiplication(b)
    ok, witness = check_condition_A(S, ktilde)
    if not ok:
        raise ConditionAViolation("witness tuple: %r" % (witness,))
    H: dict = {0: laplace_symbol(S.dimension, S.basis)}
    if not b.is_zero():
        H[1] = b

    psis: list[Symbol] = []
    iPsi: dict = {}
    w_parts: dict[FrequencyVector, list] = {}

    for j in range(1, ktilde + 1):
        conj = _graded_conjugate(H, iPsi, j) if iPsi else dict(H)
        Yj = conj.get(j, Symbol({}))
        psi_coeffs = {}
        for th, yex in Yj.coeffs.items():
            if th.is_zero():
                w_parts.setdefault(th, []).append(yex)
                continue
            psi_coeffs[th] = Prod([Const(1j), yex, cf.chi_expr(th)])
            one_minus = Sum([Const(1.0),
                             Prod([Const(-1.0), cf.e_expr(th), cf.phi_expr(th)])])
            w_parts.setdefault(th, []).append(Prod([yex, one_minus]))
        psi_j = Symbol(psi_coeffs)
        psis.append(psi_j)
        if not psi_j.is_zero():
            iPsi[j] = psi_j.scale(1j)

    w = Symbol({th: Sum(parts) if len(parts) > 1 else parts[0]
                for th, parts in w_parts.items()})

    diagnostics = {
        "convention": "H1 = exp(-i Psi) H exp(+i Psi); psi_1 = i bhat chi"}
    if norm_grid is not None:
        ladder = []
        for j, p in enumerate(psis, start=1):
            measured = class_norm(p, norm_grid)
            bound_rate = cf.rho_n ** (cf.beta * (1 - 2 * j))
            ladder.append({"j": j, "norm": measured, "rate_bound": bound_rate})
        diagnostics["psi_norm_ladder"] = ladder
        conj_full = _graded_conjugate(H, iPsi, ktilde + 1) if iPsi else dict(H)
        remainder = conj_full.get(ktilde + 1, Symbol({}))
        diagnostics["remainder_norm"] = class_norm(remainder, norm_grid)
    return GaugeOutput(psi=psis, w=w, diagnostics=diagnostics)


# the largest |hat w| that verify_b3 takes for 0
B3_TOL = 1e-12


def verify_b3(out: GaugeOutput, samples: np.ndarray, S: FrequencySet, zp) -> dict:
    """Check hat w(theta, xi) = 0, to B3_TOL, whenever xi is sampled (from the
    annulus A) and xi or xi+theta leaves the slab Lambda(theta); theta = 0 is
    exempt."""
    samples = np.asarray(samples, dtype=float)
    L1 = zp.L(1)
    masked = []
    for th, ex in out.w.coeffs.items():
        if th.is_zero():
            continue
        t = th.to_float()
        nt = np.linalg.norm(t)
        proj_xi = np.abs(samples @ t) / nt
        proj_xt = np.abs((samples + t) @ t) / nt
        mask = (proj_xi > L1) | (proj_xt > L1)
        if mask.any():
            masked.append((t, ex, mask))
    # the coefficients share one DAG: evaluate each node once on all samples
    memo = _SharedMemo([ex for _, ex, _ in masked])
    violations = []
    checked = 0
    for t, ex, mask in masked:
        vals = np.abs(ex._memo(samples, memo)[mask])
        checked += int(mask.sum())
        bad = vals > B3_TOL
        if bad.any():
            idx = np.where(mask)[0][bad]
            for i, v in zip(idx, vals[bad]):
                violations.append({"theta": tuple(t), "xi": tuple(samples[i]),
                                   "abs_w": float(v)})
    return {"checked": checked, "violations": violations,
            "passed": not violations, "tol": B3_TOL}
