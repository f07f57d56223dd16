"""Resonance-zone decomposition of R^d, point classification and resonant
congruence classes.

Scale parameters: L_j = rho_n^alpha_j with alpha strictly increasing and
alpha_d < 1/(2d).  A point xi belongs to the slab Lambda(theta) when
|<xi, theta/|theta|>| <= L_1; the region Xi(V) collects the points whose
near-resonances are generated exactly by the quasi-lattice subspace V.

ZoneGeometry does its exact arithmetic once, at construction, and answers
every per-point query from tables, with floats, indices and integer tuples
only:
  * the subspaces of S by index, ordered by dimension so that each child
    precedes its parents; each subspace's children (the subspaces of one
    dimension less inside it) as (index, unit normal nu, L_m); and a boolean
    table of which subspace contains which.  Xi_1-membership of a point is
    one pass over this list, each child read rather than recomputed, and the
    label is the largest hit (or the sum of the hits, should it not contain
    them all);
  * the closure steps of each theta in S as (float theta, |theta|, moves
    (l, l * key)) for 0 < |l| <= ceil(2 L_1 / |theta|).  The integer key of
    theta is its exact coordinates, rational and surd parts, times the common
    denominator of S.  That map is injective and linear, so an offset
    sum_k l_k theta_k is keyed exactly by the integer tuple sum_k l_k key_k,
    and two closure points merge exactly when their offsets are equal.  Of
    theta and -theta only the first in S's order has steps: from any point,
    -theta's moves reach theta's candidates with the same floats (up to the
    sign of a zero coordinate), slab tests and offsets, so they add nothing.
The float steps (eta + l theta and the slab projections) and the order in
which the closure visits points are part of the result: class points are
the float images reached first, in that order, and tests/golden pins them
to the bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceeded, ClassBoundExceeded, ZeroFrequency
from .frequency import (
    FrequencySet,
    FrequencyVector,
    QuasiLatticeSubspace,
    all_subspaces,
)


def default_alpha(d: int) -> tuple[float, ...]:
    # increasing, alpha_d < 1/(2d), with room for beta = alpha_1/2 below alpha_1
    return tuple((1.0 / (4 * d)) * (1.0 + j / (2 * d)) for j in range(1, d + 1))


# the most points a congruence closure visits before CapExceeded, a safety
# net behind the class bound
CLOSURE_CAP = 10**6


@dataclass(frozen=True)
class ZoneParameters:
    rho_n: float
    alpha: tuple[float, ...] = ()
    ktilde: int = 1
    dimension: int = 0

    @classmethod
    def create(cls, rho_n: float, d: int, alpha: Optional[Sequence[float]] = None,
               ktilde: int = 1) -> "ZoneParameters":
        a = tuple(alpha) if alpha is not None else default_alpha(d)
        if len(a) != d:
            raise ValueError("need d alpha exponents")
        if any(a[i] >= a[i + 1] for i in range(d - 1)) or a[-1] >= 1.0 / (2 * d):
            raise ValueError("alpha must increase and satisfy alpha_d < 1/(2d)")
        return cls(rho_n=float(rho_n), alpha=a, ktilde=ktilde, dimension=d)

    def L(self, j: int) -> float:
        """L_j = rho_n^alpha_j, 1-based."""
        return self.rho_n ** self.alpha[j - 1]

    @property
    def beta(self) -> float:
        return self.alpha[0] / 2.0


@dataclass(frozen=True)
class ZoneLabel:
    subspace: QuasiLatticeSubspace

    @property
    def dim(self) -> int:
        return self.subspace.dimension


@dataclass(frozen=True)
class CongruenceClass:
    seed: np.ndarray
    points: tuple  # tuple of np.ndarray
    subspace: QuasiLatticeSubspace

    def __len__(self):
        return len(self.points)

    def diameter(self) -> float:
        if len(self.points) < 2:
            return 0.0
        P = np.array(self.points)
        d2 = ((P[:, None, :] - P[None, :, :]) ** 2).sum(-1)
        return float(np.sqrt(d2.max()))


class ZoneGeometry:
    """Precomputed subspace lattice and closure steps for a fixed Theta-tilde
    (the tables of the module docstring); all zone queries."""

    def __init__(self, S: FrequencySet, zp: ZoneParameters):
        if zp.dimension and zp.dimension != S.dimension:
            raise ValueError("zone parameters built for a different dimension")
        self.S = S
        self.zp = zp
        self.d = S.dimension
        self.subspaces = all_subspaces(S)
        subs = self.subspaces
        self._dims = [V.dimension for V in subs]
        self._labels = [ZoneLabel(V) for V in subs]
        self._index = {V: i for i, V in enumerate(subs)}
        self._ids = {id(V): i for i, V in enumerate(subs)}
        self._contains = [[V.contains_subspace(W) for W in subs] for V in subs]
        # children of V: subspaces of dim(V)-1 contained in V, with the unit
        # normal nu spanning V ominus child and the confinement scale L_m
        self._children = []
        for i, V in enumerate(subs):
            m = V.dimension
            self._children.append(tuple(
                (j, self._unit_complement(V, W), zp.L(m)) for j, W in enumerate(subs)
                if W.dimension == m - 1 and self._contains[i][j]))
        self._L1 = zp.L(1)
        nonzero = S.nonzero()
        denom = math.lcm(1, *(x.denominator for t in nonzero
                              for row in t.coords for x in row))
        self._zero_key = (0,) * (2 * self.d)
        self._steps = []
        keys = set()
        for t in nonzero:
            key = tuple(int(x * denom) for row in t.coords for x in row)
            if tuple(-k for k in key) in keys:
                continue  # -theta's moves land on theta's points, by value and offset
            keys.add(key)
            tf = t.to_float()
            nrm = np.linalg.norm(tf)
            lmax = int(math.ceil(2.0 * self._L1 / nrm))
            moves = tuple((l, tuple(l * k for k in key))
                          for l in range(-lmax, lmax + 1) if l != 0)
            self._steps.append((tf, nrm, moves))

    @staticmethod
    def _unit_complement(V: QuasiLatticeSubspace, W: QuasiLatticeSubspace) -> np.ndarray:
        """Unit vector spanning V ominus W (dim 1)."""
        BV = V.float_basis()
        if W.dimension == 0:
            v = BV[:, 0]
            return v / np.linalg.norm(v)
        BW = W.float_basis()
        P = BV @ BV.T - BW @ BW.T
        # P is rank-1 projector onto V ominus W
        w, vecs = np.linalg.eigh(P)
        v = vecs[:, np.argmax(w)]
        return v / np.linalg.norm(v)

    def _position(self, V: QuasiLatticeSubspace) -> int:
        i = self._ids.get(id(V))
        return self._index[V] if i is None else i

    # -- membership tests ---------------------------------------------------

    def _xi1(self, xi: np.ndarray) -> list[bool]:
        """hit[i] = xi in Xi_1(subspaces[i]): some flag of the subspace confines
        xi at every level.  Children precede parents, so each is read, not
        recomputed; dim 0 has no children and always holds.  Every query
        passes here once: a ValueError unless the float array xi has d finite
        coordinates."""
        if xi.shape != (self.d,) or not all(map(math.isfinite, xi.tolist())):
            raise ValueError("xi needs %d finite coordinates, got %r" % (self.d, xi))
        hit = []
        for kids in self._children:
            h = not kids
            for j, nu, Lm in kids:
                if hit[j] and abs(float(xi @ nu)) <= Lm:
                    h = True
                    break
            hit.append(h)
        return hit

    def in_xi1(self, V: QuasiLatticeSubspace, xi: np.ndarray) -> bool:
        """xi in Xi_1(V): some flag of V confines xi at every level."""
        return self._xi1(np.asarray(xi, dtype=float))[self._position(V)]

    def in_xi(self, V: QuasiLatticeSubspace, xi: np.ndarray) -> bool:
        """xi in Xi(V) per the subtraction rule: in Xi_1(V), not in Xi_1(U) for U not<= V."""
        i = self._position(V)
        hit = self._xi1(np.asarray(xi, dtype=float))
        contains = self._contains[i]
        return hit[i] and not any(h and not c for h, c in zip(hit, contains))

    def _label(self, xi: np.ndarray) -> int:
        """Index of the unique V with xi in Xi(V) (maximal Xi_1-membership),
        for a float array xi."""
        hits = [i for i, h in enumerate(self._xi1(xi)) if h]
        dims = self._dims
        best = hits[0]
        for i in hits[1:]:
            if dims[i] > dims[best]:
                best = i
        # the set of hits is closed under sums, so the max-dimensional hit
        # contains all others; fall back to the sum of the hits, the first
        # (least-dimensional) subspace that contains them all, if it does not
        if not all(self._contains[best][i] for i in hits):
            best = next(j for j, row in enumerate(self._contains)
                        if all(row[i] for i in hits))
        return best

    def classify_point(self, xi: np.ndarray) -> ZoneLabel:
        """The unique V with xi in Xi(V) (maximal Xi_1-membership); a
        ValueError unless xi has d finite coordinates."""
        return self._labels[self._label(np.asarray(xi, dtype=float))]

    # -- congruence classes --------------------------------------------------

    def congruence_class(self, xi: np.ndarray) -> CongruenceClass:
        """BFS closure of xi under steps eta -> eta + l*theta staying in Lambda(theta).

        Every point of the class of xi in Xi(V), dim V = m, lies within
        2 m L_m of xi (criterion 09's bound), so the closure raises
        ClassBoundExceeded at the first point farther out; CapExceeded past
        CLOSURE_CAP points stays as the safety net."""
        xi = np.asarray(xi, dtype=float)
        label = self._label(xi)
        m = self._dims[label]
        reach = 2.0 * m * self.zp.L(m) if m else 0.0
        L1 = self._L1
        seen = {self._zero_key: xi}
        frontier = [self._zero_key]
        while frontier:
            new = []
            for off in frontier:
                pt = seen[off]
                for tf, nrm, moves in self._steps:
                    proj = float(pt @ tf) / nrm
                    if abs(proj) > L1:
                        continue
                    for l, lkey in moves:
                        q = pt + l * tf
                        if abs(float(q @ tf)) / nrm > L1:
                            continue
                        noff = tuple(map(operator.add, off, lkey))
                        if noff not in seen:
                            dist = math.dist(q, xi)
                            if dist > reach:
                                raise ClassBoundExceeded(
                                    "congruence class of xi = %s (dim %d) reached %.6g "
                                    "from xi, beyond the class bound 2 m L_m = %.6g"
                                    % (xi.tolist(), m, dist, reach))
                            seen[noff] = q
                            new.append(noff)
                            if len(seen) > CLOSURE_CAP:
                                raise CapExceeded(
                                    "congruence closure exceeded %d nodes" % CLOSURE_CAP)
            frontier = new
        return CongruenceClass(seed=xi, points=tuple(seen.values()),
                               subspace=self.subspaces[label])


def in_lambda(theta: FrequencyVector, xi: np.ndarray, zp: ZoneParameters) -> bool:
    if theta.is_zero():
        raise ZeroFrequency("Lambda(theta) needs theta != 0")
    t = theta.to_float()
    return abs(float(np.asarray(xi, dtype=float) @ t)) / np.linalg.norm(t) <= zp.L(1)


def annulus_bounds(rho_n: float) -> tuple[float, float]:
    """|xi|^2 range of the sampling annulus (0.7*lambda_n .. 17.5*lambda_n)."""
    lam = rho_n * rho_n
    return 0.7 * lam, 17.5 * lam


def sample_annulus(d: int, rho_n: float, n: int, rng: np.random.Generator) -> np.ndarray:
    lo, hi = annulus_bounds(rho_n)
    u = rng.normal(size=(n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = np.sqrt(rng.uniform(lo, hi, size=n))
    return u * radii[:, None]
