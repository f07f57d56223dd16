"""Frequency sets with exact arithmetic: algebraic sums, Condition A,
quasi-lattice subspace enumeration and Diophantine constants.

Frequencies live in the rational span of the generators (1, sqrt(D)); all
linear algebra that decides ranks, spans and integer relations is done in
Q(sqrt(D)) so the answers are exact.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import NonHermitianPotential, UnsupportedGenerators
from .exactalg import QSurd, dot, nullspace, qs, rank, rref


def surd_supported(D) -> bool:
    """Whether sqrt(D) can be a generator: D a positive integer that is no
    square (decided exactly by math.isqrt at any size) and whose square root
    has a float view."""
    if not isinstance(D, int) or isinstance(D, bool) or D <= 0:
        return False
    if math.isqrt(D) ** 2 == D:
        return False
    try:
        math.sqrt(D)
    except OverflowError:
        return False
    return True


@dataclass(frozen=True)
class GeneratorBasis:
    """Rational generators of the frequency module: 1 and optionally sqrt(D)."""

    surd_D: Optional[int] = None  # see surd_supported, or None

    def __post_init__(self):
        if self.surd_D is not None and not surd_supported(self.surd_D):
            raise UnsupportedGenerators("D must be a positive non-square integer "
                                        "with a finite float square root")

    @property
    def D(self) -> int:
        return self.surd_D or 0


class FrequencyVector:
    """Exact d-dimensional frequency; component i is coords[i][0] + coords[i][1]*sqrt(D)."""

    __slots__ = ("coords", "basis", "_hash", "_float")

    def __init__(self, coords, basis: GeneratorBasis):
        rows = []
        for row in coords:
            if not isinstance(row, (tuple, list)):
                row = (row, 0)
            if len(row) == 1:
                row = (row[0], 0)
            rows.append((Fraction(row[0]), Fraction(row[1])))
        if any(r[1] != 0 for r in rows) and basis.surd_D is None:
            raise UnsupportedGenerators("surd coordinate without a declared sqrt(D)")
        object.__setattr__(self, "coords", tuple(rows))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_hash", hash((self.coords, basis.surd_D)))
        object.__setattr__(self, "_float", None)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("FrequencyVector is immutable")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def components(self) -> list[QSurd]:
        D = self.basis.D
        return [QSurd(a, b, D) for a, b in self.coords]

    def to_float(self) -> np.ndarray:
        """The float view, computed once; the array is read-only."""
        if self._float is None:
            f = np.array([float(c) for c in self.components()])
            f.flags.writeable = False
            object.__setattr__(self, "_float", f)
        return self._float

    def is_zero(self) -> bool:
        return all(a == 0 and b == 0 for a, b in self.coords)

    def norm_sq(self) -> QSurd:
        c = self.components()
        return dot(c, c)

    def __add__(self, other: "FrequencyVector") -> "FrequencyVector":
        return FrequencyVector(
            [(a1 + a2, b1 + b2) for (a1, b1), (a2, b2) in zip(self.coords, other.coords)],
            self.basis,
        )

    def __neg__(self) -> "FrequencyVector":
        return FrequencyVector([(-a, -b) for a, b in self.coords], self.basis)

    def __sub__(self, other: "FrequencyVector") -> "FrequencyVector":
        return self + (-other)

    def __eq__(self, other):
        return isinstance(other, FrequencyVector) and self.coords == other.coords

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Freq(%s)" % (tuple(float(c) for c in self.components()),)


def freq(values: Sequence, basis: GeneratorBasis) -> FrequencyVector:
    """Build a frequency from ints/Fractions (rational case) or (a, b) pairs."""
    return FrequencyVector(list(values), basis)


def hermitian_violations(fourier: Mapping) -> list[str]:
    """The frequencies theta of a Fourier table (FrequencyVector or coordinate
    tuple keys) where |c(theta) - conj c(-theta)| <= 1e-14 fails, i.e. where
    b is not real-valued; a NaN coefficient fails too."""
    bad = []
    for th, c in fourier.items():
        neg = -th if isinstance(th, FrequencyVector) else tuple(-t for t in th)
        if not abs(c - fourier.get(neg, 0j).conjugate()) <= 1e-14:
            bad.append("coeff at %s is not the conjugate of coeff at the "
                       "negation" % (th,))
    return bad


def rational(v) -> Fraction:
    """v exactly; a float (any real that is not rational) as its shortest
    round-trip decimal, so 0.2 is 1/5."""
    if isinstance(v, numbers.Real) and not isinstance(v, numbers.Rational):
        v = repr(float(v))
    return Fraction(v)


def fourier_table(b: Mapping, d: int) -> dict:
    """The Fourier table of a real potential b on R^d, {theta: c} with theta
    a tuple of d Fractions; the one reading of a potential every layer shares.

    - A key is a FrequencyVector or a coordinate tuple, each coordinate read
      by `rational`; a surd frequency raises UnsupportedGenerators, and a
      theta without exactly d coordinates raises ValueError.
    - An entry with coefficient 0 is no frequency of b and is dropped
      unchecked; so is a theta whose entries sum to 0.
    - Equal theta are summed in input order; each coefficient keeps its type.
    - NonHermitianPotential unless b is real (`hermitian_violations`).
    """
    out = {}
    for th, c in b.items():
        if not c:
            continue
        if isinstance(th, FrequencyVector):
            if any(s for _, s in th.coords):
                raise UnsupportedGenerators("surd frequency %r" % (th,))
            th = tuple(a for a, _ in th.coords)
        key = tuple(map(rational, th))
        if len(key) != d:
            raise ValueError("frequency %r has %d coordinates, not d = %d"
                             % (th, len(key), d))
        out[key] = out[key] + c if key in out else c
    out = {th: c for th, c in out.items() if c}
    bad = hermitian_violations(out)
    if bad:
        raise NonHermitianPotential(bad[0])
    return out


def potential_frequencies(potential: Mapping) -> list[FrequencyVector]:
    """The theta of a Fourier table {FrequencyVector: coeff} whose coefficient
    is nonzero, the rule fourier_table applies, so that a zero entry does
    not change the zone geometry."""
    return [v for v, c in potential.items() if c != 0]


@dataclass(frozen=True)
class FrequencySet:
    """Finite symmetric frequency set containing 0 and spanning R^d."""

    dimension: int
    basis: GeneratorBasis
    elements: frozenset = field(default_factory=frozenset)

    @classmethod
    def build(cls, dimension: int, basis: GeneratorBasis,
              vectors: Iterable[FrequencyVector],
              require_spanning: bool = True) -> "FrequencySet":
        elems = set(vectors)
        elems |= {-v for v in elems}
        elems.add(FrequencyVector([(0, 0)] * dimension, basis))
        fs = cls(dimension, basis, frozenset(elems))
        if require_spanning and fs.real_rank() < dimension:
            raise ValueError("frequency set does not span R^d")
        return fs

    def real_rank(self) -> int:
        rows = [v.components() for v in self.elements if not v.is_zero()]
        return rank(rows) if rows else 0

    @cached_property
    def _nonzero(self) -> tuple:
        return tuple(sorted((v for v in self.elements if not v.is_zero()),
                            key=lambda v: tuple(map(float, v.to_float()))))

    def nonzero(self) -> list[FrequencyVector]:
        """The nonzero elements sorted by their float view (a fresh list over
        a cached tuple)."""
        return list(self._nonzero)

    def zero(self) -> FrequencyVector:
        return FrequencyVector([(0, 0)] * self.dimension, self.basis)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, v):
        return v in self.elements


class QuasiLatticeSubspace:
    """Real span of frequency vectors, canonicalized by field RREF for dedup."""

    __slots__ = ("dimension", "ambient_dim", "basis_vectors", "_key", "_rref")

    def __init__(self, ambient_dim: int, vectors: Sequence[FrequencyVector],
                 gen_basis: GeneratorBasis):
        rows = [v.components() for v in vectors]
        red, _ = rref(rows)
        key = tuple(tuple((c.a, c.b) for c in row) for row in red)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "dimension", len(red))
        object.__setattr__(self, "basis_vectors", tuple(vectors[:]))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_rref", red)

    def __setattr__(self, *a):
        raise AttributeError("QuasiLatticeSubspace is immutable")

    def rref_rows(self) -> list[list[QSurd]]:
        return [list(r) for r in self._rref]

    def contains_vector(self, components: Sequence[QSurd]) -> bool:
        if self.dimension == self.ambient_dim:
            return True
        if self.dimension == 0:
            return all(qs(c).is_zero() for c in components)
        return rank(self._rref + [list(components)]) == self.dimension

    def contains_subspace(self, other: "QuasiLatticeSubspace") -> bool:
        if other.dimension > self.dimension:
            return False
        return rank(self._rref + other._rref) == self.dimension

    def sum(self, other: "QuasiLatticeSubspace") -> "QuasiLatticeSubspace":
        vecs = list(self.basis_vectors) + list(other.basis_vectors)
        gb = (self.basis_vectors or other.basis_vectors)[0].basis if vecs else GeneratorBasis()
        return QuasiLatticeSubspace(self.ambient_dim, vecs, gb)

    def float_basis(self) -> np.ndarray:
        """Orthonormal float basis as columns (deterministic via QR of RREF rows)."""
        if self.dimension == 0:
            return np.zeros((self.ambient_dim, 0))
        A = np.array([[float(c) for c in row] for row in self._rref]).T
        Q, _ = np.linalg.qr(A)
        return Q[:, : self.dimension]

    def __eq__(self, other):
        return isinstance(other, QuasiLatticeSubspace) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "Subspace(dim=%d/%d)" % (self.dimension, self.ambient_dim)


@dataclass(frozen=True)
class DiophantineReport:
    s: float  # min sine of angle over strongly distinct subspace pairs (1 if vacuous)
    r: float  # min |theta| over nonzero elements
    R: float  # max |theta|

    def to_json_dict(self) -> dict:
        return {"s": self.s, "r": self.r, "R": self.R}


def algebraic_sum(S: FrequencySet, k: int) -> FrequencySet:
    """Theta_k = Theta + ... + Theta (k times), deduplicated exactly."""
    if k < 1:
        raise ValueError("k must be >= 1")
    base = set(S.elements)
    acc = set(base)
    for _ in range(k - 1):
        acc = {u + v for u in acc for v in base}
    return FrequencySet(S.dimension, S.basis, frozenset(acc))


def _rational_relation_exists(vectors: Sequence[FrequencyVector]) -> bool:
    """True iff sum n_j theta_j = 0 has a nontrivial rational (hence integer) solution."""
    d = vectors[0].dim
    rows = []
    for i in range(d):
        rows.append([QSurd(v.coords[i][0]) for v in vectors])   # rational parts
        rows.append([QSurd(v.coords[i][1]) for v in vectors])   # surd parts
    return len(nullspace(rows)) > 0


@lru_cache(maxsize=None)
def check_condition_A(S: FrequencySet, k_max: int):
    """Check Condition A on all d-tuples from the k_max-fold algebraic sum.

    Returns (True, None) on pass, (False, witness_tuple) on the first violation:
    a tuple that is really linearly dependent yet admits no integer relation.
    Memoised per (S, k_max): S hashes by value, and every call with an equal
    pair returns the same result object.
    """
    d = S.dimension
    big = algebraic_sum(S, k_max)
    candidates = big.nonzero()
    for combo in itertools.combinations(candidates, d):
        rows = [v.components() for v in combo]
        if rank(rows) == d:
            continue
        if not _rational_relation_exists(combo):
            return False, combo
    return True, None


def enumerate_subspaces(S: FrequencySet, m: int) -> list[QuasiLatticeSubspace]:
    """All distinct real spans of m independent elements of S."""
    d = S.dimension
    if m < 0 or m > d:
        raise ValueError("need 0 <= m <= d")
    if m == 0:
        return [QuasiLatticeSubspace(d, [], S.basis)]
    seen = {}
    for combo in itertools.combinations(S.nonzero(), m):
        sub = QuasiLatticeSubspace(d, list(combo), S.basis)
        if sub.dimension == m and sub not in seen:
            seen[sub] = sub
    return list(seen.values())


def all_subspaces(S: FrequencySet) -> list[QuasiLatticeSubspace]:
    out = []
    for m in range(S.dimension + 1):
        out.extend(enumerate_subspaces(S, m))
    return out


def _intersection(U: QuasiLatticeSubspace,
                  V: QuasiLatticeSubspace) -> list[list[QSurd]]:
    """Basis (rows, field elements) of U ∩ V."""
    ur, vr = U.rref_rows(), V.rref_rows()
    if not ur or not vr:
        return []
    d = U.ambient_dim
    rows = []
    for i in range(d):
        rows.append([u[i] for u in ur] + [-qs(v[i]) for v in vr])
    out = []
    for ns in nullspace(rows):
        c = ns[: len(ur)]
        vec = [QSurd(0)] * d
        for ci, u in zip(c, ur):
            for i in range(d):
                vec[i] = vec[i] + qs(ci) * qs(u[i])
        if any(not v.is_zero() for v in vec):
            out.append(vec)
    red, _ = rref(out)
    return red


def _complement_within(U_rows: list[list[QSurd]], W_rows: list[list[QSurd]]) -> np.ndarray:
    """Float orthonormal basis (columns) of U ⊖ W (orthocomplement of W inside U)."""
    d = len(U_rows[0])
    if not W_rows:
        A = np.array([[float(c) for c in r] for r in U_rows]).T
        Q, _ = np.linalg.qr(A)
        return Q[:, : len(U_rows)]
    # coefficients c with x = sum c_i u_i and <x, w_l> = 0
    gram_rows = []
    for w in W_rows:
        gram_rows.append([dot(u, w) for u in U_rows])
    coeffs = nullspace(gram_rows)
    vecs = []
    for c in coeffs:
        v = [QSurd(0)] * d
        for ci, u in zip(c, U_rows):
            for i in range(d):
                v[i] = v[i] + qs(ci) * qs(u[i])
        vecs.append([float(x) for x in v])
    A = np.array(vecs).T
    Q, _ = np.linalg.qr(A)
    return Q[:, : len(vecs)]


def _min_angle_sine(U: QuasiLatticeSubspace, V: QuasiLatticeSubspace) -> float:
    W = _intersection(U, V)
    A = _complement_within(U.rref_rows(), W)
    B = _complement_within(V.rref_rows(), W)
    sv = np.linalg.svd(A.T @ B, compute_uv=False)
    c = min(1.0, float(sv.max(initial=0.0)))
    return float(np.sqrt(max(0.0, 1.0 - c * c)))


def strongly_distinct(U: QuasiLatticeSubspace, V: QuasiLatticeSubspace) -> bool:
    return not U.contains_subspace(V) and not V.contains_subspace(U)


def diophantine_constants(S: FrequencySet) -> DiophantineReport:
    """s, r, R for the finite set S; vacuous s reported as 1."""
    nz = S.nonzero()
    norms_sq = [v.norm_sq() for v in nz]
    r2 = min(norms_sq)
    R2 = max(norms_sq)
    subs = all_subspaces(S)
    s_val = 1.0
    found = False
    for U, V in itertools.combinations(subs, 2):
        if strongly_distinct(U, V):
            found = True
            s_val = min(s_val, _min_angle_sine(U, V))
    return DiophantineReport(
        s=s_val if found else 1.0,
        r=float(float(r2) ** 0.5),
        R=float(float(R2) ** 0.5),
    )
