import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_lab.errors import UnsupportedGenerators
from spectra_lab.frequency import (FrequencySet, GeneratorBasis, algebraic_sum,
                                   check_condition_A, diophantine_constants,
                                   enumerate_subspaces, freq, strongly_distinct)


def test_build_symmetrizes_and_adds_zero(mathieu1d, rational_basis):
    assert freq([0], rational_basis) in mathieu1d
    assert freq([-1], rational_basis) in mathieu1d
    assert len(mathieu1d) == 3


def test_build_requires_span(rational_basis):
    with pytest.raises(ValueError):
        FrequencySet.build(2, rational_basis, [freq([1, 0], rational_basis)])


def test_cached_views_cannot_be_mutated(axes2d, surd2_basis):
    v = freq([(1, 2), 0], surd2_basis)
    f = v.to_float()
    assert f.tolist() == [1 + 2 * math.sqrt(2), 0.0]
    with pytest.raises(ValueError):
        f[0] = 0.0
    assert v.to_float() is f
    nz = axes2d.nonzero()
    assert [tuple(t.to_float()) for t in nz] == [(-1.0, 0.0), (0.0, -1.0),
                                                  (0.0, 1.0), (1.0, 0.0)]
    nz.reverse()
    nz.append(axes2d.zero())
    assert axes2d.nonzero() == nz[-2::-1]


def test_generator_basis_rejects_square():
    with pytest.raises(UnsupportedGenerators):
        GeneratorBasis(4)


@pytest.mark.parametrize("D", [
    (10**20 + 1) ** 2,   # a square that int(D**0.5) ** 2 misses
    10**400 + 1,         # no float square root
])
def test_generator_basis_rejects_huge_D(D):
    with pytest.raises(UnsupportedGenerators):
        GeneratorBasis(D)


def test_generator_basis_accepts_large_nonsquare():
    assert GeneratorBasis((10**20 + 1) ** 2 + 1).D == (10**20 + 1) ** 2 + 1


def test_algebraic_sum_d1(mathieu1d, rational_basis):
    S2 = algebraic_sum(mathieu1d, 2)
    want = {freq([v], rational_basis) for v in (-2, -1, 0, 1, 2)}
    assert set(S2.elements) == want
    assert set(algebraic_sum(mathieu1d, 1).elements) == set(mathieu1d.elements)


def test_algebraic_sum_d2_axes(axes2d, rational_basis):
    S2 = algebraic_sum(axes2d, 2)
    assert len(S2) == 13
    for v in ([1, 1], [1, -1], [2, 0], [0, 2]):
        assert freq(v, rational_basis) in S2
        assert freq([-c for c in v], rational_basis) in S2


def test_algebraic_sum_monotone(axes2d):
    sets = [set(algebraic_sum(axes2d, k).elements) for k in (1, 2, 3)]
    assert sets[0] <= sets[1] <= sets[2]


def test_condition_A_integer_lattice(axes2d):
    ok, witness = check_condition_A(axes2d, 3)
    assert ok and witness is None


def test_condition_A_collinear_incommensurate():
    basis = GeneratorBasis(2)
    v1 = freq([(1, 0), (0, 0)], basis)
    v2 = freq([(0, 1), (0, 0)], basis)   # (sqrt(2), 0)
    e2 = freq([(0, 0), (1, 0)], basis)
    S = FrequencySet.build(2, basis, [v1, v2, e2])
    ok, witness = check_condition_A(S, 1)
    assert not ok
    assert witness is not None


def test_condition_A_d1_always(mathieu1d):
    ok, _ = check_condition_A(mathieu1d, 4)
    assert ok


def test_condition_A_memoised(monkeypatch, rational_basis):
    """An equal (S, k_max) runs the exact ranks once: the second call, on an
    equal but distinct S, does no rank work and returns the same object."""
    import spectra_lab.frequency as frequency

    # a set no other test checks, so the first call is not yet memoised
    S, T = (FrequencySet.build(2, rational_basis, [
        freq([3, 0], rational_basis), freq([1, 5], rational_basis)])
        for _ in range(2))
    assert S == T and S is not T
    calls = []
    real_rank = frequency.rank

    def counted(rows):
        calls.append(1)
        return real_rank(rows)

    monkeypatch.setattr(frequency, "rank", counted)
    first = check_condition_A(S, 2)
    assert calls
    calls.clear()
    again = check_condition_A(T, 2)
    assert not calls
    assert again is first and first == (True, None)


def test_enumerate_subspaces(axes2d):
    lines = enumerate_subspaces(axes2d, 1)
    assert len(lines) == 2
    assert len(enumerate_subspaces(axes2d, 0)) == 1
    assert enumerate_subspaces(axes2d, 0)[0].dimension == 0
    full = enumerate_subspaces(axes2d, 2)
    assert len(full) == 1 and full[0].dimension == 2
    diag = enumerate_subspaces(algebraic_sum(axes2d, 2), 1)
    assert len(diag) == 4


def test_diophantine_axes(axes2d):
    rep = diophantine_constants(axes2d)
    assert rep.s == 1.0 and rep.r == 1.0 and rep.R == 1.0


def test_diophantine_theta2(axes2d):
    rep = diophantine_constants(algebraic_sum(axes2d, 2))
    assert abs(rep.s - math.sqrt(2) / 2) < 1e-12
    assert rep.r == 1.0
    assert abs(rep.R - 2.0) < 1e-12


def test_diophantine_d1_vacuous(mathieu1d):
    rep = diophantine_constants(mathieu1d)
    assert rep.s == 1.0 and rep.r == 1.0 and rep.R == 1.0


def test_subspace_span_equality(axes2d, rational_basis):
    subs = enumerate_subspaces(algebraic_sum(axes2d, 2), 1)
    # spans deduplicated: 2e1 and e1 give the same line
    assert len(set(subs)) == len(subs)
    for U, V in itertools.combinations(subs, 2):
        assert not U.contains_subspace(V)


def test_strongly_distinct_pairs(axes2d):
    a, b = enumerate_subspaces(axes2d, 1)
    assert strongly_distinct(a, b)


small_vecs = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda t: t != (0, 0)),
    min_size=2, max_size=4)


@settings(max_examples=25, deadline=None)
@given(small_vecs)
def test_algebraic_sum_invariants(vecs):
    basis = GeneratorBasis(None)
    fv = [freq(list(v), basis) for v in vecs]
    try:
        S = FrequencySet.build(2, basis, fv)
    except ValueError:
        return  # not spanning
    S2 = algebraic_sum(S, 2)
    zero = freq([0, 0], basis)
    assert zero in S2
    for v in S2:
        assert -v in S2
    assert set(S.elements) <= set(S2.elements)
