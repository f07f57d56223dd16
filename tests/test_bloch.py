import itertools
import json
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectra_lab.bloch import (_WINDOW_EPS, BlochOracle1D, _banded_rep,
                               _eig_banded_k, _fermi_sums, _support_windows,
                               _wave_amp, _window_amp, build_fiber,
                               free_lds, lattice_fourier,
                               spectral_function)
from spectra_lab.errors import (NonHermitianPotential, NonLatticeFrequencies,
                                TruncationCeiling, UnsupportedGenerators)
from spectra_lab.frequency import GeneratorBasis, freq
from spectra_lab.heat import TrigPotential
from spectra_lab.validation import (coefficients_from_potential, expansion_eval,
                                    free_offdiagonal)

MATHIEU = {(1,): 0.3, (-1,): 0.3}


def test_lattice_fourier_normalization():
    four = lattice_fourier(MATHIEU, 1)
    assert four == {(1,): 0.3 + 0j, (-1,): 0.3 + 0j}
    with pytest.raises(NonLatticeFrequencies):
        lattice_fourier({(0.5,): 1.0, (-0.5,): 1.0}, 1)
    # a theta at coefficient 0 is no frequency of b, on the lattice or off it
    half = freq([Fraction(1, 2)], GeneratorBasis(None))
    assert lattice_fourier({**MATHIEU, (0.5,): 0.0, half: 0j}, 1) == four
    basis = GeneratorBasis(2)
    surd = freq([(0, 1)], basis)
    with pytest.raises(NonLatticeFrequencies):
        lattice_fourier({surd: 1.0}, 1)
    with pytest.raises(NonLatticeFrequencies):
        lattice_fourier({(1, 0): 1.0}, 1)  # dimension mismatch
    with pytest.raises(NonHermitianPotential):
        lattice_fourier({(1,): 0.3}, 1)  # no conjugate partner
    with pytest.raises(NonHermitianPotential):
        lattice_fourier({(1,): 0.3 + 0.1j, (-1,): 0.3}, 1)
    with pytest.raises(NonHermitianPotential):
        lattice_fourier({(1,): math.nan, (-1,): math.nan}, 1)
    # a complex Hermitian pair passes unchanged
    four = lattice_fourier({(1,): 0.3 + 0.1j, (-1,): 0.3 - 0.1j}, 1)
    assert four == {(1,): 0.3 + 0.1j, (-1,): 0.3 - 0.1j}
    # imaginary parts within eps |c| everywhere make the table real; one
    # larger part anywhere keeps every coefficient complex
    tiny = {(1,): 0.3 + 1e-301j, (-1,): 0.3 - 1e-301j, (2,): 0.1 + 1e-17j,
            (-2,): 0.1 - 1e-17j}
    four = lattice_fourier(tiny, 1)
    assert four == {(1,): 0.3, (-1,): 0.3, (2,): 0.1, (-2,): 0.1}
    assert all(type(c) is float for c in four.values())
    four = lattice_fourier({**tiny, (2,): 0.1 + 1e-16j, (-2,): 0.1 - 1e-16j}, 1)
    assert all(type(c) is complex for c in four.values())


_BASIS = GeneratorBasis(None)


@pytest.mark.parametrize("table, d", [
    ({(1,): 0.3, (-1,): 0.3}, 1),
    # equal theta under a FrequencyVector key and a tuple key are summed
    ({freq([1], _BASIS): 0.2, freq([-1], _BASIS): 0.2, (1,): 0.1, (-1.0,): 0.1}, 1),
    # zero entries, and a theta whose entries sum to 0, are no frequencies
    ({(1, 0): 0.2, (-1, 0): 0.2, (0, 1): 0, (0.5, 0.5): 0j}, 2),
    ({(1,): 0.3 + 0.1j, (-1,): 0.3 - 0.1j, freq([2], _BASIS): 0.1,
      (2,): -0.1, (-2,): 0.0}, 1),
])
def test_potential_layers_keep_the_same_theta(table, d):
    assert set(lattice_fourier(table, d)) == set(TrigPotential.build(d, table).fourier)


@pytest.mark.parametrize("table, d, bloch_error, heat_error", [
    ({(1,): 0.2, (-1,): 0.2}, 2, NonLatticeFrequencies, ValueError),
    ({freq([(0, 1)], GeneratorBasis(2)): 1.0,
      freq([(0, -1)], GeneratorBasis(2)): 1.0}, 1,
     NonLatticeFrequencies, UnsupportedGenerators),
    ({(1,): 0.2j}, 1, NonHermitianPotential, NonHermitianPotential),
    ({(1,): math.nan, (-1,): math.nan}, 1,
     NonHermitianPotential, NonHermitianPotential),
])
def test_potential_layers_reject_the_same_tables(table, d, bloch_error,
                                                 heat_error):
    with pytest.raises(bloch_error):
        lattice_fourier(table, d)
    with pytest.raises(heat_error):
        TrigPotential.build(d, table)


def test_fiber_free_diagonal():
    fib = build_fiber(0.25, {}, 4, d=1)
    M = fib.matrix
    assert np.allclose(M, np.diag(np.diag(M)))
    ms = np.arange(-4, 5)
    assert np.allclose(np.sort(np.diag(M).real), np.sort((0.25 + ms) ** 2))


def test_fiber_mathieu_tridiagonal():
    fib = build_fiber(0.1, MATHIEU, 5, d=1)
    M = fib.matrix
    assert np.allclose(M, M.conj().T)
    off = M - np.diag(np.diag(M))
    i, j = np.nonzero(np.abs(off) > 1e-15)
    assert (np.abs(i - j) == 1).all()
    assert np.allclose(off[i, j], 0.3)


def test_fiber_spectrum_orthonormal():
    energies, vectors = np.linalg.eigh(build_fiber(0.13, MATHIEU, 8, d=1).matrix)
    assert (np.diff(energies) >= -1e-12).all()
    G = vectors.conj().T @ vectors
    assert np.allclose(G, np.eye(G.shape[0]), atol=1e-12)


def test_projector_idempotent():
    energies, vectors = np.linalg.eigh(build_fiber(0.13, MATHIEU, 8, d=1).matrix)
    sel = energies <= 9.0
    P = vectors[:, sel] @ vectors[:, sel].conj().T
    assert np.linalg.norm(P @ P - P, 2) < 1e-10


def test_free_on_diagonal_d1():
    val = spectral_function(4.0, 0.0, 0.0, {}, 20, 2048, d=1)
    assert abs(val - 2.0 / math.pi) < 1e-4


def test_free_off_diagonal_d1():
    z = 0.8
    val = spectral_function(4.0, 0.0, z, {}, 20, 2048, d=1)
    assert abs(val - math.sin(2 * z) / (math.pi * z)) < 1e-3


def test_free_on_diagonal_d2():
    val = spectral_function(1.0, np.zeros(2), np.zeros(2), {}, 6, 64, d=2)
    assert abs(val - 1.0 / (4 * math.pi)) < 2e-3


def test_free_fast_paths():
    lams = np.geomspace(100.0, 10000.0, 10)
    N1 = free_lds(lams, 4096, 1)
    assert np.max(np.abs(N1 / (np.sqrt(lams) / math.pi) - 1)) < 1e-4
    lams2 = np.geomspace(10.0, 200.0, 8)
    N2 = free_lds(lams2, 512, 2)
    assert np.max(np.abs(N2 / (lams2 / (4 * math.pi)) - 1)) < 1e-4
    # no state lies below 0; at lambda = 0 only an odd grid's k = 0, m = 0
    # sits on the cut, counted by <= and not by <, so it weighs 1/2
    for Nk in (16, 17):
        at0 = 0.5 * (Nk % 2)
        assert spectral_function(-1.0, 0.0, 0.0, {}, 8, Nk) == 0.0
        assert free_lds([-1.0, 0.0], Nk, 1).tolist() == [0.0, at0 / Nk / (2 * math.pi)]
        assert spectral_function(-1.0, np.zeros(2), np.zeros(2), {}, 8, Nk, d=2) == 0.0
        assert free_lds([-1.0, 0.0], Nk, 2).tolist() == [
            0.0, at0 / Nk**2 / (2 * math.pi) ** 2]


def _brute_free_count(lam, Nk, d):
    """The midpoint count of b = 0 by Fractions: the grid points k + m with
    |k + m|^2 <= lam and with |k + m|^2 < lam, averaged."""
    lam = Fraction(lam)
    ks = [Fraction(2 * i + 1 - Nk, 2 * Nk) for i in range(Nk)]
    M = math.isqrt(math.ceil(lam)) + 2
    le = lt = 0
    for xi in itertools.product([k + m for k in ks for m in range(-M, M + 1)],
                                repeat=d):
        r2 = sum(v * v for v in xi)
        le += r2 <= lam
        lt += r2 < lam
    return 0.5 * (le + lt) / Nk**d / (2 * math.pi) ** d


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("Nk", range(1, 9))
def test_free_count_exact_at_ties(Nk, d):
    """At the float of a tie |k + m|^2 of the grid the free count is the
    Fraction count of that float.  A float sqrt (d = 1) or a float
    4 lambda Nk^2 (d = 2) puts such a point on the wrong side, as at Nk = 3."""
    ties = sorted({float(Fraction(sum(a * a for a in t), 4 * Nk * Nk))
                   for t in itertools.product(range(-5, 6), repeat=d)
                   if all((a - 1 + Nk % 2) % 2 == 0 for a in t)})
    got = free_lds(ties, Nk, d)
    assert got.tolist() == [_brute_free_count(lam, Nk, d) for lam in ties]
    assert spectral_function(ties, np.zeros(d), np.zeros(d), {}, 8, Nk,
                             d=d).tolist() == got.tolist()


def test_truncation_ceiling():
    with pytest.raises(TruncationCeiling):
        spectral_function(500.0, 0.0, 0.0, MATHIEU, 10, 64, d=1)


def test_points_and_ladder_checked(mathieu_oracle):
    """A point without exactly d finite coordinates, or a ladder that is
    empty or not finite, raises ValueError: spectral_function once evaluated
    [0.3, 5.0] at x = 0.3 and returned nan at a nan point.  A d outside
    {1, 2} raises before the free path, which would return the d = 2 count."""
    def bad(lam, x, y, d=1):
        with pytest.raises(ValueError):
            spectral_function(lam, x, y, MATHIEU if d == 1 else AXES2D, 30, 16, d=d)

    bad(100.0, [0.3, 5.0], [0.3, 5.0])
    bad(100.0, 0.3, [0.3, 5.0])
    bad(100.0, math.nan, 0.3)
    bad(100.0, 0.3, math.inf)
    bad(100.0, np.zeros(3), np.zeros(3), d=2)
    bad(100.0, np.zeros(2), [0.0, math.nan], d=2)
    bad([], 0.3, 0.3)
    bad([50.0, math.nan], 0.3, 0.3)
    with pytest.raises(NonLatticeFrequencies):
        spectral_function(4.0, np.zeros(3), np.zeros(3), {}, 8, 4, d=3)
    for lams, x, y in (([100.0, math.nan], 0.3, None), (100.0, math.inf, None),
                       (100.0, 0.3, math.nan), ([], 0.3, None)):
        with pytest.raises(ValueError):
            mathieu_oracle.evaluate(lams, x, y)


def test_monotone_in_lambda():
    lams = np.linspace(2.0, 80.0, 25)
    vals = spectral_function(lams, 0.2, 0.2, MATHIEU, 30, 256, d=1)
    assert (np.diff(vals) >= -1e-10).all()


def test_symmetry_and_reality():
    a = spectral_function(30.0, 0.1, 0.9, MATHIEU, 30, 256, d=1)
    b = spectral_function(30.0, 0.9, 0.1, MATHIEU, 30, 256, d=1)
    assert isinstance(a, float)
    assert abs(a - b) < 1e-12


def test_mcut_convergence():
    lam = 50.0
    v1 = spectral_function(lam, 0.3, 0.3, MATHIEU, 16, 512, d=1)
    v2 = spectral_function(lam, 0.3, 0.3, MATHIEU, 32, 512, d=1)
    assert abs(v1 - v2) < 1e-8


def test_oracle_consistent_with_midpoint():
    oracle = BlochOracle1D(MATHIEU, M_cut=30)
    lam = np.array([200.0])
    a = float(oracle.evaluate(lam, 0.4)[0])
    b = float(np.atleast_1d(spectral_function(lam, 0.4, 0.4, MATHIEU, 30, 4096, d=1))[0])
    assert abs(a - b) / a < 1e-3


def test_oracle_free_case_exact():
    oracle = BlochOracle1D({}, M_cut=60)
    lams = np.geomspace(50.0, 800.0, 6)
    vals = oracle.evaluate(lams, 0.0)
    assert np.max(np.abs(vals / (np.sqrt(lams) / math.pi) - 1)) < 1e-10


# b = 0.3 cos x + 0.1 cos 2x; its oracle is shared by the examples below
COS12 = {(1,): 0.15, (-1,): 0.15, (2,): 0.05, (-2,): 0.05}
COS12_LAMS = np.geomspace(60.0, 300.0, 6)


@pytest.fixture(scope="module")
def cos12_oracle():
    return BlochOracle1D(COS12, M_cut=40)


def _shifted(b, s):
    """bhat_s(theta) = bhat(theta) e^{i <theta, s>}, so b_s(x) = b(x + s), in
    any d; the coefficient at -theta is the exact conjugate of its partner."""
    out = {}
    for th, c in b.items():
        neg = tuple(-t for t in th)
        if th > neg:
            out[th] = c * np.exp(1j * sum(t * si for t, si in zip(th, np.atleast_1d(s))))
            out[neg] = np.conj(out[th])
    return out


@settings(max_examples=3, deadline=None)
@given(st.floats(0.01, 2 * math.pi), st.floats(0.0, 2 * math.pi),
       st.floats(0.0, 2 * math.pi))
@example(s=1e-300, x1=0.3, x2=2.0)
@example(s=1e-310, x1=0.3, x2=2.0)
def test_translation_covariance(cos12_oracle, s, x1, x2):
    """e^{b_s}_lambda(x, x) = e^b_lambda(x + s, x + s), through the oracle
    and the midpoint path, with complex Hermitian coefficients.  b is
    2pi-periodic, so s in (0, 2pi] covers every shift.  At s = 1e-300 and
    1e-310 each imaginary part is within eps |c|, so lattice_fourier makes
    the table real; complex fibers with subnormal entries once made one
    shifted oracle on COS12_LAMS about tenfold slower (0.74 s at s = 1e-300
    against 0.067 s at s = 0.7)."""
    shifted = BlochOracle1D(_shifted(COS12, s), M_cut=40)
    for x in (x1, x2):
        want = cos12_oracle.evaluate(COS12_LAMS, x + s)
        got = shifted.evaluate(COS12_LAMS, x)
        assert np.max(np.abs(got - want)) <= 1e-12
        want = spectral_function(COS12_LAMS, x + s, x + s, COS12, 40, 256)
        got = spectral_function(COS12_LAMS, x, x, _shifted(COS12, s), 40, 256)
        assert np.max(np.abs(got - want)) <= 1e-12


# -- BlochOracle1D properties (each tolerance measured before the oracle's
# real and tridiagonal paths and its crossing-band cache existed) -------------

POINT = st.floats(0.0, 2 * math.pi)
PROPERTY_LAMS = np.geomspace(50.0, 200.0, 6)
FREE_LAMS = np.geomspace(50.0, 800.0, 6)


@pytest.fixture(scope="module")
def mathieu_oracle():
    return BlochOracle1D(MATHIEU, M_cut=30)


@pytest.fixture(scope="module")
def free_oracles():
    return {Nh: BlochOracle1D({}, M_cut=60, Nh=Nh) for Nh in (16, 32, 64)}


@settings(max_examples=3, deadline=None)
@given(POINT, POINT)
def test_oracle_symmetric(mathieu_oracle, x, y):
    """e_lambda(x, y) = e_lambda(y, x); measured 0.0."""
    a = mathieu_oracle.evaluate(PROPERTY_LAMS, x, y)
    b = mathieu_oracle.evaluate(PROPERTY_LAMS, y, x)
    assert np.max(np.abs(a - b)) <= 1e-12


@settings(max_examples=3, deadline=None)
@given(POINT, st.floats(50.0, 150.0), st.floats(0.01, 4.0))
def test_oracle_monotone(mathieu_oracle, x, lam0, step):
    lams = lam0 + step * np.arange(12)
    assert (np.diff(mathieu_oracle.evaluate(lams, x)) >= 0).all()


@settings(max_examples=3, deadline=None)
@given(POINT, st.lists(st.floats(20.0, 850.0), min_size=1, max_size=6))
def test_oracle_free_diagonal(free_oracles, x, lams):
    lams = np.sort(lams)
    vals = free_oracles[32].evaluate(lams, x)
    assert np.max(np.abs(vals - np.sqrt(lams) / math.pi)) <= 1e-13


@settings(max_examples=3, deadline=None)
@given(POINT, st.floats(0.5, 3.0))
def test_oracle_free_offdiagonal_spectral(free_oracles, x, r):
    """Off the diagonal the complete bands' Gauss rule is at rounding from
    Nh = 16 on: against the exact d = 1 kernel sin(sqrt(lam) r) / (pi r) the
    error was 1.7e-15 at Nh = 8 to 64 (x = 0.3, y = 1.3).  The midpoint rule
    it replaced was O(Nh^-2) there: 6.8e-7, 1.7e-7 and 4.2e-8 at Nh = 64,
    128 and 256."""
    want = free_offdiagonal(FREE_LAMS, x, x + r, 1)
    for Nh, oracle in free_oracles.items():
        err = np.max(np.abs(oracle.evaluate(FREE_LAMS, x, x + r) - want))
        assert err <= 1e-13, (Nh, err)


@settings(max_examples=3, deadline=None)
@given(POINT)
def test_oracle_within_midpoint_jitter(mathieu_oracle, x):
    """The plain midpoint grid carries an O(1/N_k) error from the sharp
    eigenvalue cut; measured up to 0.147 / N_k on this ladder.  An odd N_k
    puts k = 0 on the grid, a point without a -k partner."""
    want = mathieu_oracle.evaluate(PROPERTY_LAMS, x)
    for Nk in (255, 256, 1024):
        got = spectral_function(PROPERTY_LAMS, x, x, MATHIEU, 30, Nk)
        assert np.max(np.abs(got - want)) <= 0.5 / Nk


@pytest.mark.parametrize("b", [MATHIEU, COS12])
def test_oracle_cache_deterministic(b):
    """The grid and the per-(band, lambda) crossing nodes an oracle keeps give
    the same bits as a fresh oracle's, and two fresh oracles agree bit for bit.
    The first warm-up ladder sits 1 below the second, mostly inside the same
    bands, so nodes kept for the wrong lambda would show."""
    def fresh():
        return BlochOracle1D(b, M_cut=30).evaluate(PROPERTY_LAMS, 1.1)

    warm = BlochOracle1D(b, M_cut=30)
    warm.evaluate(PROPERTY_LAMS - 1.0, 0.2)
    warm.evaluate(PROPERTY_LAMS, 0.2, 2.5)
    assert np.array_equal(fresh(), fresh())
    assert np.array_equal(warm.evaluate(PROPERTY_LAMS, 1.1), fresh())


def test_oracle_a3_pointwise():
    """The first term past a_2: on b = 0.4 cos x the residual
    R_2 = e_lambda(x, x) - sum_{j <= 2} is fitted by a_3 lambda^{-5/2} +
    a_4 lambda^{-7/2} on 24 rungs in [1e2, 3e3], and a_3 must be 3 u_3 / (8 pi)
    with u_3 = -b^3/6 + b b''/6 + b'^2/12 - b''''/60.  Measured within
    0.005 %, 0.006 % and 0.002 % at x = 0, pi/2 and pi; the midpoint grid
    the complete bands' Gauss rule replaced missed by 0.45 % at x = 0 and
    2.1 % at x = pi."""
    half = Fraction(1, 5)
    coeffs = coefficients_from_potential(
        TrigPotential.build(1, {(1,): half, (-1,): half}), 2)
    oracle = BlochOracle1D({(1,): float(half), (-1,): float(half)}, M_cut=120)
    lams = np.geomspace(1e2, 3e3, 24)
    basis = np.stack([lams ** -2.5, lams ** -3.5], axis=1)
    for x in (0.0, math.pi / 2, math.pi):
        R2 = oracle.evaluate(lams, x) - expansion_eval(coeffs, lams, [x], L=2)
        a3 = np.linalg.lstsq(basis, R2, rcond=None)[0][0]
        b, b1 = 0.4 * math.cos(x), -0.4 * math.sin(x)  # b'' = -b, b'''' = b
        u3 = -b ** 3 / 6 - b * b / 6 + b1 ** 2 / 12 - b / 60
        want = 3 * u3 / (8 * math.pi)
        assert abs(a3 / want - 1) <= 5e-4, (x, a3, want)


# -- d = 1 fiber solver routes ----------------------------------------------------


@st.composite
def banded_tables(draw, amp=0.5):
    """A real or complex Hermitian d = 1 table of half-bandwidth 1-3, with or
    without a constant term; each real and imaginary part within amp."""
    bw = draw(st.integers(1, 3))
    cplx = draw(st.booleans())
    part = st.floats(-amp, amp)
    table = {}
    for t in range(1, bw + 1):
        c = complex(draw(part), draw(part) if cplx else 0.0)
        table[(t,)], table[(-t,)] = c, c.conjugate()
    if draw(st.booleans()):
        table[(0,)] = complex(draw(part))
    return table


# k anywhere in [0, 1/2], or within 1e-6 of either end
FIBER_K = st.one_of(st.floats(0.0, 0.5), st.floats(1e-12, 1e-6).flatmap(
    lambda e: st.sampled_from([e, 0.5 - e])))


@settings(max_examples=60, deadline=None)
@given(banded_tables(), FIBER_K, st.integers(4, 80), st.floats(0.0, 1.0))
def test_eig_banded_routes_match_dense(table, k, M_cut, where):
    """Every _eig_banded_k route (the whole spectrum cut at emax, one
    eigenpair by index; values with or without vectors) against a dense eigh
    of the same fiber.

    Householder reduction to tridiagonal form and the tridiagonal solvers are
    backward stable: each solver's eigenvalues are exact for A + E with
    ||E||_2 <= n eps ||A||_2 to first order (Demmel, Applied Numerical Linear
    Algebra, sections 5.2-5.3), so by Weyl's inequality and ||A||_2 <= ||A||_1
    two solvers agree within tol = 2 n eps ||A||_1 (5.8e-10 at n = 161).  The
    complex pentadiagonal fiber at M_cut = 76, k = 0 shows the scale: against
    a 40-digit reference the banded solvers are off by 2.7e-11 near E = 5,300
    and a dense eigh by 8e-12.  By Davis-Kahan an eigenvector with gap g to
    the rest of the spectrum turns by at most tol / g, and
    1 - |<v, v_dense>| <= (tol / g)^2 / 2 <= 1e-10 once g >= 1e5 tol; only
    eigenvectors so separated are compared (at k = 0 and 1/2 the high bands
    pair up within rounding and their eigenvectors are not determined)."""
    four = lattice_fourier(table, 1)
    ms, bw = _banded_rep(four, M_cut)
    A = build_fiber(k, table, M_cut).matrix
    W, V = np.linalg.eigh(A)
    tol = 2 * ms.size * np.finfo(float).eps * np.abs(A).sum(axis=0).max()
    gaps = np.diff(W)
    gap = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))

    def assert_vectors(v, cols):
        for j, col in zip(cols, v.T):
            if gap[j] >= 1e5 * tol:
                assert abs(np.vdot(V[:, j], col)) >= 1 - 1e-10, (j, gap[j])

    index = min(int(where * ms.size), ms.size - 1)
    w, v = _eig_banded_k(k, ms, four, bw, index=index)
    assert w.shape == (1,) and abs(w[0] - W[index]) <= tol
    assert_vectors(v, [index])
    w_only, none = _eig_banded_k(k, ms, four, bw, index=index, vectors=False)
    assert none is None and abs(w_only[0] - W[index]) <= tol

    # emax halfway from the index-th eigenvalue to the next, or above them all
    emax = W[index] + (gaps[index] / 2 if index < gaps.size else 1.0)
    if np.abs(W - emax).min() > tol:  # the count below emax is then determined
        w, v = _eig_banded_k(k, ms, four, bw, emax=emax)
        kept = int((W <= emax).sum())
        assert w.size == v.shape[1] == kept
        assert np.max(np.abs(w - W[:kept]), initial=0.0) <= tol
        assert_vectors(v, range(kept))
        w_only, none = _eig_banded_k(k, ms, four, bw, emax=emax, vectors=False)
        assert none is None and w_only.size == kept
        assert np.max(np.abs(w_only - W[:kept]), initial=0.0) <= tol


# -- the crossing band's Gauss-node vectors ---------------------------------------


def _per_node(oracle):
    """The oracle with every Gauss-node vector solved by index, one LAPACK
    call per node: the route the batched inverse iteration replaced."""
    oracle._node_vectors = lambda n, nodes: _support_windows(np.array(
        [_eig_banded_k(float(k), oracle.ms, oracle.four, oracle.bw, index=n)[1][:, 0]
         for k in nodes]).T)
    return oracle


def _padded(start, V, size):
    """Support windows back as whole vectors over ms, one column each, zero
    outside each window."""
    out = np.zeros((size, V.shape[1]), dtype=V.dtype)
    for c, s in enumerate(start):
        out[s:s + V.shape[0], c] = V[:, c]
    return out


def _assert_nodes_match_index_solves(oracle):
    """Every kept crossing-band node vector is the eigenvector that the solve
    by index gives, up to phase."""
    for (n, lam), (halfw, nodes, windows) in oracle._crossing.items():
        if not halfw:
            continue
        for k, v in zip(nodes, _padded(*windows, oracle.ms.size).T):
            ref = _eig_banded_k(float(k), oracle.ms, oracle.four, oracle.bw, index=n)[1][:, 0]
            assert abs(np.vdot(ref, v)) >= 1 - 1e-12, (n, lam, k)


@pytest.fixture
def fallbacks(monkeypatch):
    """The k of every eigenvector solved by index from here on: the crossing
    point's Brent root finder asks for values only, so these are the nodes
    whose certificate failed."""
    import spectra_lab.bloch as bloch

    ks, solve = [], bloch._eig_banded_k

    def counted(k, *args, **kw):
        if kw.get("index") is not None and kw.get("vectors", True):
            ks.append(k)
        return solve(k, *args, **kw)

    monkeypatch.setattr(bloch, "_eig_banded_k", counted)
    return ks


@settings(max_examples=20, deadline=None)
@given(banded_tables(1.5), st.integers(10, 40), st.floats(0.0, 1.0),
       st.lists(st.floats(0.02, 0.9), min_size=1, max_size=3), POINT)
def test_node_vectors_match_index_solves(table, M_cut, y, fracs, x):
    """The batched, certified node vectors against one solve by index per
    node, on tables strong enough that some certificates fail (103 of the
    1,344 nodes these examples solve): each vector within
    1 - |<v, v_ref>| <= 1e-12, and evaluate within 1e-13 of the per-node
    route (measured worst 5.8e-15 over 40 further tables)."""
    lams = np.sort(np.array(fracs)) * (M_cut / 2) ** 2
    oracle = BlochOracle1D(table, M_cut=M_cut)
    got = oracle.evaluate(lams, x, x + y)
    _assert_nodes_match_index_solves(oracle)
    want = _per_node(BlochOracle1D(table, M_cut=M_cut)).evaluate(lams, x, x + y)
    assert np.max(np.abs(got - want)) <= 1e-13


# b = 2.42 cos x + 0.8 cos 2x + 0.98 cos 3x: low bands whose nodes near a zone
# edge are not converged after two steps at these rungs
STRONG = {(1,): 1.21, (-1,): 1.21, (2,): 0.40, (-2,): 0.40, (3,): 0.49, (-3,): 0.49}
STRONG_LAMS = np.array([12.5, 16.2, 20.6])


def test_node_certificate_fails_and_falls_back(fallbacks):
    """On STRONG at M_cut 62, 29 of these rungs' 144 nodes fail their
    certificate (residual up to ~1e-6 after two steps) and take the solve by
    index; the values still match the per-node route."""
    oracle = BlochOracle1D(STRONG, M_cut=62)
    got = oracle.evaluate(STRONG_LAMS, 0.3, 1.1)
    assert fallbacks, "no certificate failed: the case no longer tests the fallback"
    _assert_nodes_match_index_solves(oracle)
    want = _per_node(BlochOracle1D(STRONG, M_cut=62)).evaluate(STRONG_LAMS, 0.3, 1.1)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_node_certificate_rejects_other_band(fallbacks):
    """Start every node from a neighbouring band's grid data: inverse
    iteration then converges to that band, with a small residual, and only
    the certificate's window, band n's own edges, sends the node to the
    solve by index.  Every crossing interval ends at the zone end where
    band n meets band n - 1, so there band n - 1's energies come within the
    gap of band n's bottom."""
    oracle = BlochOracle1D(COS12, M_cut=40)
    oracle.evaluate([300.0], 0.0)
    e0, eh = oracle._edges
    n = int(np.searchsorted(np.maximum(e0, eh), 150.0))
    lo = min(e0[n], eh[n])
    grid = oracle._grid_spec
    # mid-band, and 1e-7 above the bottom, where every node is near that end
    for lam, other in itertools.product((150.0, lo + 1e-7), (n - 1, n + 1)):
        cols = np.arange(oracle._nbands)
        cols[n] = other
        oracle._grid_spec = [(w[cols], start[cols], V[:, cols]) for w, start, V in grid]
        oracle._crossing.clear()
        fallbacks.clear()
        halfw, nodes, vecs = oracle._crossing_nodes(n, lam)
        assert len(fallbacks) >= nodes.size // 2, (lam, other, len(fallbacks))
        _assert_nodes_match_index_solves(oracle)


# -- eigenvectors kept as support windows --------------------------------------


@settings(max_examples=40, deadline=None)
@given(banded_tables(1.5), FIBER_K, st.integers(4, 120), POINT)
def test_window_amplitude_matches_whole_vector(table, k, M_cut, x):
    """The amplitude of every eigenvector kept as its support window against
    the whole vector's: within (n - W) tau, tau = _WINDOW_EPS / n, plus the
    rounding of the two sums.  Each sum of n terms rounds by at most
    n eps sum |v_m| (1 + |(k + m) x|) here: a phase (k + m) x carries its
    own rounding into the cosine and sine."""
    four = lattice_fourier(table, 1)
    ms, bw = _banded_rep(four, M_cut)
    n = ms.size
    _, v = _eig_banded_k(k, ms, four, bw)
    start, V = _support_windows(v)
    assert V.shape[0] <= n and (start >= 0).all() and (start + V.shape[0] <= n).all()
    dropped = v - _padded(start, V, n)
    assert np.abs(dropped).max() <= _WINDOW_EPS / n
    got = _window_amp(k + ms[start], V, x)
    want = _wave_amp(v, (k + ms) * x)
    eps = np.finfo(float).eps
    rounding = n * eps * (np.abs(v) * (1 + np.abs((k + ms) * x))[:, None]).sum(axis=0)
    assert (np.abs(got - want) <= (n - V.shape[0]) * _WINDOW_EPS / n + rounding).all()


def test_oracle_holds_windows_not_vectors():
    """After one evaluate at lambda = 1e4 on bhat(+-1) = 0.23 at M_cut 220
    (perfbench oracle_ladder's tridiagonal fiber at seed 31337), the oracle
    holds its grid and crossing-band windows: 1.26 MB measured on the 32
    Gauss nodes (4.9 MB on the 128 midpoints before them), where the whole
    grid eigenvectors held 93.0 MB on the midpoints."""
    tracemalloc.start()
    try:
        oracle = BlochOracle1D({(1,): 0.23, (-1,): 0.23}, M_cut=220)
        oracle.evaluate([1e4], 0.0)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 3e6, held


# oracle_ladder's inputs: tridiagonal fibers at M_cut 220 on [1e2, 1e4] and
# pentadiagonal ones at M_cut 64 on [1e2, 1e3] (perfbench seeds 31337, 7919
# and 11), then b = 2 cos x at M_cut 60 and b = 0.24 cos x at low rungs,
# where whole vectors sent one node and two nodes near k = 1/2 to the solve
# by index
WINDOW_CASES = [
    ({1: 0.23}, 220, (1e2, 1e4, 24), []),
    ({1: 0.18}, 220, (1e2, 1e4, 24), []),
    ({1: 0.12}, 220, (1e2, 1e4, 24), []),
    ({1: 0.15, 2: 0.05}, 64, (1e2, 1e3, 12), []),
    ({1: 0.19, 2: 0.12}, 64, (1e2, 1e3, 12), []),
    ({1: 0.12, 2: 0.13}, 64, (1e2, 1e3, 12), []),
    ({1: 1.0}, 60, (10.0, 800.0, 12), [9.46839076977346e-05]),
    ({1: 0.12}, 220, (3.0, 30.0, 12), [0.49985787107316965, 0.4997403043781765]),
]


@pytest.mark.parametrize("half, M_cut, ladder, want", WINDOW_CASES)
def test_windowed_starts_fall_back_as_whole_vectors(fallbacks, half, M_cut,
                                                    ladder, want):
    """Starting inverse iteration from a grid window padded with zeros sends
    the same Gauss nodes to the solve by index as starting from the whole
    grid eigenvector did, at x = 0, pi/2, pi and (0.3, 1.3)."""
    table = {(s * t,): c for t, c in half.items() for s in (1, -1)}
    oracle = BlochOracle1D(table, M_cut=M_cut)
    lams = np.geomspace(*ladder)
    for x, y in ((0.0, 0.0), (math.pi / 2, math.pi / 2), (math.pi, math.pi), (0.3, 1.3)):
        oracle.evaluate(lams, x, y)
    assert fallbacks == want


# b = 0.24 cos x: rungs one ulp and 1e-11 inside a band edge made the Brent
# root finder raise "f(a) and f(b) must have different signs" at these bands
EDGE_TABLE = {(1,): 0.12, (-1,): 0.12}
EDGE_BANDS = (5, 40, 80)


def test_oracle_rungs_at_band_edges():
    """A crossing within 1e-12 of 0 or 1/2 counts band n as empty or whole.
    From one ulp to 1e-10 above a bottom edge the value rises by at most
    1e-9, and from 1e-10 below a top edge to one ulp below it by at most
    1e-10.  Across a top edge, 1e-11 to either side, the band goes from its
    crossing Gauss rule to the complete bands' rule.  Where the gap above
    the band is tiny the value may fall there (2.2e-9 at band 5's top,
    measured; 7.4e-9 on the midpoint grid before the Gauss rule), so that
    step is bounded by 1e-8; at bands 40 and 80 it was 0 (-4.4e-13 and
    -2.7e-14 on the midpoint grid), and must not fall."""
    oracle = BlochOracle1D(EDGE_TABLE, M_cut=220)
    ms, bw = _banded_rep(oracle.four, 220)
    e0 = _eig_banded_k(0.0, ms, oracle.four, bw, vectors=False)[0]
    eh = _eig_banded_k(0.5, ms, oracle.four, bw, vectors=False)[0]
    for n in EDGE_BANDS:
        lo, hi = min(e0[n], eh[n]), max(e0[n], eh[n])
        bottom = oracle.evaluate([lo - 1e-11, np.nextafter(lo, np.inf), lo + 1e-11,
                                  lo + 1e-10], 0.0)
        top = oracle.evaluate([hi - 1e-10, hi - 1e-11, np.nextafter(hi, -np.inf),
                               hi + 1e-11], 0.0)
        assert (np.diff(bottom[1:]) >= 0).all() and bottom[3] - bottom[1] <= 1e-9, n
        assert (np.diff(top[:3]) >= 0).all() and top[2] - top[0] <= 1e-10, n
        assert abs(bottom[1] - bottom[0]) <= 1e-8 and abs(top[3] - top[2]) <= 1e-8, n
        if n >= 40:
            assert top[3] - top[2] >= -1e-14, n


def test_sizes_checked():
    """M_cut, Nk, Nh and gauss_nodes must be positive integers: M_cut 30.7
    once gave 2.2151 where M_cut 30 gives 2.2378 (the index set became
    -30.7, -29.7, ...), and Nh = 0, Nk = 0 or a d = 2 Nk of 7.5 failed deep
    inside with an unrelated error."""
    for kw in ({"M_cut": 30.7}, {"M_cut": True}, {"M_cut": 0}, {"Nh": 0},
               {"Nh": 128.0}, {"gauss_nodes": 0}, {"gauss_nodes": 48.5}):
        with pytest.raises(ValueError, match="positive integer"):
            BlochOracle1D(MATHIEU, **{"M_cut": 30, **kw})
    for M_cut, Nk, d in ((30.7, 256, 1), (30, 256.5, 1), (30, 0, 1), (30, True, 1),
                         (8, 7.5, 2), (-8, 4, 2)):
        with pytest.raises(ValueError, match="positive integer"):
            spectral_function(50.0, np.full(d, 0.3), np.full(d, 0.3),
                              MATHIEU if d == 1 else AXES2D, M_cut, Nk, d=d)
    assert BlochOracle1D(MATHIEU, M_cut=np.int64(30), Nh=np.int32(16)).Nh == 16
    assert spectral_function(50.0, 0.3, 0.3, MATHIEU, np.int64(30), 64) == \
        spectral_function(50.0, 0.3, 0.3, MATHIEU, 30, 64)


# -- d = 2 midpoint ---------------------------------------------------------------

AXES2D_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "axes2d.json")
# the sizes perfbench's cli_sweep runs the d = 2 bloch and compare at
AXES2D_REDUCED = {"M_cut": 8, "N_k": 8, "ladder": {"min": 2.0, "max": 16.0, "count": 8}}
AXES2D_LAMS = np.geomspace(2.0, 16.0, 8)
AXES2D = {(1, 0): 0.3, (-1, 0): 0.3, (0, 1): 0.25, (0, -1): 0.25}


def separable_midpoint_d2(lams, x, y, a, c, M_cut, Nk):
    """The plain-midpoint d = 2 e_lambda(x, y) for bhat(+-e1) = a and
    bhat(+-e2) = c.  On the square index set the fiber is
    H1(k1) (x) I + I (x) H2(k2), so its eigenpairs are the sums E1_i + E2_j
    of d = 1 energies, with amplitudes u1_i(x1) u2_j(x2)."""
    ms = np.arange(-M_cut, M_cut + 1)
    ks = (np.arange(Nk) + 0.5) / Nk - 0.5
    off = np.eye(ms.size, k=1) + np.eye(ms.size, k=-1)

    def fibers(coef, xc, yc):
        out = []
        for k in ks:
            E, U = np.linalg.eigh(np.diag((k + ms) ** 2) + coef * off)
            out.append((E, np.exp(1j * (k + ms) * xc) @ U,
                        np.exp(1j * (k + ms) * yc) @ U))
        return out

    acc = np.zeros(lams.shape)
    for E1, ux1, uy1 in fibers(a, x[0], y[0]):
        for E2, ux2, uy2 in fibers(c, x[1], y[1]):
            w = np.add.outer(E1, E2).ravel()
            contrib = (np.outer(ux1, ux2) * np.conj(np.outer(uy1, uy2))).real.ravel()
            acc += 0.5 * _fermi_sums(w, contrib, lams)
    return acc / Nk ** 2 / (2 * math.pi) ** 2


@pytest.mark.parametrize("Nk", [7, 8])
@pytest.mark.parametrize("y", [(0.0, 0.0), (0.7, -0.4)])
def test_midpoint_d2_separable(Nk, y):
    """The d = 2 midpoint against the double sum over d = 1 eigenpairs, on the
    reduced axes2d potential and at b = 0; an odd N_k puts k = 0 on the grid."""
    x = np.zeros(2)
    for a, c, b in ((0.3, 0.25, AXES2D), (0.0, 0.0, {})):
        want = separable_midpoint_d2(AXES2D_LAMS, x, y, a, c, 8, Nk)
        got = spectral_function(AXES2D_LAMS, x, np.array(y), b, 8, Nk, d=2)
        assert np.max(np.abs(got - want)) <= 1e-12, (a, c)


# a table with the off-axis theta +-(1, 1), its ladder and its point pairs
DIAGONAL_D2 = {(1, 0): 0.2, (-1, 0): 0.2, (0, 1): 0.15, (0, -1): 0.15,
               (1, 1): 0.1, (-1, -1): 0.1}
DIAGONAL_D2_LAMS = np.geomspace(2.0, 9.0, 5)
DIAGONAL_D2_PAIRS = (((0.3, 1.1), (0.3, 1.1)), ((0.3, 1.1), (1.2, -0.5)))


def dense_midpoint_d2(lams, x, y, b, M_cut, Nk):
    """The plain-midpoint d = 2 e_lambda(x, y) from build_fiber's dense fiber
    and np.linalg.eigh at every point of the grid: no Kronecker identity and
    no k <-> -k pairing."""
    ks = (np.arange(Nk) + 0.5) / Nk - 0.5
    acc = np.zeros(lams.shape)
    for k in itertools.product(ks, repeat=2):
        fib = build_fiber(np.array(k), b, M_cut, d=2)
        E, U = np.linalg.eigh(fib.matrix)
        km = np.array(fib.indices) + k
        ux, uy = np.exp(1j * (km @ x)) @ U, np.exp(1j * (km @ y)) @ U
        acc += 0.5 * _fermi_sums(E, (ux * np.conj(uy)).real, lams)
    return acc / Nk ** 2 / (2 * math.pi) ** 2


@st.composite
def axis_tables(draw):
    """A real or complex Hermitian d = 2 table with every theta on an axis,
    of half-bandwidth 1-2 per axis, with or without a constant term."""
    cplx = draw(st.booleans())
    part = st.floats(-0.5, 0.5)
    table = {}
    for e in ((1, 0), (0, 1)):
        for t in range(1, draw(st.integers(1, 2)) + 1):
            c = complex(draw(part), draw(part) if cplx else 0.0)
            table[(t * e[0], t * e[1])], table[(-t * e[0], -t * e[1])] = c, c.conjugate()
    if draw(st.booleans()):
        table[(0, 0)] = complex(draw(part))
    return table


@settings(max_examples=25, deadline=None)
@given(axis_tables(), st.integers(4, 6), st.integers(3, 6),
       st.tuples(POINT, POINT), st.one_of(st.none(), st.tuples(POINT, POINT)))
def test_midpoint_d2_separable_matches_dense(table, M_cut, Nk, x, y):
    """The separable d = 2 route against dense fibers, on and off the
    diagonal (y None is y = x); the ladder stays under the ceiling
    (M_cut / 2)^2."""
    x = np.array(x)
    y = x if y is None else np.array(y)
    lams = np.geomspace(0.6, 0.95 * (M_cut / 2) ** 2, 6)
    got = spectral_function(lams, x, y, table, M_cut, Nk, d=2)
    want = dense_midpoint_d2(lams, x, y, table, M_cut, Nk)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_midpoint_d2_translation_covariance():
    """e^{b_s}_lambda(x, y) = e^b_lambda(x + s, y + s) in d = 2, through the
    complex fiber: b has +-e1, +-e2 and +-(1, 1)."""
    s = np.array([0.7, -1.9])
    for x, y in DIAGONAL_D2_PAIRS:
        x, y = np.array(x), np.array(y)
        want = spectral_function(DIAGONAL_D2_LAMS, x + s, y + s, DIAGONAL_D2, 6, 4, d=2)
        got = spectral_function(DIAGONAL_D2_LAMS, x, y, _shifted(DIAGONAL_D2, s),
                                6, 4, d=2)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_nearby_points_not_merged():
    """x and y 9e-4 apart are two points, not one (np.allclose would merge
    them): e_lambda(x, y) matches the pair translated to the origin, with b
    translated too, in d = 1 at b = 0 and in d = 2 on the axes2d b."""
    x, y = 100.0, 100.0009
    got = spectral_function(400.0, x, y, {}, 60, 256)
    assert abs(got - spectral_function(400.0, 0.0, y - x, {}, 60, 256)) <= 1e-9
    assert abs(got - spectral_function(400.0, x, x, {}, 60, 256)) > 1e-4
    x, y = np.array([100.0, 0.0]), np.array([100.0009, 0.0])
    got = spectral_function(AXES2D_LAMS, x, y, AXES2D, 8, 4, d=2)
    want = spectral_function(AXES2D_LAMS, np.zeros(2), y - x, _shifted(AXES2D, x),
                             8, 4, d=2)
    assert np.max(np.abs(got - want)) <= 1e-9
    assert np.max(np.abs(got - spectral_function(AXES2D_LAMS, x, x, AXES2D, 8, 4,
                                                 d=2))) > 1e-6


def _check_cli_bloch_compare_axes2d(tmp_path, sizes, lams, M_cut, Nk):
    """bloch and compare on axes2d with sizes overriding the shipped config:
    one row per rung, the bloch CSV matches the separable reference, and
    compare's N_oracle is the same midpoint."""
    from spectra_lab.cli import main

    with open(AXES2D_JSON) as fh:
        cfg = dict(json.load(fh), **sizes)
    cfg_path = str(tmp_path / "axes2d.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    rows = {}
    for cmd in ("bloch", "compare"):
        out = str(tmp_path / (cmd + ".csv"))
        assert main([cmd, "--config", cfg_path, "--out", out]) == 0
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1 + len(lams)
        header = lines[0].split(",")
        rows[cmd] = [dict(zip(header, line.split(","))) for line in lines[1:]]
    want = separable_midpoint_d2(lams, np.zeros(2), np.zeros(2), 0.3, 0.25, M_cut, Nk)
    got = np.array([float(r["e_lambda"]) for r in rows["bloch"]])
    assert np.max(np.abs(got - want)) <= 1e-12
    assert [r["lambda"] for r in rows["compare"]] == [r["lambda"] for r in rows["bloch"]]
    for r, e in zip(rows["compare"], got):
        assert float(r["N_oracle"]) == e
        assert abs(float(r["R_0"]) - (e - float(r["N_expansion_L0"]))) <= 1e-12


def test_cli_bloch_compare_axes2d(tmp_path):
    """The reduced axes2d config (perfbench's cli_sweep sizes)."""
    _check_cli_bloch_compare_axes2d(tmp_path, AXES2D_REDUCED, AXES2D_LAMS, 8, 8)


def test_cli_bloch_compare_axes2d_full(tmp_path):
    """The shipped configs/axes2d.json at full size: M_cut 16, N_k 128 and
    12 rungs on [10, 60]."""
    _check_cli_bloch_compare_axes2d(tmp_path, {}, np.geomspace(10.0, 60.0, 12), 16, 128)


# -- golden values: d = 1 oracle and the reduced mathieu bloch/compare CSVs ------

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "oracle_d1.json")
MATHIEU_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                            "mathieu.json")
# the sizes perfbench's cli_sweep runs bloch and compare at
REDUCED = {"M_cut": 60, "N_k": 256, "ladder": {"min": 100.0, "max": 800.0, "count": 12}}
GOLDEN_POINTS = [(0.0, 0.0), (math.pi / 2, math.pi / 2), (math.pi, math.pi), (0.3, 1.3)]
EXACT_COLUMNS = {"lambda", "x", "y", "N_k", "M_cut"}
GOLDEN_TOL = 1e-12


def golden_oracle_d1(tmp_dir):
    """Everything tests/golden/oracle_d1.json holds, computed afresh."""
    lams = np.geomspace(100.0, 800.0, 12)
    oracle = BlochOracle1D({(1,): 0.2, (-1,): 0.2}, M_cut=60)
    points = [{"x": x, "y": y, "values": oracle.evaluate(lams, x, y).tolist()}
              for x, y in GOLDEN_POINTS]
    return {"lambda": lams.tolist(), "oracle": points,
            "csv": _golden_csvs(MATHIEU_JSON, REDUCED, tmp_dir)}


def _golden_csvs(config, sizes, tmp_dir):
    """The bloch and compare CSVs, at --seed 11, of the config file with the
    sizes overriding its own."""
    from spectra_lab.cli import main

    with open(config) as fh:
        cfg = dict(json.load(fh), **sizes)
    cfg_path = os.path.join(tmp_dir, "reduced_" + os.path.basename(config))
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    csv = {}
    for cmd in ("bloch", "compare"):
        out = os.path.join(tmp_dir, cmd + ".csv")
        assert main([cmd, "--config", cfg_path, "--out", out, "--seed", "11"]) == 0
        with open(out) as fh:
            csv[cmd] = fh.read()
    return csv


def _assert_csv_matches(got, want, cmd):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert got_lines[0] == want_lines[0] and len(got_lines) == len(want_lines), cmd
    header = want_lines[0].split(",")
    for g_line, w_line in zip(got_lines[1:], want_lines[1:]):
        g_cells, w_cells = g_line.split(","), w_line.split(",")
        assert len(g_cells) == len(w_cells) == len(header), cmd
        for col, g, w in zip(header, g_cells, w_cells):
            if col in EXACT_COLUMNS:
                assert g == w, "%s.%s: %s != %s" % (cmd, col, g, w)
            else:
                assert abs(float(g) - float(w)) <= GOLDEN_TOL, \
                    "%s.%s: %s != %s" % (cmd, col, g, w)


def test_oracle_d1_golden(tmp_path):
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = golden_oracle_d1(str(tmp_path))
    assert got["lambda"] == want["lambda"]
    assert len(got["oracle"]) == len(want["oracle"])
    for g, w in zip(got["oracle"], want["oracle"]):
        assert (g["x"], g["y"]) == (w["x"], w["y"])
        assert np.max(np.abs(np.array(g["values"]) - w["values"])) <= GOLDEN_TOL
    for cmd in ("bloch", "compare"):
        _assert_csv_matches(got["csv"][cmd], want["csv"][cmd], cmd)


# -- golden values: the banded and complex d = 1 oracle fibers -------------------

GOLDEN_BANDED = os.path.join(os.path.dirname(__file__), "golden",
                             "oracle_banded.json")
# (name, {theta: coefficient}, M_cut, ladder): a real pentadiagonal fiber, a
# bandwidth-3 fiber with a constant term, and a complex Hermitian fiber; each
# ladder stays under its ceiling (M_cut / 2)^2
BANDED_CASES = [
    ("penta", {1: 0.2, -1: 0.2, 2: 0.1, -2: 0.1}, 64, (100.0, 1000.0)),
    ("bw3_const", {0: 0.1, 1: 0.2, -1: 0.2, 3: 0.07, -3: 0.07}, 60, (100.0, 800.0)),
    ("complex", {1: 0.1 + 0.05j, -1: 0.1 - 0.05j, 2: 0.03j, -2: -0.03j}, 40,
     (50.0, 350.0)),
]


def golden_oracle_banded():
    """Everything tests/golden/oracle_banded.json holds, computed afresh:
    BlochOracle1D.evaluate on a 12-rung ladder at GOLDEN_POINTS per case."""
    out = []
    for name, b, m_cut, (lo, hi) in BANDED_CASES:
        lams = np.geomspace(lo, hi, 12)
        oracle = BlochOracle1D({(t,): c for t, c in b.items()}, M_cut=m_cut)
        points = [{"x": x, "y": y, "values": oracle.evaluate(lams, x, y).tolist()}
                  for x, y in GOLDEN_POINTS]
        out.append({"name": name, "M_cut": m_cut, "lambda": lams.tolist(),
                    "oracle": points})
    return out


def test_oracle_banded_golden():
    with open(GOLDEN_BANDED) as fh:
        want = json.load(fh)
    got = golden_oracle_banded()
    assert [g["name"] for g in got] == [w["name"] for w in want]
    for g_case, w_case in zip(got, want):
        assert g_case["lambda"] == w_case["lambda"]
        assert g_case["M_cut"] == w_case["M_cut"]
        for g, w in zip(g_case["oracle"], w_case["oracle"], strict=True):
            assert (g["x"], g["y"]) == (w["x"], w["y"])
            err = np.max(np.abs(np.array(g["values"]) - w["values"]))
            assert err <= GOLDEN_TOL, (g_case["name"], g["x"], g["y"], err)


# -- golden values: the d = 2 midpoint ---------------------------------------------

GOLDEN_D2 = os.path.join(os.path.dirname(__file__), "golden", "midpoint_d2.json")
NEARBY_D2 = np.array([100.0, 0.0]), np.array([100.0009, 0.0])


def golden_midpoint_d2(tmp_dir):
    """Everything tests/golden/midpoint_d2.json holds, computed afresh: the
    reduced axes2d bloch and compare CSVs, and spectral_function at d = 2 on
    test_nearby_points_not_merged's shifted axes2d table, at b = 0 off the
    diagonal and on the +-(1, 1) table."""
    x, y = NEARBY_D2
    # (name, table, x, y, M_cut, N_k, ladder)
    cases = [("shifted_axes2d", _shifted(AXES2D, x), np.zeros(2), y - x, 8, 4,
              AXES2D_LAMS)]
    cases += [("free_off_diagonal_nk%d" % nk, {}, np.zeros(2), np.array([0.7, -0.4]),
               8, nk, AXES2D_LAMS) for nk in (7, 8)]
    cases += [("diagonal_11_%s" % name, DIAGONAL_D2, np.array(p), np.array(q), 6, 4,
               DIAGONAL_D2_LAMS)
              for name, (p, q) in zip(("on", "off"), DIAGONAL_D2_PAIRS)]
    values = [{"name": name, "x": p.tolist(), "y": q.tolist(), "M_cut": m_cut,
               "N_k": nk, "lambda": lams.tolist(),
               "values": spectral_function(lams, p, q, b, m_cut, nk, d=2).tolist()}
              for name, b, p, q, m_cut, nk, lams in cases]
    return {"csv": _golden_csvs(AXES2D_JSON, AXES2D_REDUCED, tmp_dir),
            "values": values}


def test_midpoint_d2_golden(tmp_path):
    with open(GOLDEN_D2) as fh:
        want = json.load(fh)
    got = golden_midpoint_d2(str(tmp_path))
    for cmd in ("bloch", "compare"):
        _assert_csv_matches(got["csv"][cmd], want["csv"][cmd], cmd)
    for g, w in zip(got["values"], want["values"], strict=True):
        assert {k: g[k] for k in g if k != "values"} == \
            {k: w[k] for k in w if k != "values"}
        err = np.max(np.abs(np.array(g["values"]) - w["values"]))
        assert err <= GOLDEN_TOL, (g["name"], err)


if __name__ == "__main__":
    # Regenerate golden files: PYTHONPATH=src python tests/test_bloch.py [NAME ...]
    # with NAME in {oracle_d1, oracle_banded, midpoint_d2}; no NAME regenerates
    # all three
    import sys
    import tempfile

    def in_tmp(make):
        def payload():
            with tempfile.TemporaryDirectory() as tmp:
                return make(tmp)
        return payload

    makers = {"oracle_d1": (GOLDEN, in_tmp(golden_oracle_d1)),
              "oracle_banded": (GOLDEN_BANDED, golden_oracle_banded),
              "midpoint_d2": (GOLDEN_D2, in_tmp(golden_midpoint_d2))}
    for name in sys.argv[1:] or list(makers):
        path, make = makers[name]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(make(), fh, indent=1, sort_keys=True)
            fh.write("\n")
