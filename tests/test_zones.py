import json
import math
import os
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spectra_lab import zones
from spectra_lab.errors import CapExceeded, ClassBoundExceeded, ZeroFrequency
from spectra_lab.frequency import (FrequencySet, GeneratorBasis, algebraic_sum,
                                   freq)
from spectra_lab.zones import (ZoneGeometry, ZoneParameters, default_alpha,
                               in_lambda, sample_annulus)


@pytest.fixture(scope="module")
def zp2():
    return ZoneParameters.create(1000.0, 2)


@pytest.fixture(scope="module")
def zp1():
    return ZoneParameters.create(1000.0, 1)


@pytest.fixture(scope="module")
def theta2(axes2d):
    return algebraic_sum(axes2d, 2)


@pytest.fixture(scope="module")
def geom2(theta2, zp2):
    return ZoneGeometry(theta2, zp2)


@pytest.fixture(scope="module")
def geom1(mathieu1d, zp1):
    return ZoneGeometry(mathieu1d, zp1)


@pytest.fixture(scope="module")
def axes_geom(axes2d, zp2):
    return ZoneGeometry(axes2d, zp2)


def _surd_set():
    """{e1, e2, (1/2, sqrt(2)/3)} in d = 2."""
    b2 = GeneratorBasis(2)
    return FrequencySet.build(2, b2, [freq([1, 0], b2), freq([0, 1], b2),
                                      freq([(Fraction(1, 2), 0), (0, Fraction(1, 3))], b2)])


def test_default_alpha_valid():
    for d in (1, 2, 3):
        a = default_alpha(d)
        assert all(a[i] < a[i + 1] for i in range(d - 1))
        assert a[-1] < 1.0 / (2 * d)


def test_zone_parameters_validation():
    with pytest.raises(ValueError):
        ZoneParameters.create(1000.0, 2, alpha=[0.2, 0.1])
    with pytest.raises(ValueError):
        ZoneParameters.create(1000.0, 2, alpha=[0.1, 0.3])  # 0.3 >= 1/4


def test_in_lambda_examples(rational_basis, zp2, zp1):
    e2 = freq([0, 1], rational_basis)
    assert in_lambda(e2, np.array([500.0, 0.0]), zp2)
    one = freq([1], rational_basis)
    assert not in_lambda(one, np.array([1000.0]), zp1)
    e1 = freq([1, 0], rational_basis)
    # boundary inclusive
    assert in_lambda(e1, np.array([zp2.L(1), 0.0]), zp2)
    with pytest.raises(ZeroFrequency):
        in_lambda(freq([0, 0], rational_basis), np.array([1.0, 0.0]), zp2)


def test_classify_d1_nonresonant(geom1):
    label = geom1.classify_point(np.array([900.0]))
    assert label.dim == 0


def test_classify_axis_slab(geom2, rational_basis):
    label = geom2.classify_point(np.array([1000.0, 0.0]))
    assert label.dim == 1
    e2 = freq([0, 1], rational_basis)
    assert label.subspace.contains_vector(e2.components())


def test_classify_origin(geom2):
    assert geom2.classify_point(np.zeros(2)).dim == 2


def test_congruence_nonresonant_singleton(geom2):
    xi = np.array([700.0, 600.0])
    assert geom2.classify_point(xi).dim == 0
    cls = geom2.congruence_class(xi)
    assert len(cls) == 1
    assert np.allclose(cls.points[0], xi)


def test_congruence_one_line_closure(geom2, zp2):
    L1 = zp2.L(1)
    t = 0.5
    xi = np.array([1000.0, t])
    cls = geom2.congruence_class(xi)
    want = sorted(t + l for l in range(-10, 11) if abs(t + l) <= L1)
    got = sorted(p[1] for p in cls.points)
    assert np.allclose(got, want)
    assert all(abs(p[0] - 1000.0) < 1e-12 for p in cls.points)
    assert any(np.allclose(p, xi) for p in cls.points)  # seed in points


def test_congruence_symmetry(geom2):
    xi = np.array([1000.0, 0.5])
    cls = geom2.congruence_class(xi)
    keys = {tuple(np.round(p, 9)) for p in cls.points}
    for p in cls.points:
        back = geom2.congruence_class(np.asarray(p))
        assert {tuple(np.round(q, 9)) for q in back.points} == keys


def test_congruence_diameter_provable_bound(geom2, zp2, rng):
    # class points differ from xi only in V and each has |eta_V| <= m L_m, so
    # the diameter is at most 2 m L_m; the derivation is in the
    # test_acceptance module docstring. Classes here have m = 1
    L1 = zp2.L(1)
    for _ in range(20):
        t = rng.uniform(-L1, L1)
        cls = geom2.congruence_class(np.array([1000.0, t]))
        assert cls.diameter() <= 2.0 * 1 * zp2.L(1) + 1e-9


def test_partition_sampled(geom2, rng):
    pts = sample_annulus(2, 1000.0, 300, rng)
    for xi in pts:
        label = geom2.classify_point(xi)
        assert 0 <= label.dim <= 2
        # subtraction-rule membership agrees with the classification
        assert geom2.in_xi(label.subspace, xi)


def test_sum_closure_sampled(theta2, geom2, rng):
    # xi in Xi1(U) and Xi1(V) forces xi in Xi1(U + V)
    from spectra_lab.frequency import all_subspaces

    subs = all_subspaces(theta2)
    pts = sample_annulus(2, 1000.0, 60, rng)
    for xi in pts:
        hits = [V for V in subs if V.dimension >= 1 and geom2.in_xi1(V, xi)]
        for U in hits:
            for V in hits:
                if not (U.contains_subspace(V) and V.contains_subspace(U)):
                    assert geom2.in_xi1(U.sum(V), xi)


def test_d1_annulus_nonresonant(geom1, rng):
    pts = sample_annulus(1, 1000.0, 200, rng)
    for xi in pts:
        assert geom1.classify_point(xi).dim == 0


# (d, xi): not d finite coordinates.  In d = 1 an infinite seed leaves the
# slab at once, so no closure step reaches it and only a check of the seed
# itself catches it
BAD_POINTS = [(2, (math.nan, 0.0)), (2, (0.5, math.inf)), (2, (-math.inf, math.nan)),
              (2, (1.0, 2.0, 3.0)), (1, (math.inf,)), (1, (math.nan,)), (1, (1.0, 2.0)),
              (2, (math.inf, 0.0))]


@pytest.fixture(scope="module")
def geom_by_dim(geom1, axes_geom):
    return {1: geom1, 2: axes_geom}


@pytest.mark.parametrize("d, xi", BAD_POINTS)
def test_classify_rejects_bad_point(geom_by_dim, d, xi):
    with pytest.raises(ValueError):
        geom_by_dim[d].classify_point(xi)


@pytest.mark.parametrize("d, xi", BAD_POINTS)
def test_congruence_rejects_bad_point(geom_by_dim, d, xi):
    with pytest.raises(ValueError):
        geom_by_dim[d].congruence_class(xi)


@pytest.mark.parametrize("d, xi", BAD_POINTS)
def test_membership_rejects_bad_point(geom_by_dim, d, xi):
    """in_xi and in_xi1 check xi as classify_point does: on axes2d,
    in_xi({0}, (nan, 0)) once answered True."""
    geom = geom_by_dim[d]
    for V in geom.subspaces:
        for member in (geom.in_xi, geom.in_xi1):
            with pytest.raises(ValueError):
                member(V, xi)


def test_congruence_leaves_class_bound_at_once(zp2):
    # below the sampling annulus a surd-set class need not close: (5, 0.5) is
    # labelled dim 1 and its closure runs off along the slab
    geom = ZoneGeometry(_surd_set(), zp2)
    xi = np.array([5.0, 0.5])
    assert geom.classify_point(xi).dim == 1
    t0 = time.perf_counter()
    with pytest.raises(ClassBoundExceeded, match="dim 1"):
        geom.congruence_class(xi)
    assert time.perf_counter() - t0 < 0.1


def test_congruence_cap_exceeded(axes2d, axes_geom, zp2, monkeypatch):
    # the origin's class on axes2d has 25 points, all within 4 L_2 of it
    cls = axes_geom.congruence_class(np.zeros(2))
    assert len(cls) == 25
    assert cls.subspace.dimension == 2
    assert max(np.linalg.norm(p) for p in cls.points) <= 4 * zp2.L(2)
    monkeypatch.setattr(zones, "CLOSURE_CAP", 10)
    with pytest.raises(CapExceeded) as err:
        axes_geom.congruence_class(np.zeros(2))
    assert type(err.value) is CapExceeded


# -- the stacked query kernel against a per-child-dot reference ------------------


def _dot(u, xi):
    return float(xi @ u)


def _reference_label(geom, xi):
    """The subspace index of xi, one child at a time: xi is in Xi_1(V) when a
    child W of V holds xi and |<xi, nu>| <= L_m for the unit normal nu of V
    ominus W; the label is the first hit of largest dimension."""
    subs, hit = geom.subspaces, []
    for V in subs:
        m = V.dimension
        kids = [j for j, W in enumerate(subs)
                if W.dimension == m - 1 and V.contains_subspace(W)]
        hit.append(not kids or any(
            hit[j] and abs(_dot(ZoneGeometry._unit_complement(V, subs[j]), xi))
            <= geom.zp.L(m) for j in kids))
    hits = [i for i, h in enumerate(hit) if h]
    best = max(hits, key=lambda i: subs[i].dimension)
    assert all(subs[best].contains_subspace(subs[i]) for i in hits)
    return best


def _reference_steps(S, L1):
    """(float theta, |theta|, l range) of each theta of S whose negation
    comes later in S's order."""
    steps, taken = [], set()
    for t in S.nonzero():
        if -t in taken:
            continue
        taken.add(t)
        tf = t.to_float()
        nrm = float(np.linalg.norm(tf))
        lmax = math.ceil(2.0 * L1 / nrm)
        steps.append((tf, nrm, [l for l in range(-lmax, lmax + 1) if l]))
    return steps


def _reference_class(geom, xi):
    """The closure of xi, one dot per step and per move, keyed by the count
    of each step (the thetas of both sets here are independent over Q)."""
    L1 = geom.zp.L(1)
    steps = _reference_steps(geom.S, L1)
    zero = (0,) * len(steps)
    seen, frontier = {zero: xi}, [zero]
    while frontier:
        new = []
        for off in frontier:
            pt = seen[off]
            for k, (tf, nrm, ls) in enumerate(steps):
                if abs(_dot(tf, pt)) / nrm > L1:
                    continue
                for l in ls:
                    q = pt + l * tf
                    if abs(_dot(tf, q)) / nrm > L1:
                        continue
                    noff = off[:k] + (off[k] + l,) + off[k + 1:]
                    if noff not in seen:
                        seen[noff] = q
                        new.append(noff)
        frontier = new
    return [tuple(p) for p in seen.values()]


def _straddle(xi0, u, inside):
    """Four points around the boundary of inside() near xi0: the pair one ulp
    apart, along the coordinate where the unit vector u is largest, on which
    inside() flips, and one more ulp beyond each."""
    c = int(np.argmax(np.abs(u)))
    out = math.copysign(math.inf, u[c] * _dot(u, xi0))
    back = -out
    xi = xi0.copy()
    start = inside(xi)
    path = [xi.copy()]
    for _ in range(10000):
        xi[c] = np.nextafter(xi[c], out if start else back)
        path.append(xi.copy())
        if inside(xi) != start:
            break
    else:
        raise AssertionError("no boundary near %r" % (xi0,))
    a, b = path[-2], path[-1]
    before, after = a.copy(), b.copy()
    before[c] = np.nextafter(a[c], back if start else out)
    after[c] = np.nextafter(b[c], out if start else back)
    assert inside(a) != inside(b)
    return [before, a, b, after]


def _boundary_points(geom):
    """Points one ulp either side of |<xi, nu>| = L_m for every child normal
    nu, and of |<xi, theta>| / |theta| = L_1 for every step theta, for the
    seed and for its move by l = 1 and 2."""
    subs, zp = geom.subspaces, geom.zp
    perp = lambda u: np.array([-u[1], u[0]])
    pts = []
    for V in subs:
        m = V.dimension
        for W in subs:
            if W.dimension != m - 1 or not V.contains_subspace(W):
                continue
            nu = ZoneGeometry._unit_complement(V, W)
            # a line's slab in the annulus; the origin's box for the plane
            along = 1500.0 if m == 1 else 0.5
            for sign in (1.0, -1.0):
                xi0 = sign * zp.L(m) * nu + along * perp(nu)
                pts += _straddle(xi0, nu, lambda xi, nu=nu, m=m:
                                 abs(_dot(nu, xi)) <= zp.L(m))
    L1 = zp.L(1)
    for tf, nrm, _ in _reference_steps(geom.S, L1):
        u = tf / nrm
        for k in (0, 1, 2):
            for sign in (1.0, -1.0):
                xi0 = sign * (L1 - k * nrm) * u + 1500.0 * perp(u)
                pts += _straddle(xi0, u, lambda xi, tf=tf, nrm=nrm, k=k:
                                 abs(_dot(tf, xi + sign * k * tf)) / nrm <= L1)
    return pts


@pytest.mark.parametrize("name", ["axes2d", "surd2"])
def test_queries_match_per_child_reference(axes_geom, zp2, name):
    geom = axes_geom if name == "axes2d" else ZoneGeometry(_surd_set(), zp2)
    pts = _boundary_points(geom)
    assert len(pts) >= 80
    dims = set()
    for xi in pts:
        want = _reference_label(geom, xi)
        assert geom.subspaces.index(geom.classify_point(xi).subspace) == want
        assert geom.in_xi(geom.subspaces[want], xi)
        dims.add(geom.subspaces[want].dimension)
        if name == "surd2" and np.linalg.norm(xi) < 100.0:
            continue  # the surd set's steps are dense near the origin
        cls = geom.congruence_class(xi)
        assert geom.subspaces.index(cls.subspace) == want
        assert [tuple(p) for p in cls.points] == _reference_class(geom, xi)
    assert dims == {0, 1, 2}


def test_non_finite_point_raises_without_warning(axes_geom, geom1):
    for geom, bad in ((axes_geom, (math.nan, 1.0)), (axes_geom, (math.inf, -math.inf)),
                      (geom1, (math.inf,))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for query in (geom.classify_point, geom.congruence_class,
                          lambda xi: geom.in_xi(geom.subspaces[0], xi),
                          lambda xi: geom.in_xi1(geom.subspaces[-1], xi)):
                with pytest.raises(ValueError, match="finite"):
                    query(np.array(bad))


# -- golden labels and classes: every label, class point and class subspace -----

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "zones_classes.json")
RHO = 1000.0


def _slab_points(S, zp, n, rng):
    """n annulus points inside the slab of a theta of S, cycling over S."""
    thetas = [t.to_float() for t in S.nonzero()]
    out = []
    for k in range(n):
        t = thetas[k % len(thetas)]
        u = t / np.linalg.norm(t)
        r = rng.uniform(900.0, 4000.0) * rng.choice([-1.0, 1.0])
        out.append(r * np.array([-u[1], u[0]]) + rng.uniform(-zp.L(1), zp.L(1)) * u)
    return np.array(out)


def _golden_sets():
    """(name, S, zp, points): criterion 09's samples on Theta = {0, +-e1, +-e2}
    with slab points and points at the origin (dim-2 classes), and annulus and
    slab points of the surd set {e1, e2, (1/2, sqrt(2)/3)}."""
    zp = ZoneParameters.create(RHO, 2)
    b0 = GeneratorBasis(None)
    S0 = FrequencySet.build(2, b0, [freq([1, 0], b0), freq([0, 1], b0)])
    rng = np.random.default_rng(20240817)
    axes = np.concatenate([sample_annulus(2, RHO, 10000, rng),
                           _slab_points(S0, zp, 200, rng),
                           rng.uniform(-zp.L(1), zp.L(1), size=(20, 2))])
    S2 = _surd_set()
    rng = np.random.default_rng(20240818)
    surd = np.concatenate([sample_annulus(2, RHO, 3000, rng),
                           _slab_points(S2, zp, 300, rng)])
    return [("axes2d", S0, zp, axes), ("surd2", S2, zp, surd)]


def _subspace_key(V):
    return ";".join(",".join("%s+%s*r" % (c.a, c.b) for c in row)
                    for row in V.rref_rows())


def golden_zones():
    """Everything tests/golden/zones_classes.json holds, computed afresh:
    per set, the subspace list, each point's label and class subspace as
    indices into it, a digest of every class's points (bytes, in order), and
    every class of more than one point written out as hex floats (points
    separated by spaces, coordinates by commas)."""
    import hashlib

    out = {}
    for name, S, zp, pts in _golden_sets():
        geom = ZoneGeometry(S, zp)
        labels, class_subspaces, classes = [], [], {}
        digest = hashlib.sha256()
        for i, xi in enumerate(pts):
            labels.append(geom.subspaces.index(geom.classify_point(xi).subspace))
            cls = geom.congruence_class(xi)
            class_subspaces.append(geom.subspaces.index(cls.subspace))
            digest.update(len(cls).to_bytes(8, "little"))
            for p in cls.points:
                digest.update(np.asarray(p, dtype=float).tobytes())
            if len(cls) > 1:
                classes[str(i)] = " ".join(",".join(float(v).hex() for v in p)
                                           for p in cls.points)
        out[name] = {"subspaces": [_subspace_key(V) for V in geom.subspaces],
                     "labels": "".join(map(str, labels)),
                     "class_subspaces": "".join(map(str, class_subspaces)),
                     "points_sha256": digest.hexdigest(),
                     "classes": classes}
    return out


def test_zones_golden():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = golden_zones()
    assert sorted(got) == sorted(want)
    for name in want:
        g, w = got[name], want[name]
        assert g["subspaces"] == w["subspaces"], name
        assert g["labels"] == w["labels"], name
        assert g["class_subspaces"] == w["class_subspaces"], name
        assert sorted(g["classes"]) == sorted(w["classes"]), name
        for i in w["classes"]:
            assert g["classes"][i] == w["classes"][i], (name, i)
        assert g["points_sha256"] == w["points_sha256"], name


if __name__ == "__main__":
    # Regenerate the golden file: PYTHONPATH=src python tests/test_zones.py
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(golden_zones(), fh, indent=1, sort_keys=True)
        fh.write("\n")
