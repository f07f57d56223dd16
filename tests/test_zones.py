import json
import math
import os

import numpy as np
import pytest

from spectra_lab.errors import ZeroFrequency
from spectra_lab.frequency import algebraic_sum, freq
from spectra_lab.zones import (ZoneParameters, classify_point,
                               component_coordinates, congruence_class,
                               default_alpha, in_lambda, inner_product_profile,
                               sample_annulus)


@pytest.fixture(scope="module")
def zp2():
    return ZoneParameters.create(1000.0, 2)


@pytest.fixture(scope="module")
def zp1():
    return ZoneParameters.create(1000.0, 1)


@pytest.fixture(scope="module")
def theta2(axes2d):
    return algebraic_sum(axes2d, 2)


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


def test_classify_d1_nonresonant(mathieu1d, zp1):
    label = classify_point(np.array([900.0]), mathieu1d, zp1)
    assert label.dim == 0


def test_classify_axis_slab(theta2, zp2, rational_basis):
    label = classify_point(np.array([1000.0, 0.0]), theta2, zp2)
    assert label.dim == 1
    e2 = freq([0, 1], rational_basis)
    assert label.subspace.contains_vector(e2.components())


def test_classify_origin(theta2, zp2):
    assert classify_point(np.zeros(2), theta2, zp2).dim == 2


def test_congruence_nonresonant_singleton(theta2, zp2):
    xi = np.array([700.0, 600.0])
    assert classify_point(xi, theta2, zp2).dim == 0
    cls = congruence_class(xi, theta2, zp2)
    assert len(cls) == 1
    assert np.allclose(cls.points[0], xi)


def test_congruence_one_line_closure(theta2, zp2):
    L1 = zp2.L(1)
    t = 0.5
    xi = np.array([1000.0, t])
    cls = congruence_class(xi, theta2, zp2)
    want = sorted(t + l for l in range(-10, 11) if abs(t + l) <= L1)
    got = sorted(p[1] for p in cls.points)
    assert np.allclose(got, want)
    assert all(abs(p[0] - 1000.0) < 1e-12 for p in cls.points)
    assert any(np.allclose(p, xi) for p in cls.points)  # seed in points


def test_congruence_symmetry(theta2, zp2):
    xi = np.array([1000.0, 0.5])
    cls = congruence_class(xi, theta2, zp2)
    keys = {tuple(np.round(p, 9)) for p in cls.points}
    for p in cls.points:
        back = congruence_class(np.asarray(p), theta2, zp2)
        assert {tuple(np.round(q, 9)) for q in back.points} == keys


def test_congruence_diameter_provable_bound(theta2, zp2, rng):
    # class points differ from xi only in V and each has |eta_V| <= m L_m, so
    # the diameter is at most 2 m L_m; the derivation is in the
    # test_acceptance module docstring. Classes here have m = 1
    L1 = zp2.L(1)
    for _ in range(20):
        t = rng.uniform(-L1, L1)
        cls = congruence_class(np.array([1000.0, t]), theta2, zp2)
        assert cls.diameter() <= 2.0 * 1 * zp2.L(1) + 1e-9


def test_cylindrical_coordinates_axis_example(theta2, zp2):
    t = 0.5
    xi = np.array([1000.0, t])
    label = classify_point(xi, theta2, zp2)
    cc = component_coordinates(xi, label, theta2, zp2)
    L2 = zp2.L(2)
    assert cc.X.shape == (1,)
    assert abs(abs(cc.X[0]) - abs(t)) < 1e-12
    assert abs(cc.r - abs(1000.0 - L2)) < 1e-9
    assert np.allclose(np.abs(cc.apex), [L2, 0.0], atol=1e-12)
    assert cc.constraint_residual() < 1e-12
    assert np.allclose(cc.reconstruct(), xi, atol=1e-10)


def test_cylindrical_apex_r_zero(theta2, zp2):
    import dataclasses

    xi = np.array([1000.0, 0.5])
    label = classify_point(xi, theta2, zp2)
    cc = component_coordinates(xi, label, theta2, zp2)
    at_apex = dataclasses.replace(cc, r=0.0)
    want = cc.v_basis @ cc.X + cc.apex
    assert np.allclose(at_apex.reconstruct(), want, atol=1e-10)


def test_inner_product_profile(theta2, zp2, rational_basis):
    xi = np.array([1000.0, 0.5])
    label = classify_point(xi, theta2, zp2)
    cc = component_coordinates(xi, label, theta2, zp2)
    # theta in V: no r-dependence
    e2 = freq([0, 1], rational_basis)
    const, lin = inner_product_profile(xi, e2, label, theta2, zp2)
    assert lin == 0.0
    assert abs(const - xi @ e2.to_float()) < 1e-9
    # theta transversal: <xi, e1> = const + r * linear
    e1 = freq([1, 0], rational_basis)
    const, lin = inner_product_profile(xi, e1, label, theta2, zp2)
    assert abs((const + cc.r * lin) - xi @ e1.to_float()) < 1e-8
    assert abs(abs(const) - zp2.L(2)) < 1e-9


def test_partition_sampled(theta2, zp2, rng):
    from spectra_lab.zones import ZoneGeometry

    geom = ZoneGeometry(theta2, zp2)
    pts = sample_annulus(2, 1000.0, 300, rng)
    for xi in pts:
        label = geom.classify_point(xi)
        assert 0 <= label.dim <= 2
        # subtraction-rule membership agrees with the classification
        assert geom.in_xi(label.subspace, xi)


def test_sum_closure_sampled(theta2, zp2, rng):
    # xi in Xi1(U) and Xi1(V) forces xi in Xi1(U + V)
    from spectra_lab.frequency import all_subspaces
    from spectra_lab.zones import ZoneGeometry

    geom = ZoneGeometry(theta2, zp2)
    subs = all_subspaces(theta2)
    pts = sample_annulus(2, 1000.0, 60, rng)
    for xi in pts:
        hits = [V for V in subs if V.dimension >= 1 and geom.in_xi1(V, xi)]
        for U in hits:
            for V in hits:
                if not (U.contains_subspace(V) and V.contains_subspace(U)):
                    assert geom.in_xi1(U.sum(V), xi)


def test_d1_annulus_nonresonant(mathieu1d, zp1, rng):
    pts = sample_annulus(1, 1000.0, 200, rng)
    for xi in pts:
        assert classify_point(xi, mathieu1d, zp1).dim == 0


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
    from fractions import Fraction

    from spectra_lab.frequency import FrequencySet, GeneratorBasis

    zp = ZoneParameters.create(RHO, 2)
    b0 = GeneratorBasis(None)
    S0 = FrequencySet.build(2, b0, [freq([1, 0], b0), freq([0, 1], b0)])
    rng = np.random.default_rng(20240817)
    axes = np.concatenate([sample_annulus(2, RHO, 10000, rng),
                           _slab_points(S0, zp, 200, rng),
                           rng.uniform(-zp.L(1), zp.L(1), size=(20, 2))])
    b2 = GeneratorBasis(2)
    S2 = FrequencySet.build(2, b2, [freq([1, 0], b2), freq([0, 1], b2),
                                    freq([(Fraction(1, 2), 0), (0, Fraction(1, 3))], b2)])
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

    from spectra_lab.zones import ZoneGeometry

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
