"""Reference shape constructors and their pinned constants."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from melzak import (
    box,
    canonical,
    cube,
    edge_length,
    melzak_ratio,
    ngon_pyramid,
    optimal_prism,
    optimal_pyramid,
    random_convex,
    regular_tetrahedron,
    unit_volume,
    volume,
)
from melzak.errors import BadParameter
from melzak.shapes import (
    CUBE_RATIO,
    PRISM_EDGE_LENGTH,
    PRISM_RATIO,
    PRISM_SIDE,
    TETRA_RATIO,
)


def test_constants_match_closed_forms():
    assert CUBE_RATIO == 1728.0
    assert TETRA_RATIO == pytest.approx(1296 * math.sqrt(2), rel=1e-15)
    assert PRISM_RATIO == pytest.approx(4 * 3 ** 5.5, rel=1e-15)
    assert PRISM_EDGE_LENGTH == pytest.approx(2 ** (2 / 3) * 3 ** (11 / 6), rel=1e-15)
    # square laterals mean height == side, so volume is (sqrt3/4) s^3
    assert PRISM_SIDE ** 3 * math.sqrt(3) / 4 == pytest.approx(
        volume(optimal_prism()), rel=1e-9)


def test_tetrahedron_is_regular():
    T = regular_tetrahedron()
    lens = sorted(np.linalg.norm(T.vertices[i] - T.vertices[j])
                  for i, j in T.edges)
    assert lens[-1] - lens[0] < 1e-12
    assert volume(T) == pytest.approx(1.0, rel=1e-12)
    assert melzak_ratio(T) == pytest.approx(TETRA_RATIO, rel=1e-12)


def test_prism_shape():
    P = optimal_prism()
    assert (P.n_vertices, P.n_faces) == (6, 5)
    tri = sorted(len(f) for f in P.faces)
    assert tri == [3, 3, 4, 4, 4]
    # square laterals: all nine edges have the same length s with 3s + 3s + 3s
    lens = sorted(np.linalg.norm(P.vertices[i] - P.vertices[j]) for i, j in P.edges)
    assert lens[-1] - lens[0] < 1e-12
    assert lens[0] == pytest.approx(PRISM_SIDE, rel=1e-12)
    assert edge_length(P) == pytest.approx(9 * PRISM_SIDE, rel=1e-12)


def test_ngon_pyramid_counts_and_volume():
    P = ngon_pyramid(6, 1.0, 2.0)
    assert (P.n_vertices, P.n_faces) == (7, 7)
    base_area = 6 * 0.5 * math.sin(2 * math.pi / 6)
    assert volume(P) == pytest.approx(base_area * 2.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("n", range(3, 13))
def test_optimal_pyramid_matches_a_bounded_search(n):
    # the closed form against a bounded search on the flat optimum of m(h)
    def m_of(h):
        return melzak_ratio(ngon_pyramid(n, 1.0, h))

    res = minimize_scalar(m_of, bounds=(0.05, 10.0), method="bounded",
                          options={"xatol": 1e-12})
    P = optimal_pyramid(n)
    m = melzak_ratio(P)
    assert P.vertices[:, 2].max() == pytest.approx(res.x, abs=1e-7)
    assert m == pytest.approx(res.fun, rel=1e-11)
    assert res.fun >= m * (1.0 - 1e-11)


def test_box_matches_cube():
    B = box(1.0, 1.0, 1.0)
    assert melzak_ratio(B) == pytest.approx(CUBE_RATIO, abs=1e-9)
    assert box(2.0, 0.5, 1.0).type_key() == cube().type_key()


def test_unit_volume_rescales():
    P = unit_volume(box(1.0, 2.0, 3.0))
    assert volume(P) == pytest.approx(1.0, rel=1e-12)
    assert melzak_ratio(P) == pytest.approx(melzak_ratio(box(1.0, 2.0, 3.0)), rel=1e-12)


def test_canonical_dispatch():
    assert melzak_ratio(canonical("cube")) == pytest.approx(CUBE_RATIO, abs=1e-9)
    P = canonical("ngon_pyramid", n=5, base_radius=1.0, height=2.0)
    assert P.n_faces == 6
    with pytest.raises(BadParameter):
        canonical("dodecahedron")
    assert canonical("box", a="1", b="2", c="3").n_faces == 6
    assert canonical("ngon_pyramid", n=5.0, base_radius=1.0, height=2.0).n_faces == 6
    for shape, params in (("ngon_pyramid", dict(n=5.5, base_radius=1.0, height=2.0)),
                          ("ngon_pyramid", dict(n="x", base_radius=1.0, height=2.0)),
                          ("ngon_pyramid", dict(n=5, base_radius=1.0)),
                          ("box", dict(a=1.0, b=float("nan"), c=1.0)),
                          ("box", dict(a=1.0, b=1.0, c=None)),
                          ("regular_tetrahedron", dict(n=3))):
        with pytest.raises(BadParameter):
            canonical(shape, **params)


def test_parameter_validation():
    with pytest.raises(BadParameter):
        ngon_pyramid(2, 1.0, 1.0)
    with pytest.raises(BadParameter):
        optimal_pyramid(2)
    with pytest.raises(BadParameter):
        ngon_pyramid(4, -1.0, 1.0)
    with pytest.raises(BadParameter):
        box(0.0, 1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_box_side_is_bad_parameter(bad):
    with pytest.raises(BadParameter, match="box sides must be finite"):
        box(bad, 1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_pyramid_is_bad_parameter(bad):
    with pytest.raises(BadParameter, match="height must be finite"):
        ngon_pyramid(5, 1.0, bad)
    with pytest.raises(BadParameter, match="height must be finite"):
        ngon_pyramid(5, bad, 1.0)


def test_random_convex_deterministic_per_seed():
    A = random_convex(np.random.default_rng(42))
    B = random_convex(np.random.default_rng(42))
    assert np.array_equal(A.vertices, B.vertices)
    assert A.faces == B.faces


def test_random_convex_face_count_request():
    P = random_convex(np.random.default_rng(3), n_faces=7)
    assert P.n_faces == 7
