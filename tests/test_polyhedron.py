"""Halfspace intersection, mesh accessors, and the edge/volume functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import melzak.optimize
from conftest import relabelled
from melzak import (
    HalfSpace,
    Perturbation,
    Polyhedron,
    box,
    criticality_report,
    cube,
    derivatives,
    edge_length,
    from_halfspaces,
    load_catalog,
    melzak_ratio,
    optimal_prism,
    random_convex,
    regular_tetrahedron,
    validate,
    volume,
)
from melzak.errors import BadParameter, EmptyInterior, UnboundedIntersection
from melzak.shapes import PRISM_EDGE_LENGTH


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_cube_counts_and_euler():
    C = cube()
    assert (C.n_vertices, C.n_edges, C.n_faces) == (8, 12, 6)
    assert C.n_vertices - C.n_edges + C.n_faces == 2
    assert C.convex


def test_cube_vertices_exact():
    C = cube()
    want = {(sx, sy, sz) for sx in (-0.5, 0.5) for sy in (-0.5, 0.5)
            for sz in (-0.5, 0.5)}
    got = {tuple(v) for v in np.round(C.vertices, 15)}
    assert got == want


def test_halfspace_normalizes_input():
    h = HalfSpace(np.array([0.0, 0.0, 2.0]), 3.0)
    assert np.allclose(h.normal, [0, 0, 1])
    assert h.offset == pytest.approx(1.5)


@pytest.mark.parametrize("normal, offset", [
    ([math.inf, 0.0, 1.0], 1.0), ([math.nan, 0.0, 1.0], 1.0), ([0.0, 0.0, 1.0], math.nan),
    ([0.0, 0.0, 1.0], math.inf), ([0.0, 0.0, 2.0], -math.inf)])
def test_non_finite_halfspace_is_bad_parameter(normal, offset):
    # an infinite normal would normalize to NaN, and a NaN or infinite
    # offset would reach the interior-point LP
    with pytest.raises(BadParameter, match="finite"):
        HalfSpace(np.array(normal), offset)


@pytest.mark.parametrize("offset", [math.nan, math.inf])
def test_from_halfspaces_with_a_non_finite_offset_is_bad_parameter(offset):
    # refused by HalfSpace, so the offset never reaches scipy's LP
    with pytest.raises(BadParameter, match="finite"):
        from_halfspaces(list(cube().halfspaces[:5]) + [HalfSpace(np.array([0.0, 0.0, -1.0]), offset)])


@pytest.mark.parametrize("factor", [math.nan, math.inf])
def test_non_finite_scale_is_bad_parameter(factor):
    with pytest.raises(BadParameter, match="scale factor"):
        cube().scaled(factor)


def test_redundant_plane_dropped():
    hs = list(cube().halfspaces) + [HalfSpace(np.array([0.0, 0.0, 1.0]), 2.0)]
    C2 = from_halfspaces(hs)
    assert C2.n_faces == 6


def test_too_few_planes_unbounded():
    with pytest.raises(UnboundedIntersection):
        from_halfspaces([HalfSpace(np.array([0.0, 0.0, 1.0]), 1.0),
                         HalfSpace(np.array([0.0, 0.0, -1.0]), 0.0),
                         HalfSpace(np.array([1.0, 0.0, 0.0]), 1.0)])


def test_open_top_unbounded():
    with pytest.raises(UnboundedIntersection):
        from_halfspaces([HalfSpace(np.array([0.0, 0.0, -1.0]), 0.0),
                         HalfSpace(np.array([1.0, 0.0, 0.0]), 1.0),
                         HalfSpace(np.array([-1.0, 0.0, 0.0]), 1.0),
                         HalfSpace(np.array([0.0, 1.0, 0.0]), 1.0),
                         HalfSpace(np.array([0.0, -1.0, 0.0]), 1.0)])


def test_infeasible_empty_interior():
    with pytest.raises(EmptyInterior):
        from_halfspaces([HalfSpace(np.array([0.0, 0.0, 1.0]), -1.0),
                         HalfSpace(np.array([0.0, 0.0, -1.0]), -1.0),
                         HalfSpace(np.array([1.0, 0.0, 0.0]), 1.0),
                         HalfSpace(np.array([-1.0, 0.0, 0.0]), 1.0),
                         HalfSpace(np.array([0.0, 1.0, 0.0]), 1.0),
                         HalfSpace(np.array([0.0, -1.0, 0.0]), 1.0)])


def test_near_coaxial_plane_triples_do_not_poison_the_scale():
    # A prism whose side normals are tilted out of plane by ~1e-10: the
    # three side planes meet only ~1e9 away.  The incidence tolerance scales
    # with the body's own extent about its interior point, so that far point
    # neither becomes a vertex nor widens the tolerance until every real
    # vertex lies on every plane.
    eps = 1.0e-10
    hs = []
    for k in range(3):
        a = 2 * math.pi * k / 3
        n = np.array([math.cos(a), math.sin(a), eps])
        hs.append(HalfSpace(n / np.linalg.norm(n), 0.5))
    hs.append(HalfSpace(np.array([0.0, 0.0, 1.0]), 0.6))
    hs.append(HalfSpace(np.array([0.0, 0.0, -1.0]), 0.6))
    P = from_halfspaces(hs)
    assert (P.n_vertices, P.n_faces) == (6, 5)
    assert volume(P) == pytest.approx(3 * math.sqrt(3) * 0.25 * 1.2, rel=1e-6)


# ---------------------------------------------------------------------------
# accessors
# ---------------------------------------------------------------------------

def test_edge_index_and_edge_faces():
    C = cube()
    for e, (i, j) in enumerate(C.edges):
        assert C.edge_index(i, j) == e
        assert C.edge_index(j, i) == e
        fa, fb = C.edge_faces(e)
        assert i in C.faces[fa] and j in C.faces[fa]
        assert i in C.faces[fb] and j in C.faces[fb]


def test_vertex_accessors():
    C = cube()
    assert all(C.vertex_degree(v) == 3 for v in range(8))
    assert C.vertex_faces(0) == sorted(C.vertex_faces(0))
    assert len(C.vertex_faces(0)) == 3


def test_face_geometry():
    C = cube()
    for f in range(6):
        assert C.face_area(f) == pytest.approx(1.0)
        n = C.face_normal(f)
        assert np.linalg.norm(n) == pytest.approx(1.0)
        assert C.face_centroid(f) @ n == pytest.approx(0.5)
    assert C.diameter() == pytest.approx(math.sqrt(3))


def test_signature_is_scale_invariant():
    C = cube()
    assert C.type_key() == C.scaled(7.3).type_key()


def test_validate_reference_shapes():
    for P in (cube(), regular_tetrahedron(), optimal_prism(), box(0.5, 1.0, 2.0)):
        rep = validate(P)
        assert rep.euler_ok and rep.coplanar_ok and rep.convex_ok
        assert rep.manifold_ok and rep.orientation_ok
        assert rep.max_coplanarity_error < 1e-9


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def test_cube_functionals():
    C = cube()
    assert edge_length(C) == pytest.approx(12.0, abs=1e-12)
    assert volume(C) == pytest.approx(1.0, abs=1e-12)
    assert melzak_ratio(C) == pytest.approx(1728.0, abs=1e-9)


def test_tetrahedron_functionals():
    T = regular_tetrahedron()
    assert melzak_ratio(T) == pytest.approx(1296 * math.sqrt(2), rel=1e-12)


def test_prism_functionals():
    P = optimal_prism()
    assert edge_length(P) == pytest.approx(PRISM_EDGE_LENGTH, rel=1e-12)
    assert volume(P) == pytest.approx(1.0, rel=1e-12)
    assert melzak_ratio(P) == pytest.approx(4 * 3 ** 5.5, rel=1e-12)


def test_box_volume_and_edges():
    B = box(0.5, 1.0, 2.0)
    assert volume(B) == pytest.approx(1.0, abs=1e-12)
    assert edge_length(B) == pytest.approx(4 * (0.5 + 1.0 + 2.0), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=50.0,
                 allow_nan=False, allow_infinity=False))
def test_ratio_scale_invariance(s):
    C = cube()
    S = C.scaled(s)
    assert edge_length(S) == pytest.approx(s * 12.0, rel=1e-12)
    assert volume(S) == pytest.approx(s ** 3, rel=1e-12)
    assert melzak_ratio(S) == pytest.approx(1728.0, rel=1e-10)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_convex_is_valid(seed):
    P = random_convex(np.random.default_rng(seed))
    rep = validate(P)
    assert rep.euler_ok and rep.convex_ok and rep.manifold_ok
    assert volume(P) > 0


def _moved(P, R, d):
    """P rotated by R about the origin, then shifted by d: vertices and
    plane offsets both, without a rebuild."""
    hs = tuple(HalfSpace(R @ h.normal, h.offset + (R @ h.normal) @ d) for h in P.halfspaces)
    return Polyhedron(P.vertices @ R.T + d, P.faces, hs, P.convex)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(5, 20), move=st.integers(0, 10_000))
def test_ratio_is_invariant_under_motions_and_relabelling(seed, n_faces, move):
    P = random_convex(np.random.default_rng(seed), n_faces=n_faces)
    m = melzak_ratio(P)
    rng = np.random.default_rng(move)
    R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    R *= np.sign(np.linalg.det(R))
    assert melzak_ratio(_moved(P, R, np.zeros(3))) == pytest.approx(m, rel=1e-12, abs=0.0)
    Q = relabelled(P, rng.permutation(P.n_vertices), rng.permutation(P.n_faces),
                    rng.integers(0, 8, size=P.n_faces))
    assert melzak_ratio(Q) == pytest.approx(m, rel=1e-12, abs=0.0)
    u = rng.normal(size=3)
    for s in (1e2, 1e4, 1e6):
        d = s * P.diameter() * u / np.linalg.norm(u)
        shifted = _moved(P, np.eye(3), d)
        assert melzak_ratio(shifted) == pytest.approx(m, rel=1e-13 * (1 + s), abs=0.0)


# the functionals one edge and one face at a time: the per-call edge sum the
# package used before E0 was cached on the body, and the body-frame face
# areas and volume (unit normals, vertices and offsets about the vertex
# centroid, offset x area / 3 summed face by face). The cached values must
# equal them bit for bit
def _loop_edge_length(P):
    idx = np.array(P.edges)
    if len(idx) == 0:
        return 0.0
    d = P.vertices[idx[:, 0]] - P.vertices[idx[:, 1]]
    return float(np.linalg.norm(d, axis=1).sum())


def _loop_areas_and_volume(P):
    c = P.vertices.mean(axis=0)
    N = np.array([h.normal for h in P.halfspaces])
    length = np.sqrt([n @ n for n in N])
    N = N / length[:, None]
    offsets = np.array([h.offset for h in P.halfspaces]) / length - N @ c
    areas, vol = [], 0.0
    for f, cyc in enumerate(P.faces):
        p = P.vertices[list(cyc)] - c
        cr = np.cross(p, np.roll(p, -1, axis=0)).sum(axis=0)
        areas.append(0.5 * float(cr @ N[f]))
        vol += float(offsets[f]) * 0.5 * float(cr @ N[f])
    return np.array(areas), vol / 3.0


def _assert_cached_functionals(P, monkeypatch):
    areas, vol = _loop_areas_and_volume(P)
    assert P.face_areas.tobytes() == areas.tobytes()
    want = (_loop_edge_length(P).hex(), vol.hex())
    for _ in range(2):  # the first call computes, the second reads the cache
        assert (edge_length(P).hex(), volume(P).hex()) == want
    reports = []

    def recording(fn):
        def call(*args):
            rep = fn(*args)
            reports.append(rep)
            return rep
        return call

    with monkeypatch.context() as mp:
        name = "vertex_truncate_derivatives"
        mp.setattr(melzak.optimize, name, recording(getattr(melzak.optimize, name)))
        crit = criticality_report(P)
    # the face moves are read from each face's rate table, which is also
    # what their reports read: each entry is its report's dM, bit for bit
    for label, dM in crit.entries.items():
        if not label.startswith("truncate"):
            reports.append(derivatives(P, _perturbation(label)))
            assert reports[-1].dM == dM, label
    assert len(reports) == len(crit.entries)
    for rep in reports:
        assert (rep.E0.hex(), rep.V0.hex()) == want


def _perturbation(label):
    """The face move a criticality label names."""
    kind, face, *rest = label.split(":")
    if kind == "translate":
        return Perturbation("face_translate", int(face[2:]), rest[0])
    return Perturbation("face_hinge", int(face[2:]), rest[1], int(rest[0][2:]))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(4, 16))
def test_cached_functionals_match_loop_on_random_bodies(seed, n_faces):
    with pytest.MonkeyPatch.context() as mp:
        _assert_cached_functionals(random_convex(np.random.default_rng(seed), n_faces), mp)


def test_cached_functionals_match_loop_on_catalog(monkeypatch):
    types = load_catalog()
    assert len(types) == 27
    for t in types:
        _assert_cached_functionals(t.build(), monkeypatch)
