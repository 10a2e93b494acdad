"""Halfspace intersection, mesh accessors, and the edge/volume functionals."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import moved, relabelled, tangent_body
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
    ngon_pyramid,
    optimal_prism,
    random_convex,
    regular_tetrahedron,
    validate,
    volume,
)
from melzak.errors import BadParameter, DegenerateInput, EmptyInterior, UnboundedIntersection
from melzak.polyhedron import _chebyshev_centre
from melzak.shapes import PRISM_EDGE_LENGTH


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_cube_counts_and_euler():
    C = cube()
    assert (C.n_vertices, C.n_edges, C.n_faces) == (8, 12, 6)
    assert C.n_vertices - C.n_edges + C.n_faces == 2
    assert C.convex


def test_a_body_stores_only_its_geometry():
    assert [f.name for f in dataclasses.fields(Polyhedron)] == ["vertices", "faces", "halfspaces"]
    T = regular_tetrahedron()
    assert T.edges == T.topology.edges and T.convex
    # inside out: every cycle reversed and every plane flipped
    inverted = Polyhedron(T.vertices, tuple(cyc[::-1] for cyc in T.faces),
                          tuple(HalfSpace(-h.normal, -h.offset) for h in T.halfspaces))
    assert not inverted.convex
    assert not validate(inverted).orientation_ok and not validate(inverted).ok


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_nudged_vertex_is_judged_by_one_slack(sign):
    # the cube's (+,+,+) corner moved 1e-9 along (1, 1, 1)/sqrt(3) lies
    # 5.77e-10 off each of its three faces, beyond the vertex-on-plane slack
    # 1e-9 x max|x - c| = 5e-10. Outward it is neither convex nor coplanar;
    # inward it is convex but off its faces, as from_halfspaces' merge rule
    # would judge it
    C = cube()
    v = C.vertices.copy()
    v[np.argmax(v.sum(axis=1))] += sign * 1e-9 / math.sqrt(3.0)
    Q = Polyhedron(v, C.faces, C.halfspaces)
    rep = validate(Q)
    assert (Q.convex, rep.coplanar_ok, rep.ok) == (sign < 0, False, False)
    assert rep.max_coplanarity_error == pytest.approx(1e-9 / math.sqrt(3.0), rel=1e-6)
    R, slack = Q.plane_residuals
    assert slack == pytest.approx(5e-10, rel=1e-12)
    assert not R.flags.writeable and not any(a.flags.writeable for a in Q.planes)


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


@pytest.mark.parametrize("side", [1e-30, 1e-15, 1e-13, 1e-12, 1.0, 1e6, 1e20])
def test_chebyshev_centre_does_not_depend_on_scale(side):
    # a cube of side s centred at (3s, 0, 0): its offsets differ in sign, so
    # it is intersected about its Chebyshev centre
    hs = [HalfSpace(h.normal, side * (h.offset + 3.0 * h.normal[0])) for h in cube().halfspaces]
    P = from_halfspaces(hs)
    assert melzak_ratio(P) == pytest.approx(1728.0, rel=1e-14)
    assert P.vertices.mean(axis=0) == pytest.approx([3.0 * side, 0.0, 0.0], rel=1e-14,
                                                    abs=1e-14 * side)


def _chebyshev_inputs():
    """Plane sets (N, b): random bodies and pyramids (n = 3-24), each also
    shifted by up to 1e6 diameters, and random normals with offsets of
    either sign, which may hold no ball or balls of every radius."""
    rng = np.random.default_rng(0)
    bodies = [random_convex(np.random.default_rng(k), n_faces=int(rng.integers(4, 40)))
              for k in range(40)]
    bodies += [ngon_pyramid(n, 1.0, float(rng.uniform(0.3, 3.0))) for n in range(3, 25)]
    for P in bodies:
        N, b = P.planes
        u = rng.normal(size=3)
        for shift in (0.0, 1.0, 1e2, 1e4, 1e6):
            yield N, b + N @ (shift * P.diameter() * u / np.linalg.norm(u))
    for _ in range(200):
        N = rng.normal(size=(int(rng.integers(4, 12)), 3))
        yield N / np.linalg.norm(N, axis=1, keepdims=True), rng.uniform(-1.0, 1.0, len(N))


def _highs_centre(N, b):
    """The reference: HiGHS on the same LP, as (outcome, centre, radius)."""
    from scipy.optimize import linprog

    s = 2.0 ** round(math.log2(float(np.abs(b).max())))
    res = linprog(c=[0.0, 0.0, 0.0, -1.0], A_ub=np.hstack([N, np.ones((len(N), 1))]),
                  b_ub=b / s, bounds=[(None, None)] * 4, method="highs")
    assert res.status in (0, 3), res.message  # always feasible, as r -> -inf
    if res.status == 3:
        return UnboundedIntersection, None, None
    if res.x[3] <= 1e-12:
        return EmptyInterior, None, None
    return None, res.x[:3] * s, res.x[3] * s


def test_chebyshev_centre_agrees_with_highs():
    outcomes = []
    for N, b in _chebyshev_inputs():
        expected, x_ref, r_ref = _highs_centre(N, b)
        big = float(np.abs(b).max())
        if expected is not None:
            with pytest.raises(expected):
                _chebyshev_centre(N, b)
            outcomes.append(expected)
            continue
        c, r = _chebyshev_centre(N, b)
        outcomes.append(None)
        # the kernel's ball lies inside every plane to the rounding of b
        assert (N @ c + r - b).max() <= 1e-15 * big
        if (N @ x_ref + r_ref - b).max() <= 1e-12 * big:
            # where HiGHS's own ball is inside, the radii agree; r is known
            # only to the rounding of the offsets, ~1e-16 max|b|
            assert abs(r - r_ref) <= 1e-9 * r + 1e-15 * big
    assert set(outcomes) == {None, EmptyInterior, UnboundedIntersection}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(4, 20), move=st.integers(0, 10_000),
       scale=st.sampled_from([1e-6, 1e-2, 1.0, 3.0, 1e3]),
       shift=st.sampled_from([0.0, 1.0, 1e3, 1e6]))
def test_chebyshev_centre_follows_motions_and_scale(seed, n_faces, move, scale, shift):
    # planes rotated by R, scaled by k and moved by t: the centre goes to
    # k R c + t and the radius to k r
    P = random_convex(np.random.default_rng(seed), n_faces=n_faces)
    N, b = P.planes
    c, r = _chebyshev_centre(N, b)
    rng = np.random.default_rng(move)
    R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    R *= np.sign(np.linalg.det(R))
    u = rng.normal(size=3)
    t = shift * scale * P.diameter() * u / np.linalg.norm(u)
    Nm = N @ R.T
    bm = scale * b + Nm @ t
    cm, rm = _chebyshev_centre(Nm, bm)
    assert np.abs(cm - (scale * R @ c + t)).max() <= 1e-9 * (scale * P.diameter() + np.abs(t).max())
    assert abs(rm - scale * r) <= 1e-9 * scale * r + 1e-15 * float(np.abs(bm).max())


def test_chebyshev_centre_stops_at_its_pivot_cap(monkeypatch):
    N, b = ngon_pyramid(6, 1.0, 1.0).planes
    _chebyshev_centre(N, b)
    monkeypatch.setattr("melzak.polyhedron._LP_PIVOTS", 1)
    with pytest.raises(DegenerateInput):
        _chebyshev_centre(N, b)


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

def test_diameter_makes_no_vertex_pair_array():
    # the largest squared distance, taken over row blocks, is the one the
    # whole (V, V) array of squared distances holds, to the bit
    P = tangent_body(1000)
    V = P.n_vertices
    assert V == 1996
    tracemalloc.start()
    try:
        got = P.diameter()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * V * V  # a quarter of one (V, V) float array
    v = P.vertices
    assert got == float(np.sqrt(((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2).max()))


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
        assert rep.euler_ok and rep.coplanar_ok and rep.orientation_ok and P.convex
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
    assert rep.euler_ok and rep.ok and P.convex
    assert volume(P) > 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(5, 20), move=st.integers(0, 10_000))
def test_ratio_is_invariant_under_motions_and_relabelling(seed, n_faces, move):
    P = random_convex(np.random.default_rng(seed), n_faces=n_faces)
    m = melzak_ratio(P)
    rng = np.random.default_rng(move)
    R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    R *= np.sign(np.linalg.det(R))
    assert melzak_ratio(moved(P, R, np.zeros(3))) == pytest.approx(m, rel=1e-12, abs=0.0)
    Q = relabelled(P, rng.permutation(P.n_vertices), rng.permutation(P.n_faces),
                    rng.integers(0, 8, size=P.n_faces))
    assert melzak_ratio(Q) == pytest.approx(m, rel=1e-12, abs=0.0)
    u = rng.normal(size=3)
    for s in (1e2, 1e4, 1e6):
        d = s * P.diameter() * u / np.linalg.norm(u)
        shifted = moved(P, np.eye(3), d)
        assert melzak_ratio(shifted) == pytest.approx(m, rel=1e-13 * (1 + s), abs=0.0)
        _assert_convex_means_coplanar(shifted)
    for body in (moved(P, R, np.zeros(3)), Q):
        _assert_convex_means_coplanar(body)


def _assert_convex_means_coplanar(P):
    """A body that reads convex has each face's own corners within the
    vertex-on-plane slack of its plane."""
    R, slack = P.plane_residuals
    own = max(np.abs(R[list(cyc), f]).max() for f, cyc in enumerate(P.faces))
    assert not P.convex or own <= slack


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


def _assert_cached_functionals(P):
    areas, vol = _loop_areas_and_volume(P)
    assert P.face_areas.tobytes() == areas.tobytes()
    want = (_loop_edge_length(P).hex(), vol.hex())
    for _ in range(2):  # the first call computes, the second reads the cache
        assert (edge_length(P).hex(), volume(P).hex()) == want
    # every rate is read from a face's or the vertices' table, which is also
    # what its report reads: each entry is its report's dM, bit for bit
    for label, dM in criticality_report(P).entries.items():
        rep = derivatives(P, _perturbation(label))
        assert rep.dM == dM, label
        assert (rep.E0.hex(), rep.V0.hex()) == want


def _perturbation(label):
    """The move a criticality label names."""
    kind, target, *rest = label.split(":")
    if kind == "truncate":
        return Perturbation("vertex_truncate", int(target[2:]))
    if kind == "translate":
        return Perturbation("face_translate", int(target[2:]), rest[0])
    return Perturbation("face_hinge", int(target[2:]), rest[1], int(rest[0][2:]))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(4, 16))
def test_cached_functionals_match_loop_on_random_bodies(seed, n_faces):
    _assert_cached_functionals(random_convex(np.random.default_rng(seed), n_faces))


def test_cached_functionals_match_loop_on_catalog():
    types = load_catalog()
    assert len(types) == 27
    for t in types:
        _assert_cached_functionals(t.build())
