"""``from_halfspaces``: qhull construction against the plane-triple oracle.

``_triple_from_halfspaces`` below is the construction the package used
before qhull: every plane triple with a nonsingular 3x3 system is solved,
points outside some halfspace are dropped at a scale guessed in two passes,
and the survivors are merged greedily. It stays here as the oracle the qhull
path is checked against: vertices, faces and kept halfspaces bit for bit,
and the exception class on failure. ``_plane_basis`` and ``_sort_cycle``
are the one-face-at-a-time frame and cycle sort it used.

``_loop_from_halfspaces`` is the qhull build as it ran before its vertex
means and face cycles became array passes: each point's plane triples by
``itertools.combinations``, each vertex's mean on its own, and each face's
cycle sorted on its own. It is the oracle of those passes, bit for bit,
error for error.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import octahedron
from scipy.spatial import HalfspaceIntersection, QhullError

from melzak import (
    DEFAULT_TOLERANCES,
    HalfSpace,
    Polyhedron,
    cube,
    from_halfspaces,
    load_catalog,
    melzak_ratio,
    ngon_pyramid,
    random_convex,
    volume,
)
from melzak.errors import (
    DegenerateInput,
    EmptyInterior,
    GeometryError,
    NonManifold,
    UnboundedIntersection,
)
from melzak.polyhedron import interior_point, plane_incidence
from melzak.vec3 import plane_bases


class InconsistentOrientation(GeometryError):
    """The oracle's failure class for a body with nonpositive volume; the
    package no longer has this check."""


# ---------------------------------------------------------------------------
# brute-force oracle: all C(m, 3) plane triples
# ---------------------------------------------------------------------------

def _plane_basis(n: np.ndarray) -> tuple:
    """Right-handed (t1, t2, n) orthonormal frame for a unit normal."""
    k = int(np.argmin(np.abs(n)))
    e = np.zeros(3)
    e[k] = 1.0
    t1 = np.cross(n, e)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    return t1, t2


def _sort_cycle(points: np.ndarray, idx: np.ndarray, normal: np.ndarray) -> tuple:
    """Order vertex indices counterclockwise about ``normal``."""
    c = points.mean(axis=0)
    t1, t2 = _plane_basis(normal)
    rel = points - c
    ang = np.arctan2(rel @ t2, rel @ t1)
    order = np.argsort(ang, kind="stable")
    return tuple(int(idx[k]) for k in order)


def _dedup(pts, radius):
    out = []
    used = np.zeros(len(pts), dtype=bool)
    for i in range(len(pts)):
        if used[i]:
            continue
        d = np.linalg.norm(pts - pts[i], axis=1)
        group = (d <= radius) & ~used
        used |= group
        out.append(pts[group].mean(axis=0))
    return np.array(out)


def _classify_failure(N, b, detail):
    from scipy.optimize import linprog

    m = len(N)
    res = linprog(c=[0.0, 0.0, 0.0, -1.0], A_ub=np.hstack([N, np.ones((m, 1))]), b_ub=b,
                  bounds=[(None, None)] * 4, method="highs")
    if res.status == 3:
        raise UnboundedIntersection(detail)
    if res.status == 2 or (res.status == 0 and res.x[3] <= 1e-12):
        raise EmptyInterior(detail)
    for k in range(3):
        for sign in (1.0, -1.0):
            c = np.zeros(3)
            c[k] = -sign
            r = linprog(c=c, A_ub=N, b_ub=b, bounds=[(None, None)] * 3, method="highs")
            if r.status == 3:
                raise UnboundedIntersection(detail)
    raise DegenerateInput(detail)


def _triple_from_halfspaces(halfspaces, tol=DEFAULT_TOLERANCES):
    hs = list(halfspaces)
    if len(hs) < 4:
        raise UnboundedIntersection("fewer than four halfspaces")
    N = np.array([h.normal for h in hs])
    b = np.array([h.offset for h in hs])
    triples = np.array(list(itertools.combinations(range(len(hs)), 3)))
    A = N[triples]
    good = np.abs(np.linalg.det(A)) > tol.plane_triple
    if not good.any():
        _classify_failure(N, b, "no three independent planes")
    pts = np.linalg.solve(A[good], b[triples[good]][..., None])[..., 0]
    # two passes: ill-conditioned triples solve to far garbage points
    scale = max(float(np.abs(pts).max()), 1e-9)
    for _ in range(2):
        pts = pts[(pts @ N.T - b <= 1e-9 * scale).all(axis=1)]
        if len(pts) == 0:
            _classify_failure(N, b, "no feasible point")
        scale = max(float(np.abs(pts).max()), 1e-9)
    verts = _dedup(pts, tol.dedup * scale)
    if len(verts) < 4:
        _classify_failure(N, b, "fewer than four vertices")
    key = np.round(verts / (tol.dedup * scale)).astype(np.int64)
    verts = verts[np.lexsort((key[:, 2], key[:, 1], key[:, 0]))]
    on_plane = np.abs(verts @ N.T - b) <= tol.coplanarity * scale
    faces, kept = [], []
    for f in range(len(hs)):
        idx = np.nonzero(on_plane[:, f])[0]
        if len(idx) >= 3:
            faces.append(_sort_cycle(verts[idx], idx, N[f]))
            kept.append(f)
    if len(faces) < 4:
        _classify_failure(N, b, "fewer than four faces")
    try:
        poly = Polyhedron(verts, tuple(faces), tuple(hs[f] for f in kept))
    except NonManifold:
        _classify_failure(N, b, "not edge-manifold")
    if poly.n_vertices - poly.n_edges + poly.n_faces != 2:
        _classify_failure(N, b, "Euler characteristic")
    if any(poly.face_area(f) <= 0 for f in range(poly.n_faces)):
        _classify_failure(N, b, "nonpositive face area")
    if volume(poly) <= 0:
        raise InconsistentOrientation("nonpositive volume")
    return poly


def _outcome(build, hs):
    try:
        return build(hs)
    except GeometryError as exc:
        return type(exc)


def _assert_matches_oracle(hs):
    _assert_matches_loop_build(hs)
    want, got = _outcome(_triple_from_halfspaces, hs), _outcome(from_halfspaces, hs)
    if isinstance(want, type):
        assert got is want
        return
    assert isinstance(got, Polyhedron)
    assert got.vertices.shape == want.vertices.shape
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.faces == want.faces
    assert [id(h) for h in got.halfspaces] == [id(h) for h in want.halfspaces]


def _halfspaces(normals, offsets):
    return [HalfSpace(n, o) for n, o in zip(normals, offsets)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(4, 40), far=st.integers(0, 6))
def test_random_bodies_match_oracle(seed, m, far):
    rng = np.random.default_rng(seed)
    far = min(far, m - 4)
    normals = rng.normal(size=(m, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = list(rng.uniform(0.6, 1.3, size=m - far)) + list(rng.uniform(3.0, 30.0, size=far))
    _assert_matches_oracle(_halfspaces(normals, offsets))


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda t: t.name)
def test_catalog_types_match_oracle(entry):
    _assert_matches_oracle(_halfspaces([row[:3] for row in entry.halfspaces],
                                       [row[3] for row in entry.halfspaces]))


@pytest.mark.parametrize("n", range(3, 25))
def test_pyramids_match_oracle(n):
    _assert_matches_oracle(ngon_pyramid(n, 1.0, 1.3).halfspaces)


def test_cube_and_octahedron_match_oracle():
    _assert_matches_oracle(cube().halfspaces)
    _assert_matches_oracle(octahedron().halfspaces)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 200))
def test_plane_frames_match_one_face_frames(seed, m):
    rng = np.random.default_rng(seed)
    N = rng.normal(size=(m, 3))
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    # axis normals tie on their smallest component
    N = np.vstack([N, np.eye(3), -np.eye(3)])
    T1, T2 = plane_bases(N)
    for n, t1, t2 in zip(N, T1, T2):
        w1, w2 = _plane_basis(n)
        assert t1.tobytes() == w1.tobytes() and t2.tobytes() == w2.tobytes()


# ---------------------------------------------------------------------------
# the array passes of the build against its per-vertex and per-face loops
# ---------------------------------------------------------------------------

def _loop_sort_cycle(points, idx, t1, t2):
    """Vertex indices ordered counterclockwise in the plane frame (t1, t2),
    and twice the signed area of that cycle about the face's centroid."""
    rel = points - points.mean(axis=0)
    x, y = rel @ t1, rel @ t2
    order = np.argsort(np.arctan2(y, x), kind="stable")
    x, y = x[order].tolist(), y[order].tolist()
    twice_area = sum(x[k - 1] * y[k] - y[k - 1] * x[k] for k in range(len(x)))
    return tuple(int(idx[k]) for k in order), twice_area


def _loop_from_halfspaces(halfspaces):
    hs = list(halfspaces)
    if len(hs) < 4:
        raise UnboundedIntersection("fewer than four halfspaces cannot bound a volume")
    N = np.array([h.normal for h in hs])
    b = np.array([h.offset for h in hs])
    c = interior_point(N, b)
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            hsi = HalfspaceIntersection(np.hstack([N, -b[:, None]]), c)
    except QhullError as exc:
        if np.linalg.matrix_rank(np.hstack([N, b[:, None]])) < 4:
            raise UnboundedIntersection("the planes bound a cylinder or a cone")
        raise DegenerateInput(f"qhull failed: {exc}")
    if (hsi.dual_equations[:, 3] >= 0).any():
        raise UnboundedIntersection("the dual hull does not enclose the interior point")
    R, slack = plane_incidence(hsi.intersections, N, b, c)
    incident = np.unique(np.abs(R) <= slack, axis=0)
    sets = [np.flatnonzero(row) for row in incident]
    triples = np.array([t for s in sets for t in itertools.combinations(s, 3)]).reshape(-1, 3)
    owner = np.repeat(np.arange(len(sets)), [math.comb(len(s), 3) for s in sets])
    good = np.abs(np.linalg.det(N[triples])) > DEFAULT_TOLERANCES.plane_triple
    owner = owner[good]
    if len(set(owner)) < len(sets):
        raise DegenerateInput("a vertex lies on no three independent planes")
    sol = np.linalg.solve(N[triples[good]], b[triples[good]][..., None])[..., 0]
    verts = np.array([g.mean(axis=0) for g in np.split(sol, np.flatnonzero(np.diff(owner)) + 1)])
    step = DEFAULT_TOLERANCES.dedup * float(np.abs(verts).max())
    key = np.round(verts / step).astype(np.int64)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    verts, on_plane = verts[order], incident[order]
    faces, kept, flat = [], [], False
    T1, T2 = plane_bases(N)
    for f in range(len(hs)):
        idx = np.nonzero(on_plane[:, f])[0]
        if len(idx) < 3:
            continue
        cyc, twice_area = _loop_sort_cycle(verts[idx], idx, T1[f], T2[f])
        faces.append(cyc)
        kept.append(f)
        flat = flat or twice_area <= 0.0
    if len(faces) < 4:
        raise DegenerateInput("fewer than four supporting faces")
    try:
        poly = Polyhedron(verts, tuple(faces), tuple(hs[f] for f in kept))
    except NonManifold:
        raise DegenerateInput("vertex/face incidence is not edge-manifold")
    if poly.n_vertices - poly.n_edges + poly.n_faces != 2:
        raise DegenerateInput("Euler characteristic is not 2")
    if flat:
        raise DegenerateInput("a face has nonpositive oriented area")
    return poly


def _assert_matches_loop_build(hs):
    """The same vertex bytes, faces and kept halfspaces as the loop build,
    or the same error; returns the outcome's type."""
    try:
        want = _loop_from_halfspaces(hs)
    except GeometryError as exc:
        with pytest.raises(type(exc)) as info:
            from_halfspaces(hs)
        assert type(info.value) is type(exc) and info.value.args == exc.args
        return type(exc)
    got = from_halfspaces(hs)
    assert got.vertices.shape == want.vertices.shape
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.faces == want.faces
    assert [id(h) for h in got.halfspaces] == [id(h) for h in want.halfspaces]
    return Polyhedron


def test_noisy_pyramids_match_the_loop_build():
    # pyramid rows plus Gaussian noise: the apex's many near-incident
    # planes give long triple runs, and some noise cells raise
    rng = np.random.default_rng(5)
    seen = set()
    for n in range(3, 25):
        rows = np.array([[*h.normal, h.offset] for h in ngon_pyramid(n, 1.0, 1.3).halfspaces])
        seen.add(_assert_matches_loop_build(_halfspaces(rows[:, :3], rows[:, 3])))
        for eps in (1e-10, 1e-8, 1e-6):
            for _ in range(4):
                noisy = rows + eps * rng.normal(size=rows.shape)
                seen.add(_assert_matches_loop_build(_halfspaces(noisy[:, :3], noisy[:, 3])))
    assert seen == {Polyhedron, DegenerateInput}


def test_random_bodies_with_redundant_planes_match_the_loop_build():
    # each body gains a plane clear of it, one touching a vertex and one
    # touching an edge: dropped faces and points on four or five planes
    for seed in range(400):
        rng = np.random.default_rng(seed)
        P = random_convex(rng, n_faces=4 + seed % 27)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        i, j = P.edges[int(rng.integers(P.n_edges))]
        m = P.halfspaces[P.edge_faces(P.edge_index(i, j))[0]].normal
        m = m + P.halfspaces[P.edge_faces(P.edge_index(i, j))[1]].normal
        m /= np.linalg.norm(m)
        extra = [HalfSpace(n, float((P.vertices @ n).max()) + 0.3 * P.diameter()),
                 HalfSpace(-n, float((P.vertices @ -n).max())),
                 HalfSpace(m, float(P.vertices[i] @ m))]
        assert _assert_matches_loop_build(list(P.halfspaces) + extra) is Polyhedron


# ---------------------------------------------------------------------------
# branches of the qhull path
# ---------------------------------------------------------------------------

def test_open_box_around_the_origin_is_unbounded():
    # the origin is strictly inside all five planes, so no LP runs and only
    # the dual hull can tell that the top is open
    normals = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]]
    with pytest.raises(UnboundedIntersection):
        from_halfspaces(_halfspaces(np.array(normals, dtype=float), [1.0] * 5))


def test_planes_parallel_to_one_line_are_unbounded():
    normals = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]
    with pytest.raises(UnboundedIntersection):
        from_halfspaces(_halfspaces(np.array(normals, dtype=float), [1.0] * 4))


def test_tiny_corner_cuts_keep_their_face():
    # a triangle some 1e-9 of the cube's size: summed about the body's
    # centroid its area takes a sign from rounding, but its own sorted
    # cycle is counterclockwise
    rng = np.random.default_rng(0)
    faces, corner = list(cube().halfspaces), np.full(3, 0.5)
    for _ in range(1000):
        n = np.ones(3) + rng.uniform(-0.3, 0.3, size=3)
        n /= np.linalg.norm(n)
        depth = rng.uniform(1.5e-9, 4e-9)
        P = from_halfspaces(faces + [HalfSpace(n, float(n @ corner) - depth)])
        assert sorted(len(c) for c in P.faces) == [3, 4, 4, 4, 5, 5, 5]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(5, 20),
       direction=st.integers(0, 10_000))
# a flat body whose world-frame volume came out negative at 1e6 x
@example(seed=48, n_faces=5, direction=1)
# at 1e6 x the interior point once came from an LP solved only to its
# feasibility tolerance: qhull found it on a plane (2803, 167) or the dual
# hull did not enclose it (1401)
@example(seed=2803, n_faces=5, direction=0)
@example(seed=1401, n_faces=5, direction=0)
@example(seed=167, n_faces=6, direction=0)
def test_shifted_planes_keep_type_and_ratio(seed, n_faces, direction):
    # every plane moved by the same vector of length up to 1e6 x diameter;
    # the shifted build keeps the type and m, to 1e-13 x (1 + shift), and
    # matches the loop build
    P = random_convex(np.random.default_rng(seed), n_faces=n_faces)
    m = melzak_ratio(P)
    u = np.random.default_rng(direction).normal(size=3)
    for shift in (1e-2, 1e2, 1e4, 1e6):
        d = shift * P.diameter() * u / np.linalg.norm(u)
        hs = [HalfSpace(h.normal, h.offset + h.normal @ d) for h in P.halfspaces]
        _assert_matches_loop_build(hs)
        Q = from_halfspaces(hs)
        assert Q.type_key() == P.type_key()
        assert melzak_ratio(Q) == pytest.approx(m, rel=1e-13 * (1 + shift), abs=0.0)

