"""``from_halfspaces``: qhull construction against the plane-triple oracle.

``_triple_from_halfspaces`` below is the construction the package used
before qhull: every plane triple with a nonsingular 3x3 system is solved,
points outside some halfspace are dropped at a scale guessed in two passes,
and the survivors are merged greedily. It stays here as the oracle the qhull
path is checked against: vertices, faces and kept halfspaces bit for bit,
and the exception class on failure. ``_plane_basis`` and ``_sort_cycle``
are the one-face-at-a-time frame and cycle sort it used.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import octahedron
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
    # the shifted build keeps the type and m, to 1e-13 x (1 + shift)
    P = random_convex(np.random.default_rng(seed), n_faces=n_faces)
    m = melzak_ratio(P)
    u = np.random.default_rng(direction).normal(size=3)
    for shift in (1e-2, 1e2, 1e4, 1e6):
        d = shift * P.diameter() * u / np.linalg.norm(u)
        Q = from_halfspaces([HalfSpace(h.normal, h.offset + h.normal @ d) for h in P.halfspaces])
        assert Q.type_key() == P.type_key()
        assert melzak_ratio(Q) == pytest.approx(m, rel=1e-13 * (1 + shift), abs=0.0)

