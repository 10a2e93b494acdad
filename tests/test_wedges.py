"""Protruding wedges, the quad residual system, and the seeded scan."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import frustum
from melzak import cube, from_halfspaces, HalfSpace, ngon_pyramid, random_convex, wedges
from melzak.errors import (
    BadParameter,
    CoincidentPoints,
    DegenerateInput,
    GeometryError,
    NotConvex,
    UnboundedIntersection,
    UnboundedWedge,
)
from melzak.gauss import angle_deficit, dihedral_angle
from melzak.perturbations import face_hinge_derivatives
from melzak.polyhedron import volume
from melzak.wedges import (
    _chain,
    _gauge,
    PyramidQuad,
    Wedge,
    cleancond_scan,
    is_good_wedge,
    normalize_wedge,
    protruding_wedge,
    pyramid_F,
    rectangle_deviation,
    wedge_R,
    wedge_top_curvature,
)


def top_face(P, min_nz=0.9, size=4):
    return next(f for f in range(P.n_faces)
                if P.face_normal(f)[2] > min_nz and len(P.faces[f]) == size)


# ---------------------------------------------------------------------------
# wedge construction
# ---------------------------------------------------------------------------

def test_cube_face_wedge_unbounded():
    with pytest.raises(UnboundedWedge):
        protruding_wedge(cube(), 0)


def test_frustum_tip_wedge_is_pyramid():
    F4 = frustum(4, 1.0, 1.0, 0.5)
    W = protruding_wedge(F4, top_face(F4))
    assert W.is_pyramid
    assert np.allclose(W.apex[0], [0, 0, 1], atol=1e-9)
    assert W.height == pytest.approx(0.5, abs=1e-9)
    assert volume(W.poly) == pytest.approx(
        0.5 ** 3 * volume(ngon_pyramid(4, 1.0, 1.0)), abs=1e-12)


JITTER = [np.array([0.05, 0.02, 0.04]), np.array([-0.03, 0.06, -0.02]),
          np.array([0.01, -0.05, 0.03]), np.array([-0.04, -0.01, -0.05])]


def test_jittered_host_gives_ridge():
    F4t = frustum(4, 1.0, 1.0, 0.45, jitter=JITTER)
    Wt = protruding_wedge(F4t, top_face(F4t))
    assert len(Wt.apex) == 2 and not Wt.is_pyramid
    assert ({tuple(np.round(x, 9)) for x in Wt.lateral}
            == {tuple(np.round(x, 9)) for x in Wt.apex})


def test_square_tip_is_good_wedge():
    # base side 1, apex height 1 over the center: base dihedrals arctan(2)
    FS = frustum(4, math.sqrt(0.5), 1.0, 0.5)
    WS = protruding_wedge(FS, top_face(FS))
    assert np.allclose(WS.base_dihedrals(), math.atan(2.0), atol=1e-9)
    assert is_good_wedge(WS)
    assert rectangle_deviation(WS) < 1e-12


def tent_host():
    hs = [HalfSpace(np.array([0.0, -1.0, 0.0]), 0.5),
          HalfSpace(np.array([0.0, 1.0, 0.0]), 0.5),
          HalfSpace(np.array([1.0, 0.0, 1.0]) / math.sqrt(2), 1.0),
          HalfSpace(np.array([-1.0, 0.0, 1.0]) / math.sqrt(2), 1.0),
          HalfSpace(np.array([0.0, 0.0, -1.0]), 0.0),
          HalfSpace(np.array([0.0, 0.0, 1.0]), 0.9)]
    return from_halfspaces(hs)


def test_tent_wedge_top_curvature():
    H = tent_host()
    cap = top_face(H, min_nz=1 - 1e-9)
    W = protruding_wedge(H, cap)
    assert len(W.apex) == 2
    defs = [angle_deficit(W.poly, i) for i in range(W.poly.n_vertices)
            if W.poly.vertices[i][2] > 0.9 + 1e-9]
    assert abs(defs[0] - defs[1]) < 1e-12
    assert wedge_top_curvature(W) == pytest.approx(min(defs), abs=1e-15)


@pytest.mark.parametrize("face", [99, 6, -1, 5.0, "0"])
def test_face_index_out_of_range_is_bad_parameter(face):
    F4 = frustum(4, 1.0, 1.0, 0.5)
    with pytest.raises(BadParameter, match="out of range 0..5"):
        protruding_wedge(F4, face)
    assert protruding_wedge(F4, np.int64(top_face(F4))).is_pyramid


def test_normalize_scales_longest_base_edge():
    F4t = frustum(4, 1.0, 1.0, 0.45, jitter=JITTER)
    WN = normalize_wedge(protruding_wedge(F4t, top_face(F4t)))
    assert WN.base_edge_lengths().max() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("s", [1e-30, 1e-12, 1e-6, 1e6])
def test_wedge_layer_does_not_depend_on_scale(s):
    # the jittered frustum scaled by s gives the unit host's wedge, its
    # lengths times s, to 9 digits
    H = frustum(4, 1.0, 1.0, 0.45, jitter=JITTER)
    f = top_face(H)
    W1, W = protruding_wedge(H, f), protruding_wedge(H.scaled(s), f)
    assert is_good_wedge(W) == is_good_wedge(W1)
    assert W.base_dihedrals() == pytest.approx(W1.base_dihedrals(), rel=1e-9, abs=0.0)
    assert wedge_top_curvature(W) == pytest.approx(wedge_top_curvature(W1), rel=1e-9, abs=0.0)
    assert W.height / s == pytest.approx(W1.height, rel=1e-9, abs=0.0)
    assert ([wedge_R(W, t) / s for t in range(4)]
            == pytest.approx([wedge_R(W1, t) for t in range(4)], rel=1e-9, abs=0.0))


# ---------------------------------------------------------------------------
# R versus host hinge rates
# ---------------------------------------------------------------------------

def assert_R_matches_hinges(host, face, W):
    cyc = host.faces[face]
    for t in range(4):
        i, j = cyc[(t + 2) % 4], cyc[(t + 3) % 4]   # opposite edge in host
        e = host.edge_index(i, j)
        dE = face_hinge_derivatives(host, face, e, "out").dE
        R = wedge_R(W, t)
        assert abs(R - dE) < 1e-9 * max(1.0, abs(dE))


def test_R_matches_hinge_dE():
    F4 = frustum(4, 1.0, 1.0, 0.5)
    assert_R_matches_hinges(F4, top_face(F4), protruding_wedge(F4, top_face(F4)))
    F4t = frustum(4, 1.0, 1.0, 0.45, jitter=JITTER)
    assert_R_matches_hinges(F4t, top_face(F4t), protruding_wedge(F4t, top_face(F4t)))
    H = tent_host()
    cap = top_face(H, min_nz=1 - 1e-9)
    assert_R_matches_hinges(H, cap, protruding_wedge(H, cap))


# ---------------------------------------------------------------------------
# the wedge built by matching coordinates: the oracle for the incidence rule
# ---------------------------------------------------------------------------

def vertex_by_distance(P, x):
    """Index of the vertex of P nearest x, within 1e-7 x max(1, diameter)."""
    d = np.linalg.norm(P.vertices - np.asarray(x), axis=1)
    i = int(np.argmin(d))
    if d[i] > 1e-7 * max(1.0, P.diameter()):
        raise DegenerateInput("point is not a vertex of the wedge")
    return i


def matched_wedge(P, face):
    """(base, apex, lateral, height, base dihedrals, top curvature) of the
    wedge over ``face``, each wedge vertex found from coordinates: the base
    is the vertices within 1e-8 x max(1, diameter) of the host plane, and
    each host corner is the wedge vertex nearest it."""
    if not P.convex:
        raise NotConvex("protruding wedges are defined on convex hosts")
    cyc = P.faces[face]
    if len(cyc) != 4:
        raise BadParameter(f"face {face} has {len(cyc)} vertices, need 4")
    side_hs = [P.halfspaces[P.topology.face_of[cyc[(t + 1) % 4], cyc[t]]] for t in range(4)]
    if len({id(h) for h in side_hs}) != 4:
        raise UnboundedWedge("face does not have four distinct neighbors")
    hf = P.halfspaces[face]
    try:
        poly = from_halfspaces(tuple(side_hs) + (HalfSpace(-hf.normal, -hf.offset),))
    except UnboundedIntersection:
        raise UnboundedWedge("adjacent planes do not close above the face")
    except GeometryError as exc:
        raise UnboundedWedge(f"wedge assembly failed: {exc}")

    base_pts = P.vertices[list(cyc)]
    heights = poly.vertices @ np.asarray(hf.normal, dtype=float) - hf.offset
    on_base = np.abs(heights) <= 1e-8 * max(1.0, P.diameter())
    apex_idx = [i for i in range(poly.n_vertices) if not on_base[i]]
    if not 1 <= len(apex_idx) <= 2:
        raise UnboundedWedge(f"wedge top has {len(apex_idx)} vertices, expected 1 or 2")
    if int(on_base.sum()) != 4:
        raise UnboundedWedge("wedge base does not match the host face")
    corners = [vertex_by_distance(poly, x) for x in base_pts]
    lateral = np.empty((4, 3))
    for k, v in enumerate(corners):
        partners = [u for u in poly.topology.neighbours(v) if not on_base[u]]
        if len(partners) != 1:
            raise UnboundedWedge("base vertex is not joined to exactly one top vertex")
        lateral[k] = poly.vertices[partners[0]]
    apex = poly.vertices[apex_idx]
    height = float(heights.max())
    dihedrals = np.zeros(4)
    if height >= 1e-12:
        dihedrals = np.array([dihedral_angle(poly, poly.edge_index(
            vertex_by_distance(poly, base_pts[i]), vertex_by_distance(poly, base_pts[(i + 1) % 4])))
            for i in range(4)])
    top = min(angle_deficit(poly, vertex_by_distance(poly, x)) for x in apex)
    return base_pts, apex, lateral, height, dihedrals, top


def incidence_wedge(P, face):
    """The same six values from protruding_wedge and its two readers."""
    W = protruding_wedge(P, face)
    return W.base, W.apex, W.lateral, W.height, W.base_dihedrals(), wedge_top_curvature(W)


def wedge_bytes(build, P, face):
    """The bytes of the six values, or the name of the error raised instead."""
    try:
        values = build(P, face)
    except GeometryError as exc:
        return type(exc).__name__.encode()
    return b"".join(np.asarray(x, dtype=float).tobytes() for x in values)


def ac8_hosts():
    """The hosts test_ac8_quad_layer draws before it has 50 good wedges."""
    from test_acceptance import _rect_pyramid_host

    rng = np.random.default_rng(606)
    hosts, n_good = [], 0
    while n_good < 50:
        H = _rect_pyramid_host(rng)
        top = next(f for f in range(H.n_faces)
                   if H.face_normal(f)[2] > 1 - 1e-9 and len(H.faces[f]) == 4)
        hosts.append(H)
        n_good += is_good_wedge(protruding_wedge(H, top))
    return hosts


WEDGE_HOSTS = {
    "fixtures": lambda: [cube(), frustum(4, 1.0, 1.0, 0.5),
                         frustum(4, 1.0, 1.0, 0.45, jitter=JITTER),
                         frustum(4, math.sqrt(0.5), 1.0, 0.5), tent_host()],
    "random": lambda: [random_convex(np.random.default_rng(s), 6 + s % 7) for s in range(300)],
    "ac8": ac8_hosts,
}

# sha256 of the wedge_bytes of every quad face of the hosts, in host then
# face order; (quad faces, wedges built) per family
WEDGE_DIGESTS = {
    "fixtures": "5cc421798619af78c31ac445bb76f0df7ead17480bc7f2c22bb4cae1ff7daac0",
    "random": "ad472c2cb06c062735e4517378fb408515cc467ddc95888e94b7b68b2f5cc746",
    "ac8": "bc08f9d4582bd4d60e4f31c8419f4778ecdc35e71febb2a1c2a410fbe5e2265d",
}
WEDGE_COUNTS = {"fixtures": (30, 6), "random": (948, 824), "ac8": (300, 50)}


@pytest.mark.parametrize("family", sorted(WEDGE_HOSTS))
def test_incidence_wedge_matches_distance_oracle(family):
    digest, faces, built = hashlib.sha256(), 0, 0
    for P in WEDGE_HOSTS[family]():
        for f in range(P.n_faces):
            if len(P.faces[f]) != 4:
                continue
            got = wedge_bytes(incidence_wedge, P, f)
            assert got == wedge_bytes(matched_wedge, P, f)
            digest.update(got)
            faces += 1
            built += len(got) > 100   # an error's record is its class name
    assert (faces, built) == WEDGE_COUNTS[family]
    assert digest.hexdigest() == WEDGE_DIGESTS[family]


# ---------------------------------------------------------------------------
# the planar quad system
# ---------------------------------------------------------------------------

def unit_square_quad():
    return PyramidQuad(np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=float))


def test_square_F_values():
    F = pyramid_F(unit_square_quad())
    assert all(abs(f - (math.sqrt(2) - 2)) < 1e-12 for f in F)


def test_F_homogeneous_degree_one():
    q = unit_square_quad()
    F = pyramid_F(q)
    Fs = pyramid_F(PyramidQuad(q.p * 3.7))
    assert all(abs(a - 3.7 * b) < 1e-12 for a, b in zip(Fs, F))


def test_F_rotation_invariant():
    q = unit_square_quad()
    th = 0.83
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    Fr = pyramid_F(PyramidQuad(q.p @ rot.T))
    assert all(abs(a - b) < 1e-12 for a, b in zip(Fr, pyramid_F(q)))


def test_apex_coincident_vertex_rejected():
    with pytest.raises(CoincidentPoints):
        PyramidQuad(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_quad_is_bad_parameter(bad):
    p = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=float)
    p[2, 1] = bad
    with pytest.raises(BadParameter, match="finite"):
        PyramidQuad(p)


def test_nonfinite_wedge_is_bad_parameter():
    base = np.array([[1, 1, 0], [-1, 1, 0], [-1, -1, 0], [1, -1, 0]], dtype=float)
    apex = np.array([[0.0, 0.0, 1.0]])
    Wedge(base, apex, np.repeat(apex, 4, axis=0), 1.0)
    with pytest.raises(BadParameter, match="finite"):
        Wedge(np.full((4, 3), np.nan), apex, np.repeat(apex, 4, axis=0), 1.0)
    far = np.array([[0.0, 0.0, math.inf]])
    with pytest.raises(BadParameter, match="finite"):
        Wedge(base, far, np.repeat(apex, 4, axis=0), 1.0)
    with pytest.raises(BadParameter, match="finite"):
        Wedge(base, apex, np.repeat(far, 4, axis=0), 1.0)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12, 1e12])
def test_wedge_base_planarity_is_relative_to_the_base(scale):
    # a base corner 5% of an edge out of plane is refused, and a planar
    # base accepted, however small or large the wedge
    base = np.array([[1, 1, 0], [-1, 1, 0], [-1, -1, 0], [1, -1, 0]], dtype=float)
    bent = base.copy()
    bent[2, 2] = 0.1
    apex = np.array([[0.0, 0.0, 1.0]])
    lateral = np.repeat(apex, 4, axis=0)
    Wedge(base * scale, apex * scale, lateral * scale, scale)
    with pytest.raises(BadParameter, match="planar"):
        Wedge(bent * scale, apex * scale, lateral * scale, scale)


def star_quad(gaps, radii):
    """Quad around the origin, vertices in angle order, gaps in proportion."""
    ang = np.cumsum(gaps) * (2 * math.pi / gaps.sum())
    return np.stack([radii * np.cos(ang), radii * np.sin(ang)], axis=1)


# every angle gap is under pi, so the origin is inside the quad
star_gaps = arrays(np.float64, 4, elements=st.floats(1.0, 2.0))
star_radii = arrays(np.float64, 4, elements=st.floats(0.3, 1.5))


@settings(max_examples=40, deadline=None)
@given(star_gaps, star_radii, st.integers(1, 3), st.floats(0.1, 10.0),
       st.floats(-math.pi, math.pi))
def test_F_relabel_scale_rotation(gaps, radii, shift, lam, th):
    p = star_quad(gaps, radii)
    F = pyramid_F(PyramidQuad(p))
    assert pyramid_F(PyramidQuad(np.roll(p, -shift, axis=0))) == F[shift:] + F[:shift]
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    Fm = pyramid_F(PyramidQuad(lam * p @ rot.T))
    assert all(abs(a - lam * b) <= 1e-12 * lam for a, b in zip(Fm, F))


def crosses(p):
    """Plain-Python segment test: does edge 12 cross 34, or 23 cross 41?"""
    def ccw(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def seg(a, b, c, d):
        return (((ccw(a, b, c) > 0) != (ccw(a, b, d) > 0))
                and ((ccw(c, d, a) > 0) != (ccw(c, d, b) > 0)))

    return seg(p[0], p[1], p[2], p[3]) or seg(p[1], p[2], p[3], p[0])


def reference_F(p):
    """F(1..4) of the flat pyramid, one vertex at a time in plain floats."""
    out = []
    for i in range(4):
        x, y = p[i]
        total = math.hypot(x, y)
        for j in ((i + 1) % 4, (i - 1) % 4):
            dx, dy = x - p[j][0], y - p[j][1]
            total -= (dx * x + dy * y) / math.hypot(dx, dy)
        out.append(total)
    return out


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.just(8)),
              elements=st.floats(-2.0, 2.0)),
       st.sampled_from(["none", "apex", "repeat", "bowtie"]))
def test_chain_rows_independent_and_guarded(X, degenerate):
    X = X.copy()
    if degenerate == "apex":
        X[::2, 4:6] = 0.0
    elif degenerate == "repeat":
        X[::2, 2:4] = X[::2, 0:2]
    elif degenerate == "bowtie":
        X[::2] = np.array([1, 1, -1, -1, -1, 1, 1, -1]) * (0.5 + np.abs(X[::2, :1]))
    S, F = _chain(X)
    assert S.shape == (len(X), 3) and F.shape == (len(X), 4)
    for i, row in enumerate(X):
        Si, Fi = _chain(row[None])
        assert Si.tobytes() == S[i:i + 1].tobytes()
        assert Fi.tobytes() == F[i:i + 1].tobytes()
        # the kernel tests crossings on the quad scaled to unit longest edge
        p = row.reshape(4, 2)
        longest = math.sqrt(max(dx * dx + dy * dy for dx, dy in np.roll(p, -1, axis=0) - p))
        if longest >= 1e-12 and crosses(p * (1.0 / longest)):
            assert (S[i] == math.inf).all()
    if degenerate != "none":
        assert (S[::2] == math.inf).all() and (F[::2] == math.inf).all()
    # rows far from every guard match the one-vertex-at-a-time formula, and
    # S is the chain (F1+F2, F2+F3, F3+F4) of the quad at unit longest edge
    for i in np.flatnonzero(np.isfinite(S).all(axis=1)):
        p = X[i].reshape(4, 2)
        edges = np.linalg.norm(np.roll(p, -1, axis=0) - p, axis=1)
        longest = edges.max()
        if min(np.linalg.norm(p, axis=1).min(), edges.min()) > 1e-3 * longest:
            ref = reference_F(p)
            assert np.allclose(F[i], ref, rtol=0, atol=1e-9 * longest)
            chain = [(a + b) / longest for a, b in zip(ref, ref[1:])]
            assert np.allclose(S[i], chain, rtol=0, atol=1e-9)


def test_flat_limit_matches_weighted_F():
    # as the wedge flattens, h * R tends to the distance-weighted F pair
    def family(h):
        base = np.array([[1.2, -0.8, 0], [1.0, 0.9, 0],
                         [-1.1, 0.7, 0], [-0.9, -1.0, 0]])
        apex = np.array([[0.15 * h, 0.1 * h, h]])
        return Wedge(base, apex, np.repeat(apex, 4, axis=0), h)

    base2 = family(1.0).base[:, :2]
    rho = []
    for i in (0, 1):
        A, B = base2[2], base2[3]
        axis = (B - A) / np.linalg.norm(B - A)
        rel = base2[i] - A
        rho.append(float(np.linalg.norm(rel - (rel @ axis) * axis)))
    errs = []
    for h in (1e-2, 1e-3, 1e-4):
        Wf = family(h)
        q = PyramidQuad(base2 - Wf.apex[0][:2])
        Fv = pyramid_F(q)
        errs.append(abs(h * wedge_R(Wf, 0) - (rho[0] * Fv[0] + rho[1] * Fv[1])))
    assert errs[-1] < 1e-3
    assert errs[-1] < errs[0]


def gauge_one(p):
    """The one-quad gauge formula, the reference for the batched _gauge."""
    edges = np.linalg.norm(np.roll(p, -1, axis=0) - p, axis=1)
    q = p / edges.max()
    c, s = q[0] / np.linalg.norm(q[0])
    rot = np.array([[c, s], [-s, c]])
    return q @ rot.T


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(star_gaps, star_radii, st.integers(0, 3), st.floats(-6.0, 6.0),
                          st.floats(-math.pi, math.pi)), min_size=1, max_size=6))
def test_batched_gauge_is_the_one_quad_gauge(quads):
    stack = []
    for gaps, radii, shift, log_scale, th in quads:
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        p = 10.0 ** log_scale * star_quad(gaps, radii) @ rot.T
        stack.append(np.roll(p, -shift, axis=0))
    P = np.array(stack)
    G = _gauge(P)
    for p, g in zip(P, G):
        assert g.tobytes() == gauge_one(p).tobytes()


# ---------------------------------------------------------------------------
# the seeded scan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("samples, seed", [(200, 1), (200, 7), (300, 13)])
def test_scan_reports_roots_as_printed(samples, seed):
    rep = cleancond_scan(samples, seed)
    assert rep.solutions
    for sol in rep.solutions:
        S, F = _chain(np.array(sol.to_dict()["p"]).reshape(1, 8))
        assert sol.residual == wedges._residual(S)[0] < 1e-10
        assert sol.maxF == np.abs(F).max()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_projection_rows_never_mix(seed):
    # a block of star starts, with rows of noise that include crossing and
    # collapsed quads, ends bit for bit where each row ends projected alone
    rng = np.random.default_rng(seed)
    X = _gauge(np.array([wedges._star(rng) for _ in range(48)])).reshape(48, 8)
    X = np.concatenate((X, rng.uniform(-1.0, 1.0, size=(16, 8))))
    X[-1] = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, -1.0, -1.0]
    alone = X.copy()
    wedges._project(X, 1e-10)
    for i in range(len(X)):
        wedges._project(alone[i:i + 1], 1e-10)
    assert X.tobytes() == alone.tobytes()


SCAN_DIGESTS = {
    (1, 0): "48189b374c71cbe6500ee08f0e711e8dbc012276d0e12981cc72c782087f49ad",
    (8, 5): "b5b1a1fdce3b6e01906ef2f4c3d95d5ceb858b61707cfd231e1ef9c65ab82ab0",
    (60, 1): "cdc64cc6ab96abf103310189e15dff3a35c0b6fa07a8690300a6b839aae80ea4",
    (200, 1): "b9c40b1f267d43d813e6147a3876da1b67ff7fc19046bd9569bd5d33fb146a6b",
    (1000, 1): "13ac088bc7a3b9a1b35d2f1a116de13747d084279b4457b37b6938975824d387",
}


@pytest.mark.parametrize("samples, seed", sorted(SCAN_DIGESTS))
def test_scan_bytes_pinned(samples, seed):
    text = cleancond_scan(samples, seed).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == SCAN_DIGESTS[samples, seed]


def test_scan_kernel_calls(monkeypatch):
    rows = []

    def counted(X):
        rows.append(len(X))
        return _chain(X)

    monkeypatch.setattr(wedges, "_chain", counted)
    cleancond_scan(200, seed=1)
    assert len(rows) <= 85 and max(rows) <= 16 * wedges._BLOCK


def test_scan_rejects_a_degenerate_solution(monkeypatch):
    # the projection ends on collapsed quads, on roots and on a near-root;
    # only the roots are reported
    roots = [s.p.ravel() for s in cleancond_scan(40, seed=1).solutions[:2]]
    near = roots[0] + 1e-6

    def collapse(X, tol):
        X[:] = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, -1.0, -1.0]   # p2 == p3
        X[1], X[3], X[4] = roots[0], roots[1], near

    monkeypatch.setattr(wedges, "_project", collapse)
    rep = cleancond_scan(6, seed=0)
    assert len(rep.solutions) == 2
    for sol in rep.solutions:
        assert any(np.allclose(sol.p.ravel(), p, rtol=0, atol=1e-11) for p in roots)


def test_scan_deterministic_and_sorted():
    rep = cleancond_scan(8, seed=5)
    assert rep.to_json() == cleancond_scan(8, seed=5).to_json()
    payload = json.loads(rep.to_json())
    assert list(payload) == ["samples", "seed", "solutions"]
    res = [s.residual for s in rep.solutions]
    assert res == sorted(res)
    assert isinstance(rep.counterexamples(), tuple)


def test_scan_seed1_counts():
    rep = cleancond_scan(200, seed=1)
    assert len(rep.solutions) == 171
    assert sum(s.origin_inside for s in rep.solutions) == 1
    assert len(rep.counterexamples()) == 1
    assert all(s.origin_inside for s in rep.counterexamples())


def test_scan_solution_fields():
    rep = cleancond_scan(40, seed=1)
    assert rep.solutions, "a 40-sample scan should already find solutions"
    s = rep.solutions[0]
    assert s.residual < 1e-10
    assert s.maxF > 0
    assert isinstance(s.two_adjacent_acute, bool)
    assert isinstance(s.origin_inside, bool)
    d = s.to_dict()
    assert set(d) >= {"p", "residual", "maxF", "two_adjacent_acute", "origin_inside"}
