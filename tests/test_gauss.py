"""Spherical vertex images, angle deficits, exposure, and incircles."""

import dataclasses
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import crater_can, crater_cavity, match_vertex, octahedron, tangent_body
from melzak import (
    criticality_report,
    cube,
    load_catalog,
    ngon_pyramid,
    optimal_prism,
    optimal_pyramid,
    random_convex,
    regular_tetrahedron,
)
from melzak import gauss
from melzak.criteria import check_vertex_curvature
from melzak.errors import (
    DegenerateInput,
    DegeneratePolygon,
    GeometryError,
    NonConvexPolygon,
    NotExposed,
)
from melzak.perturbations import (
    Perturbation,
    _report,
    perturbed_halfspaces,
    vertex_truncate_derivatives,
)
from melzak.vec3 import norm
from melzak.gauss import (
    EXPOSED,
    NEGATIVELY_EXPOSED,
    NEITHER,
    SphericalPolygon,
    angle_deficit,
    complement_gauss_image,
    dihedral_angle,
    exposure,
    gauss_image,
    incircle_area_bounds,
    spherical_area,
    spherical_incircle,
    vertex_image,
    vertex_table,
)


def arc(a, b):
    return math.atan2(np.linalg.norm(np.cross(a, b)), float(a @ b))


# ---------------------------------------------------------------------------
# deficits and dihedrals
# ---------------------------------------------------------------------------

def test_cube_corner_deficit():
    C = cube()
    for v in range(8):
        assert angle_deficit(C, v) == pytest.approx(math.pi / 2, abs=1e-12)


def test_tetra_deficit():
    T = regular_tetrahedron()
    for v in range(4):
        assert angle_deficit(T, v) == pytest.approx(math.pi, abs=1e-12)


def test_deficit_sum_is_4pi():
    for P in (cube(), regular_tetrahedron(), optimal_prism(),
              octahedron(), ngon_pyramid(7, 1.0, 0.4)):
        total = sum(angle_deficit(P, v) for v in range(P.n_vertices))
        assert total == pytest.approx(4 * math.pi, abs=1e-10)


def test_dihedral_values():
    assert dihedral_angle(cube(), 0) == pytest.approx(math.pi / 2, abs=1e-12)
    T = regular_tetrahedron()
    for e in range(T.n_edges):
        assert dihedral_angle(T, e) == pytest.approx(math.acos(1 / 3), abs=1e-12)


# ---------------------------------------------------------------------------
# spherical images
# ---------------------------------------------------------------------------

def test_cube_corner_image_is_octant():
    g = gauss_image(cube(), 0)
    assert spherical_area(g) == pytest.approx(math.pi / 2, abs=1e-12)


def test_image_area_equals_deficit():
    rng = np.random.default_rng(5)
    for _ in range(5):
        P = random_convex(rng)
        for v in range(P.n_vertices):
            a = spherical_area(gauss_image(P, v))
            assert a == pytest.approx(angle_deficit(P, v), abs=1e-10)


def test_image_sides_are_pi_minus_dihedral():
    for P in (optimal_prism(), ngon_pyramid(5, 1.0, 0.7)):
        for v in range(P.n_vertices):
            pts = gauss_image(P, v).points
            for t, nb in enumerate(P.topology.fan(v)[1]):
                e = P.edge_index(v, nb)
                want = math.pi - dihedral_angle(P, e)
                assert arc(pts[t], pts[(t + 1) % len(pts)]) == pytest.approx(
                    want, abs=1e-12)


# ---------------------------------------------------------------------------
# incircles
# ---------------------------------------------------------------------------

def test_octant_incircle():
    inc = spherical_incircle(gauss_image(cube(), 0))
    assert inc.radius == pytest.approx(math.asin(1 / math.sqrt(3)), abs=1e-9)
    assert np.allclose(inc.center, -np.ones(3) / math.sqrt(3), atol=1e-9) or \
        np.allclose(np.abs(inc.center), np.ones(3) / math.sqrt(3), atol=1e-9)
    assert np.arcsin(gauss_image(cube(), 0).poles @ inc.center) == pytest.approx([inc.radius] * 3)


def test_incircle_area_bounds_hold():
    rng = np.random.default_rng(11)
    for _ in range(8):
        P = random_convex(rng)
        for v in range(P.n_vertices):
            g = gauss_image(P, v)
            inc = spherical_incircle(g)
            lo, hi = incircle_area_bounds(inc.radius)
            area = spherical_area(g)
            assert lo < area + 1e-12
            assert area <= hi + 1e-12


# The pole path before it was merged into one pass: orient, check every
# side, then orient the re-wrapped points again and take the poles anew.
# Its lengths use vec3.norm, so the comparison isolates the merge from the
# change of norm. Its arccos area now serves only for the exception class:
# the value is checked against a 40-digit evaluation, which the arccos form
# misses by up to 2e-8 (the flat triangle).

def _oracle_oriented(points):
    c = points.mean(axis=0)
    score = 0.0
    for i in range(len(points)):
        score += np.cross(points[i], points[(i + 1) % len(points)]) @ c
    return points if score >= 0 else points[::-1]


def _oracle_check_convex(points, tol):
    n = len(points)
    for i in range(n):
        pole = np.cross(points[i], points[(i + 1) % n])
        length = norm(pole)
        if length <= tol:
            raise DegeneratePolygon("consecutive points are parallel or antipodal")
        pole /= length
        if (points @ pole < -tol).any():
            raise NonConvexPolygon("polygon crosses one of its own geodesics")


def _oracle_side_poles(poly):
    pts = _oracle_oriented(poly.points)
    poles = np.zeros((len(pts), 3))
    for i in range(len(pts)):
        pole = np.cross(pts[i], pts[(i + 1) % len(pts)])
        length = norm(pole)
        if length <= 1e-13:
            raise DegeneratePolygon("degenerate side")
        poles[i] = pole / length
    return poles


def _oracle_area(poly):
    pts = _oracle_oriented(poly.points)
    if len(pts) < 3:
        raise DegeneratePolygon("area needs at least 3 points")
    _oracle_check_convex(pts, 1e-12)
    n = len(pts)
    total = 0.0
    for i in range(n):
        p = pts[i]
        a = pts[(i - 1) % n] - (pts[(i - 1) % n] @ p) * p
        b = pts[(i + 1) % n] - (pts[(i + 1) % n] @ p) * p
        na, nb = norm(a), norm(b)
        if na <= 1e-14 or nb <= 1e-14:
            raise DegeneratePolygon("repeated point in polygon")
        total += np.arccos(np.clip((a @ b) / (na * nb), -1.0, 1.0))
    return total - (n - 2) * np.pi


def _oracle_incircle(poly, tol=1e-9):
    pts = _oracle_oriented(poly.points)
    _oracle_check_convex(pts, 1e-12)
    poles = _oracle_side_poles(SphericalPolygon(pts))
    candidates = []
    for i, j in itertools.combinations(range(len(poles)), 2):
        s = poles[i] + poles[j]
        if norm(s) > 1e-12:
            candidates.append(s / norm(s))
    for i, j, k in itertools.combinations(range(len(poles)), 3):
        d = np.cross(poles[i] - poles[j], poles[j] - poles[k])
        if norm(d) > 1e-12:
            candidates += [d / norm(d), -d / norm(d)]
    if not candidates:
        raise DegeneratePolygon("no incircle candidates")
    best_c, best_r = None, -np.inf
    for c in candidates:
        r = float(np.min(np.arcsin(np.clip(poles @ c, -1.0, 1.0))))
        if r > best_r:
            best_r, best_c = r, c
    if best_r <= tol or best_r >= np.pi / 2:
        raise DegeneratePolygon("incircle radius out of range")
    return best_r


def _mp_area(poly) -> float:
    """Interior-angle excess of the polygon's float points, evaluated with
    40 digits: each angle by atan2 of the tangent vectors at its corner."""
    with mpmath.workdps(40):
        pts = [mpmath.matrix([mpmath.mpf(float(x)) for x in p]) for p in poly.points]
        n = len(pts)
        total = mpmath.mpf(0)
        for i in range(n):
            p = pts[i]
            a = pts[i - 1] - (pts[i - 1].T * p)[0] * p
            b = pts[(i + 1) % n] - (pts[(i + 1) % n].T * p)[0] * p
            c = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                 a[0] * b[1] - a[1] * b[0]]
            total += mpmath.atan2(mpmath.sqrt(sum(x * x for x in c)), (a.T * b)[0])
        return float(total - (n - 2) * mpmath.pi)


def _outcome(fn, poly):
    try:
        return "ok", fn(poly)
    except (DegeneratePolygon, NonConvexPolygon) as exc:
        return type(exc).__name__, None


def _bodies():
    bodies = [t.build() for t in load_catalog()]
    bodies += [optimal_pyramid(n) for n in range(3, 25)]
    bodies += [random_convex(np.random.default_rng(s)) for s in range(60)]
    return bodies


def _vertex_images():
    images = [gauss_image(P, v) for P in _bodies() for v in range(P.n_vertices)]
    # a repeated point, a reflex point, a flat triangle and a two-gon
    e = np.eye(3)
    bent = np.array([e[0], e[1], e[2], (e[0] + e[1] + 3 * e[2]) / math.sqrt(11)])
    flat = np.array([e[0], (e[0] + e[1]) / math.sqrt(2), e[1]])
    images += [SphericalPolygon(pts) for pts in
               (np.array([e[0], e[0], e[1], e[2]]), bent, flat, e[:2])]
    return images


def test_one_pole_pass_matches_the_oracle():
    classes = set()
    for g in _vertex_images():
        kind, got = _outcome(spherical_area, g)
        assert kind == _outcome(_oracle_area, g)[0]
        if kind == "ok":
            assert got == pytest.approx(_mp_area(g), abs=1e-14)
        classes.add(kind)
        kind, got = _outcome(spherical_incircle, g)
        want_kind, want = _outcome(_oracle_incircle, g)
        assert kind == want_kind
        if kind == "ok":
            assert got.radius == pytest.approx(want, abs=1e-14)
        classes.add(kind)
    assert classes == {"ok", "DegeneratePolygon", "NonConvexPolygon"}


def test_each_image_takes_its_poles_once(monkeypatch):
    # area and incircle of one image share one pole pass; a bad polygon
    # keeps no poles and raises again on every read
    prop = SphericalPolygon.__dict__["poles"]
    passes = []
    monkeypatch.setattr(prop, "func", lambda poly, take=prop.func: passes.append(1) or take(poly))
    raised = set()
    for g in _vertex_images():
        passes.clear()
        kind = _outcome(lambda poly: poly.poles, g)[0]
        if kind == "ok":
            _outcome(spherical_area, g)
            _outcome(spherical_incircle, g)
            assert len(passes) == 1
            assert g.poles is g.poles and not g.poles.flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                g.poles = None
        else:
            assert _outcome(spherical_incircle, g)[0] == kind
            assert "poles" not in vars(g) and len(passes) == 2
            raised.add(kind)
    assert raised == {"DegeneratePolygon", "NonConvexPolygon"}


# The single-polygon loops before the kernels ran on stacks: the pole pass,
# the candidate scan and the area sum one polygon at a time, and the cut
# rate one fan edge at a time. The kernels must give their bits.

def _loop_poles(points):
    n = len(points)
    sides = [np.cross(points[i], points[(i + 1) % n]) for i in range(n)]
    c = points.mean(axis=0)
    if sum(s @ c for s in sides) < 0:
        points = points[::-1]
        sides = [-s for s in sides[-2::-1] + sides[-1:]]
    poles = np.empty((n, 3))
    for i, side in enumerate(sides):
        length = norm(side)
        if length <= 1e-12:
            raise DegeneratePolygon("consecutive points are parallel or antipodal")
        poles[i] = side / length
        if (points @ poles[i] < -1e-12).any():
            raise NonConvexPolygon("polygon crosses one of its own geodesics")
    return poles


def _loop_area(poles):
    return 2.0 * np.pi - sum(np.arctan2(norm(np.cross(a, b)), a @ b)
                             for a, b in zip(np.roll(poles, 1, axis=0), poles))


def _loop_incircle(poles):
    candidates = []
    for i, j in itertools.combinations(range(len(poles)), 2):
        s = poles[i] + poles[j]
        if norm(s) > 1e-12:
            candidates.append(s / norm(s))
    for i, j, k in itertools.combinations(range(len(poles)), 3):
        d = np.cross(poles[i] - poles[j], poles[j] - poles[k])
        if norm(d) > 1e-12:
            candidates += [d / norm(d), -d / norm(d)]
    if not candidates:
        raise DegeneratePolygon("no incircle candidates")
    best_c, best_r = None, -np.inf
    for c in candidates:
        r = float(np.min(np.arcsin(np.clip(poles @ c, -1.0, 1.0))))
        if r > best_r:
            best_r, best_c = r, c
    if best_r <= 1e-9:
        raise DegeneratePolygon("polygon is flat: incircle radius is zero")
    if best_r >= np.pi / 2:
        raise DegeneratePolygon("incircle radius reached pi/2")
    return best_c, best_r


def _loop_cut(P, v, c):
    normals = list(P.planes[0][list(P.topology.fan(v)[0])])
    gs = []
    for a, b in zip(normals, normals[1:] + normals[:1]):
        d = np.cross(a, b)
        if abs(d @ c) <= 1e-13:
            raise DegenerateInput("vertex slides along a direction parallel to the moving plane")
        gs.append(d / (d @ c))
    dE = float(sum(norm(g - h) - norm(g) for g, h in zip(gs, gs[1:] + gs[:1])))
    return _report(P, Perturbation("vertex_truncate", v), dE, 0.0, {v: dE}).to_dict()


def _fact_outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except GeometryError as exc:
        return type(exc), exc.args


def _loop_vertex(P, v):
    """Every fact of vertex v, one polygon at a time: its image points,
    poles and incircle centre as bytes, the incircle radius, the area, and
    the outcome of its cut report."""
    cls = exposure(P, v)
    if cls == NEITHER:
        raise NotExposed(f"vertex {v} is neither exposed nor negatively exposed")
    image = gauss_image(P, v) if cls == EXPOSED else complement_gauss_image(P, v)
    poles = _loop_poles(image.points)
    centre, radius = _loop_incircle(poles)
    return (image.points.tobytes(), poles.tobytes(), centre.tobytes(), radius,
            _loop_area(poles), _fact_outcome(_loop_cut, P, v, centre))


def _table_vertex(P, v):
    """The same facts as the vertex table holds them."""
    image, inc, area, _ = vertex_image(P, v)
    cut = _fact_outcome(lambda: vertex_truncate_derivatives(P, v).to_dict())
    return (image.points.tobytes(), image.poles.tobytes(), inc.center.tobytes(), inc.radius,
            area, cut)


def _single_vertex(P, v):
    """The facts but the cut from the single-polygon functions, on a fresh image."""
    single = (gauss_image if exposure(P, v) == EXPOSED else complement_gauss_image)(P, v)
    inc = spherical_incircle(single)
    return (single.points.tobytes(), single.poles.tobytes(), inc.center.tobytes(), inc.radius,
            spherical_area(single))


def test_vertex_table_matches_the_single_polygon_loops_bit_for_bit():
    # the crater's pit is negatively exposed, and its rim neither
    seen = set()
    for P in _bodies() + [crater_can()[0]]:
        for v in range(P.n_vertices):
            want = _fact_outcome(_loop_vertex, P, v)
            assert _fact_outcome(_table_vertex, P, v) == want, v
            if want[0] == "ok":
                assert _fact_outcome(_single_vertex, P, v) == ("ok", want[1][:5])
                seen.add(exposure(P, v))
            seen.add(want[0])
    assert seen == {"ok", EXPOSED, NEGATIVELY_EXPOSED, NotExposed}


def test_vertex_table_makes_no_face_by_vertex_array():
    P = tangent_body(1000)
    F, V = P.n_faces, P.n_vertices
    assert (F, V) == (1000, 1996)
    P.dihedral_range, P.planes  # the body's cached geometry, which the table reads
    tracemalloc.start()
    try:
        vertex_table(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * F * V  # half of one (F, V) integer array


def test_a_body_takes_one_table_pass(monkeypatch):
    # however many of a body's vertices are read, and by whichever reader,
    # each vertex goes through the kernels once; a failing vertex keeps its
    # error and raises a fresh instance of it on every read
    heights = []
    take = gauss._side_poles
    monkeypatch.setattr(gauss, "_side_poles",
                        lambda points: heights.append(len(points)) or take(points))
    for P in (ngon_pyramid(7, 1.0, 0.6), crater_can()[0], octahedron()):
        heights.clear()
        readable = [v for v in range(P.n_vertices) if exposure(P, v) != NEITHER]
        for _ in range(2):
            check_vertex_curvature(P)
            criticality_report(P)
            for v in range(P.n_vertices):
                for read in (vertex_image, vertex_truncate_derivatives):
                    _fact_outcome(read, P, v)
            for v in readable:
                if exposure(P, v) == EXPOSED:
                    perturbed_halfspaces(P, Perturbation("vertex_truncate", v), 0.1)
        assert sum(heights) == len(readable)
        assert len(heights) == len({P.vertex_degree(v) for v in readable})
        for v in set(range(P.n_vertices)) - set(readable):
            raised = []
            for _ in range(2):
                with pytest.raises(NotExposed, match=f"vertex {v} is neither") as info:
                    vertex_image(P, v)
                raised.append(info.value)
            assert raised[0] is not raised[1]
            assert isinstance(gauss.vertex_table(P).facts[v].image, NotExposed)


def _image_rates(points):
    poly = SphericalPolygon(points)
    return spherical_incircle(poly).radius, spherical_area(poly)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 12), height=st.floats(0.05, 5.0),
       pyramid=st.booleans(), quaternion=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       shift=st.integers(0, 11))
def test_incircle_and_area_are_invariant_under_rotation_and_relabelling(
        seed, n, height, pyramid, quaternion, shift):
    w, x, y, z = quaternion
    q = math.sqrt(w * w + x * x + y * y + z * z)
    assume(q > 0.1)
    w, x, y, z = w / q, x / q, y / q, z / q
    R = np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                  [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                  [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]])
    P = ngon_pyramid(n, 1.0, height) if pyramid else random_convex(np.random.default_rng(seed))
    for v in range(P.n_vertices):
        points = gauss_image(P, v).points
        radius, area = _image_rates(points)
        moved = np.roll(points @ R.T, shift % len(points), axis=0)
        radius2, area2 = _image_rates(moved)
        assert abs(radius2 - radius) <= 1e-12
        assert abs(area2 - area) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=1e-4, max_value=math.pi / 2 - 1e-4))
def test_incircle_bounds_ordering(theta):
    lo, hi = incircle_area_bounds(theta)
    assert 0 < lo < hi


# ---------------------------------------------------------------------------
# exposure and complements
# ---------------------------------------------------------------------------

def test_convex_vertices_exposed():
    for P in (cube(), octahedron(), optimal_prism()):
        assert all(exposure(P, v) == EXPOSED for v in range(P.n_vertices))


def test_crater_exposure_classes():
    CR, T, M, A = crater_can()
    assert exposure(CR, T) == NEITHER
    assert exposure(CR, M) == NEGATIVELY_EXPOSED
    assert exposure(CR, A) == NEGATIVELY_EXPOSED


def test_complement_image_matches_cavity_deficit():
    CR, T, M, A = crater_can()
    CAV = crater_cavity(CR, T)
    for v in (M, A):
        area = spherical_area(complement_gauss_image(CR, v))
        deficit = angle_deficit(CAV, match_vertex(CAV, CR.vertices[v]))
        assert area == pytest.approx(deficit, abs=1e-10)
