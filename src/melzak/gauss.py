"""Spherical images of polyhedron vertices and related unit-sphere geometry.

The spherical image of a vertex collects the outward normals of its incident
faces in rotational order. Its sides are geodesic arcs whose lengths are pi
minus the interior dihedral angles of the corresponding edges, its area
equals the angle deficit, and its inscribed circle drives the vertex-cutting
perturbation.

Every vertex of a body is read from one table (``vertex_table``), built on
first read in one pass that classifies each vertex once: the vertices are
grouped by degree, and each group takes the corner rules of every fan face
and, for its exposed and negatively exposed vertices, the images, side
poles, incircles, areas and incircle-cut rates, in one set of array
operations. The corner rules are scattered onto the slots of the body's
padded corner table, where the face moves of ``perturbations`` read them
in one pass over every face. The single-polygon
``SphericalPolygon.poles``, ``spherical_area`` and ``spherical_incircle``
run the same kernels on a stack of one.
"""
from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import (
    BadParameter,
    DanglingVertex,
    DegenerateInput,
    DegeneratePolygon,
    GeometryError,
    NonConvexPolygon,
    NotExposed,
)
from .polyhedron import Polyhedron
from .vec3 import cross, lengths, ordered_sum, rowcross, rowdot, unit

EXPOSED = "exposed"
NEGATIVELY_EXPOSED = "negatively_exposed"
NEITHER = "neither"
FLAT_SLIDE = "vertex slides along a direction parallel to the moving plane"
_BLOCK = 1 << 20  # candidate-pole products an incircle search scores at once


@dataclass(frozen=True)
class SphericalPolygon:
    """Unit-sphere polygon given by its vertices in rotational order.

    Its side poles (``poles``) are derived once, on first read, and kept
    with it; ``spherical_area`` and ``spherical_incircle`` both read them,
    so a memoised image runs one pole pass for both."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 2:
            raise BadParameter("spherical polygon needs >= 2 points in R^3")
        pts, off = _unit_points(pts[None])
        _check_unit(off[0])
        pts = pts[0]
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @functools.cached_property
    def poles(self) -> np.ndarray:
        """Inward unit side poles, side i from point i to point i + 1, the
        points reversed first if consecutive cross products point against
        their mean. Side by side, a zero-length pole raises
        DegeneratePolygon and a point beyond the side's geodesic
        NonConvexPolygon, on every access: only a good polygon's poles are
        kept."""
        poles, flat, crossed = _side_poles(self.points[None])
        _check_sides(flat[0], crossed[0])
        poles = poles[0]
        poles.flags.writeable = False
        return poles


def _image(points: np.ndarray, poles: np.ndarray) -> SphericalPolygon:
    """The polygon of read-only unit ``points`` whose poles are ``poles``,
    without normalising or deriving either again."""
    poly = object.__new__(SphericalPolygon)
    object.__setattr__(poly, "points", points)
    poly.__dict__["poles"] = poles
    return poly


@dataclass(frozen=True)
class Incircle:
    center: np.ndarray
    radius: float


class VertexImage(NamedTuple):
    """What a body's vertex table holds as the image of a vertex with an
    incircle: its image, the image's incircle and area, and the dE of
    cutting the vertex with the plane normal to the incircle centre, or the
    DegenerateInput that the cut's rate raises."""

    image: SphericalPolygon
    incircle: Incircle
    area: float
    cut: float | GeometryError


class VertexFacts(NamedTuple):
    """What a body's vertex table holds for a vertex: its exposure class or
    the GeometryError ``exposure`` raises, and its VertexImage or the
    GeometryError ``vertex_image`` raises."""

    cls: str | GeometryError
    image: VertexImage | GeometryError


class VertexTable(NamedTuple):
    """A body's vertex table: ``facts``, vertex -> its VertexFacts, and the
    rules of every corner on the padded corner table
    (``Topology.corner_table``) as ``perturbations`` reads them: ``rules``
    (F, K, 2, 2), the (a, b) of the one-correspondent and of the split rule
    of the corner at slot t of face f, and ``failed`` (F, K, 2), each rule's
    GeometryError or None. Padding slots hold zeros and None."""

    facts: dict
    rules: np.ndarray
    failed: np.ndarray


# -- kernels on stacks of polygons ----------------------------------------
# Each takes polygons of one size stacked on the first axis. Lengths are
# ``lengths``', math.hypot of each row as vec3.norm takes them, dot
# products are ``rowdot``'s, and sums are ``ordered_sum``'s, so a polygon
# gets the same bits in a stack of any height.

def _unit_rows(rows: np.ndarray) -> tuple:
    """(rows scaled to unit length, their lengths); a row 1e-12 long or
    shorter is returned unscaled."""
    size = lengths(rows)
    return rows / np.where(size > 1e-12, size, 1.0)[..., None], size


def _unit_points(points: np.ndarray) -> tuple:
    """(points (G, k, 3) divided by their lengths, which polygons have a
    point whose length is off 1 by more than 1e-9); such a polygon is
    returned unscaled."""
    norms = np.linalg.norm(points, axis=-1)
    off = (np.abs(norms - 1.0) > 1e-9).any(axis=-1)
    return points / np.where(off[:, None], 1.0, norms)[..., None], off


def _check_unit(off: bool) -> None:
    """Raise BadParameter for a polygon with a point off the unit sphere."""
    if off:
        raise BadParameter("spherical polygon points must be unit vectors")


def _side_poles(points: np.ndarray) -> tuple:
    """(poles (G, k, 3), flat (G, k), crossed (G, k)) of unit polygons
    (G, k, 3): the side poles as ``SphericalPolygon.poles`` takes them, the
    sides 1e-12 long or shorter, and the sides some point lies beyond. Only
    a polygon with neither has poles (``_check_sides``)."""
    k = points.shape[1]
    sides = rowcross(points, np.roll(points, -1, axis=1))
    turn = ordered_sum(rowdot(sides, points.mean(axis=1)[:, None]))
    flip = (turn < 0)[:, None, None]
    if flip.any():
        # reversed order: side i is the negated old side k-2-i (mod k)
        points = np.where(flip, points[:, ::-1], points)
        sides = np.where(flip, -sides[:, (k - 2 - np.arange(k)) % k], sides)
    poles, size = _unit_rows(sides)
    flat = size <= 1e-12
    crossed = ((points[:, None] @ poles[..., None])[..., 0] < -1e-12).any(axis=-1)
    return poles, flat, crossed


def _check_sides(flat: np.ndarray, crossed: np.ndarray) -> None:
    """Raise the error of a polygon's first bad side, by its ``flat`` and
    ``crossed`` rows of ``_side_poles``."""
    bad = flat | crossed
    if bad.any():
        if flat[bad.argmax()]:
            raise DegeneratePolygon("consecutive points are parallel or antipodal")
        raise NonConvexPolygon("polygon crosses one of its own geodesics")


def _areas(poles: np.ndarray) -> np.ndarray:
    """Area of each polygon of good side poles (G, k, 3): 2*pi less the
    turning angles between consecutive poles, by atan2."""
    prev = np.roll(poles, 1, axis=1)
    turns = np.arctan2(lengths(rowcross(prev, poles)), rowdot(prev, poles))
    return 2.0 * np.pi - ordered_sum(turns)


def _candidates(poles: np.ndarray):
    """Blocks (C (G, m, 3), ok (G, m)) of the incircle candidates of each
    polygon, in order: the normalised bisector of each pole pair, then plus
    and minus the normalised equal-clearance direction of each pole triple;
    ``ok`` is false where the unnormalised candidate is 1e-12 long or
    shorter. A block scores at most about _BLOCK products."""
    G, k = poles.shape[:2]
    step = max(1, _BLOCK // (2 * G * k))
    pairs = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(k), 2)),
                        dtype=int).reshape(-1, 2)
    for s in range(0, len(pairs), step):
        i, j = pairs[s:s + step].T
        C, size = _unit_rows(poles[:, i] + poles[:, j])
        yield C, size > 1e-12
    triples = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(k), 3)),
                          dtype=int).reshape(-1, 3)
    for s in range(0, len(triples), step):
        i, j, l = triples[s:s + step].T
        C, size = _unit_rows(rowcross(poles[:, i] - poles[:, j], poles[:, j] - poles[:, l]))
        yield np.stack([C, -C], axis=2).reshape(G, -1, 3), np.repeat(size > 1e-12, 2, axis=1)


def _incircles(poles: np.ndarray) -> tuple:
    """(centres (G, 3), radii (G)) of the polygons of side poles (G, k, 3):
    each candidate scores the smallest arcsine of its dot product with a
    pole, and the first best candidate wins. A polygon without candidates
    has radius -inf; ``_check_radius`` judges the radius."""
    G = len(poles)
    rows = np.arange(G)
    centres, radii = np.zeros((G, 3)), np.full(G, -np.inf)
    for C, ok in _candidates(poles):
        score = np.arcsin(np.clip((poles[:, None] @ C[..., None])[..., 0], -1.0, 1.0))
        r = np.where(ok, score.min(axis=-1), -np.inf)
        best = r.argmax(axis=1)
        better = r[rows, best] > radii
        radii[better] = r[rows, best][better]
        centres[better] = C[rows, best][better]
    return centres, radii


def _check_radius(r: float) -> None:
    """Raise DegeneratePolygon for an incircle radius of ``_incircles`` that
    is not in (tangency, pi/2)."""
    if r == -np.inf:
        raise DegeneratePolygon("no incircle candidates")
    if r <= DEFAULT_TOLERANCES.tangency:
        raise DegeneratePolygon("polygon is flat: incircle radius is zero")
    if r >= np.pi / 2:
        raise DegeneratePolygon("incircle radius reached pi/2")


def slide_rule(n_a: np.ndarray, n_b: np.ndarray, n_move: np.ndarray) -> tuple:
    """(g, flat): the point on two static planes, unit normals ``n_a`` and
    ``n_b``, and on one of normal ``n_move`` moving through it at rdot
    moves at g * rdot, g = d / (d . n_move) with d = n_a x n_b; stacks of
    rows, the leading axes broadcast. A ``flat`` row slides parallel to the
    moving plane and has no rate (FLAT_SLIDE); its g is d."""
    d = rowcross(n_a, n_b)
    denom = rowdot(d, n_move)
    flat = np.abs(denom) <= 1e-13
    return d / np.where(flat, 1.0, denom)[..., None], flat


def _cut_rates(normals: np.ndarray, centres: np.ndarray) -> tuple:
    """(dE (G), flat (G)) of cutting vertices whose fans have face normals
    (G, k, 3) with the planes of normals ``centres`` (G, 3): the
    correspondent on the edge of fan faces n and n + 1 moves at -g_n, the
    ``slide_rule`` of n_n, n_n+1 and c, and dE sums |g_n - g_n+1| - |g_n|
    round the fan. A cut with a flat slide has no rate."""
    g, flat = slide_rule(normals, np.roll(normals, -1, axis=1), centres[:, None])
    terms = lengths(g - np.roll(g, -1, axis=1)) - lengths(g)
    return ordered_sum(terms), flat.any(axis=1)


# -- one polygon -----------------------------------------------------------

def gauss_image(P: Polyhedron, v: int) -> SphericalPolygon:
    """Spherical image of a vertex: incident outward normals in fan order."""
    return SphericalPolygon(P.planes[0][list(P.topology.fan(v)[0])])


def complement_gauss_image(P: Polyhedron, v: int) -> SphericalPolygon:
    """Spherical image of the vertex seen from the complement solid."""
    return SphericalPolygon(-P.planes[0][list(P.topology.fan(v)[0][::-1])])


def angle_deficit(P: Polyhedron, v: int) -> float:
    """2*pi minus the sum of incident face angles at ``v``."""
    total = 0.0
    for f, prev, nxt in P.topology.corners[v]:
        p = P.vertices[v]
        a = P.vertices[prev] - p
        b = P.vertices[nxt] - p
        n = P.face_normal(f)
        # signed interior angle; handles reflex polygon corners
        ang = np.arctan2(cross(b, a) @ n, a @ b)
        if ang < 0:
            ang += 2.0 * np.pi
        total += ang
    return 2.0 * np.pi - total


def spherical_area(poly: SphericalPolygon) -> float:
    """Area of a convex spherical polygon: 2*pi less the turning angles
    between consecutive side poles, by atan2, which keeps every digit."""
    if len(poly.points) < 3:
        raise DegeneratePolygon("area needs at least 3 points")
    return float(_areas(poly.poles[None])[0])


def spherical_incircle(poly: SphericalPolygon) -> Incircle:
    """Largest inscribed circle of a convex spherical polygon.

    Solves max over unit c of min_i distance(c, side_i) exactly by
    enumerating the stationary candidates: normalized pole-pair bisectors
    (two active sides) and equal-clearance points of pole triples, then
    keeping the feasible maximizer. Radius is clamped to (0, pi/2).
    """
    centres, radii = _incircles(poly.poles[None])
    radius = float(radii[0])
    _check_radius(radius)
    return Incircle(centres[0], radius)


# -- every vertex of a body ------------------------------------------------

def vertex_table(P: Polyhedron) -> VertexTable:
    """The body's VertexTable, built on first read in one pass over the
    vertices grouped by degree and memoised in ``P.tables``. Each degree's
    fans, rotated to start at each of their faces by one index array, take
    every corner rule at once and scatter it onto the corner-table slots; a
    flat slide fails its rule, a fan that does not close its vertex's, and a
    zero-length edge's rules stay finite and unread, as ``exposure`` refuses
    both of its ends. Only the exposed and negatively exposed rows go
    through the image kernels."""
    if "vertices" in P.tables:
        return P.tables["vertices"]
    top = P.topology
    ends, mask = top.corner_table, top.corner_mask
    slot = np.zeros((len(mask), P.n_vertices), dtype=int)
    f_at, t_at = np.nonzero(mask)
    slot[f_at, ends[f_at, t_at, 0]] = t_at  # the slot of vertex v's corner in face f
    rule_table = np.zeros(mask.shape + (2, 2))
    failed_table = np.full(mask.shape + (2,), None, dtype=object)
    classes, images = [], {}
    groups = defaultdict(list)  # degree -> (vertex, fan faces, fan neighbours)
    for v in range(P.n_vertices):
        try:
            cls = exposure(P, v)
        except GeometryError as exc:
            cls = images[v] = exc.with_traceback(None)
        classes.append(cls)
        if cls == NEITHER:
            images[v] = NotExposed(f"vertex {v} is neither exposed nor negatively exposed")
        try:
            fan = top.fan(v)
        except GeometryError as exc:
            exc = exc.with_traceback(None)
            images.setdefault(v, exc)
            for f, _, _ in top.corners[v]:
                failed_table[f, slot[f, v]] = exc
            continue
        groups[len(fan[0])].append((v, *fan))
    X, N = P.vertices, P.planes[0]
    degenerate = DegenerateInput(FLAT_SLIDE)
    for k, group in groups.items():
        verts, fans, nbrs = (np.array(column) for column in zip(*group))
        turn = (np.arange(k)[:, None] + np.arange(k)) % k  # row s: the fan from its face s
        n = N[fans[:, turn]]  # (G, k, k, 3): the face, then S_1..S_k-1
        D = X[nbrs] - X[verts][:, None]
        L = lengths(D)
        u = (D / np.where(L > 0.0, L, 1.0)[..., None])[:, turn]  # nbr_0..nbr_k-1
        g, flat = slide_rule(n[:, :, 1], n[:, :, -1], n[:, :, 0])
        a = -rowdot(g, u[:, :, 0] + u[:, :, -1])
        if k == 3:
            one = split = np.stack([a - rowdot(g, u[:, :, 1]), np.zeros_like(a)], axis=-1)
            split_flat = flat
        else:
            one = np.stack([a, lengths(g)], axis=-1)  # a new lateral edge sprouts from the vertex
            gs, flats = slide_rule(n[:, :, 1:-1], n[:, :, 2:], n[:, :, :1])
            a = -rowdot(gs[:, :, 0], u[:, :, 0]) - rowdot(gs[:, :, -1], u[:, :, -1])
            split = np.stack([a - ordered_sum(rowdot(gs, u[:, :, 1:-1])),
                              ordered_sum(lengths(gs[:, :, :-1] - gs[:, :, 1:]))], axis=-1)
            split_flat = flats.any(axis=-1)
        rules = np.stack([one, split], axis=2)
        failed = np.stack([flat, split_flat], axis=2)
        rules[failed] = 0.0  # a failed rule adds 0 to the unread rates of the moves it fails
        at = fans, slot[fans, verts[:, None]]  # the corner of each vertex in each fan face
        rule_table[at] = rules
        failed_table[at] = np.where(failed, degenerate, None)
        shown = np.array([v not in images for v in verts.tolist()])
        if not shown.any():
            continue
        verts, normals = verts[shown], n[shown, 0]
        flip = np.array([classes[v] == NEGATIVELY_EXPOSED for v in verts.tolist()])[:, None, None]
        points, off = _unit_points(np.where(flip, -normals[:, ::-1], normals))
        poles, flat, crossed = _side_poles(points)
        points.flags.writeable = poles.flags.writeable = False
        bad = off | (flat | crossed).any(axis=1)
        centres, radii = _incircles(poles)
        rates, flat_cut = _cut_rates(normals, centres)
        for i, (v, radius, area, rate, flat_slide) in enumerate(zip(
                verts.tolist(), radii.tolist(), _areas(poles).tolist(), rates.tolist(),
                flat_cut.tolist())):
            try:
                if bad[i]:
                    _check_unit(off[i])
                    _check_sides(flat[i], crossed[i])
                _check_radius(radius)
            except GeometryError as exc:
                images[v] = exc.with_traceback(None)
                continue
            if flat_slide:
                rate = degenerate
            images[v] = VertexImage(_image(points[i], poles[i]), Incircle(centres[i], radius),
                                    area, rate)
    facts = {v: VertexFacts(cls, images[v]) for v, cls in enumerate(classes)}
    P.tables["vertices"] = table = VertexTable(facts, rule_table, failed_table)
    return table


def vertex_image(P: Polyhedron, v: int) -> VertexImage:
    """The VertexImage of ``v`` from its body's ``vertex_table``; a vertex
    without one raises its GeometryError, a fresh instance on every call."""
    entry = vertex_table(P).facts.get(v)
    if entry is None:
        exposure(P, v)  # a vertex in no face: raises DanglingVertex
    if isinstance(entry.image, GeometryError):
        raise type(entry.image)(*entry.image.args)
    return entry.image


def incircle_area_bounds(radius: float) -> tuple:
    """(strict lower, inclusive upper) area bounds for incircle radius."""
    if not 0.0 < radius < np.pi / 2:
        raise BadParameter("incircle radius must lie in (0, pi/2)")
    return 2.0 * np.pi * (1.0 - np.cos(radius)), 4.0 * radius


def dihedral_angle(P: Polyhedron, e: int) -> float:
    """Interior dihedral angle along edge ``e`` in (0, 2*pi)."""
    angle = P.dihedrals[e]
    if np.isnan(angle):
        i, j = P.edges[e]
        if not {(i, j), (j, i)} <= P.topology.face_of.keys():
            raise BadParameter(f"edge {e} is not consistently oriented in two faces")
        unit(P.vertices[j] - P.vertices[i])  # raises on a zero-length edge
    return float(angle)


def exposure(P: Polyhedron, v: int) -> str:
    """Classify a vertex by the dihedral angles of its incident edges."""
    incident = P.topology.vertex_edges[v]
    if len(incident) < 3:
        raise DanglingVertex(f"vertex {v} has {len(incident)} incident edges")
    lo, hi = P.dihedral_range
    if np.isnan(lo[v]):
        for e in incident:
            dihedral_angle(P, e)  # raises for the first edge without an angle
    if hi[v] < np.pi - DEFAULT_TOLERANCES.exposure:
        return EXPOSED
    if lo[v] > np.pi + DEFAULT_TOLERANCES.exposure:
        return NEGATIVELY_EXPOSED
    return NEITHER
