"""Spherical images of polyhedron vertices and related unit-sphere geometry.

The spherical image of a vertex collects the outward normals of its incident
faces in rotational order. Its sides are geodesic arcs whose lengths are pi
minus the interior dihedral angles of the corresponding edges, its area
equals the angle deficit, and its inscribed circle drives the vertex-cutting
perturbation.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import (
    BadParameter,
    DanglingVertex,
    DegeneratePolygon,
    NonConvexPolygon,
    NotExposed,
)
from .polyhedron import Polyhedron
from .vec3 import cross, norm, unit

EXPOSED = "exposed"
NEGATIVELY_EXPOSED = "negatively_exposed"
NEITHER = "neither"


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
        norms = np.linalg.norm(pts, axis=1)
        if np.abs(norms - 1.0).max() > 1e-9:
            raise BadParameter("spherical polygon points must be unit vectors")
        pts /= norms[:, None]
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
        points = self.points
        n = len(points)
        sides = [cross(points[i], points[(i + 1) % n]) for i in range(n)]
        c = points.mean(axis=0)
        if sum(s @ c for s in sides) < 0:
            # reversed order: side i is the negated old side n-2-i (mod n)
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
        poles.flags.writeable = False
        return poles


@dataclass(frozen=True)
class Incircle:
    center: np.ndarray
    radius: float


def ordered_faces_at_vertex(P: Polyhedron, v: int) -> list:
    """Incident face indices in a consistent rotational order around ``v``."""
    return list(P.topology.fan(v)[0])


def ordered_edges_at_vertex(P: Polyhedron, v: int) -> list:
    """Outgoing neighbor vertices of ``v``, rotationally ordered.

    Neighbor k lies on the edge shared by ordered faces k and k+1, so this
    order matches the sides of the spherical image.
    """
    return list(P.topology.fan(v)[1])


def gauss_image(P: Polyhedron, v: int) -> SphericalPolygon:
    """Spherical image of a vertex: incident outward normals in fan order."""
    return SphericalPolygon(P.planes[0][ordered_faces_at_vertex(P, v)])


def complement_gauss_image(P: Polyhedron, v: int) -> SphericalPolygon:
    """Spherical image of the vertex seen from the complement solid."""
    return SphericalPolygon(-P.planes[0][ordered_faces_at_vertex(P, v)[::-1]])


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
    return 2.0 * np.pi - sum(np.arctan2(norm(cross(a, b)), a @ b)
                             for a, b in zip(np.roll(poly.poles, 1, axis=0), poly.poles))


def spherical_incircle(poly: SphericalPolygon) -> Incircle:
    """Largest inscribed circle of a convex spherical polygon.

    Solves max over unit c of min_i distance(c, side_i) exactly by
    enumerating the stationary candidates: normalized pole-pair bisectors
    (two active sides) and equal-clearance points of pole triples, then
    keeping the feasible maximizer. Radius is clamped to (0, pi/2).
    """
    poles = poly.poles
    n = len(poles)

    candidates = []
    for i, j in itertools.combinations(range(n), 2):
        s = poles[i] + poles[j]
        length = norm(s)
        if length > 1e-12:
            candidates.append(s / length)
    for i, j, k in itertools.combinations(range(n), 3):
        d = cross(poles[i] - poles[j], poles[j] - poles[k])
        length = norm(d)
        if length > 1e-12:
            candidates.append(d / length)
            candidates.append(-d / length)
    if not candidates:
        raise DegeneratePolygon("no incircle candidates")

    best_c, best_r = None, -np.inf
    for c in candidates:
        r = float(np.min(np.arcsin(np.clip(poles @ c, -1.0, 1.0))))
        if r > best_r:
            best_r, best_c = r, c
    if best_r <= DEFAULT_TOLERANCES.tangency:
        raise DegeneratePolygon("polygon is flat: incircle radius is zero")
    if best_r >= np.pi / 2:
        raise DegeneratePolygon("incircle radius reached pi/2")
    return Incircle(best_c, best_r)


def vertex_incircle(P: Polyhedron, v: int) -> tuple:
    """(image, incircle) of a vertex: its Gauss image if exposed, its
    complement image if negatively exposed, and that image's incircle.

    Memoised in ``P.incircles``. Raises NotExposed for a vertex that is
    neither; a failed incircle is raised again on every call, not stored.
    """
    if v not in P.incircles:
        expo = exposure(P, v)
        if expo == NEITHER:
            raise NotExposed(f"vertex {v} is neither exposed nor negatively exposed")
        image = gauss_image(P, v) if expo == EXPOSED else complement_gauss_image(P, v)
        P.incircles[v] = image, spherical_incircle(image)
    return P.incircles[v]


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
