"""Polyhedra as synchronized halfspace and vertex/edge/face incidence data.

The halfspace view drives construction and perturbation; the incidence view
drives the edge-length, volume and ratio functionals. ``from_halfspaces`` is
the one constructor that keeps the two views consistent, so modified
halfspace sets are always rebuilt through it.
"""
from __future__ import annotations

import itertools
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import (
    BadParameter,
    DanglingVertex,
    DegenerateInput,
    EmptyInterior,
    NonManifold,
    UnboundedIntersection,
    ZeroVolume,
)
from .vec3 import cross, plane_bases, rowdot, unit

logger = logging.getLogger(__name__)


def _rotation_code(rings: list, v0: int, u0: int, bound: list | None = None) -> list | None:
    """Breadth-first code of the rotation system ``rings`` from the directed
    edge (v0, u0): vertices numbered by first visit, each listing its
    neighbours' numbers from the edge it was reached along, then -1.

    With ``bound``, returns None as soon as a prefix of the code exceeds
    ``bound``, so the code is returned only when it is at most ``bound``."""
    label = {v0: 0}
    order = [(v0, u0)]
    code = []
    tied = bound is not None
    for v, start in order:
        done = len(code)
        ring = rings[v]
        k = ring.index(start)
        for u in ring[k:] + ring[:k]:
            if u not in label:
                label[u] = len(order)
                order.append((u, v))
            code.append(label[u])
        code.append(-1)
        if tied:
            step, ref = code[done:], bound[done:len(code)]
            if step > ref:
                return None
            tied = step == ref
    return code


class Topology:
    """Vertex/edge/face incidence of a face list, derived in one pass.

    ``Polyhedron.topology`` builds it on first use and every incidence query
    reads it. Building never raises: a face list that is not edge-manifold
    is recorded in ``nonmanifold``, and a vertex whose faces do not form one
    closed fan raises ``DanglingVertex`` only when its fan is asked for. A
    vertex index in no face, in range or not, has no edges and no faces.
    """

    def __init__(self, faces: tuple):
        self.face_of = {}     # oriented edge (a, b) -> the face that runs a -> b
        faces_at = {}         # edge (i < j) -> faces holding it, ascending
        self.corners = defaultdict(list)  # v -> (face, prev, next), ascending face
        for f, cyc in enumerate(faces):
            for t, (a, b) in enumerate(zip(cyc, cyc[1:] + cyc[:1])):
                self.face_of[a, b] = f
                faces_at.setdefault((a, b) if a < b else (b, a), []).append(f)
                self.corners[a].append((f, cyc[t - 1], b))
        # padded corner table: slot t of face f holds (cyc[t], cyc[t + 1])
        sizes = np.array([len(cyc) for cyc in faces], dtype=int)
        self.corner_mask = np.arange(sizes.max(initial=0)) < sizes[:, None]
        self.corner_table = np.zeros(self.corner_mask.shape + (2,), dtype=int)
        self.corner_table[self.corner_mask] = np.reshape(
            [(a, b) for cyc in faces for a, b in zip(cyc, cyc[1:] + cyc[:1])], (-1, 2))
        self.nonmanifold = next((f"edge {key} lies in {len(fs)} faces, expected 2"
                                 for key, fs in faces_at.items() if len(fs) != 2), None)
        self.edges = tuple(sorted(faces_at))
        self.edge_faces = [tuple(faces_at[key]) for key in self.edges]
        self.edge_id = {key: e for e, key in enumerate(self.edges)}
        self.vertex_edges = defaultdict(list)
        for e, (i, j) in enumerate(self.edges):
            self.vertex_edges[i].append(e)
            self.vertex_edges[j].append(e)
        self._fans = {}

    def neighbours(self, v: int) -> list:
        """Vertices joined to ``v`` by an edge, in edge-index order."""
        return [i + j - v for i, j in (self.edges[e] for e in self.vertex_edges[v])]

    def fan(self, v: int) -> tuple:
        """(faces, neighbours) around ``v`` in rotational order: from the
        smallest incident face, cross each face f's edge (v, next_f(v));
        neighbour k is next_f(v) of fan face k."""
        if v in self._fans:
            return self._fans[v]
        corners = self.corners[v]
        if len(corners) < 3:
            raise DanglingVertex(f"vertex {v} has {len(corners)} incident faces")
        nxt = {f: b for f, _, b in corners}
        on_edge = {}          # neighbour u -> faces at v holding the edge (v, u)
        for f, a, b in corners:
            on_edge.setdefault(a, []).append(f)
            on_edge.setdefault(b, []).append(f)
        order = [corners[0][0]]
        while len(order) < len(corners):
            f = order[-1]
            fs = on_edge[nxt[f]]
            g = fs[0] if fs[1] == f else fs[1]
            if g in order:
                raise DanglingVertex(f"face fan around vertex {v} does not close")
            order.append(g)
        self._fans[v] = fan = (tuple(order), tuple(nxt[f] for f in order))
        return fan


@dataclass(frozen=True)
class HalfSpace:
    """Closed halfspace {x : <x, normal> <= offset} with unit outward normal.

    Raises BadParameter for a zero normal or a non-finite normal or offset.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.array(self.normal, dtype=float).reshape(3)
        norm = np.linalg.norm(n)
        if norm <= 1e-12:
            raise BadParameter("halfspace normal must be nonzero")
        o = float(self.offset)
        if not (math.isfinite(norm) and math.isfinite(o)):
            raise BadParameter(f"halfspace normal and offset must be finite, got {n}, {o}")
        if abs(norm - 1.0) > DEFAULT_TOLERANCES.unit_norm:
            # rescale both so the defining plane is unchanged
            n = n / norm
            o = o / norm
        n.flags.writeable = False
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", o)

    def translated(self, delta: float) -> "HalfSpace":
        """Same normal, plane moved by ``delta`` along the outward normal."""
        return HalfSpace(self.normal, self.offset + delta)

    def rotated_about_line(self, point: np.ndarray, axis: np.ndarray, angle: float) -> "HalfSpace":
        """Rotate the defining plane about the line (point, axis) by ``angle``."""
        w = unit(np.asarray(axis, dtype=float))
        c, s = np.cos(angle), np.sin(angle)
        n = self.normal
        n_rot = n * c + cross(w, n) * s + w * (w @ n) * (1.0 - c)
        return HalfSpace(n_rot, float(np.asarray(point, dtype=float) @ n_rot))


@dataclass(frozen=True)
class Polyhedron:
    """Immutable polyhedron; arrays are read-only once constructed.

    ``faces[i]`` is the cyclic vertex index tuple of the face supported by
    ``halfspaces[i]``, ordered counterclockwise as seen from outside.
    ``edges``, when given, must be the sorted edge list of ``faces``; when
    omitted it is derived, and a face list that is not edge-manifold raises
    NonManifold. Incidence queries read the lazily built ``topology``.
    """

    vertices: np.ndarray
    faces: tuple
    halfspaces: tuple
    convex: bool
    edges: tuple = field(default=())

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", tuple(tuple(int(i) for i in f) for f in self.faces))
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        if not self.edges:
            if self.topology.nonmanifold:
                raise NonManifold(self.topology.nonmanifold)
            object.__setattr__(self, "edges", self.topology.edges)

    # -- incidence, derived once ----------------------------------------
    @cached_property
    def topology(self) -> Topology:
        return Topology(self.faces)

    @cached_property
    def incircles(self) -> dict:
        """vertex -> (spherical image, its incircle); see ``gauss.vertex_incircle``."""
        return {}

    @cached_property
    def corner_rates(self) -> dict:
        """face -> the rate table every move of the face reads; see
        ``perturbations._face_table``."""
        return {}

    @cached_property
    def dihedrals(self) -> np.ndarray:
        """Interior dihedral angle of every edge, in (0, 2*pi).

        NaN marks an edge that its two faces do not run once in each
        direction, or that has zero length; ``gauss.dihedral_angle`` raises
        for it when asked.
        """
        top = self.topology
        ends = np.array(top.edges, dtype=int).reshape(-1, 2)
        left = np.array([top.face_of.get((i, j), -1) for i, j in top.edges], dtype=int)
        right = np.array([top.face_of.get((j, i), -1) for i, j in top.edges], dtype=int)
        N = np.array([h.normal for h in self.halfspaces])
        m1, m2 = N[left], N[right]
        d = self.vertices[ends[:, 1]] - self.vertices[ends[:, 0]]
        length = np.sqrt(rowdot(d, d))
        with np.errstate(invalid="ignore", divide="ignore"):
            turn = np.arctan2(rowdot(np.cross(m1, m2), d / length[:, None]), rowdot(m1, m2))
        angle = np.pi - turn
        angle[(left < 0) | (right < 0) | (length == 0.0)] = np.nan
        return angle

    @cached_property
    def edge_length(self) -> float:
        """Total edge length E0, summed once per body."""
        idx = np.array(self.edges)
        if len(idx) == 0:
            return 0.0
        d = self.vertices[idx[:, 0]] - self.vertices[idx[:, 1]]
        return float(np.linalg.norm(d, axis=1).sum())

    @cached_property
    def _body_frame(self) -> tuple:
        """(face areas, volume, face moments) about the vertex centroid c, so
        a body far from the origin loses no digits, with the planes rescaled
        to unit normals (a halfspace keeps a normal only to within
        ``unit_norm``); the moments are moved back to the world by A_f c."""
        c = self.vertices.mean(axis=0)
        N = np.array([h.normal for h in self.halfspaces])
        length = np.sqrt(rowdot(N, N))
        N, b = N / length[:, None], np.array([h.offset for h in self.halfspaces]) / length
        twice, vol, M = twice_areas_and_volumes(self.topology, self.vertices - c, N, b - N @ c)
        areas = 0.5 * twice
        moments = M + areas[:, None] * c
        areas.flags.writeable = moments.flags.writeable = False
        return areas, float(vol), moments

    @property
    def face_areas(self) -> np.ndarray:
        """Area of every face, signed by its normal; computed once per body."""
        return self._body_frame[0]

    @property
    def volume(self) -> float:
        """Enclosed volume V0; computed once per body with the face areas."""
        return self._body_frame[1]

    @property
    def face_moments(self) -> np.ndarray:
        """First moment, the integral of x dA, of every face, signed like its area."""
        return self._body_frame[2]

    @cached_property
    def dihedral_range(self) -> tuple:
        """(smallest, largest) dihedral angle at each vertex; NaN if any is."""
        ends = np.array(self.topology.edges, dtype=int).reshape(-1, 2).T.ravel()
        angles = np.tile(self.dihedrals, 2)
        lo, hi = np.full(self.n_vertices, np.inf), np.full(self.n_vertices, -np.inf)
        with np.errstate(invalid="ignore"):
            np.minimum.at(lo, ends, angles)
            np.maximum.at(hi, ends, angles)
        return lo, hi

    # -- counts ---------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    # -- local geometry -------------------------------------------------
    def face_normal(self, f: int) -> np.ndarray:
        return self.halfspaces[f].normal

    def face_centroid(self, f: int) -> np.ndarray:
        return self.vertices[list(self.faces[f])].mean(axis=0)

    def face_area(self, f: int) -> float:
        return float(self.face_areas[f])

    def vertex_degree(self, v: int) -> int:
        return len(self.topology.vertex_edges[v])

    def vertex_faces(self, v: int) -> list:
        return [f for f, _, _ in self.topology.corners[v]]

    def edge_index(self, i: int, j: int) -> int:
        return self.topology.edge_id[min(i, j), max(i, j)]

    def edge_faces(self, e: int) -> tuple:
        out = self.topology.edge_faces[e]
        if len(out) != 2:
            raise NonManifold(f"edge {e} shared by {len(out)} faces")
        return out

    def diameter(self) -> float:
        v = self.vertices
        d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
        return float(np.sqrt(d2.max()))

    def type_key(self) -> tuple:
        """Canonical code of the combinatorial type.

        Equal keys mean isomorphic face structures. Mirror images share a
        key: orientation-reversing isomorphisms count, as they do for the
        vertex-face incidence graph. The key is the smallest breadth-first
        code of the vertex fans (``_rotation_code``) over every directed
        edge and both turning senses, found in O(E^2) with each code cut
        off once it exceeds the best so far; L. Weinberg, IEEE
        Trans. Circuit Theory 13 (1966) 142-148, uses an Euler tour. Raises
        DanglingVertex where a vertex fan does not close.
        """
        rings = [self.topology.fan(v)[1] for v in range(self.n_vertices)]
        mirror = [ring[::-1] for ring in rings]
        best = None
        for r in (rings, mirror):
            for v in range(self.n_vertices):
                for u in r[v]:
                    best = _rotation_code(r, v, u, best) or best
        return tuple(best)

    def scaled(self, factor: float) -> "Polyhedron":
        if not (math.isfinite(factor) and factor > 0):
            raise BadParameter(f"scale factor must be finite and positive, got {factor!r}")
        hs = tuple(HalfSpace(h.normal, h.offset * factor) for h in self.halfspaces)
        return Polyhedron(self.vertices * factor, self.faces, hs, self.convex, self.edges)


@dataclass(frozen=True)
class ValidationReport:
    euler_ok: bool
    coplanar_ok: bool
    convex_ok: bool
    manifold_ok: bool
    orientation_ok: bool
    max_coplanarity_error: float
    messages: tuple

    @property
    def ok(self) -> bool:
        return (self.euler_ok and self.coplanar_ok and self.convex_ok
                and self.manifold_ok and self.orientation_ok)


def _sort_cycle(points: np.ndarray, idx: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> tuple:
    """Vertex indices ordered counterclockwise in the plane frame (t1, t2),
    and twice the signed area of that cycle, taken about the face's own
    centroid so that a face far smaller than the body keeps its sign."""
    rel = points - points.mean(axis=0)
    x, y = rel @ t1, rel @ t2
    order = np.argsort(np.arctan2(y, x), kind="stable")
    x, y = x[order].tolist(), y[order].tolist()
    twice_area = sum(x[k - 1] * y[k] - y[k - 1] * x[k] for k in range(len(x)))
    return tuple(int(idx[k]) for k in order), twice_area


def from_halfspaces(halfspaces) -> Polyhedron:
    """Intersect halfspaces into a bounded convex polyhedron.

    Qhull (``scipy.spatial.HalfspaceIntersection``) intersects the planes
    about the strictly interior point c of ``interior_point``. Points on
    the same planes (by ``plane_incidence``) are one vertex, placed at the
    mean of its incident-plane triple solves (determinant above
    ``plane_triple``) in combination order. Length tolerances are
    multiplied by max|x - c| over qhull's points. Redundant halfspaces
    (fewer than three incident vertices) are dropped.

    Raises UnboundedIntersection, EmptyInterior or DegenerateInput.
    """
    from scipy.spatial import HalfspaceIntersection, QhullError

    hs = list(halfspaces)
    if len(hs) < 4:
        raise UnboundedIntersection("fewer than four halfspaces cannot bound a volume")
    N = np.array([h.normal for h in hs])
    b = np.array([h.offset for h in hs])
    c = interior_point(N, b)
    try:
        with np.errstate(divide="ignore", invalid="ignore"):  # points at infinity
            hsi = HalfspaceIntersection(np.hstack([N, -b[:, None]]), c)
    except QhullError as exc:
        # a flat dual hull: every plane is parallel to one line or passes
        # through one point, so the region about c is unbounded
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
    # deterministic vertex order
    step = DEFAULT_TOLERANCES.dedup * float(np.abs(verts).max())
    key = np.round(verts / step).astype(np.int64)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    verts, on_plane = verts[order], incident[order]

    faces = []
    kept = []
    flat = False
    T1, T2 = plane_bases(N)
    for f in range(len(hs)):
        idx = np.nonzero(on_plane[:, f])[0]
        if len(idx) < 3:
            logger.debug("dropping redundant halfspace %d (%d incident vertices)", f, len(idx))
            continue
        cyc, twice_area = _sort_cycle(verts[idx], idx, T1[f], T2[f])
        faces.append(cyc)
        kept.append(f)
        flat = flat or twice_area <= 0.0
    if len(faces) < 4:
        raise DegenerateInput("fewer than four supporting faces")

    kept_hs = tuple(hs[f] for f in kept)
    try:
        poly = Polyhedron(verts, tuple(faces), kept_hs, True)
    except NonManifold:
        raise DegenerateInput("vertex/face incidence is not edge-manifold")
    if poly.n_vertices - poly.n_edges + poly.n_faces != 2:
        raise DegenerateInput("Euler characteristic is not 2")
    if flat:
        raise DegenerateInput("a face has nonpositive oriented area")
    return poly


def interior_point(N: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The strictly interior point ``from_halfspaces`` intersects about, for
    unit normals N (F, 3) and offsets b (F): the origin when every offset is
    at least a tenth of the largest, else the Chebyshev centre.

    Raises UnboundedIntersection, EmptyInterior or DegenerateInput.
    """
    return np.zeros(3) if b.min() >= 0.1 * np.abs(b).max() > 0 else _chebyshev_centre(N, b)


def plane_incidence(pts: np.ndarray, N: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple:
    """Residuals x.N - b (P, F) of points x (P, 3) against the planes, and
    the merge slack of ``from_halfspaces``: x lies on a plane when its
    residual is within the slack, ``coplanarity`` times max|x - c| over the
    points, c being the interior point."""
    return pts @ N.T - b, DEFAULT_TOLERANCES.coplanarity * float(np.abs(pts - c).max())


def _chebyshev_centre(N: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Centre of the largest ball inside every halfspace, by one LP."""
    from scipy.optimize import linprog

    # max r s.t. N x + r <= b
    res = linprog(c=[0.0, 0.0, 0.0, -1.0], A_ub=np.hstack([N, np.ones((len(N), 1))]), b_ub=b,
                  bounds=[(None, None)] * 4, method="highs")
    if res.status == 3:
        raise UnboundedIntersection("the halfspaces hold balls of every radius")
    if res.status == 2 or (res.status == 0 and res.x[3] <= 1e-12):
        raise EmptyInterior("the halfspaces hold no ball of positive radius")
    if res.status != 0:
        raise DegenerateInput(f"Chebyshev-centre LP failed: {res.message}")
    return res.x[:3]


# -- functionals ---------------------------------------------------------

def edge_length(P: Polyhedron) -> float:
    """Total edge length: sum of |p_i - p_j| over the edge set (cached on P)."""
    return P.edge_length


def volume(P: Polyhedron) -> float:
    """Enclosed volume, summed over faces in the body frame (cached on P)."""
    return P.volume


def twice_areas_and_volumes(top: Topology, pts: np.ndarray, normals: np.ndarray,
                            offsets: np.ndarray) -> tuple:
    """Twice the face areas (..., F), the volumes (...) and the face first
    moments (..., F, 3) from vertex rows (..., V, 3), unit normals (..., F, 3)
    and offsets (..., F) about an origin near the body. Each face's p x p_next
    is summed corner by corner in cycle order (padding adds zeros); V sums
    offset x area / 3 in face order; M = (sum a_t (p_t + p_t+1) + o A n) / 3
    over the corner triangles from the origin's foot, a_t = n.(p_t x p_t+1)/2."""
    p, q = pts[..., top.corner_table[..., 0], :], pts[..., top.corner_table[..., 1], :]
    # np.cross(p, q), the same products in the same order without its axis handling
    cr = np.stack([p[..., 1] * q[..., 2] - p[..., 2] * q[..., 1],
                   p[..., 2] * q[..., 0] - p[..., 0] * q[..., 2],
                   p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]], axis=-1)
    cr[..., ~top.corner_mask, :] = 0.0
    cross_sum = cr[..., 0, :]
    for k in range(1, cr.shape[-2]):
        cross_sum = cross_sum + cr[..., k, :]
    dots = (cross_sum[..., None, :] @ normals[..., :, None])[..., 0, 0]
    weighted = (offsets * 0.5) * dots
    corners = 0.5 * (cr @ normals[..., :, :, None]) * (p + q)
    moments = (corners.sum(axis=-2) + weighted[..., None] * normals) / 3.0
    return dots, np.add.accumulate(weighted, axis=-1)[..., -1] / 3.0, moments


def melzak_ratio(P: Polyhedron) -> float:
    """Scale-invariant ratio edge_length(P)**3 / volume(P)."""
    v = volume(P)
    if v <= 0.0:
        raise ZeroVolume(f"volume {v} is not positive")
    return edge_length(P) ** 3 / v


def validate(P: Polyhedron) -> ValidationReport:
    """Non-throwing structural report: Euler, planarity, convexity, manifold."""
    msgs = []
    euler_ok = (P.n_vertices - P.n_edges + P.n_faces == 2)
    if not euler_ok:
        msgs.append(f"euler: V-E+F = {P.n_vertices - P.n_edges + P.n_faces}")

    scale = max(P.diameter(), 1e-12)
    N = np.array([h.normal for h in P.halfspaces])
    b = np.array([h.offset for h in P.halfspaces])
    # each face's vertices against its own plane, over the corner table
    on_face = (P.vertices[P.topology.corner_table[..., 0]] @ N[:, :, None])[..., 0] - b[:, None]
    max_cop = float(np.abs(on_face[P.topology.corner_mask]).max(initial=0.0))
    coplanar_ok = max_cop <= DEFAULT_TOLERANCES.coplanarity * scale
    if not coplanar_ok:
        msgs.append(f"coplanarity: max error {max_cop:.3e}")

    worst = float((P.vertices @ N.T - b).max())
    convex_ok = worst <= DEFAULT_TOLERANCES.convexity * scale
    if P.convex and not convex_ok:
        msgs.append(f"convexity: vertex violates a halfspace by {worst:.3e}")
    if not P.convex:
        convex_ok = True  # declared non-convex: containment is not required

    manifold_ok = P.topology.nonmanifold is None
    if not manifold_ok:
        msgs.append(P.topology.nonmanifold)

    orientation_ok = True
    try:
        if volume(P) <= 0:
            orientation_ok = False
            msgs.append("orientation: nonpositive enclosed volume")
    except Exception as exc:  # pragma: no cover - defensive
        orientation_ok = False
        msgs.append(f"orientation: {exc}")

    return ValidationReport(euler_ok, coplanar_ok, convex_ok, manifold_ok,
                            orientation_ok, max_cop, tuple(msgs))
