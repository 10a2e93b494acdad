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
from dataclasses import dataclass
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
from .vec3 import cross, ordered_sum, plane_bases, rowcross, rowdot, unit

logger = logging.getLogger(__name__)

# the Chebyshev-centre LP's objective, the r axis of (x, r); its pivot cap;
# and its rounding floor, below which a step direction, a multiplier or a
# row's rate along the step (per unit step) reads as zero
_R_AXIS = np.array([0.0, 0.0, 0.0, 1.0])
_LP_PIVOTS = 1000
_LP_EPS = 1e-13


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

    ``Polyhedron.topology`` builds it when the body is made and every
    incidence query reads it. Building never raises: a face list that is not
    edge-manifold is recorded in ``nonmanifold`` (the body raises
    NonManifold for it), and a vertex whose faces do not form one
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
        # padded corner table: slot t of face f holds (cyc[t], cyc[t + 1]),
        # and ``across`` the face that runs that edge b -> a (-1 where none does)
        sizes = np.array([len(cyc) for cyc in faces], dtype=int)
        self.corner_mask = np.arange(sizes.max(initial=0)) < sizes[:, None]
        slots = [(a, b) for cyc in faces for a, b in zip(cyc, cyc[1:] + cyc[:1])]
        self.corner_table = np.zeros(self.corner_mask.shape + (2,), dtype=int)
        self.corner_table[self.corner_mask] = np.reshape(slots, (-1, 2))
        self.across = np.full(self.corner_mask.shape, -1)
        self.across[self.corner_mask] = [self.face_of.get((b, a), -1) for a, b in slots]
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
    ``halfspaces[i]``, ordered counterclockwise as seen from outside. A face
    list that is not edge-manifold raises NonManifold. Everything else,
    ``edges`` and ``convex`` among it, is derived from these three and
    cached; incidence queries read ``topology``.
    """

    vertices: np.ndarray
    faces: tuple
    halfspaces: tuple

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", tuple(tuple(int(i) for i in f) for f in self.faces))
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        if self.topology.nonmanifold:
            raise NonManifold(self.topology.nonmanifold)

    # -- incidence, derived once ----------------------------------------
    @cached_property
    def topology(self) -> Topology:
        return Topology(self.faces)

    @property
    def edges(self) -> tuple:
        """Sorted (i < j) vertex pairs of every edge."""
        return self.topology.edges

    @cached_property
    def planes(self) -> tuple:
        """(N (F, 3), b (F)): the normal and offset rows of the face planes."""
        N = np.array([h.normal for h in self.halfspaces])
        b = np.array([h.offset for h in self.halfspaces])
        N.flags.writeable = b.flags.writeable = False
        return N, b

    @cached_property
    def plane_residuals(self) -> tuple:
        """(R (V, F), slack): ``plane_incidence`` of the vertices against the face
        planes about the vertex centroid; on a plane is |R| <= slack."""
        c = self.vertices.mean(axis=0)
        N, b = self.planes
        R, slack = plane_incidence(self.vertices - c, N, b - N @ c, 0.0)
        R.flags.writeable = False
        return R, slack

    @cached_property
    def convex(self) -> bool:
        """Whether no vertex lies above any face plane by more than the
        slack of ``plane_residuals``."""
        R, slack = self.plane_residuals
        return bool((R <= slack).all())

    @cached_property
    def tables(self) -> dict:
        """The per-body tables the modules above build in one pass on first
        read and keep here: "vertices", ``gauss.vertex_table``, and "faces",
        ``perturbations._face_tables``."""
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
        N = self.planes[0]
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
        N, b = self.planes
        length = np.sqrt(rowdot(N, N))
        N, b = N / length[:, None], b / length
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
        return self.topology.edge_faces[e]

    def diameter(self) -> float:
        """The largest distance between two vertices, in blocks of 64 rows."""
        v = self.vertices
        d2 = max(((v[i:i + 64, None, :] - v[None, :, :]) ** 2).sum(axis=2).max()
                 for i in range(0, len(v), 64))
        return float(np.sqrt(d2))

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
        return Polyhedron(self.vertices * factor, self.faces, hs)


@dataclass(frozen=True)
class ValidationReport:
    euler_ok: bool
    coplanar_ok: bool
    orientation_ok: bool
    max_coplanarity_error: float
    messages: tuple

    @property
    def ok(self) -> bool:
        return self.euler_ok and self.coplanar_ok and self.orientation_ok


def _vertex_means(N: np.ndarray, b: np.ndarray, incident: np.ndarray) -> np.ndarray:
    """Each point's vertex: the mean, in combination order, of the solves of
    the triples of its ``incident`` planes (rows (P, F)) whose determinant
    is above ``plane_triple``. The triples are taken one pass per incidence
    degree. Raises DegenerateInput for a point on no such triple."""
    degree = incident.sum(axis=1)
    triples, owner = [], []
    for d in sorted(set(degree.tolist())):
        rows = np.flatnonzero(degree == d)
        planes = np.nonzero(incident[rows])[1].reshape(len(rows), d)
        combos = np.array(list(itertools.combinations(range(d), 3)), dtype=int).reshape(-1, 3)
        triples.append(planes[:, combos].reshape(-1, 3))
        owner.append(np.repeat(rows, len(combos)))
    triples, owner = np.concatenate(triples), np.concatenate(owner)
    good = np.abs(np.linalg.det(N[triples])) > DEFAULT_TOLERANCES.plane_triple
    triples, owner = triples[good], owner[good]
    if not np.bincount(owner, minlength=len(incident)).all():
        raise DegenerateInput("a vertex lies on no three independent planes")
    sol = np.linalg.solve(N[triples], b[triples][..., None])[..., 0]
    # each point's solves are one run of rows, summed in order as np.mean
    # sums them, one pass per run length
    start = np.flatnonzero(np.diff(owner, prepend=-1))
    count = np.diff(start, append=len(owner))
    verts = np.empty((len(incident), 3))
    for c in set(count.tolist()):
        at = start[count == c]
        verts[owner[at]] = ordered_sum(sol[at[:, None] + np.arange(c)], axis=1) / c
    return verts


def _sort_cycles(verts: np.ndarray, on_face: np.ndarray, T1: np.ndarray, T2: np.ndarray) -> tuple:
    """(cycles, twice areas): the vertex indices of each face, rows of
    ``on_face`` (F, V), ordered counterclockwise in its plane frame (T1,
    T2) by a stable sort of their angles about the face's centroid, and
    twice the signed area of that cycle, taken about the centroid too so
    that a face far smaller than the body keeps its sign. All faces at once,
    padded to the largest."""
    k = on_face.sum(axis=1)
    mask = np.arange(k.max()) < k[:, None]
    idx = np.argsort(~on_face, axis=1, kind="stable")[:, :mask.shape[1]]  # ascending, then pad
    pts = verts[idx]
    centre = ordered_sum(np.where(mask[..., None], pts, 0.0), axis=1) / k[:, None]
    rel = pts - centre[:, None]
    x, y = (rel @ T1[..., None])[..., 0], (rel @ T2[..., None])[..., 0]
    order = np.argsort(np.where(mask, np.arctan2(y, x), np.inf), axis=1, kind="stable")
    idx, x, y = (np.take_along_axis(z, order, axis=1) for z in (idx, x, y))
    prev = (np.arange(mask.shape[1]) - 1) % k[:, None]
    xp, yp = np.take_along_axis(x, prev, axis=1), np.take_along_axis(y, prev, axis=1)
    twice = ordered_sum(np.where(mask, xp * y - yp * x, 0.0), axis=1)
    return [tuple(row[:n]) for row, n in zip(idx.tolist(), k.tolist())], twice


def from_halfspaces(halfspaces) -> Polyhedron:
    """Intersect halfspaces into a bounded convex polyhedron.

    Qhull (``scipy.spatial.HalfspaceIntersection``) intersects the planes
    about the strictly interior point c of ``interior_point`` (the origin,
    or the centre of the in-package Chebyshev-centre LP). Points on
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
    verts = _vertex_means(N, b, incident)
    # deterministic vertex order
    step = DEFAULT_TOLERANCES.dedup * float(np.abs(verts).max())
    key = np.round(verts / step).astype(np.int64)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    verts, on_plane = verts[order], incident[order]

    count = on_plane.sum(axis=0)
    for f in np.flatnonzero(count < 3).tolist():
        logger.debug("dropping redundant halfspace %d (%d incident vertices)", f, count[f])
    kept = np.flatnonzero(count >= 3)
    if len(kept) < 4:
        raise DegenerateInput("fewer than four supporting faces")
    faces, twice_areas = _sort_cycles(verts, on_plane[:, kept].T, *plane_bases(N[kept]))
    flat = bool((twice_areas <= 0.0).any())

    kept_hs = tuple(hs[f] for f in kept.tolist())
    try:
        poly = Polyhedron(verts, tuple(faces), kept_hs)
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
    at least a tenth of the largest, else the Chebyshev centre, solved
    exactly by ``_chebyshev_centre``'s simplex.

    Raises UnboundedIntersection when balls of every radius fit,
    EmptyInterior when no ball of radius above 1e-12 s does (s as there), and
    DegenerateInput when the simplex reaches its pivot cap.
    """
    return np.zeros(3) if b.min() >= 0.1 * np.abs(b).max() > 0 else _chebyshev_centre(N, b)[0]


def plane_incidence(pts: np.ndarray, N: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple:
    """Residuals x.N - b (P, F) of points x (P, 3) against the planes, and
    the merge slack of ``from_halfspaces``: x lies on a plane when its
    residual is within the slack, ``coplanarity`` times max|x - c| over the
    points, c being the interior point."""
    return pts @ N.T - b, DEFAULT_TOLERANCES.coplanarity * float(np.abs(pts - c).max())


def _chebyshev_centre(N: np.ndarray, b: np.ndarray) -> tuple:
    """Centre and radius of the largest ball inside every halfspace.

    Solves max r s.t. N x + r <= b / s, s the power of two nearest max|b|,
    so that its thresholds are relative to b, by a primal active-set simplex
    on the rows (n_i, 1). It starts at x = 0, r = min(b / s) with that row
    active. While the projection d of the r axis onto the null space of the
    active rows is nonzero, it steps along d to the first row that blocks
    and makes it active; once d vanishes, it drops the active row of least
    index whose multiplier is negative, or stops when there is none. Ties go
    to the least index (Bland's rule), so it terminates. Each pivot is one
    solve of at most 4x4 and one (F, 4) matvec. Below ``_LP_EPS`` a
    direction, a multiplier or a rate reads as rounding. A centre at four
    active rows is solved from them once more, so that the steps' rounding
    does not add up: the ball lies inside every plane to ~1e-16 max|b|.

    Raises UnboundedIntersection when no row blocks (r grows without bound),
    EmptyInterior when the largest r is at most 1e-12 (in units of s), and
    DegenerateInput when it has not stopped after ``_LP_PIVOTS`` pivots.
    """
    big = float(np.abs(b).max())
    s = 2.0 ** round(math.log2(big)) if big > 0 else 1.0
    A = np.hstack([N, np.ones((len(N), 1))])
    j = int(np.argmin(b))
    y = np.array([0.0, 0.0, 0.0, b[j] / s])
    slack = b / s - y[3]
    active = [j]
    for _ in range(_LP_PIVOTS):
        rows = A[active]
        if len(active) == 4:
            mu, d = np.linalg.solve(rows.T, _R_AXIS), np.zeros(4)
        else:
            Ginv = np.linalg.inv(rows @ rows.T)
            mu = Ginv @ rows[:, 3]
            d = _R_AXIS - mu @ rows
            d -= (Ginv @ (rows @ d)) @ rows  # again, so that rows @ d ~ eps |d|
        size = math.sqrt(d @ d)
        if size <= _LP_EPS:
            negative = [k for k, m in zip(active, mu) if m < -_LP_EPS]
            if not negative:
                break
            active.remove(min(negative))
            continue
        rate = A @ d
        rate[active] = 0.0
        blocking = np.flatnonzero(rate > _LP_EPS * size)
        if not len(blocking):
            raise UnboundedIntersection("the halfspaces hold balls of every radius")
        ratio = np.maximum(slack[blocking], 0.0) / rate[blocking]
        k = int(np.argmin(ratio))
        i = int(blocking[k])
        y += ratio[k] * d
        slack -= ratio[k] * rate
        slack[i] = 0.0
        active.append(i)
    else:
        raise DegenerateInput(f"the Chebyshev-centre LP did not stop in {_LP_PIVOTS} pivots")
    if len(active) == 4:
        y = np.linalg.solve(A[active], b[active] / s)
    if y[3] <= 1e-12:
        raise EmptyInterior("the halfspaces hold no ball of positive radius")
    return y[:3] * s, y[3] * s


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
    cr = rowcross(p, q)
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
    """Non-throwing structural report: Euler, planarity, orientation.

    Convexity is not validated: it is a property of the body (``convex``),
    and a face list that is not edge-manifold never becomes a body."""
    msgs = []
    euler_ok = (P.n_vertices - P.n_edges + P.n_faces == 2)
    if not euler_ok:
        msgs.append(f"euler: V-E+F = {P.n_vertices - P.n_edges + P.n_faces}")

    # each face's own corners against its plane, by the rule ``convex`` reads
    R, slack = P.plane_residuals
    on_face = R[P.topology.corner_table[..., 0], np.arange(P.n_faces)[:, None]]
    max_cop = float(np.abs(on_face[P.topology.corner_mask]).max(initial=0.0))
    coplanar_ok = max_cop <= slack
    if not coplanar_ok:
        msgs.append(f"coplanarity: max error {max_cop:.3e}")

    orientation_ok = volume(P) > 0.0
    if not orientation_ok:
        msgs.append("orientation: nonpositive enclosed volume")

    return ValidationReport(euler_ok, coplanar_ok, orientation_ok, max_cop, tuple(msgs))
