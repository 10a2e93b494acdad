"""Quadrilateral-face wedge analysis and the flat-pyramid conditions.

A protruding wedge is what the four neighboring halfspaces of a
quadrilateral face carve out above that face's plane. This module builds
wedges, classifies the good ones (acute base dihedrals over a rectangular
base), evaluates the hinge condition R along a base edge, and studies the
degenerate height-zero limit where the wedge flattens onto a planar
quadrilateral with an interior apex.

The wedge body has the four side planes as faces 0..3 and the flipped
host plane as face 4, its base. Wedge vertices and base edges are read
from that plane incidence, never matched by distance: base corner t lies
on faces t - 1, t and 4, the top is the vertices off face 4, and base edge
t is the edge between faces t and 4.

The planar residual scan solves for quadrilaterals satisfying the
alternating chain F(1) = -F(2) = F(3) = -F(4) with some F(i) nonzero; such
a find with the apex inside the quadrilateral would be a counterexample to
the closing conjecture that the chain forces all F(i) to vanish. One kernel,
_chain, evaluates F and the chain's residual vector for a stack of
quadrilaterals at once; the scan's Gauss-Newton projection reads nothing
else, its Jacobian included, and a root is reported only if it is one as
printed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import is_index, json_float
from .errors import (
    BadParameter,
    CoincidentPoints,
    DegenerateEdge,
    DegenerateInput,
    GeometryError,
    NotConvex,
    UnboundedIntersection,
    UnboundedWedge,
)
from .gauss import angle_deficit, dihedral_angle
from .polyhedron import HalfSpace, Polyhedron, from_halfspaces
from .vec3 import cross, rowdot, unit


@dataclass(frozen=True)
class Wedge:
    """Solid carved above a quadrilateral base by its four side planes.

    base vertices are ordered as in the host face cycle (counterclockwise
    seen from the apex side). apex holds one point for a pyramid tip, two
    for a ridge. lateral[i] is the apex point joined to base[i] by a wedge
    edge. poly, when set, is the wedge body with side faces 0..3 and the
    base as face 4 (see protruding_wedge).
    """

    base: np.ndarray
    apex: np.ndarray
    lateral: np.ndarray
    height: float
    normalized: bool = False
    poly: Polyhedron | None = None

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        if base.shape != (4, 3):
            raise BadParameter("wedge base must be four 3-vectors")
        if not all(np.isfinite(np.asarray(a, dtype=float)).all()
                   for a in (base, self.apex, self.lateral)):
            raise BadParameter("wedge coordinates must be finite")
        n = self.base_normal()
        spread = np.ptp((base - base[0]) @ n)
        if spread > 1e-9 * max(1.0, float(np.abs(base).max())):
            raise BadParameter("wedge base is not planar")

    @property
    def is_pyramid(self) -> bool:
        return len(self.apex) == 1

    def base_normal(self) -> np.ndarray:
        """Unit normal of the base plane pointing toward the apex side."""
        b = np.asarray(self.base, dtype=float)
        n = unit(cross(b[1] - b[0], b[2] - b[0]))
        if len(self.apex) and (np.asarray(self.apex[0]) - b[0]) @ n < 0:
            n = -n
        return n

    def base_edge_lengths(self) -> np.ndarray:
        b = np.asarray(self.base, dtype=float)
        return np.linalg.norm(np.roll(b, -1, axis=0) - b, axis=1)

    def base_angles(self) -> np.ndarray:
        """Interior angles of the base quadrilateral."""
        return _corner_angles(np.asarray(self.base, dtype=float))

    def base_dihedrals(self) -> np.ndarray:
        """Dihedral angles along the four base edges."""
        if self.poly is None or self.height < 1e-12:
            return np.zeros(4)
        edge = {fs: e for e, fs in enumerate(self.poly.topology.edge_faces)}
        return np.array([dihedral_angle(self.poly, edge[i, 4]) for i in range(4)])

    def scaled(self, factor: float, normalized: bool | None = None) -> "Wedge":
        return Wedge(self.base * factor, self.apex * factor, self.lateral * factor,
                     self.height * factor,
                     self.normalized if normalized is None else normalized,
                     None if self.poly is None else self.poly.scaled(factor))


def _corner_angles(b: np.ndarray) -> np.ndarray:
    """Interior angles of the quadrilateral b[0..3], in 2-D or 3-D."""
    out = []
    for i in range(4):
        u = unit(b[(i + 1) % 4] - b[i])
        w = unit(b[(i - 1) % 4] - b[i])
        out.append(math.acos(min(max(float(u @ w), -1.0), 1.0)))
    return np.array(out)


def _top(poly: Polyhedron) -> list:
    """Vertices of a wedge body off its base face 4, in index order."""
    base = poly.faces[4]
    return [v for v in range(poly.n_vertices) if v not in base]


def normalize_wedge(W: Wedge) -> Wedge:
    """Scale so the longest base edge has length one."""
    longest = float(W.base_edge_lengths().max())
    if longest <= 0:
        raise DegenerateInput("wedge base has no extent")
    return W.scaled(1.0 / longest, normalized=True)


def protruding_wedge(P: Polyhedron, face: int) -> Wedge:
    """Wedge the four neighboring halfspaces carve above a quad face.

    The body is built from the side planes, side t across the host edge
    (cyc[t], cyc[t + 1]), then the flipped host plane. When it keeps all
    five, its face 4 is the base and the wedge is read from its incidence:
    base corner t is the vertex of face 4 on side faces t - 1 and t, the
    apex is the vertices off face 4 in index order, lateral[t] is corner
    t's one neighbour off face 4, and height is the largest apex height
    over the host plane. base holds the host's own corner coordinates.

    Raises BadParameter for a face that is not an integer (is_index) in
    range 0..F-1 or not a quadrilateral, and UnboundedWedge where the
    planes do not close a five-faced body over a quadrilateral base.
    """
    if not P.convex:
        raise NotConvex("protruding wedges are defined on convex hosts")
    if not (is_index(face) and 0 <= face < P.n_faces):
        raise BadParameter(f"face {face!r} is out of range 0..{P.n_faces - 1}")
    cyc = P.faces[face]
    if len(cyc) != 4:
        raise BadParameter(f"face {face} has {len(cyc)} vertices, need 4")
    side_hs = [P.halfspaces[P.topology.face_of[cyc[(t + 1) % 4], cyc[t]]] for t in range(4)]
    if len({id(h) for h in side_hs}) != 4:
        raise UnboundedWedge("face does not have four distinct neighbors")
    hf = P.halfspaces[face]
    flipped = HalfSpace(-hf.normal, -hf.offset)
    try:
        poly = from_halfspaces(tuple(side_hs) + (flipped,))
    except UnboundedIntersection:
        raise UnboundedWedge("adjacent planes do not close above the face")
    except GeometryError as exc:
        raise UnboundedWedge(f"wedge assembly failed: {exc}")
    if poly.n_faces != 5 or len(poly.faces[4]) != 4:
        raise UnboundedWedge("wedge base does not match the host face")

    top = _top(poly)
    corner = {frozenset(poly.vertex_faces(v)): v for v in poly.faces[4]}
    lateral = []
    for t in range(4):
        v = corner[frozenset(((t - 1) % 4, t, 4))]
        lateral += [u for u in poly.topology.neighbours(v) if u in top]
    heights = poly.vertices @ hf.normal - hf.offset
    return Wedge(P.vertices[list(cyc)], poly.vertices[top], poly.vertices[lateral],
                 float(heights[top].max()), False, poly)


def rectangle_deviation(W: Wedge) -> float:
    """Largest deviation of a base angle from a right angle, in radians."""
    return float(np.abs(W.base_angles() - math.pi / 2).max())


def is_good_wedge(W: Wedge) -> bool:
    """Acute dihedrals along every base edge of a rectangular base.

    The rectangle gate is strict (1e-6 angular tolerance); callers wanting
    the relaxed notion report rectangle_deviation alongside.
    """
    if rectangle_deviation(W) > 1e-6:
        return False
    return bool((W.base_dihedrals() < math.pi / 2 - 1e-9).all())


def wedge_top_curvature(W: Wedge) -> float:
    """Smallest angle deficit among the wedge's top vertices.

    For a pyramid tip (single top vertex) this is the apex deficit; callers
    can distinguish that case through W.is_pyramid.
    """
    if W.poly is None:
        raise DegenerateInput("synthetic flat wedge has no top vertex")
    return min(angle_deficit(W.poly, v) for v in _top(W.poly))


def wedge_R(W: Wedge, base_edge: int) -> float:
    """Hinge condition along base edge (base[i], base[i+1]).

    Rotating the base plane about the opposite edge at unit rate moves the
    two designated vertices along their lateral wedge edges; R sums their
    first-order edge-length contributions. Nonpositive R signals an
    improving perturbation of the host.
    """
    if base_edge not in (0, 1, 2, 3):
        raise BadParameter("base edge index must be 0..3")
    i1, i2 = base_edge, (base_edge + 1) % 4
    j1, j2 = (base_edge + 2) % 4, (base_edge + 3) % 4
    b = np.asarray(W.base, dtype=float)
    hinge_a, hinge_b = b[j1], b[j2]
    axis = hinge_b - hinge_a
    if np.linalg.norm(axis) < 1e-12:
        raise DegenerateEdge("opposite edge has zero length")
    axis = unit(axis)
    up = W.base_normal()

    total = 0.0
    for i, other in ((i1, i2), (i2, i1)):
        H = b[i]
        d = np.asarray(W.lateral[i], dtype=float) - H
        dn = np.linalg.norm(d)
        if dn < 1e-12:
            raise DegenerateEdge("lateral wedge edge has zero length")
        d = d / dn
        rel = H - hinge_a
        rho = float(np.linalg.norm(rel - (rel @ axis) * axis))
        denom = float(d @ up)
        if abs(denom) < 1e-12:
            raise DegenerateEdge("lateral edge is parallel to the base plane")
        v = d * (rho / denom)
        # base edges at H run to the designated partner and to the
        # hinge-side neighbor
        u1 = unit(b[other] - H)
        u2 = unit(b[j2 if i == i1 else j1] - H)
        total += float(np.linalg.norm(v) - v @ (u1 + u2))
    return total


@dataclass(frozen=True)
class PyramidQuad:
    """Planar quadrilateral with the degenerate apex at the origin."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (4, 2):
            raise BadParameter("need four 2-vectors")
        if not np.isfinite(p).all():
            raise BadParameter("quadrilateral coordinates must be finite")
        if not np.isfinite(_chain(p.reshape(1, 8))[0]).all():
            raise CoincidentPoints("quadrilateral has coincident points, a vertex "
                                   "on the apex, or crossing edges")
        object.__setattr__(self, "p", p)


# _chain keeps one column per quad, rows x1..x4 then y1..y4 (_XY); _NEXT and
# _PREV4 step rows to the next / previous vertex. _LEFT and _RIGHT pick, from
# Z = [edges Ei = p(i+1) - p(i); diagonals G1 = p3 - p1, G2 = p4 - p2] (x rows,
# then y rows), the factors of the turns E4xE1, E1xE2, E2xE3, E3xE4 and of
# E1xG1, E2xG2, G1xE3, G2xE4: edges 1 and 3 cross when each has the other's
# ends on different sides, and likewise edges 2 and 4.
_XY = np.array([0, 2, 4, 6, 1, 3, 5, 7])
_NEXT = np.array([1, 2, 3, 0, 5, 6, 7, 4])
_PREV4 = np.array([3, 0, 1, 2])
_LEFT = np.array([3, 0, 1, 2, 0, 1, 8, 9, 7, 4, 5, 6, 4, 5, 10, 11])
_RIGHT = np.array([0, 1, 2, 3, 8, 9, 2, 3, 4, 5, 6, 7, 10, 11, 6, 7])


def _chain(X: np.ndarray) -> tuple:
    """Chain residual vectors S (n, 3) and slide-to-apex values F (n, 4)
    of n quads.

    Row i of X is (x1, y1, ..., x4, y4), apex at the origin, scaled here to
    unit longest edge. F(i) = |p_i| - u.p_i - w.p_i, with u and w the unit
    vectors from the two neighbours of p_i towards it. F is returned in the
    row's own units, S = (F1+F2, F2+F3, F3+F4) in the scaled ones; the chain
    residual r is |S| (_residual). A row whose longest edge is below 1e-12,
    whose edges cross, or whose scaled quad has a vertex or an edge shorter
    than 1e-12 gets S = F = inf. Rows never mix: each row's values are what
    it would get on its own.
    """
    P = X.T[_XY]
    D = P[_NEXT] - P
    D *= D
    longest = np.sqrt((D[:4] + D[4:]).max(axis=0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Q = P * (1.0 / longest)
        Qn = Q[_NEXT]
        E = Qn - Q
        L = np.hypot(E[:4], E[4:])
        N = np.hypot(Q[:4], Q[4:])
        EQ = E * Q
        EQn = E * Qn
        F = (N + (EQ[:4] + EQ[4:]) / L) - ((EQn[:4] + EQn[4:]) / L)[_PREV4]
        Z = np.concatenate((E, Q[2:4] - Q[:2], Q[6:] - Q[4:6]))
        A, B = Z[_LEFT], Z[_RIGHT]
        C = A[:8] * B[8:] - A[8:] * B[:8]
    m = (C[:4] > 0) != (C[4:] > 0)
    bad = ((m[:2] & m[2:]).any(axis=0) | (longest < 1e-12)
           | (np.minimum(N, L).min(axis=0) < 1e-12))
    S = F[:3] + F[1:]
    S[:, bad] = math.inf
    F *= longest
    F[:, bad] = math.inf
    return S.T, F.T


def _residual(S: np.ndarray) -> np.ndarray:
    """The chain residuals |S| of _chain's (n, 3) residual vectors."""
    return np.sqrt((S * S).sum(axis=1))


def pyramid_F(q: PyramidQuad) -> tuple:
    """Per-vertex slide-to-apex values F(1..4) of the flat pyramid."""
    return tuple(_chain(q.p.reshape(1, 8))[1][0].tolist())


def _gauge(p: np.ndarray) -> np.ndarray:
    """Each quad of the (m, 4, 2) stack p with its longest edge scaled to 1
    and p1 rotated onto the positive x-axis: bit for bit what the one-quad
    q = p / max|edge|, rot = [[c, s], [-s, c]] with (c, s) = q1 / |q1| and
    q @ rot.T give."""
    D = np.roll(p, -1, axis=1) - p
    q = p / np.sqrt((D * D).sum(axis=2)).max(axis=1)[:, None, None]
    q1 = q[:, 0]
    c, s = (q1 / np.sqrt(rowdot(q1, q1))[:, None]).T
    rot = np.stack((np.stack((c, s), axis=1), np.stack((-s, c), axis=1)), axis=1)
    return q @ rot.transpose(0, 2, 1)


@dataclass(frozen=True)
class ScanSolution:
    """Gauged quadrilateral whose chain residual is below tolerance.

    p is rounded as the JSON prints it, and residual is the residual of p
    as printed, the value tested against tol; maxF is max|F(i)| of p.
    two_adjacent_acute reports the acute-pair exclusion check; a True here
    is evidence against the descent having stayed meaningful, not a claim
    about the source material. origin_inside records whether the apex
    (the origin) lies inside the quadrilateral; only such quads arise as
    height-zero limits of wedges whose top projects onto the base.
    """

    p: np.ndarray
    residual: float
    maxF: float
    two_adjacent_acute: bool
    origin_inside: bool

    def to_dict(self) -> dict:
        return {"p": [json_float(x) for x in self.p.ravel()],
                "residual": json_float(self.residual),
                "maxF": json_float(self.maxF),
                "two_adjacent_acute": self.two_adjacent_acute,
                "origin_inside": self.origin_inside}


@dataclass(frozen=True)
class ScanReport:
    samples: int
    seed: int
    solutions: tuple

    def to_dict(self) -> dict:
        return {"samples": self.samples, "seed": self.seed,
                "solutions": [s.to_dict() for s in self.solutions]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def counterexamples(self, tol: float = 1e-10) -> tuple:
        """Solutions that would refute the closing conjecture.

        Its hypotheses are that the chain holds (residual < tol) and that
        the apex lies inside the quadrilateral (origin_inside), since only
        such quads arise as height-zero limits of wedges whose top projects
        onto the base; a counterexample meets both with some F(i) nonzero
        (max|F| > 100 tol).
        """
        return tuple(s for s in self.solutions
                     if s.residual < tol and s.maxF > 100.0 * tol and s.origin_inside)


def _two_adjacent_acute(p: np.ndarray) -> bool:
    angles = _corner_angles(p)
    return any(angles[i] < math.pi / 2 and angles[(i + 1) % 4] < math.pi / 2
               for i in range(4))


def _origin_inside(p: np.ndarray) -> bool:
    total = 0.0
    for i in range(4):
        a, b = p[i], p[(i + 1) % 4]
        total += math.atan2(a[0] * b[1] - a[1] * b[0], float(a @ b))
    return abs(total) > math.pi


def _star(rng) -> np.ndarray:
    """Random quad around the origin, vertices in angle order, gaps >= 0.2."""
    ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=4))
    if np.min(np.diff(ang, append=ang[0] + 2 * math.pi)) < 0.2:
        ang = np.linspace(0, 2 * math.pi, 5)[:4] + rng.uniform(0, 2 * math.pi)
    rad = rng.uniform(0.3, 1.5, size=4)
    return np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)


_BLOCK = 64        # samples per projection block: a _chain call takes at most 16 x 64 rows
_ITERATIONS = 50   # Gauss-Newton iterations per sample, at most
_H = 1e-6          # central-difference step of the Jacobian
_SHIFTS = np.concatenate((np.eye(8), -np.eye(8))) * _H
_HALVINGS = 0.5 ** np.arange(8)   # the line search's fractions of a step


def check_scan_args(samples: int, seed: int, tol: float) -> None:
    """Raise BadParameter unless cleancond_scan can run with these inputs."""
    if samples < 1:
        raise BadParameter("need at least one sample")
    if seed < 0:
        raise BadParameter("seed must be non-negative")
    if not (math.isfinite(tol) and tol > 0):
        raise BadParameter("tolerance must be finite and positive")


def _project(X: np.ndarray, tol: float) -> None:
    """Project each row of X onto the chain's roots by Gauss-Newton, in place.

    J is the central difference of S through _chain, the 16 shifted copies
    of every live row in one call. The step is the minimum-norm
    d = -J^T (J J^T)^-1 S, the 3 x 3 inverse by the triple-product rule.
    The trials x + 2^-k d, k = 0..7, go in one call, and a row moves to the
    first that lowers r. A row stops below tol / 1000, where no trial lowers
    r (a singular or non-finite step never does), or after _ITERATIONS.
    Every product is elementwise, so rows never mix.
    """
    S = _chain(X)[0]
    r = _residual(S)
    live = np.flatnonzero(r >= tol / 1000)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_ITERATIONS):
            if not live.size:
                break
            x, s, m = X[live], S[live], len(live)
            D = _chain((x + _SHIFTS[:, None]).reshape(-1, 8))[0].reshape(16, m, 3)
            J = (D[:8] - D[8:]) / (2 * _H)                   # J[k, :, i] = dS_i/dx_k
            # J J^T, (m, 3, 3): the built-in sum adds the 8 terms in order,
            # where numpy's .sum(axis=0) may pair them by the stack's layout
            A = sum(J[:, :, :, None] * J[:, :, None, :])
            C = np.cross(A[:, [1, 2, 0]], A[:, [2, 0, 1]])   # det * inverse^T
            y = (C * s[:, :, None]).sum(axis=1) / (A[:, 0] * C[:, 0]).sum(axis=1)[:, None]
            T = x - _HALVINGS[:, None, None] * (J * y).sum(axis=2).T
            St = _chain(T.reshape(-1, 8))[0].reshape(8, m, 3)
            rt = _residual(St.reshape(-1, 3)).reshape(8, m)
            gain = rt < r[live]
            j = np.flatnonzero(gain.any(axis=0))
            k = gain.argmax(axis=0)[j]
            live = live[j]
            X[live], S[live], r[live] = T[k, j], St[k, j], rt[k, j]
            live = live[r[live] >= tol / 1000]


def cleancond_scan(samples: int, seed: int, tol: float = 1e-10) -> ScanReport:
    """Solve for quadrilaterals satisfying the alternating chain.

    Draws all star-shaped starts around the origin first, then projects
    each onto the chain's roots (_project), _BLOCK samples at a time; the
    projections are independent, so each row ends where it would alone.
    The final quads are gauged and rounded as the JSON prints them, and
    exactly those whose residual as printed is below tol are reported, with
    their max|F(i)|, the acute-pair flag and whether the origin is inside
    the quad (the projection is unconstrained, so it can leave the
    star-shaped start region).
    """
    check_scan_args(samples, seed, tol)
    rng = np.random.default_rng(seed)
    X = _gauge(np.array([_star(rng) for _ in range(samples)])).reshape(samples, 8)
    for i in range(0, samples, _BLOCK):
        _project(X[i:i + _BLOCK], tol)
    G = np.array([json_float(x) for x in _gauge(X.reshape(-1, 4, 2)).ravel().tolist()])
    S, F = _chain(G.reshape(-1, 8))
    r = _residual(S)
    found = np.flatnonzero(r < tol)
    G = G.reshape(-1, 4, 2)[found]
    sols = [ScanSolution(g, res, maxF, _two_adjacent_acute(g), _origin_inside(g))
            for g, res, maxF in zip(G, r[found].tolist(),
                                    np.abs(F[found]).max(axis=1).tolist())]
    sols.sort(key=lambda s: (s.residual, s.maxF))
    return ScanReport(samples, seed, tuple(sols))
