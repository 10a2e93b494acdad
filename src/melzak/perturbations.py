"""One-sided shape derivatives of edge length, volume and their ratio.

Three perturbation kinds modify a single halfspace (or append one) and
rebuild the polyhedron:

* face translation along the outward normal, either direction;
* face hinge rotation about one of the face's own edges;
* vertex cut by a plane normal to the spherical-image incircle center.

Derivatives are evaluated analytically from vertex velocities obtained by
linearizing the plane intersections, never by finite differences; the
finite-difference routine exists as an independent cross-check.

Each rule of a face move is decided in one place. ``moving_vertices``
names the vertices a move moves (the whole face for a translate, the
vertices off the hinge edge for a hinge) and ``uniform_exposure`` their
shared exposure class; a face move is admissible exactly when there is
one, which is also how the audit picks its candidates. ``_hinge_frame``
gives the hinge line and rotation sense to both the rates and the
rebuild, and one per-vertex loop (``_face_rates``) serves both face kinds.

The one split rule (``_splits``): when the local motion pushes the
supporting plane outward past an exposed vertex of degree k > 3, the
vertex keeps a single degree-3 correspondent and sheds a new lateral edge;
when the plane cuts inward, the vertex splits into k - 2 correspondents
joined by new ring edges. Negatively exposed vertices behave like exposed
vertices of the complement, which swaps the two cases. The rates and the
vertex/edge counts ``apply`` expects both read it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameter,
    CombinatorialCollapse,
    DegenerateInput,
    GeometryError,
    NotExposed,
    NotExposedFace,
    NotSemiExposed,
)
from .gauss import (
    EXPOSED,
    NEGATIVELY_EXPOSED,
    exposure,
    ordered_edges_at_vertex,
    ordered_faces_at_vertex,
    vertex_incircle,
)
from .polyhedron import HalfSpace, Polyhedron, edge_length, from_halfspaces, melzak_ratio, volume
from .vec3 import cross, norm, unit

OUT = "out"
IN = "in"


@dataclass(frozen=True)
class Perturbation:
    """Description of a one-parameter family of halfspace modifications."""

    kind: str                    # face_translate | face_hinge | vertex_truncate
    target: int                  # face index, or vertex index for cuts
    direction: str = OUT         # out | in (ignored by vertex_truncate)
    edge: int | None = None      # hinge edge index into P.edges

    def __post_init__(self):
        if self.kind not in ("face_translate", "face_hinge", "vertex_truncate"):
            raise BadParameter(f"unknown perturbation kind {self.kind!r}")
        if self.direction not in (OUT, IN):
            raise BadParameter(f"direction must be 'out' or 'in', got {self.direction!r}")
        if self.kind == "face_hinge" and self.edge is None:
            raise BadParameter("face_hinge needs an edge index")

    def label(self) -> str:
        if self.kind == "face_translate":
            return f"translate:f={self.target}:{self.direction}"
        if self.kind == "face_hinge":
            return f"hinge:f={self.target}:e={self.edge}:{self.direction}"
        return f"truncate:v={self.target}"


@dataclass(frozen=True)
class DerivativeReport:
    perturbation: Perturbation
    E0: float
    V0: float
    M0: float
    dE: float
    dV: float
    dM: float
    per_vertex_dE: dict
    fd_step: float | None = None
    fd_dE: float | None = None
    fd_dV: float | None = None
    fd_dM: float | None = None

    def to_dict(self) -> dict:
        out = {
            "perturbation": self.perturbation.label(),
            "E0": self.E0, "V0": self.V0, "M0": self.M0,
            "dE": self.dE, "dV": self.dV, "dM": self.dM,
            "per_vertex_dE": {str(k): v for k, v in sorted(self.per_vertex_dE.items())},
        }
        if self.fd_step is not None:
            out.update(fd_step=self.fd_step, fd_dE=self.fd_dE,
                       fd_dV=self.fd_dV, fd_dM=self.fd_dM)
        return out


def _line_velocity(n_a, n_b, n_move, ndot, odot, point) -> np.ndarray:
    """Velocity of the intersection of two static planes and a moving one."""
    d = cross(n_a, n_b)
    denom = d @ n_move
    if abs(denom) <= 1e-13:
        raise DegenerateInput("vertex slides along a direction parallel to the moving plane")
    rate = odot - point @ ndot
    return d * (rate / denom)


def _local_fan(P: Polyhedron, f: int, v: int) -> tuple:
    """Side faces and neighbor vertices of ``v`` arranged from one edge of
    face ``f`` to the other: ([S_1..S_{k-1}], [nbr_0..nbr_{k-1}]).

    nbr_0 and nbr_{k-1} are the face's own edge neighbors (u1, u2 ends);
    nbr_1..nbr_{k-2} are the lateral edge neighbors, ordered so that the
    lateral edge n lies on the planes of S_n and S_{n+1}.
    """
    faces = ordered_faces_at_vertex(P, v)
    nbrs = ordered_edges_at_vertex(P, v)
    k = faces.index(f)
    faces = faces[k:] + faces[:k]
    nbrs = nbrs[k:] + nbrs[:k]
    return faces[1:], nbrs


def moving_vertices(P: Polyhedron, pert: Perturbation) -> list:
    """Vertices that ``pert`` moves: every vertex of a translated face, the
    vertices of a hinged face off the hinge edge, the cut vertex."""
    if pert.kind == "vertex_truncate":
        return [pert.target]
    cyc = P.faces[pert.target]
    if pert.kind == "face_translate":
        return list(cyc)
    hinge = P.edges[pert.edge]
    return [v for v in cyc if v not in hinge]


def uniform_exposure(P: Polyhedron, vertices) -> str | None:
    """EXPOSED or NEGATIVELY_EXPOSED when every vertex has that class, else None.

    A face move is admissible exactly when its moving vertices share a class.
    """
    classes = {exposure(P, v) for v in vertices}
    cls = classes.pop() if len(classes) == 1 else None
    return cls if cls in (EXPOSED, NEGATIVELY_EXPOSED) else None


def _mover_class(P: Polyhedron, pert: Perturbation) -> str:
    """Exposure class shared by the movers of a face move; a translate
    raises NotExposedFace and a hinge NotSemiExposed when there is none."""
    cls = uniform_exposure(P, moving_vertices(P, pert))
    if cls is None:
        msg = (f"face {pert.target}: moving vertices are not uniformly exposed "
               "or negatively exposed")
        if pert.kind == "face_hinge":
            raise NotSemiExposed(msg)
        raise NotExposedFace(msg)
    return cls


def _splits(cls: str, direction: str) -> bool:
    """Whether a moved vertex of degree k > 3 in class ``cls`` splits into
    k - 2 correspondents (else it keeps one and sheds a lateral edge)."""
    return cls != (EXPOSED if direction == OUT else NEGATIVELY_EXPOSED)


def _hinge_frame(P: Polyhedron, pert: Perturbation) -> tuple:
    """(a, w, sigma): a point and unit direction of the hinge line, and the
    rotation sense that moves the face plane in ``pert.direction``."""
    i, j = P.edges[pert.edge]
    a = P.vertices[i]
    w = unit(P.vertices[j] - a)
    c = P.face_centroid(pert.target)
    # plane speed along n at a point y is <a - y, w x n>; out means positive
    # speed over the face interior, probed at the centroid
    sigma = 1.0 if float((a - c) @ cross(w, P.face_normal(pert.target))) > 0 else -1.0
    return a, w, sigma if pert.direction == OUT else -sigma


def _face_rates(P: Polyhedron, pert: Perturbation, cls: str, ndot, odot) -> dict:
    """dE contribution of each vertex a face move of class ``cls`` moves
    while the face plane (n, o) moves at rates (ndot, odot)."""
    f = pert.target
    n_move = P.face_normal(f)
    splits = _splits(cls, pert.direction)
    rates = {}
    for v in moving_vertices(P, pert):
        sides, nbrs = _local_fan(P, f, v)
        k = len(sides) + 1
        H = P.vertices[v]
        u1 = unit(P.vertices[nbrs[0]] - H)
        u2 = unit(P.vertices[nbrs[-1]] - H)
        if k == 3 or not splits:
            va = _line_velocity(P.face_normal(sides[0]), P.face_normal(sides[-1]),
                                n_move, ndot, odot, H)
            d = -(va @ (u1 + u2))
            if k == 3:
                d -= va @ unit(P.vertices[nbrs[1]] - H)
            else:
                d += norm(va)  # new lateral edge sprouts from the old vertex
        else:
            vs = [_line_velocity(P.face_normal(sides[n]), P.face_normal(sides[n + 1]),
                                 n_move, ndot, odot, H) for n in range(k - 2)]
            d = -(vs[0] @ u1) - (vs[-1] @ u2)
            for n in range(k - 3):
                d += norm(vs[n] - vs[n + 1])
            for n in range(k - 2):
                d -= vs[n] @ unit(P.vertices[nbrs[n + 1]] - H)
        rates[v] = float(d)
    return rates


def _report(P: Polyhedron, pert: Perturbation, dE: float, dV: float,
            per_vertex: dict) -> DerivativeReport:
    """The report of ``pert``, with M0 and dM = d(E^3/V) from dE and dV."""
    E0, V0 = edge_length(P), volume(P)
    dM = (3.0 * E0 * E0 / V0) * dE - (E0 ** 3 / V0 ** 2) * dV
    return DerivativeReport(pert, E0, V0, E0 ** 3 / V0, dE, dV, dM, per_vertex)


def face_translate_derivatives(P: Polyhedron, face: int,
                               direction: str = OUT) -> DerivativeReport:
    """One-sided derivatives for translating a face plane along its normal."""
    pert = Perturbation("face_translate", face, direction)
    _check_indices(P, pert)
    cls = _mover_class(P, pert)
    odot = 1.0 if direction == OUT else -1.0
    per_vertex = _face_rates(P, pert, cls, np.zeros(3), odot)
    return _report(P, pert, float(sum(per_vertex.values())),
                   float(P.face_area(face) * odot), per_vertex)


def face_hinge_derivatives(P: Polyhedron, face: int, hinge_edge: int,
                           direction: str = OUT) -> DerivativeReport:
    """One-sided derivatives for rotating a face plane about one of its edges."""
    pert = Perturbation("face_hinge", face, direction, hinge_edge)
    _check_indices(P, pert)
    cls = _mover_class(P, pert)
    a, w, sigma = _hinge_frame(P, pert)
    ndot = sigma * cross(w, P.face_normal(face))
    odot = float(a @ ndot)
    per_vertex = _face_rates(P, pert, cls, ndot, odot)
    dV = P.face_area(face) * odot - float(P.face_moments[face] @ ndot)
    return _report(P, pert, float(sum(per_vertex.values())), dV, per_vertex)


def vertex_truncate_derivatives(P: Polyhedron, vertex: int) -> DerivativeReport:
    """One-sided derivatives for cutting a vertex with its incircle plane.

    Volume changes at second order only, so dV = 0. Works for exposed
    vertices and, through the complement image, negatively exposed ones.
    """
    pert = Perturbation("vertex_truncate", vertex)
    _check_indices(P, pert)
    c = vertex_incircle(P, vertex)[1].center
    H = P.vertices[vertex]
    nbrs = ordered_edges_at_vertex(P, vertex)
    vs = []
    for u in nbrs:
        w = unit(P.vertices[u] - H)
        s = abs(w @ c)
        if s <= 1e-12:
            raise DegenerateInput("cut plane is parallel to an incident edge")
        vs.append(w / s)
    k = len(vs)
    dE = 0.0
    for n in range(k):
        dE += norm(vs[n] - vs[(n + 1) % k])
        dE -= norm(vs[n])
    return _report(P, pert, float(dE), 0.0, {vertex: float(dE)})


def _check_indices(P: Polyhedron, pert: Perturbation) -> None:
    """Raise BadParameter when ``pert`` names a face, vertex or hinge edge
    that ``P`` does not have, or a hinge edge off its face."""
    element, count = (("vertex", P.n_vertices) if pert.kind == "vertex_truncate"
                      else ("face", P.n_faces))
    if not 0 <= pert.target < count:
        raise BadParameter(f"{element} {pert.target} is out of range 0..{count - 1}")
    if pert.kind == "face_hinge":
        if not 0 <= pert.edge < P.n_edges:
            raise BadParameter(f"edge {pert.edge} is out of range 0..{P.n_edges - 1}")
        if not set(P.edges[pert.edge]) <= set(P.faces[pert.target]):
            raise BadParameter(f"edge {pert.edge} is not an edge of face {pert.target}")


def derivatives(P: Polyhedron, pert: Perturbation) -> DerivativeReport:
    """Dispatch to the analytic derivative evaluator for ``pert``.

    Raises BadParameter when ``pert`` names a face, vertex or hinge edge
    that ``P`` does not have.
    """
    if pert.kind == "face_translate":
        return face_translate_derivatives(P, pert.target, pert.direction)
    if pert.kind == "face_hinge":
        return face_hinge_derivatives(P, pert.target, pert.edge, pert.direction)
    return vertex_truncate_derivatives(P, pert.target)


def _expected_counts(P: Polyhedron, pert: Perturbation) -> tuple:
    """(V, E, F) the perturbed polyhedron must have below its collapse scale."""
    if pert.kind == "vertex_truncate":
        deg = P.vertex_degree(pert.target)
        return P.n_vertices + deg - 1, P.n_edges + deg, P.n_faces + 1
    dv = 0
    for v in moving_vertices(P, pert):
        k = P.vertex_degree(v)
        if k > 3:
            dv += k - 3 if _splits(exposure(P, v), pert.direction) else 1
    return P.n_vertices + dv, P.n_edges + dv, P.n_faces


def perturbed_halfspaces(P: Polyhedron, pert: Perturbation, t: float) -> tuple:
    """Halfspace set of the perturbed polyhedron at parameter ``t``.

    Raises BadParameter for a negative ``t`` or an index ``P`` does not have.
    """
    if t < 0:
        raise BadParameter("perturbation parameter must be nonnegative")
    _check_indices(P, pert)
    hs = list(P.halfspaces)
    if pert.kind == "face_translate":
        delta = t if pert.direction == OUT else -t
        hs[pert.target] = hs[pert.target].translated(delta)
        return tuple(hs)
    if pert.kind == "face_hinge":
        a, w, sigma = _hinge_frame(P, pert)
        hs[pert.target] = hs[pert.target].rotated_about_line(a, w, sigma * t)
        return tuple(hs)
    # vertex cut
    v = pert.target
    if exposure(P, v) != EXPOSED:
        raise NotExposed(f"vertex {v} must be exposed to realize a cut")
    inc = vertex_incircle(P, v)[1]
    offset = float(P.vertices[v] @ inc.center) - t
    hs.append(HalfSpace(inc.center, offset))
    return tuple(hs)


def apply(P: Polyhedron, pert: Perturbation, t: float) -> Polyhedron:
    """Realize the perturbation at parameter ``t`` by a full rebuild.

    Raises CombinatorialCollapse when the rebuilt polyhedron does not have
    the vertex/edge/face counts the first-order picture predicts, which is
    how crossing ``t_max`` manifests.
    """
    if not P.convex:
        raise BadParameter("apply() requires a convex polyhedron")
    try:
        Q = from_halfspaces(perturbed_halfspaces(P, pert, t))
    except BadParameter:
        raise
    except GeometryError as exc:
        raise CombinatorialCollapse(f"rebuild failed at t={t}: {exc}")
    if t == 0.0:
        return Q
    expected = _expected_counts(P, pert)
    got = (Q.n_vertices, Q.n_edges, Q.n_faces)
    if got != expected:
        raise CombinatorialCollapse(
            f"counts {got} at t={t}, expected {expected}: crossed a combinatorial boundary")
    # counts alone can coincide across a collapse, so compare the type
    # against a build just past zero where the first-order structure is
    # guaranteed to be the realized one
    t_ref = 1e-6 * P.diameter()
    if t > t_ref:
        try:
            Q_ref = from_halfspaces(perturbed_halfspaces(P, pert, t_ref))
        except GeometryError as exc:
            raise CombinatorialCollapse(f"reference rebuild failed: {exc}")
        if Q.type_key() != Q_ref.type_key():
            raise CombinatorialCollapse(
                f"combinatorics at t={t} differ from the emerging structure")
    return Q


def finite_difference_check(P: Polyhedron, pert: Perturbation,
                            h_sequence=None) -> dict:
    """One-sided difference quotients of E, V, M at the given steps.

    Default steps are {1e-3, 1e-4, 1e-5} times the diameter. Entries map
    h -> (dE, dV, dM) estimates.
    """
    if h_sequence is None:
        diam = P.diameter()
        h_sequence = [s * diam for s in (1e-3, 1e-4, 1e-5)]
    E0, V0 = edge_length(P), volume(P)
    M0 = E0 ** 3 / V0
    out = {}
    for h in h_sequence:
        Q = apply(P, pert, h)
        out[h] = ((edge_length(Q) - E0) / h, (volume(Q) - V0) / h,
                  (melzak_ratio(Q) - M0) / h)
    return out


def with_fd(report: DerivativeReport, P: Polyhedron, h: float | None = None) -> DerivativeReport:
    """Attach a finite-difference cross-check at one step to a report."""
    if h is None:
        h = 1e-5 * P.diameter()
    fd = finite_difference_check(P, report.perturbation, [h])[h]
    return DerivativeReport(report.perturbation, report.E0, report.V0, report.M0,
                            report.dE, report.dV, report.dM, report.per_vertex_dE,
                            h, float(fd[0]), float(fd[1]), float(fd[2]))
