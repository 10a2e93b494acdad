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
vertices off the hinge edge for a hinge) and ``_mover_class`` their
shared exposure class; a face move is admissible exactly when there is
one. ``face_moves`` lists each move of a face with its dM, or the
GeometryError it raises, a NotExposedFace or NotSemiExposed refusal for
an inadmissible one (the audit's candidates), as ``vertex_cuts`` lists
the cuts. ``_hinge_axis`` and the face's table give the hinge line and
rotation sense to both the rates and the rebuild.

The one vertex-rate rule: a face plane (n, o) moving at rates (ndot, odot)
moves through its vertex x at rdot = odot - x . ndot, and every velocity
of x or of its correspondents is g * rdot, with g = (n_a x n_b) /
((n_a x n_b) . n) fixed by the corner alone (``gauss.slide_rule``). So a
moved vertex adds a * rdot + b * |rdot| to dE, with (a, b) per corner and
rule: b = 0 at degree 3; a = -g . (u1 + u2) and b = |g| for a vertex of
degree k > 3 that keeps one correspondent; sums over the k - 2
consecutive g_n, with b the sum of |g_n - g_n+1|, for one that splits.
A vertex cut is the split rule of a new plane: its normal c, the incircle
centre, moves at rdot = -1, every fan edge carries one correspondent with
g_n from the edge's two faces and c, and the ring of correspondents
closes, so dE sums |g_n - g_n+1| - |g_n| all the way round
(``gauss.vertex_image``). The one pass over a body's vertices,
``gauss.vertex_table``, classifies each once and takes both rules of
every corner on stacked fans; every face's table is built from it on
first read and memoised, each evaluating the 2 + 2k moves of a k-gon in
one array product, and ``derivatives``, ``face_moves`` and the audit read
them. A corner whose rule has no rate, at a flat slide, fails only the
moves that move it.

The one split rule (``_splits``): when the local motion pushes the
supporting plane outward past an exposed vertex of degree k > 3, the
vertex keeps a single degree-3 correspondent and sheds a new lateral edge;
when the plane cuts inward, the vertex splits into k - 2 correspondents
joined by new ring edges. Negatively exposed vertices behave like exposed
vertices of the complement, which swaps the two cases. The rates and the
vertex/edge counts ``apply`` expects both read it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import is_index
from .errors import (
    BadParameter,
    CombinatorialCollapse,
    GeometryError,
    NotConvex,
    NotExposed,
    NotExposedFace,
    NotSemiExposed,
)
from .gauss import EXPOSED, NEGATIVELY_EXPOSED, exposure, vertex_image, vertex_table
from .polyhedron import HalfSpace, Polyhedron, edge_length, from_halfspaces, melzak_ratio, volume
from .vec3 import cross, ordered_sum, unit

OUT = "out"
IN = "in"
REFUSALS = (NotExposedFace, NotSemiExposed)  # what an inadmissible face move raises


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
        if not (is_index(self.target) and (self.edge is None or is_index(self.edge))):
            raise BadParameter(f"target and edge must be integers, got {self.target!r} "
                               f"and {self.edge!r}")

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


def moving_vertices(P: Polyhedron, pert: Perturbation) -> list:
    """Vertices that ``pert`` moves: every vertex of a translated face, the
    vertices of a hinged face off the hinge edge, the cut vertex."""
    if pert.kind == "vertex_truncate":
        return [pert.target]
    cyc = P.faces[pert.target]
    return [cyc[t] for t in _moved(len(cyc), _move_index(P, pert))]


def _splits(cls: str, direction: str) -> bool:
    """Whether a moved vertex of degree k > 3 in class ``cls`` splits into
    k - 2 correspondents (else it keeps one and sheds a lateral edge)."""
    return cls != (EXPOSED if direction == OUT else NEGATIVELY_EXPOSED)


def _moved(k: int, m: int) -> list:
    """The corners move m of a k-gon moves: all of them for the translate,
    all but the hinge edge's two ends for a hinge."""
    hinge = m // 2 - 1
    return [t for t in range(k) if hinge < 0 or (t - hinge) % k > 1]


def _hinge_axis(P: Polyhedron, f: int, t: int) -> tuple:
    """(a, w): the lower-numbered end of the edge from corner t to corner
    t + 1 of face ``f``, and the unit direction to its other end."""
    cyc = P.faces[f]
    i, j = sorted((cyc[t], cyc[(t + 1) % len(cyc)]))
    a = P.vertices[i]
    return a, unit(P.vertices[j] - a)


def _mover_class(f: int, hinge: bool, classes: list, axis_error) -> str:
    """The exposure class the movers of a move of face ``f`` share, from
    their ``classes`` in cycle order; raises what the move's derivatives
    raise when there is none, and then ``axis_error``, the GeometryError of
    a hinge without an axis, if any."""
    for cls in classes:
        if isinstance(cls, GeometryError):
            raise cls
    cls = classes[0]
    if len(set(classes)) > 1 or cls not in (EXPOSED, NEGATIVELY_EXPOSED):
        msg = f"face {f}: moving vertices are not uniformly exposed or negatively exposed"
        if hinge:
            raise NotSemiExposed(msg)
        raise NotExposedFace(msg)
    if axis_error is not None:
        raise axis_error
    return cls


def _face_tables(P: Polyhedron) -> dict:
    """face -> its ``_face_table``, every face's built from the body's
    ``gauss.vertex_table`` on first read and memoised in ``P.corner_rates``."""
    tables = P.corner_rates
    if not tables:
        facts = vertex_table(P)
        tables.update({f: _face_table(P, f, facts) for f in range(P.n_faces)})
    return tables


def _face_table(P: Polyhedron, f: int, facts: dict) -> tuple:
    """(rates, sigma, errors, moves): every move of face ``f``, from the
    classes and corner rules of its vertices' ``facts``. Move m of a k-gon is
    the translate (m = 0 out, 1 in) or the hinge about the edge from corner
    t to corner t + 1 (m = 2 + 2t out, 3 + 2t in). ``rates`` (k + 3, M)
    holds the dE of each corner under each move (0 where the move leaves
    it), then each move's dE, dV and dM; ``sigma`` the rotation sense of
    each slot's outward hinge; ``errors`` maps each move without a rate to
    its GeometryError, a failed corner rule failing only the moves that
    move it under that rule; ``moves`` is what ``face_moves`` lists."""
    cyc = P.faces[f]
    k = len(cyc)
    rules, failed = zip(*(facts[v].corners[f] for v in cyc))
    n_face = P.face_normal(f)
    c = P.face_centroid(f)
    axis_errors, sigma = [None], []
    planes = np.zeros((2 * k + 2, 4))
    planes[:2, 3] = (1.0, -1.0)
    for t in range(k):
        try:
            a, w = _hinge_axis(P, f, t)
        except GeometryError as exc:
            axis_errors.append(exc)
            sigma.append(None)
            continue
        axis_errors.append(None)
        # plane speed along n at a point y is <a - y, w x n>; out means positive
        # speed over the face interior, probed at the centroid
        wn = cross(w, n_face)
        sigma.append(1.0 if float((a - c) @ wn) > 0 else -1.0)
        for m, ndot in ((2 + 2 * t, sigma[t] * wn), (3 + 2 * t, -sigma[t] * wn)):
            planes[m] = (*ndot, float(a @ ndot))
    movers = np.zeros((k, 2 * k + 2), dtype=bool)
    split = np.zeros(2 * k + 2, dtype=int)
    errors = {}
    for s in range(k + 1):  # the translate, then the hinge at each slot
        moved = _moved(k, 2 * s)
        movers[moved, 2 * s:2 * s + 2] = True
        try:
            cls = _mover_class(f, s > 0, [facts[cyc[t]].cls for t in moved], axis_errors[s])
        except GeometryError as exc:
            errors[2 * s] = errors[2 * s + 1] = exc.with_traceback(None)
            continue
        for m, direction in ((2 * s, OUT), (2 * s + 1, IN)):
            split[m] = _splits(cls, direction)
            err = next((failed[t][split[m]] for t in moved if failed[t][split[m]]), None)
            if err is not None:
                errors[m] = err
    # corner t adds a * rdot + b * |rdot| to move m's dE, (a, b) its rule
    # under the move's split and rdot = odot - x_t . ndot; dV = A_f odot - M_f . ndot
    X, coef = P.vertices[list(cyc)], np.array(rules)[:, split]
    nd, od = planes[:, :3], planes[:, 3]
    rdot = od - (X[:, :1] * nd[:, 0] + X[:, 1:2] * nd[:, 1] + X[:, 2:] * nd[:, 2])
    corner_dE = np.where(movers, coef[..., 0] * rdot + coef[..., 1] * np.abs(rdot), 0.0)
    dE = ordered_sum(corner_dE, axis=0)
    mom = P.face_moments[f]
    dV = P.face_area(f) * od - (mom[0] * nd[:, 0] + mom[1] * nd[:, 1] + mom[2] * nd[:, 2])
    rates = np.vstack((corner_dE, dE, dV, _ratio_rate(edge_length(P), volume(P), dE, dV)))
    perts = [Perturbation("face_translate", f, d) for d in (OUT, IN)]
    perts += [Perturbation("face_hinge", f, d, P.edge_index(i, j))
              for i, j in zip(cyc, cyc[1:] + cyc[:1]) for d in (OUT, IN)]
    moves = [(pert, errors.get(m, dM))
             for m, (pert, dM) in enumerate(zip(perts, rates[-1].tolist()))]
    return rates, tuple(sigma), errors, moves


def _move_index(P: Polyhedron, pert: Perturbation) -> int:
    """Index of face move ``pert`` in its face's table."""
    back = pert.direction == IN
    if pert.kind == "face_translate":
        return int(back)
    i, j = P.edges[pert.edge]
    cyc = P.faces[pert.target]
    t = cyc.index(i if P.topology.face_of.get((i, j)) == pert.target else j)
    return 2 + 2 * t + back


def _hinge_frame(P: Polyhedron, pert: Perturbation) -> tuple:
    """(a, w, sigma): a point and unit direction of the hinge line, and the
    rotation sense that moves the face plane in ``pert.direction``."""
    t = _move_index(P, pert) // 2 - 1
    a, w = _hinge_axis(P, pert.target, t)
    sigma = _face_tables(P)[pert.target][1][t]
    return a, w, sigma if pert.direction == OUT else -sigma


def face_moves(P: Polyhedron, f: int) -> list:
    """(Perturbation, dM) of each move of face ``f``: both directions of its
    translate, then of its hinge about each edge in cycle order, out before
    in. A move without a rate has the GeometryError its derivatives raise
    in place of dM. Every read returns the list stored with the face's table."""
    return _face_tables(P)[f][3]


def _ratio_rate(E0: float, V0: float, dE, dV):
    """dM = d(E^3/V) at (E0, V0) from dE and dV, floats or arrays."""
    return (3.0 * E0 * E0 / V0) * dE - (E0 ** 3 / V0 ** 2) * dV


def _report(P: Polyhedron, pert: Perturbation, dE: float, dV: float,
            per_vertex: dict) -> DerivativeReport:
    """The report of ``pert``, with M0 and dM from dE and dV."""
    E0, V0 = edge_length(P), volume(P)
    return DerivativeReport(pert, E0, V0, E0 ** 3 / V0, dE, dV,
                            _ratio_rate(E0, V0, dE, dV), per_vertex)


def _face_report(P: Polyhedron, pert: Perturbation) -> DerivativeReport:
    """The report of face move ``pert``, read from its face's table."""
    _check_indices(P, pert)
    m = _move_index(P, pert)
    rates, _, errors, _ = _face_tables(P)[pert.target]
    if m in errors:
        raise type(errors[m])(*errors[m].args)
    cyc = P.faces[pert.target]
    rates = rates[:, m].tolist()
    per_vertex = {cyc[t]: rates[t] for t in _moved(len(cyc), m)}
    return _report(P, pert, rates[-3], rates[-2], per_vertex)


def face_translate_derivatives(P: Polyhedron, face: int,
                               direction: str = OUT) -> DerivativeReport:
    """One-sided derivatives for translating a face plane along its normal."""
    return _face_report(P, Perturbation("face_translate", face, direction))


def face_hinge_derivatives(P: Polyhedron, face: int, hinge_edge: int,
                           direction: str = OUT) -> DerivativeReport:
    """One-sided derivatives for rotating a face plane about one of its edges."""
    return _face_report(P, Perturbation("face_hinge", face, direction, hinge_edge))


def vertex_truncate_derivatives(P: Polyhedron, vertex: int) -> DerivativeReport:
    """One-sided derivatives for cutting a vertex with its incircle plane.

    Volume changes at second order only, so dV = 0. Works for exposed
    vertices and, through the complement image, negatively exposed ones.
    The correspondent on the edge of fan faces S_n and S_n+1 moves at
    -g_n, g_n the ``gauss.slide_rule`` of S_n, S_n+1 and the incircle
    centre c; the rate is read from ``gauss.vertex_image``.
    """
    pert = Perturbation("vertex_truncate", vertex)
    _check_indices(P, pert)
    dE = vertex_image(P, vertex).cut
    if isinstance(dE, GeometryError):
        raise type(dE)(*dE.args)
    return _report(P, pert, dE, 0.0, {vertex: dE})


def vertex_cuts(P: Polyhedron) -> list:
    """(Perturbation, dM) of each vertex's cut, in vertex order: the dM its
    derivatives report, from ``gauss.vertex_image``, or the GeometryError
    they raise in place of dM."""
    E0, V0 = edge_length(P), volume(P)
    cuts = []
    for v in range(P.n_vertices):
        try:
            dE = vertex_image(P, v).cut
        except GeometryError as exc:
            dE = exc
        rate = dE if isinstance(dE, GeometryError) else _ratio_rate(E0, V0, dE, 0.0)
        cuts.append((Perturbation("vertex_truncate", v), rate))
    return cuts


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
        i, j = P.edges[pert.edge]
        if pert.target not in (P.topology.face_of.get((i, j)), P.topology.face_of.get((j, i))):
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

    Raises BadParameter for a ``t`` that is not finite and nonnegative, or
    an index ``P`` does not have.
    """
    if not (math.isfinite(t) and t >= 0):
        raise BadParameter(f"perturbation parameter must be finite and nonnegative, got {t!r}")
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
    inc = vertex_image(P, v).incircle
    offset = float(P.vertices[v] @ inc.center) - t
    hs.append(HalfSpace(inc.center, offset))
    return tuple(hs)


def apply(P: Polyhedron, pert: Perturbation, t: float) -> Polyhedron:
    """Realize the perturbation at parameter ``t`` by a full rebuild.

    Raises CombinatorialCollapse when the rebuilt polyhedron does not have
    the vertex/edge/face counts the first-order picture predicts, which is
    how crossing ``t_max`` manifests, and NotConvex for a body that is
    not convex.
    """
    if not P.convex:
        raise NotConvex("apply() requires a convex polyhedron")
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
