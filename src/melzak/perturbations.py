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
every corner on stacked fans, stored on the slots of the padded corner
table (``Topology.corner_table``). Every face's table is built from it on
first read in one padded pass over that table and memoised: the hinge
axes and senses, the 2 + 2k move planes of each k-gon, the movers, their
shared class and split, and the rates of every move of every face are
array operations, and Python only lists each face's moves and the errors
of the moves without a rate. ``derivatives``, ``face_moves`` and the
audit read the tables. A corner whose rule has no rate, at a flat slide,
fails only the moves that move it.

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
from .vec3 import lengths, ordered_sum, rowcross, rowdot, unit

OUT = "out"
IN = "in"
REFUSALS = (NotExposedFace, NotSemiExposed)  # what an inadmissible face move raises
_CODES = {EXPOSED: 0, NEGATIVELY_EXPOSED: 1}  # a class's code; any other class 2, an error 3


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


def _slot_error(P: Polyhedron, facts: dict, f: int, s: int) -> GeometryError:
    """The GeometryError of slot ``s`` of face ``f`` (the translate, then
    the hinge at each edge) when the slot has no shared mover class or no
    hinge axis, by ``_mover_class``'s rules."""
    cyc = P.faces[f]
    axis_error = None
    if s:
        try:
            _hinge_axis(P, f, s - 1)
        except GeometryError as exc:
            axis_error = exc
    try:
        _mover_class(f, s > 0, [facts[cyc[t]].cls for t in _moved(len(cyc), 2 * s)], axis_error)
    except GeometryError as exc:
        return exc.with_traceback(None)


def _face_tables(P: Polyhedron) -> dict:
    """face -> (rates, sigma, errors, moves), every face's built on first
    read in one padded pass over ``Topology.corner_table`` from the body's
    ``gauss.vertex_table``, and memoised in ``P.tables``.

    Move m of a k-gon is the translate (m = 0 out, 1 in) or the hinge about
    the edge from corner t to corner t + 1 (m = 2 + 2t out, 3 + 2t in).
    ``rates`` (k + 3, 2k + 2) holds the dE of each corner under each move
    (0 where the move leaves it), then each move's dE, dV and dM; ``sigma``
    the rotation sense of each slot's outward hinge; ``errors`` maps each
    move without a rate to its GeometryError, a failed corner rule failing
    only the moves that move it under that rule; ``moves`` is what
    ``face_moves`` lists."""
    tables = P.tables.get("faces")
    if tables is not None:
        return tables
    table = vertex_table(P)
    top, X, N = P.topology, P.vertices, P.planes[0]
    ends, mask = top.corner_table, top.corner_mask
    F, K = mask.shape
    k = mask.sum(axis=1)
    fi, slots = np.arange(F)[:, None], np.arange(K)
    real = np.concatenate([np.ones((F, 1), dtype=bool), mask], axis=1)  # (F, K + 1 slots)
    corner = X[ends[..., 0]]
    # the hinge at slot t turns about its edge's lower-numbered end a, along w
    lo, hi = ends.min(axis=-1), ends.max(axis=-1)
    a, edge = X[lo], X[hi] - X[lo]
    size = lengths(edge)
    axis_ok = mask & (size != 0.0)
    w = edge / np.where(axis_ok, size, 1.0)[..., None]
    # plane speed along n at a point y is <a - y, w x n>; out means positive
    # speed over the face interior, probed at the centroid
    centroid = ordered_sum(np.where(mask[..., None], corner, 0.0), axis=1) / k[:, None]
    wn = rowcross(w, N[:, None])
    sigma = np.where(rowdot(a - centroid[:, None], wn) > 0, 1.0, -1.0)
    planes = np.zeros((F, 2 * K + 2, 4))
    planes[:, :2, 3] = (1.0, -1.0)
    for m, sense in ((2, sigma), (3, -sigma)):
        ndot = np.where(axis_ok[..., None], sense[..., None] * wn, 0.0)
        planes[:, m::2, :3] = ndot
        planes[:, m::2, 3] = np.where(axis_ok, rowdot(a, ndot), 0.0)
    # movers (F, K + 1 slots, K corners): every corner for the translate,
    # all but the hinge edge's two ends for a hinge
    hinge = slots[:, None]
    stays = (slots == hinge) | (slots == (hinge + 1) % k[:, None, None])
    movers = np.concatenate([mask[:, None], mask[:, None] & ~stays], axis=1) & real[..., None]
    # a slot's movers share a class when their codes' least equals their
    # greatest and is 0 or 1; a slot without one, or without an axis, is bad
    facts = table.facts
    codes = np.array([3 if isinstance(fact.cls, GeometryError) else _CODES.get(fact.cls, 2)
                      for fact in facts.values()], dtype=int)
    code = codes[ends[:, None, :, 0]]
    cls = np.where(movers, code, 4).min(axis=-1)
    most = np.where(movers, code, -1).max(axis=-1)
    bad = real & ((most > 1) | (cls != most))
    bad[:, 1:] |= mask & ~axis_ok
    split = np.zeros((F, 2 * K + 2), dtype=int)  # a refused slot reads rule 0
    split[:, 0::2] = ~bad & (cls != _CODES[EXPOSED])
    split[:, 1::2] = ~bad & (cls != _CODES[NEGATIVELY_EXPOSED])
    # corner t adds a * rdot + b * |rdot| to move m's dE, (a, b) its rule
    # under the move's split and rdot = odot - x_t . ndot; dV = A_f odot - M_f . ndot
    moved = np.repeat(movers, 2, axis=1).transpose(0, 2, 1)  # (F, K, M)
    pick = fi[..., None], slots[:, None], split[:, None]
    coef = table.rules[pick]
    nd, od = planes[:, None, :, :3], planes[:, None, :, 3]
    rdot = od - (corner[..., :1] * nd[..., 0] + corner[..., 1:2] * nd[..., 1]
                 + corner[..., 2:] * nd[..., 2])
    corner_dE = np.where(moved, coef[..., 0] * rdot + coef[..., 1] * np.abs(rdot), 0.0)
    dE = ordered_sum(corner_dE, axis=1)
    mom, nd, od = P.face_moments, planes[..., :3], planes[..., 3]
    dV = P.face_areas[:, None] * od - (mom[:, :1] * nd[..., 0] + mom[:, 1:2] * nd[..., 1]
                                       + mom[:, 2:] * nd[..., 2])
    rates = np.empty((F, K + 3, 2 * K + 2))
    rates[:, :K] = corner_dE
    rates[fi, k[:, None] + np.arange(3)] = np.stack(
        (dE, dV, _ratio_rate(edge_length(P), volume(P), dE, dV)), axis=1)
    # a move's failed rule: the first mover, in cycle order, whose rule fails
    fails = moved & table.failed.astype(bool)[pick]
    errors = [{} for _ in range(F)]
    for f, s in np.argwhere(bad).tolist():
        errors[f][2 * s] = errors[f][2 * s + 1] = _slot_error(P, facts, f, s)
    first = fails.argmax(axis=1)
    for f, m in np.argwhere(fails.any(axis=1) & ~np.repeat(bad, 2, axis=1)).tolist():
        errors[f][m] = table.failed[f, first[f, m], split[f, m]]
    tables = {}
    for f, (row, n, err, senses, ok) in enumerate(zip(
            rates, k.tolist(), errors, sigma.tolist(), axis_ok.tolist())):
        perts = [Perturbation("face_translate", f, d) for d in (OUT, IN)]
        perts += [Perturbation("face_hinge", f, d, top.edge_id[i, j])
                  for i, j in zip(lo[f, :n].tolist(), hi[f, :n].tolist()) for d in (OUT, IN)]
        row = row[:n + 3, :2 * n + 2]
        moves = [(pert, err.get(m, dM))
                 for m, (pert, dM) in enumerate(zip(perts, row[-1].tolist()))]
        tables[f] = row, tuple(x if good else None for x, good in zip(senses, ok[:n])), err, moves
    P.tables["faces"] = tables
    return tables


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
