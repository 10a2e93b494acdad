"""One-sided shape derivatives of edge length, volume and their ratio.

Three perturbation kinds modify a single halfspace (or append one) and
rebuild the polyhedron:

* face translation along the outward normal, either direction;
* face hinge rotation about one of the face's own edges;
* vertex cut by a plane normal to the spherical-image incircle center.

Derivatives are evaluated analytically from vertex velocities obtained by
linearizing the plane intersections, never by finite differences; the
finite-difference routine exists as an independent cross-check.

Each rule of a face move is decided once, in its face's table
(``FaceTable``): the corners it moves (the whole face for a translate,
all but the hinge edge's ends for a hinge), whether they share the class
EXPOSED or NEGATIVELY_EXPOSED, which admits the move, the split rule they
move under, the hinge line and sense, and the error of a move without a
rate. ``face_moves`` lists each move with its dM, or that error (a
NotExposedFace or NotSemiExposed refusal for an inadmissible move), as
``vertex_cuts`` lists the cuts; ``face_movers``, ``moving_vertices``,
``derivatives``, ``perturbed_halfspaces`` and ``apply`` read the table.

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
of the moves without a rate. A corner whose rule has no rate, at a flat
slide, fails only the moves that move it.

The one split rule (``_splits``): when the local motion pushes the
supporting plane outward past an exposed vertex of degree k > 3, the
vertex keeps a single degree-3 correspondent and sheds a new lateral edge;
when the plane cuts inward, the vertex splits into k - 2 correspondents
joined by new ring edges. Negatively exposed vertices behave like exposed
vertices of the complement, which swaps the two cases. The rates and the
vertex/edge counts ``apply`` expects both read it, through the face tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
from .vec3 import lengths, ordered_sum, rowcross, rowdot

OUT = "out"
IN = "in"
REFUSALS = (NotExposedFace, NotSemiExposed)  # what an inadmissible face move raises
_CODES = {EXPOSED: 0, NEGATIVELY_EXPOSED: 1}  # a class's code; any other class 2, an error 3
_NO_AXIS = "zero vector cannot be normalized"  # a zero-length hinge edge, as vec3.unit says


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


class FaceTable(NamedTuple):
    """What ``_face_tables`` decides of each move m of a k-gon: the translate
    (m = 0 out, 1 in) or the hinge about the edge from corner t to corner
    t + 1 (m = 2 + 2t out, 3 + 2t in)."""

    rates: np.ndarray   # (k + 3, 2k + 2): each corner's dE (0 if unmoved), then dE, dV, dM
    errors: dict        # m -> the GeometryError of a move without a rate
    moves: list         # what face_moves lists
    movers: np.ndarray  # (k, 2k + 2) bool: whether move m moves corner t
    split: np.ndarray   # (2k + 2,): 1 if the movers split, 0 if not, -1 if the move is refused
    hinges: tuple       # (a, w, sigma) of each slot's hinge: point, direction, outward sense


def moving_vertices(P: Polyhedron, pert: Perturbation) -> list:
    """Vertices that ``pert`` moves: every vertex of a translated face, the
    vertices of a hinged face off the hinge edge, the cut vertex."""
    if pert.kind == "vertex_truncate":
        return [pert.target]
    cyc = P.faces[pert.target]
    return [cyc[t] for t in np.flatnonzero(face_movers(P, pert.target)[:, _move_index(P, pert)])]


def face_movers(P: Polyhedron, f: int) -> np.ndarray:
    """(k, 2k + 2) bool: whether each move of face ``f``, in ``face_moves``'
    order, moves the face's corner t (its cycle's vertex t)."""
    return _face_tables(P)[f].movers


def _splits(cls, direction: str):
    """Whether moved vertices of degree k > 3 in class ``cls``, elementwise,
    split into k - 2 correspondents (else keep one and shed a lateral edge)."""
    return cls != (EXPOSED if direction == OUT else NEGATIVELY_EXPOSED)


def _refuse(f: int, hinge: bool) -> None:
    """Raise the refusal of a move of face ``f`` whose movers share no class."""
    msg = f"face {f}: moving vertices are not uniformly exposed or negatively exposed"
    if hinge:
        raise NotSemiExposed(msg)
    raise NotExposedFace(msg)


def _face_tables(P: Polyhedron) -> dict:
    """face -> its FaceTable, every face's built on first read in one
    padded pass over ``Topology.corner_table`` from the body's
    ``gauss.vertex_table``, and memoised in ``P.tables``.

    A move is admitted when its movers share a class and a hinge's edge has
    a length. A refused move's error is its first mover's class error, in
    cycle order, else its refusal, else its axis's; an admitted move's split
    is ``_splits`` of the shared class."""
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
    sigma = np.where(axis_ok, np.where(rowdot(a - centroid[:, None], wn) > 0, 1.0, -1.0), 0.0)
    planes = np.zeros((F, 2 * K + 2, 4))
    planes[:, :2, 3] = (1.0, -1.0)
    for m, sense in ((2, sigma), (3, -sigma)):
        ndot = np.where(axis_ok[..., None], sense[..., None] * wn, 0.0)
        planes[:, m::2, :3] = ndot
        planes[:, m::2, 3] = np.where(axis_ok, rowdot(a, ndot), 0.0)
    # movers (F, K + 1 slots, K corners)
    hinge = slots[:, None]
    stays = (slots == hinge) | (slots == (hinge + 1) % k[:, None, None])
    movers = np.concatenate([mask[:, None], mask[:, None] & ~stays], axis=1) & real[..., None]
    # a slot's movers share a class when their codes' least equals their
    # greatest and is 0 or 1
    facts = table.facts
    codes = np.array([3 if isinstance(fact.cls, GeometryError) else _CODES.get(fact.cls, 2)
                      for fact in facts.values()], dtype=int)
    code = codes[ends[:, :, 0]][:, None]
    cls = np.where(movers, code, 4).min(axis=-1)
    most = np.where(movers, code, -1).max(axis=-1)
    shared = real & (most <= 1) & (cls == most)
    admitted = shared & np.insert(axis_ok, 0, True, axis=1)
    cls = np.array(list(_CODES))[np.where(admitted, cls, 0)]
    split = np.stack([_splits(cls, d) & admitted for d in (OUT, IN)], axis=2).reshape(F, -1)
    split = split.astype(int)  # a refused move reads rule 0
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
    errors = [{} for _ in range(F)]
    failed = movers & (code == 3)
    first = failed.argmax(axis=-1)
    for f, s in np.argwhere(real & ~admitted).tolist():
        if failed[f, s].any():
            error = facts[ends[f, first[f, s], 0]].cls
        elif not shared[f, s]:
            try:
                _refuse(f, s > 0)
            except REFUSALS as exc:
                error = exc.with_traceback(None)
        else:
            error = BadParameter(_NO_AXIS)
        errors[f][2 * s] = errors[f][2 * s + 1] = error
    # an admitted move's failed rule: the first mover, in cycle order, whose rule fails
    fails = moved & table.failed.astype(bool)[pick]
    first = fails.argmax(axis=1)
    for f, m in np.argwhere(fails.any(axis=1) & np.repeat(admitted, 2, axis=1)).tolist():
        errors[f][m] = table.failed[f, first[f, m], split[f, m]]
    split[~np.repeat(admitted, 2, axis=1)] = -1
    tables = {}
    for f, (row, n, err) in enumerate(zip(rates, k.tolist(), errors)):
        perts = [Perturbation("face_translate", f, d) for d in (OUT, IN)]
        perts += [Perturbation("face_hinge", f, d, top.edge_id[i, j])
                  for i, j in zip(lo[f, :n].tolist(), hi[f, :n].tolist()) for d in (OUT, IN)]
        row, M = row[:n + 3, :2 * n + 2], 2 * n + 2
        moves = [(pert, err.get(m, dM))
                 for m, (pert, dM) in enumerate(zip(perts, row[-1].tolist()))]
        tables[f] = FaceTable(row, err, moves, moved[f, :n, :M], split[f, :M],
                              (a[f, :n], w[f, :n], sigma[f, :n]))
    P.tables["faces"] = tables
    return tables


def _move_index(P: Polyhedron, pert: Perturbation) -> int:
    """Index of face move ``pert`` in its face's table; BadParameter for an
    index ``P`` does not have."""
    _check_indices(P, pert)
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
    a, w, sigma = _face_tables(P)[pert.target].hinges
    if not sigma[t]:
        raise BadParameter(_NO_AXIS)
    return a[t], w[t], float(sigma[t] if pert.direction == OUT else -sigma[t])


def face_moves(P: Polyhedron, f: int) -> list:
    """(Perturbation, dM) of each move of face ``f``: both directions of its
    translate, then of its hinge about each edge in cycle order, out before
    in. A move without a rate has the GeometryError its derivatives raise
    in place of dM. Every read returns the list stored with the face's table."""
    return _face_tables(P)[f].moves


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
    m, table = _move_index(P, pert), _face_tables(P)[pert.target]
    if m in table.errors:
        raise type(table.errors[m])(*table.errors[m].args)
    cyc = P.faces[pert.target]
    rates = table.rates[:, m].tolist()
    per_vertex = {cyc[t]: rates[t] for t in np.flatnonzero(table.movers[:, m]).tolist()}
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
    m, table = _move_index(P, pert), _face_tables(P)[pert.target]
    dv = sum(k - 3 if table.split[m] else 1
             for k in map(P.vertex_degree, moving_vertices(P, pert)) if k > 3)
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
    how crossing ``t_max`` manifests, NotConvex for a body that is not
    convex, and, before any rebuild, the error ``derivatives`` raises for a
    refused face move.
    """
    if not P.convex:
        raise NotConvex("apply() requires a convex polyhedron")
    if pert.kind != "vertex_truncate":
        m, table = _move_index(P, pert), _face_tables(P)[pert.target]
        if table.split[m] < 0:
            raise type(table.errors[m])(*table.errors[m].args)
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
