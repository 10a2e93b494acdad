"""Necessary local-minimality criteria for the edge-length ratio.

Each checker is a pure function returning a verdict with violation
witnesses. A witness that carries an improving perturbation has its ratio
derivative verified once, in ``_best_improvement``, to be strictly
negative; thresholds come from the criterion statements. The perturbation
module supplies the certificates: each face's moves come from
``face_moves`` and the vertex cuts from ``vertex_cuts``, with their rates,
and a move is admissible unless its entry is a NotExposedFace or
NotSemiExposed refusal; ``face_movers`` says which of its face's corners
each move moves.

The audit degrades gracefully on non-convex input: checkers that need
convexity or a particular exposure class mark elements as non-applicable
instead of failing.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import DEFAULT_TOLERANCES, json_float, json_rate
from .errors import BadParameter, GeometryError, InvalidPolyhedron, NotConvex, NotExposed
from .gauss import EXPOSED, angle_deficit, dihedral_angle, exposure, vertex_image
from .perturbations import REFUSALS, Perturbation, face_movers, face_moves, vertex_cuts
from .polyhedron import Polyhedron, edge_length, melzak_ratio, validate, volume
from .shapes import PRISM_EDGE_LENGTH
from .vec3 import plane_bases, rowdot, unit

WITNESS_MARGIN = DEFAULT_TOLERANCES.witness_margin
WITNESS_TIE = 1e-9  # relative dM spread within which witnesses tie


@dataclass(frozen=True)
class Witness:
    """A violated criterion at ``element``; an improving ``perturbation``
    comes with its rate ``dM`` and the ratio ``M0`` it is a rate of."""

    element: str
    measured: float
    threshold: float
    perturbation: Perturbation | None = None
    dM: float | None = None
    M0: float | None = None

    def to_dict(self) -> dict:
        out = {"element": self.element, "measured": json_float(self.measured),
               "threshold": json_float(self.threshold)}
        if self.perturbation is not None:
            out["perturbation"] = self.perturbation.label()
            out["dM"] = json_rate(self.dM, self.M0)
        return out


@dataclass(frozen=True)
class CriterionVerdict:
    """``skipped`` maps each candidate perturbation whose rate raised a
    GeometryError, by label, to the exception's class name; ``to_dict``
    leaves it out."""

    criterion_id: str
    applicable: bool
    passed: bool
    witnesses: tuple = ()
    notes: tuple = ()
    skipped: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"id": self.criterion_id, "applicable": self.applicable,
                "passed": self.passed,
                "witnesses": [w.to_dict() for w in self.witnesses]}


@dataclass(frozen=True)
class CriteriaReport:
    verdicts: tuple
    summary: dict
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {"criteria": [v.to_dict() for v in self.verdicts],
                "summary": dict(self.summary),
                "notes": list(self.notes)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @property
    def is_candidate_minimizer(self) -> bool:
        return bool(self.summary["is_candidate_minimizer"])


def pick_witness(rates: dict) -> str:
    """The label of the witness among ``rates`` (label -> dM, the smallest
    negative): the rates within a relative WITNESS_TIE of the smallest tie,
    and the smallest label among them wins, so rounding does not choose
    among the symmetric copies of one move."""
    tied = min(rates.values()) * (1.0 - WITNESS_TIE)
    return min(label for label, dM in rates.items() if dM <= tied)


def _best_improvement(P: Polyhedron, moves, skipped: dict) -> tuple:
    """(perturbation, dM, M0) of the most improving of ``moves``, pairs of a
    perturbation and its dM or the GeometryError its rate raises, else
    (None, None, None); a move without a rate is named in ``skipped``.

    A dM must lie below -WITNESS_MARGIN, and ``pick_witness`` picks among them."""
    perts, rates = {}, {}
    for pert, dM in moves:
        label = pert.label()
        if isinstance(dM, GeometryError):
            skipped[label] = type(dM).__name__
        elif dM < -WITNESS_MARGIN:
            perts[label], rates[label] = pert, dM
    if not rates:
        return None, None, None
    label = pick_witness(rates)
    return perts[label], rates[label], melzak_ratio(P)


def check_vertex_degree(P: Polyhedron) -> CriterionVerdict:
    """Vertices of degree above 3 admit an improving face slide or hinge."""
    witnesses = []
    skipped = {}
    applicable = any(not isinstance(dM, REFUSALS)
                     for f in range(P.n_faces) for _, dM in face_moves(P, f))
    for v in range(P.n_vertices):
        deg = P.vertex_degree(v)
        if deg <= 3:
            continue
        # the admitted moves of the faces at v that move v
        candidates = [(pert, dM) for f in P.vertex_faces(v) for (pert, dM), moves_v in
                      zip(face_moves(P, f), face_movers(P, f)[P.faces[f].index(v)])
                      if moves_v and not isinstance(dM, REFUSALS)]
        best = _best_improvement(P, candidates, skipped)
        if best[0] is not None:
            witnesses.append(Witness(f"vertex:{v}", float(deg), 3.0, *best))
    return CriterionVerdict("vertex_degree", applicable, not witnesses, tuple(witnesses),
                            skipped=skipped)


def _deficit_threshold(alpha: float) -> float:
    u = 1.0 - alpha / (2.0 * math.pi)
    den = math.sqrt(max(0.0, 1.0 - u * u))
    if den == 0.0:
        return math.inf
    return (2.0 * math.pi - alpha) / den


def check_vertex_curvature(P: Polyhedron) -> CriterionVerdict:
    """High-degree vertices inside a fat spherical-image incircle get cut.

    The enforced threshold is 2*pi/tan(radius of the image incircle); the
    deficit-based variant, from the image's area, is evaluated alongside
    and any disagreement is reported as a note instead of affecting the
    verdict. Both read ``vertex_image``.
    """
    witnesses = []
    notes = []
    skipped = {}
    applicable = False
    cuts = vertex_cuts(P)
    for v in range(P.n_vertices):
        try:
            entry = vertex_image(P, v)
        except NotExposed:
            continue
        except GeometryError as exc:
            notes.append(f"vertex {v}: incircle unavailable ({exc})")
            continue
        applicable = True
        thr = 2.0 * math.pi / math.tan(entry.incircle.radius)
        deg = P.vertex_degree(v)
        thr_deficit = _deficit_threshold(entry.area)
        if (deg > thr) != (deg > thr_deficit):
            notes.append(
                f"vertex {v}: incircle threshold {thr:.6g} and deficit threshold "
                f"{thr_deficit:.6g} disagree at degree {deg}")
        if deg > thr:
            best = _best_improvement(P, [cuts[v]], skipped)
            witnesses.append(Witness(f"vertex:{v}", float(deg), thr, *best))
    return CriterionVerdict("vertex_curvature", applicable, not witnesses,
                            tuple(witnesses), tuple(notes), skipped)


def _prolongations(P: Polyhedron, f: int) -> dict:
    """Unit direction continuing each vertex's third edge past the face."""
    out = {}
    cyc = P.faces[f]
    for v in cyc:
        nbrs = [u for u in P.topology.neighbours(v) if u not in cyc]
        if len(nbrs) != 1:
            return {}
        out[v] = -unit(P.vertices[nbrs[0]] - P.vertices[v])
    return out


def check_triangle_deficit(P: Polyhedron) -> CriterionVerdict:
    """Triangular faces with too little total angle deficit admit a hinge.

    Exposed triangles violate at total deficit <= pi/2, negatively exposed
    ones at total deficit >= pi. Only simple (degree-3) corners qualify;
    higher degrees are the degree criterion's business.
    """
    witnesses = []
    notes = []
    skipped = {}
    applicable = False
    for f in range(P.n_faces):
        cyc = P.faces[f]
        if len(cyc) != 3 or any(P.vertex_degree(v) != 3 for v in cyc):
            continue
        moves = face_moves(P, f)
        if isinstance(moves[0][1], REFUSALS):  # the translate moves every corner
            continue
        cls = exposure(P, cyc[0])
        applicable = True
        total = sum(angle_deficit(P, v) for v in cyc)
        prolong = _prolongations(P, f)

        if prolong:
            gamma_sum = 0.0
            for a in cyc:
                for b in cyc:
                    if a != b:
                        u = unit(P.vertices[b] - P.vertices[a])
                        gamma_sum += math.acos(min(max(float(prolong[a] @ u), -1.0), 1.0))
            if abs((gamma_sum - math.pi) - total) > 1e-9:
                notes.append(
                    f"face {f}: pairwise prolongation angles minus pi give "
                    f"{gamma_sum - math.pi:.12g}, vertex deficits give {total:.12g}")

        if cls == EXPOSED:
            violated = total <= math.pi / 2.0
            threshold = math.pi / 2.0
        else:
            violated = total >= math.pi
            threshold = math.pi
        if not violated:
            continue

        candidates = moves[2:]
        preferred = []
        if prolong and cls == EXPOSED:
            for s in range(3):
                h = cyc[s - 1]  # the one corner off the hinge edge at slot s
                cos_sum = sum(float(prolong[h] @ unit(P.vertices[o] - P.vertices[h]))
                              for o in cyc if o != h)
                if cos_sum >= 1.0:
                    preferred.append(candidates[2 * s])  # its outward hinge
        best = _best_improvement(P, preferred or candidates, skipped)
        if best[0] is None and preferred:
            best = _best_improvement(P, candidates, skipped)
        witnesses.append(Witness(f"face:{f}", float(total), threshold, *best))
    return CriterionVerdict("triangle_deficit", applicable, not witnesses,
                            tuple(witnesses), tuple(notes), skipped)


def check_combinatorics(P: Polyhedron, mode: str = "any") -> CriterionVerdict:
    """Face-degree sum inequality, plus the triangle-count cap in candidate
    mode; an unknown ``mode`` raises BadParameter."""
    if mode not in ("any", "candidate"):
        raise BadParameter(f"unknown audit mode {mode!r}")
    chi = P.n_vertices - P.n_edges + P.n_faces
    lhs = float(sum(len(c) - 6 for c in P.faces))
    rhs = float(-6 * chi)
    witnesses = []
    if lhs > rhs:
        witnesses.append(Witness("polyhedron", lhs, rhs))
    if mode == "candidate":
        tri = float(sum(1 for c in P.faces if len(c) == 3))
        if tri > 14:
            witnesses.append(Witness("polyhedron", tri, 14.0))
    return CriterionVerdict("combinatorics", True, not witnesses, tuple(witnesses))


def _plane_wedge_angle(n1, n2) -> float:
    """Interior angle of the wedge cut out by two oriented halfspaces."""
    return math.acos(min(max(float(-(n1 @ n2)), -1.0), 1.0))


def _point_segment(p, a, b) -> np.ndarray:
    """Distances from the points ``p`` to the segments [a, b] in the plane,
    along the last axes of (..., 2) arrays."""
    ab = b - a
    t = np.clip(rowdot(p - a, ab) / np.maximum(rowdot(ab, ab), 1e-300), 0.0, 1.0)
    r = p - (a + t[..., None] * ab)
    return np.hypot(r[..., 0], r[..., 1])


def _near_rim_pairs(P: Polyhedron, near: float) -> list:
    """(f1, f2) for each pair of rim edges of a face whose faces across are
    neither one face nor adjacent and whose segments come within ``near``
    of each other in the face's plane: face by face, and within a face the
    pairs of rim slots t1 < t2 in cycle order. All faces at once, on the
    padded corner table (slot t of face s is its edge from corner t)."""
    top = P.topology
    ends, mask, across = top.corner_table, top.corner_mask, top.across
    adjacent = np.zeros((P.n_faces, P.n_faces), dtype=bool)
    fa, fb = np.array(top.edge_faces).T
    adjacent[fa, fb] = adjacent[fb, fa] = True
    frames = np.stack(plane_bases(P.planes[0]), axis=2)  # (F, 3, 2)
    rim = P.vertices[ends] @ frames[:, None]  # (F, K, 2 ends, 2 face coordinates)
    I, J = np.triu_indices(mask.shape[1], 1)
    f1, f2 = across[:, I], across[:, J]
    p1, p2, q1, q2 = rim[:, I, 0], rim[:, I, 1], rim[:, J, 0], rim[:, J, 1]
    gap = np.minimum.reduce([_point_segment(p1, q1, q2), _point_segment(p2, q1, q2),
                             _point_segment(q1, p1, p2), _point_segment(q2, p1, p2)])
    keep = mask[:, I] & mask[:, J] & (f1 != f2) & ~adjacent[f1, f2] & ~(gap > near)
    s, q = np.nonzero(keep)
    return list(zip(f1[s, q].tolist(), f2[s, q].tolist()))


def check_dihedral(P: Polyhedron, B: float | None = None,
                   d: float | None = None) -> CriterionVerdict:
    """Lower bounds on dihedral angles for edge-length bound ``B``.

    Adjacent faces must meet at 2*arctan(27/(4 B^3)) or more. Faces that
    come within ``d`` of each other along a shared face must satisfy the
    same bound damped by (1/2 - d B^2/4); that check is skipped when the
    damping factor is nonpositive. ``d`` defaults to 1/B^2. Both are
    unit-volume quantities: B = E V^(-1/3), and faces are near when their
    rims come within d V^(1/3) in body coordinates. A given ``B`` or ``d``
    that is not finite and positive raises BadParameter.
    """
    if B is not None and not (math.isfinite(B) and B > 0):
        raise BadParameter(f"edge-length bound must be finite and positive, got {B!r}")
    if d is not None and not (math.isfinite(d) and d > 0):
        raise BadParameter(f"near-face distance must be finite and positive, got {d!r}")
    if not P.convex:
        raise NotConvex("dihedral bounds are stated for convex polyhedra")
    if B is None:
        B = edge_length(P) * volume(P) ** (-1.0 / 3.0)
    if d is None:
        d = 1.0 / (B * B)
    base = 27.0 / (4.0 * B ** 3)
    thr_adj = 2.0 * math.atan(base)
    witnesses = []
    notes = []
    if abs(B - PRISM_EDGE_LENGTH) < 1e-6:
        alt = 2.0 * math.atan(2.0 * base)
        notes.append(
            f"adjacent-face bound at this B: formula gives {thr_adj:.6g}, the "
            f"companion numeric instantiation {alt:.6g} doubles the argument; "
            "both reported")

    for e in range(P.n_edges):
        delta = dihedral_angle(P, e)
        if delta < thr_adj:
            witnesses.append(Witness(f"edge:{e}", float(delta), thr_adj))

    damp = 0.5 - d * B * B / 4.0
    if damp > 0:
        thr_near = 2.0 * math.atan(base * damp)
        for f1, f2 in _near_rim_pairs(P, d * volume(P) ** (1.0 / 3.0)):
            ang = _plane_wedge_angle(P.face_normal(f1), P.face_normal(f2))
            if ang < thr_near:
                witnesses.append(Witness(f"faces:{min(f1, f2)},{max(f1, f2)}",
                                         float(ang), thr_near))
    return CriterionVerdict("dihedral", True, not witnesses, tuple(witnesses),
                            tuple(notes))


def audit(P: Polyhedron, mode: str = "any", B: float | None = None) -> CriteriaReport:
    """Run every criterion and assemble the deterministic report.

    mode "candidate" additionally enforces results that hold only along a
    minimizing sequence, such as the triangle-count cap. A body is a
    candidate when every applicable criterion passes and one besides
    combinatorics applies. A body that fails validation raises
    InvalidPolyhedron, an unknown mode BadParameter.
    """
    rep = validate(P)
    if not rep.ok:
        raise InvalidPolyhedron("; ".join(rep.messages) or "validation failed")

    verdicts = [
        check_combinatorics(P, mode),
        check_triangle_deficit(P),
        check_vertex_curvature(P),
        check_vertex_degree(P),
    ]
    try:
        verdicts.append(check_dihedral(P, B))
    except NotConvex as exc:
        verdicts.append(CriterionVerdict("dihedral", False, True, (),
                                         (f"skipped: {exc}",)))
    verdicts = [replace(v, witnesses=tuple(sorted(v.witnesses, key=lambda w: w.element)))
                for v in verdicts]
    verdicts.sort(key=lambda v: v.criterion_id)

    judged = any(v.applicable for v in verdicts if v.criterion_id != "combinatorics")
    summary = {
        "is_candidate_minimizer": judged and all(v.passed for v in verdicts if v.applicable),
        "triangle_count": sum(1 for c in P.faces if len(c) == 3),
        "max_vertex_degree": max(P.vertex_degree(v) for v in range(P.n_vertices)),
    }
    notes = tuple(f"{v.criterion_id}: {n}" for v in verdicts for n in v.notes)
    if not judged:
        notes += ("no criterion but combinatorics applies to this body, so it is not a candidate",)
    return CriteriaReport(tuple(verdicts), summary, notes)
