"""Fixed-combinatorics ratio descent and the small-face-count driver.

The local optimizer parameterizes a convex polyhedron by its supporting
planes (one row per face: a normal, then an offset rescaled by the start
diameter so all coordinates are comparable), descends the log
of the edge-cube-over-volume ratio with its exact gradient and a
backtracking line search, and treats any change of combinatorial type as
a hard step boundary. A probe's vertex rows decide whether it keeps the
type: an exact certificate reads them against every plane by the
incidence rule of ``from_halfspaces``, so the descent rebuilds a
polyhedron only at a re-anchor and at exit. The certificate's residuals
and their first-order rates along the step also say how far the nearest
wall is, and each line search starts short of it, by the
fraction-to-the-boundary rule, instead of halving its way there; a wall
step below the search floor stops the descent at that wall. Starts must
be simple (every vertex on three faces), as every vertex of a convex
minimizer is.

The sequence driver enumerates the shipped catalog of combinatorial types
with up to eight faces, descends once from each simple type's catalog
start, and carries the best ratio forward so the per-face-count table is
monotone.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .config import json_rate
from .errors import (
    BadParameter,
    GeometryError,
    InvalidStart,
    NotExposed,
    NumericalBreakdown,
    UnsupportedFaceCount,
)
from .perturbations import face_moves, vertex_cuts
from .polyhedron import (
    HalfSpace,
    Polyhedron,
    Topology,
    from_halfspaces,
    interior_point,
    melzak_ratio,
    plane_incidence,
    twice_areas_and_volumes,
    validate,
)
from .shapes import optimal_pyramid

__all__ = [
    "OptimizeOptions",
    "OptimizeResult",
    "TypeRun",
    "SequenceStep",
    "CatalogType",
    "local_optimize",
    "minimizing_sequence",
    "criticality_report",
    "CriticalityReport",
    "load_catalog",
    "catalog_self_check",
]

EXPECTED_SIMPLE_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14}

_STEP_INIT = 0.1   # first line-search step, and the step after a re-anchor
_WALL_MARGIN = 2.0  # off-plane residuals the certificate needs, in merge slacks
_TO_WALL = 0.9     # share of the first-order wall step a line search may start at
_STEP_FLOOR = 1e-14  # the line search gives up once the step times |g| is this small


@dataclass(frozen=True)
class OptimizeOptions:
    max_iters: int = 300
    grad_tol: float = 1e-7

    def __post_init__(self):
        for name in ("max_iters", "grad_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise BadParameter(f"{name} must be positive and finite")


@dataclass(frozen=True)
class OptimizeResult:
    polyhedron: Polyhedron
    ratio: float
    iterations: int
    trace: tuple
    # why the descent stopped: grad_tol, max_iters, wall (its last line search
    # met a type wall, or the wall left it no step above the search floor)
    # or stale_anchor (no step even from a fresh anchor); closed_form where
    # the optimum is known and no descent ran
    stop_reason: str
    # at a wall, what collapses there: triangle:f=<face>, edge:e=<edge> of
    # the result polyhedron, or other
    wall: str | None = None

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("grad_tol", "closed_form")

    @property
    def combinatorics_changed(self) -> bool:
        return self.stop_reason == "wall"


@dataclass(frozen=True)
class _PlaneObjective:
    """Ratio evaluator with the start polyhedron's combinatorics frozen.

    The descent iterates the plane rows z (F, 4): a normal, then an offset
    divided by the anchor polyhedron's diameter, so that all four entries
    are comparable. A row and its positive multiples are the same plane,
    and ``solve`` reads each row at unit normal. Vertex positions come from batched 3x3 solves
    against each vertex's three planes, so the map stays smooth across the
    walls where the true intersection would change type; ``certifies``
    tells, from the same vertex rows, whether a point lies short of every
    wall, and ``wall_step`` how far along a step the nearest wall lies.

    ``log_ratio`` takes edge lengths and the volume of one solved body,
    the volume from ``twice_areas_and_volumes`` over the anchor's corner
    table, the kernel ``Polyhedron.volume`` uses too. ``gradient`` is
    exact, from the same solve and kernel.

    Offsets are measured from the anchor centroid, not the world origin.
    The plane solves lose roughly offset/diameter digits, so a body that
    sits (or descends to sit) far off-center relative to its size would
    otherwise poison both the ratio and the rebuild check.
    """

    edge_idx: np.ndarray
    vertex_planes: np.ndarray
    incidence: np.ndarray
    topology: Topology
    scale: float
    origin: np.ndarray

    @classmethod
    def for_polyhedron(cls, P: Polyhedron) -> "_PlaneObjective":
        faces = [P.vertex_faces(v) for v in range(P.n_vertices)]
        incidence = np.zeros((P.n_vertices, P.n_faces), dtype=bool)
        incidence[np.arange(P.n_vertices)[:, None], faces] = True
        return cls(np.array(P.edges, dtype=int), np.array(faces, dtype=int), incidence,
                   P.topology, P.diameter(), P.vertices.mean(axis=0))

    def pack(self, P: Polyhedron) -> np.ndarray:
        normals, offsets = P.planes
        return np.column_stack([normals, (offsets - normals @ self.origin) / self.scale])

    def solve(self, z: np.ndarray) -> tuple:
        """Unit normals (F, 3), offsets (F) and vertex rows (V, 3) of the
        plane rows z (F, 4). Raises LinAlgError when a vertex system is
        singular."""
        z = z / np.sqrt((z[:, :3] ** 2).sum(axis=1))[:, None]
        normals, offsets = z[:, :3], z[:, 3] * self.scale
        A = normals[self.vertex_planes]
        b = offsets[self.vertex_planes]
        return normals, offsets, np.linalg.solve(A, b[..., None])[..., 0]

    def log_ratio(self, normals: np.ndarray, offsets: np.ndarray, pts: np.ndarray) -> float:
        """ln(E^3 / V) of a body solved by ``solve``; inf where its vertices
        are not finite, its volume is not positive or its edge total is not
        finite."""
        if not np.isfinite(pts).all():
            return math.inf
        d = pts[self.edge_idx[:, 0]] - pts[self.edge_idx[:, 1]]
        e = float(np.sqrt((d * d).sum(axis=1)).sum())
        vol = float(twice_areas_and_volumes(self.topology, pts, normals, offsets)[1])
        if vol <= 0 or not math.isfinite(e):
            return math.inf
        m = e ** 3 / vol
        return math.log(m) if math.isfinite(m) and m > 0 else math.inf

    def gradient(self, normals: np.ndarray, offsets: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Exact gradient (F, 4) of ln m over the plane rows of a body
        solved by ``solve``: d/dn, then d/do times the scale. A vertex on
        planes A x = o moves by x' = A^-1 (o' - n' x), as in the rates, so
        the adjoint l = A^-T gx of each vertex (gx = dE/dx) gives dE/do_f =
        sum l and dE/dn_f = -sum l x over the vertices on f; dV/do_f = A_f
        and dV/dn_f = -M_f. ln m does not change when a row is rescaled,
        so each gradient row is orthogonal to its plane row. Raises
        NumericalBreakdown where a vertex system is singular or the ratio
        is not finite."""
        d = pts[self.edge_idx[:, 0]] - pts[self.edge_idx[:, 1]]
        length = np.sqrt((d * d).sum(axis=1))
        gx = np.zeros_like(pts)
        np.add.at(gx, self.edge_idx, np.stack([d, -d], axis=1) / length[:, None, None])
        try:
            adj = np.linalg.solve(normals[self.vertex_planes].swapaxes(1, 2), gx[..., None])
        except np.linalg.LinAlgError:
            raise NumericalBreakdown("a vertex system is singular at the iterate") from None
        twice, vol, moments = twice_areas_and_volumes(self.topology, pts, normals, offsets)
        lam = np.zeros(self.incidence.shape)   # (V, F): l of each vertex on each plane
        lam[np.arange(len(pts))[:, None], self.vertex_planes] = adj[..., 0]
        w = 3.0 / length.sum()
        d_n, d_o = moments / vol - w * (lam.T @ pts), w * lam.sum(axis=0) - 0.5 * twice / vol
        if not (vol > 0 and np.isfinite(d_n).all() and np.isfinite(d_o).all()):
            raise NumericalBreakdown("ratio is not finite at the iterate")
        return np.column_stack([d_n, d_o * self.scale])

    def incidence_residuals(self, normals: np.ndarray, offsets: np.ndarray,
                            pts: np.ndarray) -> tuple | None:
        """``plane_incidence`` (residuals R (V, F), merge slack) of the vertex
        rows pts (V, 3) of one solved row about the ``interior_point`` that
        ``from_halfspaces`` would use; None where the rows are not finite or
        there is no interior point."""
        if not np.isfinite(pts).all():
            return None
        try:
            return plane_incidence(pts, normals, offsets, interior_point(normals, offsets))
        except GeometryError:
            return None

    def certifies(self, res: tuple | None) -> bool:
        """Whether the solved rows whose ``incidence_residuals`` are res are
        the vertices of the planes' intersection with the anchor's
        incidence, so that ``from_halfspaces`` would rebuild the anchor's
        type.

        It holds when every plane incident to a vertex in the anchor passes
        within the merge slack of its row, and every other plane lies
        beyond ``_WALL_MARGIN`` slacks on the inner side, a margin for
        qhull's points, which differ from these rows in the last bits. One
        (V, F) residual matrix, no rebuild.
        """
        if res is None:
            return False
        R, slack = res
        return bool((np.abs(R[self.incidence]) <= slack).all()
                    and (R[~self.incidence] < -_WALL_MARGIN * slack).all())

    def residual_rates(self, normals: np.ndarray, offsets: np.ndarray, pts: np.ndarray,
                       d: np.ndarray) -> np.ndarray:
        """First-order rates (V, F) of the residuals x_v.n_f - o_f of one
        solved body as its plane rows move along d (F, 4) from its unit
        rows. ``solve`` rescales each row to unit normal, so a row moves by
        n' = d_n - (n.d_n) n, o' = d_o scale - (n.d_n) o; a vertex on planes
        A x = o moves by x' = A^-1 (o' - n' x), as in the rates, and each
        residual by x'.n + x.n' - o'."""
        stretch = (normals * d[:, :3]).sum(axis=1)
        n_dot = d[:, :3] - stretch[:, None] * normals
        o_dot = d[:, 3] * self.scale - stretch * offsets
        rhs = o_dot[self.vertex_planes] - (n_dot[self.vertex_planes] * pts[:, None, :]).sum(axis=2)
        x_dot = np.linalg.solve(normals[self.vertex_planes], rhs[..., None])[..., 0]
        return x_dot @ normals.T + pts @ n_dot.T - o_dot

    def wall_step(self, normals: np.ndarray, offsets: np.ndarray, pts: np.ndarray,
                  res: tuple | None, d: np.ndarray) -> tuple:
        """(t, (v, g)): the step t along the plane rows d (F, 4) from one
        solved body, whose ``incidence_residuals`` are res, at which, to
        first order, the residual of vertex row v against a plane g off
        its anchor incidence first rises to -``_WALL_MARGIN`` slacks, where
        ``certifies`` stops accepting; t is 0 for a pair already past it.
        (inf, None) where no such residual rises or res is None."""
        if res is None:
            return math.inf, None
        R, slack = res
        rate = self.residual_rates(normals, offsets, pts, d)
        rising = ~self.incidence & (rate > 0)
        if not rising.any():
            return math.inf, None
        t = np.full(R.shape, math.inf)
        t[rising] = np.maximum(-_WALL_MARGIN * slack - R[rising], 0.0) / rate[rising]
        v, g = np.unravel_index(np.argmin(t), t.shape)
        return float(t[v, g]), (int(v), int(g))

    def rebuild(self, normals: np.ndarray, offsets: np.ndarray) -> Polyhedron | None:
        try:
            Q = from_halfspaces([HalfSpace(n, o) for n, o in zip(normals, offsets)])
        except GeometryError:
            return None
        # translate back to the world frame; a plain shift of vertices and
        # plane offsets keeps the well-conditioned centered reconstruction
        shifted = tuple(HalfSpace(h.normal, h.offset + float(h.normal @ self.origin))
                        for h in Q.halfspaces)
        return Polyhedron(Q.vertices + self.origin, Q.faces, shifted)


def _probe(obj: _PlaneObjective, z: np.ndarray) -> tuple:
    """The solve of the plane rows z and its ln m; (None, inf) where a
    vertex system is singular."""
    try:
        solved = obj.solve(z)
    except np.linalg.LinAlgError:
        return None, math.inf
    return solved, obj.log_ratio(*solved)


def _anchored(P: Polyhedron) -> tuple:
    """The objective anchored at P, the solve of P's plane rows and its ln m."""
    obj = _PlaneObjective.for_polyhedron(P)
    return (obj, *_probe(obj, obj.pack(P)))


def _settled(obj: _PlaneObjective, solved: tuple, f: float) -> Polyhedron:
    """The polyhedron at a certified iterate, rebuilt and checked against
    what the certificate promised: one face per plane row, in row order,
    the anchor's vertex-plane incidence, which fixes the type, and the
    ratio exp(f) to 1e-9. Raises NumericalBreakdown when any fails."""
    P = obj.rebuild(*solved[:2])
    if (P is None or P.n_faces != obj.incidence.shape[1]
            or sorted(tuple(P.vertex_faces(v)) for v in range(P.n_vertices))
            != sorted(map(tuple, obj.vertex_planes.tolist()))
            or abs(melzak_ratio(P) - math.exp(f)) > 1e-9 * math.exp(f)):
        raise NumericalBreakdown("a certified iterate does not rebuild to the start's "
                                 "type and ratio")
    return P


def _wall_name(obj: _PlaneObjective, P: Polyhedron, pair: tuple | None) -> str:
    """What collapses at the wall where anchor vertex v meets plane g, for
    the (v, g) of ``wall_step``: the triangle through v and its two
    neighbours on g (``triangle:f=<face>``), the edge to its one neighbour
    on g (``edge:e=<edge>``, numbered in P, whose faces are the plane
    rows), or ``other``."""
    if pair is None:
        return "other"
    v, g = pair
    on_g = [u for u in obj.topology.neighbours(v) if obj.incidence[u, g]]
    shared = set(obj.vertex_planes[v].tolist())
    for u in on_g:
        shared &= set(obj.vertex_planes[u].tolist())
    if len(on_g) == 2:
        return f"triangle:f={shared.pop()}"
    if len(on_g) == 1:
        return f"edge:e={P.topology.edge_faces.index(tuple(sorted(shared)))}"
    return "other"


def local_optimize(P0: Polyhedron, opts: OptimizeOptions = OptimizeOptions()) -> OptimizeResult:
    """Monotone ratio descent over supporting-plane rows.

    Each line search starts at the Barzilai-Borwein step, cut to
    ``_TO_WALL`` of the first-order step at which the nearest wall is met
    (``_PlaneObjective.wall_step``, the fraction-to-the-boundary rule). A
    probe that passes the Armijo test is accepted only when
    ``_PlaneObjective.certifies`` shows it keeps the start's combinatorial
    type; otherwise the step size is halved. The descent stops at a
    ``wall`` (combinatorics_changed=True) when a line search stalls
    against such a step, or when the wall step leaves it no step above
    the search floor; ``OptimizeResult.wall`` then names what collapses.
    Any other stall re-anchors the parameterization at the current iterate
    and retries before stopping (``stale_anchor``). The gradient tolerance
    applies to the gradient of log(ratio), making the stop test scale
    invariant. Each probe costs one vertex solve; the accepted probe's
    unit rows are the next iterate, its solve feeds the next gradient and
    its certified residuals the next wall step. A polyhedron is rebuilt
    only at a re-anchor and at exit, and raises NumericalBreakdown unless
    it has the start's type and ratio.

    Raises InvalidStart unless P0 is a valid convex polyhedron whose
    vertices all have degree 3.
    """
    if not P0.convex or not validate(P0).ok:
        raise InvalidStart("optimization needs a valid convex start")
    for v in range(P0.n_vertices):
        if P0.vertex_degree(v) != 3:
            raise InvalidStart(f"optimization needs a simple start; vertex {v} "
                               f"has degree {P0.vertex_degree(v)}")
    obj, solved, f = _anchored(P0)
    if not math.isfinite(f):
        raise NumericalBreakdown("ratio is non-finite at the start")
    res = obj.incidence_residuals(*solved)

    current = P0   # the polyhedron at the iterate; None until rebuilt after a step
    trace = [(0, math.exp(f))]
    stop = "max_iters"
    iters = 0
    alpha = _STEP_INIT
    prev_z = prev_g = None
    fresh_anchor = True
    while iters < opts.max_iters:
        normals, offsets, _ = solved
        z = np.column_stack([normals, offsets / obj.scale])
        g = obj.gradient(*solved)
        gnorm = float(np.linalg.norm(g))
        if gnorm < opts.grad_tol:
            stop = "grad_tol"
            break
        if prev_g is not None:
            dz, dg = z - prev_z, g - prev_g
            denom = float(np.vdot(dg, dg))
            if denom > 0:
                alpha = abs(float(np.vdot(dz, dg))) / denom
        alpha = min(max(alpha, 1e-12), 10.0)
        prev_z, prev_g = z, g

        to_wall, pair = obj.wall_step(*solved, res, -g)
        a = min(alpha, _TO_WALL * to_wall)
        accepted = None
        # a wall closer than the search floor is met without a probe
        hit_boundary = a * gnorm <= _STEP_FLOOR < alpha * gnorm
        while a * gnorm > _STEP_FLOOR:
            probe, ft = _probe(obj, z - a * g)
            if ft < f - 1e-4 * a * gnorm * gnorm:
                probe_res = obj.incidence_residuals(*probe)
                if obj.certifies(probe_res):
                    accepted = (probe, ft, probe_res)
                    break
                hit_boundary = True
            a *= 0.5
        if accepted is None:
            if hit_boundary or fresh_anchor:
                stop = "wall" if hit_boundary else "stale_anchor"
                break
            # the anchor frame (centroid and scale of the body the plane
            # rows were packed against) has gone stale; recut it at the
            # current iterate and retry before giving up
            current = _settled(obj, solved, f)
            obj, solved, f = _anchored(current)
            if not math.isfinite(f):
                stop = "stale_anchor"
                break
            res = obj.incidence_residuals(*solved)
            alpha = _STEP_INIT
            prev_z = prev_g = None
            fresh_anchor = True
            continue
        solved, f, res = accepted
        current = None
        fresh_anchor = False
        alpha = a
        iters += 1
        trace.append((iters, math.exp(f)))

    if current is None:
        current = _settled(obj, solved, f)
    wall = _wall_name(obj, current, pair) if stop == "wall" else None
    return OptimizeResult(current, melzak_ratio(current), iters, tuple(trace), stop, wall)


# -- combinatorial catalog -------------------------------------------------

@dataclass(frozen=True)
class CatalogType:
    """One combinatorial type as the plane rows of a realization; every
    other fact about it is read from the rows or from the rebuilt body."""

    name: str
    halfspaces: tuple
    pyramid_base: int = 0

    @property
    def faces(self) -> int:
        return len(self.halfspaces)

    @property
    def simple(self) -> bool:
        return not self.pyramid_base

    def build(self) -> Polyhedron:
        return from_halfspaces([HalfSpace(np.array(row[:3]), row[3])
                                for row in self.halfspaces])


def load_catalog() -> tuple:
    """Combinatorial types with four to eight faces shipped with the package."""
    with resources.files("melzak").joinpath("data/polytope_types.json").open() as fh:
        raw = json.load(fh)
    return tuple(CatalogType(
        name=entry["name"],
        halfspaces=tuple(tuple(float(x) for x in row) for row in entry["halfspaces"]),
        pyramid_base=int(entry["pyramid_base"]),
    ) for entry in raw["types"])


def catalog_self_check() -> list:
    """Rebuild every catalog entry and cross-check the enumeration.

    Returns a list of issue strings; an empty list means every entry
    rebuilds with one face per plane row and Euler characteristic two, the
    entries without a pyramid base are exactly the simple ones and the
    pyramids have their shape, the per-count simple totals are the
    expected ones, and no two entries have the same ``type_key``.
    """
    issues = []
    catalog = load_catalog()
    built = []
    for t in catalog:
        try:
            P = t.build()
        except GeometryError as exc:
            issues.append(f"{t.name}: does not rebuild ({exc})")
            continue
        built.append((t, P))
        if P.n_faces != t.faces:
            issues.append(f"{t.name}: rebuilt with {P.n_faces} faces, expected {t.faces}")
        if P.n_vertices - P.n_edges + P.n_faces != 2:
            issues.append(f"{t.name}: Euler characteristic is off")
        simple = all(P.vertex_degree(v) == 3 for v in range(P.n_vertices))
        if simple != t.simple:
            issues.append(f"{t.name}: simple is {simple} by its vertex degrees, "
                          f"{t.simple} by its pyramid base")
        if t.pyramid_base and sorted(len(c) for c in P.faces) != \
                [3] * t.pyramid_base + [t.pyramid_base]:
            issues.append(f"{t.name}: not a {t.pyramid_base}-gon pyramid")
    for k, want in EXPECTED_SIMPLE_COUNTS.items():
        got = sum(1 for t, _ in built if t.simple and t.faces == k)
        if got != want:
            issues.append(f"{k} faces: {got} simple types, enumeration says {want}")
    seen = {}
    for t, P in built:
        twin = seen.setdefault(P.type_key(), t)
        if twin is not t:
            issues.append(f"{twin.name} and {t.name} are isomorphic")
    return issues


# -- sequence driver -------------------------------------------------------

@dataclass(frozen=True)
class TypeRun:
    name: str
    faces: int
    method: str
    result: OptimizeResult


@dataclass(frozen=True)
class SequenceStep:
    faces: int
    best: OptimizeResult
    best_name: str
    carried: bool
    tie: bool
    per_type: tuple = field(default=())


def _optimize_type(t: CatalogType) -> TypeRun:
    if t.pyramid_base:
        P = optimal_pyramid(t.pyramid_base)
        m = melzak_ratio(P)
        return TypeRun(t.name, t.faces, "parametric",
                       OptimizeResult(P, m, 0, ((0, m),), "closed_form"))
    return TypeRun(t.name, t.faces, "descent", local_optimize(t.build()))


def minimizing_sequence(max_faces: int) -> tuple:
    """Best ratio per face count from four up to max_faces, carried forward.

    Every catalog type with k faces is optimized (pyramid types by the
    closed-form ``optimal_pyramid``, the rest by one plane descent from
    the catalog start); step k records the best over face counts up to k,
    by ratio. Ties against the carried value within 1e-9 relative keep
    the smaller face count and set the tie flag.
    """
    if not 4 <= max_faces <= 8:
        raise UnsupportedFaceCount("face counts outside 4..8 are not cataloged")
    catalog = load_catalog()
    steps = []
    carry = None
    carry_name = ""
    for k in range(4, max_faces + 1):
        runs = tuple(_optimize_type(t) for t in catalog if t.faces == k)
        best_run = min(runs, key=lambda r: r.result.ratio)
        tie = False
        carried = False
        if carry is None or best_run.result.ratio < carry.ratio * (1.0 - 1e-9):
            carry, carry_name = best_run.result, best_run.name
        else:
            carried = True
            tie = abs(best_run.result.ratio - carry.ratio) <= 1e-9 * carry.ratio
        steps.append(SequenceStep(k, carry, carry_name, carried, tie, runs))
    return tuple(steps)


# -- first-order criticality ----------------------------------------------

@dataclass(frozen=True)
class CriticalityReport:
    """``entries`` maps each evaluated perturbation label to its dM, a rate
    of the body's ratio ``M0``; ``skipped`` maps each label whose rate
    raised a GeometryError to the exception's class name. ``to_dict``
    leaves ``M0`` and ``skipped`` out."""

    entries: dict
    minimum: float
    is_critical: bool
    M0: float
    skipped: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"entries": {k: json_rate(v, self.M0) for k, v in self.entries.items()},
                "minimum": json_rate(self.minimum, self.M0),
                "is_critical": self.is_critical}


def criticality_report(P: Polyhedron, tol: float = 1e-8) -> CriticalityReport:
    """First-order ratio change of every elementary perturbation.

    Covers both directions of every face translation, both directions of
    every hinge of a face about one of its boundary edges, and every
    vertex truncation. A critical candidate has minimum dM >= -tol. A
    perturbation whose rate raises GeometryError, as on a face or vertex
    of a non-convex body that is not exposed, is recorded in ``skipped``
    instead of ``entries``; when every one is, as on a body with no exposed
    or negatively exposed vertex, there is no minimum and the report raises
    NotExposed. A ``tol`` that is not finite and nonnegative raises
    BadParameter.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise BadParameter(f"criticality tolerance must be finite and nonnegative, got {tol!r}")
    entries = {}
    skipped = {}
    tables = [face_moves(P, f) for f in range(P.n_faces)]
    translates = [move for moves in tables for move in moves[:2]]
    hinges = [move for moves in tables for move in moves[2:]]
    for pert, rate in translates + hinges + vertex_cuts(P):
        if isinstance(rate, GeometryError):
            skipped[pert.label()] = type(rate).__name__
        else:
            entries[pert.label()] = rate
    if not entries:
        raise NotExposed(f"no elementary perturbation has a rate: all {len(skipped)} "
                         f"raise ({', '.join(sorted(set(skipped.values())))})")
    minimum = min(entries.values())
    return CriticalityReport(entries, minimum, minimum >= -tol, melzak_ratio(P), skipped)
