"""First-order shape derivatives: translations, hinges, truncations.

``_fan_report`` below computes one face move's rates the direct way: it
walks the fan of every vertex the move moves and takes each velocity from
``_fan_line_velocity``, the intersection of two static planes with the
moving one. It is the oracle the package's per-face rate tables are
checked against, move by move and through ``criticality_report``.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import melzak.gauss
import melzak.perturbations
from conftest import (
    crater_can,
    crater_cavity,
    fail_corner_rules,
    frustum,
    match_face,
    match_vertex,
    octahedron,
    moved,
    relabelled,
)
from melzak import (
    EXPOSED,
    NEGATIVELY_EXPOSED,
    NEITHER,
    HalfSpace,
    Polyhedron,
    criticality_report,
    cube,
    edge_length,
    melzak_ratio,
    ngon_pyramid,
    optimal_prism,
    protruding_wedge,
    random_convex,
    regular_tetrahedron,
    volume,
)
from melzak.criteria import check_vertex_degree
from melzak.errors import (
    BadParameter,
    CombinatorialCollapse,
    DegenerateInput,
    GeometryError,
    NotConvex,
    NotExposedFace,
    NotSemiExposed,
    UnboundedWedge,
)
from melzak.gauss import VertexFacts, VertexTable, exposure, vertex_image, vertex_table
from melzak.optimize import load_catalog
from melzak.vec3 import cross, norm, ordered_sum, unit
from melzak.perturbations import (
    Perturbation,
    _hinge_axis,
    _moved,
    _mover_class,
    _ratio_rate,
    _splits,
    apply,
    derivatives,
    face_hinge_derivatives,
    face_moves,
    face_translate_derivatives,
    finite_difference_check,
    moving_vertices,
    perturbed_halfspaces,
    vertex_truncate_derivatives,
)


def assert_fd_match(P, pert, tol_ratio=0.05):
    """Analytic (dE, dV) must agree with the finest finite difference."""
    r = derivatives(P, pert)
    fd = finite_difference_check(P, pert)
    errs = [abs(fd[h][0] - r.dE) + abs(fd[h][1] - r.dV) for h in sorted(fd)]
    scale = max(1.0, abs(r.dE), abs(r.dV))
    assert errs[0] < tol_ratio * scale, errs
    # the finest step must improve on the coarsest unless already at noise
    assert errs[0] < 1e-6 * scale or errs[0] < 0.15 * errs[-1], errs


# ---------------------------------------------------------------------------
# face translation
# ---------------------------------------------------------------------------

def test_cube_translate_rates():
    C = cube()
    for f in range(6):
        r = face_translate_derivatives(C, f, "out")
        assert r.dE == pytest.approx(4.0, abs=1e-12)
        assert r.dV == pytest.approx(1.0, abs=1e-12)
        assert abs(r.dM) < 1e-9
        ri = face_translate_derivatives(C, f, "in")
        assert ri.dE == pytest.approx(-4.0, abs=1e-12)
        assert ri.dV == pytest.approx(-1.0, abs=1e-12)


def test_tetra_and_prism_translations_critical():
    for P in (regular_tetrahedron(), optimal_prism()):
        worst = max(abs(face_translate_derivatives(P, f, d).dM)
                    for f in range(P.n_faces) for d in ("out", "in"))
        assert worst < 1e-8


def test_degree3_antisymmetry_random():
    rng = np.random.default_rng(7)
    for _ in range(5):
        P = random_convex(rng)
        if any(P.vertex_degree(v) != 3 for v in range(P.n_vertices)):
            continue
        for f in range(P.n_faces):
            a = face_translate_derivatives(P, f, "out")
            b = face_translate_derivatives(P, f, "in")
            assert abs(a.dE + b.dE) < 1e-9 * max(1, abs(a.dE))
            assert abs(a.dV + b.dV) < 1e-12


def test_octahedron_strict_inward_shortening():
    n = 1 / math.sqrt(3)
    from melzak import HalfSpace, from_halfspaces
    O = from_halfspaces([HalfSpace(np.array([sx, sy, sz]) * n, n)
                         for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    assert (O.n_vertices, O.n_edges, O.n_faces) == (6, 12, 8)
    a = face_translate_derivatives(O, 0, "out")
    b = face_translate_derivatives(O, 0, "in")
    assert b.dE < -a.dE - 1e-6
    assert abs(a.dV + b.dV) < 1e-12


def test_translate_fd_branches():
    C = cube()
    assert_fd_match(C, Perturbation("face_translate", 0, "out"))
    assert_fd_match(C, Perturbation("face_translate", 0, "in"))
    from conftest import octahedron
    O = octahedron()
    assert_fd_match(O, Perturbation("face_translate", 0, "out"))
    assert_fd_match(O, Perturbation("face_translate", 0, "in"))
    PY = ngon_pyramid(4, 1.0, 1.0)
    lat = next(f for f in range(PY.n_faces) if len(PY.faces[f]) == 3)
    assert_fd_match(PY, Perturbation("face_translate", lat, "out"))
    assert_fd_match(PY, Perturbation("face_translate", lat, "in"))


# ---------------------------------------------------------------------------
# face hinges
# ---------------------------------------------------------------------------

def test_cube_hinge_rates():
    C = cube()
    top = next(f for f in range(6) if abs(C.face_normal(f)[2] - 1) < 1e-12)
    cyc = C.faces[top]
    e = C.edge_index(cyc[0], cyc[1])
    r = face_hinge_derivatives(C, top, e, "out")
    assert r.dV == pytest.approx(0.5, abs=1e-12)
    assert r.dE == pytest.approx(2.0, abs=1e-9)
    assert abs(r.dM) < 1e-8
    ri = face_hinge_derivatives(C, top, e, "in")
    assert abs(ri.dE + r.dE) < 1e-9
    assert abs(ri.dV + r.dV) < 1e-12
    assert_fd_match(C, Perturbation("face_hinge", top, "out", e))
    assert_fd_match(C, Perturbation("face_hinge", top, "in", e))


def test_prism_hinges_critical():
    PR = optimal_prism()
    worst = 0.0
    for f in range(PR.n_faces):
        cyc = PR.faces[f]
        for t in range(len(cyc)):
            e = PR.edge_index(cyc[t], cyc[(t + 1) % len(cyc)])
            worst = max(worst, abs(face_hinge_derivatives(PR, f, e, "out").dM))
    assert worst < 1e-7


# ---------------------------------------------------------------------------
# vertex truncation
# ---------------------------------------------------------------------------

def test_cube_corner_truncation_rate():
    r = vertex_truncate_derivatives(cube(), 0)
    assert r.dE == pytest.approx(3 * math.sqrt(6) - 3 * math.sqrt(3), abs=1e-10)
    assert r.dV == 0.0
    assert_fd_match(cube(), Perturbation("vertex_truncate", 0))


def test_tetra_truncation_first_order_neutral():
    r = vertex_truncate_derivatives(regular_tetrahedron(), 0)
    assert abs(r.dE) < 1e-10


def test_needle_apex_truncation_shortens():
    NE = ngon_pyramid(3, 0.3, 4.0)
    apex = next(v for v in range(NE.n_vertices)
                if abs(NE.vertices[v][2] - 4.0) < 1e-9)
    r = vertex_truncate_derivatives(NE, apex)
    assert r.dE < -1.0
    assert_fd_match(NE, Perturbation("vertex_truncate", apex))


def test_pyramid_apex_degree4_truncation():
    PY = ngon_pyramid(4, 1.0, 1.0)
    apex = next(v for v in range(PY.n_vertices) if PY.vertex_degree(v) == 4)
    assert_fd_match(PY, Perturbation("vertex_truncate", apex))


# ---------------------------------------------------------------------------
# applying finite moves
# ---------------------------------------------------------------------------

def test_deep_cut_collapse_detected():
    with pytest.raises(CombinatorialCollapse):
        apply(cube(), Perturbation("vertex_truncate", 0), 0.9)


@pytest.mark.parametrize("pert", [
    Perturbation("face_translate", -1), Perturbation("face_translate", 6),
    Perturbation("vertex_truncate", -1), Perturbation("vertex_truncate", 8),
    Perturbation("face_hinge", 0, edge=-1), Perturbation("face_hinge", 0, edge=12),
], ids=lambda p: p.label())
def test_out_of_range_index_is_bad_parameter(pert):
    C = cube()
    per_kind = {
        "face_translate": lambda: face_translate_derivatives(C, pert.target, pert.direction),
        "face_hinge": lambda: face_hinge_derivatives(C, pert.target, pert.edge, pert.direction),
        "vertex_truncate": lambda: vertex_truncate_derivatives(C, pert.target),
    }
    for call in (lambda: perturbed_halfspaces(C, pert, 0.1), lambda: apply(C, pert, 0.1),
                 lambda: finite_difference_check(C, pert), lambda: derivatives(C, pert),
                 per_kind[pert.kind]):
        with pytest.raises(BadParameter, match="out of range"):
            call()


@pytest.mark.parametrize("index", [2.0, True, np.int64(1)], ids=repr)
def test_one_integer_rule_for_indices(index):
    # a numpy integer is an index; a float or a bool is not, even where it
    # has an integer's value
    host = frustum(4, 1.0, 1.0, 0.5)
    if isinstance(index, np.integer):
        assert Perturbation("face_translate", index).label() == "translate:f=1:out"
        assert Perturbation("face_hinge", 0, "out", index).label() == "hinge:f=0:e=1:out"
        with pytest.raises(UnboundedWedge, match="do not close"):   # face 1 is a side
            protruding_wedge(host, index)
        return
    for make in (lambda: Perturbation("face_translate", index),
                 lambda: Perturbation("face_hinge", 0, "out", index),
                 lambda: protruding_wedge(host, index)):
        with pytest.raises(BadParameter):
            make()


def test_hinge_edge_off_the_face_is_bad_parameter():
    C = cube()
    e = next(e for e, ij in enumerate(C.edges) if not set(ij) <= set(C.faces[0]))
    pert = Perturbation("face_hinge", 0, edge=e)
    for call in (lambda: perturbed_halfspaces(C, pert, 0.1), lambda: apply(C, pert, 0.1),
                 lambda: derivatives(C, pert)):
        with pytest.raises(BadParameter, match="not an edge of face"):
            call()


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_non_finite_step_is_bad_parameter(t):
    C = cube()
    hinge = C.edge_index(*C.faces[0][:2])
    for pert in (Perturbation("face_translate", 0), Perturbation("face_hinge", 0, edge=hinge)):
        with pytest.raises(BadParameter, match="finite"):
            apply(C, pert, t)


def test_shallow_squeeze_keeps_combinatorics():
    Q = apply(cube(), Perturbation("face_translate", 0, "in"), 0.4)
    assert Q.n_vertices == 8
    assert volume(Q) == pytest.approx(0.6, abs=1e-12)


# ---------------------------------------------------------------------------
# non-convex bodies: rates through negatively exposed vertices
# ---------------------------------------------------------------------------

def test_crater_matches_cavity_complement():
    CR, T, M, A = crater_can()
    CAV = crater_cavity(CR, T)
    assert (CAV.n_vertices, CAV.n_faces) == (7, 7)
    pyr = next(f for f in range(CR.n_faces) if A in CR.faces[f])
    cav = match_face(CAV, -CR.halfspaces[pyr].normal, -CR.halfspaces[pyr].offset)
    for d_cr, d_cav in (("in", "out"), ("out", "in")):
        rc = face_translate_derivatives(CR, pyr, d_cr)
        rv = face_translate_derivatives(CAV, cav, d_cav)
        pv = {match_vertex(CR, CAV.vertices[v]): val
              for v, val in rv.per_vertex_dE.items()}
        assert all(abs(pv[v] - rc.per_vertex_dE[v]) < 1e-10
                   for v in rc.per_vertex_dE)
        assert abs(rc.dV + rv.dV) < 1e-12
        assert_fd_match(CAV, Perturbation("face_translate", cav, d_cav))


def test_negative_truncation_equals_complement():
    CR, T, M, A = crater_can()
    CAV = crater_cavity(CR, T)
    ra = vertex_truncate_derivatives(CR, A)
    rb = vertex_truncate_derivatives(CAV, match_vertex(CAV, CR.vertices[A]))
    assert abs(ra.dE - rb.dE) < 1e-12


def test_crater_rejections():
    CR, T, M, A = crater_can()
    with pytest.raises(NotExposedFace):
        face_translate_derivatives(CR, 4, "out")   # wall mixes rim and mid ring
    wall = 4
    movers = [v for v in CR.faces[wall] if M <= v < A][:2]
    e = CR.edge_index(*movers)
    with pytest.raises(NotSemiExposed):
        face_hinge_derivatives(CR, wall, e, "out")


def test_apply_on_a_non_convex_body_is_not_convex():
    with pytest.raises(NotConvex, match="requires a convex polyhedron"):
        apply(crater_can()[0], Perturbation("face_translate", 0), 1e-3)


def _face_moves(P, f):
    """Both directions of the translate and of every hinge of face ``f``,
    translates first, hinges in cycle-edge order."""
    cyc = P.faces[f]
    moves = [Perturbation("face_translate", f, d) for d in ("out", "in")]
    for i, j in zip(cyc, cyc[1:] + cyc[:1]):
        moves += [Perturbation("face_hinge", f, d, P.edge_index(i, j)) for d in ("out", "in")]
    return moves


def _refused(P, pert):
    """Whether the per-kind rate function refuses ``pert`` for exposure."""
    refusal = NotExposedFace if pert.kind == "face_translate" else NotSemiExposed
    try:
        if pert.kind == "face_translate":
            face_translate_derivatives(P, pert.target, pert.direction)
        else:
            face_hinge_derivatives(P, pert.target, pert.edge, pert.direction)
    except refusal:
        return True
    except GeometryError:
        pass   # admitted, but the rates themselves failed
    return False


_ADMISSION_BODIES = {
    **{f"catalog:{t.name}": t.build for t in load_catalog()},
    **{f"pyramid:{n}": (lambda n=n: ngon_pyramid(n, 1.0, 1.0)) for n in range(4, 25)},
    "octahedron": octahedron,
    "crater": lambda: crater_can()[0],
    **{f"random:{k}": (lambda k=k: random_convex(np.random.default_rng(100 + k)))
       for k in range(3)},
}


@pytest.mark.parametrize("name", sorted(_ADMISSION_BODIES))
def test_admissibility_matches_rates(name, monkeypatch):
    """A face move is refused exactly when its movers share no exposure
    class, ``face_moves`` carries exactly those refusals, and the audit's
    candidates are exactly the admitted moves that move the target."""
    P = _ADMISSION_BODIES[name]()
    refused_kinds = set()
    candidates = {}
    for f, cyc in enumerate(P.faces):
        admitted = []
        for m in _face_moves(P, f):
            refused = _refused(P, m)
            assert refused == (_shared_class(P, moving_vertices(P, m)) is None), m.label()
            if refused:
                refused_kinds.add(m.kind)
            else:
                admitted.append(m)
        assert [m for m, dM in face_moves(P, f)
                if not isinstance(dM, (NotExposedFace, NotSemiExposed))] == admitted, f
        for v in cyc:
            if P.vertex_degree(v) > 3:
                candidates.update((m.label(), "DegenerateInput")
                                  for m in admitted if v in moving_vertices(P, m))

    # with every corner's rule failing, the degree check skips each
    # candidate it tries, by name
    fail_corner_rules(monkeypatch, DegenerateInput("every corner"))
    P = _ADMISSION_BODIES[name]()  # a new body: the rate tables are memoised on the old one
    assert check_vertex_degree(P).skipped == candidates
    if name == "crater":
        assert refused_kinds == {"face_translate", "face_hinge"}


def test_negative_hinge_evaluates():
    CR, T, M, A = crater_can()
    pyr = next(f for f in range(CR.n_faces) if A in CR.faces[f])
    ring = [v for v in CR.faces[pyr] if v != A]
    r = face_hinge_derivatives(CR, pyr, CR.edge_index(*ring), "out")
    assert np.isfinite(r.dE) and np.isfinite(r.dV)


# ---------------------------------------------------------------------------
# fan-walk oracle: every face move's rates, vertex by vertex
# ---------------------------------------------------------------------------

def _unit(x):
    return x / np.linalg.norm(x)


def _shared_class(P, vertices):
    """EXPOSED or NEGATIVELY_EXPOSED when every one of ``vertices`` has that
    class, else None: a face move is admissible exactly when its movers
    share one."""
    classes = {exposure(P, v) for v in vertices}
    cls = classes.pop() if len(classes) == 1 else None
    return cls if cls in (EXPOSED, NEGATIVELY_EXPOSED) else None


def _fan_line_velocity(n_a, n_b, n_move, ndot, odot, point):
    """Velocity of the intersection of two static planes and a moving one."""
    d = np.cross(n_a, n_b)
    denom = d @ n_move
    if abs(denom) <= 1e-13:
        raise DegenerateInput("vertex slides along a direction parallel to the moving plane")
    return d * ((odot - point @ ndot) / denom)


def _fan_plane_rates(P, pert):
    """(ndot, odot) of the moving face plane."""
    out = pert.direction == "out"
    if pert.kind == "face_translate":
        return np.zeros(3), 1.0 if out else -1.0
    i, j = P.edges[pert.edge]
    a = P.vertices[i]
    w = _unit(P.vertices[j] - a)
    n = P.face_normal(pert.target)
    sigma = 1.0 if (a - P.face_centroid(pert.target)) @ np.cross(w, n) > 0 else -1.0
    ndot = (sigma if out else -sigma) * np.cross(w, n)
    return ndot, float(a @ ndot)


def _fan_report(P, pert):
    """(dE, dV, dM, per-vertex dE) of a face move, each mover's fan walked
    from one edge of the face to the other."""
    f = pert.target
    movers = moving_vertices(P, pert)
    cls = _shared_class(P, movers)
    if cls is None:
        raise NotSemiExposed("hinge") if pert.kind == "face_hinge" else NotExposedFace("translate")
    ndot, odot = _fan_plane_rates(P, pert)
    splits = cls != (EXPOSED if pert.direction == "out" else NEGATIVELY_EXPOSED)
    n_move = P.face_normal(f)
    per_vertex = {}
    for v in movers:
        faces, nbrs = map(list, P.topology.fan(v))
        s = faces.index(f)
        sides, nbrs = (faces[s:] + faces[:s])[1:], nbrs[s:] + nbrs[:s]
        k = len(nbrs)
        H = P.vertices[v]
        u = [_unit(P.vertices[w] - H) for w in nbrs]
        if k == 3 or not splits:
            va = _fan_line_velocity(P.face_normal(sides[0]), P.face_normal(sides[-1]),
                                    n_move, ndot, odot, H)
            d = -(va @ (u[0] + u[-1]))
            d += -(va @ u[1]) if k == 3 else np.linalg.norm(va)
        else:
            vs = [_fan_line_velocity(P.face_normal(sides[n]), P.face_normal(sides[n + 1]),
                                     n_move, ndot, odot, H) for n in range(k - 2)]
            d = -(vs[0] @ u[0]) - (vs[-1] @ u[-1])
            d += sum(np.linalg.norm(vs[n] - vs[n + 1]) for n in range(k - 3))
            d -= sum(vs[n] @ u[n + 1] for n in range(k - 2))
        per_vertex[v] = float(d)
    dE = sum(per_vertex.values())
    dV = P.face_area(f) * odot - float(P.face_moments[f] @ ndot)
    E0, V0 = edge_length(P), volume(P)
    return dE, dV, (3.0 * E0 * E0 / V0) * dE - (E0 ** 3 / V0 ** 2) * dV, per_vertex


def _edge_cut_dE(P, v):
    """dE of cutting ``v``, the edge-direction way: the correspondent on the
    edge to each fan neighbour, unit direction w, moves at w / |w . c|,
    with c the incircle centre, and the ring of correspondents closes."""
    c = vertex_image(P, v).incircle.center
    H = P.vertices[v]
    vs = []
    for u in P.topology.fan(v)[1]:
        w = _unit(P.vertices[u] - H)
        s = abs(w @ c)
        if s <= 1e-12:
            raise DegenerateInput("cut plane is parallel to an incident edge")
        vs.append(w / s)
    k = len(vs)
    return sum(np.linalg.norm(vs[n] - vs[(n + 1) % k]) - np.linalg.norm(vs[n])
               for n in range(k))


def _assert_cut_matches_edge_oracle(P):
    """Every vertex's cut dE within 1e-12 max(|dE|, E0) of the oracle's, or
    the oracle's GeometryError raised; returns how many cuts had a rate."""
    E0 = edge_length(P)
    rated = 0
    for v in range(P.n_vertices):
        try:
            want = _edge_cut_dE(P, v)
        except GeometryError as exc:
            with pytest.raises(type(exc)):
                vertex_truncate_derivatives(P, v)
            continue
        got = vertex_truncate_derivatives(P, v).dE
        assert abs(got - want) <= 1e-12 * max(abs(want), E0), v
        rated += 1
    return rated


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(4, 30))
def test_cut_matches_edge_oracle_on_random_bodies(seed, n_faces):
    P = random_convex(np.random.default_rng(seed), n_faces=n_faces)
    assert _assert_cut_matches_edge_oracle(P) == P.n_vertices


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 24), height=st.floats(0.05, 20.0))
def test_cut_matches_edge_oracle_on_pyramids(n, height):
    P = ngon_pyramid(n, 1.0, height)
    assert _assert_cut_matches_edge_oracle(P) == P.n_vertices


def test_cut_matches_edge_oracle_on_the_crater():
    # the pit's vertices are negatively exposed, so their cuts read the
    # complement image; the rim's are neither and raise NotExposed
    P = crater_can()[0]
    classes = [exposure(P, v) for v in range(P.n_vertices)]
    assert NEGATIVELY_EXPOSED in classes
    assert _assert_cut_matches_edge_oracle(P) == len(classes) - classes.count(NEITHER)


def _fan_criticality(P):
    """(entries, skipped) of ``criticality_report``, with the oracle's face moves."""
    perts = [Perturbation("face_translate", f, d) for f in range(P.n_faces) for d in ("out", "in")]
    perts += [m for f in range(P.n_faces) for m in _face_moves(P, f)[2:]]
    entries, skipped = {}, {}
    for pert in perts:
        try:
            entries[pert.label()] = _fan_report(P, pert)[2]
        except GeometryError as exc:
            skipped[pert.label()] = type(exc).__name__
    for v in range(P.n_vertices):
        try:
            entries[f"truncate:v={v}"] = vertex_truncate_derivatives(P, v).dM
        except GeometryError as exc:
            skipped[f"truncate:v={v}"] = type(exc).__name__
    return entries, skipped


def _assert_matches_fan_oracle(P):
    """The same labels, order and skipped names, and every rate within
    1e-12 max(|x|, 1e-3 m): dE and dV are taken as their shares of dM,
    and dM, their difference, also within 1e-12 of the sum of the shares,
    which is where a rate near 0 gets its rounding."""
    m = melzak_ratio(P)
    E0, V0 = edge_length(P), volume(P)
    to_E, to_V = 3.0 * E0 * E0 / V0, E0 ** 3 / V0 ** 2

    def close(got, want, scale=1.0, terms=0.0):
        return abs(got - want) * scale <= 1e-12 * max(abs(want) * scale, 1e-3 * m, terms)

    crit = criticality_report(P)
    entries, skipped = _fan_criticality(P)
    assert list(crit.entries) == list(entries)
    assert list(crit.skipped.items()) == list(skipped.items())
    checked = 0
    for f in range(P.n_faces):
        for pert in _face_moves(P, f):
            try:
                dE, dV, dM, per_vertex = _fan_report(P, pert)
            except GeometryError as exc:
                with pytest.raises(type(exc)):
                    derivatives(P, pert)
                continue
            rep = derivatives(P, pert)
            assert close(rep.dE, dE, to_E) and close(rep.dV, dV, to_V), pert.label()
            assert close(rep.dM, dM, terms=abs(to_E * dE) + abs(to_V * dV)), pert.label()
            assert rep.dM == crit.entries[pert.label()], pert.label()
            assert list(rep.per_vertex_dE) == list(per_vertex), pert.label()
            assert all(close(rep.per_vertex_dE[v], x, to_E) for v, x in per_vertex.items())
            checked += 1
    truncates = [label for label in entries if label.startswith("truncate")]
    assert all(crit.entries[label] == entries[label] for label in truncates)
    assert checked + len(truncates) == len(entries)


_ORACLE_BODIES = {
    **{f"catalog:{t.name}": t.build for t in load_catalog()},
    "cube": cube, "tetrahedron": regular_tetrahedron, "prism": optimal_prism,
    "octahedron": octahedron,
    **{f"pyramid:{n}": (lambda n=n: ngon_pyramid(n, 1.0, 0.8)) for n in range(3, 25)},
    **{f"random:{k}": (lambda k=k: random_convex(np.random.default_rng(k), n_faces=k))
       for k in range(4, 31)},
}


@pytest.mark.parametrize("name", list(_ORACLE_BODIES))
def test_rate_table_matches_fan_oracle(name):
    _assert_matches_fan_oracle(_ORACLE_BODIES[name]())


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(4, 30))
def test_rate_table_matches_fan_oracle_on_random_bodies(seed, n_faces):
    _assert_matches_fan_oracle(random_convex(np.random.default_rng(seed), n_faces=n_faces))


def test_crater_rate_table_matches_fan_oracle():
    # a non-convex body: its rim corners are neither exposed nor negatively
    # exposed, so the same translates and hinges are skipped, by name
    P = crater_can()[0]
    _assert_matches_fan_oracle(P)
    assert criticality_report(P).skipped


# ---------------------------------------------------------------------------
# the vertex and face passes: the scalar corner rules and the per-face
# tables as their oracles
# ---------------------------------------------------------------------------
# Before the corner rules ran on stacked fans they were taken one corner at
# a time: ``_local_fan`` rotates the vertex's fan to start at the face, and
# ``_slide`` takes one slide. Before every face's table came from one padded
# pass, each face's was built alone (``_face_table``). The passes must give
# their bits.

def _slide(n_a, n_b, n_face):
    d = cross(n_a, n_b)
    denom = d @ n_face
    if abs(denom) <= 1e-13:
        raise DegenerateInput("vertex slides along a direction parallel to the moving plane")
    return d / denom


def _local_fan(P, f, v):
    """([S_1..S_k-1], [nbr_0..nbr_k-1]): the fan of ``v`` from face ``f``."""
    faces, nbrs = map(list, P.topology.fan(v))
    k = faces.index(f)
    faces = faces[k:] + faces[:k]
    nbrs = nbrs[k:] + nbrs[:k]
    return faces[1:], nbrs


def _corner_rules(P, f, v):
    """(a, b) of corner (f, v) under the one-correspondent rule and under
    the split rule, each replaced by the GeometryError it raises."""
    sides, nbrs = _local_fan(P, f, v)
    k = len(sides) + 1
    H = P.vertices[v]
    n_face = P.face_normal(f)
    u1 = unit(P.vertices[nbrs[0]] - H)
    u2 = unit(P.vertices[nbrs[-1]] - H)
    rules = []
    try:
        g = _slide(P.face_normal(sides[0]), P.face_normal(sides[-1]), n_face)
        a = -(g @ (u1 + u2))
        if k == 3:
            rules.append((a - g @ unit(P.vertices[nbrs[1]] - H), 0.0))
        else:
            rules.append((a, norm(g)))
    except GeometryError as exc:
        rules.append(exc)
    if k == 3:
        return rules[0], rules[0]
    try:
        gs = [_slide(P.face_normal(sides[n]), P.face_normal(sides[n + 1]), n_face)
              for n in range(k - 2)]
        a = -(gs[0] @ u1) - (gs[-1] @ u2)
        a -= sum(gs[n] @ unit(P.vertices[nbrs[n + 1]] - H) for n in range(k - 2))
        rules.append((a, sum(norm(gs[n] - gs[n + 1]) for n in range(k - 3))))
    except GeometryError as exc:
        rules.append(exc)
    return tuple(rules)


def _scalar_pass(P):
    """The classes and corner rules as ``vertex_table`` holds them, one
    vertex and one corner at a time, without images."""
    facts = {}
    for v in range(P.n_vertices):
        try:
            cls = exposure(P, v)
        except GeometryError as exc:
            cls = exc
        facts[v] = VertexFacts(cls, None)
    mask = P.topology.corner_mask
    rules = np.zeros(mask.shape + (2, 2))
    failed = np.full(mask.shape + (2,), None, dtype=object)
    for f, cyc in enumerate(P.faces):
        for t, v in enumerate(cyc):
            try:
                rule = _corner_rules(P, f, v)
            except GeometryError as exc:
                rule = (exc, exc)
            for split, r in enumerate(rule):
                if isinstance(r, GeometryError):
                    failed[f, t, split] = r
                else:
                    rules[f, t, split] = r
    return VertexTable(facts, rules, failed)


def _outcome(x):
    return (type(x), x.args) if isinstance(x, Exception) else x


def _bent_pyramid():
    """A square pyramid whose plane row of the apex's first fan face is bent
    into the span of the next two: some of the apex's slides are flat."""
    P = ngon_pyramid(4, 1.0, 0.8)
    fan = P.topology.fan(next(v for v in range(5) if P.vertex_degree(v) == 4))[0]
    hs = list(P.halfspaces)
    hs[fan[0]] = HalfSpace(hs[fan[1]].normal + hs[fan[2]].normal, hs[fan[0]].offset)
    return Polyhedron(P.vertices, P.faces, tuple(hs))


_PASS_BODIES = {**_ORACLE_BODIES, "crater": lambda: crater_can()[0], "bent": _bent_pyramid}


def _face_table(P, f, table):
    """(rates, sigma, errors, moves) of face ``f`` alone, from the classes
    and corner rules of ``table``: the package's per-face loop before every
    face's table came from one padded pass, kept as that pass's oracle."""
    cyc = P.faces[f]
    k = len(cyc)
    rules, failed = table.rules[f, :k], table.failed[f, :k]
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
        wn = cross(w, n_face)
        sigma.append(1.0 if float((a - c) @ wn) > 0 else -1.0)
        for m, ndot in ((2 + 2 * t, sigma[t] * wn), (3 + 2 * t, -sigma[t] * wn)):
            planes[m] = (*ndot, float(a @ ndot))
    movers = np.zeros((k, 2 * k + 2), dtype=bool)
    split = np.zeros(2 * k + 2, dtype=int)
    errors = {}
    for s in range(k + 1):
        moved = _moved(k, 2 * s)
        movers[moved, 2 * s:2 * s + 2] = True
        try:
            cls = _mover_class(f, s > 0, [table.facts[cyc[t]].cls for t in moved],
                               axis_errors[s])
        except GeometryError as exc:
            errors[2 * s] = errors[2 * s + 1] = exc.with_traceback(None)
            continue
        for m, direction in ((2 * s, "out"), (2 * s + 1, "in")):
            split[m] = _splits(cls, direction)
            err = next((failed[t][split[m]] for t in moved if failed[t][split[m]]), None)
            if err is not None:
                errors[m] = err
    X, coef = P.vertices[list(cyc)], rules[:, split]
    nd, od = planes[:, :3], planes[:, 3]
    rdot = od - (X[:, :1] * nd[:, 0] + X[:, 1:2] * nd[:, 1] + X[:, 2:] * nd[:, 2])
    corner_dE = np.where(movers, coef[..., 0] * rdot + coef[..., 1] * np.abs(rdot), 0.0)
    dE = ordered_sum(corner_dE, axis=0)
    mom = P.face_moments[f]
    dV = P.face_area(f) * od - (mom[0] * nd[:, 0] + mom[1] * nd[:, 1] + mom[2] * nd[:, 2])
    rates = np.vstack((corner_dE, dE, dV, _ratio_rate(edge_length(P), volume(P), dE, dV)))
    perts = [Perturbation("face_translate", f, d) for d in ("out", "in")]
    perts += [Perturbation("face_hinge", f, d, P.edge_index(i, j))
              for i, j in zip(cyc, cyc[1:] + cyc[:1]) for d in ("out", "in")]
    moves = [(pert, errors.get(m, dM))
             for m, (pert, dM) in enumerate(zip(perts, rates[-1].tolist()))]
    return rates, tuple(sigma), errors, moves


def _assert_face_tables_match(P, table):
    """Every face's table from the padded pass equals, byte for byte, the
    per-face oracle's from ``table``: rates, senses, errors and moves."""
    got = melzak.perturbations._face_tables(P)
    assert sorted(got) == list(range(P.n_faces))
    for f in range(P.n_faces):
        rates, sigma, errors, moves = _face_table(P, f, table)
        assert got[f][0].shape == rates.shape and got[f][0].tobytes() == rates.tobytes(), f
        assert got[f][1] == sigma, f
        assert {m: _outcome(e) for m, e in got[f][2].items()} == \
            {m: _outcome(e) for m, e in errors.items()}, f
        assert [(pert, _outcome(dM)) for pert, dM in got[f][3]] == \
            [(pert, _outcome(dM)) for pert, dM in moves], f


@pytest.mark.parametrize("name", list(_PASS_BODIES))
def test_vertex_pass_matches_the_scalar_corner_rules(name):
    P = _PASS_BODIES[name]()
    want = _scalar_pass(P)
    got = vertex_table(P)
    assert got.facts.keys() == want.facts.keys()
    mask = P.topology.corner_mask
    if name == "bent":
        assert {type(e) for e in want.failed[mask].ravel()} == {type(None), DegenerateInput}
    for v, fact in want.facts.items():
        assert _outcome(got.facts[v].cls) == _outcome(fact.cls), v
    assert got.rules.shape == want.rules.shape and got.failed.shape == want.failed.shape
    assert not got.rules[~mask].any() and not got.failed[~mask].any()
    for f, t in np.argwhere(mask).tolist():
        assert list(map(_outcome, got.failed[f, t])) == list(map(_outcome, want.failed[f, t])), \
            (f, t)
        for split, error in enumerate(want.failed[f, t]):
            if error is None:
                assert got.rules[f, t, split].tobytes() == want.rules[f, t, split].tobytes(), \
                    (f, t)
    _assert_face_tables_match(P, want)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(4, 60))
def test_padded_face_pass_matches_the_per_face_oracle_on_random_bodies(seed, n_faces):
    P = random_convex(np.random.default_rng(seed), n_faces=n_faces)
    _assert_face_tables_match(P, vertex_table(P))


def test_one_vertex_pass_builds_every_face_table(monkeypatch):
    # reading one face's moves builds every face's table from one read of
    # the vertex table, which classifies each vertex once; every later
    # read, by any reader, builds nothing and gets the stored list
    passes, classified = [], []
    table, classify = melzak.perturbations.vertex_table, melzak.gauss.exposure
    monkeypatch.setattr(melzak.perturbations, "vertex_table",
                        lambda P: passes.append(1) or table(P))
    monkeypatch.setattr(melzak.gauss, "exposure",
                        lambda P, v: classified.append(v) or classify(P, v))
    for P in (ngon_pyramid(7, 1.0, 0.6), crater_can()[0],
              random_convex(np.random.default_rng(3), n_faces=20)):
        passes.clear()
        classified.clear()
        moves = face_moves(P, P.n_faces - 1)
        assert len(passes) == 1 and sorted(classified) == list(range(P.n_vertices))
        assert sorted(P.tables["faces"]) == list(range(P.n_faces))
        criticality_report(P)
        check_vertex_degree(P)
        for f in range(P.n_faces):
            for pert, dM in face_moves(P, f):
                if not isinstance(dM, GeometryError):
                    assert derivatives(P, pert).dM == dM
        assert face_moves(P, P.n_faces - 1) is moves
        assert len(passes) == 1 and len(classified) == P.n_vertices


def test_face_moves_and_vertex_images_classify_each_vertex_once(monkeypatch):
    # the face moves and the vertex images come from one vertex pass, so
    # reading all of them calls ``exposure`` once per vertex, through
    # whichever module's name for it
    classified = []
    classify = melzak.gauss.exposure
    for module in [m for name, m in sys.modules.items() if name.startswith("melzak")]:
        if getattr(module, "exposure", None) is classify:
            monkeypatch.setattr(module, "exposure",
                                lambda P, v: classified.append(v) or classify(P, v))
    for P in (ngon_pyramid(7, 1.0, 0.6), crater_can()[0],
              random_convex(np.random.default_rng(3), n_faces=20)):
        classified.clear()
        for f in range(P.n_faces):
            face_moves(P, f)
        for v in range(P.n_vertices):
            try:
                vertex_image(P, v)
            except GeometryError:
                pass
        assert sorted(classified) == list(range(P.n_vertices))


def _rotation(q):
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                     [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                     [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]])


def _relabel(label, vperm, fperm, P, Q):
    """``label`` of a move of P as the same move of Q = relabelled(P, vperm, fperm, ...)."""
    kind, *fields = label.split(":")
    if kind == "truncate":
        return f"truncate:v={vperm[int(fields[0][2:])]}"
    fields[0] = f"f={fperm[int(fields[0][2:])]}"
    if kind == "hinge":
        i, j = P.edges[int(fields[1][2:])]
        fields[1] = f"e={Q.edge_index(int(vperm[i]), int(vperm[j]))}"
    return ":".join([kind, *fields])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(4, 30), move=st.integers(0, 10_000))
def test_rates_do_not_depend_on_labels_or_position(seed, n_faces, move):
    P = random_convex(np.random.default_rng(seed), n_faces=n_faces)
    m = melzak_ratio(P)
    crit = criticality_report(P)
    rng = np.random.default_rng(move)
    vperm, fperm = rng.permutation(P.n_vertices), rng.permutation(P.n_faces)
    Q = relabelled(P, vperm, fperm, rng.integers(0, 8, size=P.n_faces))
    shift = rng.uniform(-1.0, 1.0, 3) * P.diameter() / math.sqrt(3.0)
    M = moved(P, _rotation(rng.normal(size=4)), shift)
    for other, rename in ((Q, lambda label: _relabel(label, vperm, fperm, P, Q)),
                          (M, lambda label: label)):
        got = criticality_report(other)
        assert {rename(label): name for label, name in crit.skipped.items()} == got.skipped
        assert {rename(label) for label in crit.entries} == set(got.entries)
        for label, dM in crit.entries.items():
            assert abs(got.entries[rename(label)] - dM) <= 1e-10 * max(abs(dM), 1e-3 * m), label


# ---------------------------------------------------------------------------
# randomized finite-difference sweep
# ---------------------------------------------------------------------------

def test_random_convex_fd_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(3):
        P = random_convex(rng)
        for f in range(P.n_faces):
            r = face_translate_derivatives(P, f, "out")
            fd = finite_difference_check(P, Perturbation("face_translate", f, "out"))
            h = min(fd)
            assert abs(fd[h][0] - r.dE) < 2e-3 * max(1.0, abs(r.dE))
            assert abs(fd[h][1] - r.dV) < 2e-3 * max(1.0, abs(r.dV))
