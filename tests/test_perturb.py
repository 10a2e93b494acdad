"""First-order shape derivatives: translations, hinges, truncations."""

import math

import numpy as np
import pytest

from conftest import crater_can, crater_cavity, match_face, match_vertex, octahedron
from melzak import (
    cube,
    ngon_pyramid,
    optimal_prism,
    random_convex,
    regular_tetrahedron,
    volume,
)
from melzak.criteria import _admissible_face_moves
from melzak.errors import (
    BadParameter,
    CombinatorialCollapse,
    GeometryError,
    NotExposedFace,
    NotSemiExposed,
)
from melzak.optimize import load_catalog
from melzak.perturbations import (
    Perturbation,
    apply,
    derivatives,
    face_hinge_derivatives,
    face_translate_derivatives,
    finite_difference_check,
    moving_vertices,
    perturbed_halfspaces,
    uniform_exposure,
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


def test_hinge_edge_off_the_face_is_bad_parameter():
    C = cube()
    e = next(e for e, ij in enumerate(C.edges) if not set(ij) <= set(C.faces[0]))
    pert = Perturbation("face_hinge", 0, edge=e)
    for call in (lambda: perturbed_halfspaces(C, pert, 0.1), lambda: apply(C, pert, 0.1),
                 lambda: derivatives(C, pert)):
        with pytest.raises(BadParameter, match="not an edge of face"):
            call()


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
def test_admissibility_matches_rates(name):
    """A face move is refused exactly when its movers share no exposure
    class, and the audit's candidates are exactly the admitted moves that
    move the target."""
    P = _ADMISSION_BODIES[name]()
    refused_kinds = set()
    for f, cyc in enumerate(P.faces):
        admitted = []
        for m in _face_moves(P, f):
            refused = _refused(P, m)
            assert refused == (uniform_exposure(P, moving_vertices(P, m)) is None), m.label()
            if refused:
                refused_kinds.add(m.kind)
            else:
                admitted.append(m)
        for v in cyc:
            assert _admissible_face_moves(P, f, v) == \
                [m for m in admitted if v in moving_vertices(P, m)], (f, v)
    if name == "crater":
        assert refused_kinds == {"face_translate", "face_hinge"}


def test_negative_hinge_evaluates():
    CR, T, M, A = crater_can()
    pyr = next(f for f in range(CR.n_faces) if A in CR.faces[f])
    ring = [v for v in CR.faces[pyr] if v != A]
    r = face_hinge_derivatives(CR, pyr, CR.edge_index(*ring), "out")
    assert np.isfinite(r.dE) and np.isfinite(r.dV)


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
