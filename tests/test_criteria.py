"""Local-minimality audits: each criterion, its witnesses, and the report."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import crater_can, fail_corner_rules, hull_polyhedron, octahedron, schonhardt
from melzak import (
    HalfSpace,
    criticality_report,
    cube,
    from_halfspaces,
    load_catalog,
    ngon_pyramid,
    optimal_prism,
    random_convex,
    regular_tetrahedron,
    unit_volume,
)
from melzak.criteria import (
    _near_rim_pairs,
    WITNESS_TIE,
    audit,
    check_combinatorics,
    check_dihedral,
    check_triangle_deficit,
    check_vertex_curvature,
    check_vertex_degree,
    pick_witness,
)
from melzak.errors import BadParameter, DegenerateInput, NotExposedFace, NotSemiExposed
from melzak.perturbations import Perturbation, apply, face_moves, moving_vertices
from melzak.vec3 import plane_bases


# ---------------------------------------------------------------------------
# candidates pass
# ---------------------------------------------------------------------------

def test_cube_is_candidate():
    rep = audit(cube(), mode="candidate")
    assert rep.is_candidate_minimizer
    assert rep.summary["triangle_count"] == 0
    assert rep.summary["max_vertex_degree"] == 3


def test_tetra_and_prism_are_candidates():
    assert audit(regular_tetrahedron(), mode="candidate").is_candidate_minimizer
    rep = audit(optimal_prism(), mode="candidate")
    assert rep.is_candidate_minimizer
    tri = next(v for v in rep.verdicts if v.criterion_id == "triangle_deficit")
    assert tri.applicable and tri.passed
    dih = next(v for v in rep.verdicts if v.criterion_id == "dihedral")
    assert any("doubles the argument" in n for n in dih.notes)


# ---------------------------------------------------------------------------
# vertex degree
# ---------------------------------------------------------------------------

def test_octahedron_fails_degree_with_verified_witnesses():
    O = octahedron()
    vd = check_vertex_degree(O)
    assert vd.applicable and not vd.passed
    assert len(vd.witnesses) == 6
    assert all(w.perturbation is not None and w.dM < -1e-10 for w in vd.witnesses)
    assert not audit(O, mode="candidate").is_candidate_minimizer


def test_pyramid_apex_flagged():
    PY = ngon_pyramid(4, 1.0, 0.8)
    vd = check_vertex_degree(PY)
    apex = next(v for v in range(PY.n_vertices) if PY.vertex_degree(v) == 4)
    assert not vd.passed
    assert any(w.element == f"vertex:{apex}" and w.dM < -1e-10
               for w in vd.witnesses)


# ---------------------------------------------------------------------------
# vertex curvature
# ---------------------------------------------------------------------------

def test_cube_curvature_passes():
    vc = check_vertex_curvature(cube())
    assert vc.applicable and vc.passed


def test_needle_apex_curvature_witness():
    NP = ngon_pyramid(12, 0.05, 1.0)
    vc = check_vertex_curvature(NP)
    wit = [w for w in vc.witnesses if w.measured == 12.0]
    assert len(wit) == 1 and not vc.passed
    assert wit[0].threshold < 1.0
    assert wit[0].perturbation is not None and wit[0].dM < -1e-6
    assert not audit(NP, mode="any").summary["is_candidate_minimizer"]


def test_pancake_curvature_silent_but_degree_fires():
    # the curvature bound is necessary, not sufficient: a flat 12-gon pyramid
    # sails past it while the degree criterion still rejects the apex
    FP = ngon_pyramid(12, 1.0, 0.05)
    assert check_vertex_curvature(FP).passed
    assert not check_vertex_degree(FP).passed


# ---------------------------------------------------------------------------
# triangle deficit
# ---------------------------------------------------------------------------

def test_truncated_cube_triangle_witness():
    TC = apply(cube(), Perturbation("vertex_truncate", 0), 0.05)
    td = check_triangle_deficit(TC)
    assert not td.passed and len(td.witnesses) == 1
    w = td.witnesses[0]
    assert w.measured == pytest.approx(math.pi / 2, abs=1e-9)
    assert w.perturbation is not None
    assert w.perturbation.kind == "face_hinge"
    assert w.dM < -1e-10
    assert not td.notes


def test_tetra_triangles_pass():
    td = check_triangle_deficit(regular_tetrahedron())
    assert td.applicable and td.passed


# ---------------------------------------------------------------------------
# combinatorics
# ---------------------------------------------------------------------------

def test_cube_combinatorics():
    assert check_combinatorics(cube()).passed


def test_unknown_audit_mode_is_bad_parameter():
    with pytest.raises(BadParameter, match="unknown audit mode 'bogus'"):
        audit(cube(), mode="bogus")
    with pytest.raises(BadParameter, match="unknown audit mode 'bogus'"):
        check_combinatorics(cube(), "bogus")


def test_icosahedron_combinatorics():
    phi = (1 + math.sqrt(5)) / 2
    pts = []
    for s1 in (-1, 1):
        for s2 in (-1, 1):
            pts += [(0, s1, s2 * phi), (s1, s2 * phi, 0), (s2 * phi, 0, s1)]
    ICO = hull_polyhedron(np.array(pts, dtype=float))
    assert (ICO.n_vertices, ICO.n_faces) == (12, 20)
    cb = check_combinatorics(ICO, mode="candidate")
    assert not cb.passed
    assert any(w.measured == 20.0 and w.threshold == 14.0 for w in cb.witnesses)
    assert check_combinatorics(ICO, mode="any").passed


# ---------------------------------------------------------------------------
# dihedral
# ---------------------------------------------------------------------------

def test_cube_dihedral_threshold():
    dd = check_dihedral(cube(), B=12.0)
    assert dd.passed
    assert 2 * math.atan(27 / (4 * 12 ** 3)) == pytest.approx(0.0078124, abs=1e-6)


def test_sliver_dihedral_witness():
    pts = np.array([
        [0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
        [0, 0, 0.0005], [1, 0, 0.0005], [0, 0.001, 0.0005], [1, 0.001, 0.0005],
    ])
    W = hull_polyhedron(pts)
    dd = check_dihedral(W, B=12.0)
    assert not dd.passed and len(dd.witnesses) >= 1


def test_fine_truncation_near_face_pairs_pass():
    TC2 = apply(cube(), Perturbation("vertex_truncate", 0), 1e-4)
    dd = check_dihedral(TC2, B=12.0, d=0.01)
    assert dd.passed


def _loop_near_rim_pairs(P):
    """The near-face prefilter one pair of rim edges at a time, as it ran
    before it took every face at once: (f1, f2, gap) of each pair of a
    face's rim edges whose faces across are neither one face nor adjacent,
    the gap by four point-segment distances in the face's plane."""
    def point_seg(p, a, b):
        ab = b - a
        t = min(max(float((p - a) @ ab / max(ab @ ab, 1e-300)), 0.0), 1.0)
        return math.hypot(*(p - (a + t * ab)))

    adjacency = set(map(frozenset, P.topology.edge_faces))
    frames = np.stack(plane_bases(P.planes[0]), axis=1)
    pairs = []
    for s, cyc in enumerate(P.faces):
        rim = [(P.topology.face_of[j, i], P.vertices[i] @ frames[s].T, P.vertices[j] @ frames[s].T)
               for i, j in zip(cyc, cyc[1:] + cyc[:1])]
        for (f1, p1, p2), (f2, q1, q2) in itertools.combinations(rim, 2):
            if f1 != f2 and frozenset((f1, f2)) not in adjacency:
                gap = min(point_seg(p1, q1, q2), point_seg(p2, q1, q2),
                          point_seg(q1, p1, p2), point_seg(q2, p1, p2))
                pairs.append((f1, f2, gap))
    return pairs


def test_near_rim_pairs_match_the_pair_loop():
    # every cut between two distinct gaps of the loop, so that the last bit
    # of a distance cannot decide, keeps the loop's pairs in its order
    sliver = hull_polyhedron(np.array([
        [0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
        [0, 0, 0.0005], [1, 0, 0.0005], [0, 0.001, 0.0005], [1, 0.001, 0.0005]]))
    bodies = [sliver, optimal_prism(), ngon_pyramid(9, 1.0, 0.3), octahedron()]
    bodies += [random_convex(np.random.default_rng(s), n_faces=n)
               for s, n in enumerate((6, 12, 20, 30))]
    for P in bodies:
        pairs = _loop_near_rim_pairs(P)
        gaps = sorted({g for _, _, g in pairs})
        cuts = [0.5 * (a + b) for a, b in zip(gaps, gaps[1:]) if b - a > 1e-9 * b]
        for near in [0.5 * gaps[0]] + cuts[::max(1, len(cuts) // 8)] + [2.0 * gaps[-1]]:
            want = [(f1, f2) for f1, f2, g in pairs if g <= near]
            assert _near_rim_pairs(P, near) == want


@pytest.mark.parametrize("B", [math.nan, math.inf, 0.0, -1.0])
def test_dihedral_bound_must_be_finite_and_positive(B):
    # a NaN or infinite bound would pass every edge; a bound <= 0 is no
    # bound at all, and none of them says the body is not convex
    for P in (cube(), crater_can()[0]):
        with pytest.raises(BadParameter):
            check_dihedral(P, B=B)
        with pytest.raises(BadParameter):
            audit(P, B=B)


@pytest.mark.parametrize("d", [math.nan, math.inf, 0.0, -1.0])
def test_near_face_distance_must_be_finite_and_positive(d):
    # a NaN or negative d skipped the near-face check and passed the body
    with pytest.raises(BadParameter, match="near-face"):
        check_dihedral(cube(), B=12.0, d=d)


def test_dihedral_is_not_applicable_to_a_non_convex_body():
    verdict = next(v for v in audit(crater_can()[0], B=12.0).verdicts
                   if v.criterion_id == "dihedral")
    assert not verdict.applicable and verdict.notes[0].startswith("skipped:")


def test_a_body_no_local_criterion_judges_is_no_candidate():
    # every vertex of Schönhardt's prism is neither exposed nor negatively
    # exposed and the body is not convex, so only combinatorics applies
    rep = audit(schonhardt(), "candidate")
    assert [(v.criterion_id, v.applicable, v.passed) for v in rep.verdicts
            if v.applicable] == [("combinatorics", True, True)]
    assert not rep.is_candidate_minimizer
    assert rep.notes[-1] == ("no criterion but combinatorics applies to this body, "
                             "so it is not a candidate")
    assert audit(cube(), "candidate").is_candidate_minimizer


def _verdicts(P):
    return [(v.criterion_id, v.applicable, v.passed, [w.element for w in v.witnesses])
            for v in audit(P, "candidate").verdicts]


@settings(max_examples=25, deadline=None)
@given(k=st.integers(0, 46), scale=st.integers(-6, 6))
@example(k=0, scale=-3)
@example(k=2, scale=-6)
def test_audit_verdicts_are_free_of_scale(k, scale):
    # the cube, tetrahedron, prism, four pyramids and random bodies, each
    # scaled by 1e-6 to 1e6: every criterion reads as on the unit-volume
    # copy, with the same witness elements
    named = [cube(), regular_tetrahedron(), optimal_prism()]
    named += [ngon_pyramid(n, 1.0, 0.7) for n in (3, 4, 5, 8)]
    P = named[k] if k < len(named) else random_convex(np.random.default_rng(k), 4 + k % 20)
    U = unit_volume(P)
    assert _verdicts(U.scaled(10.0 ** scale)) == _verdicts(U)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def test_report_json_shape_and_determinism():
    rep = audit(optimal_prism(), mode="candidate")
    js = rep.to_json()
    payload = json.loads(js)
    assert list(payload) == ["criteria", "summary", "notes"]
    ids = [c["id"] for c in payload["criteria"]]
    assert ids == sorted(ids)
    assert all(set(w) >= {"element", "measured", "threshold"}
               for c in payload["criteria"] for w in c["witnesses"])
    assert audit(optimal_prism(), mode="candidate").to_json() == js


def test_audit_names_skipped_candidates_on_the_crater(monkeypatch):
    # every candidate the audit tries on the crater is admissible and has a
    # rate, so none is skipped; made degenerate, the first mid-ring corner
    # fails each candidate that moves it, and the degree verdict names
    # every one of them by label, outside the JSON
    P, _, M, _ = crater_can()
    rep = audit(P, mode="candidate")
    assert all(v.skipped == {} for v in rep.verdicts)
    fail_corner_rules(monkeypatch, DegenerateInput("mid ring"), {M})
    P = crater_can()[0]  # a new body: the rate tables are memoised on the old one
    want = {m.label(): "DegenerateInput"
            for v in range(P.n_vertices) if P.vertex_degree(v) > 3
            for f in P.vertex_faces(v) for m, dM in face_moves(P, f)
            if not isinstance(dM, (NotExposedFace, NotSemiExposed))
            and v in moving_vertices(P, m) and M in moving_vertices(P, m)}
    degree = next(v for v in audit(P, mode="candidate").verdicts
                  if v.criterion_id == "vertex_degree")
    assert want and degree.skipped == want
    assert set(degree.to_dict()) == {"id", "applicable", "passed", "witnesses"}
    _assert_audit_reads_criticality_rates(P)


def _assert_audit_reads_criticality_rates(P):
    """Each witness's dM is the very rate ``criticality_report`` lists for
    its perturbation, and each skipped candidate is skipped there too, for
    the same reason."""
    crit = criticality_report(P)
    for verdict in audit(P, mode="candidate").verdicts:
        for w in verdict.witnesses:
            if w.perturbation is not None:
                assert w.dM == crit.entries[w.perturbation.label()], w
        for label, name in verdict.skipped.items():
            assert crit.skipped[label] == name, label


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(4, 30))
def test_audit_reads_criticality_rates_on_random_bodies(seed, n_faces):
    _assert_audit_reads_criticality_rates(random_convex(np.random.default_rng(seed), n_faces))


def test_audit_reads_criticality_rates_on_the_crater():
    _assert_audit_reads_criticality_rates(crater_can()[0])


# ---------------------------------------------------------------------------
# witness ties
# ---------------------------------------------------------------------------

def test_pick_witness_takes_the_smallest_label_among_ties():
    rates = {"b": -2.0, "c": -2.0 * (1.0 - 0.5 * WITNESS_TIE), "a": -1.0}
    assert pick_witness(rates) == "b"
    rates["a"] = -2.0 * (1.0 - 0.9 * WITNESS_TIE)
    assert pick_witness(rates) == "a"
    rates["0"] = -1.0
    assert pick_witness(rates) == "a"


def _pentagonal_pyramid_rows():
    return np.array(next(t for t in load_catalog() if t.name == "pentagonal_pyramid").halfspaces)


def _audit_rows(rows):
    return audit(from_halfspaces([HalfSpace(r[:3], r[3]) for r in rows]), mode="candidate")


def test_audit_json_survives_offset_moves_of_1e12():
    # the five inward hinges of the lateral faces about their base edges
    # share one rate up to rounding: the smallest label is the witness
    rows = _pentagonal_pyramid_rows()
    rep = _audit_rows(rows)
    (w,) = next(v for v in rep.verdicts if v.criterion_id == "vertex_degree").witnesses
    assert w.perturbation.label() == "hinge:f=1:e=9:in"
    want = rep.to_json()
    # hold one row and move every other offset by 1e-12 relative, each sign
    for k in range(len(rows)):
        for eps in (1e-12, -1e-12):
            moved = rows.copy()
            moved[np.arange(len(rows)) != k, 3] *= 1.0 + eps
            assert _audit_rows(moved).to_json() == want, (k, eps)


def test_witnesses_survive_random_row_moves_of_1e12():
    # every entry moved by up to 1e-12 relative: the witness, its element
    # and its measurement stay; its dM stays within the tie tolerance
    rows = _pentagonal_pyramid_rows()
    want = [w for v in _audit_rows(rows).verdicts for w in v.witnesses]
    rng = np.random.default_rng(0)
    for _ in range(20):
        moved = rows * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0, size=rows.shape))
        got = [w for v in _audit_rows(moved).verdicts for w in v.witnesses]
        assert [(w.element, w.measured, w.threshold, w.perturbation) for w in got] == \
            [(w.element, w.measured, w.threshold, w.perturbation) for w in want]
        for a, b in zip(got, want):
            if b.dM is not None:
                assert a.dM == pytest.approx(b.dM, rel=WITNESS_TIE)
