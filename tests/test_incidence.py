"""Vertex/edge/face incidence: accessors, error paths and output identity.

The ``_scan_*`` functions below are the plain linear-scan definitions of
each incidence fact. The package answers the same questions from one
incidence structure per polyhedron; these scans stay here as the oracle it
is checked against, on random bodies and under vertex and face relabelling.
The combinatorial type key must not move under relabelling, rotation,
scaling or mirroring.

``_scan_rotation_code`` and ``_scan_type_key`` are the exhaustive form of
the type key: every directed edge's full code, then the minimum. The package
cuts each code off once it exceeds the best so far; the minimum must not
move.

``tests/data/incidence_golden.json`` holds one sha256 per body over the
audit report, the criticality report and every per-vertex and per-edge
incidence answer, each float written as its exact hex. Regenerate it with
``PYTHONPATH=src python tests/test_incidence.py`` only when an output is
meant to change.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import melzak
from conftest import crater_can, octahedron, relabelled
from melzak import (
    HalfSpace,
    Polyhedron,
    audit,
    cube,
    criticality_report,
    from_halfspaces,
    load_catalog,
    optimal_prism,
    parse_off,
    random_convex,
    regular_tetrahedron,
    validate,
)
from melzak.errors import BadParameter, DanglingVertex, GeometryError, NonManifold
from melzak.polyhedron import _rotation_code
from melzak.gauss import (
    EXPOSED,
    NEGATIVELY_EXPOSED,
    NEITHER,
    angle_deficit,
    dihedral_angle,
    exposure,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "incidence_golden.json"

TETRA_TXT = ("OFF\n4 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
             "3 0 2 1\n3 0 1 3\n3 1 2 3\n3 0 3 2\n")


def _fan_faces(P, v) -> list:
    """The fan faces of ``v`` in rotational order, as a list."""
    return list(P.topology.fan(v)[0])


def _fan_neighbours(P, v) -> list:
    """The neighbours of ``v`` in fan order: neighbour k lies on the edge
    of fan faces k and k + 1, so the order matches the image's sides."""
    return list(P.topology.fan(v)[1])


# ---------------------------------------------------------------------------
# brute-force oracle: one linear scan per question
# ---------------------------------------------------------------------------

def _scan_edges(faces) -> tuple:
    seen = set()
    for cyc in faces:
        for t in range(len(cyc)):
            a, b = cyc[t], cyc[(t + 1) % len(cyc)]
            seen.add((min(a, b), max(a, b)))
    return tuple(sorted(seen))


def _scan_degree(P, v) -> int:
    return sum(1 for (i, j) in P.edges if v in (i, j))


def _scan_neighbors(P, v) -> list:
    return [j if i == v else i for i, j in P.edges if v in (i, j)]


def _scan_vertex_faces(P, v) -> list:
    return [f for f, cyc in enumerate(P.faces) if v in cyc]


def _scan_edge_faces(P, e) -> tuple:
    i, j = P.edges[e]
    out = []
    for f, cyc in enumerate(P.faces):
        k = len(cyc)
        if any({cyc[t], cyc[(t + 1) % k]} == {i, j} for t in range(k)):
            out.append(f)
    return tuple(out)


def _scan_ordered_faces(P, v) -> list:
    incident = _scan_vertex_faces(P, v)
    if len(incident) < 3:
        raise DanglingVertex(f"vertex {v} has {len(incident)} incident faces")
    pair_of = {}
    for f in incident:
        cyc = P.faces[f]
        k = cyc.index(v)
        pair_of[f] = (cyc[(k - 1) % len(cyc)], cyc[(k + 1) % len(cyc)])
    edge_to_faces = {}
    for f in incident:
        for u in pair_of[f]:
            edge_to_faces.setdefault(u, []).append(f)
    order = [min(incident)]
    while len(order) < len(incident):
        f = order[-1]
        fs = edge_to_faces[pair_of[f][1]]
        g = fs[0] if fs[1] == f else fs[1]
        if g in order:
            raise DanglingVertex(f"face fan around vertex {v} does not close")
        order.append(g)
    return order


def _scan_ordered_edges(P, v) -> list:
    out = []
    for f in _scan_ordered_faces(P, v):
        cyc = P.faces[f]
        out.append(cyc[(cyc.index(v) + 1) % len(cyc)])
    return out


def _scan_across(P, f, t) -> int:
    """The face whose cycle runs the edge from corner t of face f backwards,
    or -1 when none does."""
    cyc = P.faces[f]
    a, b = cyc[t], cyc[(t + 1) % len(cyc)]
    return next((g for g, other in enumerate(P.faces) for s in range(len(other))
                 if (other[s], other[(s + 1) % len(other)]) == (b, a)), -1)


def _scan_dihedral(P, e) -> float:
    i, j = P.edges[e]
    f1 = f2 = None
    for f, cyc in enumerate(P.faces):
        k = len(cyc)
        for t in range(k):
            a, b = cyc[t], cyc[(t + 1) % k]
            if (a, b) == (i, j):
                f1 = f
            elif (a, b) == (j, i):
                f2 = f
    if f1 is None or f2 is None:
        raise BadParameter(f"edge {e} is not consistently oriented in two faces")
    m1, m2 = P.face_normal(f1), P.face_normal(f2)
    d = P.vertices[j] - P.vertices[i]
    edir = d / np.linalg.norm(d)
    turn = np.arctan2(np.cross(m1, m2) @ edir, m1 @ m2)
    return float(np.pi - turn)


def _scan_exposure(P, v) -> str:
    incident = [e for e, (i, j) in enumerate(P.edges) if v in (i, j)]
    if len(incident) < 3:
        raise DanglingVertex(f"vertex {v} has {len(incident)} incident edges")
    angles = np.array([_scan_dihedral(P, e) for e in incident])
    margin = melzak.DEFAULT_TOLERANCES.exposure
    if (angles < np.pi - margin).all():
        return EXPOSED
    if (angles > np.pi + margin).all():
        return NEGATIVELY_EXPOSED
    return NEITHER


def _scan_rotation_code(rings, v0, u0) -> tuple:
    label = {v0: 0}
    order = [(v0, u0)]
    code = []
    for v, start in order:
        ring = rings[v]
        k = ring.index(start)
        for u in ring[k:] + ring[:k]:
            if u not in label:
                label[u] = len(order)
                order.append((u, v))
            code.append(label[u])
        code.append(-1)
    return tuple(code)


def _scan_codes(P) -> list:
    """(rings, v, u, full code) for every directed edge and both senses."""
    rings = [P.topology.fan(v)[1] for v in range(P.n_vertices)]
    mirror = [ring[::-1] for ring in rings]
    return [(r, v, u, _scan_rotation_code(r, v, u)) for r in (rings, mirror)
            for v in range(P.n_vertices) for u in r[v]]


def _scan_type_key(P) -> tuple:
    return min(code for _, _, _, code in _scan_codes(P))


def _assert_matches_oracle(P):
    assert P.edges == _scan_edges(P.faces)
    for e, (i, j) in enumerate(P.edges):
        assert P.edge_index(i, j) == P.edge_index(j, i) == e
        assert P.edge_faces(e) == _scan_edge_faces(P, e)
        assert dihedral_angle(P, e) == _scan_dihedral(P, e)
    for v in range(P.n_vertices):
        assert P.vertex_degree(v) == _scan_degree(P, v)
        assert P.topology.neighbours(v) == _scan_neighbors(P, v)
        assert P.vertex_faces(v) == _scan_vertex_faces(P, v)
        assert _fan_faces(P, v) == _scan_ordered_faces(P, v)
        assert _fan_neighbours(P, v) == _scan_ordered_edges(P, v)
        assert exposure(P, v) == _scan_exposure(P, v)
    across = P.topology.across
    assert across.shape == P.topology.corner_mask.shape
    for f, cyc in enumerate(P.faces):
        pad = [-1] * (across.shape[1] - len(cyc))
        assert across[f].tolist() == [_scan_across(P, f, t) for t in range(len(cyc))] + pad


# ---------------------------------------------------------------------------
# oracle agreement and relabelling
# ---------------------------------------------------------------------------

def _is_rotation(a, b) -> bool:
    return len(a) == len(b) and any(a[k:] + a[:k] == b for k in range(len(a)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(5, 30),
       relabel=st.integers(0, 10_000))
def test_accessors_match_oracle_and_relabelling(seed, n_faces, relabel):
    P = random_convex(np.random.default_rng(seed), n_faces=n_faces)
    _assert_matches_oracle(P)

    rng = np.random.default_rng(relabel)
    vperm = rng.permutation(P.n_vertices)
    fperm = rng.permutation(P.n_faces)
    Q = relabelled(P, vperm, fperm, rng.integers(0, 8, size=P.n_faces))
    _assert_matches_oracle(Q)
    for v in range(P.n_vertices):
        w = int(vperm[v])
        assert Q.vertex_degree(w) == P.vertex_degree(v)
        assert Q.vertex_faces(w) == sorted(int(fperm[f]) for f in P.vertex_faces(v))
        fan = [int(fperm[f]) for f in _fan_faces(P, v)]
        assert _is_rotation(fan, _fan_faces(Q, w))
        nbrs = [int(vperm[u]) for u in _fan_neighbours(P, v)]
        assert _is_rotation(nbrs, _fan_neighbours(Q, w))
        assert exposure(Q, w) == exposure(P, v)
    for e, (i, j) in enumerate(P.edges):
        f = Q.edge_index(int(vperm[i]), int(vperm[j]))
        assert dihedral_angle(Q, f) == dihedral_angle(P, e)
        assert Q.edge_faces(f) == tuple(sorted(int(fperm[g]) for g in P.edge_faces(e)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(5, 20),
       relabel=st.integers(0, 10_000), scale=st.floats(0.1, 10.0))
def test_type_key_is_invariant(seed, n_faces, relabel, scale):
    P = random_convex(np.random.default_rng(seed), n_faces=n_faces)
    key = P.type_key()

    rng = np.random.default_rng(relabel)
    vperm = rng.permutation(P.n_vertices)
    assert relabelled(P, vperm, range(P.n_faces), [0] * P.n_faces).type_key() == key
    fperm = rng.permutation(P.n_faces)
    assert relabelled(P, range(P.n_vertices), fperm, [0] * P.n_faces).type_key() == key
    shifts = rng.integers(0, 8, size=P.n_faces)
    assert relabelled(P, range(P.n_vertices), range(P.n_faces), shifts).type_key() == key

    R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    R *= np.sign(np.linalg.det(R))
    turned = from_halfspaces([HalfSpace(R @ h.normal, scale * h.offset)
                              for h in P.halfspaces])
    assert turned.type_key() == key

    flip = np.array([-1.0, 1.0, 1.0])
    mirror = Polyhedron(P.vertices * flip, tuple(cyc[::-1] for cyc in P.faces),
                        tuple(HalfSpace(h.normal * flip, h.offset) for h in P.halfspaces))
    assert validate(mirror).ok
    assert mirror.type_key() == key


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(4, 30), pick=st.integers(0, 10_000))
def test_type_key_matches_exhaustive_minimum(seed, n_faces, pick):
    P = random_convex(np.random.default_rng(seed), n_faces=n_faces)
    assert P.type_key() == _scan_type_key(P)
    # a bounded code is the full code when it is at most the bound, else None
    codes = _scan_codes(P)
    rng = np.random.default_rng(pick)
    for i, j in rng.integers(0, len(codes), size=(20, 2)):
        r, v, u, full = codes[i]
        bound = codes[j][3]
        got = _rotation_code(r, v, u, list(bound))
        assert (got is None) if full > bound else (tuple(got) == full)
        assert tuple(_rotation_code(r, v, u)) == full


def test_catalog_type_keys_match_exhaustive_minimum():
    for t in load_catalog():
        P = t.build()
        assert P.type_key() == _scan_type_key(P)


def test_crater_matches_oracle():
    _assert_matches_oracle(crater_can()[0])


# ---------------------------------------------------------------------------
# error paths: raised when the element is queried, not when parsed
# ---------------------------------------------------------------------------

def test_reversed_face_parses_and_fails_on_its_edges():
    P = parse_off(TETRA_TXT.replace("3 0 3 2", "3 0 2 3"))
    e = P.edge_index(0, 3)
    with pytest.raises(BadParameter, match="not consistently oriented"):
        dihedral_angle(P, e)
    with pytest.raises(BadParameter, match="not consistently oriented"):
        exposure(P, 0)
    ok = P.edge_index(1, 2)
    assert dihedral_angle(P, ok) == _scan_dihedral(P, ok)


def test_two_face_vertex_is_dangling():
    # vertex 4 splits the tetrahedron edge (0, 1): it lies in two faces
    text = ("OFF\n5 4 7\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0.5 0 0\n"
            "4 0 2 1 4\n4 0 4 1 3\n3 1 2 3\n3 0 3 2\n")
    P = parse_off(text)
    assert P.vertex_degree(4) == 2
    with pytest.raises(DanglingVertex, match="2 incident faces"):
        _fan_faces(P, 4)
    with pytest.raises(DanglingVertex, match="2 incident edges"):
        exposure(P, 4)


def test_vertex_outside_every_face_has_no_incidence():
    P = parse_off(TETRA_TXT)
    for v in (-1, 4, 99):
        assert P.vertex_degree(v) == 0 and P.vertex_faces(v) == []
        with pytest.raises(DanglingVertex, match="0 incident faces"):
            _fan_faces(P, v)
        with pytest.raises(DanglingVertex, match="0 incident edges"):
            exposure(P, v)


def test_pinched_vertex_fan_does_not_close():
    # two tetrahedra that share only vertex 0
    text = ("OFF\n7 8 12\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n-1 0 0\n0 -1 0\n0 0 -1\n"
            "3 0 2 1\n3 0 1 3\n3 1 2 3\n3 0 3 2\n"
            "3 0 4 5\n3 0 6 4\n3 4 6 5\n3 0 5 6\n")
    P = parse_off(text)
    assert P.vertex_degree(0) == 6
    with pytest.raises(DanglingVertex, match="does not close"):
        _fan_faces(P, 0)
    with pytest.raises(DanglingVertex, match="does not close"):
        _fan_neighbours(P, 0)
    assert _fan_faces(P, 1) == _scan_ordered_faces(P, 1)


def test_non_manifold_faces():
    T = regular_tetrahedron()
    faces = T.faces + (T.faces[0],)
    hs = T.halfspaces + (T.halfspaces[0],)
    with pytest.raises(NonManifold, match="lies in 3 faces, expected 2"):
        Polyhedron(T.vertices, faces, hs)
    with pytest.raises(NonManifold):
        parse_off(TETRA_TXT.replace("3 0 3 2", "3 1 2 3"))


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

PUBLIC_NAMES = [
    "DEFAULT_TOLERANCES", "Tolerances",
    "HalfSpace", "Polyhedron", "ValidationReport",
    "edge_length", "from_halfspaces", "melzak_ratio", "validate", "volume",
    "CUBE_RATIO", "PRISM_EDGE_LENGTH", "PRISM_RATIO", "TETRA_RATIO",
    "box", "canonical", "cube", "ngon_pyramid", "optimal_prism",
    "optimal_pyramid", "random_convex", "regular_tetrahedron", "unit_volume",
    "emit_off", "parse_off", "read_off", "write_off",
    "EXPOSED", "NEGATIVELY_EXPOSED", "NEITHER",
    "angle_deficit", "complement_gauss_image", "dihedral_angle", "exposure",
    "gauss_image", "spherical_area", "spherical_incircle",
    "IN", "OUT", "DerivativeReport", "Perturbation", "apply", "derivatives",
    "face_hinge_derivatives", "face_translate_derivatives",
    "finite_difference_check", "vertex_truncate_derivatives", "with_fd",
    "CriteriaReport", "CriterionVerdict", "Witness", "audit",
    "PyramidQuad", "ScanReport", "ScanSolution", "Wedge", "cleancond_scan",
    "is_good_wedge", "normalize_wedge", "protruding_wedge", "pyramid_F",
    "rectangle_deviation", "wedge_R", "wedge_top_curvature",
    "CatalogType", "CriticalityReport", "OptimizeOptions", "OptimizeResult",
    "SequenceStep", "TypeRun", "catalog_self_check", "criticality_report",
    "load_catalog", "local_optimize", "minimizing_sequence",
]


def test_public_names_are_stable():
    assert melzak.__all__ == PUBLIC_NAMES
    assert all(hasattr(melzak, name) for name in PUBLIC_NAMES)


def test_incidence_lists_ascend_on_catalog():
    for t in load_catalog():
        P = t.build()
        for v in range(P.n_vertices):
            fs = P.vertex_faces(v)
            assert isinstance(fs, list) and fs == sorted(set(fs))
        for e in range(P.n_edges):
            fs = P.edge_faces(e)
            assert isinstance(fs, tuple) and len(fs) == 2 and fs[0] < fs[1]


# ---------------------------------------------------------------------------
# golden digests
# ---------------------------------------------------------------------------

def _golden_bodies():
    """(name, polyhedron, include the criticality report)."""
    out = [(f"catalog:{t.name}", t.build(), True) for t in load_catalog()]
    out += [("cube", cube(), True), ("tetrahedron", regular_tetrahedron(), True),
            ("prism", optimal_prism(), True), ("octahedron", octahedron(), True),
            ("crater_can", crater_can()[0], False)]
    out += [(f"random_convex_{k}", random_convex(np.random.default_rng(k), n_faces=k), True)
            for k in (10, 20, 30)]
    return out


def _answer(fn, *args) -> str:
    try:
        value = fn(*args)
    except GeometryError as exc:
        return f"!{type(exc).__name__}: {exc}"
    return value.hex() if isinstance(value, float) else repr(value)


def _digest(P, with_criticality) -> str:
    parts = [audit(P, "candidate").to_json()]
    if with_criticality:
        parts.append(json.dumps(criticality_report(P).to_dict()))
    for v in range(P.n_vertices):
        parts += [_answer(fn, P, v) for fn in (_fan_faces, _fan_neighbours, exposure,
                                               angle_deficit)]
    parts += [_answer(dihedral_angle, P, e) for e in range(P.n_edges)]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _digests() -> dict:
    return {name: _digest(P, crit) for name, P, crit in _golden_bodies()}


def test_golden_incidence_digests():
    want = json.loads(GOLDEN.read_text())
    got = _digests()
    assert sorted(got) == sorted(want) and len(got) == 35
    assert [name for name in want if got[name] != want[name]] == []


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
