"""Ratio descent, the combinatorial catalog, and criticality reporting.

``tests/data/descent_golden.json`` holds one sha256 per descent run over
what the CLI prints and writes: ``sequence --max-faces 6`` and ``8``,
``optimize`` on the 0.8 x 1 x 1.25 box (stdout, mesh and trace) and
``optimize --iters 20`` on ``random_convex(default_rng(2), 10)`` (stdout
and mesh). Regenerate it
with ``PYTHONPATH=src python tests/test_optimize.py`` only when a descent
result is meant to change.
"""

import collections
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import melzak.optimize
import melzak.perturbations
from conftest import crater_can, fail_corner_rules, octahedron, schonhardt
from melzak import (
    NEITHER,
    HalfSpace,
    box,
    cli,
    cube,
    exposure,
    from_halfspaces,
    melzak_ratio,
    ngon_pyramid,
    optimal_prism,
    random_convex,
    regular_tetrahedron,
    validate,
    volume,
    write_off,
)
from melzak.errors import (
    BadParameter,
    DegenerateInput,
    DegeneratePolygon,
    GeometryError,
    InvalidStart,
    NotExposed,
    NumericalBreakdown,
    UnsupportedFaceCount,
)
from melzak.optimize import (
    EXPECTED_SIMPLE_COUNTS,
    OptimizeOptions,
    OptimizeResult,
    _optimize_type,
    _PlaneObjective,
    _WALL_MARGIN,
    catalog_self_check,
    criticality_report,
    load_catalog,
    local_optimize,
    minimizing_sequence,
)
from melzak.perturbations import (
    IN,
    OUT,
    Perturbation,
    _hinge_frame,
    face_hinge_derivatives,
    face_translate_derivatives,
)
from melzak.polyhedron import interior_point, plane_incidence
from melzak.shapes import PRISM_RATIO, TETRA_RATIO

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "descent_golden.json"


# ---------------------------------------------------------------------------
# options and start validation
# ---------------------------------------------------------------------------

def test_options_validated():
    with pytest.raises(BadParameter):
        OptimizeOptions(max_iters=0)
    with pytest.raises(BadParameter):
        OptimizeOptions(grad_tol=-1.0)
    for name in ("max_iters", "grad_tol"):
        for bad in (math.nan, math.inf):
            with pytest.raises(BadParameter, match=name):
                OptimizeOptions(**{name: bad})


def test_nonconvex_start_rejected():
    CR, _, _, _ = crater_can()
    with pytest.raises(InvalidStart):
        local_optimize(CR)


@pytest.mark.parametrize("make, degree", [(octahedron, 4),
                                          (lambda: ngon_pyramid(4, 1.0, 0.8), 4),
                                          (lambda: ngon_pyramid(5, 1.0, 0.8), 5),
                                          (lambda: ngon_pyramid(7, 1.0, 0.8), 7)],
                         ids=["octahedron", "pyramid4", "pyramid5", "pyramid7"])
def test_non_simple_start_rejected(make, degree):
    P = make()
    v = next(v for v in range(P.n_vertices) if P.vertex_degree(v) != 3)
    with pytest.raises(InvalidStart, match=f"vertex {v} has degree {degree}$"):
        local_optimize(P)


# ---------------------------------------------------------------------------
# objective against the face-by-face oracle
# ---------------------------------------------------------------------------

def _loop_ratio(obj, faces, z) -> float:
    """One set of plane rows, one face at a time: the oracle of ``solve``
    and ``log_ratio``."""
    normals, offsets = np.empty((len(z), 3)), np.empty(len(z))
    for f, (a, b, c, o) in enumerate(z):
        k = math.sqrt(a * a + b * b + c * c)
        normals[f] = a / k, b / k, c / k
        offsets[f] = o / k * obj.scale
    A = normals[obj.vertex_planes]
    b = offsets[obj.vertex_planes]
    try:
        pts = np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return math.inf
    if not np.isfinite(pts).all():
        return math.inf
    d = pts[obj.edge_idx[:, 0]] - pts[obj.edge_idx[:, 1]]
    e = float(np.sqrt((d * d).sum(axis=1)).sum())
    vol = 0.0
    for f, cyc in enumerate(faces):
        p = pts[list(cyc)]
        cr = np.cross(p, np.roll(p, -1, axis=0)).sum(axis=0)
        vol += float(offsets[f]) * 0.5 * float(cr @ normals[f])
    vol /= 3.0
    if vol <= 0 or not math.isfinite(e):
        return math.inf
    return e ** 3 / vol


def _loop_log_ratio(obj, faces, z) -> float:
    m = _loop_ratio(obj, faces, z)
    return math.log(m) if math.isfinite(m) and m > 0 else math.inf


def _loop_fd_gradient(obj, faces, z, h) -> np.ndarray:
    """Central differences of the oracle over every entry of the rows z."""
    g = np.empty(z.shape)
    for j in np.ndindex(z.shape):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        fp, fm = _loop_log_ratio(obj, faces, zp), _loop_log_ratio(obj, faces, zm)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericalBreakdown("ratio became non-finite near the iterate")
        g[j] = (fp - fm) / (2.0 * h)
    return g


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(4, 12), probe=st.integers(0, 10_000))
@example(seed=60, n_faces=4, probe=4)   # a sliver whose offsets noise would flip
def test_objective_matches_face_loop(seed, n_faces, probe):
    P = random_convex(np.random.default_rng(seed), n_faces=n_faces)
    obj = _PlaneObjective.for_polyhedron(P)
    z = obj.pack(P)
    rng = np.random.default_rng(probe)
    Z = z + rng.normal(scale=1e-3, size=(8,) + z.shape) * rng.uniform(0.0, 1.0, size=(8, 1, 1))
    Z[:2] = z
    Z[1, :, 3] *= -1.0   # the body turned inside out: no positive volume
    got = [obj.log_ratio(*obj.solve(row)) for row in Z]
    assert math.isinf(got[1])
    for row, value in zip(Z, got):
        assert value.hex() == _loop_log_ratio(obj, P.faces, row).hex()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(4, 12))
def test_gradient_rows_are_orthogonal_to_their_plane_rows(seed, n_faces):
    # ln m does not change when a row is rescaled, so the descent steps
    # along the exact gradient with nothing to project out
    P = random_convex(np.random.default_rng(seed), n_faces=n_faces)
    obj = _PlaneObjective.for_polyhedron(P)
    z = obj.pack(P)
    g = obj.gradient(*obj.solve(z))
    assert (np.abs((g * z).sum(axis=1)) <= 1e-12 * np.linalg.norm(g)).all()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(4, 12))
def test_exact_gradient_matches_central_differences(seed, n_faces):
    # a central difference at step h is off by its truncation error, c h^2
    # with c a third derivative over 6, plus rounding of about eps |ln m| / h.
    # The quotients at h and 2h differ by 3 c h^2, which sets the truncation
    # bound (with a factor two to spare); rounding is allowed 64 eps |ln m| / h.
    # On 5,400 bodies (seeds 0-3000 in steps of 5, 4-12 faces) the error
    # reaches half this bound; relative to the largest component it is up
    # to 2.5e-8 on most, 1.7e-7 on slivers
    P = random_convex(np.random.default_rng(seed), n_faces=n_faces)
    obj = _PlaneObjective.for_polyhedron(P)
    z = obj.pack(P)
    h = 1e-6
    fd_h, fd_2h = (_loop_fd_gradient(obj, P.faces, z, step) for step in (h, 2 * h))
    bound = (2.0 / 3.0) * np.abs(fd_2h - fd_h) + 64 * np.finfo(float).eps * abs(
        _loop_log_ratio(obj, P.faces, z)) / h
    assert (np.abs(obj.gradient(*obj.solve(z)) - fd_h) <= bound).all()


@pytest.mark.parametrize("seed", range(6))
def test_rates_are_the_plane_gradient_along_their_generators(seed):
    # on a simple body each translate and hinge rate is linear in the plane
    # motion (n', o') it applies, so dM = m (d ln m/dn . n' + d ln m/do o');
    # the gradient is taken about the anchor centroid c, where o - n.c is
    # the offset, and moved to the world frame as d/dn - c d/do
    for n_faces in (4, 7, 12):
        P = random_convex(np.random.default_rng(seed), n_faces=n_faces)
        obj = _PlaneObjective.for_polyhedron(P)
        g = obj.gradient(*obj.solve(obj.pack(P)))
        d_o = g[:, 3] / obj.scale
        d_n = g[:, :3] - d_o[:, None] * obj.origin
        m = melzak_ratio(P)
        checked = 0
        for f, cyc in enumerate(P.faces):
            for dirn, sign in ((OUT, 1.0), (IN, -1.0)):
                rates = [(face_translate_derivatives(P, f, dirn).dM, sign * d_o[f])]
                for i, j in zip(cyc, cyc[1:] + cyc[:1]):
                    e = P.edge_index(i, j)
                    a, w, sigma = _hinge_frame(P, Perturbation("face_hinge", f, dirn, e))
                    ndot = sigma * np.cross(w, P.face_normal(f))
                    rates.append((face_hinge_derivatives(P, f, e, dirn).dM,
                                  float(d_n[f] @ ndot + d_o[f] * (a @ ndot))))
                for dM, slope in rates:
                    assert abs(dM - m * slope) <= 1e-10 * max(abs(dM), 1e-3 * m)
                    checked += 1
        assert checked == 2 * P.n_faces + 4 * P.n_edges


def test_singular_vertex_system():
    P = random_convex(np.random.default_rng(3), n_faces=8)
    obj = _PlaneObjective.for_polyhedron(P)
    z = obj.pack(P)
    # the three planes through vertex 0 made parallel
    a, b, c = obj.vertex_planes[0]
    for f in (b, c):
        z[f, :3] = z[a, :3]
    assert _loop_log_ratio(obj, P.faces, z) == math.inf
    with pytest.raises(np.linalg.LinAlgError):
        obj.solve(z)
    _, offsets, pts = obj.solve(obj.pack(P))
    with pytest.raises(NumericalBreakdown):
        obj.gradient(z[:, :3], offsets, pts)
    with pytest.raises(NumericalBreakdown):
        _loop_fd_gradient(obj, P.faces, z, 1e-6)


# ---------------------------------------------------------------------------
# descent behavior
# ---------------------------------------------------------------------------

def test_known_minimizers_are_fixed_points():
    for P, want in ((cube(), 1728.0),
                    (regular_tetrahedron(), TETRA_RATIO),
                    (optimal_prism(), PRISM_RATIO)):
        res = local_optimize(P)
        assert res.converged
        assert res.iterations == 0
        assert not res.combinatorics_changed
        assert res.ratio == pytest.approx(want, rel=1e-12)
        assert np.allclose(res.polyhedron.vertices, P.vertices, atol=1e-9)


def test_box_flows_to_cube():
    res = local_optimize(box(0.8, 1.0, 1.25))
    assert res.ratio == pytest.approx(1728.0, rel=1e-9)
    assert not res.combinatorics_changed


def test_result_ratio_consistent_with_functional():
    res = local_optimize(box(0.7, 1.0, 1.3))
    assert res.ratio == pytest.approx(melzak_ratio(res.polyhedron), rel=1e-12)
    assert validate(res.polyhedron).ok
    ratios = [r for _, r in res.trace]
    assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert res.trace[-1][1] == pytest.approx(res.ratio, rel=1e-9)


def test_pentagonal_prism_converges_from_its_catalog_start():
    # the combinatorial pentagonal prism has a minimum of its own type;
    # from the catalog rows the descent reaches it within the default
    # step budget and stops at the gradient tolerance
    start = {t.name: t for t in load_catalog()}["simple7f_4444455_a"].build()
    res = local_optimize(start)
    assert res.stop_reason == "grad_tol"
    assert res.ratio == pytest.approx(1961.664826, rel=1e-9)


def test_scale_gauge_invariance():
    P = box(0.8, 1.0, 1.25)
    r1 = local_optimize(P).ratio
    r2 = local_optimize(P.scaled(5.0)).ratio
    assert abs(r1 - r2) < 1e-8


def test_descent_is_deterministic():
    a = local_optimize(box(0.8, 1.0, 1.25))
    b = local_optimize(box(0.8, 1.0, 1.25))
    assert a.ratio == b.ratio
    assert a.trace == b.trace


def test_boundary_stall_flags_combinatorics():
    # the lone 6-face simple type that is neither the cube nor a pyramid
    # flows toward the prism; descent must stop at the type boundary and
    # say so rather than silently report a critical point
    cat = {t.name: t for t in load_catalog()}
    res = local_optimize(cat["simple6f_334455_a"].build())
    assert not res.converged
    assert res.combinatorics_changed
    assert res.ratio > PRISM_RATIO
    assert res.ratio < melzak_ratio(cat["simple6f_334455_a"].build())


def test_stop_reasons():
    # the (converged, combinatorics_changed) pair each stop reason stands for
    flags = {"grad_tol": (True, False), "closed_form": (True, False),
             "max_iters": (False, False), "stale_anchor": (False, False),
             "wall": (False, True)}
    for reason, pair in flags.items():
        res = OptimizeResult(cube(), 1728.0, 0, ((0, 1728.0),), reason)
        assert (res.converged, res.combinatorics_changed) == pair
    cat = {t.name: t for t in load_catalog()}
    assert local_optimize(cube()).stop_reason == "grad_tol"
    assert local_optimize(cat["simple6f_334455_a"].build()).stop_reason == "wall"
    res = local_optimize(random_convex(np.random.default_rng(2), n_faces=10),
                         OptimizeOptions(max_iters=6))
    assert (res.stop_reason, res.iterations, res.converged) == ("max_iters", 6, False)
    # an edge shrinks to a wall the exact gradient walks into
    res = local_optimize(random_convex(np.random.default_rng(5), n_faces=6))
    assert (res.stop_reason, res.combinatorics_changed) == ("wall", True)


# ---------------------------------------------------------------------------
# exact wall certificate against the rebuild it replaced
# ---------------------------------------------------------------------------

def _oracle_accepts(obj, key0, normals, offsets, f) -> bool:
    """The per-step accept check the certificate replaced: rebuild the
    planes, then the start's type key, then the ratio to 1e-9."""
    Q = obj.rebuild(normals, offsets)
    return (Q is not None and Q.type_key() == key0
            and abs(melzak_ratio(Q) - math.exp(f)) <= 1e-9 * math.exp(f))


def _off_plane_margin(obj, normals, offsets, pts) -> float:
    """The smallest residual -R of a row against a plane off its anchor
    incidence, in merge slacks of ``plane_incidence``; inf where there is
    no interior point."""
    try:
        c = interior_point(normals, offsets)
    except GeometryError:
        return math.inf
    R, slack = plane_incidence(pts, normals, offsets, c)
    return float(-R[~obj.incidence].max() / slack)


def _decisions(P, probes) -> list:
    """(certificate, oracle, off-plane margin) on every probe of finite
    ratio, as the line search reads them: one solve feeds both ln m and
    the certificate."""
    obj = _PlaneObjective.for_polyhedron(P)
    key0 = P.type_key()
    out = []
    for zt in probes(obj, obj.pack(P)):
        try:
            row = obj.solve(zt)
        except np.linalg.LinAlgError:
            continue
        ft = obj.log_ratio(*row)
        if math.isfinite(ft):
            out.append((obj.certifies(obj.incidence_residuals(*row)),
                        _oracle_accepts(obj, key0, *row[:2], ft),
                        _off_plane_margin(obj, *row)))
    return out


@settings(max_examples=30, deadline=None)
@given(body=st.tuples(st.integers(0, 10_000), st.integers(4, 12)),
       probe=st.integers(0, 10_000))
def test_certificate_matches_rebuild_oracle(body, probe):
    # the certificate asks for _WALL_MARGIN slacks off every other plane
    # where the rebuild asks for one, so in that band it may refuse what
    # the rebuild keeps; what it certifies, the rebuild always keeps
    P = random_convex(np.random.default_rng(body[0]), n_faces=body[1])
    rng = np.random.default_rng(probe)

    def probes(obj, z):
        # log-uniform moves in random directions, then the line-search
        # path along the descent direction from a long step down to a
        # tiny one, which crosses the nearest wall when there is one
        for scale in 10.0 ** rng.uniform(-10.0, -1.0, size=8):
            u = rng.normal(size=z.shape)
            yield z + scale * u / np.linalg.norm(u)
        g = obj.gradient(*obj.solve(z))
        for k in range(0, 36, 2):
            yield z - 0.5 ** k * g

    got = _decisions(P, probes)
    assert got
    for certified, kept, margin in got:
        assert kept or not certified
        if not 1.0 < margin <= _WALL_MARGIN:
            assert certified == kept


def test_certificate_sees_both_sides_of_a_wall():
    # a cube with one corner cut 0.01 deep: moving the cut plane out by
    # less than that keeps its triangle, by more cuts nothing off
    corner = np.full(3, 0.5)
    n = np.ones(3) / math.sqrt(3.0)
    P = from_halfspaces(list(cube().halfspaces) + [HalfSpace(n, float(n @ corner) - 0.01)])
    cut = P.n_faces - 1

    def probes(obj, z):
        for out in (0.005, 0.02):
            zt = z.copy()
            zt[cut, 3] += out / obj.scale
            yield zt

    assert [d[:2] for d in _decisions(P, probes)] == [(True, True), (False, False)]


def test_certificate_refuses_a_vertex_within_the_margin_of_a_plane():
    # the cube's corner cut moved out to a depth d leaves a triangle whose
    # vertices lie sqrt(3) d inside the third cube plane at their corner;
    # at 1.5 merge slacks the rebuild's rule still puts them off that
    # plane, but qhull's points, which differ in the last bits, need not,
    # so the certificate refuses the cut there and accepts it at 2.5
    corner = np.full(3, 0.5)
    n = np.ones(3) / math.sqrt(3.0)
    P = from_halfspaces(list(cube().halfspaces) + [HalfSpace(n, float(n @ corner) - 0.01)])
    obj = _PlaneObjective.for_polyhedron(P)
    z = obj.pack(P)
    cut = P.n_faces - 1

    def row_at_depth(d):
        zt = z.copy()
        zt[cut, 3] += (0.01 - d) / obj.scale
        return obj.solve(zt)

    slack = math.sqrt(3.0) * 1e-8 / _off_plane_margin(obj, *row_at_depth(1e-8))
    for slacks, certified in ((1.5, False), (2.5, True)):
        row = row_at_depth(slacks * slack / math.sqrt(3.0))
        assert _off_plane_margin(obj, *row) == pytest.approx(slacks, rel=1e-4)
        assert obj.certifies(obj.incidence_residuals(*row)) is certified


def test_exit_guard_catches_a_certificate_that_accepts_everything(monkeypatch):
    # the type that flows to the prism meets the prism wall at its eleventh
    # Barzilai-Borwein step, which the certificate turns back; accepting
    # every probe, with no wall step to start short of it, walks through the
    # wall there (and back out at the twelfth step), so a run cut at eleven
    # steps ends across it and the one rebuild at exit must say so
    start = {t.name: t for t in load_catalog()}["simple6f_334455_a"].build()
    opts = OptimizeOptions(max_iters=11)
    res = local_optimize(start, opts)
    assert res.polyhedron.type_key() == start.type_key()
    monkeypatch.setattr(_PlaneObjective, "certifies", lambda self, *rows: True)
    monkeypatch.setattr(_PlaneObjective, "wall_step", lambda self, *rows: (math.inf, None))
    with pytest.raises(NumericalBreakdown, match="does not rebuild"):
        local_optimize(start, opts)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n_faces=st.integers(4, 12))
def test_wall_step_reads_residual_rates_that_match_central_differences(seed, n_faces):
    # the residual matrix x_v.n_f - o_f of the solved rows, differenced
    # along the unit descent direction with the truncation and rounding
    # bound of the gradient test; on 2,145 bodies (seeds 0-3000 in steps
    # of 7, at 4, 6, 8, 10 and 12 faces) the error reaches half of it
    P = random_convex(np.random.default_rng(seed), n_faces=n_faces)
    obj = _PlaneObjective.for_polyhedron(P)
    normals, offsets, pts = obj.solve(obj.pack(P))
    z = np.column_stack([normals, offsets / obj.scale])
    g = obj.gradient(normals, offsets, pts)
    d = -g / np.linalg.norm(g)

    def residuals(t):
        n, o, x = obj.solve(z + t * d)
        return x @ n.T - o

    def central(h):
        return (residuals(h) - residuals(-h)) / (2.0 * h)

    h = 1e-6
    fd_h, fd_2h = central(h), central(2 * h)
    rate = obj.residual_rates(normals, offsets, pts, d)
    bound = (2.0 / 3.0) * np.abs(fd_2h - fd_h) + 64 * np.finfo(float).eps * np.abs(pts).max() / h
    assert (np.abs(rate - fd_h) <= bound).all()
    # the wall step is where the first off-incidence residual, followed
    # along its rate, reaches the certificate's margin (up to the rounding
    # of R + t R', whose terms are about the body's size; on 3,861 bodies,
    # seeds 0-3000 in steps of 7 at 4-12 faces, it reaches 2% of the bound)
    res = obj.incidence_residuals(normals, offsets, pts)
    R, slack = res
    t, pair = obj.wall_step(normals, offsets, pts, res, d)
    edge, tol = -_WALL_MARGIN * slack, 64 * np.finfo(float).eps * np.abs(R).max()
    if pair is None:
        assert t == math.inf and (rate[~obj.incidence] <= 0).all()
    else:
        v, f = pair
        assert not obj.incidence[v, f] and rate[v, f] > 0
        assert abs(R[v, f] + t * rate[v, f] - edge) <= tol
        assert (R + t * rate)[~obj.incidence].max() <= edge + tol


def test_line_search_starts_short_of_the_wall(monkeypatch):
    # Barzilai-Borwein steps overshoot the prism wall this type flows to;
    # started at nine tenths of the wall step, nearly every line search
    # accepts its first probe (halving from the Barzilai-Borwein step took
    # 27.7 probes a gradient)
    calls = collections.Counter()
    probe, gradient = melzak.optimize._probe, _PlaneObjective.gradient

    def counted_probe(*args):
        calls["probe"] += 1
        return probe(*args)

    def counted_gradient(self, *args):
        calls["gradient"] += 1
        return gradient(self, *args)

    monkeypatch.setattr(melzak.optimize, "_probe", counted_probe)
    monkeypatch.setattr(_PlaneObjective, "gradient", counted_gradient)
    start = {t.name: t for t in load_catalog()}["simple6f_334455_a"].build()
    res = local_optimize(start)
    assert (res.stop_reason, res.wall) == ("wall", "triangle:f=5")
    assert calls["probe"] <= 2 * calls["gradient"]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_self_check_clean():
    assert catalog_self_check() == []


def test_catalog_counts():
    cat = load_catalog()
    for k, want in EXPECTED_SIMPLE_COUNTS.items():
        assert sum(1 for t in cat if t.faces == k and t.simple) == want
    pyramids = [t for t in cat if t.pyramid_base]
    assert sorted(t.pyramid_base for t in pyramids) == [4, 5, 6, 7]
    assert len(cat) == sum(EXPECTED_SIMPLE_COUNTS.values()) + 4


def test_catalog_entries_build():
    for t in load_catalog():
        P = t.build()
        assert P.n_faces == t.faces
        assert validate(P).ok
        assert volume(P) > 0


def test_catalog_contains_reference_types():
    cat = {t.name: t for t in load_catalog()}
    for name, P in (("tetrahedron", regular_tetrahedron()),
                    ("triangular_prism", optimal_prism()),
                    ("cube", cube()),
                    ("square_pyramid", ngon_pyramid(4, 1.0, 1.0))):
        assert cat[name].build().type_key() == P.type_key()


def test_catalog_type_keys_are_distinct():
    cat = {t.name: t.build() for t in load_catalog()}
    assert len({P.type_key() for P in cat.values()}) == len(cat) == 27
    # the same face and vertex degree lists, two types: only the key tells them apart
    a, b = cat["simple8f_33445566_a"], cat["simple8f_33445566_b"]
    degrees = [(sorted(map(len, P.faces)), sorted(map(P.vertex_degree, range(P.n_vertices))))
               for P in (a, b)]
    assert degrees[0] == degrees[1]
    assert a.type_key() != b.type_key()


def test_catalog_self_check_reports_a_repeated_type(monkeypatch):
    cube_type = next(t for t in load_catalog() if t.name == "cube")
    twins = (cube_type, dataclasses.replace(cube_type, name="cube_again"))
    monkeypatch.setattr("melzak.optimize.load_catalog", lambda: twins)
    assert "cube and cube_again are isomorphic" in catalog_self_check()


def test_type_keys_need_no_networkx():
    code = ("import sys; sys.modules['networkx'] = None\n"
            "from melzak import catalog_self_check, cube\n"
            "assert catalog_self_check() == []\n"
            "assert cube().type_key()\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def test_generator_reproduces_shipped_catalog(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "generate_catalog", ROOT / "scripts" / "generate_catalog.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    out = tmp_path / "types.json"
    assert generator.main(["--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith(f" types to {out}\n")
    shipped = ROOT / "src" / "melzak" / "data" / "polytope_types.json"
    assert out.read_bytes() == shipped.read_bytes()


# ---------------------------------------------------------------------------
# minimizing sequence
# ---------------------------------------------------------------------------

def test_sequence_through_six_faces():
    steps = minimizing_sequence(6)
    assert [s.faces for s in steps] == [4, 5, 6]
    assert steps[0].best_name == "tetrahedron"
    assert steps[0].best.ratio == pytest.approx(TETRA_RATIO, rel=1e-9)
    assert steps[1].best_name == "triangular_prism"
    assert steps[1].best.ratio == pytest.approx(PRISM_RATIO, rel=1e-9)
    assert not steps[1].carried
    # nothing with six faces beats the prism, so the best is carried forward
    assert steps[2].carried
    assert steps[2].best_name == "triangular_prism"
    assert steps[2].best.ratio == pytest.approx(PRISM_RATIO, rel=1e-9)
    ratios = [s.best.ratio for s in steps]
    assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_sequence_reports_per_type_runs():
    steps = minimizing_sequence(5)
    per = {r.name: r for r in steps[1].per_type}
    assert set(per) == {"triangular_prism", "square_pyramid"}
    assert per["square_pyramid"].method == "parametric"
    assert per["square_pyramid"].result.ratio == pytest.approx(2104.01, rel=1e-4)
    assert per["square_pyramid"].result.ratio > per["triangular_prism"].result.ratio


def test_sweep_takes_pyramids_at_their_closed_form():
    for t in (t for t in load_catalog() if t.pyramid_base):
        run = _optimize_type(t)
        assert run.method == "parametric"
        assert run.result.stop_reason == "closed_form"
        assert run.result.converged and not run.result.combinatorics_changed


def test_sequence_face_range_validated():
    with pytest.raises(UnsupportedFaceCount):
        minimizing_sequence(3)
    with pytest.raises(UnsupportedFaceCount):
        minimizing_sequence(9)


# ---------------------------------------------------------------------------
# criticality
# ---------------------------------------------------------------------------

def test_reference_shapes_critical():
    for P in (cube(), regular_tetrahedron(), optimal_prism()):
        rep = criticality_report(P)
        assert rep.is_critical
        assert rep.minimum > -1e-8
        assert len(rep.entries) > 0


def test_octahedron_not_critical():
    rep = criticality_report(octahedron())
    assert not rep.is_critical
    assert rep.minimum < -1.0
    kinds = {k.split(":")[0] for k in rep.entries}
    assert kinds == {"translate", "hinge", "truncate"}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-8])
def test_criticality_tolerance_must_be_finite_and_nonnegative(tol):
    # a NaN tolerance called every body not critical
    with pytest.raises(BadParameter, match="tolerance"):
        criticality_report(cube(), tol=tol)
    assert criticality_report(cube(), tol=0.0).is_critical


def test_criticality_dict_roundtrip():
    d = criticality_report(cube()).to_dict()
    assert set(d) == {"entries", "minimum", "is_critical"}
    assert d["is_critical"] is True


@pytest.mark.parametrize("make", [cube, lambda: ngon_pyramid(6, 1.0, 0.8),
                                  lambda: random_convex(np.random.default_rng(20), 20)],
                         ids=["cube", "hex_pyramid", "random_convex_20"])
def test_criticality_accounts_for_every_perturbation(make):
    # 2F translations, two hinge directions per face edge (4E) and V cuts;
    # none of these bodies has a degenerate hinge or cut
    P = make()
    rep = criticality_report(P)
    assert len(rep.entries) + len(rep.skipped) == 2 * P.n_faces + 4 * P.n_edges + P.n_vertices
    assert rep.skipped == {}


def test_criticality_names_skipped_perturbations(monkeypatch):
    # the crater can skips hinges and cuts, but only as NotSemiExposed and
    # NotExposed; the apex's corner rules and its cut are made to raise the
    # other two classes, DegenerateInput and DegeneratePolygon, here, and
    # every translate and hinge that moves the apex is skipped with it
    P = ngon_pyramid(6, 1.0, 0.8)
    apex = next(v for v in range(P.n_vertices) if P.vertex_degree(v) == 6)
    image = melzak.perturbations.vertex_image

    def failing_image(P, v):
        if v == apex:
            raise DegeneratePolygon("apex")
        return image(P, v)

    fail_corner_rules(monkeypatch, DegenerateInput("apex"), {apex})
    monkeypatch.setattr(melzak.perturbations, "vertex_image", failing_image)
    rep = criticality_report(P)
    lateral = [f for f in range(P.n_faces) if apex in P.faces[f]]
    want = {f"translate:f={f}:{d}": "DegenerateInput" for f in lateral for d in ("out", "in")}
    want.update({f"hinge:f={f}:e={P.edge_index(*[v for v in P.faces[f] if v != apex])}:{d}":
                 "DegenerateInput" for f in lateral for d in ("out", "in")})
    want[f"truncate:v={apex}"] = "DegeneratePolygon"
    assert rep.skipped == want
    assert len(rep.entries) + len(rep.skipped) == 2 * P.n_faces + 4 * P.n_edges + P.n_vertices
    assert not set(rep.entries) & set(rep.skipped)
    assert set(rep.to_dict()) == {"entries", "minimum", "is_critical"}


def test_criticality_skips_unexposed_moves_of_a_non_convex_body():
    # the crater's rim corners are neither exposed nor negatively exposed,
    # so translations of the faces through them, many hinges and the rim
    # cuts have no one-sided rate; each is named and the report completes
    P = crater_can()[0]
    rep = criticality_report(P)
    assert len(rep.entries) == len(rep.skipped) == 51
    assert len(rep.entries) + len(rep.skipped) == 2 * P.n_faces + 4 * P.n_edges + P.n_vertices
    kinds = collections.Counter((k.split(":")[0], v) for k, v in rep.skipped.items())
    assert kinds == {("translate", "NotExposedFace"): 12, ("hinge", "NotSemiExposed"): 36,
                     ("truncate", "NotExposed"): 3}


def test_criticality_of_a_body_without_rates_raises_not_exposed():
    # every vertex of Schönhardt's twisted prism is neither exposed nor
    # negatively exposed, so every move and cut is skipped and there is no
    # minimum to report; this raised a bare ValueError from min()
    P = schonhardt()
    assert validate(P).ok
    assert {exposure(P, v) for v in range(P.n_vertices)} == {NEITHER}
    with pytest.raises(NotExposed, match="no elementary perturbation has a rate: all 70 "):
        criticality_report(P)


# ---------------------------------------------------------------------------
# golden digests
# ---------------------------------------------------------------------------

def _cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _descent_digests(work: pathlib.Path) -> dict:
    box_off, rand_off = work / "box.off", work / "random10.off"
    mesh, trace = work / "out.off", work / "trace.csv"
    write_off(box_off, box(0.8, 1.0, 1.25))
    write_off(rand_off, random_convex(np.random.default_rng(2), n_faces=10))
    runs = {
        "sequence_6": lambda: _cli_stdout(["sequence", "--max-faces", "6"]),
        "sequence_8": lambda: _cli_stdout(["sequence", "--max-faces", "8"]),
        "optimize_box": lambda: (_cli_stdout(["optimize", str(box_off), "--out", str(mesh),
                                              "--trace", str(trace)])
                                 + mesh.read_text() + trace.read_text()),
        "optimize_random10_iters20": lambda: (_cli_stdout(["optimize", str(rand_off),
                                                           "--out", str(mesh), "--iters", "20"])
                                              + mesh.read_text()),
    }
    return {name: hashlib.sha256(run().encode()).hexdigest() for name, run in runs.items()}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The descent digests, and every result of a descent that ``sequence
    --max-faces 8`` ran while they were taken, so that the 8-face sweep
    runs once for both."""
    runs, sweeps = [], {}

    def descent(P, opts=OptimizeOptions()):
        runs.append(local_optimize(P, opts))
        return runs[-1]

    def sequence(max_faces):
        first = len(runs)
        steps = minimizing_sequence(max_faces)
        sweeps[max_faces] = runs[first:]
        return steps

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(melzak.optimize, "local_optimize", descent)
        mp.setattr(cli, "minimizing_sequence", sequence)
        digests = _descent_digests(tmp_path_factory.mktemp("descent"))
    return digests, sweeps[8]


def test_golden_descent_digests(golden_run):
    want = json.loads(GOLDEN.read_text())
    got, _ = golden_run
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


def _collapsed(P) -> str:
    """The feature at a wall by its short edges (below 1e-5 of the
    diameter): one edge, the three edges of one triangle, or other."""
    d = P.diameter()
    short = {e for e, (i, j) in enumerate(P.edges)
             if np.linalg.norm(P.vertices[i] - P.vertices[j]) < 1e-5 * d}
    triangles = [f for f, cyc in enumerate(P.faces) if len(cyc) == 3
                 and {P.edge_index(i, j) for i, j in zip(cyc, cyc[1:] + cyc[:1])} == short]
    if len(short) == 1:
        return f"edge:e={short.pop()}"
    return f"triangle:f={triangles[0]}" if len(triangles) == 1 else "other"


def test_walls_name_what_collapses(golden_run):
    # every wall stop names the feature its short edges show: in the 8-face
    # sweep 16 triangles shrink to a point and 3 edges shrink, and from
    # random_convex(default_rng(s), k) at seeds 0-4 and 4-12 faces 21
    # triangles and 12 edges (all 134 walls of seeds 0-19 agree as well)
    _, sweep = golden_run
    seeded = [local_optimize(random_convex(np.random.default_rng(s), n_faces=k))
              for s in range(5) for k in range(4, 13)]
    for runs, want in ((sweep, {"triangle": 16, "edge": 3}),
                       (seeded, {"triangle": 21, "edge": 12})):
        walls = [res for res in runs if res.stop_reason == "wall"]
        assert [res.wall for res in walls] == [_collapsed(res.polyhedron) for res in walls]
        assert collections.Counter(res.wall.split(":")[0] for res in walls) == want
        assert all(res.wall is None for res in runs if res.stop_reason != "wall")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = _descent_digests(pathlib.Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
