"""Release gate: nine checks, each printing one PASS/FAIL line.

Every tolerance is pinned here rather than imported so a regression in the
library cannot silently relax the gate. Print lines are visible with -s;
the assertions carry the same conditions either way.
"""

import io
import math
import re
from contextlib import redirect_stdout
from time import perf_counter

import numpy as np
from scipy.spatial import ConvexHull

from conftest import hull_polyhedron, octahedron
from melzak import (
    HalfSpace,
    cube,
    from_halfspaces,
    melzak_ratio,
    ngon_pyramid,
    optimal_prism,
    random_convex,
    regular_tetrahedron,
    volume,
)
from melzak.cli import main as cli_main
from melzak.criteria import audit
from melzak.errors import GeometryError
from melzak.gauss import (
    EXPOSED,
    angle_deficit,
    dihedral_angle,
    exposure,
    gauss_image,
    incircle_area_bounds,
    spherical_area,
    spherical_incircle,
)
from melzak.optimize import local_optimize
from melzak.perturbations import (
    Perturbation,
    derivatives,
    face_hinge_derivatives,
    face_translate_derivatives,
    finite_difference_check,
)
from melzak.wedges import (
    PyramidQuad,
    cleancond_scan,
    is_good_wedge,
    protruding_wedge,
    pyramid_F,
    rectangle_deviation,
    wedge_R,
)

EDGE_EXACT = 2 ** (2 / 3) * 3 ** (11 / 6)
RATIO_TETRA = 1296 * math.sqrt(2)
RATIO_PRISM = 4 * 3 ** 5.5


def finish(label, checks):
    ok = all(bool(v) for _, v in checks)
    print(f"{label} {'PASS' if ok else 'FAIL'}")
    failed = [name for name, v in checks if not bool(v)]
    assert not failed, f"{label} failed: {failed}"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def random_tetra(rng, max_cond=None):
    """Tetrahedron over four normal points; optional conditioning gate.

    The gate keeps e^3/v^2 small enough that the exact cancellation in dM
    stays certifiable in doubles; the identity itself holds for every
    tetrahedron.
    """
    while True:
        pts = rng.normal(size=(4, 3))
        if ConvexHull(pts).volume < (0.3 if max_cond else 0.1):
            continue
        T = hull_polyhedron(pts)
        if max_cond is None or melzak_ratio(T) / volume(T) < max_cond:
            return T


# ---------------------------------------------------------------------------
# 1. reference shape reproduces the conjectured-optimal values
# ---------------------------------------------------------------------------

def test_ac1_prism_reference_values(tmp_path):
    t0 = perf_counter()
    path = tmp_path / "prism.off"
    code_b, _ = run_cli("build", "--shape", "prism", "--out", str(path))
    code_r, out = run_cli("ratio", str(path))
    elapsed = perf_counter() - t0
    got = dict(line.split(" = ") for line in out.splitlines())
    e, m = float(got["e"]), float(got["m"])
    finish("AC1", [
        ("build exit 0", code_b == 0),
        ("ratio exit 0", code_r == 0),
        ("edge length within 1e-9 relative", abs(e - EDGE_EXACT) <= 1e-9 * EDGE_EXACT),
        ("ratio within 1e-9 relative", abs(m - RATIO_PRISM) <= 1e-9 * RATIO_PRISM),
        ("runtime under 1 s", elapsed < 1.0),
    ])


# ---------------------------------------------------------------------------
# 2. descent from random tetrahedra reaches the regular one
# ---------------------------------------------------------------------------

def test_ac2_tetrahedron_descent():
    rng = np.random.default_rng(2024)
    t0 = perf_counter()
    worst = 0.0
    for _ in range(20):
        res = local_optimize(random_tetra(rng))
        worst = max(worst, abs(res.ratio - RATIO_TETRA) / RATIO_TETRA)
    elapsed = perf_counter() - t0
    finish("AC2", [
        ("20 starts within 1e-6 relative", worst <= 1e-6),
        ("runtime under 30 s", elapsed < 30.0),
    ])


# ---------------------------------------------------------------------------
# 3. the face-count sequence through five faces
# ---------------------------------------------------------------------------

def test_ac3_minimizing_sequence():
    t0 = perf_counter()
    code, out = run_cli("sequence", "--max-faces", "5")
    elapsed = perf_counter() - t0
    lines = out.splitlines()
    rows = [l.split() for l in lines[1:3]]
    ratios = [float(r[2]) for r in rows]
    per_type = {l.split()[1]: float(l.split()[-1].split("=")[1])
                for l in lines if l.startswith("type ")}
    finish("AC3", [
        ("exit 0", code == 0),
        ("four faces give the regular tetrahedron value",
         rows[0][1] == "tetrahedron"
         and abs(ratios[0] - RATIO_TETRA) <= 1e-6 * RATIO_TETRA),
        ("five faces give the prism value",
         rows[1][1] == "triangular_prism"
         and abs(ratios[1] - RATIO_PRISM) <= 1e-6 * RATIO_PRISM),
        ("prism beats the square pyramid",
         per_type["triangular_prism"] < per_type["square_pyramid"]),
        ("monotone nonincreasing", ratios[1] <= ratios[0] + 1e-12),
        ("runtime under 2 min", elapsed < 120.0),
    ])


# ---------------------------------------------------------------------------
# 4. derivative oracle: finite differences converge at first order
# ---------------------------------------------------------------------------

def _conditioned_host(rng):
    # spikes from clustered normals put the FD sweep outside its asymptotic
    # regime, so hosts are resampled until features are resolvable
    while True:
        P = random_convex(rng)
        if P.diameter() > 4.0:
            continue
        shortest = min(np.linalg.norm(P.vertices[i] - P.vertices[j])
                       for i, j in P.edges)
        if shortest > 1e-2 * P.diameter():
            return P


def _conditioned_pert(P, rng, kind):
    for _ in range(80):
        if kind == "face_translate":
            pert = Perturbation(kind, int(rng.integers(P.n_faces)),
                                "out" if rng.random() < 0.5 else "in")
        elif kind == "face_hinge":
            f = int(rng.integers(P.n_faces))
            cyc = P.faces[f]
            t = int(rng.integers(len(cyc)))
            e = P.edge_index(cyc[t], cyc[(t + 1) % len(cyc)])
            pert = Perturbation(kind, f, "out" if rng.random() < 0.5 else "in", e)
        else:
            pert = Perturbation(kind, int(rng.integers(P.n_vertices)))
        r = derivatives(P, pert)
        if max(abs(r.dE), abs(r.dV)) > 1e3:
            continue
        try:
            return pert, r, finite_difference_check(P, pert)
        except GeometryError:
            continue
    raise AssertionError("no conditioned perturbation found")


def test_ac4_fd_convergence():
    rng = np.random.default_rng(505)
    slopes_ok = True
    bound_ok = True
    measured = 0
    for _ in range(20):
        P = _conditioned_host(rng)
        diam = P.diameter()
        for kind in ("face_translate", "face_hinge", "vertex_truncate"):
            pert, r, fd = _conditioned_pert(P, rng, kind)
            hs = sorted(fd, reverse=True)
            errs = [abs(fd[h][0] - r.dE) + abs(fd[h][1] - r.dV) for h in hs]
            scale = max(1.0, abs(r.dE), abs(r.dV))
            bound_ok &= all(err <= 50.0 * (h / diam) * scale
                            for err, h in zip(errs, hs))
            if errs[-1] < 1e-8 * scale:
                continue   # already at the arithmetic noise floor
            slope = math.log(errs[0] / errs[-1]) / math.log(hs[0] / hs[-1])
            slopes_ok &= slope >= 0.9
            measured += 1

    cube_ok = all(abs(face_translate_derivatives(cube(), f, d).dM) <= 1e-8
                  for f in range(6) for d in ("out", "in"))
    rng = np.random.default_rng(808)
    tetra_worst = 0.0
    for _ in range(20):
        T = random_tetra(rng, max_cond=1e4)
        for f in range(4):
            for d in ("out", "in"):
                tetra_worst = max(tetra_worst,
                                  abs(face_translate_derivatives(T, f, d).dM))
    finish("AC4", [
        ("error bounded by 50 h over 20 hosts, 3 kinds", bound_ok),
        ("observed order at least 0.9", slopes_ok and measured >= 20),
        ("cube translation dM zero within 1e-8", cube_ok),
        ("tetra translation dM zero within 1e-10", tetra_worst <= 1e-10),
    ])


# ---------------------------------------------------------------------------
# 5. discrete curvature identities on 100 random bodies
# ---------------------------------------------------------------------------

def test_ac5_curvature_identities():
    rng = np.random.default_rng(31337)
    worst_total, worst_area, worst_side = 0.0, 0.0, 0.0
    violations = 0
    for _ in range(100):
        P = random_convex(rng)
        total = 0.0
        for v in range(P.n_vertices):
            assert exposure(P, v) == EXPOSED
            g = gauss_image(P, v)
            area = spherical_area(g)
            deficit = angle_deficit(P, v)
            total += deficit
            worst_area = max(worst_area, abs(area - deficit))
            pts = g.points
            for t, nb in enumerate(P.topology.fan(v)[1]):
                a, b = pts[t], pts[(t + 1) % len(pts)]
                arc = math.atan2(np.linalg.norm(np.cross(a, b)), float(a @ b))
                want = math.pi - dihedral_angle(P, P.edge_index(v, nb))
                worst_side = max(worst_side, abs(arc - want))
            inc = spherical_incircle(g)
            lo, hi = incircle_area_bounds(inc.radius)
            if not (lo < area + 1e-12 and area <= hi + 1e-12):
                violations += 1
        worst_total = max(worst_total, abs(total - 4 * math.pi))
    finish("AC5", [
        ("deficit sum is 4 pi within 1e-9", worst_total <= 1e-9),
        ("image area equals deficit within 1e-9", worst_area <= 1e-9),
        ("image side is pi minus dihedral within 1e-9", worst_side <= 1e-9),
        ("incircle area bounds never violated", violations == 0),
    ])


# ---------------------------------------------------------------------------
# 6. audit witnesses are sound
# ---------------------------------------------------------------------------

def test_ac6_criteria_soundness():
    from melzak.perturbations import apply

    needle = ngon_pyramid(12, 0.05, 1.0)
    trunc = apply(cube(), Perturbation("vertex_truncate", 0), 0.05)
    subjects = [(octahedron(), "candidate"), (needle, "any"), (trunc, "any")]
    witnesses_sound = True
    n_checked = 0
    for P, mode in subjects:
        for verdict in audit(P, mode=mode).verdicts:
            for w in verdict.witnesses:
                if w.perturbation is None:
                    continue
                again = derivatives(P, w.perturbation).dM
                witnesses_sound &= again < -1e-10
                witnesses_sound &= abs(again - w.dM) <= 1e-9 * max(1.0, abs(w.dM))
                n_checked += 1

    octa = audit(octahedron(), mode="candidate")
    octa_degree = next(v for v in octa.verdicts if v.criterion_id == "vertex_degree")

    needle_rep = audit(needle, mode="any")
    curv = next(v for v in needle_rep.verdicts if v.criterion_id == "vertex_curvature")
    apex = next(v for v in range(needle.n_vertices)
                if needle.vertex_degree(v) == 12)
    theta = spherical_incircle(gauss_image(needle, apex)).radius
    wit = [w for w in curv.witnesses if w.measured == 12.0]
    curvature_ok = (not curv.passed and len(wit) == 1
                    and abs(wit[0].threshold - 2 * math.pi / math.tan(theta)) <= 1e-9
                    and wit[0].measured > wit[0].threshold)

    finish("AC6", [
        ("every emitted witness re-evaluates below -1e-10",
         witnesses_sound and n_checked >= 7),
        ("octahedron fails the degree criterion", not octa_degree.passed),
        ("needle pyramid fails curvature with degree over threshold", curvature_ok),
        ("prism passes candidate mode",
         audit(optimal_prism(), mode="candidate").is_candidate_minimizer),
    ])


# ---------------------------------------------------------------------------
# 7. antisymmetry and the strict degree-4 inequality
# ---------------------------------------------------------------------------

def test_ac7_rate_structure():
    antisym = True
    rng = np.random.default_rng(7)
    hosts = [cube(), optimal_prism()]
    while len(hosts) < 6:
        P = random_convex(rng)
        if all(P.vertex_degree(v) == 3 for v in range(P.n_vertices)):
            hosts.append(P)
    for P in hosts:
        for f in range(P.n_faces):
            a = face_translate_derivatives(P, f, "out")
            b = face_translate_derivatives(P, f, "in")
            antisym &= abs(a.dE + b.dE) <= 1e-9 * max(1.0, abs(a.dE))

    strict = True
    O = octahedron()
    for f in range(O.n_faces):
        a = face_translate_derivatives(O, f, "out")
        b = face_translate_derivatives(O, f, "in")
        strict &= b.dE < -a.dE - 1e-6
    PY = ngon_pyramid(4, 1.0, 0.9)
    for f in range(PY.n_faces):
        if len(PY.faces[f]) != 3:
            continue   # laterals contain the degree-4 apex
        a = face_translate_derivatives(PY, f, "out")
        b = face_translate_derivatives(PY, f, "in")
        strict &= b.dE < -a.dE - 1e-6

    finish("AC7", [
        ("degree-3 rates antisymmetric within 1e-9", antisym),
        ("degree-4 inward strictly shorter by margin 1e-6", strict),
    ])


# ---------------------------------------------------------------------------
# 8. the planar quad layer and the seeded scan
# ---------------------------------------------------------------------------

def _rect_pyramid_host(rng):
    a, b = rng.uniform(0.8, 2.0, size=2)
    h = rng.uniform(0.8, 1.6)
    apex = np.array([rng.uniform(-0.3, 0.3) * a, rng.uniform(-0.3, 0.3) * b, h])
    corners = [np.array([sx * a / 2, sy * b / 2, 0.0])
               for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
    hs = [HalfSpace(np.array([0.0, 0.0, -1.0]), 0.0)]
    for k in range(4):
        c1, c2 = corners[k], corners[(k + 1) % 4]
        n = np.cross(c2 - c1, apex - c1)
        n = n / np.linalg.norm(n)
        if n @ c1 < 0:
            n = -n
        hs.append(HalfSpace(n, float(n @ c1)))
    hs.append(HalfSpace(np.array([0.0, 0.0, 1.0]), rng.uniform(0.35, 0.65) * h))
    return from_halfspaces(hs)


def test_ac8_quad_layer():
    q = PyramidQuad(np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=float))
    F = pyramid_F(q)
    square_ok = all(abs(f - (math.sqrt(2) - 2)) <= 1e-12 for f in F)
    lam = 3.7
    homog_ok = all(abs(a - lam * b) <= 1e-12
                   for a, b in zip(pyramid_F(PyramidQuad(q.p * lam)), F))
    th = 0.83
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    rot_ok = all(abs(a - b) <= 1e-12
                 for a, b in zip(pyramid_F(PyramidQuad(q.p @ rot.T)), F))

    rng = np.random.default_rng(606)
    n_good, signs_ok, values_ok = 0, True, True
    while n_good < 50:
        H = _rect_pyramid_host(rng)
        top = next(f for f in range(H.n_faces)
                   if H.face_normal(f)[2] > 1 - 1e-9 and len(H.faces[f]) == 4)
        W = protruding_wedge(H, top)
        if not is_good_wedge(W):
            continue
        cyc = H.faces[top]
        for t in range(4):
            e = H.edge_index(cyc[(t + 2) % 4], cyc[(t + 3) % 4])
            dE = face_hinge_derivatives(H, top, e, "out").dE
            R = wedge_R(W, t)
            signs_ok &= (R <= 0) == (dE <= 0)
            values_ok &= abs(R - dE) <= 1e-9 * max(1.0, abs(dE))
        n_good += 1

    t0 = perf_counter()
    rep = cleancond_scan(1000, seed=1)
    elapsed = perf_counter() - t0
    rep2 = cleancond_scan(1000, seed=1)
    logged_ok = all(s.residual < 1e-10 and math.isfinite(s.maxF)
                    and "maxF" in s.to_dict() for s in rep.solutions)

    finish("AC8", [
        ("unit square gives sqrt2 - 2 four times within 1e-12", square_ok),
        ("degree-1 homogeneity within 1e-12", homog_ok),
        ("rotation invariance within 1e-12", rot_ok),
        ("sign of R matches hinge rate on 50 good wedges", signs_ok),
        ("R equals hinge rate within 1e-9 max(1, |dE|) on 50 good wedges", values_ok),
        ("1000-sample scan under 60 s", elapsed < 60.0),
        ("scan is seed-deterministic", rep.to_json() == rep2.to_json()),
        ("every low-residual solution logged with max |F|",
         len(rep.solutions) > 0 and logged_ok),
    ])


# ---------------------------------------------------------------------------
# 9. global claims are out of desk scope; discrepancies are reported
# ---------------------------------------------------------------------------

def test_ac9_discrepancy_reporting():
    # the adjacent-face dihedral bound: at the prism's own edge-length bound
    # the audit must surface both published thresholds, one doubling the
    # other's argument, instead of silently picking a side
    rep = audit(optimal_prism(), mode="candidate")
    note = next((n for n in rep.notes if "doubles the argument" in n), "")
    nums = [float(x) for x in re.findall(r"0\.\d+", note)]
    # the note prints 6 significant digits, so the tan relation between the
    # two reported angles can only be checked to about 1e-7
    factor_two = (len(nums) == 2
                  and abs(math.tan(nums[1] / 2) - 2 * math.tan(nums[0] / 2)) <= 1e-7)

    # the strict rectangle gate reports its relaxed companion measure
    rng = np.random.default_rng(606)
    H = _rect_pyramid_host(rng)
    top = next(f for f in range(H.n_faces)
               if H.face_normal(f)[2] > 1 - 1e-9 and len(H.faces[f]) == 4)
    W = protruding_wedge(H, top)
    gate_ok = is_good_wedge(W) and rectangle_deviation(W) <= 1e-9

    # scan solutions carry their annotations; the library never claims more
    # than candidacy for any audited shape
    rep_scan = cleancond_scan(60, seed=1)
    annotated = all({"maxF", "two_adjacent_acute", "origin_inside"}
                    <= set(s.to_dict()) for s in rep_scan.solutions)
    candidate_only = ("is_candidate_minimizer" in audit(cube()).summary
                      and "is_minimizer" not in audit(cube()).summary)

    finish("AC9", [
        ("dihedral factor-2 disagreement reported with both values", factor_two),
        ("strict gate exposes the relaxed deviation measure", gate_ok),
        ("scan solutions carry their annotations",
         len(rep_scan.solutions) > 0 and annotated),
        ("audits claim candidacy, never minimality", candidate_only),
    ])
