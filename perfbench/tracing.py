"""Spans recorded from outside the program, and the per-layer metrics.

``Tracer.install`` replaces each traced function with a timing wrapper on
every melzak module attribute that binds it, so calls made through module
globals (``melzak.optimize.from_halfspaces``, ``melzak.perturbations.exposure``)
are counted as well as calls through the defining module. A span is
``[name, start, end, parent span, item id, info, returned]``; spans stay
in memory until the run ends. Wrappers record nothing while no item is active, so the
output checks that run after the timed pass do not show up in the trace.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

# layer -> (defining module, traced functions)
LAYERS = {
    "polyhedron": ("melzak.polyhedron", ("from_halfspaces", "volume", "edge_length", "validate")),
    "optimize": ("melzak.optimize", ("local_optimize", "criticality_report")),
    "shapes": ("melzak.shapes", ("ngon_pyramid",)),
    "gauss": ("melzak.gauss", ("exposure", "dihedral_angle", "gauss_image",
                               "spherical_incircle", "angle_deficit")),
    "perturbations": ("melzak.perturbations", ("face_translate_derivatives",
                                               "face_hinge_derivatives",
                                               "vertex_truncate_derivatives", "derivatives")),
    "criteria": ("melzak.criteria", ("audit", "check_vertex_degree", "check_vertex_curvature",
                                     "check_triangle_deficit", "check_dihedral")),
    "wedges": ("melzak.wedges", ("cleancond_scan", "pyramid_F")),
    "cli": ("melzak.cli", ("main",)),
    "offio": ("melzak.offio", ("read_off", "write_off")),
}

REPORT_KINDS = ("face_translate_derivatives", "face_hinge_derivatives",
                "vertex_truncate_derivatives")
SMALL_BUILD = 8  # planes; builds up to this size are the descent's rebuilds

# Layers a workload never reaches; every metric under these prefixes must be 0.
BYPASSED = {
    "descent": ("gauss.", "perturbations.", "criteria.", "wedges."),
    "audit": ("optimize.local_optimize.", "optimize.rebuilds_per_iter", "wedges."),
    "quadscan": ("polyhedron.", "gauss.", "perturbations.", "criteria.", "optimize."),
}


def _info(name, args, kwargs, result):
    """Per-call facts the metrics need, taken from arguments and results."""
    if name == "local_optimize":
        return (result.iterations, result.converged, result.combinatorics_changed)
    if name == "criticality_report":
        P = args[0]
        return (len(result.entries), 2 * P.n_faces + 4 * P.n_edges + P.n_vertices, P.n_faces)
    if name == "exposure":
        return (id(args[0]), args[1])
    if name == "cleancond_scan":
        return args[0] if args else kwargs["samples"]
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None, False]
            if name == "from_halfspaces":
                args = (list(args[0]),) + args[1:]
                span[5] = len(args[0])
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name != "from_halfspaces":
                span[5] = _info(name, args, kwargs, result)
            span[6] = True
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k.startswith("melzak") and m]
        for defining, names in LAYERS.values():
            for name in names:
                original = getattr(sys.modules[defining], name)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    if mod.__dict__.get(name) is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:5] + [s[6]]) + "\n")


def span_cost(calls: int = 20000, blocks: int = 7) -> float:
    """Seconds one span adds to a call: a traced no-op against a bare one.

    The median over blocks; each block times the two back to back, so a
    slow spell of the machine falls on both.
    """
    def noop():
        return None

    probe = Tracer()
    probe.item = 0
    traced = probe._wrap("noop", noop)
    costs = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        probe.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def layer_metrics(spans, cost: float, traced_wall: float) -> dict:
    """Every per-layer metric as name -> (value, unit); absent work reads 0.

    The tracing overhead is ``cost`` (seconds per span) times the spans
    recorded, and its share is of the traced wall time less that overhead.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    fails = defaultdict(int)
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        total[s[0]] += dur[i]
        self_s[s[0]] += dur[i] - child[i]
        fails[s[0]] += not s[6]

    def ratio(a, b):
        return a / b if b else 0.0

    builds = [(i, s) for i, s in enumerate(spans) if s[0] == "from_halfspaces"]
    opt = [s for s in spans if s[0] == "local_optimize" and s[6]]
    iters = sum(s[5][0] for s in opt)
    rebuilds = sum(1 for _, s in builds if s[3] >= 0 and spans[s[3]][0] == "local_optimize")
    crit = [s for s in spans if s[0] == "criticality_report" and s[6]]
    exposure_keys = {(s[4],) + s[5] for s in spans if s[0] == "exposure" and s[6]}
    reports = sum(calls[k] for k in REPORT_KINDS)
    report_volumes = sum(1 for s in spans
                         if s[0] == "volume" and s[3] >= 0 and spans[s[3]][0] in REPORT_KINDS)
    samples = sum(s[5] for s in spans if s[0] == "cleancond_scan" and s[6])

    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    put("polyhedron.from_halfspaces.calls", calls["from_halfspaces"], "count")
    put("polyhedron.from_halfspaces.fail", fails["from_halfspaces"], "count")
    put("polyhedron.from_halfspaces.small.s",
        sum(dur[i] for i, s in builds if s[5] <= SMALL_BUILD), "s")
    put("polyhedron.from_halfspaces.large.s",
        sum(dur[i] for i, s in builds if s[5] > SMALL_BUILD), "s")
    put("polyhedron.volume.calls", calls["volume"], "count")
    put("polyhedron.edge_length.calls", calls["edge_length"], "count")
    put("polyhedron.validate.s", total["validate"], "s")
    put("optimize.local_optimize.calls", calls["local_optimize"], "count")
    put("optimize.local_optimize.self_s", self_s["local_optimize"], "s")
    put("optimize.local_optimize.iterations", iters, "count")
    put("optimize.local_optimize.converged", sum(s[5][1] for s in opt), "count")
    put("optimize.local_optimize.stalled", sum(s[5][2] for s in opt), "count")
    put("optimize.local_optimize.s_per_iter", ratio(total["local_optimize"], iters), "s")
    put("optimize.rebuilds_per_iter", ratio(rebuilds, iters), "ratio")
    put("optimize.criticality_report.calls", calls["criticality_report"], "count")
    put("optimize.criticality_report.self_s", self_s["criticality_report"], "s")
    put("optimize.criticality_report.entries", sum(s[5][0] for s in crit), "count")
    put("optimize.criticality_report.skipped", sum(s[5][1] - s[5][0] for s in crit), "count")
    put("shapes.ngon_pyramid.calls", calls["ngon_pyramid"], "count")
    put("shapes.ngon_pyramid.s", total["ngon_pyramid"], "s")
    put("gauss.exposure.calls", calls["exposure"], "count")
    put("gauss.exposure.s", total["exposure"], "s")
    put("gauss.exposure.unique_frac", ratio(len(exposure_keys), calls["exposure"]), "ratio")
    put("gauss.dihedral_angle.calls", calls["dihedral_angle"], "count")
    put("gauss.dihedral_angle.s", total["dihedral_angle"], "s")
    for name in ("gauss_image", "spherical_incircle", "angle_deficit"):
        put(f"gauss.{name}.s", total[name], "s")
    for name in REPORT_KINDS + ("derivatives",):
        put(f"perturbations.{name}.calls", calls[name], "count")
        put(f"perturbations.{name}.s", total[name], "s")
    put("perturbations.derivatives.fail", fails["derivatives"], "count")
    put("perturbations.volume_per_report", ratio(report_volumes, reports), "ratio")
    put("criteria.audit.self_s", self_s["audit"], "s")
    for name in ("check_vertex_degree", "check_vertex_curvature", "check_triangle_deficit",
                 "check_dihedral"):
        put(f"criteria.{name}.s", total[name], "s")
    put("wedges.cleancond_scan.s", total["cleancond_scan"], "s")
    put("wedges.cleancond_scan.samples_per_s", ratio(samples, total["cleancond_scan"]), "1/s")
    put("wedges.pyramid_F.calls", calls["pyramid_F"], "count")
    put("cli.main.self_s", self_s["main"], "s")
    put("offio.read_off.s", total["read_off"], "s")
    put("offio.write_off.s", total["write_off"], "s")
    put("trace.spans", len(spans), "count")
    overhead_s = cost * len(spans)
    put("trace.overhead_s", overhead_s, "s")
    put("trace.overhead_frac", ratio(overhead_s, traced_wall - overhead_s), "ratio")
    return m


def leaks(workload: str, metrics: dict) -> list:
    """Metrics of a layer the workload should bypass that are not 0."""
    prefixes = BYPASSED[workload]
    return [f"{name} = {value!r} on {workload}, expected 0"
            for name, (value, _) in metrics.items()
            if name.startswith(prefixes) and value != 0.0]


def baseline_sizes(spans) -> dict:
    """Per-call times at the sizes of the roadmap's baseline table."""
    out = {}
    for planes in (5, 20, 60, 100):
        ds = [s[2] - s[1] for s in spans
              if s[0] == "from_halfspaces" and s[6] and s[5] == planes and s[3] < 0]
        if ds:
            out[f"from_halfspaces.{planes}planes.mean_s"] = sum(ds) / len(ds)
    ds = [s[2] - s[1] for s in spans if s[0] == "criticality_report" and s[6] and s[5][2] == 20]
    if ds:
        out["criticality_report.20faces.mean_s"] = sum(ds) / len(ds)
    scans = [s for s in spans if s[0] == "cleancond_scan" and s[6]]
    if scans:
        out["cleancond_scan.ms_per_sample"] = (
            1e3 * sum(s[2] - s[1] for s in scans) / sum(s[5] for s in scans))
    return out
