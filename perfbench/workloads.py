"""The three workloads: their items, their inputs and their output checks.

Each workload is a closed loop driven by one caller in one process: the next
item starts when the previous one returns. A run is a whole number of
rounds; every round holds the same kinds and sizes of items, and only the
seeded geometry differs between rounds and seeds. The program is reached
through module attributes at call time (``mz.cli.main``), so wrappers that
the tracer installs on those attributes see every call.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import io
import json
import math
from pathlib import Path

import numpy as np

import bodies

TETRA_RATIO = 1296.0 * math.sqrt(2.0)
PRISM_RATIO = 4.0 * 3.0 ** 5.5


# One unit of work: a label and a call that returns its output.
Item = collections.namedtuple("Item", "label call")


class ExitStatus(Exception):
    """A CLI call that exited nonzero; the item counts as failed."""


def _cli(mz, argv: list) -> str:
    """Run ``melzak <argv>`` in-process and return what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = mz.cli.main(argv)
    if rc != 0:
        raise ExitStatus(f"exit {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _printed(text: str, key: str) -> str:
    for line in text.splitlines():
        if line.startswith(key + " = "):
            return line.split(" = ", 1)[1]
    raise ValueError(f"no '{key} = ' line in output")


# -- descent ----------------------------------------------------------------

class Descent:
    """``melzak sequence`` and ``melzak optimize`` through ``cli.main``.

    A round is the face-count sweep through six faces, the catalog start
    that stalls at a wall, the ten-plane start that hits the 300-step cap,
    and ten seeded starts for each plane count from 4 to 10. The sweep and
    the two catalog-derived starts run as users run them. The seeded starts
    stop after ``start_iters`` steps where the CLI default is 300: at the
    default one start costs 0.1 to 12 s depending on the draw, so a run's
    cost would follow the seed, not the program. Short starts also give a
    run some seventy items, so the median and the tail are order statistics
    of ten starts of one size rather than of one or two. The sweep keeps its
    own default seed for the same reason: its jittered restarts make its
    cost vary 2.4x between seeds.
    """

    name = "descent"
    round_seconds = 30.0
    planes = range(4, 11)
    passes = 10
    start_iters = 6

    def inputs(self, mz, catalog, seed: int, rounds: int, work: Path) -> list:
        rng = np.random.default_rng(seed)
        stall = next(t for t in catalog if t.name == "simple6f_334455_a")
        stall_rows = np.array(stall.halfspaces, dtype=float)
        fixed = {"stall": bodies.intersect(stall_rows)[:2], "cap": bodies.cap_start()}
        for name, (verts, faces) in fixed.items():
            (work / f"{name}.off").write_text(bodies.off_text(verts, faces))
        long_items = [Item("sequence:6", functools.partial(
            _cli, mz, ["sequence", "--max-faces", "6"]))]
        long_items += [Item(f"optimize:{name}", functools.partial(
            _cli, mz, ["optimize", str(work / f"{name}.off"), "--out", str(work / "out.off")]))
            for name in fixed]
        # the long items sit between passes, spread over the round, so a
        # slow spell of the machine cannot fall on every start of one size
        after = {(k + 1) * self.passes // (len(long_items) + 1) - 1: it
                 for k, it in enumerate(long_items)}
        items = []
        for r in range(rounds):
            for p in range(self.passes):
                for m in self.planes:
                    verts, faces = bodies.random_start(rng, m)
                    path = work / f"start{r}_{p}_{m}.off"
                    path.write_text(bodies.off_text(verts, faces))
                    argv = ["optimize", str(path), "--out", str(work / "out.off"),
                            "--iters", str(self.start_iters)]
                    items.append(Item(f"optimize:start{m}", functools.partial(_cli, mz, argv)))
                if p in after:
                    items.append(after[p])
        return items

    def check(self, mz, items, outputs) -> list:
        problems = []
        for it, text in zip(items, outputs):
            if not it.label.startswith("sequence"):
                continue
            best = {}
            for line in text.splitlines()[1:]:
                parts = line.split()
                if parts[0] == "type":
                    break
                best[int(parts[0])] = float(parts[2])
            if sorted(best) != [4, 5, 6]:
                problems.append(f"{it.label}: table covers face counts {sorted(best)}")
            for faces, ratio in best.items():
                want = TETRA_RATIO if faces == 4 else PRISM_RATIO
                if abs(ratio - want) > 1e-9 * want:
                    problems.append(f"{it.label}: best ratio {ratio!r} at {faces} faces, "
                                    f"expected {want!r}")
        return problems

    def guards(self, items, outputs) -> dict:
        """Sum of ln m over every printed descent result."""
        total = 0.0
        for it, text in zip(items, outputs):
            if it.label.startswith("sequence"):
                ratios = [float(line.rsplit("m=", 1)[1]) for line in text.splitlines()
                          if line.startswith("type ")]
            else:
                ratios = [float(_printed(text, "m"))]
            total += sum(math.log(m) for m in ratios)
        return {"m_log_sum": total}


# -- audit ------------------------------------------------------------------

class Audit:
    """``from_halfspaces`` + ``audit(mode="candidate")`` + ``criticality_report``.

    One item is one body, handled as scripts/criticality_survey.py does. A
    round holds the known answers (cube, tetrahedron, prism, octahedron),
    regular pyramids up to 24 sides, and seeded bodies from 5 to 100 planes;
    the 60- and 100-plane sets carry redundant planes, so the build is large
    while the audit stays at 30 and 40 faces. The bodies that cost from 0.05
    to 0.4 s come ``passes`` times a round, each pass with fresh seeded
    geometry, and the rest once, one between two passes, so a run holds
    some ninety items. The hexagonal pyramid comes twice a pass: the median
    then falls in the middle of its sixteen copies and the tail among the
    24 octagonal pyramids, octahedra and 10-plane bodies, so each is an
    order statistic of a group of like items rather than of one or two, or
    of a boundary between two kinds of item.
    """

    name = "audit"
    round_seconds = 30.0
    known = {"cube": bodies.cube_rows, "tetrahedron": bodies.tetrahedron_rows,
             "prism": bodies.prism_rows, "octahedron": bodies.octahedron_rows}
    repeat_pyramids = (4, 6, 6, 8)
    repeat_sizes = ((5, 5), (8, 8), (10, 10))
    passes = 8
    once_pyramids = (12, 24)
    once_sizes = ((16, 16), (20, 20), (60, 30), (100, 40))

    def inputs(self, mz, catalog, seed: int, rounds: int, work: Path) -> list:
        rng = np.random.default_rng(seed)
        items = []
        for _ in range(rounds):
            once = [self._item(mz, f"pyramid{n}", bodies.pyramid_rows(n))
                    for n in self.once_pyramids]
            once += [self._item(mz, f"random{planes}p{faces}f",
                                bodies.audit_body(rng, planes, faces))
                     for planes, faces in self.once_sizes]
            for p in range(self.passes):
                for name, make in self.known.items():
                    items.append(self._item(mz, name, make()))
                for n in self.repeat_pyramids:
                    items.append(self._item(mz, f"pyramid{n}", bodies.pyramid_rows(n)))
                for planes, faces in self.repeat_sizes:
                    items.append(self._item(mz, f"random{planes}p{faces}f",
                                            bodies.audit_body(rng, planes, faces)))
                if p < len(once):
                    items.append(once[p])
        return items

    @staticmethod
    def _item(mz, label, rows):
        def call():
            P = mz.polyhedron.from_halfspaces(
                [mz.polyhedron.HalfSpace(r[:3], r[3]) for r in rows])
            return P, mz.criteria.audit(P, mode="candidate"), mz.optimize.criticality_report(P)
        return Item(label, call)

    def check(self, mz, items, outputs) -> list:
        problems = []
        margin = mz.config.DEFAULT_TOLERANCES.witness_margin
        for it, (P, rep, _) in zip(items, outputs):
            if it.label in ("cube", "tetrahedron", "prism") and not rep.is_candidate_minimizer:
                problems.append(f"{it.label}: not a candidate minimizer")
            witnesses = [w for v in rep.verdicts for w in v.witnesses]
            if it.label == "octahedron" and (rep.is_candidate_minimizer or not witnesses):
                problems.append("octahedron: passes as a candidate minimizer or has no witness")
            for w in witnesses:
                if w.perturbation is None:
                    continue
                dM = mz.perturbations.derivatives(P, w.perturbation).dM
                if not dM < -margin:
                    problems.append(f"{it.label}: witness {w.perturbation.label()} "
                                    f"recomputes to dM={dM!r}")
        return problems

    def guards(self, items, outputs) -> dict:
        """Total number of rates criticality_report returned."""
        return {"crit_entries": float(sum(len(cr.entries) for _, _, cr in outputs))}


# -- quadscan ---------------------------------------------------------------

class QuadScan:
    """``melzak quad-scan --json`` through ``cli.main`` over derived seeds.

    One call scans 200 samples, the size of the scan ROADMAP's quad-scan
    item reports on (seed 1, 200 samples); its aim 1 times 1000-sample
    scans, which would make a run one item long. The per-sample work is the
    same at either size. The scans' seeds come from the workload seed. The
    check re-runs the first call and compares the JSON byte for byte, and
    recomputes every reported solution's residual from its printed vertices
    with numpy.
    """

    name = "quadscan"
    round_seconds = 6.0
    samples = 200
    tol = 1e-10
    printed_tol = 1e-9

    def inputs(self, mz, catalog, seed: int, rounds: int, work: Path) -> list:
        seeds = np.random.default_rng(seed).integers(0, 2 ** 31 - 1, size=rounds)
        return [self._item(mz, int(s), work / f"scan{i}.json") for i, s in enumerate(seeds)]

    def _item(self, mz, scan_seed: int, path: Path):
        argv = ["quad-scan", "--samples", str(self.samples), "--seed", str(scan_seed),
                "--json", str(path)]
        return Item(f"quad-scan:{scan_seed}", lambda: (_cli(mz, argv), path))

    def check(self, mz, items, outputs) -> list:
        problems = []
        for it, (_, path) in zip(items, outputs):
            for sol in json.loads(path.read_text())["solutions"]:
                # the JSON prints vertices to 12 digits, which alone moves the
                # recomputed residual by up to a few 1e-11
                r = _chain_residual(np.array(sol["p"]).reshape(4, 2))
                if not (sol["residual"] < self.tol and r < self.printed_tol):
                    problems.append(f"{it.label}: solution residual {sol['residual']!r}, "
                                    f"recomputed {r!r}, tolerance {self.tol!r}")
        first, (text, path) = items[0], outputs[0]
        again = path.with_name("scan_again.json")
        argv = ["quad-scan", "--samples", str(self.samples),
                "--seed", first.label.split(":")[1], "--json", str(again)]
        if _cli(mz, argv) != text or again.read_bytes() != path.read_bytes():
            problems.append(f"{first.label}: a second call with the same seed differs")
        return problems

    def guards(self, items, outputs) -> dict:
        """Solutions found below the tolerance, over every call."""
        return {"scan_solutions": float(sum(int(_printed(text, "solutions"))
                                            for text, _ in outputs))}

    def details(self, items, outputs) -> dict:
        """The scan's own headline counts, unfiltered, as it prints them."""
        return {key: sum(int(_printed(text, key)) for text, _ in outputs)
                for key in ("solutions", "counterexamples", "origin_inside", "two_adjacent_acute")}


def _chain_residual(p: np.ndarray) -> float:
    """|(F1+F2, F2+F3, F3+F4)| of the flat pyramid over quad p, apex at 0."""
    F = []
    for i in range(4):
        pi = p[i]
        total = 1.0
        for j in (i + 1, i - 1):
            diff = pi - p[j % 4]
            total -= float(diff @ pi) / (np.linalg.norm(pi) * np.linalg.norm(diff))
        F.append(np.linalg.norm(pi) * total)
    return math.sqrt((F[0] + F[1]) ** 2 + (F[1] + F[2]) ** 2 + (F[2] + F[3]) ** 2)


WORKLOADS = {w.name: w for w in (Descent(), Audit(), QuadScan())}
