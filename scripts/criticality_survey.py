#!/usr/bin/env python3
"""Survey first-order criticality across the shipped combinatorial catalog.

The survey reads the sweep's per-type results (``minimizing_sequence(8)``):
each simple catalog type descended once from its catalog start, and each
pyramid type at its closed-form optimum ``optimal_pyramid(n)``. Every
elementary perturbation rate (face translations, face hinges, vertex
truncations) is then evaluated there. A clean local minimizer shows a
non-negative worst rate up to tolerance; a converged optimum with a
decisively negative rate names the escape direction that the within-type
descent cannot take, picked among the rates by ``pick_witness``, the tie
rule the audit picks its witnesses by. A descent that did not converge is
reported by its stop reason, since a negative rate there shows only an
unfinished descent. A descent error ends the survey, as it ends ``melzak
sequence``.

Usage: PYTHONPATH=src python3 scripts/criticality_survey.py [--tol T] [--json PATH]
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

from melzak import criticality_report, minimizing_sequence
from melzak.config import json_float
from melzak.criteria import pick_witness


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tol", type=float, default=1e-6)
    ap.add_argument("--json", type=Path, default=None)
    args = ap.parse_args(argv)

    rows = []
    for run in (run for step in minimizing_sequence(8) for run in step.per_type):
        res = run.result
        rep = criticality_report(res.polyhedron, tol=args.tol)
        verdict = ("critical" if rep.is_critical
                   else f"escape {pick_witness(rep.entries)}" if res.converged
                   else f"{res.stop_reason} after {res.iterations} iterations")
        print(f"{run.name:24s} faces={run.faces} ratio={res.ratio:14.6f} "
              f"min_dM={rep.minimum:+.3e}  {verdict}")
        rows.append({"name": run.name, "faces": run.faces,
                     "ratio": json_float(res.ratio),
                     "converged": res.converged,
                     "stop_reason": res.stop_reason,
                     "criticality": rep.to_dict()})

    critical = sum(r["criticality"]["is_critical"] for r in rows)
    print(f"{critical}/{len(rows)} locally critical at tol {args.tol:g}")
    if args.json is not None:
        args.json.write_text(json.dumps({"tol": args.tol, "types": rows},
                                        indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
