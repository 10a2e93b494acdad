#!/usr/bin/env python3
"""Survey first-order criticality across the shipped combinatorial catalog.

Each simple catalog start is descended to its local optimum, and each
pyramid type is taken at its closed-form optimum ``optimal_pyramid(n)``,
as the sweep does. Every elementary perturbation rate (face translations,
face hinges, vertex truncations) is then evaluated there. A clean local
minimizer shows a non-negative worst rate up to tolerance; a converged
optimum with a decisively negative rate names the escape direction that
the within-type descent cannot take. A descent that did not converge is
reported by its stop reason, since a negative rate there shows only an
unfinished descent.

Usage: PYTHONPATH=src python3 scripts/criticality_survey.py [--tol T] [--json PATH]
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

from melzak import (OptimizeResult, criticality_report, load_catalog, local_optimize,
                    melzak_ratio, optimal_pyramid)
from melzak.errors import GeometryError


def _optimum(t) -> OptimizeResult:
    if t.pyramid_base:
        P = optimal_pyramid(t.pyramid_base)
        m = melzak_ratio(P)
        return OptimizeResult(P, m, 0, ((0, m),), "closed_form")
    return local_optimize(t.build())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tol", type=float, default=1e-6)
    ap.add_argument("--json", type=Path, default=None)
    args = ap.parse_args(argv)

    rows = []
    for t in load_catalog():
        try:
            res = _optimum(t)
            rep = criticality_report(res.polyhedron, tol=args.tol)
        except GeometryError as exc:
            print(f"{t.name:24s} skipped: {exc}")
            continue
        worst = min(rep.entries, key=rep.entries.get)
        verdict = ("critical" if rep.is_critical else f"escape {worst}" if res.converged
                   else f"{res.stop_reason} after {res.iterations} iterations")
        print(f"{t.name:24s} faces={t.faces} ratio={res.ratio:14.6f} "
              f"min_dM={rep.minimum:+.3e}  {verdict}")
        rows.append({"name": t.name, "faces": t.faces,
                     "ratio": float(f"{res.ratio:.12g}"),
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
