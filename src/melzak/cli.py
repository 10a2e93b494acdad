"""Command-line front end for the geometry, audit and optimization layers.

Every command prints with fixed 12-significant-digit formatting (rates of
m in JSON follow ``config.json_rate``) and all randomized paths take
explicit seeds, so identical invocations produce byte-identical output.
Exit codes: 0 success, 1 usage error, 2 geometric or validation failure.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import sys

from .criteria import audit
from .errors import GeometryError
from .offio import read_off, write_off
from .optimize import OptimizeOptions, local_optimize, minimizing_sequence
from .perturbations import Perturbation, derivatives, with_fd
from .polyhedron import edge_length, melzak_ratio, volume
from .shapes import canonical
from .wedges import check_scan_args, cleancond_scan


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# --shape name -> (shapes.canonical name, its parameters in spec order)
_SHAPES = {
    "cube": ("cube", ()),
    "tetra": ("regular_tetrahedron", ()),
    "prism": ("optimal_prism", ()),
    "pyramid": ("ngon_pyramid", ("n", "base_radius", "height")),
    "box": ("box", ("a", "b", "c")),
}


def _shape_from_spec(spec: str):
    """The body of a --shape spec, name[:p1,p2,...], built by canonical."""
    name, _, params = spec.partition(":")
    if name not in _SHAPES:
        raise GeometryError(f"unknown shape {spec!r}")
    shape, keys = _SHAPES[name]
    values = params.split(",") if params else []
    if len(values) != len(keys):
        raise GeometryError(f"{name} takes {','.join(keys) or 'no parameters'}")
    return canonical(shape, **dict(zip(keys, values)))


def _cmd_build(args) -> int:
    P = _shape_from_spec(args.shape)
    write_off(args.out, P)
    print(f"wrote {P.n_vertices} vertices, {P.n_faces} faces to {args.out}")
    return 0


def _cmd_ratio(args) -> int:
    P = read_off(args.mesh)
    print(f"e = {_fmt(edge_length(P))}")
    print(f"v = {_fmt(volume(P))}")
    print(f"m = {_fmt(melzak_ratio(P))}")
    return 0


def _cmd_audit(args) -> int:
    P = read_off(args.mesh)
    report = audit(P, mode=args.mode, B=args.bound)
    for v in report.verdicts:
        if not v.applicable:
            state = "not-applicable"
        else:
            state = "pass" if v.passed else "fail"
        print(f"{v.criterion_id}: {state} ({len(v.witnesses)} witnesses)")
    print(f"is_candidate_minimizer: {str(report.is_candidate_minimizer).lower()}")
    for note in report.notes:
        print(f"note: {note}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return 0


_KIND = {"translate": "face_translate", "hinge": "face_hinge",
         "truncate": "vertex_truncate"}


def _cmd_perturb(args) -> int:
    P = read_off(args.mesh)
    if args.kind == "hinge" and args.edge is None:
        raise GeometryError("hinge perturbations need --edge")
    pert = Perturbation(_KIND[args.kind], args.target, args.dir, args.edge)
    rep = derivatives(P, pert)
    if args.fd:
        rep = with_fd(rep, P)
    print(f"perturbation = {rep.perturbation.label()}")
    for key in ("E0", "V0", "M0", "dE", "dV", "dM"):
        print(f"{key} = {_fmt(getattr(rep, key))}")
    if rep.fd_step is not None:
        print(f"fd_step = {_fmt(rep.fd_step)}")
        for key in ("fd_dE", "fd_dV", "fd_dM"):
            print(f"{key} = {_fmt(getattr(rep, key))}")
    return 0


def _cmd_optimize(args) -> int:
    P = read_off(args.mesh)
    opts = OptimizeOptions(max_iters=args.iters, grad_tol=args.tol)
    res = local_optimize(P, opts)
    write_off(args.out, res.polyhedron)
    print(f"m = {_fmt(res.ratio)}")
    print(f"iterations = {res.iterations}")
    print(f"converged = {str(res.converged).lower()}")
    print(f"combinatorics_changed = {str(res.combinatorics_changed).lower()}")
    print(f"stop_reason = {res.stop_reason}")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("iter,ratio\n")
            for i, m in res.trace:
                fh.write(f"{i},{_fmt(m)}\n")
    return 0


def _cmd_sequence(args) -> int:
    steps = minimizing_sequence(args.max_faces)
    print("faces best_type ratio carried tie")
    for s in steps:
        print(f"{s.faces} {s.best_name} {_fmt(s.best.ratio)} "
              f"{str(s.carried).lower()} {str(s.tie).lower()}")
    for s in steps:
        for run in s.per_type:
            print(f"type {run.name} faces={run.faces} method={run.method} "
                  f"stop={run.result.stop_reason} m={_fmt(run.result.ratio)}")
    return 0


def _cmd_quad_scan(args) -> int:
    # check the inputs, then open --json, so neither fails after the scan
    check_scan_args(args.samples, args.seed, args.tol)
    with (open(args.json, "w", encoding="utf-8") if args.json
          else contextlib.nullcontext()) as out:
        report = cleancond_scan(args.samples, args.seed, args.tol)
        if out:
            out.write(report.to_json() + "\n")
    print(f"samples = {report.samples}")
    print(f"solutions = {len(report.solutions)}")
    counter = report.counterexamples(args.tol)
    print(f"counterexamples = {len(counter)}")
    inside = sum(1 for s in report.solutions if s.origin_inside)
    print(f"origin_inside = {inside}")
    acute = sum(1 for s in report.solutions if s.two_adjacent_acute)
    print(f"two_adjacent_acute = {acute}")
    if report.solutions:
        print(f"max_maxF = {_fmt(max(s.maxF for s in report.solutions))}")
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first ``main`` call and reused after it."""
    ap = _Parser(prog="melzak", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write a canonical shape as OFF")
    p.add_argument("--shape", required=True,
                   help="cube|tetra|prism|pyramid:n,r,h|box:a,b,c")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("ratio", help="print e, v and m of a mesh")
    p.add_argument("mesh")
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("audit", help="run the minimizer criteria")
    p.add_argument("mesh")
    p.add_argument("--mode", choices=("any", "candidate"), default="any")
    p.add_argument("--bound", type=float, default=None,
                   help="edge-length bound for the dihedral criterion")
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("perturb", help="first-order derivative report")
    p.add_argument("mesh")
    p.add_argument("--kind", choices=tuple(_KIND), required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--edge", type=int, default=None)
    p.add_argument("--dir", choices=("out", "in"), default="out")
    p.add_argument("--fd", action="store_true")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("optimize", help="fixed-combinatorics ratio descent")
    p.add_argument("mesh")
    p.add_argument("--iters", type=int, default=OptimizeOptions.max_iters)
    p.add_argument("--tol", type=float, default=OptimizeOptions.grad_tol)
    p.add_argument("--trace", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sequence", help="best ratio per face count")
    p.add_argument("--max-faces", type=int, required=True)
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("quad-scan", help="planar chain-condition scan")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_quad_scan)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
