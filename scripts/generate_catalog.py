#!/usr/bin/env python3
"""Regenerate the combinatorial-type catalog shipped with the package.

Simple types with four to eight faces are collected by slicing already
found types with random separating planes (the reverse of an edge
contraction in the dual triangulation) and by sampling random bounded
intersections outright. ``Polyhedron.type_key`` dedups the finds and
orders the types that share a face-degree list (``_a``, ``_b``, ...), and
the run aborts unless the per-count totals match the known enumeration
1, 1, 2, 5, 14. Regular pyramids at their closed-form optimum
(``optimal_pyramid``) are appended as the named non-simple family used by
the sequence driver.

Usage: PYTHONPATH=src python3 scripts/generate_catalog.py [--out PATH]
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from melzak.errors import GeometryError
from melzak.optimize import EXPECTED_SIMPLE_COUNTS
from melzak.polyhedron import HalfSpace, Polyhedron, from_halfspaces
from melzak.shapes import (cube, optimal_prism, optimal_pyramid, random_convex,
                           regular_tetrahedron)

SEED = 20240801   # the random search that found the shipped catalog


def is_simple(P: Polyhedron) -> bool:
    return all(P.vertex_degree(v) == 3 for v in range(P.n_vertices))


def random_cuts(P: Polyhedron, rng: np.random.Generator, tries: int):
    """Slice off vertex sets with random planes, yielding one-more-face hulls."""
    diam = P.diameter()
    for _ in range(tries):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        t = np.sort(P.vertices @ n)
        r = int(rng.integers(1, len(t)))
        if t[r] - t[r - 1] < 1e-5 * diam:
            continue
        frac = rng.uniform(0.35, 0.65)
        off = t[r - 1] + frac * (t[r] - t[r - 1])
        try:
            Q = from_halfspaces(list(P.halfspaces) + [HalfSpace(n, float(off))])
        except GeometryError:
            continue
        if Q.n_faces == P.n_faces + 1:
            yield Q


def canonical_rep(P: Polyhedron) -> Polyhedron:
    """Centered, diameter-two, rounded representative that still rebuilds."""
    c = P.vertices.mean(axis=0)
    s = 2.0 / P.diameter()
    hs = [HalfSpace(h.normal, s * (h.offset - float(h.normal @ c)))
          for h in P.halfspaces]
    rows = np.round([[*h.normal, h.offset] for h in hs], 12)
    Q = from_halfspaces([HalfSpace(r[:3], r[3]) for r in rows])
    if Q.type_key() != P.type_key():
        raise GeometryError("rounded representative changed type")
    return Q


def find_simple_types() -> dict:
    rng = np.random.default_rng(SEED)
    found = {4: [regular_tetrahedron()]}
    for k in range(5, 9):
        want = EXPECTED_SIMPLE_COUNTS[k]
        types: dict = {}      # type key -> first find, in order of discovery

        def register(Q: Polyhedron) -> None:
            if is_simple(Q) and Q.n_faces == k:
                types.setdefault(Q.type_key(), Q)

        if k == 5:
            register(optimal_prism())
        if k == 6:
            register(cube())

        rounds = 0
        while len(types) < want and rounds < 400:
            rounds += 1
            for parent in found[k - 1]:
                for Q in random_cuts(parent, rng, tries=30):
                    register(Q)
            for _ in range(10):
                try:
                    register(random_convex(rng, n_faces=k))
                except GeometryError:
                    pass
        if len(types) != want:
            raise SystemExit(f"found {len(types)} simple types with {k} faces, "
                             f"expected {want}; raise the budget")
        found[k] = list(types.values())
        print(f"faces={k}: {len(types)} simple types after {rounds} rounds")
    return found


KNOWN_NAMES = {
    (4, "simple"): ["tetrahedron"],
    (5, "simple"): ["triangular_prism"],
}
PYRAMID_NAMES = {4: "square_pyramid", 5: "pentagonal_pyramid",
                 6: "hexagonal_pyramid", 7: "heptagonal_pyramid"}


def name_types(k: int, reps: list) -> list:
    fixed = KNOWN_NAMES.get((k, "simple"), [])
    ordered = sorted(
        (("".join(str(d) for d in sorted(len(c) for c in P.faces)), P.type_key(), P)
         for P in reps), key=lambda t: t[:2])
    named = []
    used: dict = {}
    for i, (degs, _, P) in enumerate(ordered):
        if i < len(fixed):
            name = fixed[i]
        elif k == 6 and degs == "444444":
            name = "cube"
        else:
            idx = used.get(degs, 0)
            used[degs] = idx + 1
            name = f"simple{k}f_{degs}_{chr(ord('a') + idx)}"
        named.append((name, P))
    return named


def entry_for(name: str, P: Polyhedron, pyramid_base: int = 0) -> dict:
    return {
        "name": name,
        "pyramid_base": pyramid_base,
        "halfspaces": [[*map(float, np.round(h.normal, 12)), float(round(h.offset, 12))]
                       for h in P.halfspaces],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_out = Path(__file__).resolve().parent.parent / "src/melzak/data/polytope_types.json"
    ap.add_argument("--out", type=Path, default=default_out)
    args = ap.parse_args(argv)

    found = find_simple_types()
    entries = []
    for k in range(4, 9):
        for name, P in name_types(k, found[k]):
            entries.append(entry_for(name, canonical_rep(P)))
        if k >= 5:
            n = k - 1
            entries.append(entry_for(PYRAMID_NAMES[n], canonical_rep(optimal_pyramid(n)),
                                     pyramid_base=n))
    entries.sort(key=lambda e: (len(e["halfspaces"]), e["pyramid_base"] > 0, e["name"]))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"description": "combinatorial types of bounded intersections with 4..8 faces; "
                        "simple types complete per the standard enumeration, regular "
                        "pyramids included as the named non-simple family",
         "types": entries}, indent=1) + "\n")
    print(f"wrote {len(entries)} types to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
