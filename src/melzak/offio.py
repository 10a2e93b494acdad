"""Minimal OFF mesh reader/writer.

Parsing accepts blank lines and ``#`` comments, reports errors with line
numbers, and derives supporting halfspaces from the face cycles. Emission
prints 12 significant digits, so emit/parse round-trips preserve coordinates
to that precision.
"""
from __future__ import annotations

import numpy as np

from .errors import ParseError
from .polyhedron import HalfSpace, Polyhedron
from .vec3 import cross


def _lines_with_numbers(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_off(text: str) -> Polyhedron:
    """Parse OFF text into a Polyhedron. Each face's plane passes through
    its vertex centroid along its Newell normal, taken about that centroid;
    a face whose Newell area is below 1e-14 of its squared extent raises
    ParseError."""
    it = _lines_with_numbers(text)
    try:
        lineno, header = next(it)
    except StopIteration:
        raise ParseError("line 1: empty input")
    if header != "OFF":
        raise ParseError(f"line {lineno}: expected 'OFF' header, got {header!r}")

    try:
        lineno, counts = next(it)
    except StopIteration:
        raise ParseError("unexpected end of input: missing counts line")
    parts = counts.split()
    if len(parts) != 3:
        raise ParseError(f"line {lineno}: counts line needs 3 integers")
    try:
        nv, nf, _ne = (int(p) for p in parts)
    except ValueError:
        raise ParseError(f"line {lineno}: counts line needs 3 integers")
    if nv < 4 or nf < 4:
        raise ParseError(f"line {lineno}: need at least 4 vertices and 4 faces")

    verts = np.zeros((nv, 3))
    vert_lines = []
    for k in range(nv):
        try:
            lineno, line = next(it)
        except StopIteration:
            raise ParseError(f"unexpected end of input: vertex {k} missing")
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: vertex needs 3 coordinates")
        try:
            verts[k] = [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"line {lineno}: bad float in vertex")
        vert_lines.append(lineno)
    finite = np.isfinite(verts).all(axis=1)
    if not finite.all():
        raise ParseError(f"line {vert_lines[finite.argmin()]}: vertex coordinate is not finite")

    faces = []
    for k in range(nf):
        try:
            lineno, line = next(it)
        except StopIteration:
            raise ParseError(f"unexpected end of input: face {k} missing")
        parts = line.split()
        try:
            vals = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"line {lineno}: bad integer in face")
        if not vals or vals[0] != len(vals) - 1:
            raise ParseError(f"line {lineno}: face count prefix mismatch")
        cyc = vals[1:]
        if len(cyc) < 3:
            raise ParseError(f"line {lineno}: face needs at least 3 vertices")
        if any(i < 0 or i >= nv for i in cyc):
            raise ParseError(f"line {lineno}: vertex index out of range")
        if len(set(cyc)) != len(cyc):
            raise ParseError(f"line {lineno}: repeated vertex in face")
        faces.append(tuple(cyc))

    halfspaces = []
    for cyc in faces:
        pts = verts[list(cyc)]
        c = pts.mean(axis=0)
        rel = pts - c
        # Newell normal about the face centroid: robust to slight
        # non-planarity, and as exact far from the origin as near it
        nrm = np.zeros(3)
        for t in range(len(rel)):
            nrm += cross(rel[t], rel[(t + 1) % len(rel)])
        norm = np.linalg.norm(nrm)
        if norm <= 1e-14 * float((rel * rel).sum(axis=1).max()):
            raise ParseError("degenerate face with zero area")
        nrm /= norm
        halfspaces.append(HalfSpace(nrm, float(nrm @ c)))

    # raises NonManifold with the bad edge
    return Polyhedron(verts, tuple(faces), tuple(halfspaces))


def emit_off(P: Polyhedron) -> str:
    """Serialize to OFF with 12-significant-digit coordinates."""
    out = ["OFF", f"{P.n_vertices} {P.n_faces} {P.n_edges}"]
    for v in P.vertices:
        out.append(" ".join(f"{x:.12g}" for x in v))
    for cyc in P.faces:
        out.append(" ".join(str(x) for x in (len(cyc), *cyc)))
    return "\n".join(out) + "\n"


def read_off(path) -> Polyhedron:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_off(fh.read())


def write_off(path, P: Polyhedron) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_off(P))
