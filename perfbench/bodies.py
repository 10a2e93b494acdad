"""Benchmark inputs built with numpy and scipy alone.

Every body a workload feeds the program is made here from the workload seed,
so a change to the program cannot change its own inputs. Halfspace rows are
``(nx, ny, nz, offset)`` for ``{x : n.x <= offset}``; OFF text is written by
``off_text`` from a scipy halfspace intersection, not by the program's own
constructor.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError


def unit_rows(normals, offsets) -> np.ndarray:
    normals = np.asarray(normals, dtype=float)
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    return np.hstack([normals, np.asarray(offsets, dtype=float).reshape(-1, 1)])


def cube_rows() -> np.ndarray:
    return unit_rows(np.vstack([np.eye(3), -np.eye(3)]), [0.5] * 6)


def tetrahedron_rows() -> np.ndarray:
    dirs = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    return unit_rows(dirs, [1.0] * 4)


def prism_rows() -> np.ndarray:
    """Right prism over an equilateral triangle with side equal to height."""
    side = 1.0
    lateral = [[math.cos(a), math.sin(a), 0.0] for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    return unit_rows([[0, 0, 1], [0, 0, -1]] + lateral,
                     [side / 2, side / 2] + [side / (2 * math.sqrt(3.0))] * 3)


def octahedron_rows() -> np.ndarray:
    dirs = [[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    return unit_rows(dirs, [1.0] * 8)


def pyramid_rows(n: int, height: float = 1.0) -> np.ndarray:
    """Pyramid over a regular n-gon of circumradius 1, apex at (0, 0, height)."""
    inradius = math.cos(math.pi / n)
    normals, offsets = [[0.0, 0.0, -1.0]], [0.0]
    for k in range(n):
        a = 2 * math.pi * (k + 0.5) / n
        nrm = np.array([height * math.cos(a), height * math.sin(a), inradius])
        nrm /= np.linalg.norm(nrm)
        normals.append(nrm)
        offsets.append(float(nrm[:2] @ [inradius * math.cos(a), inradius * math.sin(a)]))
    return unit_rows(normals, offsets)


def _spread_normals(rng: np.random.Generator, k: int) -> np.ndarray:
    """k roughly even directions (a Fibonacci lattice), rotated and jittered."""
    i = np.arange(k) + 0.5
    z = 1.0 - 2.0 * i / k
    r = np.sqrt(1.0 - z * z)
    th = math.pi * (1.0 + math.sqrt(5.0)) * i
    pts = np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    pts = pts @ q.T + rng.normal(scale=0.3 / math.sqrt(k), size=(k, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def intersect(rows: np.ndarray):
    """(vertices, ccw face cycles, kept plane indices), or None if unbounded
    or not a closed manifold at the merge tolerance.

    Vertices are merged at 1e-9 of the body's extent and sorted
    lexicographically; planes touching fewer than three vertices are
    redundant and get no face.
    """
    N, off = rows[:, :3], rows[:, 3]
    try:
        # with the origin inside, the body is bounded iff the origin is
        # strictly inside the hull of the normals
        if (ConvexHull(N).equations[:, 3] > -1e-9).any():
            return None
        pts = HalfspaceIntersection(np.hstack([N, -off[:, None]]), np.zeros(3)).intersections
    except QhullError:
        return None
    scale = float(np.abs(pts).max())
    verts = []
    for p in pts:
        if all(np.linalg.norm(p - q) > 1e-9 * scale for q in verts):
            verts.append(p)
    verts = np.array(verts)
    verts = verts[np.lexsort((verts[:, 2], verts[:, 1], verts[:, 0]))]
    on_plane = np.abs(verts @ N.T - off) <= 1e-9 * scale
    faces, kept = [], []
    for f in range(len(rows)):
        idx = np.nonzero(on_plane[:, f])[0]
        if len(idx) < 3:
            continue
        n = N[f]
        t1 = np.cross(n, np.eye(3)[int(np.argmin(np.abs(n)))])
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(n, t1)
        rel = verts[idx] - verts[idx].mean(axis=0)
        faces.append(tuple(int(v) for v in idx[np.argsort(np.arctan2(rel @ t2, rel @ t1))]))
        kept.append(f)
    edges = {}
    for c in faces:
        for t in range(len(c)):
            key = frozenset((c[t - 1], c[t]))
            edges[key] = edges.get(key, 0) + 1
    if any(k != 2 for k in edges.values()) or len(verts) - len(edges) + len(faces) != 2:
        return None
    return verts, faces, kept


def _shortest_edge(verts: np.ndarray, faces) -> float:
    return min(float(np.linalg.norm(verts[c[t]] - verts[c[t - 1]]))
               for c in faces for t in range(len(c)))


def min_edge_fraction(verts: np.ndarray, faces) -> float:
    """Shortest edge over the largest vertex distance from the centroid."""
    return _shortest_edge(verts, faces) / float(
        np.linalg.norm(verts - verts.mean(axis=0), axis=1).max())


def off_text(verts: np.ndarray, faces) -> str:
    n_edges = sum(len(c) for c in faces) // 2
    lines = ["OFF", f"{len(verts)} {len(faces)} {n_edges}"]
    lines += [" ".join(repr(float(x)) for x in v) for v in verts]
    lines += [" ".join(str(x) for x in (len(c), *c)) for c in faces]
    return "\n".join(lines) + "\n"


def random_start(rng: np.random.Generator, m: int):
    """Well-conditioned random body with exactly m faces, as (verts, faces).

    Normals are spread evenly and jittered, offsets uniform in [0.6, 1.3];
    draws that drop a plane or carry an edge under 5% of the radius are
    redrawn from the same stream. Even normals keep a capped descent from
    stalling early, so a start's cost depends on m rather than on the draw.
    """
    while True:
        rows = unit_rows(_spread_normals(rng, m), rng.uniform(0.6, 1.3, size=m))
        body = intersect(rows)
        if body is None or len(body[1]) != m:
            continue
        if min_edge_fraction(body[0], body[1]) >= 0.05:
            return body[0], body[1]


def cap_start():
    """The ten-plane start that runs into the 300-iteration cap.

    Replays the draws of ``random_convex(np.random.default_rng(2),
    n_faces=10)``: isotropic normals, offsets in [0.6, 1.3], redrawn while
    the intersection is unbounded or an edge is under 1e-3 of the diameter.
    """
    rng = np.random.default_rng(2)
    while True:
        rows = unit_rows(rng.normal(size=(10, 3)), rng.uniform(0.6, 1.3, size=10))
        body = intersect(rows)
        if body is None:
            continue
        verts, faces, _ = body
        diam = max(float(np.linalg.norm(a - b)) for a in verts for b in verts)
        if _shortest_edge(verts, faces) >= 1e-3 * diam:
            return verts, faces


def audit_body(rng: np.random.Generator, planes: int, faces: int) -> np.ndarray:
    """``planes`` halfspace rows of which exactly ``faces`` support a face.

    The supporting planes are near-tangent to the unit sphere with evenly
    spread normals, so the face count, and with it the audit cost, does not
    drift with the seed; the remaining planes lie beyond every vertex and
    are redundant.
    """
    while True:
        rows = unit_rows(_spread_normals(rng, faces), rng.uniform(0.97, 1.03, size=faces))
        body = intersect(rows)
        if body is not None and len(body[1]) == faces:
            break
    radius = float(np.linalg.norm(body[0], axis=1).max())
    extra = planes - faces
    far = unit_rows(rng.normal(size=(extra, 3)), rng.uniform(1.5, 2.5, size=extra) * radius)
    rows = np.vstack([rows, far])
    return rows[rng.permutation(planes)]
