"""Shared builders for the test suite.

Everything here is a plain function so tests can import exactly what they
need; none of these shapes are expensive enough to cache as fixtures.
"""

import numpy as np
from scipy.spatial import ConvexHull

import melzak.perturbations
from melzak import HalfSpace, Polyhedron, from_halfspaces, ngon_pyramid
from melzak.offio import parse_off


def hull_polyhedron(points):
    """Convex hull of a point cloud as a Polyhedron, merging coplanar facets."""
    hull = ConvexHull(points)
    seen = []
    hs = []
    for eq in hull.equations:
        n, off = eq[:3], -eq[3]
        if any(np.allclose(n, m) and abs(off - o) < 1e-9 for m, o in seen):
            continue
        seen.append((n, off))
        hs.append(HalfSpace(n, off))
    return from_halfspaces(hs)


def relabelled(P, vperm, fperm, shifts):
    """P with vertex v renamed vperm[v], face f moved to slot fperm[f] and
    each face cycle started ``shifts[f]`` places later."""
    verts = np.empty_like(P.vertices)
    verts[vperm] = P.vertices
    faces = [None] * P.n_faces
    hs = [None] * P.n_faces
    for f, cyc in enumerate(P.faces):
        s = shifts[f] % len(cyc)
        faces[fperm[f]] = tuple(int(vperm[u]) for u in cyc[s:] + cyc[:s])
        hs[fperm[f]] = P.halfspaces[f]
    return Polyhedron(verts, tuple(faces), tuple(hs))


def moved(P, R, d):
    """P rotated by R about the origin, then shifted by d: vertices and
    plane offsets both, without a rebuild."""
    hs = tuple(HalfSpace(R @ h.normal, h.offset + (R @ h.normal) @ d) for h in P.halfspaces)
    return Polyhedron(P.vertices @ R.T + d, P.faces, hs)


def fail_corner_rules(monkeypatch, error, vertices=None):
    """Make both rules of every corner at ``vertices`` (at every vertex when
    None) raise ``error`` on each body whose face tables are built after
    this call, by wrapping the vertex table the face tables read."""
    table = melzak.perturbations.vertex_table

    def failing_table(P):
        got = table(P)
        at = P.topology.corner_mask.copy()
        if vertices is not None:
            at &= np.isin(P.topology.corner_table[..., 0], list(vertices))
        failed = got.failed.copy()
        failed[at] = error
        return got._replace(failed=failed)

    monkeypatch.setattr(melzak.perturbations, "vertex_table", failing_table)


def octahedron():
    """Regular octahedron with unit-distance faces (vertices at sqrt(3)/1)."""
    n = 1 / np.sqrt(3)
    return from_halfspaces([HalfSpace(np.array([sx, sy, sz]) * n, n)
                            for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])


def frustum(n=4, base_radius=1.0, height=1.0, cut=0.5, jitter=None):
    """Pyramid frustum host; jitter tilts the side planes so the laterals no
    longer share a single point and the cap's wedge grows a ridge."""
    PY = ngon_pyramid(n, base_radius, height)
    hs = []
    for k, h in enumerate(PY.halfspaces):
        nrm, off = np.asarray(h.normal, float), h.offset
        if jitter is not None and abs(nrm[2] + 1.0) > 1e-9:   # skip the base
            nrm = nrm + jitter[k % len(jitter)]
            nrm = nrm / np.linalg.norm(nrm)
            off = off * (1.0 + 0.05 * jitter[k % len(jitter)][2])
        hs.append(HalfSpace(nrm, off))
    hs.append(HalfSpace(np.array([0.0, 0.0, 1.0]), cut))
    return from_halfspaces(hs)


def crater_can():
    """Non-convex test body: a triangular can with a two-stage pit in its top.

    Returns (polyhedron, T, M, A) where T indexes the first rim vertex,
    M the first mid-ring vertex, and A the pit apex.  The rim vertices are
    neither exposed nor negatively exposed; the mid ring and apex are
    negatively exposed, which is what the complement-duality checks need.
    """
    R, r1, ztop, zr1, zap = 2.0, 0.9, 1.0, 0.55, 0.25
    ang = [np.pi / 2 + k * 2 * np.pi / 3 for k in range(3)]
    bot = [(R * np.cos(a), R * np.sin(a), 0.0) for a in ang]
    top = [(R * np.cos(a), R * np.sin(a), ztop) for a in ang]
    mid = [(r1 * np.cos(a), r1 * np.sin(a), zr1) for a in ang]
    apex = (0.0, 0.0, zap)
    verts = bot + top + mid + [apex]
    B, T, M, A = 0, 3, 6, 9
    faces = [(B + 0, B + 2, B + 1)]                     # bottom, outward -z
    for k in range(3):                                  # outer walls
        kn = (k + 1) % 3
        faces.append((B + k, B + kn, T + kn, T + k))
    for k in range(3):                                  # pit frustum walls
        kn = (k + 1) % 3
        faces.append((T + k, T + kn, M + kn, M + k))
    for k in range(3):                                  # pit bottom pyramid
        kn = (k + 1) % 3
        faces.append((M + k, M + kn, A))
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in verts]
    lines += [" ".join([str(len(f))] + [str(i) for i in f]) for f in faces]
    return parse_off("\n".join(lines)), T, M, A


def schonhardt():
    """Schönhardt's twisted triangular prism: the top triangle turned +30
    degrees against the bottom, each side quad split along its reflex
    diagonal. A valid body on which every vertex is neither exposed nor
    negatively exposed, so no elementary perturbation has a rate."""
    ang = [2 * np.pi * k / 3 for k in range(3)]
    verts = [(np.cos(a), np.sin(a), 0.0) for a in ang]
    verts += [(np.cos(a + np.pi / 6), np.sin(a + np.pi / 6), 1.0) for a in ang]
    faces = [(0, 2, 1), (3, 4, 5)]
    for k in range(3):
        kn = (k + 1) % 3
        faces += [(k, kn, 3 + kn), (k, 3 + kn, 3 + k)]
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in verts]
    lines += [" ".join([str(len(f))] + [str(i) for i in f]) for f in faces]
    return parse_off("\n".join(lines))


def tangent_body(n, seed=0):
    """The body of ``n`` planes tangent to the unit sphere at directions
    drawn from ``default_rng(seed)``: every plane is a face, of about six
    corners, and there are 2n - 4 vertices."""
    normals = np.random.default_rng(seed).normal(size=(n, 3))
    return from_halfspaces([HalfSpace(x / np.linalg.norm(x), 1.0) for x in normals])


def crater_cavity(crater, T):
    """Convex complement of the crater's pit: flipped pit planes + top cap."""
    pit_faces = [f for f in range(crater.n_faces)
                 if all(v >= T for v in crater.faces[f]) and f > 3]
    flip = [HalfSpace(-crater.halfspaces[f].normal, -crater.halfspaces[f].offset)
            for f in pit_faces]
    return from_halfspaces(flip + [HalfSpace(np.array([0.0, 0.0, 1.0]), 1.0)])


def match_face(Q, normal, offset):
    for f in range(Q.n_faces):
        if (np.allclose(Q.halfspaces[f].normal, normal)
                and abs(Q.halfspaces[f].offset - offset) < 1e-9):
            return f
    raise AssertionError("no matching face")


def match_vertex(Q, x):
    d = np.linalg.norm(Q.vertices - x, axis=1)
    return int(np.argmin(d))
