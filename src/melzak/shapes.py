"""Canonical polyhedra and randomized convex instances.

Every constructor routes through ``from_halfspaces`` so the halfspace and
incidence views are consistent by construction.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import BadParameter, DegenerateInput, GeometryError
from .polyhedron import HalfSpace, Polyhedron, from_halfspaces, volume
from .vec3 import cross, norm

# Unit-volume optimal prism: equilateral side s equal to height.
PRISM_SIDE = (4.0 / np.sqrt(3.0)) ** (1.0 / 3.0)
PRISM_EDGE_LENGTH = 2.0 ** (2.0 / 3.0) * 3.0 ** (11.0 / 6.0)
PRISM_RATIO = 4.0 * 3.0 ** 5.5
TETRA_RATIO = 1296.0 * np.sqrt(2.0)
CUBE_RATIO = 1728.0

# random_convex: draws per call, and the shortest edge it accepts as a
# fraction of the diameter
_RANDOM_TRIES = 200
_RANDOM_MIN_EDGE = 1e-3


def box(a: float, b: float, c: float) -> Polyhedron:
    """Axis-aligned box with side lengths a, b, c centered at the origin."""
    if min(a, b, c) <= 0:
        raise BadParameter("box sides must be positive")
    hs = []
    for k, side in enumerate((a, b, c)):
        for sign in (1.0, -1.0):
            n = np.zeros(3)
            n[k] = sign
            hs.append(HalfSpace(n, side / 2.0))
    return from_halfspaces(hs)


def cube() -> Polyhedron:
    """Unit-volume cube."""
    return box(1.0, 1.0, 1.0)


def regular_tetrahedron() -> Polyhedron:
    """Regular tetrahedron scaled to unit volume, centered at the origin."""
    dirs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    dirs /= np.sqrt(3.0)
    # offset 1/sqrt(3) puts the vertices at the +/-1 corner points (volume 8/3)
    lam = (3.0 / 8.0) ** (1.0 / 3.0)
    hs = [HalfSpace(-d, lam / np.sqrt(3.0)) for d in dirs]
    return from_halfspaces(hs)


def optimal_prism() -> Polyhedron:
    """Unit-volume right prism over an equilateral triangle, side = height."""
    s = PRISM_SIDE
    inradius = s / (2.0 * np.sqrt(3.0))
    hs = [HalfSpace(np.array([0.0, 0.0, 1.0]), s / 2.0),
          HalfSpace(np.array([0.0, 0.0, -1.0]), s / 2.0)]
    for k in range(3):
        ang = 2.0 * np.pi * k / 3.0
        hs.append(HalfSpace(np.array([np.cos(ang), np.sin(ang), 0.0]), inradius))
    return from_halfspaces(hs)


def ngon_pyramid(n: int, base_radius: float, height: float) -> Polyhedron:
    """Pyramid over a regular n-gon (circumradius ``base_radius``), apex on axis."""
    if n < 3:
        raise BadParameter("pyramid base needs at least 3 sides")
    if base_radius <= 0 or height <= 0:
        raise BadParameter("base_radius and height must be positive")
    apex = np.array([0.0, 0.0, height])
    base = np.array([[base_radius * np.cos(2 * np.pi * k / n),
                      base_radius * np.sin(2 * np.pi * k / n), 0.0] for k in range(n)])
    hs = [HalfSpace(np.array([0.0, 0.0, -1.0]), 0.0)]
    for k in range(n):
        a, b = base[k], base[(k + 1) % n]
        nrm = cross(b - a, apex - a)
        nrm /= norm(nrm)
        if nrm @ (a - base.mean(axis=0)) < 0:
            nrm = -nrm
        hs.append(HalfSpace(nrm, float(nrm @ a)))
    return from_halfspaces(hs)


def optimal_pyramid(n: int) -> Polyhedron:
    """The regular n-gon pyramid of least ratio, base circumradius 1.

    With base side s = 2 sin(pi/n) and slant edge L = sqrt(1 + h^2), m is
    proportional to (s + L)^3 / h, least where 3 h^2 = L (s + L)."""
    if n < 3:
        raise BadParameter("pyramid base needs at least 3 sides")
    s = 2.0 * np.sin(np.pi / n)
    slant = (s + np.sqrt(s * s + 24.0)) / 4.0
    return ngon_pyramid(n, 1.0, float(np.sqrt(slant * slant - 1.0)))


_CANONICAL = {  # name -> (constructor, its parameters in order)
    "cube": (cube, ()),
    "regular_tetrahedron": (regular_tetrahedron, ()),
    "optimal_prism": (optimal_prism, ()),
    "ngon_pyramid": (ngon_pyramid, ("n", "base_radius", "height")),
    "box": (box, ("a", "b", "c")),
}


def canonical(shape: str, **params) -> Polyhedron:
    """Dispatch on a shape name; see the individual constructors.

    Parameters go by name, as numbers or their strings. An unknown shape, a
    missing or extra parameter, a value that is not a finite number, or a
    non-integral ``n`` raises BadParameter."""
    if shape not in _CANONICAL:
        raise BadParameter(f"unknown canonical shape {shape!r}")
    build, names = _CANONICAL[shape]
    if sorted(params) != sorted(names):
        raise BadParameter(f"{shape} takes {', '.join(names) or 'no parameters'}")
    values = []
    for key in names:
        try:
            x = float(params[key])
        except (TypeError, ValueError):
            x = math.nan
        if not math.isfinite(x) or (key == "n" and not x.is_integer()):
            kind = "an integer" if key == "n" else "a finite number"
            raise BadParameter(f"{shape}: {key} must be {kind}, got {params[key]!r}")
        values.append(int(x) if key == "n" else x)
    return build(*values)


def unit_volume(P: Polyhedron) -> Polyhedron:
    """Rescale to volume one."""
    return P.scaled(volume(P) ** (-1.0 / 3.0))


def random_convex(rng: np.random.Generator, n_faces: int | None = None) -> Polyhedron:
    """Random bounded convex polyhedron from sampled supporting halfspaces.

    Offsets stay positive so the origin is interior; ill-conditioned draws
    (tiny edges that destabilize finite differencing) are rejected.
    """
    for _ in range(_RANDOM_TRIES):
        m = int(n_faces) if n_faces is not None else int(rng.integers(4, 11))
        normals = rng.normal(size=(m, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        offsets = rng.uniform(0.6, 1.3, size=m)
        try:
            P = from_halfspaces([HalfSpace(n, o) for n, o in zip(normals, offsets)])
        except GeometryError:
            continue
        idx = np.array(P.edges)
        lengths = np.linalg.norm(P.vertices[idx[:, 0]] - P.vertices[idx[:, 1]], axis=1)
        if lengths.min() >= _RANDOM_MIN_EDGE * P.diameter():
            return P
    raise DegenerateInput("could not sample a well-conditioned convex polyhedron")
