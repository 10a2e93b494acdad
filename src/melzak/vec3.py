"""Small helpers on single 3-vectors and on (n, 3) rows of them.

``cross``, ``norm`` and ``unit`` take one 3-vector; ``rowcross``,
``rowdot`` and ``lengths`` take stacks of them and ``plane_bases`` (n, 3)
arrays. ``cross``, ``rowcross`` and ``rowdot`` return bit for bit what the
numpy expression they replace returns; ``norm`` and ``lengths`` are
``math.hypot``, which can differ from ``np.linalg.norm`` in the last bit.
``ordered_sum`` adds along an axis in Python's order, so a row's sum has
the same bits in a stack of any height.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import BadParameter


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross(a, b)`` of two 1-D 3-vectors, bit for bit.

    The same products and differences in the same order as ``np.cross``,
    on Python floats, without its per-call axis handling.
    """
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def norm(v: np.ndarray) -> float:
    """Euclidean length of one 3-vector, by ``math.hypot`` on Python floats."""
    return math.hypot(*v.tolist())


def lengths(rows: np.ndarray) -> np.ndarray:
    """``norm`` of each vector along the last axis of ``rows``."""
    flat = rows.reshape(-1, rows.shape[-1]).tolist()
    return np.array([math.hypot(*r) for r in flat]).reshape(rows.shape[:-1])


def unit(v: np.ndarray) -> np.ndarray:
    """``v`` scaled to unit length; raises BadParameter for a zero vector."""
    n = norm(v)
    if n == 0.0:
        raise BadParameter("zero vector cannot be normalized")
    return v / n


def rowcross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross(a, b)`` of the 3-vectors along the last axes, the leading
    axes broadcast, bit for bit: the same products and differences in the
    same order, without its axis handling."""
    return np.stack([a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                     a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                     a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]], axis=-1)


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the vectors along the last axes of ``a`` and ``b``,
    the leading axes broadcast, bit for bit equal to each ``a[k] @ b[k]``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def ordered_sum(terms: np.ndarray, axis: int = -1) -> np.ndarray:
    """Python's ``sum`` along ``axis``, bit for bit: left to right from 0."""
    return 0.0 + np.add.accumulate(terms, axis=axis).take(-1, axis=axis)


def plane_bases(N: np.ndarray) -> tuple:
    """Right-handed (t1, t2, n) orthonormal frames for the unit normal rows
    of N: t1 is n x e_k for the axis k of n's smallest component, scaled to
    unit length, and t2 = n x t1. Returns the (m, 3) arrays t1 and t2."""
    E = np.zeros_like(N)
    E[np.arange(len(N)), np.argmin(np.abs(N), axis=1)] = 1.0
    c = rowcross(N, E)
    t1 = c / np.sqrt(rowdot(c, c))[:, None]
    return t1, rowcross(N, t1)
