"""Centralized numerical tolerances.

Length-like tolerances are relative: they are multiplied by a length scale
of the body at the point of use, max|x - c| over the vertices x about a
centre c for the one vertex-on-plane rule (``plane_incidence``). Angular
and unit-norm tolerances are absolute. ``json_float`` is the one rounding
rule for floats written to JSON, and ``json_rate`` the one for a
first-order rate of the ratio m. ``is_index`` is the one test for an
index argument.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    unit_norm: float = 1e-12        # |normal| - 1 accepted drift
    plane_triple: float = 1e-10     # determinant cutoff for 3-plane solves
    dedup: float = 1e-9             # x max|vertex|: vertex-order rounding grid
    coplanarity: float = 1e-9       # x scale: vertex-on-face-plane slack
    exposure: float = 1e-9          # rad: dihedral margin around pi
    tangency: float = 1e-9          # rad: an incircle this small is flat
    witness_margin: float = 1e-10   # improving perturbations need dM below -this


DEFAULT_TOLERANCES = Tolerances()


def json_float(x) -> float | None:
    """Round to 12 significant digits for stable serialized output; None
    stays None."""
    if x is None:
        return None
    return float(f"{float(x):.12g}")


def json_rate(rate, m: float) -> float | None:
    """Round a rate of the ratio ``m`` to 9 significant digits for stable
    serialized output, and write |rate| <= 1e-9 m as 0: below that the
    digits are the rate's rounding, not its value. None stays None."""
    if rate is None:
        return None
    if abs(rate) <= 1e-9 * abs(m):
        return 0.0
    return float(f"{float(rate):.9g}")


def is_index(x) -> bool:
    """Whether x is a Python or numpy integer that is not a bool."""
    return type(x) is not bool and isinstance(x, (int, np.integer))
