"""3-vector helpers: the scalar and stacked cross products against
``np.cross``, the norm."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from melzak.vec3 import cross, norm, rowcross

# signed zeros, inf, nan, subnormals and magnitudes from 1e-300 to 1e300
_special = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324])
_scaled = st.builds(lambda m, e: m * 10.0 ** e,
                    st.floats(-10.0, 10.0), st.integers(-300, 300))
_coord = st.one_of(_special, _scaled, st.floats(allow_nan=True, allow_infinity=True))
_vec = st.lists(_coord, min_size=3, max_size=3).map(np.array)


@settings(max_examples=500, deadline=None)
@given(a=_vec, b=_vec)
@example(a=np.array([0.0, -0.0, 1.0]), b=np.array([-0.0, 0.0, -1.0]))
@example(a=np.array([1e300, 1e-300, -1e300]), b=np.array([1e300, -1e300, 1e-300]))
@example(a=np.array([math.inf, 0.0, math.nan]), b=np.array([0.0, -math.inf, 1.0]))
def test_cross_equals_numpy_bytes(a, b):
    with np.errstate(all="ignore"):
        want = np.cross(a, b)
    got = cross(a, b)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # stacked, with the leading axes broadcast
    rows, other = np.stack([a, b])[:, None], np.stack([b, a, b])
    with np.errstate(all="ignore"):
        want = np.cross(rows, other)
        got = rowcross(rows, other)
    assert got.shape == want.shape == (2, 3, 3)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(v=st.lists(_scaled, min_size=3, max_size=3).map(np.array))
@example(v=np.array([1e300, -1e300, 1e300]))
@example(v=np.array([3.0, -4.0, 12.0]))
def test_norm_is_the_correctly_scaled_length(v):
    # hypot neither overflows nor underflows where the squares would
    got = norm(v)
    assert isinstance(got, float)
    scale = float(np.abs(v).max())
    want = scale * float(np.sqrt(((v / scale) ** 2).sum())) if scale else 0.0
    assert got == pytest.approx(want, rel=1e-15)
