"""3-vector helpers: the scalar cross product against ``np.cross``."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from melzak.vec3 import cross

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
