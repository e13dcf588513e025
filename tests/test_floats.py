import numpy as np
from hypothesis import given, settings, strategies as st

from mgv.floats import mean

FLOATS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(values=st.lists(FLOATS, min_size=1, max_size=300))
def test_mean_of_floats_has_the_bits_of_np_mean(values):
    assert mean(values).tobytes() == np.mean(values).tobytes()
    array = np.array(values)
    assert mean(array).tobytes() == np.mean(array).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(st.booleans(), min_size=1, max_size=300))
def test_mean_of_bools_has_the_bits_of_np_mean(values):
    array = np.array(values, dtype=bool)
    assert mean(array).tobytes() == np.mean(array).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(st.integers(0, 10_000), min_size=1, max_size=300))
def test_mean_of_ints_has_the_bits_of_np_mean(values):
    array = np.array(values)
    assert mean(array).tobytes() == np.mean(array).tobytes()
