import numpy as np
import pytest

from hestonsim.errors import ParameterError
from hestonsim.rng import RngStream


def test_same_key_reproduces():
    a = RngStream(42, (3, 1)).gen.standard_normal(100)
    b = RngStream(42, (3, 1)).gen.standard_normal(100)
    np.testing.assert_array_equal(a, b)


def test_distinct_keys_differ():
    a = RngStream(42, (0,)).gen.standard_normal(100)
    b = RngStream(42, (1,)).gen.standard_normal(100)
    assert not np.array_equal(a, b)


def test_substream_is_pure_function_of_key():
    root = RngStream(7)
    s1 = root.substream(2, 5)
    s2 = RngStream(7).substream(2).substream(5)
    direct = RngStream(7, (2, 5))
    x1 = s1.gen.uniform(size=50)
    x2 = s2.gen.uniform(size=50)
    x3 = direct.gen.uniform(size=50)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(x1, x3)


def test_substream_independent_of_sibling_order():
    a_first = RngStream(9).substream(0).gen.uniform(size=10)
    root = RngStream(9)
    _ = root.substream(1).gen.uniform(size=10)
    a_second = root.substream(0).gen.uniform(size=10)
    np.testing.assert_array_equal(a_first, a_second)


@pytest.mark.parametrize("seed", [1.7, 1.0, "3", -1, None, np.float64(2.0)])
def test_bad_seed_raises(seed):
    with pytest.raises(ParameterError, match="seed must be"):
        RngStream(seed)


@pytest.mark.parametrize("key", [(1.5,), (0, "2"), (0, -1), (np.float64(1.0),)])
def test_bad_key_raises(key):
    with pytest.raises(ParameterError, match="substream key must be"):
        RngStream(1, key)
    with pytest.raises(ParameterError, match="substream key must be"):
        RngStream(1).substream(*key)


def test_numpy_integers_pass():
    a = RngStream(np.int64(42), (np.uint32(3), np.int8(1))).gen.uniform(size=5)
    b = RngStream(42, (3, 1)).gen.uniform(size=5)
    np.testing.assert_array_equal(a, b)
    assert RngStream(np.int64(42)).seed == 42 and type(RngStream(np.int64(42)).seed) is int
