"""The numpy kernels against direct evaluations."""

import itertools

import numpy as np
import pytest

from lltwalk import _kernels as K


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.mark.parametrize("shape", [(257,), (33, 17), (9, 8, 7)])
def test_dp_step_matches_direct_sum(rng, shape):
    # out(x) = sum_k ws[k] cur(x - offs[k]), terms outside the box dropped
    dim = len(shape)
    offs = rng.integers(-3, 4, size=(5, dim)).astype(np.int64)
    ws = rng.random(5)
    cur = rng.random(shape)
    got = K.dp_step(cur, np.empty_like(cur), offs, ws)
    expect = np.zeros(shape)
    for x in itertools.product(*(range(s) for s in shape)):
        for off, w in zip(offs, ws):
            y = tuple(c - o for c, o in zip(x, off))
            if all(0 <= c < s for c, s in zip(y, shape)):
                expect[x] += w * cur[y]
    assert np.abs(got - expect).max() < 1e-15


def test_dp_step_boundary_truncation():
    # mass pushed past the box edge is dropped, not wrapped
    cur = np.zeros(5)
    cur[4] = 1.0
    offs = np.array([1], dtype=np.int64)
    ws = np.array([1.0])
    out = K.dp_step(cur, np.empty_like(cur), offs, ws)
    assert out.sum() == 0.0


def test_pow_binary_matches_npower(rng):
    z = (rng.random(100) * 2 - 1).astype(np.complex128)
    for n in (0, 1, 2, 7, 64, 1001):
        direct = z.astype(np.complex128) ** 0
        for _ in range(n):
            direct = direct * z
        assert np.abs(K.pow_binary(z, n) - direct).max() < 1e-12


def test_weighted_power_sum_is_polynomial_eval(rng):
    # sum_k r_k z^(n-1-k) == polyval with the same coefficients
    z = np.array([0.3, -0.9, 0.99, -1.0, 1.0])
    r = rng.random(50)
    expect = np.array([np.polyval(r, zz) for zz in z])
    got = K.weighted_power_sum(z, r)
    assert got.dtype == np.float64
    assert np.abs(got - expect).max() < 1e-12
