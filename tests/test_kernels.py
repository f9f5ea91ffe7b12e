"""The numpy kernels against direct evaluations."""

import numpy as np
import pytest

from lltwalk import _kernels as K
from lltwalk.exact_engine import _box
from lltwalk.spectral import charfn_grid

from conftest import direct_step, step_every_row


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
    got = step_every_row(cur, offs, ws, 3)
    assert np.abs(got - direct_step(cur, offs, ws)).max() < 1e-15


def test_dp_step_boundary_truncation():
    # mass pushed past the box edge is dropped, not wrapped
    cur = np.zeros(5)
    cur[4] = 1.0
    offs = np.array([1], dtype=np.int64)
    ws = np.array([1.0])
    out = step_every_row(cur, offs, ws, 1)
    assert out.sum() == 0.0


def test_dp_step_groups_offsets_of_equal_weight():
    groups = K.shift_groups(np.array([[0, 0], [1, 0], [-1, 0], [0, 1]]),
                            np.array([0.5, 0.25, 0.25, 0.125]), (5, 7))
    assert groups == ((0.5, (0,)), (0.25, (7, -7)), (0.125, (1,)))


def test_dp_step_rejects_a_margin_short_of_a_shift():
    groups = K.shift_groups(np.array([[2]]), np.array([1.0]), (5,))
    with pytest.raises(ValueError, match="largest"):
        K.dp_step(np.zeros(7), np.empty(5), groups, np.empty(5))


def test_pow_binary_matches_npower(rng):
    z = (rng.random(100) * 2 - 1).astype(np.complex128)
    for n in (0, 1, 2, 7, 64, 1001):
        direct = z.astype(np.complex128) ** 0
        for _ in range(n):
            direct = direct * z
        assert np.abs(K.pow_binary(z, n) - direct).max() < 1e-12


def test_weighted_power_sum_is_polynomial_eval(rng):
    # sum_k r_k z^(n-1-k) == polyval with the same coefficients
    z = np.array([-1.0, 1.0, 0.99, -0.9, 0.3])
    r = rng.random(50)
    expect = np.array([np.polyval(r, zz) for zz in z])
    got = K.weighted_power_sum(z, r)
    assert got.dtype == np.float64
    assert np.abs(got - expect).max() < 1e-12


# The full-grid k-sums the kernels replaced, kept as the reference for
# their per-cell cutoff.
def reference_origin_returns(z, n):
    r = np.empty(n, dtype=z.dtype)
    g = np.ones_like(z)
    for k in range(n):
        r[k] = g.mean()
        g *= z
    return r


def reference_weighted_power_sum(z, r):
    s = np.zeros(z.shape, dtype=np.result_type(z, r))
    for rk in r:
        s *= z
        s += rk
    return s


def sorted_phat(spec, n, m=None):
    """The real transform of p on an m-grid, sorted; m defaults to the fourier route's grid for n steps."""
    if m is None:
        _, shape, _, _ = _box((spec.p, spec.q), n, 0, 1 << 62)
        m = max(shape) | 1
    z = charfn_grid(spec.p, m).values.real.ravel()
    return z[np.argsort(-np.abs(z), kind="stable")]


@pytest.mark.parametrize(
    "fixture,n", [("lazy_pert", 1024), ("lazy_pert", 8192), ("unit_cov_2d", 128), ("spec3d", 12)]
)
def test_ksum_cutoff_within_bound_of_full_grid(request, fixture, n):
    z = sorted_phat(request.getfixturevalue(fixture), n)
    with np.errstate(under="ignore"):  # the full-grid loops step subnormals
        r_ref = reference_origin_returns(z, n)
        w_ref = reference_weighted_power_sum(z, r_ref)
        # the same sums over |z| and |r|, the scale of their roundoff
        r_abs = reference_origin_returns(np.abs(z), n)
        w_abs = reference_weighted_power_sum(np.abs(z), r_abs)
    r = K.origin_returns(z, n)
    w = K.weighted_power_sum(z, r)
    # Roundoff allowance: a kept cell's powers are the reference's bit for
    # bit, so the two differ only by the order of the mean's summation and
    # the rounding that carries into W; 8 ulps of those sums over |z|.
    ulp = np.finfo(float).eps
    assert np.all(np.abs(r - r_ref) <= K.KSUM_TOL / n + 8 * ulp * r_abs)
    assert np.all(np.abs(w - w_ref) <= 2 * K.KSUM_TOL + 8 * ulp * w_abs)


def test_ksums_step_no_subnormals(lazy_pert):
    # on the full support's grid (2n + 1 cells) and on the route's tail grid
    n = 8192
    full = sorted_phat(lazy_pert, n, m=2 * n + 1)
    tail = sorted_phat(lazy_pert, n)
    assert full.size == 16385 and tail.size < full.size
    with np.errstate(under="raise"):
        for z in (full, tail):
            K.weighted_power_sum(z, K.origin_returns(z, n))


@pytest.mark.parametrize("kernel", ["origin_returns", "weighted_power_sum"])
@pytest.mark.parametrize("z", [[0.5, -0.9, 1.0], [[1.0, 0.5], [0.25, 0.0]]])
def test_ksums_reject_unsorted_input(kernel, z):
    z = np.array(z)
    with pytest.raises(ValueError, match="sorted"):
        if kernel == "origin_returns":
            K.origin_returns(z, 4)
        else:
            K.weighted_power_sum(z, np.ones(4))
