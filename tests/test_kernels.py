"""The numpy kernels against direct evaluations."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lltwalk import _kernels as K
from lltwalk import load_walk_spec
from lltwalk.errors import Periodic
from lltwalk import exact_engine
from lltwalk.exact_engine import _box
from lltwalk.spectral import charfn_grid, half_pairs

from conftest import CONFIGS, direct_step, step_every_row


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
    assert groups == K.ShiftGroups(((0.5, (0,)), (0.25, (7, -7)), (0.125, (1,))), 7)


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


def two_sum(a, b):
    """s, e with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def split(a):
    """Veltkamp's split: hi + lo = a exactly, each half 26 bits or fewer."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def double_double_origin_returns(z, n):
    """r_k = mean of z^k over the full grid, k < n, from double-double powers.

    Each cell's power is hi + lo, stepped by Dekker's TwoProduct (Veltkamp's
    split, no FMA): hi * z is exactly p + e, and lo * z + e joins p by
    Knuth's TwoSum, so a step adds about 2^-104 of relative error, not
    2^-53.  math.fsum adds the cells' hi exactly, with the float sum of
    their lo (each below an ulp of its hi) as one more term, and rounds
    once.  Portable float64, like the compensated sum below.
    """
    z_hi, z_lo = split(z)
    hi = np.ones_like(z)
    lo = np.zeros_like(z)
    r = np.empty(n)
    with np.errstate(under="ignore"):  # powers past the normal range add nothing
        for k in range(n):
            r[k] = math.fsum(hi[hi != 0].tolist() + [lo.sum()]) / z.size
            p = hi * z
            h_hi, h_lo = split(hi)
            e = h_lo * z_lo - (((p - h_hi * z_hi) - h_lo * z_hi) - h_hi * z_lo)
            hi, lo = two_sum(p, lo * z + e)
    return r


def compensated_weighted_power_sum(z, r):
    """sum_k r_k z^(n-1-k) over the full grid by compensated Horner.

    Graillat, Langlois and Louvet (2005): each Horner step's product and
    sum errors are taken exactly (Dekker's TwoProduct by Veltkamp's split,
    no FMA, and Knuth's TwoSum) and summed in a second Horner loop, so the
    result is as accurate as Horner's rule in twice the working precision,
    then rounded: within about one ulp of the exact sum of the same floats
    here.  Portable float64; the width of ``np.longdouble`` plays no part.
    """
    z_hi, z_lo = split(z)
    s = np.full(z.shape, r[0], dtype=float)
    c = np.zeros(z.shape)
    with np.errstate(under="ignore"):
        for rk in r[1:]:
            p = s * z
            s_hi, s_lo = split(s)
            p_err = s_lo * z_lo - (((p - s_hi * z_hi) - s_lo * z_hi) - s_hi * z_lo)
            s, s_err = two_sum(p, rk)
            c = c * z + (p_err + s_err)
    return s + c


# cut-off Horner steps over every power, the accuracy the blocked sum must match
def sequential_weighted_power_sum(z, r):
    s = np.zeros(z.shape, dtype=np.result_type(z, r))
    for rk, lk in zip(r, K._active_prefix(z, len(r))[::-1]):
        head = s[:lk]
        head *= z[:lk]
        head += rk
    return s


# weighted_power_sum's roundoff allowance in ulps of the sum over |z|: the
# largest measured is 8.9, at lazy_pert n = 4096 (26 at reach2 n = 16384,
# past the sizes tested here)
W_ULPS = 16


def assert_weighted_sum_within_allowance(z, r):
    """weighted_power_sum against the compensated sum of the same z and r.

    The error, in ulps of the sum over |z| and |r|, is at most the
    sequential loop's, and each cell is within 2 KSUM_TOL (the terms cut
    off) plus W_ULPS of those ulps.
    """
    ref = compensated_weighted_power_sum(z, r)
    ulps = np.finfo(float).eps * reference_weighted_power_sum(np.abs(z), np.abs(r))
    err = np.abs(K.weighted_power_sum(z, r) - ref)
    seq_err = np.abs(sequential_weighted_power_sum(z, r) - ref)
    assert np.max(err / ulps) <= np.max(seq_err / ulps)
    assert np.all(err <= 2 * K.KSUM_TOL + W_ULPS * ulps)


def test_compensated_reference_within_an_ulp(lazy_pert):
    # against Python-integer fixed point with 200 fractional bits (each step
    # off by at most 2^-200), on cells across the grid, the last power's
    # whole prefix included
    n, bits = 200, 200
    z = sorted_phat(lazy_pert, n)
    r = K.origin_returns(z, n)
    ref = compensated_weighted_power_sum(z, r)

    def fixed(x):
        num, den = float(x).as_integer_ratio()
        return (num << bits) // den

    rs = [fixed(rk) for rk in r]
    cells = sorted(set(range(K._active_prefix(z, n)[-1])) | set(range(0, z.size, 7)))
    for i in cells:
        zi = fixed(z[i])
        acc = 0
        for rk in rs:
            acc = ((acc * zi) >> bits) + rk
        exact = Fraction(acc, 1 << bits)
        assert abs(Fraction(float(ref[i])) - exact) <= np.finfo(float).eps * abs(exact)


def route_sizes(spec, n):
    """The fourier route's grid sizes for n steps: the tail box's side on each axis, made odd."""
    _, shape, _, _ = _box((spec.p, spec.q), n)
    return tuple(s | 1 for s in shape)


def full_grid(z, sizes):
    """An even real transform's half layout ``z`` on every cell of the grid: j_nu > h reads -j."""
    h = sizes[-1] // 2
    full = np.empty(sizes)
    full[..., :h + 1] = z
    full[..., h + 1:] = z[np.ix_(*[-np.arange(s) % s for s in sizes[:-1]], np.arange(h, 0, -1))]
    return full


def sorted_phat(spec, n, m=None):
    """The real transform of p on the full m^nu grid by an FFT of the padded box, sorted.

    m defaults to the largest side of the fourier route's grid for n steps.
    These are the kernel tests' fixed inputs, the samples the route took
    before it sampled exact phases on the half layout; the sample at 0 is
    p's exact total, 1.
    """
    m = max(route_sizes(spec, n)) if m is None else m
    box = np.zeros((m,) * spec.nu)
    box[np.ix_(*[(np.arange(w) + int(o)) % m for w, o in zip(spec.p.weights.shape, spec.p.offset)])] = (
        spec.p.weights)
    z = (np.fft.ifftn(box) * box.size).real.ravel()
    z[0] = 1.0
    return z[np.argsort(-np.abs(z), kind="stable")]


@pytest.mark.parametrize(
    "fixture,n", [("lazy_pert", 1024), ("lazy_pert", 8192), ("unit_cov_2d", 128), ("spec3d", 12)]
)
def test_ksum_cutoff_within_bound_of_full_grid(request, fixture, n):
    z = sorted_phat(request.getfixturevalue(fixture), n)
    assert_weighted_sum_within_allowance(z, assert_returns_within_allowance(z, n))


def test_ksums_step_no_subnormals(lazy_pert):
    # on the full support's grid (2n + 1 cells) and on the route's tail grid
    n = 8192
    full = sorted_phat(lazy_pert, n, m=2 * n + 1)
    tail = sorted_phat(lazy_pert, n)
    assert full.size == 16385 and tail.size < full.size
    with np.errstate(under="raise"):
        for z in (full, tail):
            K.weighted_power_sum(z, K.origin_returns(z, n))


# origin_returns' roundoff allowance in ulps of the mean over |z|: the
# largest measured is 3.2, at reach2 n = 16384 (3.1 at lazy_pert n = 8192,
# where the float step chain is off by 10.6)
R_ULPS = 4


def assert_returns_within_allowance(z, n):
    """origin_returns against the double-double returns of the same z; returns r.

    r's largest error is at most the float step chain's over the full grid,
    and each r_k is within KSUM_TOL / n (the terms cut off) plus R_ULPS
    ulps of the mean over |z|.
    """
    ref = double_double_origin_returns(z, n)
    with np.errstate(under="ignore"):  # the full-grid chain steps subnormals
        chain = reference_origin_returns(z, n)
        r_abs = reference_origin_returns(np.abs(z), n)
    r = K.origin_returns(z, n)
    assert r.shape == (n,)
    err = np.abs(r - ref)
    assert err.max() <= np.abs(chain - ref).max()
    assert np.all(err <= K.KSUM_TOL / n + R_ULPS * np.finfo(float).eps * r_abs)
    return r


def test_double_double_returns_within_an_ulp(lazy_pert):
    # against exact integer powers: each cell is m_i / 2^e, so the mean of
    # z^k is the integer sum of m_i^k over 2^(e k) times the cell count
    n = 200
    z = sorted_phat(lazy_pert, n)
    ref = double_double_origin_returns(z, n)
    ratios = [float(x).as_integer_ratio() for x in z]
    den = max(d for _, d in ratios)
    nums = [num * (den // d) for num, d in ratios]
    pows = [1] * len(nums)
    for k in range(n):
        exact = Fraction(sum(pows), den**k * z.size)
        assert abs(Fraction(float(ref[k])) - exact) <= np.finfo(float).eps * abs(exact)
        pows = [p * m for p, m in zip(pows, nums)]


def least_nonzero(z):
    mod = np.abs(z)
    return float(mod[mod > 0].min(initial=1.0))


def assert_plan_invariants(z, n, plan):
    """ksum_plan's table and blocks for powers 0..n-1 of the sorted ``z``.

    The wide powers are those before J, the first power whose prefix is at
    most KSUM_BLOCK_WIDTH cells, and the table is z^t, t < R, over J's
    prefix, highest power first, in at most KSUM_BLOCK_CELLS cells and
    KSUM_TABLE_ROWS rows, whose least nonzero cell keeps z^(R-1) at
    tiny / eps or above.  The blocks cover every later power exactly once,
    in order, each over its first power's prefix, which holds at least half
    its cells to the block's end, in at most KSUM_BLOCK_CELLS cells; the
    block's least nonzero cell keeps every anchor's last power, the block's
    last, at tiny / eps or above.
    """
    lens = K._active_prefix(z, n).tolist()
    first = sum(lk > K.KSUM_BLOCK_WIDTH for lk in lens)
    assert plan.n == n and plan.wide == lens[:first]
    floor = np.finfo(z.dtype).tiny / np.finfo(z.dtype).eps
    table = plan.table
    if first < n:
        width = lens[first]
        assert table.shape[1] == width and table.size <= K.KSUM_BLOCK_CELLS
        assert 1 <= len(table) <= K.KSUM_TABLE_ROWS
        assert np.array_equal(table[-2:], [z[:width], np.ones(width)][2 - len(table):])
        assert least_nonzero(z[:width]) ** (len(table) - 1) >= floor
    j = first
    for start, b, rows, lj in plan.blocks:
        assert start == j and b >= 1 and 1 <= rows <= len(table)
        assert lj == lens[j] and 2 * lens[j + b * rows - 1] >= lj
        assert b * rows * lj <= K.KSUM_BLOCK_CELLS
        assert least_nonzero(z[:lj]) ** (start + b * rows - 1) >= floor
        j += b * rows
    assert j == max(n, first)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65])
@pytest.mark.parametrize("fixture", ["lazy_pert", "reach2"])
def test_blocked_returns_at_small_n(request, fixture, n):
    # the route's grid is narrower than a block here, so every power is blocked
    assert_returns_within_allowance(sorted_phat(request.getfixturevalue(fixture), n), n)


# cells near 1 keep power 0's prefix the whole grid, whose least nonzero
# cell, 1e-7, leaves the normal range at power 42; the zeros join at power 0
UNDERFLOW_GRID = np.concatenate((np.linspace(1.0, 0.9, 20), [-0.5, 3e-6, -1e-7, 0.0, 0.0]))


def test_blocked_returns_stop_before_underflow():
    # the first block and its table end at power 41, though the cells and
    # the prefix would let them run on
    z = UNDERFLOW_GRID[np.argsort(-np.abs(UNDERFLOW_GRID), kind="stable")]
    n = 200
    plan = K.ksum_plan(z, n)
    assert_plan_invariants(z, n, plan)
    floor = np.finfo(float).tiny / np.finfo(float).eps
    j, b, rows, width = plan.blocks[0]
    assert (j, b * rows, width) == (0, 1 + int(np.log(floor) / np.log(1e-7)), z.size)
    assert b * rows < K.KSUM_BLOCK_CELLS // width
    with np.errstate(under="raise"):
        K.origin_returns(z, n, plan)
    assert_returns_within_allowance(z, n)


def test_blocked_returns_across_the_width_limit(unit_cov_2d):
    # a 2-D grid whose prefix starts wider than a block and ends narrower
    n = 300
    z = sorted_phat(unit_cov_2d, n, m=41)
    lens = K._active_prefix(z, n)
    assert lens[0] > K.KSUM_BLOCK_WIDTH >= lens[-1]
    plan = K.ksum_plan(z, n)
    assert plan.wide and plan.blocks
    assert_plan_invariants(z, n, plan)
    assert_returns_within_allowance(z, n)


@pytest.mark.parametrize("fixture,n", [("lazy_pert", 1), ("lazy_pert", 63), ("lazy_pert", 1024),
                                       ("lazy_pert", 8192), ("reach2", 65), ("reach2", 16384),
                                       ("unit_cov_2d", 64), ("spec3d", 12)])
def test_plan_covers_every_power_once(request, fixture, n):
    z = sorted_phat(request.getfixturevalue(fixture), n)
    assert_plan_invariants(z, n, K.ksum_plan(z, n))


def test_plan_invariants_at_other_block_sizes(lazy_pert, monkeypatch):
    # the table's rows and the block cells bind in turn
    n = 4096
    z = sorted_phat(lazy_pert, n)
    for cells in (1 << 10, 1 << 12, 1 << 17):
        monkeypatch.setattr(K, "KSUM_BLOCK_CELLS", cells)
        assert_plan_invariants(z, n, K.ksum_plan(z, n))


def test_plan_blocks_scale_with_the_terms(lazy_pert):
    # the route's pair cells at compare_1d's largest n (682 cells): about 0.52M
    # cut-off terms take 32 blocks' worth of KSUM_BLOCK_CELLS, and the blocks
    # stay within twice that, where blocks capped at the table's rows took 127
    n = 8192
    z = charfn_grid(lazy_pert.p, route_sizes(lazy_pert, n)).values.real
    pairs, _ = exact_engine._sorted_pairs(z)
    plan = K.ksum_plan(pairs, n)
    terms = int(K._active_prefix(pairs, n).sum())
    assert len(plan.blocks) <= 2 * terms / K.KSUM_BLOCK_CELLS
    assert_plan_invariants(pairs, n, plan)


def test_plan_for_other_n_is_refused(lazy_pert):
    z = sorted_phat(lazy_pert, 64)
    plan = K.ksum_plan(z, 64)
    with pytest.raises(ValueError, match="plan"):
        K.origin_returns(z, 65, plan)
    with pytest.raises(ValueError, match="plan"):
        K.weighted_power_sum(z, np.ones(63), plan)


@pytest.mark.parametrize("fixture,n", [("unit_cov_2d", 64)])
def test_weighted_power_sum_bit_for_bit(request, fixture, n):
    # no prefix is narrow enough to block, so the sum is the Horner loop's
    z = sorted_phat(request.getfixturevalue(fixture), n)
    assert K._active_prefix(z, n)[-1] > K.KSUM_BLOCK_WIDTH
    r = K.origin_returns(z, n)
    assert np.array_equal(K.weighted_power_sum(z, r), sequential_weighted_power_sum(z, r))


@pytest.mark.parametrize("fixture,n", [("lazy_pert", 4096), ("reach2", 1024)])
def test_blocked_weighted_sum_no_worse_than_sequential(request, fixture, n):
    z = sorted_phat(request.getfixturevalue(fixture), n)
    assert K._active_prefix(z, n)[-1] <= K.KSUM_BLOCK_WIDTH
    assert_weighted_sum_within_allowance(z, K.origin_returns(z, n))


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65])
@pytest.mark.parametrize("fixture", ["lazy_pert", "reach2"])
def test_blocked_weighted_sum_at_small_n(request, fixture, n):
    # every power is blocked, from power 0 over the whole grid
    z = sorted_phat(request.getfixturevalue(fixture), n)
    assert z.size <= K.KSUM_BLOCK_WIDTH
    assert_weighted_sum_within_allowance(z, K.origin_returns(z, n))


def test_blocked_weighted_sum_stops_before_underflow():
    # the table's rows and the first block stop where 1e-7, the least nonzero
    # cell, would take its last power past the normal range
    z = UNDERFLOW_GRID[np.argsort(-np.abs(UNDERFLOW_GRID), kind="stable")]
    n = 200
    plan = K.ksum_plan(z, n)
    r = K.origin_returns(z, n, plan)
    floor = np.finfo(float).tiny / np.finfo(float).eps
    assert_plan_invariants(z, n, plan)
    assert plan.table.shape == (1 + int(np.log(floor) / np.log(1e-7)), z.size)
    with np.errstate(under="raise"):
        K.weighted_power_sum(z, r, plan)
    assert_weighted_sum_within_allowance(z, r)


def test_blocked_weighted_sum_across_the_width_limit(unit_cov_2d):
    # a 2-D grid whose prefix starts wider than a block and ends narrower:
    # the blocks, then Horner steps over the wide powers
    n = 300
    z = sorted_phat(unit_cov_2d, n, m=41)
    lens = K._active_prefix(z, n)
    assert lens[0] > K.KSUM_BLOCK_WIDTH >= lens[-1]
    r = K.origin_returns(z, n)
    plan = K.ksum_plan(z, n)
    assert plan.wide and plan.blocks
    assert_plan_invariants(z, n, plan)
    assert_weighted_sum_within_allowance(z, r)


@pytest.mark.parametrize("kernel", ["origin_returns", "weighted_power_sum"])
@pytest.mark.parametrize("z", [[0.5, -0.9, 1.0], [[1.0, 0.5], [0.25, 0.0]]])
def test_ksums_reject_unsorted_input(kernel, z):
    z = np.array(z)
    with pytest.raises(ValueError, match="sorted"):
        if kernel == "origin_returns":
            K.origin_returns(z, 4)
        else:
            K.weighted_power_sum(z, np.ones(4))


@pytest.mark.parametrize(
    "fixture,n", [("lazy_pert", 1024), ("lazy_pert", 4096), ("lazy_pert", 8192), ("unit_cov_2d", 128)]
)
def test_mirrored_returns_match_full_grid(request, fixture, n):
    # the route's k-sums take each +-j pair once and the origin once:
    # r_k = (2 S_k - 1) / M against the double-double means over all M cells
    spec = request.getfixturevalue(fixture)
    sizes = route_sizes(spec, n)
    z = charfn_grid(spec.p, sizes).values.real
    pairs, _ = exact_engine._sorted_pairs(z)
    assert 2 * pairs.size - 1 == math.prod(sizes)
    r = exact_engine._pair_returns(pairs, n)
    full = full_grid(z, sizes).ravel()
    full = full[np.argsort(-np.abs(full), kind="stable")]
    ref = double_double_origin_returns(full, n)
    with np.errstate(under="ignore"):
        r_abs = reference_origin_returns(np.abs(full), n)
    assert np.all(np.abs(r - ref) <= K.KSUM_TOL / n + R_ULPS * np.finfo(float).eps * r_abs)


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_sorted_pairs_match_the_stable_sort(name):
    # the route's sort key, not the float one, on every config's grid at a
    # size it runs; the periodic walk is refused before any grid
    if name == "periodic_1d.cfg":
        with pytest.raises(Periodic):
            load_walk_spec(CONFIGS / name)
        return
    spec = load_walk_spec(CONFIGS / name)
    n = {1: 8192, 2: 512, 3: 48, 4: 12}[spec.nu]
    z = charfn_grid(spec.p, route_sizes(spec, n)).values.real
    keep = half_pairs(z.shape)[0]
    cells = z[keep]
    pairs, index = exact_engine._sorted_pairs(z)
    assert np.array_equal(pairs, cells[np.argsort(-np.abs(cells), kind="stable")])
    assert np.array_equal(np.sort(index), np.flatnonzero(keep))
    assert np.array_equal(pairs, z.ravel()[index])


def test_sorted_pairs_split_ties_by_sign():
    # a 1-D half layout: every cell is a pair cell
    z = np.array([1.0, 0.5, -0.25, -0.5, 0.25, 0.5, -0.0, 0.0])
    pairs, index = exact_engine._sorted_pairs(z)
    assert pairs.tolist() == [1.0, -0.5, 0.5, 0.5, -0.25, 0.25, -0.0, 0.0]
    assert np.signbit(pairs).tolist() == [False, True, False, False, True, False, True, False]
    assert np.array_equal(pairs, z[index])


@pytest.mark.parametrize("fixture,n", [("unit_cov_2d", 64), ("aniso_2d", 64), ("spec3d", 12)])
def test_correction_sum_even_on_plane_zero(request, fixture, n):
    # W is computed on the pair cells and mirrored into the rest of plane 0:
    # there it is exactly even.  Every cell matches the compensated sum over
    # the full grid, with the full grid's cut-off returns: the route's W is
    # within 2 KSUM_TOL of the exact sum and the reference within KSUM_TOL
    # (n returns, each within KSUM_TOL / n), beside W_ULPS ulps
    spec = request.getfixturevalue(fixture)
    sizes = route_sizes(spec, n)
    z = charfn_grid(spec.p, sizes).values.real
    w = exact_engine._correction_sum(*exact_engine._sorted_pairs(z), z.shape, n)
    plane = w[..., 0]
    neg = np.ix_(*[-np.arange(s) % s for s in plane.shape])
    assert np.array_equal(plane[neg], plane)
    flat = full_grid(z, sizes).ravel()
    order = np.argsort(-np.abs(flat), kind="stable")
    r = K.origin_returns(flat[order], n)
    ref = np.empty(flat.size)
    ref[order] = compensated_weighted_power_sum(flat[order], r)
    ulps = np.finfo(float).eps * reference_weighted_power_sum(np.abs(flat), np.abs(r))
    err = np.abs(full_grid(w, sizes).ravel() - ref)
    assert np.all(err <= 3 * K.KSUM_TOL + W_ULPS * ulps)


@pytest.mark.parametrize("n", [1024, 8192])
def test_correction_sum_on_exact_phase_grid_1d(lazy_pert, n):
    # the route's own samples, not the FFT-sampled grids above, on which the
    # blocked sum's comparative figures were measured: W stays within
    # 2 KSUM_TOL (the terms cut off) plus W_ULPS ulps of the compensated sum
    # over the full grid with the route's returns (1.9 and 6.6 ulps here)
    sizes = route_sizes(lazy_pert, n)
    z = charfn_grid(lazy_pert.p, sizes).values.real
    pairs, index = exact_engine._sorted_pairs(z)
    r = exact_engine._pair_returns(pairs, n)
    w = exact_engine._correction_sum(pairs, index, z.shape, n)
    flat = full_grid(z, sizes)
    order = np.argsort(-np.abs(flat), kind="stable")
    ref = np.empty(flat.size)
    ref[order] = compensated_weighted_power_sum(flat[order], r)
    ulps = np.finfo(float).eps * reference_weighted_power_sum(np.abs(flat), np.abs(r))
    err = np.abs(full_grid(w, sizes) - ref)
    assert np.all(err <= 2 * K.KSUM_TOL + W_ULPS * ulps)
