"""Hot numeric kernels, in numpy.

Every reduction has a fixed order and none calls BLAS (no ``@`` or ``dot``),
so results are reproducible bit for bit whatever the BLAS build and its
thread count, and every kernel computes in the dtype of its input.
The walkbench benchmark (``walkbench/``) times each kernel as its own layer.

Kernels:

* dp_step                      one convolution step of the forward recursion
* origin_returns               k -> mean over a torus grid of phat^k, k < n
* weighted_power_sum           sum_k r_k * phat^(n-1-k), in blocks and by Horner's rule
* ksum_plan                    the blocks and power table the two k-sums share
* pow_binary                   elementwise z^n by binary exponentiation

dp_step works on flat spans of a layout in which every kernel offset is one
flat shift (exact_engine._Stepper lays each route's box out so, padded with
zeros by ``exact_engine._layout``): out(i) = sum_k w_k cur(i - s_k).
``shift_groups``, which the stepper calls once per route, turns the kernel's
offsets into those shifts and groups the offsets of equal weight, which
are summed first and multiplied once.  Each operation is one contiguous
1-D slice.

The two k-sums take the grid as a flat array sorted by |z|, descending
(``np.argsort(-np.abs(z), kind="stable")``), and raise ValueError on any
other input: the order is what lets them cut each cell's sum off.  A cell
takes part in power k while |z|^k >= KSUM_TOL / n.  The cells that do form
a prefix of the array, so each power works on one contiguous slice, each
dropped term is below KSUM_TOL / n in size, and no power steps a subnormal
number.

Where power j's prefix is at most KSUM_BLOCK_WIDTH cells, as it is for
most j on a 1-D tail grid, both k-sums take powers in blocks of a few
numpy calls.  J is the first such power, and ``ksum_plan`` builds what
the two share, once per grid: one ``cumprod`` makes a table of z^t, t < R,
over power J's prefix, with R at most KSUM_TABLE_ROWS = 64 and the table
at most KSUM_BLOCK_CELLS cells.  A block over power j's prefix covers as
many powers j..j+b*R-1 as KSUM_BLOCK_CELLS allows over that prefix: b
anchors z^(j + i*R), each one ``np.power``, times the table's R rows over
the prefix.  origin_returns sums each product row, one sum per power;
weighted_power_sum multiplies the rows by the coefficients r_(n-1-p),
sums them, smallest terms first, multiplies each anchor's sum by
z^(j-J+i*R) and adds the anchors' sums, smallest first.  An anchor is one
rounding of the exact power, where a chain of j steps compounds one
rounding per step, so no term carries more than the table's R - 1 steps
and its anchor.  A cell stays in until the end of its block, so the terms
it adds there are kept, not dropped: every dropped term is still below
KSUM_TOL / n.  A block ends before its prefix falls below half its cells
(at most twice the arithmetic) and before the least nonzero cell's last
power, that of the block's last anchor and row, could leave the normal
range, and the table's rows stop where its own least cell's would, so no
product is subnormal.  The J wide powers take single steps: ``g *= z``
for the returns, cut-off Horner steps for the weighted sum; a grid with
no narrow prefix (every 2-D route grid up to n = 128) takes them alone.
On FFT-sampled full grids of ``lazy_pert_1d`` at n = 1024, 4096 and 8192
the returns are off by at most 3.1 ulps of the |z|-mean from a
double-double step chain, where a float one is off by up to 10.6, and
the weighted sum by 8.9 ulps of the |z|-sum from a compensated Horner
sum of the same floats, where cut-off Horner steps over every power are
off by up to 58 (``reach2_pert_1d`` n = 16384: 3.2 against 7.5, and 26
against 76).  These comparisons hold on those grids only.  On the
exact-phase grids the fourier route samples, the weighted sum at
``lazy_pert_1d`` n = 63 is off by 1.96 ulps where the Horner steps are
off by 1.02, and at n = 4096 by 14.6; the absolute allowances the tests
hold, 4 ulps for the returns and 16 for the weighted sum, still hold.
"""

from __future__ import annotations

import bisect
import math
import operator
import sys
from collections import namedtuple

import numpy as np

KSUM_TOL = 1e-16  # the k-sums drop every term r_k z^j with |z|^j < KSUM_TOL / n
KSUM_BLOCK_WIDTH = 256     # the k-sums block powers whose prefix is at most this wide
KSUM_BLOCK_CELLS = 1 << 14  # cells of the power table and of each block product
KSUM_TABLE_ROWS = 64        # rows of the power table, so no term carries more than 63 table steps


ShiftGroups = namedtuple("ShiftGroups", "groups margin")


def shift_groups(offs: np.ndarray, ws: np.ndarray, shape) -> ShiftGroups:
    """The kernel (offs, ws) as dp_step's groups on a C-ordered array of ``shape``.

    Each offset becomes its flat shift, the dot product with the array's
    strides in elements, and offsets of equal weight share one group, in
    order of first appearance: ``groups`` is a tuple of (weight, shifts)
    pairs, and ``margin`` the largest |shift|, the least margin dp_step takes.
    """
    strides = np.array([math.prod(shape[ax + 1:]) for ax in range(len(shape))], dtype=np.int64)
    shifts = np.asarray(offs, dtype=np.int64).reshape(len(ws), len(shape)) @ strides
    groups: dict = {}
    for s, w in zip(shifts, ws):
        groups.setdefault(float(w), []).append(int(s))
    return ShiftGroups(tuple((w, tuple(shifts)) for w, shifts in groups.items()),
                       int(np.abs(shifts).max(initial=0)))


def dp_step(cur: np.ndarray, out: np.ndarray, kernel: ShiftGroups, scratch: np.ndarray) -> np.ndarray:
    """out[i] = sum over (w, shifts) in kernel.groups of w * sum_s cur[m + i - s].

    One step of the forward recursion on a flat layout: ``cur`` is the span
    the step reads and ``out`` the span it writes, both 1-D, and
    m = (cur.size - out.size) / 2 is the margin of ``cur`` on each side of
    ``out``, at least ``kernel.margin``.  Each group's shifted spans are
    added in order and multiplied by its weight once, in ``scratch``
    (out.size cells or more) for all but the first group, which is
    written into ``out``; the groups are then added in order.  Every
    operation is on contiguous slices.
    """
    size = out.size
    m, odd = divmod(cur.size - size, 2)
    if odd or m < kernel.margin:
        raise ValueError("cur must extend past out by the largest |shift| on each side")
    acc = out
    for w, (s, *rest) in kernel.groups:
        if rest:
            np.add(cur[m - s:m - s + size], cur[m - rest[0]:m - rest[0] + size], out=acc)
            for s in rest[1:]:
                acc += cur[m - s:m - s + size]
            acc *= w
        else:
            np.multiply(cur[m - s:m - s + size], w, out=acc)
        if acc is not out:
            out += acc
        acc = scratch[:size]
    return out


def _active_prefix(z: np.ndarray, n: int) -> np.ndarray:
    """Lengths L[k], k = 0..n-1, of the prefixes ``z[:L[k]]`` kept for power k.

    ``z`` must be flat and sorted by |z|, descending.  A cell is kept while
    |z| is at least the k-th root of KSUM_TOL / n, lowered by a relative
    margin of 1e-9 that covers the root's rounding (a few ulps, times k
    once raised to the k-th power).  So every cell with |z|^k >= KSUM_TOL / n
    is kept, and every cell dropped has |z|^k < KSUM_TOL / n.
    """
    mod = np.abs(z)
    if z.ndim != 1 or np.any(mod[1:] > mod[:-1]):
        raise ValueError("z must be a flat array sorted by |z|, descending")
    tol = KSUM_TOL / max(n, 1) * (1.0 - 1e-9)
    roots = tol ** (1.0 / np.arange(1, n))
    return np.concatenate(([z.size], z.size - np.searchsorted(mod[::-1], roots)))[:n]


def _normal_powers(z: np.ndarray, width: int, floor: float) -> int:
    """Powers 0..P-1 of z[:width] (sorted by |z|, descending) that stay normal after rounding.

    ``floor`` is log(tiny / eps) of z's dtype: a power at least that large
    is normal after any rounding of its chain.  P is past any n when no
    nonzero cell is below 1 in size.
    """
    # only power 0's prefix, the whole grid, can end in zeros
    least = float(abs(z[width - 1])) if width else 1.0
    if least == 0.0:
        mod = np.abs(z[:width])
        least = float(mod[mod > 0].min(initial=1.0))
    return int(floor / math.log(least)) + 1 if least < 1.0 else sys.maxsize


class KsumPlan(namedtuple("KsumPlan", "n wide table blocks terms nbytes")):
    """How both k-sums take powers 0..n-1 of one sorted grid (see the module docstring).

    ``wide`` lists the prefix lengths of the powers before J, taken in
    single steps.  ``table`` row t is z^(R-1-t) over power J's prefix,
    highest power first.  Each block (j, b, rows, prefix) covers powers
    j..j+b*rows-1 over power j's prefix: b anchors z^(j + i*rows) times
    the table's last ``rows`` rows.  ``terms`` is the largest block's
    product in cells.  ``nbytes`` is what the k-sums hold past z, their
    output and, for the returns, one grid of wide powers: the table, the
    largest block's product and anchors (twice: the weighted sum's row
    sums), and numpy's iterator buffers.
    """

    __slots__ = ()


def ksum_plan(z: np.ndarray, n: int) -> KsumPlan:
    """The k-sums' plan for powers 0..n-1 of ``z``, flat and sorted by |z|, descending.

    The powers from J, the first whose prefix is at most KSUM_BLOCK_WIDTH
    cells, come in blocks.  One ``cumprod`` makes the table, z^t for t < R
    over power J's prefix, where R is KSUM_TABLE_ROWS or fewer if the table
    would pass KSUM_BLOCK_CELLS or its least cell leave the normal range.
    A block's rows are R or its powers, if fewer, and its anchors as many
    as fit whole.
    """
    lens = _active_prefix(z, n)
    first = int(np.searchsorted(-lens, -KSUM_BLOCK_WIDTH))
    lens = lens.tolist()
    info = np.finfo(z.dtype)
    floor = math.log(info.tiny / info.eps)
    width = lens[first] if first < n else 0
    rows = min(KSUM_TABLE_ROWS, KSUM_BLOCK_CELLS // max(width, 1), _normal_powers(z, width, floor))
    table = np.empty((rows, width), dtype=z.dtype)
    table[:-1] = z[:width]
    table[-1] = 1
    np.cumprod(table[::-1], axis=0, out=table[::-1])
    blocks, terms, anchors = [], 0, 0
    j = first
    while j < n:
        lj = lens[j]
        # the powers stop before the prefix falls below half its cells (at
        # most twice the arithmetic), before they pass KSUM_BLOCK_CELLS over
        # it, and before the least cell's last power could leave the normal range
        half = bisect.bisect_right(lens, -((lj + 1) // 2), j, key=operator.neg)
        powers = max(min(half - j, KSUM_BLOCK_CELLS // max(lj, 1),
                         _normal_powers(z, lj, floor) - j), 1)
        rows = min(len(table), powers)
        b = powers // rows
        blocks.append((j, b, rows, lj))
        terms, anchors = max(terms, b * rows * lj), max(anchors, b * lj)
        j += b * rows
    # numpy's iterator buffers for the broadcast block product: one for
    # each input, of np.getbufsize() elements or the product's size
    buffers = 2 * min(np.getbufsize(), terms)
    nbytes = z.itemsize * (table.size + terms + 2 * anchors + buffers)
    return KsumPlan(n=n, wide=lens[:first], table=table, blocks=blocks, terms=terms, nbytes=nbytes)


def _plan(z: np.ndarray, n: int, plan: KsumPlan | None) -> KsumPlan:
    if plan is None:
        return ksum_plan(z, n)
    if plan.n != n:
        raise ValueError(f"plan is for {plan.n} powers, not {n}")
    return plan


def origin_returns(z: np.ndarray, n: int, plan: KsumPlan | None = None) -> np.ndarray:
    """Grid means of z^k for k = 0..n-1 (z = charfn samples), in z's dtype.

    Power k takes at least the cells where it is at least KSUM_TOL / n, and
    the mean still divides by the full cell count, so r_k is off by less
    than KSUM_TOL / n.  The J wide powers are steps ``g *= z``; the narrow
    ones come in the blocks of ``plan`` (``ksum_plan(z, n)`` by default).
    """
    plan = _plan(z, n, plan)
    r = np.empty(n, dtype=z.dtype)
    g = np.ones_like(z)
    for k, lk in enumerate(plan.wide):
        head = g[:lk]
        if k:
            head *= z[:lk]
        r[k] = head.sum() / z.size
    terms = np.empty(plan.terms, dtype=z.dtype)
    table = plan.table
    for j, b, rows, lj in plan.blocks:
        # [i, t]: z^(j+i*rows+rows-1-t), the table's z^(rows-1-t) times the anchor rounded once
        blk = terms[:b * rows * lj].reshape(b, rows, lj)
        anchors = np.power(z[:lj], np.arange(j, j + b * rows, rows)[:, None])
        np.multiply(anchors[:, None], table[-rows:, :lj], out=blk)
        r[j:j + b * rows] = blk.sum(axis=2)[:, ::-1].ravel()
    r[len(plan.wide):] /= z.size
    return r


def weighted_power_sum(z: np.ndarray, r: np.ndarray, plan: KsumPlan | None = None) -> np.ndarray:
    """sum_{k=0}^{n-1} r[k] * z^(n-1-k), elementwise over the grid.

    Power j = n-1-k takes the cells where |z|^j >= KSUM_TOL / n.  The
    powers j >= J whose prefix is at most KSUM_BLOCK_WIDTH cells are summed
    in the blocks of ``plan`` (see the module docstring) into
    s = sum_{j>=J} r[n-1-j] z^(j-J); then J cut-off Horner steps
    ``s *= z; s += r[k]``, k ascending, finish the wide powers, and a cell
    joins them at 0, the exact value of the terms it left out.  With
    |z| <= 1 every earlier rounding error is multiplied by a power of |z|,
    so the sum needs no compensation, and with |r_k| <= 1 each cell is off
    by less than KSUM_TOL.
    """
    n = len(r)
    plan = _plan(z, n, plan)
    s = np.zeros(z.shape, dtype=np.result_type(z, r))
    first = len(plan.wide)
    terms = np.empty(plan.terms, dtype=s.dtype)
    table = plan.table
    for j, b, rows, lj in plan.blocks:
        # anchor i's polynomial sum_t r[n-j-(i+1)*rows+t] z^(rows-1-t), smallest
        # terms first, times z^(j-J+i*rows) rounded once; then the anchors'
        # terms, smallest first
        blk = terms[:b * rows * lj].reshape(b, rows, lj)
        np.multiply(r[n - j - b * rows:n - j].reshape(b, rows)[::-1, :, None], table[-rows:, :lj],
                    out=blk)
        poly = blk.sum(axis=1)
        poly *= np.power(z[:lj], np.arange(j - first, j - first + b * rows, rows)[:, None])
        s[:lj] += poly[::-1].sum(axis=0)
    for rk, lk in zip(r[n - first:], reversed(plan.wide)):
        head = s[:lk]
        head *= z[:lk]
        head += rk
    return s


def pow_binary(z: np.ndarray, n: int) -> np.ndarray:
    """Elementwise z^n by binary exponentiation (O(log n) grid passes)."""
    out = np.ones_like(z)
    base = z.copy()
    e = int(n)
    while e > 0:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out
