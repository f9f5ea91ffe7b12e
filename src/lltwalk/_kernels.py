"""Hot numeric kernels, in numpy.

Every reduction has a fixed order, so results are reproducible bit for bit,
and every kernel computes in the dtype of its input.
The walkbench benchmark (``walkbench/``) times each kernel as its own layer.

Kernels:

* dp_step                      one convolution step of the forward recursion
* origin_returns               k -> mean over a torus grid of phat^k, k < n
* weighted_power_sum           sum_k r_k * phat^(n-1-k), by Horner's rule
* pow_binary                   elementwise z^n by binary exponentiation

dp_step works on flat spans of a layout in which every kernel offset is one
flat shift (exact_engine._layout pads the box with zeros so that it is):
out(i) = sum_k w_k cur(i - s_k).  ``shift_groups`` turns the kernel's
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

Where power k's prefix is at most KSUM_BLOCK_WIDTH cells, origin_returns
computes a block of b powers k..k+b-1 over that prefix in a few numpy calls:
z^k and b - 1 copies of the prefix of z in a (b, prefix) buffer, one
``cumprod`` down its rows (row j is the same chain of products as j steps
of ``g *= z``, bit for bit) and one row sum per power.  So a cell stays in
until the end of its block, and the terms it adds there are kept, not
dropped: every dropped term is still below KSUM_TOL / n.  A block's rows
stop before the prefix falls below half its cells (at most twice the
arithmetic), before the buffer's KSUM_BLOCK_CELLS cells are full, and
before the least nonzero cell's power could leave the normal range, so
there is still no subnormal step.  Wider prefixes take blocks of one power,
the in-place step, because ``cumprod`` down the rows makes one inner-loop
call per column.
"""

from __future__ import annotations

import math

import numpy as np

KSUM_TOL = 1e-16  # the k-sums drop every term r_k z^j with |z|^j < KSUM_TOL / n
KSUM_BLOCK_WIDTH = 256     # origin_returns blocks powers whose prefix is at most this wide
KSUM_BLOCK_CELLS = 1 << 14  # cells of origin_returns' block buffer


def shift_groups(offs: np.ndarray, ws: np.ndarray, shape) -> tuple:
    """The kernel (offs, ws) as dp_step's groups on a C-ordered array of ``shape``.

    Each offset becomes its flat shift, the dot product with the array's
    strides in elements, and offsets of equal weight share one group, in
    order of first appearance: a tuple of (weight, shifts) pairs.
    """
    strides = np.array([math.prod(shape[ax + 1:]) for ax in range(len(shape))], dtype=np.int64)
    shifts = np.asarray(offs, dtype=np.int64).reshape(len(ws), len(shape)) @ strides
    groups: dict = {}
    for s, w in zip(shifts, ws):
        groups.setdefault(float(w), []).append(int(s))
    return tuple((w, tuple(shifts)) for w, shifts in groups.items())


def dp_step(cur: np.ndarray, out: np.ndarray, groups, scratch: np.ndarray) -> np.ndarray:
    """out[i] = sum over (w, shifts) in groups of w * sum_s cur[m + i - s].

    One step of the forward recursion on a flat layout: ``cur`` is the span
    the step reads and ``out`` the span it writes, both 1-D, and
    m = (cur.size - out.size) / 2 is the margin of ``cur`` on each side of
    ``out``, at least the largest |shift|.  Each group's shifted spans are
    added in order and multiplied by its weight once, in ``scratch``
    (out.size cells or more) for all but the first group, which is
    written into ``out``; the groups are then added in order.  Every
    operation is on contiguous slices.
    """
    size = out.size
    m, odd = divmod(cur.size - size, 2)
    if odd or m < max(abs(s) for _, shifts in groups for s in shifts):
        raise ValueError("cur must extend past out by the largest |shift| on each side")
    acc = out
    for w, (s, *rest) in groups:
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


def origin_returns(z: np.ndarray, n: int) -> np.ndarray:
    """Grid means of z^k for k = 0..n-1 (z = charfn samples), in z's dtype.

    Power k steps at least the cells where it is at least KSUM_TOL / n, and
    the mean still divides by the full cell count, so r_k is off by less
    than KSUM_TOL / n.  The powers come in blocks of b consecutive k over
    the first power's prefix (see the module docstring); b = 1 is one
    in-place step ``g *= z``.
    """
    lens = _active_prefix(z, n)
    drop = -lens  # ascending, for searchsorted
    lens = lens.tolist()
    # a power of at least tiny / eps is normal after any rounding of its chain
    log_floor = math.log(np.finfo(z.dtype).tiny / np.finfo(z.dtype).eps)
    r = np.empty(n, dtype=z.dtype)
    g = np.ones_like(z)
    buf = np.empty(KSUM_BLOCK_CELLS, dtype=z.dtype)
    k = 0
    while k < n:
        lk = lens[k]
        b = 1
        if lk <= KSUM_BLOCK_WIDTH:
            # rows while the prefix keeps half its cells, within the buffer,
            # and while the least nonzero cell's power stays normal
            b = min(int(np.searchsorted(drop, -((lk + 1) // 2), side="right")) - k,
                    KSUM_BLOCK_CELLS // max(lk, 1))
            mod = np.abs(z[:lk])
            least = float(mod[mod > 0].min(initial=1.0))
            if least < 1.0:
                b = min(b, int(log_floor / math.log(least)) - k + 1)
        if b > 1:
            blk = buf[:b * lk].reshape(b, lk)
            blk[0] = g[:lk]
            blk[1:] = z[:lk]
            np.cumprod(blk, axis=0, out=blk)  # row j: g * z * ... * z, as j steps of g *= z
            last = blk[-1]
        else:
            blk = last = g[:lk]
        r[k:k + b] = blk.sum(axis=-1) / z.size
        k += b
        if k < n:
            lk = lens[k]
            np.multiply(last[:lk], z[:lk], out=g[:lk])
    return r


def weighted_power_sum(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_{k=0}^{n-1} r[k] * z^(n-1-k), elementwise over the grid.

    Horner's rule, k ascending, on one working grid.  With |z| <= 1 every
    earlier rounding error is multiplied by a power of |z|, so the sum
    needs no compensation.  Step k runs only on the cells where
    |z|^(n-1-k) >= KSUM_TOL / n; that prefix grows with k, and a cell
    joins at 0, which is the exact value of the terms it left out.  With
    |r_k| <= 1 each cell is off by less than KSUM_TOL.
    """
    s = np.zeros(z.shape, dtype=np.result_type(z, r))
    for rk, lk in zip(r, _active_prefix(z, len(r))[::-1]):
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
