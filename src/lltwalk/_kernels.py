"""Hot numeric kernels, in numpy.

Every reduction has a fixed order, so results are reproducible bit for bit,
and every kernel computes in the dtype of its input.
The walkbench benchmark (``walkbench/``) times each kernel as its own layer.

Kernels:

* dp_step                      one convolution step of the forward recursion
* origin_returns               k -> mean over a torus grid of phat^k, k < n
* weighted_power_sum           sum_k r_k * phat^(n-1-k), by Horner's rule
* pow_binary                   elementwise z^n by binary exponentiation

The two k-sums take the grid as a flat array sorted by |z|, descending
(``np.argsort(-np.abs(z), kind="stable")``), and raise ValueError on any
other input: the order is what lets them cut each cell's sum off.  A cell
takes part in power k while |z|^k >= KSUM_TOL / n.  The cells that do form
a prefix of the array, so each power works on one contiguous slice, each
dropped term is below KSUM_TOL / n in size, and no power steps a subnormal
number.
"""

from __future__ import annotations

import numpy as np

KSUM_TOL = 1e-16  # the k-sums drop every term r_k z^j with |z|^j < KSUM_TOL / n


def dp_step(cur: np.ndarray, out: np.ndarray, offs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """out(x) = sum_k ws[k] * cur(x - offs[k]) on a fixed box (zero outside).

    Works in any rank; ``offs`` has one row of integer offsets per weight
    (a flat array of offsets also serves in rank 1).
    """
    offs = offs.reshape(len(ws), cur.ndim)
    out[:] = 0.0
    shape = cur.shape
    for k in range(offs.shape[0]):
        src = []
        dst = []
        for ax in range(cur.ndim):
            s = int(offs[k, ax])
            dst.append(slice(max(0, s), shape[ax] + min(0, s)))
            src.append(slice(max(0, -s), shape[ax] - max(0, s)))
        out[tuple(dst)] += ws[k] * cur[tuple(src)]
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

    Each power steps only the cells where it is at least KSUM_TOL / n, and
    the mean still divides by the full cell count, so r_k is off by less
    than KSUM_TOL / n.
    """
    r = np.empty(n, dtype=z.dtype)
    g = np.ones_like(z)
    for k, lk in enumerate(_active_prefix(z, n)):
        g = g[:lk]
        r[k] = g.sum() / z.size
        g *= z[:lk]
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
