"""Hot numeric kernels, in numpy.

Every reduction has a fixed order, so results are reproducible bit for bit,
and every kernel computes in the dtype of its input.
The walkbench benchmark (``walkbench/``) times each kernel as its own layer.

Kernels:

* dp_step                      one convolution step of the forward recursion
* origin_returns               k -> mean over a torus grid of phat^k, k < n
* weighted_power_sum           sum_k r_k * phat^(n-1-k), by Horner's rule
* pow_binary                   elementwise z^n by binary exponentiation
"""

from __future__ import annotations

import numpy as np


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


def origin_returns(z: np.ndarray, n: int) -> np.ndarray:
    """Grid means of z^k for k = 0..n-1 (z = charfn samples), in z's dtype."""
    r = np.empty(n, dtype=z.dtype)
    g = np.ones_like(z)
    for k in range(n):
        r[k] = g.mean()
        g *= z
    return r


def weighted_power_sum(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_{k=0}^{n-1} r[k] * z^(n-1-k), elementwise over the grid.

    Horner's rule, k ascending, on one working grid.  With |z| <= 1 every
    earlier rounding error is multiplied by a power of |z|, so the sum
    needs no compensation.
    """
    s = np.zeros(z.shape, dtype=np.result_type(z, r))
    for rk in r:
        s *= z
        s += rk
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
