"""Hot numeric kernels, in numpy.

Every reduction has a fixed order, so results are reproducible bit for bit.
The walkbench benchmark (``walkbench/``) times each kernel as its own layer.

Kernels:

* dp_step                      one convolution step of the forward recursion
* origin_returns               k -> mean over a torus grid of phat^k, k < n
* weighted_power_sum           sum_k r_k * phat^(n-1-k), Kahan compensated
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
    """Grid means of z^k for k = 0..n-1 (z = charfn samples, flattened)."""
    z = np.ascontiguousarray(z.reshape(-1), dtype=np.complex128)
    r = np.empty(n, dtype=np.complex128)
    g = np.ones_like(z)
    for k in range(n):
        r[k] = g.mean()
        g *= z
    return r


def weighted_power_sum(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_{k=0}^{n-1} r[k] * z^(n-1-k), elementwise over the grid.

    Kahan-compensated accumulation: the sum mixes n ~ 1e4 terms of very
    different magnitude when n is large.
    """
    shape = z.shape
    z = np.ascontiguousarray(z.reshape(-1), dtype=np.complex128)
    r = np.ascontiguousarray(r, dtype=np.complex128)
    s = np.zeros_like(z)
    c = np.zeros_like(z)
    h = np.ones_like(z)
    for k in range(r.shape[0] - 1, -1, -1):  # ascending powers of z
        term = r[k] * h
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        h = h * z
    return s.reshape(shape)


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
