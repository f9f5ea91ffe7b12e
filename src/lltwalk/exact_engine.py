"""Exact finite-n laws of the walk by three independent routes.

Routes:

* ``dp``      forward recursion on the transition rule (mass at the origin
              steps by the exit law, everything else by the step law);
* ``repr``    the closed-form decomposition of the perturbed law into the
              unperturbed convolution power plus an origin-return-weighted
              correction sum, evaluated by Horner's rule in space;
* ``fourier`` the same decomposition assembled on a torus grid from powers
              of the characteristic function and inverted exactly.

All three must agree to ROUTE_TOL (1e-12) pointwise; ``cross_check`` enforces that.
Convolution powers use pointwise powers of characteristic-function samples
on a grid wide enough that the result is recovered exactly (the sampled
transform is a trigonometric polynomial below the grid bandwidth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import dp_step, origin_returns, pow_binary, weighted_power_sum
from .errors import CrossCheckError, ResourceLimit
from .spectral import TorusGrid, charfn_grid, invert_charfn
from .walk_model import LatticeFn, LatticePMF, WalkSpec

DEFAULT_MEM_LIMIT = 2 << 30  # bytes; generous but finite
NEGATIVE_CLAMP = 1e-14       # frequency-route roundoff threshold
ROUTE_TOL = 1e-12            # largest pointwise deviation allowed between routes

ROUTES = ("dp", "repr", "fourier")


@dataclass(frozen=True)
class ExactDistribution:
    """Law of the walk after n steps, with the route that produced it."""

    n: int
    pmf: LatticePMF
    route: str

    def __post_init__(self):
        if self.route not in ROUTES:
            raise ValueError(f"unknown route {self.route!r}")
        tot = self.pmf.total()
        if abs(tot - 1.0) > 1e-10:
            raise CrossCheckError(f"distribution mass {tot!r} is off by more than 1e-10")

    def value_at(self, x) -> float:
        return self.pmf.value_at(x)


# ---------------------------------------------------------------------------
# boxes, memory guards and the reachable-window stepper
# ---------------------------------------------------------------------------

def _guard_cells(shape, itemsize: int, mem_limit: int, extra: int = 0):
    """Raise ResourceLimit if ``shape`` cells of ``itemsize`` bytes plus ``extra`` pass the cap."""
    need = math.prod(shape) * itemsize + extra
    if need > mem_limit:
        mib = need / 2**20 if need < 2**1000 else math.inf  # a float division would overflow
        raise ResourceLimit(
            f"needs {mib:.0f} MiB for shape {tuple(shape)}, "
            f"cap is {mem_limit / 2**20:.0f} MiB"
        )


def _box(fns, n: int, cell_bytes: int, mem_limit: int):
    """Box holding max(n, 1) steps of the hull of ``fns``, guarded at ``cell_bytes``.

    Returns (lower corner, shape, index of the origin).  ``cell_bytes = 0``
    leaves the guard to the caller.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = max(n, 1)
    lo = [m * min(f.box[ax][0] for f in fns) for ax in range(fns[0].dim)]
    hi = [m * max(f.box[ax][1] for f in fns) for ax in range(fns[0].dim)]
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    if cell_bytes:
        _guard_cells(shape, cell_bytes, mem_limit)
    return lo, shape, tuple(-l for l in lo)


def _window(org, rad: int):
    """Slice of the box within sup-distance ``rad`` of the origin index."""
    return tuple(slice(max(0, o - rad), o + rad + 1) for o in org)


def _walk(shape, org, reach: int, start: LatticeFn, offs, ws, n: int):
    """Step ``start`` n times by the kernel (offs, ws) on a zero-padded box.

    Yields (k, cur, win) for k = 0..n: ``cur`` is the state after k steps
    and ``win`` the slice within start.radius + k * reach of the origin,
    outside which ``cur`` is exactly zero.  Changes the caller makes to
    ``cur`` inside ``win`` before resuming are kept.  Each step convolves
    only the next window; the cells it skips hold exact zeros, so every sum
    drops only +0.0 terms and keeps its order.
    """
    cur = np.zeros(shape)
    for pt, w in start.points():
        cur[tuple(o + c for o, c in zip(org, pt))] = w
    out = np.zeros(shape)
    rad = start.radius
    win = _window(org, rad)
    for k in range(n + 1):
        yield k, cur, win
        if k < n:
            win = _window(org, rad + (k + 1) * reach)
            dp_step(cur[win], out[win], offs, ws)
            cur, out = out, cur


def _delta(dim: int) -> LatticePMF:
    return LatticePMF.from_points(dim, {(0,) * dim: 1})


def _clamp_tiny_negatives(w: np.ndarray) -> np.ndarray:
    """Zero the frequency route's roundoff; reject real negative mass.

    When the smallest weight is negative, every cell no larger in size than
    it is roundoff, positive or negative, and is zeroed: dropping only the
    negative half would add mass.
    """
    worst = w.min()
    if worst < -NEGATIVE_CLAMP:
        raise CrossCheckError(f"inverted mass has negative weight {worst!r}")
    if worst >= 0:
        return w
    return np.where(w <= -worst, 0.0, w)


def _kernel_arrays(f: LatticeFn):
    pts = list(f.points())
    offs = np.array([pt for pt, _ in pts], dtype=np.int64).reshape(len(pts), f.dim)
    ws = np.array([w for _, w in pts])
    return offs, ws


# ---------------------------------------------------------------------------
# the two pipelines: forward stepping and the torus grid
# ---------------------------------------------------------------------------

def _forward(p: LatticePMF, a: LatticeFn | None, hull, n: int, mem_limit: int) -> LatticePMF:
    """Step from the origin n times by p; mass at the origin also moves by a.

    The box holds n steps of ``hull`` and the origin, where the walk starts.
    """
    lo, shape, org = _box((*hull, _delta(p.dim)), n, 24, mem_limit)  # two buffers + one product
    offs, ws = _kernel_arrays(p)
    a_pts = list(a.points()) if a is not None else []
    reach = max(f.radius for f in hull)

    m0 = 0.0
    for _, cur, _ in _walk(shape, org, reach, _delta(p.dim), offs, ws, n):
        # transition from the origin differs from p by exactly a = q - p
        if m0 != 0.0:
            for pt, w in a_pts:
                cur[tuple(o + c for o, c in zip(org, pt))] += m0 * w
        m0 = cur[org]
    return LatticePMF(dim=p.dim, offset=np.array(lo, dtype=np.int64), weights=cur)


def _correction_sum(z: np.ndarray, n: int) -> np.ndarray:
    """W = sum_k r_k z^(n-1-k) per cell of the real grid z, k-sums cut off.

    The kernels take the cells sorted by |z|, descending; W is scattered
    back to the grid's order.  Each r_k is off by less than KSUM_TOL / n
    and W by less than 2 KSUM_TOL (see ``_kernels``).
    """
    order = np.argsort(-np.abs(z), axis=None, kind="stable")
    cells = z.ravel()[order]
    # W goes back to grid order in the sorted copy's buffer
    cells[order] = weighted_power_sum(cells, origin_returns(cells, n))
    return cells.reshape(z.shape)


def _fourier(p: LatticePMF, a: LatticeFn | None, hull, n: int, mem_limit: int) -> LatticePMF:
    """p^{*n} + a * sum_k r_k p^{*(n-1-k)} on a torus grid, inverted exactly.

    r_k = p^{*k}(0) are the unperturbed origin returns; without ``a`` (or
    with a = 0) this is the convolution power p^{*n}.  The grid is the
    smallest odd size covering the box of n steps of ``hull``.
    """
    perturbed = a is not None and n > 0 and bool(a.as_dict())
    lo, shape, _ = _box(hull, n, 0, mem_limit)
    m = max(shape) | 1
    # the peak, in bytes per grid cell, is the inversion's three complex grids
    # on top of the power and z, which is complex (16) or, when perturbed,
    # real (8); the real r_k add 8 n bytes
    cell_bytes, extra = (72, 8 * n) if perturbed else (80, 0)
    _guard_cells((m,) * p.dim, cell_bytes, mem_limit, extra)

    z = charfn_grid(p, m).values
    total = pow_binary(z, n)
    if perturbed:
        # p is symmetric, so its transform is real up to the FFT's roundoff
        drift = float(np.abs(z.imag).max())
        if drift > 1e-12:
            raise CrossCheckError(f"transform of p has imaginary part {drift!r}")
        z = np.ascontiguousarray(z.real)  # drops the complex samples
        # W first: its sort buffers are gone before the transform of a exists
        total += _correction_sum(z, n) * charfn_grid(a, m).values
    spatial = invert_charfn(TorusGrid(dim=p.dim, m=m, values=total), offset=lo, shape=shape)
    w = _clamp_tiny_negatives(spatial.weights)
    return LatticePMF(dim=p.dim, offset=np.array(lo, dtype=np.int64), weights=w)


def convolve_power(
    p: LatticePMF,
    n: int,
    method: str = "fft",
    mem_limit: int = DEFAULT_MEM_LIMIT,
) -> LatticePMF:
    """n-fold self-convolution of a pmf: the a = 0 case of both pipelines.

    ``method="fft"`` takes a pointwise n-th power of charfn samples on a
    sufficiently fine grid (exact; O(M^nu log n) via binary exponentiation);
    ``method="direct"`` iterates spatial convolution.  The two agree to
    machine precision and the test suite holds them to that.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return _delta(p.dim)
    if n == 1:
        return p
    try:
        pipeline = {"fft": _fourier, "direct": _forward}[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None
    return pipeline(p, None, (p,), n, mem_limit)


# ---------------------------------------------------------------------------
# perturbed chain, three routes
# ---------------------------------------------------------------------------

def perturbed_forward(
    spec: WalkSpec, n: int, mem_limit: int = DEFAULT_MEM_LIMIT
) -> ExactDistribution:
    """Forward recursion: origin mass exits by q, the rest steps by p."""
    pmf = _forward(spec.p, spec.a, (spec.p, spec.q), n, mem_limit)
    return ExactDistribution(n=n, pmf=pmf, route="dp")


def perturbed_via_representation(
    spec: WalkSpec, n: int, mem_limit: int = DEFAULT_MEM_LIMIT
) -> ExactDistribution:
    """Unperturbed power plus origin-return-weighted correction, in space.

    One pass steps u = p^{*k} and, in lockstep, the Horner accumulator
    S <- p * S + r_k, where r_k = u(0) and S starts at delta (r_0 = 1).
    After n - 1 steps S = W = sum_k r_k * p^{*(n-1-k)}, and the result is
    p^{*n} + a * W.  Every term is nonnegative and p averages, so each
    rounding is carried forward without growth and the sum needs no
    compensation.  Requires the antisymmetry of a (which WalkSpec
    guarantees): paths revisiting the origin then contribute nothing to
    the correction.
    """
    # four stepping buffers + one product
    lo, shape, org = _box((spec.p, spec.q), n, 40, mem_limit)
    offs, ws = _kernel_arrays(spec.p)
    delta = _delta(spec.nu)
    perturbed = n > 0 and bool(spec.a.as_dict())

    u_steps = _walk(shape, org, spec.radius, delta, offs, ws, n)
    s_steps = _walk(shape, org, spec.radius, delta, offs, ws, n - 1) if perturbed else ()
    # S first: zip stops when it runs out, before taking u's last step
    for (k, s, _), (_, u, _) in zip(s_steps, u_steps):
        if k:
            s[org] += u[org]
    for _, u, _ in u_steps:
        pass

    if perturbed:
        a_offs, a_ws = _kernel_arrays(spec.a)
        u += dp_step(s, np.empty(shape), a_offs, a_ws)
        u = _clamp_tiny_negatives(u)

    return ExactDistribution(
        n=n,
        pmf=LatticePMF(dim=spec.nu, offset=np.array(lo, dtype=np.int64), weights=u),
        route="repr",
    )


def perturbed_fourier(
    spec: WalkSpec, n: int, mem_limit: int = DEFAULT_MEM_LIMIT
) -> ExactDistribution:
    """Frequency-domain assembly of the same decomposition, inverted exactly."""
    pmf = _fourier(spec.p, spec.a, (spec.p, spec.q), n, mem_limit)
    return ExactDistribution(n=n, pmf=pmf, route="fourier")


_ROUTE_FNS = {
    "dp": perturbed_forward,
    "repr": perturbed_via_representation,
    "fourier": perturbed_fourier,
}


def perturbed_distribution(
    spec: WalkSpec, n: int, route: str = "fourier", mem_limit: int = DEFAULT_MEM_LIMIT
) -> ExactDistribution:
    try:
        fn = _ROUTE_FNS[route]
    except KeyError:
        raise ValueError(f"unknown route {route!r}; use one of {ROUTES}") from None
    return fn(spec, n, mem_limit=mem_limit)


# ---------------------------------------------------------------------------
# comparisons and cross-checks
# ---------------------------------------------------------------------------

def max_abs_difference(f: LatticeFn, g: LatticeFn) -> float:
    """Max pointwise |f - g| over the union of the two boxes."""
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    lo = [min(f.box[ax][0], g.box[ax][0]) for ax in range(f.dim)]
    hi = [max(f.box[ax][1], g.box[ax][1]) for ax in range(f.dim)]
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    diff = np.zeros(shape)
    sl_f = tuple(
        slice(f.box[ax][0] - lo[ax], f.box[ax][0] - lo[ax] + f.weights.shape[ax])
        for ax in range(f.dim)
    )
    sl_g = tuple(
        slice(g.box[ax][0] - lo[ax], g.box[ax][0] - lo[ax] + g.weights.shape[ax])
        for ax in range(g.dim)
    )
    diff[sl_f] += f.weights
    diff[sl_g] -= g.weights
    return float(np.abs(diff).max())


def cross_check(
    spec: WalkSpec,
    n: int,
    tol: float = ROUTE_TOL,
    mem_limit: int = DEFAULT_MEM_LIMIT,
):
    """Run all three routes and compare pointwise.

    Returns (dists, max_pairwise_deviation); raises CrossCheckError when the
    deviation exceeds tol.
    """
    dists = {r: perturbed_distribution(spec, n, route=r, mem_limit=mem_limit) for r in ROUTES}
    worst = 0.0
    names = list(dists)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            worst = max(worst, max_abs_difference(dists[names[i]].pmf, dists[names[j]].pmf))
    if worst > tol:
        raise CrossCheckError(
            f"routes {names} disagree by {worst:.3e} (tolerance {tol:.1e}) at n={n}"
        )
    return dists, worst


def first_return_probs(
    spec: WalkSpec, n_max: int, mem_limit: int = DEFAULT_MEM_LIMIT
):
    """First-return laws f_n(0) (perturbed) and f'_n(0) (unperturbed), n <= n_max.

    Taboo recursion: mass reaching the origin is recorded and removed, so
    what survives never revisited it.  The two sequences agree exactly in
    theory (the antisymmetric part of the exit law integrates to zero
    against symmetric return paths); the suite checks 1e-12.
    """
    _, shape, org = _box((spec.p, spec.q), n_max, 24, mem_limit)
    p_offs, p_ws = _kernel_arrays(spec.p)

    def taboo(first_step: LatticeFn) -> np.ndarray:
        f = np.empty(n_max)
        for m, cur, _ in _walk(shape, org, spec.radius, first_step, p_offs, p_ws, n_max - 1):
            f[m] = cur[org]
            cur[org] = 0.0
        return f

    return taboo(spec.q), taboo(spec.p)
