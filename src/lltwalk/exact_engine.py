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

Every route, the first-return recursion and both convolution powers work
on one box per (laws, n): the n-step support cut at a certified tail box
(``_box``), past which the law holds at most TAIL_TOL per cut axis.  The
cut moves the law by at most the reported ``tail_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import dp_step, origin_returns, pow_binary, shift_groups, weighted_power_sum
from .errors import CrossCheckError, NotNormalized, ResourceLimit
from .spectral import TorusGrid, charfn_grid, invert_charfn
from .walk_model import LatticeFn, LatticePMF, WalkSpec, common_box, perturbation

DEFAULT_MEM_LIMIT = 2 << 30  # bytes; generous but finite
NEGATIVE_CLAMP = 1e-14       # frequency-route roundoff threshold
ROUTE_TOL = 1e-12            # largest pointwise deviation allowed between routes
TAIL_TOL = 1e-20             # mass bound past each cut axis of the tail box
# Chernoff exponents t, in units of 1 / (the largest step along the axis)
_T_GRID = np.geomspace(1e-8, 64.0, 1024)

ROUTES = ("dp", "repr", "fourier")


@dataclass(frozen=True)
class ExactDistribution:
    """Law of the walk after n steps, with the route that produced it.

    ``tail_bound`` bounds, pointwise, how far the law on its tail box is
    from the law on the full support (0.0 when the box is the full support).
    """

    n: int
    pmf: LatticePMF
    route: str
    tail_bound: float = 0.0

    def __post_init__(self):
        if self.route not in ROUTES:
            raise ValueError(f"unknown route {self.route!r}")

    def value_at(self, x) -> float:
        return self.pmf.value_at(x)


# ---------------------------------------------------------------------------
# boxes, memory guards and the zero-halo stepper
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


def _tail(p: LatticePMF, reach: int, n: int):
    """Per axis, (s, bound): the tail box's half-width and the mass it may lose.

    s is the least integer with 2 (2n+1) phi(t)^n e^{-t (s - reach)} <= TAIL_TOL
    for some t on the grid, where phi(t) is the larger of p's moment
    generating functions at +t and -t along the axis; ``bound`` is the
    smallest value of that left side at s.  Any t > 0 gives a valid bound,
    so a fixed grid of t needs no optimizer.  With TAIL_TOL = 0, or an n
    past float range (no box that wide passes a guard), s is infinite and
    no axis is cut.
    """
    if not TAIL_TOL or n > 1e300:
        return [(math.inf, 0.0)] * p.dim
    offs, ws = p.support
    log_c = math.log(2 * (2 * n + 1))
    out = []
    for x in offs.T:
        t = _T_GRID / max(np.abs(x).max(), 1)  # keeps t x within [-64, 64]
        # ln phi as log1p of sum p (e^{tx} - 1), exact to an ulp at small t
        up, down = np.zeros_like(t), np.zeros_like(t)
        for c, w in zip(x, ws):
            up += w * np.expm1(c * t)
            down += w * np.expm1(-c * t)
        log_phi = np.log1p(np.maximum(up, down))
        s = math.ceil(reach + ((log_c - math.log(TAIL_TOL) + n * log_phi) / t).min())
        out.append((s, math.exp((log_c + n * log_phi - t * (s - reach)).min())))
    return out


def _hull_box(fns, n: int):
    """Per-axis (lo, hi) bounds of max(n, 1) steps of the hull of ``fns``: the full support."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = max(n, 1)
    return [(m * min(f.box[ax][0] for f in fns), m * max(f.box[ax][1] for f in fns))
            for ax in range(fns[0].dim)]


def _box(fns, n: int, cell_bytes: int, mem_limit: int):
    """Box holding max(n, 1) steps of the hull of ``fns``, cut at the tail box.

    ``fns[0]`` is the step law p, and each axis keeps the hull's extent
    within the half-width s of ``_tail``.  Why the cut costs at most the
    bound, pointwise, on every route: by Doob's maximal inequality a p-walk
    passes s - reach along an axis within n steps with probability at most
    phi(t)^n e^{-t (s - reach)} per side; a path of the perturbed chain,
    split at its last origin visit before it passes s (P_j(0) = r_j <= 1),
    is one jump of at most ``reach`` and then a p-walk; and by Poisson
    summation the torus aliases onto the box only mass from past s.  The
    factor 2 (2n + 1) counts both sides and every split.  Returns (lower
    corner, shape, index of the origin, tail bound), the bound summed over
    the cut axes (0.0 when none is cut).  ``cell_bytes`` guards that many
    bytes per cell of the stepper's layout of the box (``_layout``, halo
    and margin included); 0 leaves the guard to the caller.
    """
    reach = max(f.radius for f in fns)
    lo, hi = map(list, zip(*_hull_box(fns, n)))
    bound = 0.0
    for ax, (s, b) in enumerate(_tail(fns[0], reach, n)):
        if s < max(hi[ax], -lo[ax]):
            lo[ax], hi[ax] = max(lo[ax], -s), min(hi[ax], s)
            bound += b
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    if cell_bytes:
        padded, margin = _layout(shape, reach)
        _guard_cells(padded, cell_bytes, mem_limit, 2 * margin * cell_bytes)
    return lo, shape, tuple(-l for l in lo), bound


def _window(org, rad: int):
    """Slice of the box within sup-distance ``rad`` of the origin index."""
    return tuple(slice(max(0, o - rad), o + rad + 1) for o in org)


def _layout(shape, reach: int):
    """(padded shape, margin): the stepper's flat layout of a box of ``shape``.

    The box sits at the low corner of the padded shape, whose axes but the
    first extend ``reach`` cells past the box: a zero halo.  In the flat,
    row-major buffer at least ``reach`` zeros then separate any two lines
    of the box.  The buffer adds a zero margin before the first row and
    after the last of ``reach`` times the sum of the padded strides, the
    largest flat shift of a jump within ``reach``.  So each kernel offset
    is one flat shift: from a cell of the box it lands on the right cell
    when that is in the box, and in the halo or the margin when it is not.
    """
    padded = (shape[0], *(s + reach for s in shape[1:]))
    return padded, reach * sum(math.prod(padded[ax:]) for ax in range(1, len(padded) + 1))


def _at_origin(f: LatticeFn, org):
    """f's support as (index, weights), its points taken relative to the origin index."""
    pts, ws = f.support
    return tuple((pts + org).T), ws


def _walk(shape, org, reach: int, start: LatticeFn, offs, ws, n: int, scratch=None):
    """Step ``start`` n times by the kernel (offs, ws), mass past the box dropped.

    Yields (k, cur, win) for k = 0..n: ``cur`` is the state after k steps
    and ``win`` the slice within start.radius + k * reach of the origin,
    outside which ``cur`` is exactly zero.  Changes the caller makes to
    ``cur`` inside ``win`` before resuming are kept.

    ``cur`` is the box's view in one of two flat buffers laid out by
    ``_layout``.  A step writes the rows (axis 0) of the next window at the
    full padded width, by one ``dp_step`` on the span they read, then zeroes
    those rows' halo: the mass stepped past the box, dropped.  The cells
    a step skips or adds hold exact zeros, so every sum drops only +0.0
    terms and keeps its order: the result is that of stepping every row.
    ``scratch`` is dp_step's scratch (the padded box's cells); walks that
    step in turn may share one.
    """
    padded, margin = _layout(shape, reach)
    size = math.prod(padded)
    width = size // padded[0]  # cells per row, halo included
    groups = shift_groups(offs, ws, padded)
    if scratch is None:
        scratch = np.empty(size)
    halo = [(slice(None),) * ax + (slice(shape[ax], None),) for ax in range(1, len(shape))]
    bufs = [np.zeros(size + 2 * margin) for _ in range(2)]
    boxes = [buf[margin:margin + size].reshape(padded)[tuple(map(slice, shape))] for buf in bufs]
    idx, w = _at_origin(start, org)
    boxes[0][idx] = w
    rad = start.radius
    win = _window(org, rad)
    for k in range(n + 1):
        yield k, boxes[k % 2], win
        if k < n:
            win = _window(org, rad + (k + 1) * reach)
            a, b, _ = win[0].indices(shape[0])
            src, dst = bufs[k % 2], bufs[1 - k % 2]
            lo, hi = margin + a * width, margin + b * width
            dp_step(src[lo - margin:hi + margin], dst[lo:hi], groups, scratch)
            if halo:
                rows = dst[lo:hi].reshape(b - a, *padded[1:])
                for face in halo:
                    rows[face] = 0.0


def _delta(dim: int) -> LatticePMF:
    return LatticePMF.from_points(dim, {(0,) * dim: 1})


def _law(lo, w: np.ndarray) -> LatticePMF:
    """A route's law ``w`` on the box at ``lo``: roundoff zeroed, sign and mass checked.

    When the smallest weight is negative, every cell no larger in size than
    it is roundoff, positive or negative, and is zeroed: dropping only the
    negative half would add mass.  A weight below -NEGATIVE_CLAMP, or a
    mass that LatticePMF rejects, is a failed route: CrossCheckError.
    """
    worst = w.min()
    if worst < -NEGATIVE_CLAMP:
        raise CrossCheckError(f"inverted mass has negative weight {float(worst)!r}")
    if worst < 0:
        w = np.where(w <= -worst, 0.0, w)
    try:
        return LatticePMF(dim=w.ndim, offset=np.array(lo, dtype=np.int64), weights=w)
    except NotNormalized as exc:
        raise CrossCheckError(f"route law: {exc}") from None


# ---------------------------------------------------------------------------
# the two pipelines: forward stepping and the torus grid
# ---------------------------------------------------------------------------

def _forward(p: LatticePMF, a: LatticeFn, hull, n: int, mem_limit: int):
    """Step from the origin n times by p; mass at the origin also moves by a.

    The box holds n steps of ``hull`` and the origin, where the walk starts,
    cut at the tail box; mass stepped past it is dropped.  Returns the law
    and the box's tail bound.
    """
    lo, shape, org, bound = _box((*hull, _delta(p.dim)), n, 24, mem_limit)  # two buffers + scratch
    offs, ws = p.support
    a_idx, a_ws = _at_origin(a, org)
    reach = max(f.radius for f in hull)

    m0 = 0.0
    for _, cur, _ in _walk(shape, org, reach, _delta(p.dim), offs, ws, n):
        # transition from the origin differs from p by exactly a = q - p
        if m0 != 0.0:
            cur[a_idx] += m0 * a_ws
        m0 = cur[org]
    return _law(lo, cur.copy()), bound  # a copy: the law without the stepper's halo


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


def _fourier(p: LatticePMF, a: LatticeFn, hull, n: int, mem_limit: int):
    """p^{*n} + a * sum_k r_k p^{*(n-1-k)} on a torus grid, inverted exactly.

    r_k = p^{*k}(0) are the unperturbed origin returns; with a = 0 this is
    the convolution power p^{*n}.  The grid is the smallest odd size
    covering the box of n steps of ``hull`` cut at the tail box, so the
    law's mass past the box aliases onto it; the box's tail bound, returned
    with the law, covers that.
    """
    perturbed = n > 0 and a.weights.any()
    lo, shape, _, bound = _box(hull, n, 0, mem_limit)
    m = max(shape) | 1
    # the peak, 64 bytes per grid cell, is binary exponentiation's four complex
    # grids; the inversion takes 32 on top of the power.  When perturbed, the
    # k-sums add 32 n bytes: r_k and, in _kernels._active_prefix, the roots,
    # their prefix lengths and the concatenated result, all of length n.  On
    # a tail grid they outweigh the grid in 1-D (m is about 960 at n = 4096).
    _guard_cells((m,) * p.dim, 64, mem_limit, 32 * n if perturbed else 0)

    z = charfn_grid(p, m).values
    total = pow_binary(z, n)
    if perturbed:
        # p is symmetric, so its transform is real up to the FFT's roundoff
        drift = float(np.abs(z.imag).max())
        if drift > 1e-12:
            raise CrossCheckError(f"transform of p has imaginary part {drift!r}")
        z = np.ascontiguousarray(z.real)  # drops the complex samples
        # W first: its sort buffers and z are gone before the transform of a exists
        w = _correction_sum(z, n)
        del z
        total += w * charfn_grid(a, m).values
        del w
    else:
        del z
    # only the law's transform is left for the inversion, where the peak is
    spatial = invert_charfn(TorusGrid(dim=p.dim, m=m, values=total), offset=lo, shape=shape)
    return _law(lo, spatial.weights), bound


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
    return pipeline(p, perturbation(p, p), (p,), n, mem_limit)[0]


# ---------------------------------------------------------------------------
# perturbed chain, three routes
# ---------------------------------------------------------------------------

def perturbed_forward(
    spec: WalkSpec, n: int, mem_limit: int = DEFAULT_MEM_LIMIT
) -> ExactDistribution:
    """Forward recursion: origin mass exits by q, the rest steps by p."""
    pmf, bound = _forward(spec.p, spec.a, (spec.p, spec.q), n, mem_limit)
    return ExactDistribution(n=n, pmf=pmf, route="dp", tail_bound=bound)


def perturbed_via_representation(
    spec: WalkSpec, n: int, mem_limit: int = DEFAULT_MEM_LIMIT
) -> ExactDistribution:
    """Unperturbed power plus origin-return-weighted correction, in space.

    One walk steps u = p^{*k} and records r_k = u(0); a second then steps
    the Horner accumulator S <- p * S + r_k * a, which starts at a (r_0 = 1).
    After n - 1 steps S = a * W with W = sum_k r_k * p^{*(n-1-k)}, and the
    result is p^{*n} + S.  Stepping a inside S keeps the decomposition
    exact on the tail box too: mass stepped past it is dropped as the
    ``dp`` route drops it.  p averages, so each rounding is carried forward
    without growth and the sum needs no compensation.  Requires the
    antisymmetry of a (which WalkSpec guarantees): paths revisiting the
    origin then contribute nothing to the correction.
    """
    # u's last buffer, the S walk's two + the scratch the walks share
    lo, shape, org, bound = _box((spec.p, spec.q), n, 32, mem_limit)
    offs, ws = spec.p.support
    perturbed = n > 0 and spec.a.weights.any()
    a_idx, a_ws = _at_origin(spec.a, org)

    scratch = np.empty(math.prod(_layout(shape, spec.radius)[0]))
    r = []
    for _, u, _ in _walk(shape, org, spec.radius, _delta(spec.nu), offs, ws, n, scratch):
        r.append(u[org])
    s_steps = _walk(shape, org, spec.radius, spec.a, offs, ws, n - 1, scratch) if perturbed else ()
    for k, s, _ in s_steps:
        if k:
            s[a_idx] += r[k] * a_ws
    del scratch  # the walks are done; the law's array below takes its place
    u = u + s if perturbed else u.copy()  # the law, without the stepper's halo

    return ExactDistribution(n=n, pmf=_law(lo, u), route="repr", tail_bound=bound)


def perturbed_fourier(
    spec: WalkSpec, n: int, mem_limit: int = DEFAULT_MEM_LIMIT
) -> ExactDistribution:
    """Frequency-domain assembly of the same decomposition, inverted exactly."""
    pmf, bound = _fourier(spec.p, spec.a, (spec.p, spec.q), n, mem_limit)
    return ExactDistribution(n=n, pmf=pmf, route="fourier", tail_bound=bound)


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
    fv, gv = common_box((f.weights, f.offset), (g.weights, g.offset))
    fv -= gv
    return float(np.abs(fv).max())


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
    against symmetric return paths); the suite checks 1e-12.  The recursion
    runs on the tail box of n_max steps, so each value is within that box's
    tail bound of its full-support value.
    """
    _, shape, org, _ = _box((spec.p, spec.q), n_max, 24, mem_limit)
    p_offs, p_ws = spec.p.support

    def taboo(first_step: LatticeFn) -> np.ndarray:
        f = np.empty(n_max)
        for m, cur, _ in _walk(shape, org, spec.radius, first_step, p_offs, p_ws, n_max - 1):
            f[m] = cur[org]
            cur[org] = 0.0
        return f

    return taboo(spec.q), taboo(spec.p)
