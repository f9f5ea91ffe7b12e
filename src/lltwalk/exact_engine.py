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
import sys
from dataclasses import dataclass

import numpy as np

from ._kernels import (
    KsumPlan, dp_step, ksum_plan, origin_returns, pow_binary, shift_groups, weighted_power_sum,
)
from .errors import CrossCheckError, NotNormalized, ResourceLimit
from .spectral import (
    TorusGrid, charfn_grid, charfn_peak_bytes, half_pairs, half_shape, invert_charfn,
)
from .walk_model import LatticeFn, LatticePMF, WalkSpec, common_box, perturbation

DEFAULT_MEM_LIMIT = 2 << 30  # bytes; generous but finite
NEGATIVE_CLAMP = 1e-14       # frequency-route roundoff threshold
ROUTE_TOL = 1e-12            # largest pointwise deviation allowed between routes
TAIL_TOL = 1e-20             # mass bound past each cut axis of the tail box
# numpy imports numpy.fft on the first transform in a process, and its
# modules stay: 118 to 123 KB by tracemalloc (numpy 2.4, Python 3.11)
FFT_LOAD_BYTES = 128 << 10
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
        # ln phi as log1p of sum p (e^{tx} - 1), exact to an ulp at small t;
        # add.reduce over axis 0 adds the support's rows in order
        ct = np.multiply.outer(x, t)
        up = np.add.reduce(ws[:, None] * np.expm1(ct), axis=0)
        down = np.add.reduce(ws[:, None] * np.expm1(-ct), axis=0)
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


def _box(fns, n: int):
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
    the cut axes (0.0 when none is cut).
    """
    reach = max(f.radius for f in fns)
    lo, hi = map(list, zip(*_hull_box(fns, n)))
    bound = 0.0
    for ax, (s, b) in enumerate(_tail(fns[0], reach, n)):
        if s < max(hi[ax], -lo[ax]):
            lo[ax], hi[ax] = max(lo[ax], -s), min(hi[ax], s)
            bound += b
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    org = tuple(-l for l in lo)
    return lo, shape, org, bound


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


def _parity(f: LatticeFn, ax: int) -> int:
    """1 if f is even on axis ``ax`` (f = 0 included), -1 if it is odd, 0 if neither.

    That is, f's box is centred there and its float weights equal their
    mirror image ``np.flip(w, ax)``, or its negation.  The floats decide, not
    the exact weights: ``_unit_sum`` folds its residual into +-x orbits,
    which need not be even axis by axis.
    """
    if f.box[ax][0] != -f.box[ax][1]:
        return 0
    mirror = np.flip(f.weights, ax)
    return 1 if np.array_equal(f.weights, mirror) else -1 if np.array_equal(f.weights, -mirror) else 0


def _fold_axes(*laws) -> tuple:
    """The axes the stepper may fold: p = ``laws[0]`` is even on each, every other law even or odd."""
    return tuple(ax for ax in range(laws[0].dim)
                 if _parity(laws[0], ax) == 1 and all(_parity(f, ax) for f in laws[1:]))


class _Stepper:
    """One route's zero-halo stepper: walks by p on the tail box, mass past it dropped.

    ``laws`` are the step law p, which every walk steps by, and then every
    law a walk starts from or adds; the box holds max(n, 1) steps of their
    hull and the origin, cut at the tail box (``_box``: ``lo``, ``shape``
    and ``bound``).  The stepper folds the box on the axes where p is even
    and every other law even or odd (``_fold_axes``), so that each walk's
    state keeps its start law's parity.  On a folded axis i the box keeps
    the cells x_i >= -w_i, where w_i is p's reach along i: a step of the
    cells x_i >= 0 reads no further, and the w_i mirror cells below 0 are
    copies of x_i = 1..w_i, negated where the walk is odd.  The laws a
    route starts from or adds lie there too: q = p + a and q(-x) = p(x) -
    a(x) are nonnegative, so |a| <= p and neither a nor q reaches past p.
    ``origin`` is the origin's index on the folded box, which with no fold
    is the box itself.

    Each walk's state lives in one of two flat buffers laid out by
    ``_layout`` with the folded axes first, and one ``dp_step`` scratch
    (the padded layout's cells) serves every walk of the route, in turn.
    The guard charges ``cell_bytes`` per cell of that layout, halo and
    margin included.  A route that returns a law holds ``held`` of the
    walks' buffers (8 bytes a layout cell) as ``unfold`` builds the law on
    the box (8 bytes a box cell), and the guard charges the larger of the
    two phases: folded, the law can outweigh the layout, which holds about
    a quarter of the box in 3-D.  The law is then zeroed and renormalized
    in place (``_law``), once the route has dropped the walks' buffers.  A
    route that also unfolds laws mid-walk charges the largest of them,
    ``snapshot`` bytes, on top of every cell of the layout.  ``nbytes`` is
    the guard's charge.
    """

    def __init__(self, laws, n: int, mem_limit: int, cell_bytes: int, held: int = 0,
                 snapshot: int = 0):
        p = laws[0]
        self.lo, self.shape, org, self.bound = _box((*laws, _delta(p.dim)), n)
        reach = max(f.radius for f in laws)
        offs, ws = p.support
        widths = {ax: int(np.abs(offs[:, ax]).max(initial=0)) for ax in _fold_axes(*laws)}
        self.origin = tuple(widths.get(ax, o) for ax, o in enumerate(org))
        perm = (*widths, *(ax for ax in range(p.dim) if ax not in widths))  # folded axes first
        pshape = [org[ax] + widths[ax] + 1 if ax in widths else self.shape[ax] for ax in perm]
        padded, margin = _layout(pshape, reach)
        layout = math.prod(padded) + 2 * margin
        law = 8 * held * layout + 8 * math.prod(self.shape) if held else 0
        extra = 2 * margin * cell_bytes + max(snapshot, law - cell_bytes * layout)
        if any(_parity(f, ax) < 0 for f in laws[1:] for ax in widths):
            # an odd walk's ufuncs on strided views take iterator buffers, 3 operands' at most
            extra += 24 * np.getbufsize()
        _guard_cells(padded, cell_bytes, mem_limit, extra)
        self.nbytes = math.prod(padded) * cell_bytes + extra
        self._org, self._widths, self._perm, self._reach = org, widths, perm, reach
        self._pshape, self._padded, self._margin = pshape, padded, margin
        self._groups = shift_groups(offs[:, perm], ws, padded)
        self._scratch = np.empty(math.prod(padded))

    def index(self, f: LatticeFn):
        """f's support as (index on the folded box, weights)."""
        pts, ws = f.support
        return tuple((pts + self.origin).T), ws

    def odd_axes(self, f: LatticeFn) -> tuple:
        """The folded axes on which f is odd; ValueError if f is neither even nor odd on one."""
        signs = {ax: _parity(f, ax) for ax in self._widths}
        if not all(signs.values()):
            raise ValueError("a walk's law must be even or odd on every folded axis")
        return tuple(ax for ax, sign in signs.items() if sign < 0)

    def walk(self, start: LatticeFn, steps: int, horizon: bool = False):
        """Step ``start`` ``steps`` times by p, mass past the box dropped.

        Yields (k, cur) for k = 0..steps: ``cur`` is the state after k steps
        on the folded box, a view in the box's axis order of one of the
        walk's two buffers, and is exactly zero past start.radius + k * reach
        of ``origin``.  Changes the caller makes to ``cur`` within that
        window before resuming are kept; on a folded box they must keep
        start's parity (``odd_axes``), every mirror cell changed as its
        image, negated on an odd axis, whose x_i = 0 plane stays 0.  With
        ``horizon`` only the origin's value is kept: a step leaves the rows
        past (steps - k - 1) * reach of the origin's row, which can no
        longer reach it, holding an earlier state's values.

        A step writes the rows (axis 0 of the layout) of the next window at
        the full padded width, by one ``dp_step`` on the span they read,
        then zeroes those rows' halo: the mass stepped past the box,
        dropped.  The cells a step skips or adds hold exact zeros, so every
        sum drops only +0.0 terms and keeps its order: the result is that
        of stepping every row.  On a folded box a step covers the cells
        x_i >= 0 and then refills the mirror cells from x_i = 1..w_i, the
        inner folded axes in the stepped rows first and then axis 0, whose
        mirror cells are whole rows.  On an odd axis they take the negated
        image, and the x_i = 0 plane, which the full box's summation order
        leaves at roundoff, is set to 0.  Every state keeps start's parity,
        so this is the full box's walk with each mirror cell read from its
        image.
        """
        pshape, padded, margin = self._pshape, self._padded, self._margin
        size = math.prod(padded)
        width = size // padded[0]  # cells per row, halo included
        widths = [self._widths.get(ax, 0) for ax in self._perm]
        odd_axes = self.odd_axes(start)
        odd = [ax in odd_axes for ax in self._perm]  # in the layout's axis order
        lead = [(slice(None),) * ax for ax in range(len(pshape))]
        halo = [lead[ax] + (slice(pshape[ax], None),) for ax in range(1, len(pshape))]
        mirror = [(lead[ax] + (slice(0, w),), lead[ax] + (slice(2 * w, w, -1),), odd[ax])
                  for ax, w in enumerate(widths) if ax and w]
        planes = [lead[ax] + (w,) for ax, w in enumerate(widths) if ax and odd[ax]]
        first = widths[0]  # axis 0's mirror rows
        o = self.origin[self._perm[0]]  # the origin's row
        bufs = [np.zeros(size + 2 * margin) for _ in range(2)]
        order = np.argsort(self._perm)
        boxes = [buf[margin:margin + size].reshape(padded)[tuple(map(slice, pshape))].transpose(order)
                 for buf in bufs]
        idx, w = self.index(start)
        boxes[0][idx] = w
        rad = start.radius
        for k in range(steps + 1):
            yield k, boxes[k % 2]
            if k < steps:
                rad += self._reach
                near = min(rad, (steps - k - 1) * self._reach) if horizon else rad
                a, b = max(0, o - near, first), min(pshape[0], o + near + 1)
                src, dst = bufs[k % 2], bufs[1 - k % 2]
                lo, hi = margin + a * width, margin + b * width
                dp_step(src[lo - margin:hi + margin], dst[lo:hi], self._groups, self._scratch)
                if halo:
                    rows = dst[lo:hi].reshape(b - a, *padded[1:])
                    for face in halo:
                        rows[face] = 0.0
                    for plane in planes:
                        rows[plane] = 0.0
                    for to, image, neg in mirror:
                        if neg:
                            np.negative(rows[image], out=rows[to])
                        else:
                            rows[to] = rows[image]
                if first:
                    rows = dst[margin:margin + size].reshape(padded[0], width)
                    if odd[0]:
                        np.negative(rows[2 * first:first:-1], out=rows[:first])
                        rows[o] = 0.0
                    else:
                        rows[:first] = rows[2 * first:first:-1]

    def unfold(self, part, odd=(), box=None, walking: bool = False, out=None):
        """The folded ``part`` on ``box``, every folded axis mirrored, negated on ``odd``'s.

        ``box`` is (lower corner, shape) of a box within the stepper's, by
        default the stepper's own.  Each orthant of the box (x_i >= 0 or
        x_i < 0 on each folded axis) is one copy of the part's cells
        x_i >= 0, reversed where x_i < 0 and there negated on each axis of
        ``odd``: the law is exactly even, or odd, on every folded axis.
        With no fold this is the part itself.  With ``out`` the law is
        added to ``out``, cell by cell.  Once the walks are done the scratch
        goes before the law is built; ``walking`` keeps it for the steps to
        come, and then the part, a walk's state, is only read.
        """
        if not walking:
            self._scratch = None
        lo, shape = box or (self.lo, self.shape)
        # per axis, the (box, folded box, negated) slices of each orthant
        pieces = [((), (), False)]
        for ax, (l, size) in enumerate(zip(lo, shape)):
            o, w = -l, self._widths.get(ax)
            if w is None:
                at = self._org[ax] - o
                sides = [(slice(None), slice(at, at + size), False)]
            else:
                sides = [(slice(o, None), slice(w, w + size - o), False),
                         (slice(0, o), slice(w + o, w, -1), ax in odd)]
            pieces = [(dst + (d,), src + (s,), neg ^ n) for dst, src, neg in pieces
                      for d, s, n in sides]
        fresh = out is None
        out = np.empty(shape) if fresh else out
        for dst, src, neg in pieces:
            view = out[dst]
            if not fresh:
                (np.subtract if neg else np.add)(view, part[src], out=view)
            elif neg:
                np.negative(part[src], out=view)
            else:
                np.copyto(view, part[src])  # unbuffered, where a ufunc on strided views is not
        return out


def _delta(dim: int) -> LatticePMF:
    return LatticePMF.from_points(dim, {(0,) * dim: 1})


def _law(lo, w: np.ndarray) -> LatticePMF:
    """A route's law ``w`` on the box at ``lo``: roundoff zeroed, sign and mass checked.

    When the smallest weight is negative, every cell no larger in size than
    it is roundoff, positive or negative, and is zeroed: dropping only the
    negative half would add mass.  A weight below -NEGATIVE_CLAMP, or a
    mass that LatticePMF rejects, is a failed route: CrossCheckError.
    A writeable ``w`` becomes the law's array, zeroed and renormalized in
    place, so a stepper route's guard need not charge a second copy.
    """
    worst = w.min()
    if worst < -NEGATIVE_CLAMP:
        raise CrossCheckError(f"inverted mass has negative weight {float(worst)!r}")
    if worst < 0:
        if not w.flags.writeable:
            w = w.copy()  # the torus route's inverted law is frozen
        np.putmask(w, w <= -worst, 0.0)
    try:
        return LatticePMF(dim=w.ndim, offset=np.array(lo, dtype=np.int64), weights=w)
    except NotNormalized as exc:
        raise CrossCheckError(f"route law: {exc}") from None


# ---------------------------------------------------------------------------
# the two pipelines: forward stepping and the torus grid
# ---------------------------------------------------------------------------

def _forward(p: LatticePMF, a: LatticeFn, hull, ns, mem_limit: int):
    """Step from the origin by p; mass at the origin also moves by a.

    One walk, on the box of the last n of the strictly ascending ``ns``,
    serves every n: yields, per n, (law, tail bound, the walk's charge in
    bytes).  Each law is on n's own box (``_box``: n steps of ``hull`` and
    the origin, cut at the tail box), with a run of n steps' cells and
    bound.  The walk's box holds n's, and its state at n is n's law
    wherever n's box is not cut: within n steps no mass reaches a cut of
    the larger box.  Where it is cut, the walk keeps the mass a run of n
    steps drops past the cut, the mass of paths that pass it, within the
    bound.  Mass stepped past the walk's box is dropped.
    """
    if any(m >= k for m, k in zip(ns, ns[1:])):
        raise ValueError("n values must be strictly ascending")
    if not ns:
        return
    laws = (*hull, a)
    boxes = []  # (lo, shape, tail bound) of each n's box
    for n in ns[:-1]:
        lo, shape, _, bound = _box((*laws, _delta(p.dim)), n)
        boxes.append((lo, shape, bound))
    # two buffers + scratch; the last buffer as the last law is unfolded; and
    # all of them beside each earlier law as it is unfolded and checked (the
    # checks' masks take 1 byte a cell, one at a time)
    mid = max((9 * math.prod(shape) for _, shape, _ in boxes), default=0)
    st = _Stepper(laws, ns[-1], mem_limit, 24, held=1, snapshot=mid)
    boxes.append((st.lo, st.shape, st.bound))  # the last n's box is the stepper's
    a_idx, a_ws = st.index(a)
    m0 = 0.0
    walk = st.walk(_delta(p.dim), ns[-1])
    for n, (lo, shape, bound) in zip(ns, boxes):
        for k, cur in walk:
            # transition from the origin differs from p by exactly a = q - p
            if m0 != 0.0:
                cur[a_idx] += m0 * a_ws
            m0 = cur[st.origin]
            if k == n:
                break
        last = n == ns[-1]
        if last:
            walk.close()  # the other buffer goes
        law = st.unfold(cur, box=(lo, shape), walking=not last)  # without the stepper's halo
        if last:
            del cur
        yield _law(lo, law), bound, st.nbytes
        del law


def _sorted_pairs(z: np.ndarray):
    """The pair cells of ``half_pairs``, flat and sorted by |z|, descending, and their flat indices.

    z is real.  The sort key is the uint64 (|z|'s bits << 1) | z's sign bit,
    z's bits rotated left by one, which orders |z| as the floats do and
    splits each tie +-x, negative first; cells left tied are equal, so
    any sort gives the same sorted values.
    """
    keep = half_pairs(z.shape)[0]
    cells = z[keep]
    bits = cells.view(np.uint64)
    key = bits << 1
    key |= bits >> 63
    np.invert(key, out=key)  # descending
    order = key.argsort()
    del key
    return cells[order], np.flatnonzero(keep)[order]


def _pair_returns(cells: np.ndarray, n: int, plan: KsumPlan | None = None) -> np.ndarray:
    """r_k, k < n, the full grid's means of z^k, from ``_sorted_pairs``' cells.

    With S_k the sum of z^k over the L = (M + 1) / 2 cells, origin
    included, r_k = (2 S_k - 1) / M: every pair counts twice and the
    origin, where z = 1, once.  origin_returns gives S_k / L, by ``plan``
    (``ksum_plan(cells, n)`` by default).
    """
    r = origin_returns(cells, n, plan)
    r *= cells.size
    r *= 2
    r -= 1
    r /= 2 * cells.size - 1
    return r


def _correction_sum(cells: np.ndarray, index: np.ndarray, shape, n: int,
                    plan: KsumPlan | None = None) -> np.ndarray:
    """W = sum_k r_k z^(n-1-k) on the half layout of ``shape``, k-sums cut off.

    z is the transform of a symmetric p, real and even, and ``cells`` and
    ``index`` are ``_sorted_pairs(z)``: each +-j pair of cells once, sorted
    by |z|, descending, so the k-sums run on about half the grid
    (``_pair_returns``).  W goes back to the half layout, and plane 0's
    mirror cells take their images' values.  Each r_k is off by less than
    KSUM_TOL / n and W by less than 2 KSUM_TOL (see ``_kernels``).  Both
    k-sums take ``plan``, ``ksum_plan(cells, n)`` by default.
    """
    plan = ksum_plan(cells, n) if plan is None else plan
    r = _pair_returns(cells, n, plan)
    sums = weighted_power_sum(cells, r, plan)  # W comes after: the guard's k-sum phase holds none
    w = np.empty(shape)
    flat = w.reshape(-1)
    flat[index] = sums
    _, left, image = half_pairs(shape)
    flat[left] = flat[image]
    return w


def _fourier(p: LatticePMF, a: LatticeFn, hull, n: int, mem_limit: int):
    """p^{*n} + a * sum_k r_k p^{*(n-1-k)} on a torus grid, inverted exactly.

    r_k = p^{*k}(0) are the unperturbed origin returns; with a = 0 this is
    the convolution power p^{*n}.  The grid's size on each axis is the
    smallest odd one covering the box of n steps of ``hull`` cut at the
    tail box, so the law's mass past the box aliases onto it; the box's
    tail bound, returned with the law, covers that.  Every grid is the
    half layout (``spectral.TorusGrid``): the law is real.
    """
    perturbed = n > 0 and a.weights.any()
    lo, shape, _, bound = _box(hull, n)
    sizes = tuple(s | 1 for s in shape)
    half = half_shape(sizes)
    cells = math.prod(half)
    # the inversion's peak per half cell: the law's transform (complex when
    # perturbed) beside irfftn's complex work grid and its real output
    grid = 48 if perturbed else 40
    load = 0 if "numpy.fft" in sys.modules else FFT_LOAD_BYTES

    def need(plan_bytes: int) -> int:
        # The largest phase, in bytes.  The inversion then copies the law to
        # its box through the fancy index's iterator buffer, np.getbufsize()
        # complex elements.  a's samples come while W and p^n are held.  The
        # k-sums hold 41 bytes a cell (p's samples, the pair mask, the sorted
        # cells, their flat indices and two kernel arrays) and 32 n: r_k and, in
        # _kernels._active_prefix, the roots, their prefix lengths and the
        # concatenated result.  Their plan adds ``plan_bytes``: its power
        # table and block buffers (KsumPlan.nbytes).  The first transform
        # in a process also loads numpy.fft.
        inversion = grid * cells + 16 * np.getbufsize()
        if not perturbed:
            return max(inversion, charfn_peak_bytes(p, sizes)) + load
        ksums = 41 * cells + 32 * n + plan_bytes
        return max(inversion, 16 * cells + charfn_peak_bytes(a, sizes), ksums) + load

    # p's samples, and the k-sums' sort and plan, come before the guard only
    # when the route fits the cap but for the plan, whose bytes they size
    plan = None
    if need(0) <= mem_limit:
        z = charfn_grid(p, sizes).values
        if all(l == -h for l, h in p.box) and np.array_equal(p.weights, np.flip(p.weights)):
            # p is symmetric, so its transform is real: the imaginary part is roundoff
            z = np.ascontiguousarray(z.real)
        elif perturbed:
            drift = float(np.abs(z.imag).max())
            raise CrossCheckError(f"transform of p has imaginary part {drift!r}")
        if perturbed:
            pairs, index = _sorted_pairs(z)
            plan = ksum_plan(pairs, n)
    _guard_cells(half, grid, mem_limit, need(0 if plan is None else plan.nbytes) - grid * cells)

    if perturbed:
        w = _correction_sum(pairs, index, half, n, plan)
        del pairs, index, plan
        total = pow_binary(z, n)
        del z
        w = w * charfn_grid(a, sizes).values
        w += total
        total = w
        del w
    else:
        total = pow_binary(z, n)
        del z
    # only the law's transform is left for the inversion
    spatial = invert_charfn(TorusGrid(sizes=sizes, values=total), offset=lo, shape=shape)
    del total
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
    if method == "fft":
        return _fourier(p, perturbation(p, p), (p,), n, mem_limit)[0]
    if method == "direct":
        return next(_forward(p, perturbation(p, p), (p,), [n], mem_limit))[0]
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# perturbed chain, three routes
# ---------------------------------------------------------------------------

def perturbed_forward(
    spec: WalkSpec, n: int, mem_limit: int = DEFAULT_MEM_LIMIT
) -> ExactDistribution:
    """Forward recursion: origin mass exits by q, the rest steps by p."""
    return next(perturbed_forward_many(spec, [n], mem_limit))[0]


def perturbed_forward_many(spec: WalkSpec, ns, mem_limit: int = DEFAULT_MEM_LIMIT):
    """The forward recursion at each n of the strictly ascending ``ns``, by one walk.

    Yields (ExactDistribution, bytes): each n's law, on the box and with
    the tail bound of a run of n steps, and the walk's charge against
    ``mem_limit``, which it holds until its last n.  Each law equals a run
    of n steps' wherever n's box is not cut, and is within its tail bound
    of it elsewhere (``_forward``).
    """
    ns = [int(n) for n in ns]
    walk = _forward(spec.p, spec.a, (spec.p, spec.q), ns, mem_limit)
    for n in ns:
        pmf, bound, held = next(walk)
        yield ExactDistribution(n=n, pmf=pmf, route="dp", tail_bound=bound), held
        del pmf  # before the walk goes on


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
    origin then contribute nothing to the correction.  The stepper folds
    every axis p is even on where a is even or odd, and S, which keeps a's
    parity, is unfolded with it and added to the unfolded u.
    """
    perturbed = n > 0 and spec.a.weights.any()
    # u's last buffer, the S walk's two + the scratch the walks share; u's
    # and S's last buffers as the law is unfolded
    st = _Stepper((spec.p, spec.a), n, mem_limit, 32, held=1 + perturbed)
    a_idx, a_ws = st.index(spec.a)
    r = []
    for _, u in st.walk(_delta(spec.nu), n):
        r.append(u[st.origin])
    if perturbed:
        for k, s in st.walk(spec.a, n - 1):
            if k:
                s[a_idx] += r[k] * a_ws
    law = st.unfold(u)  # the law, without the stepper's halo
    del u
    if perturbed:
        st.unfold(s, st.odd_axes(spec.a), out=law)
        del s  # the buffers go before the law is checked
    return ExactDistribution(n=n, pmf=_law(st.lo, law), route="repr", tail_bound=st.bound)


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
    tail bound of its full-support value.  Each walk has its own stepper,
    folded on its own laws: the walk from p folds every axis p is even on.
    p's fold holds the walk from q's, so the guard of q's stepper, the
    first, is the larger.  Both walks read only the origin, so each steps
    within its horizon (``_Stepper.walk``).
    """
    def taboo(*laws) -> np.ndarray:
        # the walk from laws[-1], on the fold of its own laws
        st = _Stepper(laws, n_max, mem_limit, 24)
        f = np.empty(n_max)
        for m, cur in st.walk(laws[-1], n_max - 1, horizon=True):
            f[m] = cur[st.origin]
            cur[st.origin] = 0.0
        return f

    return taboo(spec.p, spec.q), taboo(spec.p)
