"""Monte Carlo simulator and the exact-vs-asymptotic comparison pipeline.

Randomness comes from numpy's Philox generator (counter based, keyed,
splittable): a fixed seed fixes the entire stream of raw 64-bit words,
and trials are consumed in fixed chunks of 2^17.  Chunk k starts at its
own counter offset in that stream and its counts are summed as integers,
so outputs depend on (seed, n, trials) only, never on how many threads
run them.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import errors, exact_engine, io_text
from .asymptotics import (
    edgeworth_factor_many,
    gaussian_leading_many,
    perturbation_correction_many,
)
from .spectral import EdgeworthCoeffs, edgeworth_coeffs
from .walk_model import LatticePMF, WalkSpec, box_values, common_box

SIM_CHUNK = 1 << 17  # trials per chunk; fixed so results are partition independent
# tracemalloc peak of one chunk's step buffers and temporaries per trial at
# its worst over valid specs, with 10% to spare (Python 3.11, numpy 2.4).
# The buffers take 24 B (int32 positions and steps, the bins, one step's
# words).  On top: 33 B when p splits every guide bin (4097 equal steps: each
# trial's index, word, shifted word and double, then its searchsorted index),
# 57.3 B in all; 29 B when nearly every trial sits at the origin (p(0) = q(0)
# = 0.999: each one's index, word, bin, q step and mask), 53.3 B in all.  The
# configs in configs/ peak at 30 to 39 B.  int64 positions, on boxes of 2^31
# cells or more, peak at 66 B, within the 8 B a cell charged for a bincount
# that is not made until the chunk's steps end
CHUNK_TRIAL_BYTES = 64
# tracemalloc peak per support point of building one law's guide table, with
# room to spare: its flat indices, CDF and steps and one digit of the
# indices, 25 to 31 B on laws of 14641 to 35937 points in 1 to 3 dimensions
# (Python 3.11, numpy 2.4); it keeps 12 B a point (16 B in int64)
LAW_POINT_BYTES = 40
# the first thread pool in a process imports concurrent.futures.thread, and
# its modules stay: 597 KB by tracemalloc with lltwalk loaded, 666 KB in a
# bare interpreter (Python 3.11)
POOL_LOAD_BYTES = 672 << 10
GUIDE_BITS = 12  # a draw's guide bin is the top GUIDE_BITS bits of its word
GUIDE_BINS = 1 << GUIDE_BITS  # bins of each step law's guide table
# tracemalloc peak of building one guide table past the guide it keeps, with
# 11% to spare: the bin edges, each bin's first CDF index, the CDF value
# there and a mask, 102.7 KB at 4096 bins in int32 and in int64 (Python
# 3.11, numpy 2.4); the guide keeps 4 B a bin (8 B in int64)
GUIDE_BUILD_BYTES = 28 * GUIDE_BINS
CHI2_MIN_EXPECTED = 5.0  # chi_squared_check pools cells expecting fewer counts than this
CROSSCHECK_MAX_N = 512  # compare cross-checks its route against a second one up to this n
# tracemalloc peak of window_predictions plus predictions_text per cell of the
# window's box at n = 10^6, in JSON (the larger format), with 7% to spare:
# 614 B in 1-D (window 4000), 493 B in 2-D (window 60) and 291 B in 3-D
# (window 12) on Python 3.11 and numpy 2.4; at most 224 B in CSV.  About
# twice the text: the writer's joined bytes and the str decoded from them
WINDOW_CELL_BYTES = 660
# tracemalloc peak of compare plus its JSON report per row, with 7% to spare:
# 703 B in 1-D (n = 4096, window 4000), 859 B in 2-D (n = 32, every cell
# of the n-step box) and 881 B in 3-D (n = 20) on Python 3.11 and numpy
# 2.4; 258 to 400 B in CSV
REPORT_ROW_BYTES = 944


@dataclass(frozen=True)
class EmpiricalPMF:
    """Seeded empirical law of the walk at time n."""

    n: int
    trials: int
    seed: int
    offset: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.offset.flags.writeable = False
        self.counts.flags.writeable = False
        if int(self.counts.sum()) != self.trials:
            raise ValueError("counts must sum to trials")


@dataclass(frozen=True)
class _LawTable:
    """Inverse CDF of one step law, as flat offsets into the counts box.

    Draws come as raw 64-bit Philox words w.  The uniform a word stands for
    is the double numpy's ``Generator.random`` makes of it, u = (w >> 11)
    * 2^-53.  A guide table (Chen & Asau's indexed search) splits [0, 1)
    into K = ``GUIDE_BINS`` bins, and bin b = floor(u * K) = w >> 52 holds
    exactly the draws in [b/K, (b+1)/K).  A bin that holds no CDF edge maps
    every draw to one step, ``guide[b]``; draws in the few bins that do hold
    an edge (marked by the least value of the table's dtype, never a step)
    get their double built and fall back to ``searchsorted``.  Either way
    the step taken is ``steps[searchsorted(cdf, u, side="right")]``.
    """

    steps: np.ndarray
    cdf: np.ndarray
    guide: np.ndarray

    def __call__(self, words: np.ndarray, bins: np.ndarray, out=None) -> np.ndarray:
        """Steps for raw words, whose guide bins are ``bins = words >> 52``."""
        # bins lie in [0, GUIDE_BINS), so "clip" never acts; unlike the default
        # "raise", it writes to out without an intermediate copy
        out = np.take(self.guide, bins, out=out, mode="clip")
        hit = np.flatnonzero(out == np.iinfo(out.dtype).min)
        out[hit] = self.steps[np.searchsorted(self.cdf, _uniform(words[hit]), side="right")]
        return out


def _uniform(words: np.ndarray) -> np.ndarray:
    """The double ``Generator.random`` makes of each raw word: its top 53 bits times 2^-53."""
    return (words >> 11) * 2.0**-53


def _position_dtype(cells: int) -> type:
    """Dtype of the flat positions, steps and guide tables on a box of ``cells`` cells.

    int32 below 2^31 cells: a position lies in [0, cells) and a step in
    (-cells, cells), so neither reaches int32's least value, the guide
    tables' split mark.  int64 otherwise.
    """
    return np.int32 if cells < 1 << 31 else np.int64


def _law_tables(pmf: LatticePMF, strides: np.ndarray, dtype) -> _LawTable:
    """The guide table of ``pmf`` on a counts box of C-order ``strides``, in ``dtype``.

    The support comes in ``pmf.support`` order from the flat indices of its
    nonzero weights, whose digits give each point's step into the box: a
    law of k points takes at most LAW_POINT_BYTES * k bytes while it is
    built, whatever its dimension, beside the guide and GUIDE_BUILD_BYTES
    of arrays of GUIDE_BINS entries, and keeps 12 B (16 B in int64) a point.
    """
    w = pmf.weights
    flat = np.flatnonzero(w)
    cdf = np.cumsum(w.ravel()[flat])
    steps = np.zeros(flat.size, dtype=dtype)
    for size, off, stride in zip(w.shape[::-1], pmf.offset[::-1], strides[::-1]):
        digit = flat % size
        flat //= size
        digit += off
        digit *= stride
        steps += digit
    del flat, digit
    cdf[-1] = 1.0  # guard the top edge against float-sum shortfall
    # bin b's draws lie in [b/K, (b+1)/K): all take the step at the least CDF
    # value past b/K, unless that value splits the bin
    edges = np.arange(GUIDE_BINS + 1) / GUIDE_BINS
    first = np.searchsorted(cdf, edges[:-1], side="right")
    guide = steps[first]
    guide[cdf[first] < edges[1:]] = np.iinfo(dtype).min
    return _LawTable(steps, cdf, guide)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_count(cells: int, chunks: int, mem_limit: int) -> int:
    """Threads for ``chunks`` chunks on a counts box of ``cells`` cells.

    At most the usable CPUs and the chunks, and as many workers as
    ``mem_limit`` holds at 16 bytes a cell (counts and bincount) plus
    CHUNK_TRIAL_BYTES a trial of a full chunk each: with two chunks or more,
    each worker runs one full chunk at least.  Two workers or more run on a
    thread pool, whose first use in a process loads POOL_LOAD_BYTES of
    modules.  The caller guards the first worker, so there is always one.
    """
    per_worker = 16 * cells + CHUNK_TRIAL_BYTES * SIM_CHUNK
    load = 0 if "concurrent.futures.thread" in sys.modules else POOL_LOAD_BYTES
    return min(_usable_cpus(), chunks, max(1, (mem_limit - load) // per_worker))


def simulate(
    spec: WalkSpec,
    n: int,
    trials: int,
    seed: int,
    mem_limit: int = exact_engine.DEFAULT_MEM_LIMIT,
) -> EmpiricalPMF:
    """Sample ``trials`` independent trajectories of n steps from the origin.

    Identical (seed, n, trials) give bitwise-identical counts.  Steps taken
    while sitting at the origin use the exit law q, all others the step law
    p; one raw Philox word w is consumed per (trial, step) in chunk order,
    and the step is the one at ``searchsorted(cdf, u, side="right")`` of the
    law in force, u = (w >> 11) * 2^-53 the double ``Generator.random``
    makes of w.  Each trial's position is one flat index into the dense
    counts box, the n-step hull box of p (which holds q's), held in int32
    when the box has fewer than 2^31 cells (:func:`_position_dtype`).  The first step is
    q's for every trial; after it, every trial takes p's step for w by
    guide table, then the trials at the origin retake theirs from q with
    the same w.

    Chunk k of SIM_CHUNK trials draws from the Philox stream of ``seed``
    started at word k * n * SIM_CHUNK, so chunks run on W threads in any
    order; each thread sums the bincounts of chunks w, w + W, ... into its
    own int64 counts, and their integer sum is the same for every W.  One
    worker's dense counts and bincount take 16 bytes per cell of the box,
    and its chunk's buffers CHUNK_TRIAL_BYTES per trial; the two laws' guide
    tables, shared, LAW_POINT_BYTES per support point and their guides, plus
    GUIDE_BUILD_BYTES for the build of one.  ``mem_limit`` caps
    the first worker and the tables (ResourceLimit past it), and
    :func:`_worker_count` admits as many workers as the rest holds.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    box = exact_engine._hull_box(spec.p, n)
    shape = tuple(h - l + 1 for l, h in box)
    cells = math.prod(shape)
    dtype = _position_dtype(cells)
    # both laws' points and guides, and one guide's build at a time
    laws = (LAW_POINT_BYTES * sum(np.count_nonzero(law.weights) for law in (spec.p, spec.q))
            + 2 * GUIDE_BINS * np.dtype(dtype).itemsize + GUIDE_BUILD_BYTES)
    errors.guard_memory("simulate", 16 * cells + CHUNK_TRIAL_BYTES * min(SIM_CHUNK, trials) + laws,
                        mem_limit)
    lo = np.array([l for l, _ in box], dtype=np.int64)
    strides = np.cumprod((1, *shape[:0:-1]), dtype=np.int64)[::-1]  # C order
    origin = int(-lo @ strides)
    p_law = _law_tables(spec.p, strides, dtype)
    q_law = _law_tables(spec.q, strides, dtype)

    chunks = -(-trials // SIM_CHUNK)
    workers = _worker_count(cells, chunks, mem_limit - laws)

    def run(w: int) -> np.ndarray:
        counts = np.zeros(cells, dtype=np.int64)
        for k in range(w, chunks, workers):
            csize = min(SIM_CHUNK, trials - k * SIM_CHUNK)
            # Philox makes four 64-bit words per counter, so word d of the
            # stream is word d % 4 of counter d // 4
            draw = k * n * SIM_CHUNK
            bitgen = np.random.Philox(key=seed)
            bitgen.advance(draw // 4)
            bitgen.random_raw(draw % 4)
            pos = np.full(csize, origin, dtype=dtype)
            # per-step buffers, reused: fresh megabyte temporaries cost page
            # faults.  The bins are shifted into uint64 and read as intp
            step = np.empty(csize, dtype=dtype)
            shifted = np.empty(csize, dtype=np.uint64)
            bins = shifted.view(np.intp)
            for t in range(n):
                words = bitgen.random_raw(csize)
                np.right_shift(words, 64 - GUIDE_BITS, out=shifted)
                if t == 0:  # every trial starts at the origin, where q is in force
                    q_law(words, bins, out=step)
                else:
                    p_law(words, bins, out=step)
                    at0 = np.flatnonzero(pos == origin)
                    step[at0] = q_law(words[at0], bins[at0])
                del words  # freed before the next draw
                pos += step
            counts += np.bincount(pos, minlength=cells)
        return counts

    if workers == 1:
        counts = run(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            counts, *rest = pool.map(run, range(workers))
        for part in rest:
            counts += part
    return EmpiricalPMF(n=n, trials=trials, seed=seed, offset=lo, counts=counts.reshape(shape))


def chi_squared_check(
    emp: EmpiricalPMF,
    exact: exact_engine.ExactDistribution,
    quantile: float = 0.999,
):
    """Pearson statistic of the empirical law against the exact one.

    Both laws are read on the union of their boxes.  Each cell expecting at
    least CHI2_MIN_EXPECTED counts is a bin of its own; the other cells,
    counts seen where the exact law is 0 included, pool into one bin, kept
    when its expectation is positive.  The threshold is the chi-squared
    ``quantile`` at dof = bins - 1 (at least 1).  Returns dict(stat, dof,
    threshold, ok).
    """
    from scipy.special import gammaincinv  # scipy loads on first use, not on import

    e, o = common_box((exact.pmf.weights, exact.pmf.offset), (emp.counts, emp.offset))
    e *= emp.trials
    own = e >= CHI2_MIN_EXPECTED
    terms = ((o[own] - e[own]) ** 2 / e[own]).tolist()
    pooled_exp = float(e[~own].sum())
    if pooled_exp > 0:
        terms.append((int(o[~own].sum()) - pooled_exp) ** 2 / pooled_exp)
    stat = math.fsum(terms)
    dof = max(1, len(terms) - 1)
    # scipy's chi2.ppf(quantile, dof), without loading scipy.stats
    threshold = float(2.0 * gammaincinv(dof / 2, quantile))
    return {"stat": stat, "dof": dof, "threshold": threshold, "ok": stat < threshold}


# ---------------------------------------------------------------------------
# predictions and the comparison pipeline
# ---------------------------------------------------------------------------

def default_window(spec: WalkSpec, n: int) -> float:
    """Euclidean radius 4 * sqrt(lambda_max(B) * n) of the comparison window."""
    lam = float(np.linalg.eigvalsh(spec.B).max())
    return 4.0 * math.sqrt(lam * n)


def _window_radius(spec: WalkSpec, n: int, window: float | None) -> float:
    """``window``, or :func:`default_window` when None; ValueError unless finite and >= 0."""
    if window is None:
        return default_window(spec, n)
    if not 0 <= window < math.inf:
        raise ValueError(f"window must be finite and >= 0, got {window!r}")
    return window


def _window_points(box, radius: float, mem_limit: int = exact_engine.DEFAULT_MEM_LIMIT,
                   cell_bytes: int = WINDOW_CELL_BYTES) -> np.ndarray:
    """Points of the box (per-axis inclusive bounds) within ``radius`` of 0, lexicographic.

    Only the part of the box within ``radius`` per axis is enumerated, so a
    small window in a large box costs the window's cells.  ResourceLimit is
    raised, from the bounds alone and before anything is built, when that
    part passes ``mem_limit`` at ``cell_bytes`` a cell.
    """
    r = math.floor(radius)
    bounds = [(max(lo, -r), min(hi, r)) for lo, hi in box]
    errors.guard_memory("window", math.prod(hi - lo + 1 for lo, hi in bounds) * cell_bytes, mem_limit)
    grids = np.meshgrid(*[np.arange(lo, hi + 1) for lo, hi in bounds], indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1)
    # radius * radius, unlike radius ** 2, reads inf past 1e154 rather than raising
    keep = (X.astype(float) ** 2).sum(axis=1) <= radius * radius
    return X[keep]


def predict(spec: WalkSpec, n: int, X, coeffs: EdgeworthCoeffs | None = None):
    """Gaussian term, perturbation correction, refinement terms and total over rows of X.

    A perturbed spec gets the paper's correction, 0 at the 2-D origin where
    it is singular, and total = gaussian + correction.  An unperturbed spec
    gets the Hermite-refined expansion at ``coeffs``, by default the spec's
    own: total = gaussian * factor, as in :func:`lltwalk.asymptotics.llt_edgeworth`.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    gauss = gaussian_leading_many(spec.B, n, X)
    corr = np.zeros(len(X))
    if spec.unperturbed:
        if coeffs is None:
            coeffs = edgeworth_coeffs(spec.p, spec.L)
        factor = edgeworth_factor_many(coeffs, n, X)
        return gauss, corr, gauss * (factor - 1.0), gauss * factor
    defined = X.any(axis=1) if spec.nu == 2 else np.ones(len(X), dtype=bool)
    corr[defined] = gauss[defined] * perturbation_correction_many(spec, n, X[defined])
    return gauss, corr, np.zeros(len(X)), gauss + corr


@dataclass(frozen=True)
class AsymptoticPrediction:
    """One evaluated prediction, the terms :func:`predict` returns."""

    n: int
    x: tuple
    gaussian_leading: float
    perturbation_correction: float
    edgeworth_terms: float
    total: float
    within_horizon: bool


def _prediction_columns(spec: WalkSpec, n: int, X, coeffs: EdgeworthCoeffs | None = None) -> dict:
    """Columns x1..xnu, the four terms of :func:`predict` and within_horizon over rows of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    gauss, corr, edge, total = predict(spec, n, X, coeffs)
    L = coeffs.L if coeffs is not None else spec.L
    inside = np.linalg.norm(X, axis=1) <= float(n) ** (1.0 - 1.0 / L)
    axes = {f"x{i+1}": col for i, col in enumerate(X.T.astype(np.int64))}
    return {**axes, "gaussian_leading": gauss, "perturbation_correction": corr,
            "edgeworth_terms": edge, "total": total, "within_horizon": inside}


def asymptotic_prediction(
    spec: WalkSpec,
    n: int,
    x,
    coeffs: EdgeworthCoeffs | None = None,
) -> AsymptoticPrediction:
    """Assembled prediction at one point: one row of :func:`predict`.

    total = gaussian + perturbation correction for a perturbed spec, and
    the Hermite-refined value gaussian * factor for an unperturbed one, at
    ``coeffs`` or the spec's own order; the CLI's reports read the same rows.
    """
    *axes, gauss, corr, edge, total, inside = (
        col[0].item() for col in _prediction_columns(spec, n, [x], coeffs).values()
    )
    return AsymptoticPrediction(n, tuple(axes), gauss, corr, edge, total, inside)


def window_predictions(spec: WalkSpec, n: int, window: float | None = None) -> dict:
    """:func:`_prediction_columns` at every lattice point within the window, lexicographic.

    The window defaults to :func:`default_window`; :func:`_window_points`
    refuses a window past the default memory cap before anything is built.
    """
    rad = _window_radius(spec, n, window)
    X = _window_points([(-math.inf, math.inf)] * spec.nu, rad)
    return _prediction_columns(spec, n, X)


@dataclass
class ConvergenceReport:
    """Exact-vs-prediction error table with fitted decay slopes.

    columns: one array per header name, one value per (n, x) row: n, x1..xnu,
    exact, then per flavor f: f, f_abs_err and f_scaled_err = n^{nu/2} * abs_err.
    slopes: least squares slope of log(max_x scaled_err) against log n per
    flavor (meaningful from 4 values of n up).
    """

    spec_summary: str
    nu: int
    n_list: list
    flavors: list
    columns: dict = field(default_factory=dict)
    max_scaled_err: dict = field(default_factory=dict)
    slopes: dict = field(default_factory=dict)
    route_deviation: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        return io_text.report_text(self, "csv")

    def to_json(self) -> str:
        return io_text.report_text(self, "json")


def _fit_slope(ns, errs):
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    good = errs > 0
    if good.sum() < 2:
        return None
    return float(np.polyfit(np.log(ns[good]), np.log(errs[good]), 1)[0])


def compare(
    spec: WalkSpec,
    n_list,
    window: float | None = None,
    route: str = "fourier",
    crosscheck: bool = True,
    mem_limit: int = exact_engine.DEFAULT_MEM_LIMIT,
) -> ConvergenceReport:
    """Exact laws vs asymptotic predictions over a list of n values.

    Flavors compared: plain Gaussian, Gaussian plus perturbation correction
    (for perturbed specs), Hermite-refined expansion (for unperturbed
    specs, at expansion order spec.L).  The scaled error column is
    n^{nu/2} * abs_err, whose decay in n is the measurable content of the
    limit theorems.  With ``crosscheck``, each n up to CROSSCHECK_MAX_N is
    also computed by a second route and the deviation recorded.  The ``dp``
    route, as a route or as the cross-check, is one walk over every n it
    serves (``exact_engine.perturbed_forward_many``), advanced as the loop
    reaches each n; its buffers stay while the other route runs at that n.

    Each n's window is guarded, before its routes run, with the rows of
    every n before it, the walk and one block of the report's writer; each
    route other than the walk runs under the cap less the walk and the
    rows of every n before.
    """
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly ascending")

    flavors = ["gaussian", "edgeworth" if spec.unperturbed else "corrected"]
    rep = ConvergenceReport(
        spec_summary=f"nu={spec.nu} d={spec.d.tolist()} unperturbed={spec.unperturbed}",
        nu=spec.nu,
        n_list=n_list,
        flavors=flavors,
        meta={
            "route": route,
            "order": spec.L if spec.unperturbed else None,
            "window_rule": "4*sqrt(lambda_max(B)*n)" if window is None else window,
        },
    )

    checked = {n for n in n_list if crosscheck and n <= CROSSCHECK_MAX_N}
    other = "dp" if route != "dp" else "fourier"
    walked = [n for n in n_list if route == "dp" or n in checked]  # the n the dp walk serves
    walk, walk_bytes = None, 0
    rows = 0
    parts = []
    for n in n_list:
        # rows cover the window within n steps' reach, whatever the tail box;
        # past the box the exact law reads 0, within dist.tail_bound of the truth.
        # They are guarded, with what compare holds, before the routes run
        earlier = rows * REPORT_ROW_BYTES
        X = _window_points(exact_engine._hull_box(spec.p, n),
                           _window_radius(spec, n, window),
                           mem_limit - earlier - walk_bytes - io_text.BLOCK_BYTES, REPORT_ROW_BYTES)
        rows += len(X)
        dists = {}
        if n in walked:
            if walk is None:
                walk = exact_engine.perturbed_forward_many(spec, walked, mem_limit - earlier)
            dists["dp"], walk_bytes = next(walk)
        for r in (route, other) if n in checked else (route,):
            if r not in dists:
                dists[r] = exact_engine.perturbed_distribution(
                    spec, n, route=r, mem_limit=mem_limit - earlier - walk_bytes)
        if n in checked:
            rep.route_deviation[n] = exact_engine.max_abs_difference(dists[route].pmf,
                                                                      dists[other].pmf)
        if walked and n == walked[-1]:
            walk.close()  # the walk's buffers go
            walk_bytes = 0
        lo = X.min(axis=0)
        pmf = dists[route].pmf
        law = box_values(pmf.weights, pmf.offset, lo, tuple(X.max(axis=0) - lo + 1))
        del dists, pmf  # the laws go before the next n's routes run
        exact_vals = law[tuple((X - lo).T)]
        gauss, _, _, total = predict(spec, n, X)

        scale = float(n) ** (spec.nu / 2.0)
        cols = {"n": np.full(len(X), n), **{f"x{i+1}": c for i, c in enumerate(X.T)},
                "exact": exact_vals}
        for f, pred in zip(flavors, (gauss, total)):
            err = np.abs(exact_vals - pred)
            cols.update({f: pred, f"{f}_abs_err": err, f"{f}_scaled_err": scale * err})
            rep.max_scaled_err.setdefault(f, {})[n] = scale * float(err.max())
        parts.append(cols)

    if parts:
        rep.columns = {k: np.concatenate([cols[k] for cols in parts]) for k in parts[0]}

    for f in flavors:
        table = rep.max_scaled_err[f]
        rep.slopes[f] = _fit_slope(list(table), list(table.values()))
    return rep
