"""Monte Carlo simulator and the exact-vs-asymptotic comparison pipeline.

Randomness comes from numpy's Philox generator (counter based, keyed,
splittable): a fixed seed fixes the entire draw stream, and trials are
consumed in fixed chunks of 2^17, so outputs depend on (seed, n, trials)
only and never on how work might be partitioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exact_engine, io_text
from .asymptotics import (
    edgeworth_factor_many,
    gaussian_leading_many,
    perturbation_correction_many,
)
from .spectral import EdgeworthCoeffs, edgeworth_coeffs
from .walk_model import LatticePMF, WalkSpec, box_values, common_box

SIM_CHUNK = 1 << 17  # trials per chunk; fixed so results are partition independent
GUIDE_BINS = 1 << 12  # bins of each step law's guide table; a power of 2, so u * K is exact
_SPLIT = np.iinfo(np.int64).min  # guide entry of a bin that holds a CDF edge
CHI2_MIN_EXPECTED = 5.0  # chi_squared_check pools cells expecting fewer counts than this
CROSSCHECK_MAX_N = 512  # compare cross-checks its route against a second one up to this n
# tracemalloc peak of window_predictions plus predictions_text per cell of the
# window's box at n = 10^6, in JSON (the larger format), with 6% to spare:
# 825 B in 1-D on Python 3.12, 787 B on 3.11 and 783 B on 3.10 (0.63 to
# 0.68 KB in 2-D, at most 0.39 KB in CSV)
WINDOW_CELL_BYTES = 880
# tracemalloc peak of compare plus its JSON report per row, with 7% to spare:
# 1000 B in 1-D (n = 4096, window 4000), 1107 B in 2-D (n = 32, every cell
# of the n-step box) and 1135 B in 3-D (n = 20) on Python 3.11; 0.52 to
# 0.66 KB in CSV
REPORT_ROW_BYTES = 1216


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

    A guide table (Chen & Asau's indexed search) splits [0, 1) into
    K = ``GUIDE_BINS`` bins; ``u * K`` is exact, so bin b = floor(u * K)
    holds exactly the draws in [b/K, (b+1)/K).  A bin that holds no CDF edge maps every
    draw to one step, ``guide[b]``; draws in the few bins that do hold an
    edge (marked ``_SPLIT``) fall back to ``searchsorted``.  Either way the
    step taken is ``steps[searchsorted(cdf, u, side="right")]``.
    """

    steps: np.ndarray
    cdf: np.ndarray
    guide: np.ndarray

    def __call__(self, u: np.ndarray, bins: np.ndarray, out=None) -> np.ndarray:
        """Steps for draws u, whose guide bins are ``bins = floor(u * GUIDE_BINS)``."""
        # bins lie in [0, GUIDE_BINS), so "clip" never acts; unlike the default
        # "raise", it writes to out without an intermediate copy
        out = np.take(self.guide, bins, out=out, mode="clip")
        hit = np.flatnonzero(out == _SPLIT)
        out[hit] = self.steps[np.searchsorted(self.cdf, u[hit], side="right")]
        return out


def _law_tables(pmf: LatticePMF, strides: np.ndarray) -> _LawTable:
    pts, ws = pmf.support
    steps = pts @ strides
    cdf = np.cumsum(ws)
    cdf[-1] = 1.0  # guard the top edge against float-sum shortfall
    lo = np.arange(GUIDE_BINS) / GUIDE_BINS
    hi = np.nextafter(lo + 1.0 / GUIDE_BINS, 0.0)  # largest draw in each bin
    first = np.searchsorted(cdf, lo, side="right")
    last = np.searchsorted(cdf, hi, side="right")
    return _LawTable(steps, cdf, np.where(first == last, steps[first], _SPLIT))


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
    p; one uniform draw u is consumed per (trial, step) in chunk order, and
    the step is the one at ``searchsorted(cdf, u, side="right")`` of the law
    in force.  Each trial's position is one flat index into the dense counts
    box, the n-step hull box of p and q: every trial takes p's step for u by
    guide table, then the trials at the origin retake theirs from q with the
    same u.  The dense counts and each chunk's bincount take 16 bytes per
    cell of that box, which ``mem_limit`` caps.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    box = exact_engine._hull_box((spec.p, spec.q), n)
    shape = tuple(h - l + 1 for l, h in box)
    exact_engine._guard_cells(shape, 16, mem_limit)
    cells = math.prod(shape)
    lo = np.array([l for l, _ in box], dtype=np.int64)
    strides = np.cumprod((1, *shape[:0:-1]), dtype=np.int64)[::-1]  # C order
    origin = int(-lo @ strides)
    p_law = _law_tables(spec.p, strides)
    q_law = _law_tables(spec.q, strides)

    counts = np.zeros(cells, dtype=np.int64)
    rng = np.random.Generator(np.random.Philox(key=seed))
    done = 0
    while done < trials:
        csize = min(SIM_CHUNK, trials - done)
        pos = np.full(csize, origin, dtype=np.int64)
        # per-step buffers, reused: fresh megabyte temporaries cost page faults
        u = np.empty(csize)
        bins = np.empty(csize, dtype=np.intp)
        step = np.empty(csize, dtype=np.int64)
        for _ in range(n):
            rng.random(out=u)
            np.multiply(u, GUIDE_BINS, out=bins, casting="unsafe")  # exact, then floor
            p_law(u, bins, out=step)
            at0 = np.flatnonzero(pos == origin)
            step[at0] = q_law(u[at0], bins[at0])
            pos += step
        counts += np.bincount(pos, minlength=cells)
        done += csize
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
    exact_engine._guard_cells([hi - lo + 1 for lo, hi in bounds], cell_bytes, mem_limit)
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
    corr[defined] = perturbation_correction_many(spec, n, X[defined])
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
    axes = {f"x{i+1}": col.tolist() for i, col in enumerate(X.T.astype(np.int64))}
    return {**axes, "gaussian_leading": gauss.tolist(), "perturbation_correction": corr.tolist(),
            "edgeworth_terms": edge.tolist(), "total": total.tolist(),
            "within_horizon": inside.tolist()}


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
        col[0] for col in _prediction_columns(spec, n, [x], coeffs).values()
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

    columns: one list per header name, one value per (n, x) row: n, x1..xnu,
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
    also computed by a second route and the deviation recorded.
    """
    n_list = [int(n) for n in n_list]
    if sorted(n_list) != n_list:
        raise ValueError("n_list must be ascending")

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

    rows = 0
    for n in n_list:
        # rows cover the window within n steps' reach, whatever the tail box;
        # past the box the exact law reads 0, within dist.tail_bound of the truth.
        # They are guarded, with the rows of every n before, before the route runs
        X = _window_points(exact_engine._hull_box((spec.p, spec.q), n),
                           _window_radius(spec, n, window),
                           mem_limit - rows * REPORT_ROW_BYTES, REPORT_ROW_BYTES)
        rows += len(X)
        dist = exact_engine.perturbed_distribution(spec, n, route=route, mem_limit=mem_limit)
        if crosscheck and n <= CROSSCHECK_MAX_N:
            other = "dp" if route != "dp" else "fourier"
            alt = exact_engine.perturbed_distribution(spec, n, route=other, mem_limit=mem_limit)
            rep.route_deviation[n] = exact_engine.max_abs_difference(dist.pmf, alt.pmf)
        lo = X.min(axis=0)
        law = box_values(dist.pmf.weights, dist.pmf.offset, lo, tuple(X.max(axis=0) - lo + 1))
        exact_vals = law[tuple((X - lo).T)]
        gauss, _, _, total = predict(spec, n, X)

        scale = float(n) ** (spec.nu / 2.0)
        cols = {"n": np.full(len(X), n), **{f"x{i+1}": c for i, c in enumerate(X.T)},
                "exact": exact_vals}
        for f, pred in zip(flavors, (gauss, total)):
            err = np.abs(exact_vals - pred)
            cols.update({f: pred, f"{f}_abs_err": err, f"{f}_scaled_err": scale * err})
            rep.max_scaled_err.setdefault(f, {})[n] = scale * float(err.max())
        for k, v in cols.items():
            rep.columns.setdefault(k, []).extend(v.tolist())

    for f in flavors:
        table = rep.max_scaled_err[f]
        rep.slopes[f] = _fit_slope(list(table), list(table.values()))
    return rep
