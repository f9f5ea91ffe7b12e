"""Checks of lltwalk's outputs, made apart from lltwalk.

Nothing here imports lltwalk. The references are computed from the walk
laws in ``workloads.py``: the lazy 1-D walk's closed form in exact integer
arithmetic, the origin returns p^{*k}(0) as grid means of phi^k, and a plain
forward recursion of the 2-D chain. Each check returns ``None`` when it
holds and a one-line reason when it does not. ``self_test`` shows that
every check rejects a deliberately wrong law, so none passes vacuously.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
from scipy.stats import chi2 as chi2_dist

import workloads

TOL = 1e-12  # the routes' documented agreement tolerance
# Moments weigh the ~1e-17 roundoff the frequency route leaves in every cell
# of the box by |x| up to n r: at n = 96 the first moment is off by 4.5e-13
# and the second by 3e-12 of n * B.
MOMENT1_TOL = 1e-10
MOMENT2_RTOL = 1e-9


# ---------------------------------------------------------------------------
# walk constants
# ---------------------------------------------------------------------------

def radius(law) -> int:
    return max(max(abs(c) for c in pt) for which in ("p", "q") for pt in law[which])


def drift(law) -> np.ndarray:
    """d, the mean of the exit law q."""
    dim = len(next(iter(law["q"])))
    return np.array([float(sum(w * pt[i] for pt, w in law["q"].items())) for i in range(dim)])


def covariance(law) -> np.ndarray:
    dim = len(next(iter(law["p"])))
    return np.array([[float(sum(w * pt[i] * pt[j] for pt, w in law["p"].items()))
                      for j in range(dim)] for i in range(dim)])


def gaussian_error_limit_1d(law) -> float:
    """lim n^{1/2} max_x |P_n(x) - Gaussian| = (d / sigma^2) / sqrt(2 pi sigma^2)."""
    d, s2 = drift(law)[0], covariance(law)[0, 0]
    return (d / s2) / math.sqrt(2 * math.pi * s2)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def lazy_1d_closed_form(n: int, xs, a1: Fraction) -> dict:
    """P_n(x) of the lazy walk whose exit law differs from p by a(+-1) = +-a1.

    p^{*j}(y) = C(2j, j+y) / 4^j, and P_n(x) = p^{*n}(x)
    + sum_{k<n} p^{*k}(0) a1 [p^{*(n-1-k)}(x-1) - p^{*(n-1-k)}(x+1)],
    summed in integers over the common denominator 4^(n-1).
    """
    central = [1]
    for k in range(n - 1):
        central.append(central[-1] * 2 * (2 * k + 1) // (k + 1))

    def column(y):  # C(2m, m+y) for m = 0 .. n-1
        y = abs(y)
        out, b = [], 0
        for m in range(n):
            if m == y:
                b = 1
            elif m > y:
                b = b * (2 * m - 1) * (2 * m) // ((m + y) * (m - y))
            out.append(b)
        return out

    law = {}
    for x in xs:
        lo, hi = column(x - 1), column(x + 1)
        s = sum(central[n - 1 - m] * (lo[m] - hi[m]) for m in range(n))
        free = math.comb(2 * n, n + x) if abs(x) <= n else 0
        law[x] = float((free + 4 * a1 * s) / Fraction(4) ** n)
    return law


def origin_returns(law, n: int) -> np.ndarray:
    """r_k = p^{*k}(0) for k = 0..n, as grid means of phi(lambda)^k.

    With m > n r grid points per axis no nonzero multiple of m lies in the
    support of p^{*k}, so the grid mean is exact up to rounding.
    """
    dim = len(next(iter(law["p"])))
    m = n * radius(law) + 1
    lam = np.meshgrid(*([2 * np.pi * np.arange(m) / m] * dim), indexing="ij")
    phi = sum(float(w) * np.cos(sum(c * l for c, l in zip(pt, lam)))
              for pt, w in law["p"].items())
    r = np.empty(n + 1)
    g = np.ones_like(phi)
    for k in range(n + 1):
        r[k] = g.mean()
        g *= phi
    return r


def forward_laws(law, ns, sign: float = 1.0) -> dict:
    """{n: P_n} on the box of radius max(ns) * r, by the transition rule.

    Mass away from the origin steps by p; mass at the origin steps by
    p + sign * (q - p), so sign = -1 gives the walk with the sign of a
    flipped and sign = 0 the unperturbed walk.
    """
    dim = len(next(iter(law["p"])))
    r = radius(law)
    R = max(ns) * r
    W = 2 * R + 1 + 2 * r  # a margin of r keeps every shift inside the array
    a = {pt: w - law["p"].get(pt, 0) for pt, w in law["q"].items()}
    a = {pt: sign * float(w) for pt, w in a.items() if w}
    org = (R + r,) * dim
    cur = np.zeros((W,) * dim)
    cur[org] = 1.0
    inner = tuple(slice(r, W - r) for _ in range(dim))
    out = {}
    for k in range(1, max(ns) + 1):
        nxt = np.zeros_like(cur)
        for pt, w in law["p"].items():
            nxt[tuple(slice(r + c, W - r + c) for c in pt)] += float(w) * cur[inner]
        m0 = cur[org]
        for pt, w in a.items():
            nxt[tuple(o + c for o, c in zip(org, pt))] += m0 * w
        cur = nxt
        if k in ns:
            out[k] = cur[inner].copy()
    return out


# ---------------------------------------------------------------------------
# parsing lltwalk's outputs into dense laws (index R is x = 0)
# ---------------------------------------------------------------------------

def dense(points: np.ndarray, values: np.ndarray, R: int) -> np.ndarray:
    dim = points.shape[1]
    w = np.zeros((2 * R + 1,) * dim)
    w[tuple((points + R).T)] = values
    return w


def law_csv(path, R: int) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return dense(rows[:, :-1].astype(np.int64), rows[:, -1], R)


def route_deviation_from_stderr(text: str):
    m = re.search(r"max pairwise deviation ([0-9.eE+-]+)", text)
    return float(m.group(1)) if m else None


# ---------------------------------------------------------------------------
# checks on laws
# ---------------------------------------------------------------------------

def unit_mass(w):
    tot = math.fsum(w.ravel())
    return None if abs(tot - 1.0) <= TOL else f"mass {tot!r} is off 1 by more than {TOL}"


def nonnegative(w):
    lo = float(w.min())
    return None if lo >= 0.0 else f"negative weight {lo!r}"


def mirror_x2(w):
    dev = float(np.abs(w - w[:, ::-1]).max())
    return None if dev <= TOL else f"P(x1, x2) != P(x1, -x2) by {dev:.3e}"


def origin_value(w, R, r_n):
    dev = abs(float(w[(R,) * w.ndim]) - r_n)
    return None if dev <= TOL else f"P_n(0) differs from p^(*n)(0) by {dev:.3e}"


def moment_vector(w, R):
    axes = np.arange(w.shape[0]) - R
    return np.array([math.fsum((w * axes.reshape([-1 if i == ax else 1 for i in range(w.ndim)])).ravel())
                     for ax in range(w.ndim)])


def first_moment(w, R, expected):
    dev = float(np.abs(moment_vector(w, R) - expected).max())
    return None if dev <= MOMENT1_TOL else f"first moment off d * sum_k r_k by {dev:.3e}"


def second_moment(w, R, expected):
    x = np.arange(w.shape[0]) - R
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    got = np.array([[math.fsum((w * a * b).ravel()) for b in (X1, X2)] for a in (X1, X2)])
    dev = float(np.abs(got - expected).max())
    tol = MOMENT2_RTOL * max(1.0, float(np.abs(expected).max()))
    return None if dev <= tol else f"second moment off n * B by {dev:.3e}"


def matches(w, ref, what="the benchmark's own recursion"):
    dev = float(np.abs(w - ref).max())
    return None if dev <= TOL else f"differs from {what} by {dev:.3e}"


def route_deviation_ok(dev):
    if dev is None:
        return "no route deviation reported"
    return None if dev <= TOL else f"route deviation {dev:.3e} above {TOL}"


def corrected_below_gaussian(max_scaled):
    bad = [n for n, g in max_scaled["gaussian"].items() if not max_scaled["corrected"][n] < g]
    return None if not bad else f"corrected flavour not below gaussian at n = {bad}"


def gaussian_limit(table, limit):
    """The gaussian max scaled error approaches its limit from n to n."""
    ns = sorted(table)
    gaps = [abs(table[n] - limit) / limit for n in ns]
    if any(b >= a for a, b in zip(gaps, gaps[1:])) or gaps[-1] > 0.05:
        return f"gaussian max scaled errors {[round(table[n], 5) for n in ns]} do not approach {limit:.5f}"
    return None


def corrected_slope(table):
    """The corrected max scaled error falls like n^-1."""
    ns = sorted(table)
    if len(ns) < 2:
        return "fewer than two n for the corrected slope"
    slope = float(np.polyfit(np.log(ns), np.log([table[n] for n in ns]), 1)[0])
    return None if -1.25 <= slope <= -0.75 else f"corrected slope {slope:.3f} is not near -1"


def closed_form_1d(values: dict, n: int, a1: Fraction):
    ref = lazy_1d_closed_form(n, list(values), a1)
    dev = max(abs(values[x] - ref[x]) for x in values)
    return None if dev <= TOL else f"n={n}: differs from the closed form by {dev:.3e}"


def first_returns_agree(f, fp):
    dev = float(np.abs(f - fp).max())
    return None if dev <= TOL else f"first-return laws differ by {dev:.3e}"


def renewal(f, r):
    """r_m = sum_{j=1..m} f_j r_{m-j} for m = 1..len(f), f[0] being f_1."""
    n = len(f)
    dev = max(abs(r[m] - math.fsum(f[j - 1] * r[m - j] for j in range(1, m + 1)))
              for m in range(1, n + 1))
    return None if dev <= TOL else f"renewal identity off by {dev:.3e}"


def chi_squared(counts, ref, trials, quantile=workloads.CHI2_QUANTILE):
    """Pearson statistic against the exact law, cells with expectation < 5 pooled.

    Returns (stat, dof, reason or None).
    """
    e = ref.ravel() * trials
    o = counts.ravel().astype(float)
    big = e >= 5.0
    cells = [(o[big], e[big]), (np.array([o[~big].sum()]), np.array([e[~big].sum()]))]
    stat = math.fsum(math.fsum(((oo - ee) ** 2 / ee).tolist()) for oo, ee in cells if ee.sum() > 0)
    dof = int(big.sum()) - (0 if e[~big].sum() > 0 else 1)
    threshold = float(chi2_dist.ppf(quantile, dof))
    why = None if stat < threshold else f"chi-squared {stat:.1f} >= {threshold:.1f} (dof {dof})"
    return stat, dof, why


def mean_within(counts, R, expected, trials, k=4.0):
    w = counts / trials
    mean = moment_vector(w, R)
    x = np.arange(counts.shape[0]) - R
    var = np.array([float((w.sum(axis=1 - ax) * x**2).sum()) for ax in range(2)]) - mean**2
    se = np.sqrt(var / trials)
    z = np.abs(mean - expected) / se
    return None if z.max() <= k else f"empirical mean {mean} is {z.max():.1f} standard errors from {expected}"


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

def self_test() -> list[str]:
    """Every check accepts the right law and rejects a wrong one."""
    fails = []

    def expect(name, good, bad):
        if good is not None:
            fails.append(f"{name} rejects the right law: {good}")
        if bad is None:
            fails.append(f"{name} accepts a wrong law")

    law2, n = workloads.UNIT_COV_2D, 12
    R = n * radius(law2)
    d = drift(law2)
    r = origin_returns(law2, n)
    laws = forward_laws(law2, {n - 1, n})
    P, P_prev = laws[n], laws[n - 1]
    flipped = forward_laws(law2, {n}, sign=-1.0)[n]
    free_laws = forward_laws(law2, {n - 1, n}, sign=0.0)
    free, free_prev = free_laws[n], free_laws[n - 1]
    m1 = d * math.fsum(r[:n])
    expect("unit mass", unit_mass(P), unit_mass(P * (1 + 1e-9)))
    bad = P.copy()
    bad[0, 0] = -1e-300
    expect("no negative weight", nonnegative(P), nonnegative(bad))
    expect("mirror symmetry", mirror_x2(P), mirror_x2(P.T))
    expect("origin value", origin_value(P, R, r[n]), origin_value(P_prev, R, r[n]))
    expect("first moment", first_moment(P, R, m1), first_moment(flipped, R, m1))
    expect("second moment", second_moment(free, R, n * covariance(law2)),
           second_moment(free_prev, R, n * covariance(law2)))
    expect("pointwise", matches(P, laws[n]), matches(flipped, laws[n]))
    expect("route deviation", route_deviation_ok(1e-16), route_deviation_ok(2 * TOL))
    table = {"gaussian": {64: 0.3, 96: 0.2}, "corrected": {64: 0.1, 96: 0.1}}
    swapped = {"gaussian": table["corrected"], "corrected": table["gaussian"]}
    expect("corrected below gaussian", corrected_below_gaussian(table),
           corrected_below_gaussian(swapped))

    fp = np.empty(n)  # f'_m from r by inverting the renewal identity
    for m in range(1, n + 1):
        fp[m - 1] = r[m] - math.fsum(fp[j - 1] * r[m - j] for j in range(1, m))
    expect("renewal identity", renewal(fp, r), renewal(np.roll(fp, 1), r))
    bad = fp.copy()
    bad[3] += 1e-9
    expect("first-return agreement", first_returns_agree(fp, fp), first_returns_agree(fp, bad))

    law1 = workloads.LAZY_1D
    a1 = law1["q"][(1,)] - law1["p"][(1,)]
    xs = [-7, -1, 0, 1, 5]
    dp1 = forward_laws(law1, {16})[16]
    right = {x: float(dp1[x + 16]) for x in xs}
    wrong = lazy_1d_closed_form(16, xs, -a1)
    expect("1-D closed form", closed_form_1d(right, 16, a1), closed_form_1d(wrong, 16, a1))
    g = gaussian_error_limit_1d(law1)
    expect("gaussian limit", gaussian_limit({1024: 1.04 * g, 2048: 1.02 * g}, g),
           gaussian_limit({1024: 2.04 * g, 2048: 2.02 * g}, g))
    expect("corrected slope", corrected_slope({1024: 4e-3, 2048: 2e-3}),
           corrected_slope({1024: 4e-3, 2048: 4e-3}))

    ns, trials = workloads.SIM_N, workloads.SIM_TRIALS
    Rs = ns * radius(law2)
    right, wrong = forward_laws(law2, {ns})[ns], forward_laws(law2, {ns}, sign=-1.0)[ns]
    rng = np.random.default_rng(20161806)
    good = rng.multinomial(trials, right.ravel() / right.sum()).reshape(right.shape)
    bad = rng.multinomial(trials, wrong.ravel() / wrong.sum()).reshape(wrong.shape)
    expect("chi-squared", chi_squared(good, right, trials)[2], chi_squared(bad, right, trials)[2])
    mean = d * math.fsum(origin_returns(law2, ns)[:ns])
    expect("empirical mean", mean_within(good, Rs, mean, trials),
           mean_within(bad, Rs, mean, trials))
    return fails
