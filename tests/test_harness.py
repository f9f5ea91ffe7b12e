import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lltwalk import (
    EmpiricalPMF,
    LatticePMF,
    asymptotic_prediction,
    chi_squared_check,
    compare,
    convolve_power,
    edgeworth_coeffs,
    exact_engine,
    llt_edgeworth,
    perturbed_fourier,
    simulate,
    validate_walk_spec,
)
from lltwalk.errors import ResourceLimit
from lltwalk.harness import (
    GUIDE_BINS,
    REPORT_ROW_BYTES,
    WINDOW_CELL_BYTES,
    _SPLIT,
    _law_tables,
    _window_points,
    default_window,
    window_predictions,
)
from lltwalk.io_text import predictions_text
from lltwalk.specfile import parse_spec_text
from lltwalk.walk_model import common_box

from conftest import CONFIGS, nonzero_cells, report_rows


def test_simulate_deterministic(lazy_pert):
    a = simulate(lazy_pert, 10, 1000, seed=42)
    b = simulate(lazy_pert, 10, 1000, seed=42)
    assert np.array_equal(a.counts, b.counts)
    c = simulate(lazy_pert, 10, 1000, seed=43)
    assert not np.array_equal(a.counts, c.counts)


def test_simulate_one_step_matches_exit_law(lazy_pert):
    trials = 40000
    emp = simulate(lazy_pert, 1, trials, seed=11)
    counts = dict(nonzero_cells(emp.counts, emp.offset))
    for pt, w in lazy_pert.q.points():
        obs = counts.get(pt, 0) / trials
        assert abs(obs - w) <= 4 * math.sqrt(w / trials)


def test_simulate_counts_sum(lazy_pert):
    emp = simulate(lazy_pert, 7, 12345, seed=5)
    assert int(emp.counts.sum()) == 12345


def test_simulate_multichunk_deterministic(lazy_pert, monkeypatch):
    # draws are consumed in fixed-size chunks; spanning a boundary must stay
    # reproducible run to run
    import lltwalk.harness as hz

    monkeypatch.setattr(hz, "SIM_CHUNK", 512)
    a = hz.simulate(lazy_pert, 5, 1300, seed=9)
    b = hz.simulate(lazy_pert, 5, 1300, seed=9)
    assert np.array_equal(a.counts, b.counts)
    assert int(a.counts.sum()) == 1300


def _reference_simulate(spec, n, trials, seed, chunk):
    """The step loop simulate ran before flat positions and guide tables:
    (N, nu) positions, a searchsorted of each draw against both laws' CDFs
    and a broadcast np.where.  Returns (offset, counts)."""

    def law(pmf):
        pts = list(pmf.points())
        cdf = np.cumsum([w for _, w in pts])
        cdf[-1] = 1.0
        return np.array([pt for pt, _ in pts], dtype=np.int64), cdf

    (p_sup, p_cdf), (q_sup, q_cdf) = law(spec.p), law(spec.q)
    rad = max(n, 1) * spec.radius
    shape = (2 * rad + 1,) * spec.nu
    counts = np.zeros(shape, dtype=np.int64)
    rng = np.random.Generator(np.random.Philox(key=seed))
    for done in range(0, trials, chunk):
        csize = min(chunk, trials - done)
        pos = np.zeros((csize, spec.nu), dtype=np.int64)
        for _ in range(n):
            u = rng.random(csize)
            at0 = ~pos.any(axis=1)
            idx_p = np.searchsorted(p_cdf, u, side="right")
            idx_q = np.searchsorted(q_cdf, u, side="right")
            pos += np.where(at0[:, None], q_sup[idx_q], p_sup[idx_p])
        flat = np.ravel_multi_index((pos + rad).T, shape)
        counts += np.bincount(flat, minlength=counts.size).reshape(shape)
    return np.full(spec.nu, -rad), counts


@pytest.mark.parametrize("fixture,n", [("lazy_pert", 10), ("unit_cov_2d", 12), ("spec3d", 6)])
def test_simulate_matches_reference_sampler(request, monkeypatch, fixture, n):
    # 1300 trials in chunks of 512 cross two chunk boundaries
    import lltwalk.harness as hz

    monkeypatch.setattr(hz, "SIM_CHUNK", 512)
    spec = request.getfixturevalue(fixture)
    emp = hz.simulate(spec, n, 1300, seed=31)
    offset, counts = _reference_simulate(spec, n, 1300, 31, 512)
    assert np.array_equal(emp.offset, offset)
    assert np.array_equal(emp.counts, counts)


# reach 2 along x1 and 1 along x2
_UNEQUAL_REACH = """dim = 2
p 0 0 = 1/5
p 1 0 = 1/10
p -1 0 = 1/10
p 2 0 = 1/10
p -2 0 = 1/10
p 0 1 = 1/5
p 0 -1 = 1/5
q 0 0 = 1/5
q 1 0 = 3/20
q -1 0 = 1/20
q 2 0 = 1/10
q -2 0 = 1/10
q 0 1 = 1/5
q 0 -1 = 1/5
"""


def test_simulate_counts_box_is_the_hull(monkeypatch):
    # the n-step hull box of p and q, (4n + 1) x (2n + 1), not a (4n + 1)^2 cube
    import lltwalk.harness as hz

    monkeypatch.setattr(hz, "SIM_CHUNK", 512)
    spec = validate_walk_spec(*parse_spec_text(_UNEQUAL_REACH)[:2])
    n = 9
    emp = hz.simulate(spec, n, 1300, seed=31)
    assert emp.counts.shape == (4 * n + 1, 2 * n + 1)
    assert emp.offset.tolist() == [-2 * n, -n]
    offset, counts = _reference_simulate(spec, n, 1300, 31, 512)
    got, want = common_box((emp.counts, emp.offset), (counts, offset))
    assert np.array_equal(got, want)


def _step_law(request, name):
    if name == "rare":  # a 1/1000 weight between two large ones
        return LatticePMF.from_points(1, {-1: "999/2000", 0: "1/1000", 1: "999/2000"})
    if name == "near-edge":  # CDF edges 2^-45 below 1/4 and above 3/4, both bin edges
        a = Fraction(1, 4) - Fraction(1, 2**45)
        return LatticePMF.from_points(1, {-1: a, 0: 1 - 2 * a, 1: a})
    source, which = name.rsplit("-", 1)
    if source == "spec3d":
        return getattr(request.getfixturevalue("spec3d"), which)
    p, q, _, _ = parse_spec_text((CONFIGS / f"{source}.cfg").read_text())
    return {"p": p, "q": q}[which]


@pytest.mark.parametrize(
    "name",
    [f"{path.stem}-{w}" for path in sorted(CONFIGS.glob("*.cfg")) for w in "pq"]
    + ["spec3d-p", "spec3d-q", "rare", "near-edge"],
)
def test_guide_table_lookup_is_searchsorted(request, name):
    law = _step_law(request, name)
    r = law.radius
    strides = (2 * r + 1) ** np.arange(law.dim - 1, -1, -1, dtype=np.int64)
    table = _law_tables(law, strides)
    assert len(np.unique(table.steps)) == len(table.steps)  # offset equality is index equality
    # only a CDF edge below 1 can split a bin, and it splits at most one
    assert np.count_nonzero(table.guide == _SPLIT) <= len(table.cdf) - 1
    cdf = table.cdf
    edges = np.arange(GUIDE_BINS) / GUIDE_BINS
    u = np.concatenate(
        [
            cdf,
            np.nextafter(cdf, 0.0),
            np.nextafter(cdf, 1.0),
            edges,
            np.nextafter(edges, 0.0),
            [0.0, np.nextafter(1.0, 0.0)],
            np.random.Generator(np.random.Philox(key=5)).random(10**5),
        ]
    )
    u = u[(u >= 0.0) & (u < 1.0)]  # the range of a uniform draw
    bins = (u * GUIDE_BINS).astype(np.intp)
    expect = table.steps[np.searchsorted(cdf, u, side="right")]
    assert np.array_equal(table(u, bins), expect)


def test_unperturbed_simulation_total_variation(lazy_sym):
    n, trials = 50, 200_000
    emp = simulate(lazy_sym, n, trials, seed=123)
    pn = convolve_power(lazy_sym.p, n)
    tv = 0.0
    counts = dict(nonzero_cells(emp.counts, emp.offset))
    support = 0
    for pt, w in pn.points():
        tv += abs(counts.get(pt, 0) / trials - w)
        support += 1
    tv /= 2
    assert tv <= 3 * math.sqrt(support / trials)


def test_chi_squared_consistency(lazy_pert):
    n, trials = 60, 100_000
    exact = perturbed_fourier(lazy_pert, n)
    failures = 0
    for seed in range(8):
        emp = simulate(lazy_pert, n, trials, seed=seed)
        res = chi_squared_check(emp, exact)
        failures += 0 if res["ok"] else 1
    assert failures <= 1


def test_chi_squared_consistency_2d(unit_cov_2d):
    emp = simulate(unit_cov_2d, 30, 60_000, seed=17)
    exact = perturbed_fourier(unit_cov_2d, 30)
    res = chi_squared_check(emp, exact)
    assert res["ok"], res


def test_chi_squared_detects_wrong_model(lazy_pert, lazy_sym):
    emp = simulate(lazy_pert, 60, 100_000, seed=1)
    wrong = perturbed_fourier(lazy_sym, 60)
    res = chi_squared_check(emp, wrong)
    assert not res["ok"]


def _chi_squared_by_dicts(emp, exact, quantile=0.999, min_expected=5.0):
    """Pearson statistic pooled point by point through dicts, threshold from scipy.stats.

    The reference chi_squared_check must match: the same bins, dof and
    threshold, and the statistic up to summation order.
    """
    from scipy.stats import chi2

    cells, pooled_exp, pooled_obs = [], 0.0, 0
    obs_map = dict(nonzero_cells(emp.counts, emp.offset))
    seen = set()
    for pt, w in exact.pmf.points():
        e, o = w * emp.trials, obs_map.get(pt, 0)
        seen.add(pt)
        if e >= min_expected:
            cells.append((o, e))
        else:
            pooled_exp += e
            pooled_obs += o
    for pt, o in obs_map.items():
        if pt not in seen:  # observed where the exact mass is zero
            pooled_obs += o
            pooled_exp += exact.pmf.value_at(pt) * emp.trials
    if pooled_exp > 0:
        cells.append((pooled_obs, pooled_exp))
    stat = math.fsum((o - e) ** 2 / e for o, e in cells)
    dof = max(1, len(cells) - 1)
    threshold = float(chi2.ppf(quantile, dof))
    return {"stat": stat, "dof": dof, "threshold": threshold, "ok": stat < threshold}


def _empirical(offset, counts, n=0):
    counts = np.asarray(counts, dtype=np.int64)
    return EmpiricalPMF(n=n, trials=int(counts.sum()), seed=0,
                        offset=np.asarray(offset, dtype=np.int64), counts=counts)


def _chi2_simulate_2d(specs):
    # the walkbench simulate_2d workload's input
    spec = specs["unit_cov_2d"]
    return simulate(spec, 64, 1 << 18, seed=3), exact_engine.perturbed_forward(spec, 64)


def _chi2_counts_past_exact_box(specs):
    # the counts' box holds the exact law's on axis 0 and is inside it on axis 1
    spec = specs["unit_cov_2d"]
    exact = perturbed_fourier(spec, 8)
    sim = simulate(spec, 8, 20_000, seed=4).counts  # box [-16, 16]^2
    counts = np.zeros((41, 11), dtype=np.int64)
    counts[4:37] = sim[:, 11:22]
    counts[0, 0] = counts[-1, -1] = 3  # where the exact law is 0
    return _empirical((-20, -5), counts, n=8), exact


def _chi2_empty_pooled_bin(specs):
    # every exact cell expects >= 5, and the one count past them meets no
    # expectation, so the pooled bin is empty and dropped
    exact = exact_engine.perturbed_forward(specs["lazy_pert"], 1)  # 0.2, 0.5, 0.3 on [-1, 1]
    return _empirical([-1], [200, 499, 300, 0, 1], n=1), exact


@pytest.mark.parametrize("case", [_chi2_simulate_2d, _chi2_counts_past_exact_box,
                                  _chi2_empty_pooled_bin])
def test_chi_squared_check_matches_dict_pooling(case, lazy_pert, unit_cov_2d):
    emp, exact = case({"lazy_pert": lazy_pert, "unit_cov_2d": unit_cov_2d})
    got, ref = chi_squared_check(emp, exact), _chi_squared_by_dicts(emp, exact)
    assert (got["dof"], got["threshold"], got["ok"]) == (ref["dof"], ref["threshold"], ref["ok"])
    assert got["stat"] == pytest.approx(ref["stat"], rel=1e-12, abs=0)


def test_compare_report_integrity(lazy_pert):
    rep = compare(lazy_pert, [8, 16, 32, 64], route="fourier")
    assert rep.flavors == ["gaussian", "corrected"]
    # rows sorted by (n, x)
    keys = [(row["n"], tuple(row["x"])) for row in report_rows(rep)]
    assert keys == sorted(keys)
    scale_ok = all(
        row["corrected_scaled_err"] == pytest.approx(
            row["n"] ** 0.5 * row["corrected_abs_err"], rel=1e-15
        )
        for row in report_rows(rep)
    )
    assert scale_ok
    assert all(dev < 1e-12 for dev in rep.route_deviation.values())
    assert set(rep.slopes) == {"gaussian", "corrected"}


@pytest.mark.parametrize("route", ["fourier", "dp"])
def test_compare_rows_independent_of_tail_box(lazy_pert, monkeypatch, route):
    # a window past the tail box keeps its rows over window and full support;
    # the exact column reads 0 past the box, within the bound of the truth
    n = 1000
    got = compare(lazy_pert, [n], window=2.0 * n, route=route, crosscheck=False)
    with monkeypatch.context() as m:
        m.setattr(exact_engine, "TAIL_TOL", 0.0)
        ref = compare(lazy_pert, [n], window=2.0 * n, route=route, crosscheck=False)
    assert [row["x"] for row in report_rows(got)] == [[x] for x in range(-n, n + 1)]
    assert [row["x"] for row in report_rows(ref)] == [[x] for x in range(-n, n + 1)]
    lo, shape, _, bound = exact_engine._box((lazy_pert.p, lazy_pert.q), n, 0, 1 << 62)
    assert shape[0] < 2 * n + 1 and 0.0 < bound <= exact_engine.TAIL_TOL
    assert all(row["exact"] == 0.0 for row in report_rows(got)
               if not lo[0] <= row["x"][0] < lo[0] + shape[0])
    exact = np.array([row["exact"] for row in report_rows(got)])
    want = np.array([row["exact"] for row in report_rows(ref)])
    # the fourier route's roundoff, as in test_route_within_tail_bound_of_full_support
    roundoff = n * np.finfo(float).eps * want.max() if route == "fourier" else 0.0
    assert np.abs(exact - want).max() <= bound + 1e-16 + roundoff


def test_window_points_cost_the_window_not_the_box():
    # compare passes the full n-step support, 16385 a side at 2-D n = 4096
    box = [(-10**6, 10**6)]
    tracemalloc.start()
    try:
        pts = _window_points(box, 3.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pts.ravel().tolist() == [-3, -2, -1, 0, 1, 2, 3]
    assert peak < 1 << 16


def test_compare_window_past_float_square(lazy_pert):
    # 1e300 ** 2 raises OverflowError; the window then holds the whole n-step box
    assert (compare(lazy_pert, [8, 16], window=1e300).columns
            == compare(lazy_pert, [8, 16], window=1e9).columns)


def test_compare_requires_ascending(lazy_pert):
    with pytest.raises(ValueError):
        compare(lazy_pert, [32, 8])


@pytest.mark.parametrize("window", [-1.0, math.nan, math.inf])
def test_window_out_of_range_rejected(lazy_pert, window):
    with pytest.raises(ValueError):
        window_predictions(lazy_pert, 64, window)
    with pytest.raises(ValueError):
        compare(lazy_pert, [8, 16], window=window)


@pytest.mark.parametrize("fixture,window", [("lazy_pert", 4000), ("unit_cov_2d", 60)])
def test_window_memory_within_guard(request, fixture, window):
    # JSON is the largest format, and at n = 10^6 every value in the window
    # prints at full length
    spec, n = request.getfixturevalue(fixture), 10**6
    budget = (2 * window + 1) ** spec.nu * WINDOW_CELL_BYTES
    tracemalloc.start()
    try:
        predictions_text(window_predictions(spec, n, window), n, spec.nu, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget + (256 << 10)


@pytest.mark.parametrize("fixture,n,window", [("lazy_pert", 4096, 4000), ("unit_cov_2d", 32, 1e9)])
def test_compare_report_memory_within_guard(request, fixture, n, window):
    # JSON is the larger format; in 2-D the window holds every cell of the
    # n-step box (16641 rows), so rows and guarded cells coincide
    spec = request.getfixturevalue(fixture)
    tracemalloc.start()
    try:
        rep = compare(spec, [n], window=window)
        rep.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(rep.columns["n"]) * REPORT_ROW_BYTES + (256 << 10)


def test_compare_guards_every_window_before_its_route(unit_cov_2d, monkeypatch):
    # n = 32 and n = 64 fit the cap alone, not together: the rows of n = 32
    # count against n = 64's window, which is refused before its route runs
    ran = []
    route = exact_engine.perturbed_distribution
    monkeypatch.setattr(exact_engine, "perturbed_distribution",
                        lambda spec, n, **kw: ran.append(n) or route(spec, n, **kw))
    side = 2 * math.floor(default_window(unit_cov_2d, 64)) + 1
    cap = side**2 * REPORT_ROW_BYTES + 4096
    assert compare(unit_cov_2d, [64], crosscheck=False, mem_limit=cap).n_list == [64]
    ran.clear()
    with pytest.raises(ResourceLimit, match="^needs"):
        compare(unit_cov_2d, [32, 64], crosscheck=False, mem_limit=cap)
    assert ran == [32]
    with pytest.raises(ResourceLimit):
        compare(unit_cov_2d, [4096], mem_limit=128 << 20)
    assert ran == [32]


def test_compare_unperturbed_uses_refined_flavor(lazy_sym):
    rep = compare(lazy_sym, [16, 32, 64, 128], route="fourier")
    assert rep.flavors == ["gaussian", "edgeworth"]
    for n in rep.n_list:
        assert rep.max_scaled_err["edgeworth"][n] <= rep.max_scaled_err["gaussian"][n]


def test_compare_self_consistency_when_unperturbed(lazy_sym):
    rep = compare(lazy_sym, [8, 16], route="fourier")
    assert all(dev <= 1e-12 for dev in rep.route_deviation.values())


def test_report_serialization(lazy_pert):
    rep = compare(lazy_pert, [8, 16], route="fourier")
    csv = rep.to_csv()
    header = csv.splitlines()[0].split(",")
    assert header[:3] == ["n", "x1", "exact"]
    payload = json.loads(rep.to_json())
    assert payload["schema_version"] == 1
    assert payload["slopes"].keys() == {"gaussian", "corrected"}
    assert "rows" in payload
    # deterministic output
    assert rep.to_csv() == csv


@pytest.mark.parametrize("walk", ["unit_cov_2d", "lazy_sym", "unit_cov_2d.p"])
def test_compare_and_asymptotic_share_predictions(request, walk):
    # compare, window_predictions and asymptotic_prediction all read
    # harness.predict, so the values agree bit for bit, the 2-D origin
    # included; "unit_cov_2d.p" is that walk's step law taken as q = p
    name, _, law = walk.partition(".")
    spec = request.getfixturevalue(name)
    if law:
        spec = validate_walk_spec(spec.p, spec.p, unperturbed=True)
    origin = [0] * spec.nu
    rep = compare(spec, [8], route="dp", crosscheck=False)
    assert any(row["x"] == origin for row in report_rows(rep))
    coeffs = edgeworth_coeffs(spec.p, spec.L)
    for row in report_rows(rep):
        pred = asymptotic_prediction(spec, 8, row["x"])
        assert row["gaussian"] == pred.gaussian_leading
        assert row[rep.flavors[1]] == pred.total
        if spec.unperturbed:
            # the refined total is llt_edgeworth's value, not gaussian + edgeworth terms
            assert pred.total == llt_edgeworth(spec.p, coeffs, 8, row["x"])
    cols = window_predictions(spec, 8)
    xs = list(zip(*(cols[f"x{i+1}"] for i in range(spec.nu))))
    assert tuple(origin) in xs
    for i, x in enumerate(xs):
        pred = asymptotic_prediction(spec, 8, x)
        assert pred.x == x
        for term in ("gaussian_leading", "perturbation_correction", "edgeworth_terms", "total",
                     "within_horizon"):
            assert cols[term][i] == getattr(pred, term)


def test_default_window(lazy_pert):
    assert default_window(lazy_pert, 100) == pytest.approx(4 * math.sqrt(0.5 * 100))


def test_compare_slopes_perturbed_walk(lazy_pert):
    # the plain Gaussian misses the order-n^{-1/2} drift term entirely, so
    # its scaled error is flat; adding the sign correction makes it decay
    rep = compare(lazy_pert, [256, 1024, 4096], route="fourier")
    assert abs(rep.slopes["gaussian"]) <= 0.15
    assert rep.slopes["corrected"] <= -0.4
    for n in rep.n_list:
        assert rep.max_scaled_err["gaussian"][n] > 10 * rep.max_scaled_err["corrected"][n]
