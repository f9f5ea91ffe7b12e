import hashlib
import json
import math
import sys
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
    _law_tables,
    _uniform,
    _window_points,
    default_window,
    window_predictions,
)
from lltwalk.io_text import predictions_text
from lltwalk.specfile import parse_spec_text
from lltwalk.walk_model import common_box

from conftest import CONFIGS, UNEQUAL_REACH, config_path, fresh_python, nonzero_cells, report_rows


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


@pytest.mark.parametrize("fixture,n", [("lazy_pert", 10), ("unit_cov_2d", 12), ("spec3d", 6)])
def test_simulate_int64_positions_match_reference_sampler(request, monkeypatch, fixture, n):
    # a box of 2^31 cells or more steps int64 positions; forced here on a small box
    import lltwalk.harness as hz

    monkeypatch.setattr(hz, "SIM_CHUNK", 512)
    monkeypatch.setattr(hz, "_position_dtype", lambda cells: np.int64)
    dtypes, law_tables = [], hz._law_tables

    def recording(pmf, strides, dtype):
        dtypes.append(dtype)
        return law_tables(pmf, strides, dtype)

    monkeypatch.setattr(hz, "_law_tables", recording)
    spec = request.getfixturevalue(fixture)
    emp = hz.simulate(spec, n, 1300, seed=31)
    offset, counts = _reference_simulate(spec, n, 1300, 31, 512)
    assert dtypes == [np.int64, np.int64]
    assert np.array_equal(emp.offset, offset)
    assert np.array_equal(emp.counts, counts)


def test_position_dtype_rule():
    # int32 holds every position and step of a box below 2^31 cells, and its
    # least value, the guide tables' split mark, is none of them
    import lltwalk.harness as hz

    assert hz._position_dtype(1) is np.int32
    assert hz._position_dtype((1 << 31) - 1) is np.int32
    assert hz._position_dtype(1 << 31) is np.int64
    assert hz._position_dtype(1 << 40) is np.int64


def test_simulate_bytes_pinned(tmp_path):
    # the CLI's bytes at walkbench simulate_2d's input, as written before the
    # step loop drew raw words into int32 positions
    out = tmp_path / "s.csv"
    argv = ["simulate", "--spec", config_path("unit_cov_2d.cfg"), "--n", "64",
            "--trials", "262144", "--seed", "3", "--out", str(out)]
    from lltwalk.cli import main

    assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "82af525f9278fac96f6e9c83f5bd8e5ef8ab238f274ec3c642d3534f35f5265c"


def test_raw_word_is_generator_double():
    # Generator.random makes each double of one raw word as (w >> 11) * 2^-53,
    # so the simulator's words stand for the doubles the reference draws
    stream = np.random.Philox(key=7)
    stream.advance(3)
    stream.random_raw(1)  # start mid-counter
    state = stream.state
    words = stream.random_raw(10**5)
    stream.state = state
    u = np.random.Generator(stream).random(10**5)
    assert np.array_equal(_uniform(words), u)
    assert np.array_equal(words >> 52, np.floor(u * GUIDE_BINS).astype(np.uint64))
    # the edge words, against the exact doubles (w >> 11) / 2^53
    edges = np.array([0, (1 << 64) - 1, 0xFFF << 52], dtype=np.uint64)
    u = _uniform(edges)
    assert u.tolist() == [0.0, 1.0 - 2.0**-53, 4095 / 4096]
    assert (edges >> 52).tolist() == np.floor(u * GUIDE_BINS).astype(int).tolist() == [0, 4095, 4095]


def _generator_threads(monkeypatch):
    """Patch np.random.Philox to record whether each generator is built on the main thread."""
    import threading

    made, philox = [], np.random.Philox

    def recording(*args, **kwargs):
        made.append(threading.current_thread() is threading.main_thread())
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", recording)
    return made


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("fixture,n,chunk,trials", [
    ("lazy_pert", 10, 512, 1300),
    ("unit_cov_2d", 12, 512, 1300),
    ("spec3d", 6, 512, 1300),
    # 15 draws a chunk: chunks past the first start mid-counter
    ("lazy_pert", 3, 5, 23),
])
def test_simulate_independent_of_worker_count(request, monkeypatch, workers, fixture, n,
                                              chunk, trials):
    # each chunk starts at its own offset in the seed's Philox stream, so any
    # number of threads reproduces the one serial stream of the reference
    import lltwalk.harness as hz

    monkeypatch.setattr(hz, "SIM_CHUNK", chunk)
    monkeypatch.setattr(hz, "_usable_cpus", lambda: workers)
    spec = request.getfixturevalue(fixture)
    offset, counts = _reference_simulate(spec, n, trials, 31, chunk)
    made = _generator_threads(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade the interpreter lock often
    try:
        emp = hz.simulate(spec, n, trials, seed=31)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(emp.offset, offset)
    assert np.array_equal(emp.counts, counts)
    assert len(made) == -(-trials // chunk)  # one generator per chunk
    assert set(made) == {workers == 1}  # one worker runs inline, more on a pool


def test_simulate_workers_within_the_cap(monkeypatch):
    # each worker, the first included, is charged its counts, bincount and
    # a full chunk's buffers; workers start while the cap holds them all
    # (the thread pool's modules are loaded here: see the test below)
    import concurrent.futures.thread  # noqa: F401
    import lltwalk.harness as hz

    monkeypatch.setattr(hz, "SIM_CHUNK", 512)
    monkeypatch.setattr(hz, "_usable_cpus", lambda: 4)
    cells = 1681
    each = 16 * cells + hz.CHUNK_TRIAL_BYTES * 512
    for cap, workers in [(16 * cells, 1), (2 * each - 1, 1), (2 * each, 2),
                         (4 * each, 4), (1 << 40, 4)]:
        assert hz._worker_count(cells, 6, cap) == workers
    assert hz._worker_count(cells, 3, 1 << 40) == 3
    monkeypatch.setattr(hz, "_usable_cpus", lambda: 1)
    assert hz._worker_count(cells, 6, 1 << 40) == 1


def test_worker_count_charges_the_pool_load(unit_cov_2d, monkeypatch):
    # before the first pool in a process, a second worker also needs the
    # pool's modules; simulate_2d's box (n = 64, two chunks) still gets two
    # workers at the default cap
    import lltwalk.harness as hz

    monkeypatch.delitem(sys.modules, "concurrent.futures.thread", raising=False)
    monkeypatch.setattr(hz, "_usable_cpus", lambda: 2)
    cells = 1681
    each = 16 * cells + hz.CHUNK_TRIAL_BYTES * hz.SIM_CHUNK
    assert hz._worker_count(cells, 2, 2 * each) == 1
    assert hz._worker_count(cells, 2, 2 * each + hz.POOL_LOAD_BYTES - 1) == 1
    assert hz._worker_count(cells, 2, 2 * each + hz.POOL_LOAD_BYTES) == 2
    box = exact_engine._hull_box((unit_cov_2d.p, unit_cov_2d.q), 64)
    cells = math.prod(h - l + 1 for l, h in box)
    laws = hz.LAW_POINT_BYTES * 18 + 2 * 4 * GUIDE_BINS + hz.GUIDE_BUILD_BYTES
    assert hz._worker_count(cells, 2, exact_engine.DEFAULT_MEM_LIMIT - laws) == 2


def test_pool_load_within_its_charge():
    # a fresh interpreter with lltwalk loaded, as simulate finds it: the
    # pool's first import and use, traced, and the two-worker simulate that
    # makes them within two workers, the laws and the load
    proc = fresh_python(
        "import sys, tracemalloc\n"
        "import lltwalk.harness as hz\n"
        "from lltwalk import load_walk_spec\n"
        f"spec = load_walk_spec({config_path('unit_cov_2d.cfg')!r})\n"
        "before = 'concurrent.futures.thread' in sys.modules\n"
        "tracemalloc.start()\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "with ThreadPoolExecutor(2) as pool:\n"
        "    list(pool.map(abs, range(2)))\n"
        "load = tracemalloc.get_traced_memory()[1]\n"
        "tracemalloc.stop()\n"
        "print(before, load, hz.POOL_LOAD_BYTES)\n"
    )
    assert proc.returncode == 0, proc.stderr
    before, load, charge = proc.stdout.split()
    assert before == "False" and int(load) <= int(charge)

    proc = fresh_python(
        "import sys, tracemalloc\n"
        "import lltwalk.harness as hz\n"
        "from lltwalk import load_walk_spec\n"
        f"spec = load_walk_spec({config_path('unit_cov_2d.cfg')!r})\n"
        "hz.simulate(spec, 2, 10, seed=3)  # one worker, no pool: loads numpy.random\n"
        "hz.SIM_CHUNK = 512\n"
        "hz._usable_cpus = lambda: 2\n"
        "before = 'concurrent.futures.thread' in sys.modules\n"
        "tracemalloc.start()\n"
        "hz.simulate(spec, 200, 1300, seed=3)\n"
        "print(before, 'concurrent.futures.thread' in sys.modules, tracemalloc.get_traced_memory()[1])\n"
    )
    assert proc.returncode == 0, proc.stderr
    before, after, peak = proc.stdout.split()
    assert (before, after) == ("False", "True")
    import lltwalk.harness as hz

    budget = 2 * 16 * 801 ** 2 + hz.CHUNK_TRIAL_BYTES * 512 + hz.LAW_POINT_BYTES * 18
    assert int(peak) <= budget + hz.POOL_LOAD_BYTES + (256 << 10)


def test_simulate_memory_within_guard(unit_cov_2d, monkeypatch):
    # tracemalloc sees every thread: two workers hold two counts arrays and
    # two bincounts, 16 B per cell each, and the second one's chunk buffers
    import lltwalk.harness as hz

    monkeypatch.setattr(hz, "SIM_CHUNK", 512)
    monkeypatch.setattr(hz, "_usable_cpus", lambda: 2)
    n = 200
    cells = (4 * n + 1) ** 2
    budget = 2 * 16 * cells + hz.CHUNK_TRIAL_BYTES * hz.SIM_CHUNK
    tracemalloc.start()
    try:
        hz.simulate(unit_cov_2d, n, 1300, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget + (256 << 10)


@pytest.mark.parametrize("trials", [1300, 4096])
def test_simulate_first_worker_within_guard(unit_cov_2d, monkeypatch, trials):
    # one worker: its counts and bincount, 16 B per cell, and the buffers of
    # its chunk, CHUNK_TRIAL_BYTES per trial of a small chunk or a full one
    import lltwalk.harness as hz

    monkeypatch.setattr(hz, "SIM_CHUNK", 4096)
    monkeypatch.setattr(hz, "_usable_cpus", lambda: 1)
    n = 20
    hz.simulate(unit_cov_2d, 2, 10, seed=3)  # first use imports numpy.random
    budgets = []
    guard = exact_engine._guard_cells

    def recording_guard(shape, itemsize, mem_limit, extra=0):
        budgets.append(math.prod(shape) * itemsize + extra)
        guard(shape, itemsize, mem_limit, extra)

    monkeypatch.setattr(exact_engine, "_guard_cells", recording_guard)
    tracemalloc.start()
    try:
        hz.simulate(unit_cov_2d, n, trials, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points = sum(np.count_nonzero(f.weights) for f in (unit_cov_2d.p, unit_cov_2d.q))
    laws = hz.LAW_POINT_BYTES * points + 2 * 4 * GUIDE_BINS + hz.GUIDE_BUILD_BYTES
    assert budgets == [16 * (4 * n + 1) ** 2 + hz.CHUNK_TRIAL_BYTES * trials + laws]
    assert peak <= budgets[0] + (256 << 10)


# the two valid laws that cost a chunk the most per trial: nearly every trial
# stays at the origin and gathers its word and bin for q, or p splits every
# guide bin and builds every trial's double
STICKY_ORIGIN = """dim = 1
p 0 = 999/1000
p 1 = 1/2000
p -1 = 1/2000
q 0 = 999/1000
q 1 = 3/5000
q -1 = 2/5000
"""
EVERY_BIN_SPLIT = "dim = 1\nunperturbed = true\n" + "".join(
    f"{law} {x} = 1/4097\n" for law in "pq" for x in range(-2048, 2049))


@pytest.mark.parametrize("text, reach", [(STICKY_ORIGIN, 1), (EVERY_BIN_SPLIT, 2048)],
                         ids=["sticky_origin", "every_bin_split"])
def test_simulate_full_chunk_within_guard(monkeypatch, text, reach):
    # a full chunk where the per-trial charge binds: the configs peak at 39 B
    # a trial at most, these laws at 53 and 57 B
    import lltwalk.harness as hz

    monkeypatch.setattr(hz, "_usable_cpus", lambda: 1)
    p, q, unperturbed, _ = parse_spec_text(text)
    spec = validate_walk_spec(p, q, unperturbed)
    if text == EVERY_BIN_SPLIT:  # no guide bin maps to one step
        guide = _law_tables(spec.p, np.array([1]), np.int32).guide
        assert (guide == np.iinfo(np.int32).min).all()
    n = 2
    hz.simulate(spec, 1, 10, seed=3)  # first use imports numpy.random
    tracemalloc.start()
    try:
        hz.simulate(spec, n, hz.SIM_CHUNK, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (2 * reach * n + 1) + hz.CHUNK_TRIAL_BYTES * hz.SIM_CHUNK + (256 << 10)


def test_simulate_charges_the_law_tables(monkeypatch):
    # a 1-D law of 32769 equal steps at n = 1 with a few trials: building its
    # guide tables and keeping their steps and CDF outweigh the 32769-cell
    # box and the chunk, so the guard charges them.  simulate reads only p
    # and q, and validating 32769 exact weights would take seconds
    import types

    import lltwalk.harness as hz

    monkeypatch.setattr(hz, "_usable_cpus", lambda: 1)
    law = LatticePMF(dim=1, offset=np.array([-16384]), weights=np.full(32769, 1 / 32769))
    spec = types.SimpleNamespace(p=law, q=law)
    hz.simulate(spec, 1, 10, seed=3)  # first use imports numpy.random
    budgets = []
    guard = exact_engine._guard_cells

    def recording_guard(shape, itemsize, mem_limit, extra=0):
        budgets.append(math.prod(shape) * itemsize + extra)
        guard(shape, itemsize, mem_limit, extra)

    monkeypatch.setattr(exact_engine, "_guard_cells", recording_guard)
    tracemalloc.start()
    try:
        emp = hz.simulate(spec, 1, 10, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert emp.counts.shape == (32769,)
    laws = hz.LAW_POINT_BYTES * 2 * 32769 + 2 * 4 * GUIDE_BINS + hz.GUIDE_BUILD_BYTES
    assert budgets == [16 * 32769 + hz.CHUNK_TRIAL_BYTES * 10 + laws]
    assert peak <= budgets[0] + (256 << 10)


def test_simulate_charges_the_guide_build(lazy_pert, monkeypatch):
    # a 21-cell box, 10 trials and two 3-point laws: the guides' arrays of
    # GUIDE_BINS entries are nearly all the run holds, so the guard must
    # charge them with no slack.  Charged per point alone, the run passed a
    # 64 KiB cap and peaked at 189 KB
    import lltwalk.harness as hz

    simulate(lazy_pert, 10, 10, seed=3)  # first use imports numpy.random
    budgets = []
    guard = exact_engine._guard_cells

    def recording_guard(shape, itemsize, mem_limit, extra=0):
        budgets.append(math.prod(shape) * itemsize + extra)
        guard(shape, itemsize, mem_limit, extra)

    monkeypatch.setattr(exact_engine, "_guard_cells", recording_guard)
    tracemalloc.start()
    try:
        simulate(lazy_pert, 10, 10, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    laws = hz.LAW_POINT_BYTES * 6 + 2 * 4 * GUIDE_BINS + hz.GUIDE_BUILD_BYTES
    assert budgets == [16 * 21 + hz.CHUNK_TRIAL_BYTES * 10 + laws]
    assert peak <= budgets[0]
    with pytest.raises(ResourceLimit):
        simulate(lazy_pert, 10, 10, seed=3, mem_limit=64 << 10)


def test_simulate_refuses_a_chunk_past_the_cap(lazy_pert):
    # the counts box fits a 1 MiB cap, but a full chunk's buffers do not
    with pytest.raises(ResourceLimit):
        simulate(lazy_pert, 10, 131072, seed=3, mem_limit=1 << 20)
    simulate(lazy_pert, 10, 14000, seed=3, mem_limit=1 << 20)


@pytest.mark.parametrize("seed", [-1, 1 << 128])
def test_simulate_seed_out_of_range(lazy_pert, seed):
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*128\)"):
        simulate(lazy_pert, 3, 10, seed)


def test_simulate_counts_box_is_the_hull(monkeypatch):
    # the n-step hull box of p and q, (4n + 1) x (2n + 1), not a (4n + 1)^2 cube
    import lltwalk.harness as hz

    monkeypatch.setattr(hz, "SIM_CHUNK", 512)
    spec = validate_walk_spec(*parse_spec_text(UNEQUAL_REACH)[:2])
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
    cdf = _law_tables(law, strides, np.int64).cdf
    edges = np.arange(GUIDE_BINS) / GUIDE_BINS
    u = np.concatenate(
        [
            cdf,
            np.nextafter(cdf, 0.0),
            np.nextafter(cdf, 1.0),
            edges,
            np.nextafter(edges, 0.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ]
    )
    u = u[(u >= 0.0) & (u < 1.0)]
    # the words of the draws on either side of each u on the 2^-53 grid, the
    # range of a uniform draw, with random low bits, which the draw drops
    top = np.floor(u * 2.0**53).astype(np.uint64)
    top = np.concatenate([top, np.minimum(top + 1, (1 << 53) - 1)])
    low = np.random.Generator(np.random.Philox(key=5)).integers(0, 1 << 11, len(top), dtype=np.uint64)
    words = np.concatenate([top << 11 | low, np.random.Philox(key=5).random_raw(10**5)])
    bins = (words >> 52).astype(np.intp)
    for dtype in (np.int32, np.int64):
        table = _law_tables(law, strides, dtype)
        assert table.steps.dtype == table.guide.dtype == dtype
        assert len(np.unique(table.steps)) == len(table.steps)  # offset equality is index equality
        # only a CDF edge below 1 can split a bin, and it splits at most one
        assert np.count_nonzero(table.guide == np.iinfo(dtype).min) <= len(cdf) - 1
        expect = table.steps[np.searchsorted(cdf, _uniform(words), side="right")]
        assert np.array_equal(table(words, bins), expect)


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
    lo, shape, _, bound = exact_engine._box((lazy_pert.p, lazy_pert.q), n)
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
    wide, box = (compare(lazy_pert, [8, 16], window=w).columns for w in (1e300, 1e9))
    assert wide.keys() == box.keys()
    assert all(np.array_equal(wide[k], box[k]) for k in wide)


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
