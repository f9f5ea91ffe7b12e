#!/usr/bin/env python3
"""Benchmark of lltwalk's exact routes, compare report and simulator.

    python3 walkbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each run starts one fresh worker
process (``worker.py``, one thread per numeric library) that imports
lltwalk from ``src`` and repeats whole rounds of the workload's CLI
operations for S seconds. With ``--trace 0`` it reports the end-to-end
metrics (set-up time as the median of several fresh processes, the median
round's solve time, and the worker's peak resident memory); with
``--trace 1`` it reports the per-layer metrics from the worker's spans.
Every output is checked in this process by ``checks.py``, which does not
import lltwalk. The last line of stdout is the JSON result; the run record
(per-operation times, verdicts and, when traced, the spans) is written to
``.walkbench_runs/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMBA_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # set before numpy loads, here and in the worker

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".walkbench_runs"
SETUP_PROBES = 2     # fresh processes timed for set-up, besides the worker itself
RUN_LIMIT_S = 170.0  # the whole run, worker included, ends within this
CLOSED_FORM_POINTS = 6

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mib": "MiB"}
ROUTE_LAYERS = ("dp", "repr", "fourier", "first_return", "convolve_power")
PEAK_ROUTES = ROUTE_LAYERS[:4]
# Metric names must start with a letter or digit, so lltwalk._kernels is "kernels".
PER_LAYER = {
    "kernels.weighted_power_sum.s": "s",
    "kernels.weighted_power_sum.terms": "count",
    "kernels.weighted_power_sum.needed_frac": "ratio",
    "kernels.origin_returns.s": "s",
    "kernels.origin_returns.terms": "count",
    "kernels.pow_binary.s": "s",
    "kernels.dp_step.s": "s",
    "kernels.dp_step.calls": "count",
    "kernels.dp_step.cells": "count",
    "kernels.dp_step.reachable_frac": "ratio",
    "spectral.charfn_grid.s": "s",
    "spectral.invert_charfn.s": "s",
    "spectral.grid_cells": "count",
    **{f"exact_engine.{r}.{k}": "s" for r in ROUTE_LAYERS for k in ("s", "self_s")},
    **{f"exact_engine.{r}.peak_mib": "MiB" for r in PEAK_ROUTES},
    **{f"exact_engine.{r}.peak_over_guard": "ratio" for r in PEAK_ROUTES},
    "asymptotics.s": "s",
    "asymptotics.points": "count",
    "harness.compare.self_s": "s",
    "harness.window_points": "count",
    "harness.simulate.s": "s",
    "harness.simulate.steps": "count",
    "harness.simulate.count_mib": "MiB",
    "harness.chi_squared_check.s": "s",
    "io_text.s": "s",
    "io_text.bytes": "B",
    "specfile.load_walk_spec.s": "s",
    "trace.solve_s": "s",
    "trace.untraced_solve_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.bookkeeping_s": "s",
}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _spawn(args, outdir: Path, tag: str, deadline: float, probe=False) -> dict:
    result = outdir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--outdir", str(outdir), "--result", str(result)]
    if probe:
        cmd.append("--probe")
    cmd += ["--t-spawn", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result.read_text())


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class Checker:
    """Checks each distinct output once; verdicts are cached by output digest."""

    def __init__(self, workload: str, seed: int, outdir: Path):
        self.workload, self.seed, self.outdir = workload, seed, outdir
        self.law = workloads.law_of(workload)
        self.r_step = checks.radius(self.law)
        self.ns = {"compare_2d": set(workloads.COMPARE_2D_NS), "verify_2d": {workloads.VERIFY_N},
                   "simulate_2d": {workloads.SIM_N}}.get(workload, set())
        self.cache: dict[str, tuple[list, dict]] = {}
        self._refs: dict = {}

    def ref(self, key):
        """Computed on first use: origin returns, the chain's laws, the free walk's laws."""
        if key not in self._refs:
            self._refs[key] = {
                "r": lambda: checks.origin_returns(self.law, max(self.ns)),
                "laws": lambda: checks.forward_laws(self.law, self.ns),
                "free": lambda: checks.forward_laws(self.law, self.ns, sign=0.0),
            }[key]()
        return self._refs[key]

    def mean(self, n):
        return checks.drift(self.law) * math.fsum(self.ref("r")[:n])

    def output(self, op) -> tuple[list, dict]:
        sha = op["sha256"]
        if sha not in self.cache:
            kind = "compare_1d" if self.workload == "compare_1d" else op["name"]
            self.cache[sha] = getattr(self, "_" + kind)(op, self.outdir / op["out"])
        return self.cache[sha]

    # one method per operation name ------------------------------------------

    def _compare(self, op, path):
        rep = json.loads(path.read_text())
        ns = list(workloads.COMPARE_2D_NS)
        reasons = [] if rep["n_list"] == ns else [f"n_list {rep['n_list']} != {ns}"]
        Rmax = max(ns) * self.r_step
        by_n = {n: ([], []) for n in ns}
        for row in rep["rows"]:
            by_n[row["n"]][0].append(row["x"])
            by_n[row["n"]][1].append(row["exact"])
        scaled = {f: {int(n): v for n, v in t.items()} for f, t in rep["max_scaled_err"].items()}
        for n in ns:
            w = checks.dense(np.array(by_n[n][0], dtype=np.int64), np.array(by_n[n][1]), Rmax)
            inside = checks.dense(np.array(by_n[n][0], dtype=np.int64), 1.0, Rmax)
            found = [checks.nonnegative(w), checks.mirror_x2(w),
                     checks.origin_value(w, Rmax, self.ref("r")[n]),
                     checks.matches(w, self.ref("laws")[n] * inside),
                     checks.route_deviation_ok(rep["route_deviation"].get(str(n)))]
            reasons += [f"n={n}: {why}" for why in found if why]
        reasons += [why for why in [checks.corrected_below_gaussian(scaled)] if why]
        return reasons, {}

    def _compare_1d(self, op, path):
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        n = int(op["name"].split("_n")[1])
        if not (rows[:, 0] == n).all():
            return [f"rows for n other than {n}"], {}
        rng = np.random.default_rng([self.seed, n])
        pick = rng.choice(len(rows), CLOSED_FORM_POINTS, replace=False)
        values = {int(rows[i, 1]): float(rows[i, 2]) for i in pick}
        a1 = self.law["q"][(1,)] - self.law["p"][(1,)]
        found = [checks.nonnegative(rows[:, 2]), checks.closed_form_1d(values, n, a1)]
        info = {"n": n, "gaussian": float(rows[:, 5].max()), "corrected": float(rows[:, 8].max())}
        return [why for why in found if why], info

    def _exact_all(self, op, path):
        n = workloads.VERIFY_N
        R = n * self.r_step
        w = checks.law_csv(path, R)
        found = [checks.unit_mass(w), checks.nonnegative(w), checks.mirror_x2(w),
                 checks.origin_value(w, R, self.ref("r")[n]),
                 checks.first_moment(w, R, self.mean(n)),
                 checks.matches(w, self.ref("laws")[n])]
        return [why for why in found if why], {}

    def _exact_unperturbed(self, op, path):
        n = workloads.VERIFY_N
        R = n * self.r_step
        w = checks.law_csv(path, R)
        found = [checks.unit_mass(w), checks.nonnegative(w), checks.mirror_x2(w),
                 checks.mirror_x2(w.T), checks.origin_value(w, R, self.ref("r")[n]),
                 checks.first_moment(w, R, np.zeros(2)),
                 checks.second_moment(w, R, n * checks.covariance(self.law)),
                 checks.matches(w, self.ref("free")[n])]
        return [why for why in found if why], {}

    def _returns(self, op, path):
        rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        if len(rows) != workloads.VERIFY_N:
            return [f"{len(rows)} first-return rows, expected {workloads.VERIFY_N}"], {}
        f, fp = rows[:, 1], rows[:, 2]
        found = [checks.first_returns_agree(f, fp), checks.renewal(fp, self.ref("r"))]
        return [why for why in found if why], {}

    def _simulate(self, op, path):
        n, trials = workloads.SIM_N, workloads.SIM_TRIALS
        R = n * self.r_step
        rows = np.loadtxt(path, delimiter=",", skiprows=2, dtype=np.int64, ndmin=2)
        counts = checks.dense(rows[:, :-1], rows[:, -1], R)
        if counts.sum() != trials:
            return [f"counts sum to {counts.sum()}, not {trials}"], {}
        stat, dof, why = checks.chi_squared(counts, self.ref("laws")[n], trials)
        found = [why, checks.mean_within(counts, R, self.mean(n), trials)]
        return [w for w in found if w], {"chi2": (stat, dof)}

    # checks that read the operation record, not only its output ------------

    def operation(self, op) -> list:
        if op["rc"] != 0:
            return [f"exit {op['rc']}: {op['stderr'].strip().splitlines()[-1:]}"]
        if "sha256" not in op:
            return ["wrote no output"]
        try:
            reasons, info = self.output(op)
        except (ValueError, KeyError, IndexError) as exc:  # an output the checks cannot read
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        reasons = list(reasons)
        if op["name"] == "exact_all":
            why = checks.route_deviation_ok(checks.route_deviation_from_stderr(op["stderr"]))
            reasons += [why] if why else []
        if "chi2" in op and "chi2" in info:  # lltwalk's own chi_squared_check against ours
            theirs, (stat, dof) = op["chi2"], info["chi2"]
            if not theirs["ok"] or theirs["dof"] != dof or abs(theirs["stat"] - stat) > 1e-9 * stat:
                reasons.append(f"harness.chi_squared_check {theirs} disagrees with ({stat}, {dof})")
        return reasons

    def round(self, rnd) -> list:
        """Checks across the operations of one round (1-D limits and slopes)."""
        if self.workload != "compare_1d":
            return []
        infos = [self.output(op)[1] for op in rnd["ops"] if op["rc"] == 0 and "sha256" in op]
        g = {i["n"]: i["gaussian"] for i in infos if "n" in i}
        c = {i["n"]: i["corrected"] for i in infos if "n" in i}
        if not g:
            return ["no compare operation succeeded"]
        found = [checks.gaussian_limit(g, checks.gaussian_error_limit_1d(self.law)),
                 checks.corrected_slope(c)]
        return [why for why in found if why]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _layer_metrics(t: dict, load_s: float) -> dict:
    """One traced round's per-layer metrics: ``<layer>.s`` is the layer's span
    time, ``<layer>.self_s`` its self time, other names are counts."""
    total, own, cnt = t["total"], t["self"], t["counts"]

    def ratio(a, b):
        return cnt.get(a, 0.0) / cnt[b] if cnt.get(b) else 0.0

    m = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        m[name] = {"s": total, "self_s": own}.get(kind, cnt).get(
            layer if kind in ("s", "self_s") else name, 0.0)
    wps, dp = "kernels.weighted_power_sum", "kernels.dp_step"
    m[wps + ".needed_frac"] = ratio(wps + ".needed", wps + ".terms")
    m[dp + ".reachable_frac"] = ratio(dp + ".reachable_cells", dp + ".cells")
    for r in PEAK_ROUTES:
        peak, guard = t["peaks"].get(f"exact_engine.{r}", (0, 0))
        m[f"exact_engine.{r}.peak_mib"] = peak / float(1 << 20)
        m[f"exact_engine.{r}.peak_over_guard"] = peak / guard if guard else 0.0
    m["specfile.load_walk_spec.s"] = load_s
    m["trace.solve_s"] = t["solve_s"]
    m["trace.unattributed_s"] = t["op_self"].get("op", 0.0)
    m["trace.bookkeeping_s"] = t["op_self"].get("trace.bookkeeping", 0.0)
    return m


def _absent_metrics(absent: list) -> set:
    """Per-layer metrics whose wrapped function no longer exists."""
    layers = {entry.split(" ")[0] for entry in absent}
    return {name for name in PER_LAYER
            if any(name == layer or name.startswith(layer + ".") for layer in layers)}


def _breakdown(rnd) -> list[str]:
    """Self time per layer inside the CLI operations of one traced round."""
    own, solve = rnd["trace"]["op_self"], rnd["trace"]["solve_s"]
    lines = [f"{'layer (self time inside operations)':<40} {'s':>9} {'share':>7}"]
    for k in sorted(own, key=lambda k: -own[k]):
        label = "unattributed (cli and glue)" if k == "op" else k
        lines.append(f"{label:<40} {own[k]:9.4f} {own[k] / solve:7.1%}")
    lines.append(f"{'sum of self times':<40} {sum(own.values()):9.4f}")
    lines.append(f"{'traced solve_s (median traced round)':<40} {solve:9.4f}")
    return lines


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "lltwalk" / "cli.py").is_file():
        print(f"error: no lltwalk sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    outdir = RUNS / run_id
    outdir.mkdir(parents=True, exist_ok=True)
    workloads.write_config(args.workload, outdir)
    try:
        setup = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                setup.append(_spawn(args, outdir, f"probe{i}", deadline, probe=True)["setup_s"])
        record = _spawn(args, outdir, "worker", deadline)
        setup.append(record["setup_s"])

        checker = Checker(args.workload, args.seed, outdir)
        self_test = checks.self_test()
        problems = [f"self-test: {why}" for why in self_test]
        attempted = failed = 0
        for i, rnd in enumerate(record["rounds"]):
            for op in rnd["ops"]:
                attempted += 1
                reasons = checker.operation(op)
                op["check"] = reasons
                if reasons:
                    failed += 1
                    if op["rc"] == 0:  # exited 0 with a wrong output
                        problems += [f"round {i} {op['name']}: {why}" for why in reasons]
            problems += [f"round {i}: {why}" for why in checker.round(rnd)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    untraced = [r for r in record["rounds"] if not r["traced"]]
    traced = [r for r in record["rounds"] if r["traced"] == 1]
    if args.trace:
        per_round = [_layer_metrics(r["trace"], record["load_s"]) for r in traced]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        memory = [_layer_metrics(r["trace"], record["load_s"])
                  for r in record["rounds"] if r["traced"] == 2]
        for k in values:
            if k.endswith((".peak_mib", ".peak_over_guard")):
                values[k] = statistics.median(m[k] for m in memory)
        values["trace.untraced_solve_s"] = statistics.median(r["solve_s"] for r in untraced)
        values["trace.overhead_s"] = values["trace.solve_s"] - values["trace.untraced_solve_s"]
        gone = _absent_metrics(record.get("absent", []))
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items() if k not in gone}
        median_round = sorted(traced, key=lambda r: r["solve_s"])[(len(traced) - 1) // 2]
        for line in _breakdown(median_round):
            print(line)
        if record.get("absent"):
            print("absent layers: " + ", ".join(record["absent"]))
    else:
        values = {"setup_s": statistics.median(setup),
                  "solve_s": statistics.median(r["solve_s"] for r in untraced),
                  "peak_rss_mib": record["peak_rss_mib"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    for why in problems:
        print(f"check failed: {why}", file=sys.stderr)

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{run_id}.json").write_text(json.dumps(
        {"args": vars(args), "setup_samples": setup, "record": record, "result": result}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
