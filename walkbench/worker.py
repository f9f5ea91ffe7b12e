"""One benchmark run inside a fresh interpreter.

Started by run.py as ``python3 walkbench/worker.py ...``. It imports
lltwalk, loads and validates the workload's config (that is the set-up),
then repeats whole rounds of the workload's operations until ``--seconds``
have passed. Every operation is one ``lltwalk.cli.main`` call; its wall
time, exit code, stderr and output digest go to ``--result`` as JSON. With
``--probe`` it stops after the set-up and reports only the set-up time.
With ``--trace 1`` rounds cycle through untraced, traced (spans and counts)
and traced with tracemalloc around the routes (their peak memory), so the
run reports its own tracing overhead and tracemalloc's cost stays out of
the traced times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _call_cli(cli, argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught error is a failed operation
            print(f"uncaught {type(exc).__name__}: {exc}", file=err)
            rc = "traceback"
    return rc, err.getvalue()


def _empirical(harness, path, n, trials, seed):
    """Rebuild the simulator's EmpiricalPMF from its CSV output."""
    import numpy as np

    rows = np.loadtxt(path, delimiter=",", skiprows=2, dtype=np.int64, ndmin=2)
    pts, cnt = rows[:, :-1], rows[:, -1]
    lo = pts.min(axis=0)
    counts = np.zeros(tuple(pts.max(axis=0) - lo + 1), dtype=np.int64)
    counts[tuple((pts - lo).T)] = cnt
    return harness.EmpiricalPMF(n=n, trials=trials, seed=seed, offset=lo, counts=counts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--t-spawn", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    from lltwalk import cli, exact_engine, harness
    from lltwalk.specfile import load_walk_spec

    import workloads

    outdir = Path(args.outdir)
    cfg = outdir / f"{args.workload}.cfg"
    t1 = time.perf_counter()
    spec = load_walk_spec(cfg)
    t2 = time.perf_counter()
    setup_s = time.monotonic() - args.t_spawn
    record = {"setup_s": setup_s, "import_s": t1 - t0, "load_s": t2 - t1}
    if args.probe:
        Path(args.result).write_text(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        record["absent"] = tracer.absent

    ops = workloads.operations(args.workload, args.seed, cfg)
    exact_ref = None
    if args.workload == "simulate_2d":  # the small exact law chi_squared_check compares against
        exact_ref = exact_engine.perturbed_distribution(spec, workloads.SIM_N, route="dp")
    kept: dict[str, tuple[str, str]] = {}  # op name -> (digest, file kept)
    rounds = []
    start = time.perf_counter()
    while True:
        traced = 0 if tracer is None else len(rounds) % 3  # 0 untraced, 1 spans, 2 memory
        if traced:
            tracer.enable(memory=traced == 2)
        rnd = {"traced": traced, "ops": []}
        for name, op_argv, ext in ops:
            out = outdir / f"r{len(rounds)}-{name}.{ext}"
            full = [*op_argv, "--out", str(out)]
            span = tracer.open("op") if traced else None
            t = time.perf_counter()
            rc, err = _call_cli(cli, full)
            dt = time.perf_counter() - t
            if traced:
                tracer.close(span)
            op = {"name": name, "argv": full, "rc": rc, "seconds": dt, "stderr": err[-2000:]}
            if out.exists():
                digest = hashlib.sha256(out.read_bytes()).hexdigest()
                op["sha256"] = digest
                if kept.get(name, ("",))[0] == digest:
                    out.unlink()  # byte-identical to an output already kept for checking
                else:
                    kept[name] = (digest, out.name)
                    op["out"] = out.name
                if exact_ref is not None and ("out" in op or traced):
                    emp = _empirical(harness, outdir / kept[name][1], workloads.SIM_N,
                                     workloads.SIM_TRIALS, args.seed)
                    op["chi2"] = harness.chi_squared_check(
                        emp, exact_ref, quantile=workloads.CHI2_QUANTILE)
            rnd["ops"].append(op)
        if traced:
            tracer.disable()
            rnd["trace"] = tracer.round_summary()
            rnd["spans"] = tracer.spans
        rnd["solve_s"] = sum(op["seconds"] for op in rnd["ops"])
        rounds.append(rnd)
        done = time.perf_counter() - start >= args.seconds
        if done and (tracer is None or len(rounds) >= 3):
            break

    record["rounds"] = rounds
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
