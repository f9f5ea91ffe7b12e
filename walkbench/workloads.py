"""Workload definitions shared by the runner and the worker process.

A workload is a fixed list of operations. One operation is one call of
``lltwalk.cli.main`` with the argv of a subcommand; a round runs every
operation of the workload once, and a run repeats whole rounds. The walk
laws are defined here, written out as config files in each run's own
directory, and used by the independent checks in ``checks.py``.
"""

from __future__ import annotations

from fractions import Fraction as F
from pathlib import Path

WORKLOADS = ("compare_1d", "compare_2d", "verify_2d", "simulate_2d")

# The same walks as configs/lazy_pert_1d.cfg and configs/unit_cov_2d.cfg,
# kept here so the benchmark's inputs stay fixed whatever the repo's
# sample configs become.
LAZY_1D = {
    "p": {(-1,): F(1, 4), (0,): F(1, 2), (1,): F(1, 4)},
    "q": {(-1,): F(1, 5), (0,): F(1, 2), (1,): F(3, 10)},
}
_AXIS_2D = [(1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (-2, 0), (0, 2), (0, -2)]
UNIT_COV_2D = {
    "p": {(0, 0): F(1, 5), **{pt: F(1, 10) for pt in _AXIS_2D}},
    "q": {(0, 0): F(1, 5), **{pt: F(1, 10) for pt in _AXIS_2D},
          (1, 0): F(3, 20), (-1, 0): F(1, 20)},
}

COMPARE_1D_NS = (1024, 2048, 4096, 8192)  # 8192 fails today: NotNormalized
COMPARE_2D_NS = (64, 96, 128)
VERIFY_N = 96
SIM_N = 64
SIM_TRIALS = 1 << 18
# One chi-squared test per run, hundreds of runs per comparison: the 0.999
# quantile would reject a correct simulator in about one run of a thousand.
CHI2_QUANTILE = 1 - 1e-6


def config_text(law: dict) -> str:
    dim = len(next(iter(law["p"])))
    lines = [f"dim = {dim}"]
    for which in ("p", "q"):
        for pt, w in sorted(law[which].items()):
            lines.append(f"{which} {' '.join(map(str, pt))} = {w}")
    return "\n".join(lines) + "\n"


def law_of(workload: str) -> dict:
    return LAZY_1D if workload == "compare_1d" else UNIT_COV_2D


def write_config(workload: str, outdir: Path) -> Path:
    path = outdir / f"{workload}.cfg"
    path.write_text(config_text(law_of(workload)))
    return path


def operations(workload: str, seed: int, cfg: Path) -> list[tuple[str, list[str], str]]:
    """(name, argv without --out, output file suffix) for one round."""
    spec = ["--spec", str(cfg)]
    if workload == "compare_1d":
        return [(f"compare_n{n}", ["compare", *spec, "--n-list", str(n)], "csv")
                for n in COMPARE_1D_NS]
    if workload == "compare_2d":
        ns = ",".join(map(str, COMPARE_2D_NS))
        return [("compare", ["compare", *spec, "--n-list", ns, "--format", "json"], "json")]
    if workload == "verify_2d":
        n = str(VERIFY_N)
        return [
            ("exact_all", ["exact", *spec, "--n", n, "--route", "all"], "csv"),
            ("returns", ["returns", *spec, "--n-max", n], "csv"),
            ("exact_unperturbed", ["exact", *spec, "--n", n, "--law", "unperturbed"], "csv"),
        ]
    if workload == "simulate_2d":
        return [("simulate", ["simulate", *spec, "--n", str(SIM_N), "--trials",
                              str(SIM_TRIALS), "--seed", str(seed)], "csv")]
    raise ValueError(f"unknown workload {workload!r}")
