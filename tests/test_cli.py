import json
import os
import re

import numpy as np
import pytest

from lltwalk import cli, errors, exact_engine, io_text, load_walk_spec, simulate
from lltwalk.cli import _emit, main
from lltwalk.harness import _prediction_columns, window_predictions
from lltwalk.io_text import (
    LAW_CELL_BYTES, RETURN_ROW_BYTES, distribution_text, predictions_text, returns_text,
)
from lltwalk.walk_model import SignedLatticeFn

from conftest import VALID_CONFIGS, config_path, fresh_python, traced_guards


def test_exact_happy_path(tmp_path, capsys):
    out = tmp_path / "dist.csv"
    rc = main(["exact", "--spec", config_path("lazy_pert_1d.cfg"), "--n", "6", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# n=6 nu=1 route=")
    assert lines[1] == "x1,mass"


def test_exact_route_all(tmp_path, capsys):
    out = tmp_path / "dist.csv"
    rc = main([
        "exact", "--spec", config_path("lazy_pert_1d.cfg"), "--n", "20",
        "--route", "all", "--out", str(out),
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert "max pairwise deviation" in err


def test_exact_all_reports_tail_bound(capsys):
    # the bound follows the deviation text, which scripts parse
    argv = ["exact", "--spec", config_path("lazy_pert_1d.cfg"), "--route", "all",
            "--out", os.devnull, "--n"]
    assert main(argv + ["20"]) == 0
    assert capsys.readouterr().err.rstrip().endswith("), tail bound 0.0e+00")
    assert main(argv + ["1000"]) == 0
    err = capsys.readouterr().err
    assert re.search(r"max pairwise deviation [0-9.e+-]+ \(tol", err)
    assert 0.0 < float(err.rsplit("tail bound ", 1)[1]) <= 1e-20


def _mass_off(invert_charfn):
    """invert_charfn whose law weighs 1 + 1e-9: the fourier route's law fails its mass check."""
    def invert(*args, **kwargs):
        f = invert_charfn(*args, **kwargs)
        return SignedLatticeFn(dim=f.dim, offset=f.offset, weights=f.weights * (1 + 1e-9))
    return invert


@pytest.mark.parametrize("argv", [
    ["exact", "--n", "40"],
    ["exact", "--n", "40", "--route", "all"],
    ["compare", "--n-list", "16,32"],
])
def test_route_law_with_mass_off_exits_3(monkeypatch, capsys, argv):
    # a route's wrong law is the program's fault, not the input's
    monkeypatch.setattr(exact_engine, "invert_charfn", _mass_off(exact_engine.invert_charfn))
    rc = main([*argv, "--spec", config_path("lazy_pert_1d.cfg"), "--out", os.devnull])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("cross-check failure: CrossCheckError: route law: weights sum to ")
    assert "Traceback" not in err


_LAZY = b"dim = 1\np 0 = 1/2\np 1 = 1/4\np -1 = 1/4\nq 0 = 1/2\n"


@pytest.mark.parametrize("text, message", [
    # the weight's float is past range
    (_LAZY + b"q 1 = 1e400\nq -1 = 1/4\n", "LawTooLarge: weight at (1,) is too large for a float"),
    # each weight fits a float, their sum does not
    (_LAZY + b"q 1 = 1e308\nq 2 = 1e308\nq -1 = 1/4\n", "NotNormalized: weights sum to inf"),
    # a 1.46 TiB dense box, refused before it is allocated
    (b"dim = 1\np 0 = 1/2\np 99999999999 = 1/4\np -99999999999 = 1/4\nq 0 = 1\n",
     "LawTooLarge: support box 199999999999 has more than 16777216 cells"),
    (_LAZY + b"# \xff\xfe\nq 1 = 1/4\nq -1 = 1/4\n", "SpecFileError: {path}: not UTF-8 text (byte 51)"),
])
@pytest.mark.parametrize("cmd", [["exact", "--n", "4"], ["returns"], ["simulate", "--n", "4", "--trials", "8"]])
def test_bad_spec_file_exits_with_one_line(tmp_path, capsys, text, message, cmd):
    path = tmp_path / "walk.cfg"
    path.write_bytes(text)
    assert main([*cmd, "--spec", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(path=path))
    assert err.count("\n") == 1


def test_validation_error_names_periodic(capsys):
    rc = main(["exact", "--spec", config_path("periodic_1d.cfg"), "--n", "10"])
    assert rc == 1
    assert "Periodic" in capsys.readouterr().err


def test_missing_spec_file(capsys):
    rc = main(["exact", "--spec", "/nonexistent/walk.cfg", "--n", "5"])
    assert rc == 1


def test_resource_limit_exit_code(capsys):
    rc = main([
        "exact", "--spec", config_path("lazy_pert_1d.cfg"), "--n", "10000000",
        "--mem-limit-mb", "1",
    ])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["compare", "--n-list", "64,16"],
    ["compare", "--n-list", "0,4"],
    ["compare", "--n-list", "8,8"],
    ["simulate", "--n", "5", "--trials", "0"],
    ["simulate", "--n", "-2", "--trials", "10"],
    ["simulate", "--n", "3", "--trials", "10", "--seed", "-1"],
    ["simulate", "--n", "3", "--trials", "10", "--seed", str(1 << 128)],
    ["exact", "--n", "-3"],
    ["asymptotic", "--n", "0"],
    ["returns", "--n-max", "0"],
    ["asymptotic", "--n", "64", "--window", "-1"],
    ["asymptotic", "--n", "64", "--window", "nan"],
    ["asymptotic", "--n", "64", "--window", "inf"],
    ["compare", "--n-list", "16", "--window", "-1"],
    ["compare", "--n-list", "16", "--window", "nan"],
    ["compare", "--n-list", "16", "--window", "inf"],
    ["exact", "--n", "4", "--route", "all", "--check-tol", "0"],
    ["exact", "--n", "4", "--route", "all", "--check-tol", "nan"],
    ["returns", "--check-tol", "-1"],
    ["returns", "--check-tol", "inf"],
    ["coeffs", "--order", "0"],
    ["asymptotic", "--n", "64", "--order", "-1"],
    ["asymptotic", "--n", "64", "--order", "1"],
    ["asymptotic", "--n", "64", "--order", "2"],
    ["asymptotic", "--n", "64", "--order", "13"],
    ["compare", "--n-list", "16", "--order", "2"],
    ["exact", "--n", "4", "--mem-limit-mb", "-5"],
    ["returns", "--mem-limit-mb", "-1"],
    ["simulate", "--n", "3", "--trials", "10", "--mem-limit-mb", "-1"],
    ["compare", "--n-list", "16", "--mem-limit-mb", "-1"],
])
def test_bad_counts_exit_code(capsys, argv):
    rc = main(argv + ["--spec", config_path("lazy_pert_1d.cfg")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--x", "0"],
    ["--x", "nan"],
    ["--eps", "0"],
    ["--eps", "0.5"],
    ["--tol", "0"],
    ["--tol", "inf"],
])
def test_bad_identity_parameters_exit_code(capsys, argv):
    # identities takes no --spec, so these fail on their values alone
    rc = main(["identities"] + argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError: --")
    assert "Traceback" not in err


def test_identities_eps_beyond_abel_series_guard(capsys):
    # eps = 1e-9 needs ~8e10 Abel-series terms; laguerre_table's degree
    # guard refuses them before anything is allocated
    rc = main(["identities", "--eps", "1e-9"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DegreeTooLarge: degree")
    assert "Traceback" not in err


@pytest.mark.parametrize("eps", ["1e-17", "1e-300", "1e-323", "5e-324"])
def test_identities_eps_below_float_resolution_exit_code(capsys, eps):
    # 1 - eps rounds to 1 below about 1.1e-16, and at the least eps the
    # series length is past float range (5e-324 / 2 is 0.0): each is an eps
    # too small for the Abel series, refused like 1e-9
    rc = main(["identities", "--eps", eps])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DegreeTooLarge: degree")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["asymptotic", "--spec", config_path("unit_cov_2d.cfg"), "--n", "64", "--window", "1000000"],
    ["asymptotic", "--spec", config_path("lazy_pert_1d.cfg"), "--n", "64", "--window", "1e300"],
    ["exact", "--spec", config_path("lazy_pert_1d.cfg"), "--n", str(10**200)],
    # past float range: the tail box is not computed, the full support is refused
    ["exact", "--spec", config_path("lazy_pert_1d.cfg"), "--n", str(10**400)],
])
def test_oversized_box_exit_code(capsys, argv):
    # the window's box is guarded before it is built, and a box too large
    # for a float byte count still gets a message, which names the phase
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource limit: needs")
    phase = "window" if argv[0] == "asymptotic" else "fourier"
    assert f" MiB for phase {phase}, cap is " in err
    assert "Traceback" not in err


def test_simulate_refusal_independent_of_cpus(capsys, monkeypatch):
    # the first worker's 16 B per cell is guarded before any worker count
    # is chosen, so a refusal reads the same on any machine
    from lltwalk import harness

    argv = ["simulate", "--spec", config_path("unit_cov_2d.cfg"), "--n", "200",
            "--trials", "10", "--mem-limit-mb", "1"]
    seen = []
    for cpus in (1, 4):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        seen.append((main(argv), capsys.readouterr().err))
    assert seen[0] == seen[1]
    assert seen[0][0] == 2
    assert seen[0][1].startswith("resource limit: needs")
    assert " MiB for phase simulate, cap is " in seen[0][1]


@pytest.mark.parametrize("argv", [
    # the window's 513^2 cells at REPORT_ROW_BYTES, refused before any route runs
    ["compare", "--spec", config_path("unit_cov_2d.cfg"), "--n-list", "4096",
     "--mem-limit-mb", "128"],
    # the route fits 32 MiB; the writer's 218988 nonzero cells at LAW_CELL_BYTES do not
    ["exact", "--spec", config_path("unit_cov_2d.cfg"), "--n", "1024", "--format", "json",
     "--mem-limit-mb", "32"],
])
def test_report_past_the_cap_exit_code(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("resource limit: needs")
    phase = {"compare": "window", "exact": "exact_writer"}[argv[0]]
    assert f" MiB for phase {phase}, cap is " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def _wide_walk_text() -> str:
    """A 1-D walk uniform on -2048..2048, 4097 points, whose exit law moves q(-1)'s mass to 1."""
    xs = range(-2048, 2049)
    q = {x: "2/4097" if x == 1 else "0" if x == -1 else "1/4097" for x in xs}
    return "\n".join(["dim = 1", *(f"p {x} = 1/4097" for x in xs), *(f"q {x} = {w}" for x, w in q.items())])


def test_tail_scan_refused_before_it_runs(tmp_path, capsys, monkeypatch):
    # the tail box's scan holds four arrays of the 1024 t by p's support
    # points, about 134 MB for 4097 points: each route's guard refuses it,
    # naming the route, before it allocates anything of that size
    path = tmp_path / "wide.cfg"
    path.write_text(_wide_walk_text())
    spec = load_walk_spec(path)
    monkeypatch.setattr(cli, "load_walk_spec", lambda *args, **kwargs: spec)  # loaded once
    cap = 64 << 20
    assert exact_engine._tail_bytes(spec.p) > 2 * cap
    for argv, phase in [(["exact", "--n", "4"], "fourier"),
                        (["exact", "--n", "4", "--route", "dp"], "dp"),
                        (["exact", "--n", "4", "--route", "repr"], "repr"),
                        (["returns", "--n-max", "4"], "first_return")]:
        rcs = []
        argv = [*argv, "--spec", str(path), "--mem-limit-mb", "64", "--out", os.devnull]
        peak, claims = traced_guards(lambda: rcs.append(main(argv)), cap)
        assert rcs == [2]
        assert claims[-1] == (phase, exact_engine._tail_bytes(spec.p))
        assert peak < cap
        err = capsys.readouterr().err
        assert err.startswith(f"resource limit: needs 128 MiB for phase {phase}, cap is 64 MiB")


def test_returns_scans_the_tail_box_once(monkeypatch):
    # both first-return walks run on one box, from one scan
    calls = []
    tail = exact_engine._tail
    monkeypatch.setattr(exact_engine, "_tail", lambda *args: calls.append(1) or tail(*args))
    assert main(["returns", "--spec", config_path("unit_cov_2d.cfg"), "--n-max", "64",
                 "--out", os.devnull]) == 0
    assert len(calls) == 1


# unit_cov_2d at n = 256: every route alone needs under 3 MiB, but the
# torus route, run beside the two laws before it, and the comparison need
# about 4.6 MiB
CROSS_CHECK_CAP_MB = 4


def test_cross_check_refused_past_what_it_holds(unit_cov_2d, capsys):
    # a cap between the largest single-route guard and the cross-check's
    # traced peak: each later route is charged the laws already held
    n, cap = 256, CROSS_CHECK_CAP_MB << 20
    np.fft.fft  # loaded before tracing
    single = max(b for r in exact_engine.ROUTES for _, b in traced_guards(
        lambda: exact_engine.perturbed_distribution(unit_cov_2d, n, route=r))[1])
    peak, _ = traced_guards(lambda: exact_engine.cross_check(unit_cov_2d, n))
    assert single < cap < peak
    assert main(["exact", "--spec", config_path("unit_cov_2d.cfg"), "--n", str(n), "--route", "all",
                 "--mem-limit-mb", str(CROSS_CHECK_CAP_MB), "--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource limit: needs")
    assert " MiB for phase fourier, cap is " in err


def test_exact_writer_memory_within_guard(unit_cov_2d):
    dist = exact_engine.perturbed_fourier(unit_cov_2d, 1024)
    cells = int(np.count_nonzero(dist.pmf.weights))
    peak, _ = traced_guards(lambda: distribution_text(dist, "json"))
    assert peak <= cells * LAW_CELL_BYTES + (256 << 10)


def test_returns_writer_memory_within_guard(lazy_pert):
    f, fp = exact_engine.first_return_probs(lazy_pert, 8192)
    peak, _ = traced_guards(lambda: returns_text(f, fp, "json"))
    assert peak <= len(f) * RETURN_ROW_BYTES + (256 << 10)


def _warm_peak(run) -> int:
    """run()'s tracemalloc peak, after one untraced call loads the writer's tables."""
    run()
    return traced_guards(run)[0]


@pytest.mark.parametrize("rows", [64, 512])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_small_tables_within_their_charge(lazy_pert, tmp_path, rows, fmt):
    # one block's temporaries are most of a small table's peak: the per-row
    # charges with the one block term hold it with no slack, streamed to a
    # file or joined
    f, fp = exact_engine.first_return_probs(lazy_pert, rows)
    charge = rows * RETURN_ROW_BYTES + io_text.BLOCK_BYTES
    assert _warm_peak(lambda: _emit(io_text.returns_blocks(f, fp, fmt), tmp_path / "f")) <= charge
    assert _warm_peak(lambda: returns_text(f, fp, fmt)) <= charge
    dist = exact_engine.perturbed_fourier(lazy_pert, 2 * rows)  # about 1.3 * rows cells
    charge = int(np.count_nonzero(dist.pmf.weights)) * LAW_CELL_BYTES + io_text.BLOCK_BYTES
    path = tmp_path / "e"
    assert _warm_peak(lambda: _emit(io_text.distribution_blocks(dist, fmt), path)) <= charge
    assert _warm_peak(lambda: distribution_text(dist, fmt)) <= charge


@pytest.mark.parametrize("argv", [
    ["exact", "--spec", config_path("unit_cov_2d.cfg"), "--n", "64", "--format", "json"],
    ["returns", "--spec", config_path("unit_cov_2d.cfg"), "--n-max", "64"],
    ["compare", "--spec", config_path("unit_cov_2d.cfg"), "--n-list", "16,32", "--format", "json"],
    ["identities"],
])
def test_stdout_and_out_write_the_same_bytes(tmp_path, capsysbinary, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    capsysbinary.readouterr()
    print("text first", end="")  # written through sys.stdout before the report's bytes
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == b"text first" + out.read_bytes()


def test_returns_table_guarded_before_the_walk(capsys, monkeypatch):
    # 100000 rows of JSON need about 34 MiB: refused before any step
    monkeypatch.setattr(exact_engine, "first_return_probs", None)
    rc = main(["returns", "--spec", config_path("lazy_pert_1d.cfg"), "--n-max", "100000",
               "--format", "json", "--mem-limit-mb", "8"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("resource limit: needs 34 MiB for phase returns_writer")
    assert captured.out == ""


def test_predictions_header_names_the_callers_n(unit_cov_2d):
    empty = _prediction_columns(unit_cov_2d, 64, np.empty((0, 2)), None)
    assert predictions_text(empty, 64, 2).splitlines()[0] == "# n=64 nu=2"


def test_simulate_resource_limit_exit_code(capsys):
    rc = main([
        "simulate", "--spec", config_path("unit_cov_2d.cfg"), "--n", "200",
        "--trials", "10", "--mem-limit-mb", "1",
    ])
    assert rc == 2
    assert "resource limit" in capsys.readouterr().err


def test_compare_cli(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main([
        "compare", "--spec", config_path("lazy_pert_1d.cfg"),
        "--n-list", "8,16,32", "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert "slopes" in payload
    assert "slopes" in capsys.readouterr().err


def test_simulate_byte_identical(tmp_path):
    args = [
        "simulate", "--spec", config_path("lazy_pert_1d.cfg"),
        "--n", "10", "--trials", "2000", "--seed", "42",
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_coeffs_cli(capsys):
    rc = main(["coeffs", "--spec", config_path("lazy_sym_1d.cfg"), "--order", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "-1/96" in out


def test_identities_cli(capsys):
    rc = main(["identities", "--x", "1.0"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_returns_cli(capsys):
    rc = main(["returns", "--spec", config_path("lazy_pert_1d.cfg"), "--n-max", "12"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "f_unperturbed" in captured.out
    assert "max |f_n - f'_n|" in captured.err


def test_asymptotic_cli(tmp_path):
    out = tmp_path / "asym.csv"
    rc = main([
        "asymptotic", "--spec", config_path("lazy_pert_1d.cfg"), "--n", "64",
        "--out", str(out),
    ])
    assert rc == 0
    header = out.read_text().splitlines()[1].split(",")
    assert header == [
        "x1", "gaussian_leading", "perturbation_correction",
        "edgeworth_terms", "total", "within_horizon",
    ]


def test_asymptotic_cli_unperturbed_uses_refinement(tmp_path):
    out = tmp_path / "asym.csv"
    rc = main([
        "asymptotic", "--spec", config_path("lazy_sym_1d.cfg"), "--n", "64",
        "--order", "4", "--out", str(out),
    ])
    assert rc == 0
    rows = out.read_text().splitlines()[2:]
    edge_terms = [float(r.split(",")[3]) for r in rows]
    assert any(abs(v) > 0 for v in edge_terms)


def test_identities_no_convergence_exit_code(capsys):
    rc = main(["identities", "--x", "1.0", "--tol", "1e-13"])
    assert rc == 3
    assert "NoConvergence" in capsys.readouterr().err


@pytest.mark.parametrize("x", ["1e4", "1e6", "1e10", "1e300"])
def test_identities_past_float_range_exit_code(capsys, x):
    # the Laguerre recurrences overflow at large x: each side past the float
    # range is a failing check, with no warning and no traceback
    rc = main(["identities", "--x", x])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err == "cross-check failure: CrossCheckError: identity suite has failing checks\n"
    assert "[FAIL] inverse series" in captured.out


def test_exact_unperturbed_law(tmp_path):
    out = tmp_path / "power.csv"
    rc = main([
        "exact", "--spec", config_path("lazy_sym_1d.cfg"), "--n", "4",
        "--law", "unperturbed", "--out", str(out),
    ])
    assert rc == 0
    rows = out.read_text().splitlines()[2:]
    masses = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert masses[0] == pytest.approx(0.2734375, abs=1e-12)  # central mass of the 4-step law


def test_exact_unperturbed_law_honours_route(tmp_path, capsys):
    out = tmp_path / "power.csv"
    argv = ["exact", "--spec", config_path("lazy_pert_1d.cfg"), "--n", "6",
            "--law", "unperturbed", "--out", str(out)]
    assert main(argv + ["--route", "dp"]) == 0
    assert out.read_text().startswith("# n=6 nu=1 route=dp\n")
    assert main(argv + ["--route", "all"]) == 0
    assert "max pairwise deviation" in capsys.readouterr().err
    # --check-tol is honoured: the FFT route's roundoff alone passes 1e-30
    assert main(argv + ["--route", "all", "--check-tol", "1e-30"]) == 3


CFG = config_path("lazy_pert_1d.cfg")


@pytest.mark.parametrize("argv", [
    ["exact", "--spec", CFG],
    ["exact", "--spec", CFG, "--n", "5", "--route", "bogus"],
])
def test_usage_error_exit_code(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError: lltwalk exact:")
    assert "Traceback" not in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--help"])
    assert exc.value.code == 0
    assert "--route" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["identities", "--spec", CFG],
    ["identities", "--format", "json"],
    ["identities", "--mem-limit-mb", "64"],
    ["identities", "--order", "4"],
    ["coeffs", "--spec", CFG, "--mem-limit-mb", "64"],
    ["asymptotic", "--spec", CFG, "--n", "8", "--mem-limit-mb", "64"],
    ["exact", "--spec", CFG, "--n", "8", "--order", "4"],
    ["simulate", "--spec", CFG, "--n", "8", "--trials", "10", "--order", "4"],
    ["returns", "--spec", CFG, "--order", "4"],
    ["compare", "--spec", CFG, "--n-list", "8", "--format", "tsv"],
])
def test_unread_option_rejected(capsys, argv):
    # a subcommand accepts only the options it reads
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ValidationError:")


_REPORT_ARGS = {
    "exact": ["--n", "6"],
    "simulate": ["--n", "6", "--trials", "100"],
    "returns": ["--n-max", "6"],
    "coeffs": [],
    "asymptotic": ["--n", "16"],
    "compare": ["--n-list", "4,8"],
}


@pytest.mark.parametrize("cmd,fmt", [
    (cmd, fmt) for cmd in _REPORT_ARGS
    for fmt in (("csv", "json") if cmd == "compare" else ("csv", "tsv", "json"))
])
def test_report_formats(tmp_path, capsys, cmd, fmt):
    out = tmp_path / f"report.{fmt}"
    argv = [cmd, "--spec", config_path("unit_cov_2d.cfg"), *_REPORT_ARGS[cmd]]
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    text = out.read_text()
    if fmt == "json":
        assert json.loads(text)["schema_version"] == 1
        return
    sep, other = (",", "\t") if fmt == "csv" else ("\t", ",")
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    width = len(lines[0].split(sep))
    assert width > 1 and len(lines) > 1
    for line in lines:
        assert len(line.split(sep)) == width and other not in line


@pytest.mark.parametrize("cfg", ["lazy_pert_1d.cfg", "unit_cov_2d.cfg"])
@pytest.mark.parametrize("cmd", list(_REPORT_ARGS))
def test_json_report_is_the_stdlib_dump(tmp_path, cmd, cfg):
    # an oracle that does not use the row templates: the standard library's
    # indented, key-sorted dump of the same document
    out = tmp_path / "report.json"
    argv = [cmd, "--spec", config_path(cfg), *_REPORT_ARGS[cmd], "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_asymptotic_2d_origin_row_has_zero_correction(tmp_path):
    out = tmp_path / "asym.csv"
    rc = main([
        "asymptotic", "--spec", config_path("unit_cov_2d.cfg"), "--n", "16",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1].split(",")[3] == "perturbation_correction"
    origin = [line.split(",") for line in lines[2:] if line.startswith("0,0,")]
    assert len(origin) == 1
    assert float(origin[0][3]) == 0.0


def test_cli_import_loads_no_scipy():
    proc = fresh_python(
        "import sys, lltwalk.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_chi_squared_check_loads_no_scipy_stats():
    proc = fresh_python(
        "import sys\n"
        "from lltwalk import chi_squared_check, load_walk_spec, perturbed_forward, simulate\n"
        f"spec = load_walk_spec({config_path('lazy_pert_1d.cfg')!r})\n"
        "print(chi_squared_check(simulate(spec, 10, 1000, seed=0), perturbed_forward(spec, 10)))\n"
        "print('scipy.stats' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_identities_in_fresh_interpreter():
    # scipy loads inside identity_suite; a fresh process proves those imports resolve
    proc = fresh_python("import sys; from lltwalk.cli import main; sys.exit(main(['identities']))")
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout and "PASS" in proc.stdout


def _run(argv, out, capsysbinary):
    """main(argv + --out out): (exit code, report bytes, stderr bytes)."""
    rc = main([*argv, "--out", str(out)])
    return rc, out.read_bytes(), capsysbinary.readouterr().err


_SHARED = [
    ["exact", "--spec", CFG, "--n", "64"],
    ["compare", "--spec", CFG, "--n-list", "16,32"],
]


def test_shared_parser_calls_match_first_calls(tmp_path, capsysbinary):
    # each call made first, on a freshly built parser
    first = []
    for argv in _SHARED:
        cli._parser.cache_clear()
        first.append(_run(argv, tmp_path / "first", capsysbinary))
    cli._parser.cache_clear()
    # one parser, then through a usage error, a resource limit and --help
    assert main(["exact", "--spec", CFG, "--n", "5", "--route", "bogus"]) == 1
    assert main(["exact", "--spec", CFG, "--n", "6", "--mem-limit-mb", "0",
                 "--out", os.devnull]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--help"])
    assert exc.value.code == 0
    capsysbinary.readouterr()
    for argv, want in zip(_SHARED, first):
        assert _run(argv, tmp_path / "again", capsysbinary) == want
    assert cli._parser.cache_info().misses == 1


def test_main_builds_its_parser_once(monkeypatch, capsys):
    real, built = cli.build_parser, []

    def build():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", build)
    cli._parser.cache_clear()
    assert main(["coeffs", "--spec", CFG]) == 0
    assert main(["exact", "--spec", CFG]) == 1
    assert main(["exact", "--spec", CFG, "--n", "4", "--out", os.devnull]) == 0
    assert len(built) == 1


def test_cli_import_builds_no_parser():
    # the parser is built by the first main call, not at import
    proc = fresh_python(
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def count(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = count\n"
        "import lltwalk.cli\n"
        "print(len(built), lltwalk.cli._parser.cache_info().currsize)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 0"


def test_guard_refuses_an_undeclared_phase():
    with pytest.raises(ValueError, match="undeclared memory phase 'walk'"):
        errors.guard_memory("walk", 0, 1)


_SWEEP_NS = {1: (64, 1024), 2: (16, 64), 3: (8, 24), 4: (4, 12)}  # two sizes per dimension


def _phase_run(phase, spec, name, n, monkeypatch):
    """A call that passes ``phase``'s guards alone: a writer's law or table, or the laws the
    cross-check compares, is made beforehand."""
    common = ["--spec", config_path(name), "--format", "json", "--out", os.devnull]
    if phase == "cross_check":
        dists = {r: exact_engine.perturbed_distribution(spec, n, route=r) for r in exact_engine.ROUTES}
        monkeypatch.setattr(exact_engine, "perturbed_distribution",
                            lambda spec, n, route, mem_limit: dists[route])
        return lambda: exact_engine.cross_check(spec, n)
    if phase == "exact_writer":
        dist = exact_engine.perturbed_fourier(spec, n)
        monkeypatch.setattr(exact_engine, "perturbed_distribution", lambda *a, **k: dist)
        return lambda: main(["exact", "--n", str(n), *common])
    if phase == "returns_writer":
        laws = exact_engine.first_return_probs(spec, n)
        monkeypatch.setattr(exact_engine, "first_return_probs", lambda *a, **k: laws)
        return lambda: main(["returns", "--n-max", str(n), *common])
    return {
        "dp": lambda: exact_engine.perturbed_forward(spec, n),
        "repr": lambda: exact_engine.perturbed_via_representation(spec, n),
        "first_return": lambda: exact_engine.first_return_probs(spec, n),
        "fourier": lambda: exact_engine.perturbed_fourier(spec, n),
        "simulate": lambda: simulate(spec, n, 4096, seed=3),
        "window": lambda: predictions_text(window_predictions(spec, n), n, spec.nu, "json"),
    }[phase]


@pytest.mark.parametrize("phase", errors.MEMORY_PHASES)
@pytest.mark.parametrize("size", [0, 1])
@pytest.mark.parametrize("name", VALID_CONFIGS)
def test_every_phase_within_its_guard(monkeypatch, name, size, phase):
    # each declared phase, on every valid config, peaks within the bytes its
    # guard charged and the slack of its own test: 64 KiB for the routes and
    # their cross-check, 256 KiB for the simulator and the reports.  A first untraced run loads
    # numpy.fft, numpy.random and the writers' tables
    spec = load_walk_spec(config_path(name))
    n = _SWEEP_NS[spec.nu][size]
    run = _phase_run(phase, spec, name, n, monkeypatch)
    run()
    peak, claims = traced_guards(run)
    assert {p for p, _ in claims} == {phase}
    slack = (64 if phase in exact_engine.ROUTES + ("first_return", "cross_check") else 256) << 10
    assert peak <= max(b for _, b in claims) + slack
