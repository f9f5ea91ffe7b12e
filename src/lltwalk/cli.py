"""Command-line interface.

Subcommands: exact, asymptotic, compare, simulate, coeffs, identities,
returns.  Exit codes: 0 success, 1 validation or usage error, 2 resource limit,
3 failed internal cross-check.  Diagnostics go to stderr; data goes to
--out or stdout and is byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

import numpy as np

from . import errors, exact_engine, harness, io_text
from .errors import CrossCheckError, NoConvergence, ResourceLimit, ValidationError
from .spectral import _MAX_ORDER, edgeworth_coeffs
from .special_fn import identity_suite
from .specfile import load_walk_spec
from .walk_model import validate_walk_spec


def _emit(blocks, out: str | None):
    """Write a report's ``io_text.Blocks``, or a str, to ``out`` or stdout as it is formatted."""
    if isinstance(blocks, str):
        blocks = [blocks.encode()]
    if out:
        with open(out, "wb") as fh:
            fh.writelines(blocks)
    else:
        sys.stdout.flush()  # text already written goes first
        sys.stdout.buffer.writelines(blocks)
        sys.stdout.buffer.flush()


def _check_counts(args):
    """Reject out-of-range counts, windows and tolerances before any work starts."""
    first_n = 1 if args.cmd == "asymptotic" else 0
    positive = (lambda v: 0 < v < math.inf, "finite and > 0")
    rules = {
        "n": (lambda v: v >= first_n, f">= {first_n}"),
        "trials": (lambda v: v >= 1, ">= 1"),
        "seed": (lambda v: 0 <= v < 1 << 128, "in [0, 2**128)"),
        "n_max": (lambda v: v >= 1, ">= 1"),
        "window": (lambda v: 0 <= v < math.inf, "finite and >= 0"),
        "x": positive,
        "eps": (lambda v: 0 < v < 0.5, "in (0, 0.5)"),
        "tol": positive,
        "check_tol": positive,
        "order": (lambda v: 3 <= v <= _MAX_ORDER, f"in [3, {_MAX_ORDER}]"),
        "mem_limit_mb": (lambda v: v >= 0, ">= 0"),
    }
    for name, (ok, rule) in rules.items():
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            raise ValidationError(f"--{name.replace('_', '-')} must be {rule}, got {value}")
    if args.cmd == "compare":
        try:
            ns = [int(tok) for tok in args.n_list.replace(",", " ").split()]
        except ValueError:
            raise ValidationError(f"bad n list {args.n_list!r}") from None
        if not ns or ns[0] < 1 or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValidationError(
                f"--n-list must be strictly ascending values >= 1, got {args.n_list!r}")
        args.n_list = ns  # parsed once: compare reads the list


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValidationError, so they exit 1 like any bad input."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _add_common(sub, formats=("csv", "json", "tsv"), mem=True, order=False):
    """--spec, --out and --format, and --mem-limit-mb / --order where they are read."""
    sub.add_argument("--spec", required=True, help="walk config file")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=formats, default="csv")
    if mem:
        sub.add_argument("--mem-limit-mb", type=int, default=2048,
                         help="memory cap for exact engines, the simulator and the reports "
                              "they write (MiB)")
    if order:
        sub.add_argument("--order", type=int, default=4, help="expansion order L")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="lltwalk",
        description="Exact and asymptotic laws of lattice walks with a perturbed exit law at the origin.",
    )
    sp = ap.add_subparsers(dest="cmd", required=True)

    p_exact = sp.add_parser("exact", help="compute and export an exact n-step law")
    _add_common(p_exact)
    p_exact.add_argument("--n", type=int, required=True)
    p_exact.add_argument("--route", choices=exact_engine.ROUTES + ("all",), default="fourier")
    p_exact.add_argument("--law", choices=("perturbed", "unperturbed"), default="perturbed")
    p_exact.add_argument("--check-tol", type=float, default=exact_engine.ROUTE_TOL,
                         help="max pairwise route deviation allowed with --route all")

    p_asym = sp.add_parser("asymptotic", help="export asymptotic predictions over the window")
    _add_common(p_asym, mem=False, order=True)
    p_asym.add_argument("--n", type=int, required=True)
    p_asym.add_argument("--window", type=float, default=None,
                        help="euclidean radius (default 4*sqrt(lambda_max(B)*n))")

    p_cmp = sp.add_parser("compare", help="exact vs asymptotic over several n, with decay slopes")
    _add_common(p_cmp, formats=("csv", "json"), order=True)
    p_cmp.add_argument("--n-list", required=True, help="comma separated, ascending")
    p_cmp.add_argument("--route", choices=exact_engine.ROUTES, default="fourier")
    p_cmp.add_argument("--window", type=float, default=None)
    p_cmp.add_argument("--no-crosscheck", action="store_true")

    p_sim = sp.add_parser("simulate", help="seeded Monte Carlo empirical law")
    _add_common(p_sim)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)

    p_coef = sp.add_parser("coeffs", help="print the expansion coefficient table")
    _add_common(p_coef, mem=False, order=True)

    p_id = sp.add_parser("identities", help="run the special-function identity suite")
    p_id.add_argument("--out", default=None, help="output path (default stdout)")
    p_id.add_argument("--x", type=float, default=1.0)
    p_id.add_argument("--eps", type=float, default=0.01)
    p_id.add_argument("--tol", type=float, default=1e-3)

    p_ret = sp.add_parser("returns", help="first-return probabilities, perturbed vs unperturbed")
    _add_common(p_ret)
    p_ret.add_argument("--n-max", type=int, default=50)
    p_ret.add_argument("--check-tol", type=float, default=exact_engine.ROUTE_TOL)

    return ap


def _cmd_exact(args) -> int:
    spec = load_walk_spec(args.spec)
    if args.law == "unperturbed":
        spec = validate_walk_spec(spec.p, spec.p, unperturbed=True, L=spec.L)
    mem = args.mem_limit_mb << 20
    if args.route == "all":
        t0 = time.perf_counter()
        dists, worst = exact_engine.cross_check(
            spec, args.n, tol=args.check_tol, mem_limit=mem
        )
        dt = time.perf_counter() - t0
        bound = max(d.tail_bound for d in dists.values())
        print(
            f"routes {list(dists)}: max pairwise deviation {worst:.3e} "
            f"(tol {args.check_tol:.1e}, {dt:.2f}s), tail bound {bound:.1e}",
            file=sys.stderr,
        )
        dist = dists["fourier"]
        del dists  # the other routes' laws go before the writer
    else:
        dist = exact_engine.perturbed_distribution(spec, args.n, route=args.route, mem_limit=mem)
    cells = int(np.count_nonzero(dist.pmf.weights))
    errors.guard_memory("exact_writer", cells * io_text.LAW_CELL_BYTES + io_text.BLOCK_BYTES, mem)
    _emit(io_text.distribution_blocks(dist, args.format), args.out)
    return 0


def _cmd_asymptotic(args) -> int:
    spec = load_walk_spec(args.spec, L=args.order)
    preds = harness.window_predictions(spec, args.n, args.window)
    _emit(io_text.predictions_blocks(preds, args.n, spec.nu, args.format), args.out)
    return 0


def _cmd_compare(args) -> int:
    spec = load_walk_spec(args.spec, L=args.order)
    rep = harness.compare(
        spec,
        args.n_list,
        window=args.window,
        route=args.route,
        crosscheck=not args.no_crosscheck,
        mem_limit=args.mem_limit_mb << 20,
    )
    _emit(io_text.report_blocks(rep, args.format), args.out)
    print(f"slopes: {rep.slopes}", file=sys.stderr)
    if rep.route_deviation:
        worst = max(rep.route_deviation.values())
        print(f"route cross-check worst deviation: {worst:.3e}", file=sys.stderr)
        if worst > exact_engine.ROUTE_TOL:
            raise CrossCheckError(
                f"route deviation {worst:.3e} exceeds {exact_engine.ROUTE_TOL:.0e}"
            )
    return 0


def _cmd_simulate(args) -> int:
    spec = load_walk_spec(args.spec)
    emp = harness.simulate(spec, args.n, args.trials, args.seed,
                           mem_limit=args.mem_limit_mb << 20)
    _emit(io_text.empirical_blocks(emp, args.format), args.out)
    return 0


def _cmd_coeffs(args) -> int:
    spec = load_walk_spec(args.spec, L=args.order)
    coeffs = edgeworth_coeffs(spec.p, spec.L)
    _emit(io_text.coeffs_blocks(coeffs, args.format), args.out)
    return 0


def _cmd_identities(args) -> int:
    rep = identity_suite(x=args.x, eps=args.eps, tol=args.tol)
    _emit(rep.render(), args.out)
    if not rep.all_ok:
        raise CrossCheckError("identity suite has failing checks")
    return 0


def _cmd_returns(args) -> int:
    spec = load_walk_spec(args.spec)
    mem = args.mem_limit_mb << 20
    # the table, before the walk
    errors.guard_memory("returns_writer", args.n_max * io_text.RETURN_ROW_BYTES + io_text.BLOCK_BYTES, mem)
    f, fp = exact_engine.first_return_probs(spec, args.n_max, mem_limit=mem)
    _emit(io_text.returns_blocks(f, fp, args.format), args.out)
    worst = float(np.abs(f - fp).max())
    print(f"max |f_n - f'_n| = {worst:.3e}", file=sys.stderr)
    if worst > args.check_tol:
        raise CrossCheckError(f"first-return identity violated by {worst:.3e}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``main``'s parser, built on its first call and reused: a parse changes nothing in it."""
    return build_parser()


_COMMANDS = {
    "exact": _cmd_exact,
    "asymptotic": _cmd_asymptotic,
    "compare": _cmd_compare,
    "simulate": _cmd_simulate,
    "coeffs": _cmd_coeffs,
    "identities": _cmd_identities,
    "returns": _cmd_returns,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        _check_counts(args)
        return _COMMANDS[args.cmd](args)
    except (ValidationError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (CrossCheckError, NoConvergence) as exc:
        print(f"cross-check failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
