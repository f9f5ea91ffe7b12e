"""CSV, TSV and JSON renderers for every report the CLI writes.

Each renderer hands its small payload and its rows, as columns, to
``_json`` or ``_table``; both write the rows through ``_records``, one
template per row shape filled column by column.  JSON is byte for byte what
``json.dumps(indent=2, sort_keys=True)`` writes: floats in shortest repr
form, with ``NaN``, ``Infinity`` and ``-Infinity`` for the non-finite ones.
CSV and TSV write floats as ``%.17g``.  No format writes a timestamp, so a
given input always produces byte-identical files.
"""

from __future__ import annotations

import json
import math
import re
from operator import sub

from .walk_model import nonzero_columns

SCHEMA_VERSION = 1
_SLOT = "\x00rows"  # the row list's place in the payload's dump
_LEAF = re.compile(r'"\\u0000(\d+)"')  # a leaf of the sample row's dump: its column's index
_BOOLS = {False: "false", True: "true"}


def _records(template: str, columns, sep: str) -> str:
    """``template % row`` for each row of the columns, joined by ``sep``."""
    return sep.join(map(template.__mod__, zip(*columns)))


def _leaves(col):
    """A %-format and the column it fills, writing each value as the json encoder does.

    ``%r`` is ``int.__repr__`` or ``float.__repr__`` on exact ints and finite
    exact floats; bools take their two spellings from a lookup, and every
    other column goes through ``json.dumps`` value by value.
    """
    kinds = set(map(type, col))
    if kinds <= {int} or kinds <= {float} and all(map(math.isfinite, col)):
        return "%r", col
    if kinds <= {bool}:
        return "%s", list(map(_BOOLS.__getitem__, col))
    return "%s", list(map(json.dumps, col))


def _sentinels(shape):
    if isinstance(shape, dict):
        return {k: _sentinels(v) for k, v in shape.items()}
    if isinstance(shape, list):
        return [_sentinels(v) for v in shape]
    return f"\x00{shape}"


def _json(key: str, shape, columns, **payload) -> str:
    """The payload plus its rows at ``key``, as ``json.dumps(indent=2, sort_keys=True)``.

    ``shape`` is one row with each leaf replaced by the index of its column
    in ``columns``, and every row has that shape.  The row is dumped once
    with sentinel leaves, at the depth of the rows, and each sentinel
    becomes the %-format that ``_leaves`` picks for its column.
    """
    head, tail = json.dumps(
        {"schema_version": SCHEMA_VERSION, **payload, key: _SLOT}, indent=2, sort_keys=True
    ).split(json.dumps(_SLOT))
    # the rows sit at depth 2: strip the one-row list's "[\n    " and "\n  ]"
    row = json.dumps([_sentinels(shape)], indent=2, sort_keys=True).replace("\n", "\n  ")[6:-4]
    row = row.replace("%", "%%")
    leaves = [_leaves(col) for col in columns]
    template = _LEAF.sub(lambda m: leaves[int(m[1])][0], row)
    body = _records(template, [leaves[int(i)][1] for i in _LEAF.findall(row)], ",\n    ")
    return f"{head}[\n    {body}\n  ]{tail}\n" if body else f"{head}[]{tail}\n"


def _table(fmt: str, header: str | None, names, formats, columns) -> str:
    """A '# ...' header line (if any), the column names, then one line per row.

    ``formats`` holds one %-format per column, such as ``%d`` or ``%.17g``.
    """
    sep = "," if fmt == "csv" else "\t"
    head = [header] if header else []
    body = _records(sep.join(formats) + "\n", columns, "")
    return "\n".join([*head, sep.join(names)]) + "\n" + body


def _coords(nu: int) -> list:
    return [f"x{i+1}" for i in range(nu)]


def distribution_text(dist, fmt: str = "csv") -> str:
    """One row per support point, coordinates then mass, lexicographic order."""
    nu = dist.pmf.dim
    axes, mass = nonzero_columns(dist.pmf.weights, dist.pmf.offset)
    if fmt == "json":
        return _json("points", [*range(nu + 1)], [*axes, mass], n=dist.n, nu=nu, route=dist.route)
    return _table(fmt, f"# n={dist.n} nu={nu} route={dist.route}", _coords(nu) + ["mass"],
                  ["%d"] * nu + ["%.17g"], [*axes, mass])


def empirical_text(emp, fmt: str = "csv") -> str:
    nu = emp.counts.ndim
    axes, counts = nonzero_columns(emp.counts, emp.offset)
    if fmt == "json":
        return _json("counts", [*range(nu + 1)], [*axes, counts],
                     n=emp.n, nu=nu, trials=emp.trials, seed=emp.seed)
    header = f"# n={emp.n} nu={nu} trials={emp.trials} seed={emp.seed}"
    return _table(fmt, header, _coords(nu) + ["count"], ["%d"] * (nu + 1), [*axes, counts])


_TERMS = ("gaussian_leading", "perturbation_correction", "edgeworth_terms", "total")


def predictions_text(cols: dict, n: int, nu: int, fmt: str = "csv") -> str:
    """Window predictions at step count n, from columns x1..xnu, one per term and within_horizon."""
    axes = [cols[c] for c in _coords(nu)]
    terms = [cols[t] for t in _TERMS]
    horizon = cols["within_horizon"]
    if fmt == "json":
        shape = {"x": [*range(nu)], "n": nu, "within_horizon": nu + 1,
                 **{t: nu + 2 + i for i, t in enumerate(_TERMS)}}
        return _json("predictions", shape, [*axes, [n] * len(horizon), horizon, *terms])
    return _table(fmt, f"# n={n} nu={nu}", _coords(nu) + [*_TERMS, "within_horizon"],
                  ["%d"] * nu + ["%.17g"] * len(_TERMS) + ["%d"], [*axes, *terms, horizon])


def coeffs_text(coeffs, fmt: str = "csv") -> str:
    entries = sorted(coeffs.m.items())
    alphas = [a for a, _ in entries]
    values = [float(v) for _, v in entries]
    exact = [str(v) if coeffs.exact else None for _, v in entries]
    if fmt == "json":
        nu = coeffs.B.shape[0]
        return _json("m", {"alpha": [*range(nu)], "value": nu, "exact": nu + 1},
                     [*([a[i] for a in alphas] for i in range(nu)), values, exact],
                     L=coeffs.L, B=coeffs.B.tolist(), exact=coeffs.exact)
    labels = [" ".join(map(str, a)) for a in alphas]
    return _table(fmt, f"# L={coeffs.L} exact={int(coeffs.exact)}", ["alpha", "m", "m_exact"],
                  ["%s", "%.17g", "%s"], [labels, values, [e or "" for e in exact]])


def returns_text(f_pert, f_unpert, fmt: str = "csv") -> str:
    f, g = list(map(float, f_pert)), list(map(float, f_unpert))
    diff = list(map(abs, map(sub, f, g)))
    cols = [list(range(1, len(diff) + 1)), f, g, diff]
    if fmt == "json":
        return _json("rows", {"n": 0, "f": 1, "f_unperturbed": 2, "abs_diff": 3}, cols)
    return _table(fmt, "# first-return probabilities", ["n", "f", "f_unperturbed", "abs_diff"],
                  ["%d", "%.17g", "%.17g", "%.3e"], cols)


def report_text(rep, fmt: str = "csv") -> str:
    """A ConvergenceReport: its summary and rows, or one line per (n, x)."""
    keys = ["exact"] + [k for f in rep.flavors for k in (f, f"{f}_abs_err", f"{f}_scaled_err")]
    names = ["n", *_coords(rep.nu), *keys]
    if rep.columns.keys() != set(names) or len(set(map(len, rep.columns.values()))) > 1:
        raise ValueError("a report needs one column per header name, all of one length")
    cols = [rep.columns[k] for k in names]
    if fmt == "json":
        shape = {"n": 0, "x": [*range(1, rep.nu + 1)],
                 **{k: rep.nu + 1 + i for i, k in enumerate(keys)}}
        return _json(
            "rows", shape, cols,
            spec=rep.spec_summary,
            nu=rep.nu,
            n_list=list(rep.n_list),
            flavors=list(rep.flavors),
            max_scaled_err={f: {str(n): v for n, v in d.items()} for f, d in rep.max_scaled_err.items()},
            slopes=rep.slopes,
            route_deviation={str(n): v for n, v in rep.route_deviation.items()},
            meta=rep.meta,
        )
    return _table(fmt, None, names, ["%d"] * (1 + rep.nu) + ["%.17g"] * len(keys), cols)
