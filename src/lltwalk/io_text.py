"""CSV, TSV and JSON renderers for every report the CLI writes.

Each renderer builds only its rows and its payload; ``_table`` and
``_json`` write them.  All floats are written with repr precision (%.17g)
and no timestamps, so a given input always produces byte-identical files.
"""

from __future__ import annotations

import json

SCHEMA_VERSION = 1


def _json(**payload) -> str:
    return json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2, sort_keys=True) + "\n"


def _table(fmt: str, header: str | None, columns, rows) -> str:
    """A '# ...' header line (if any), the column names, then one line per row."""
    sep = "," if fmt == "csv" else "\t"
    lines = [header] if header else []
    lines.append(sep.join(columns))
    lines.extend(sep.join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _coords(nu: int) -> list:
    return [f"x{i+1}" for i in range(nu)]


def distribution_text(dist, fmt: str = "csv") -> str:
    """One row per support point, coordinates then mass, lexicographic order."""
    nu = dist.pmf.dim
    points = list(dist.pmf.points())
    if fmt == "json":
        return _json(n=dist.n, nu=nu, route=dist.route, points=[[*pt, w] for pt, w in points])
    rows = ([str(c) for c in pt] + [f"{w:.17g}"] for pt, w in points)
    return _table(fmt, f"# n={dist.n} nu={nu} route={dist.route}", _coords(nu) + ["mass"], rows)


def empirical_text(emp, fmt: str = "csv") -> str:
    nu = emp.counts.ndim
    points = list(emp.points())
    if fmt == "json":
        return _json(n=emp.n, nu=nu, trials=emp.trials, seed=emp.seed,
                     counts=[[*pt, cnt] for pt, cnt in points])
    rows = ([str(c) for c in pt] + [str(cnt)] for pt, cnt in points)
    header = f"# n={emp.n} nu={nu} trials={emp.trials} seed={emp.seed}"
    return _table(fmt, header, _coords(nu) + ["count"], rows)


_TERMS = ("gaussian_leading", "perturbation_correction", "edgeworth_terms", "total")


def predictions_text(preds, n: int, nu: int, fmt: str = "csv") -> str:
    """Rows of AsymptoticPrediction at step count n, with one column per term."""
    if fmt == "json":
        return _json(predictions=[
            {"x": list(p.x), "n": p.n, "within_horizon": p.within_horizon,
             **{t: getattr(p, t) for t in _TERMS}}
            for p in preds
        ])
    rows = (
        [str(c) for c in p.x]
        + [f"{getattr(p, t):.17g}" for t in _TERMS]
        + ["1" if p.within_horizon else "0"]
        for p in preds
    )
    return _table(fmt, f"# n={n} nu={nu}", _coords(nu) + [*_TERMS, "within_horizon"], rows)


def coeffs_text(coeffs, fmt: str = "csv") -> str:
    entries = sorted(coeffs.m.items())
    if fmt == "json":
        return _json(L=coeffs.L, B=coeffs.B.tolist(), exact=coeffs.exact, m=[
            {"alpha": list(a), "value": float(v), "exact": str(v) if coeffs.exact else None}
            for a, v in entries
        ])
    rows = (
        [" ".join(str(i) for i in a), f"{float(v):.17g}", str(v) if coeffs.exact else ""]
        for a, v in entries
    )
    return _table(fmt, f"# L={coeffs.L} exact={int(coeffs.exact)}", ["alpha", "m", "m_exact"], rows)


def returns_text(f_pert, f_unpert, fmt: str = "csv") -> str:
    pairs = list(enumerate(zip(f_pert, f_unpert), start=1))
    if fmt == "json":
        return _json(rows=[
            {"n": i, "f": float(a), "f_unperturbed": float(b), "abs_diff": abs(float(a) - float(b))}
            for i, (a, b) in pairs
        ])
    rows = ([str(i), f"{a:.17g}", f"{b:.17g}", f"{abs(a - b):.3e}"] for i, (a, b) in pairs)
    return _table(fmt, "# first-return probabilities", ["n", "f", "f_unperturbed", "abs_diff"], rows)


def report_text(rep, fmt: str = "csv") -> str:
    """A ConvergenceReport: its summary and rows, or one line per (n, x)."""
    if fmt == "json":
        return _json(
            spec=rep.spec_summary,
            nu=rep.nu,
            n_list=list(rep.n_list),
            flavors=list(rep.flavors),
            max_scaled_err={f: {str(n): v for n, v in d.items()} for f, d in rep.max_scaled_err.items()},
            slopes=rep.slopes,
            route_deviation={str(n): v for n, v in rep.route_deviation.items()},
            meta=rep.meta,
            rows=rep.rows,
        )
    keys = ["exact"] + [k for f in rep.flavors for k in (f, f"{f}_abs_err", f"{f}_scaled_err")]
    rows = (
        [str(row["n"])] + [str(c) for c in row["x"]] + [f"{row[k]:.17g}" for k in keys]
        for row in rep.rows
    )
    return _table(fmt, None, ["n", *_coords(rep.nu), *keys], rows)
