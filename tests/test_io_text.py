"""The row-template writers against the standard library and per-row references.

JSON must be byte for byte what ``json.dumps(indent=2, sort_keys=True)``
writes; CSV and TSV must be byte for byte what the per-row f-string
renderers below write.
"""

import json
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lltwalk import io_text
from lltwalk.exact_engine import perturbed_forward
from lltwalk.harness import AsymptoticPrediction, ConvergenceReport, compare, simulate
from lltwalk.spectral import EdgeworthCoeffs, edgeworth_coeffs

from conftest import nonzero_cells, report_rows

EDGE = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1, -1.5e-17, 2.0**-1074 * 3]


# -- per-row references: one dict or one f-string list per row -----------------


def _ref_json(**payload) -> str:
    return json.dumps({"schema_version": 1, **payload}, indent=2, sort_keys=True) + "\n"


def _ref_table(fmt, header, columns, rows) -> str:
    sep = "," if fmt == "csv" else "\t"
    lines = [header] if header else []
    lines.append(sep.join(columns))
    lines.extend(sep.join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _coords(nu):
    return [f"x{i+1}" for i in range(nu)]


def _ref_distribution(dist, fmt):
    nu = dist.pmf.dim
    points = nonzero_cells(dist.pmf.weights, dist.pmf.offset)
    if fmt == "json":
        return _ref_json(n=dist.n, nu=nu, route=dist.route, points=[[*pt, w] for pt, w in points])
    rows = ([str(c) for c in pt] + [f"{w:.17g}"] for pt, w in points)
    return _ref_table(fmt, f"# n={dist.n} nu={nu} route={dist.route}", _coords(nu) + ["mass"], rows)


def _ref_empirical(emp, fmt):
    nu = emp.counts.ndim
    points = nonzero_cells(emp.counts, emp.offset)
    if fmt == "json":
        return _ref_json(n=emp.n, nu=nu, trials=emp.trials, seed=emp.seed,
                         counts=[[*pt, cnt] for pt, cnt in points])
    rows = ([str(c) for c in pt] + [str(cnt)] for pt, cnt in points)
    header = f"# n={emp.n} nu={nu} trials={emp.trials} seed={emp.seed}"
    return _ref_table(fmt, header, _coords(nu) + ["count"], rows)


_TERMS = ("gaussian_leading", "perturbation_correction", "edgeworth_terms", "total")


def _ref_predictions(preds, n, nu, fmt):
    if fmt == "json":
        return _ref_json(predictions=[
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
    return _ref_table(fmt, f"# n={n} nu={nu}", _coords(nu) + [*_TERMS, "within_horizon"], rows)


def _ref_coeffs(coeffs, fmt):
    entries = sorted(coeffs.m.items())
    if fmt == "json":
        return _ref_json(L=coeffs.L, B=coeffs.B.tolist(), exact=coeffs.exact, m=[
            {"alpha": list(a), "value": float(v), "exact": str(v) if coeffs.exact else None}
            for a, v in entries
        ])
    rows = (
        [" ".join(str(i) for i in a), f"{float(v):.17g}", str(v) if coeffs.exact else ""]
        for a, v in entries
    )
    return _ref_table(fmt, f"# L={coeffs.L} exact={int(coeffs.exact)}",
                      ["alpha", "m", "m_exact"], rows)


def _ref_returns(f_pert, f_unpert, fmt):
    pairs = list(enumerate(zip(f_pert, f_unpert), start=1))
    if fmt == "json":
        return _ref_json(rows=[
            {"n": i, "f": float(a), "f_unperturbed": float(b), "abs_diff": abs(float(a) - float(b))}
            for i, (a, b) in pairs
        ])
    rows = ([str(i), f"{a:.17g}", f"{b:.17g}", f"{abs(a - b):.3e}"] for i, (a, b) in pairs)
    return _ref_table(fmt, "# first-return probabilities", ["n", "f", "f_unperturbed", "abs_diff"],
                      rows)


def _ref_report(rep, fmt):
    if fmt == "json":
        return _ref_json(
            spec=rep.spec_summary,
            nu=rep.nu,
            n_list=list(rep.n_list),
            flavors=list(rep.flavors),
            max_scaled_err={f: {str(n): v for n, v in d.items()}
                            for f, d in rep.max_scaled_err.items()},
            slopes=rep.slopes,
            route_deviation={str(n): v for n, v in rep.route_deviation.items()},
            meta=rep.meta,
            rows=report_rows(rep),
        )
    keys = ["exact"] + [k for f in rep.flavors for k in (f, f"{f}_abs_err", f"{f}_scaled_err")]
    rows = (
        [str(row["n"])] + [str(c) for c in row["x"]] + [f"{row[k]:.17g}" for k in keys]
        for row in report_rows(rep)
    )
    return _ref_table(fmt, None, ["n", *_coords(rep.nu), *keys], rows)


FORMATS = ["csv", "tsv", "json"]


def _same(new, ref):
    # the per-row references step numpy scalars, whose inf - inf warns
    with np.errstate(all="ignore"):
        assert new() == ref()


# -- the helper against json.dumps ----------------------------------------------


def _fill(shape, columns, i):
    if isinstance(shape, dict):
        return {k: _fill(v, columns, i) for k, v in shape.items()}
    if isinstance(shape, list):
        return [_fill(v, columns, i) for v in shape]
    return columns[shape][i]


_JSON_CASES = {
    "floats": ({"v": 0}, [EDGE]),
    "ints": ([0, 1], [[0, -1, 10**30, 7], [3, 2, 1, 0]]),
    "x_1d": ({"x": [0], "total": 1}, [[-2, -1, 0], [0.25, -0.0, math.inf]]),
    "x_3d": ({"x": [0, 1, 2], "n": 3, "within_horizon": 4, "total": 5},
             [[0, 1, -1], [2, 0, 5], [-3, 0, 1], [8, 8, 8], [True, False, True], EDGE[:3]]),
    "consts": ({"a": 0, "b": 1}, [[None, True, False], [True, True, None]]),
    "strings": ({"100%": 0, "%s": 1},
                [['say "hi"', "back\\slash", "%d %s %%"], ["ünï", "tab\tnew\nline", "\x00\x1f"]]),
    "mixed": ({"v": 0}, [[1, 2.5, None, "a", True, math.nan]]),
    "numpy_scalars": ({"v": 0, "w": 1}, [[np.float64(0.1), np.float64(math.nan)], [1.0, 2.0]]),
    "empty": ({"x": [0, 1], "v": 2}, [[], [], []]),
    "one_column": ([0], [[1.5]]),
}


@pytest.mark.parametrize("case", list(_JSON_CASES))
def test_json_rows_match_stdlib(case):
    shape, columns = _JSON_CASES[case]
    rows = [_fill(shape, columns, i) for i in range(len(columns[0]))]
    payload = {"B": [[1.0, 0.0], [0.0, 1.0]], "z": None, "a": 'quoted "name"',
               "meta": {"k": math.nan}}
    assert str(io_text._json("m", shape, columns, **payload)) == _ref_json(**payload, m=rows)


# -- every renderer against its per-row reference, in every format ---------------


def _edge_preds(nu):
    xs = [tuple((-1) ** k * (k + j) for j in range(nu)) for k in range(len(EDGE))]
    return [
        AsymptoticPrediction(7, x, v, EDGE[-1 - k], -v, 0.5, k % 2 == 0)
        for k, (x, v) in enumerate(zip(xs, EDGE))
    ]


def _pred_columns(preds, nu):
    # the columns window_predictions returns, from the reference's rows
    return {**{f"x{i+1}": [p.x[i] for p in preds] for i in range(nu)},
            **{t: [getattr(p, t) for p in preds] for t in (*_TERMS, "within_horizon")}}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("nu", [1, 3])
def test_predictions_text_matches_reference(fmt, nu):
    for preds in (_edge_preds(nu), []):
        _same(lambda: io_text.predictions_text(_pred_columns(preds, nu), 7, nu, fmt),
              lambda: _ref_predictions(preds, 7, nu, fmt))


@pytest.mark.parametrize("fmt", FORMATS)
def test_distribution_text_matches_reference(fmt, lazy_pert, unit_cov_2d, spec3d):
    dists = [perturbed_forward(spec, n)
             for spec, n in ((lazy_pert, 9), (unit_cov_2d, 4), (spec3d, 3))]
    # a law only in name: non-finite and extreme weights in a 2-D box
    edge = SimpleNamespace(dim=2, weights=np.array(EDGE).reshape(5, 2), offset=np.array([-2, 0]))
    dists.append(SimpleNamespace(n=2, route="dp", pmf=edge))
    for d in dists:
        _same(lambda: io_text.distribution_text(d, fmt), lambda: _ref_distribution(d, fmt))


@pytest.mark.parametrize("fmt", FORMATS)
def test_empirical_text_matches_reference(fmt, lazy_pert, spec3d):
    for spec in (lazy_pert, spec3d):
        emp = simulate(spec, 5, 300, seed=2)
        _same(lambda: io_text.empirical_text(emp, fmt), lambda: _ref_empirical(emp, fmt))


@pytest.mark.parametrize("fmt", FORMATS)
def test_coeffs_text_matches_reference(fmt, lazy_p, unit_cov_2d):
    synthetic = EdgeworthCoeffs(L=4, m={(4, 0): EDGE[0], (0, 4): -0.0, (2, 2): 1e300},
                                B=np.eye(2), exact=False)
    none = EdgeworthCoeffs(L=3, m={}, B=np.eye(1), exact=True)
    real = [edgeworth_coeffs(lazy_p, 6), edgeworth_coeffs(unit_cov_2d.p, 4)]
    for coeffs in (*real, synthetic, none):
        _same(lambda: io_text.coeffs_text(coeffs, fmt), lambda: _ref_coeffs(coeffs, fmt))


@pytest.mark.parametrize("fmt", FORMATS)
def test_returns_text_matches_reference(fmt):
    f = np.array(EDGE)
    g = np.array(EDGE[::-1])
    _same(lambda: io_text.returns_text(f, g, fmt), lambda: _ref_returns(f, g, fmt))
    f, g = f[:0], g[:0]
    _same(lambda: io_text.returns_text(f, g, fmt), lambda: _ref_returns(f, g, fmt))


def _edge_report(nu):
    flavors = ["gaussian", "corrected"]
    keys = ["exact"] + [k for fl in flavors for k in (fl, f"{fl}_abs_err", f"{fl}_scaled_err")]
    rows = range(len(EDGE))
    columns = {
        "n": [8 * (k + 1) for k in rows],
        **{f"x{j+1}": [k - j for k in rows] for j in range(nu)},
        **{key: [EDGE[(k + i) % len(EDGE)] for k in rows] for i, key in enumerate(keys)},
    }
    return ConvergenceReport(
        spec_summary=f'nu={nu} "edge"', nu=nu, n_list=[8, 16], flavors=flavors, columns=columns,
        max_scaled_err={"gaussian": {8: math.inf, 16: 0.5}}, slopes={"gaussian": None},
        route_deviation={8: -0.0}, meta={"route": "dp", "order": None, "window_rule": 2.5},
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_text_matches_reference(fmt, lazy_pert):
    for rep in (_edge_report(1), _edge_report(3), compare(lazy_pert, [8, 16])):
        _same(lambda: io_text.report_text(rep, fmt), lambda: _ref_report(rep, fmt))
    empty = _edge_report(2)
    empty.columns = {k: [] for k in empty.columns}
    _same(lambda: io_text.report_text(empty, fmt), lambda: _ref_report(empty, fmt))


def test_report_rows_of_two_shapes_rejected():
    # a column of another length, then a column name unknown or missing:
    # zip would silently cut every column to the shortest
    rep = _edge_report(2)
    rep.columns["x2"].append(3)
    with pytest.raises(ValueError):
        rep.to_json()
    rep = _edge_report(2)
    rep.columns["extra"] = rep.columns["exact"]
    with pytest.raises(ValueError):
        rep.to_csv()
    rep = _edge_report(2)
    del rep.columns["x2"]
    with pytest.raises(ValueError):
        rep.to_csv()


def test_fraction_coefficients_keep_their_exact_text(lazy_p):
    coeffs = edgeworth_coeffs(lazy_p, 4)
    payload = json.loads(io_text.coeffs_text(coeffs, "json"))
    exact = [Fraction(row["exact"]) for row in payload["m"]]
    assert exact == [v for _, v in sorted(coeffs.m.items())]


# -- the vectorized float formatter against the per-value formatters ------------


def _texts(cells):
    return [bytes(row).translate(None, io_text._PAD).decode() for row in cells]


def _check_floats(values):
    # json.dumps writes a finite float as its repr
    x = np.array(values, dtype=np.float64)
    assert _texts(io_text._float_cells(x, True)) == [json.dumps(v) for v in values]
    assert _texts(io_text._float_cells(x, False)) == ["%.17g" % v for v in values]


# raw 64-bit patterns: every sign, exponent and mantissa, so subnormals, +-0,
# +-inf and NaNs of any payload come up
_BITS = st.integers(0, 2**64 - 1).map(lambda b: np.array(b, np.uint64).view(np.float64).item())
_FLOATS = st.one_of(_BITS, st.floats(allow_nan=True, allow_infinity=True),
                    st.floats(1e-8, 1.0), st.integers(-2**60, 2**60).map(float))


@settings(max_examples=300, deadline=None)
@given(st.lists(_FLOATS, max_size=40))
def test_float_cells_match_per_value_formatters(values):
    _check_floats(values)


# powers of two (asymmetric rounding intervals), 17-digit ties, a 15-digit
# rounding that carries into a new digit, powers of ten and their
# neighbours, a subnormal and the largest float
_MUST_FALL_BACK = [
    *(s * 2.0**k for k in (-900, -20, -1, 0, 1, 53, 900) for s in (1, -1)),
    1000000000000000.25, 1234567890123456.75, -2000000000000000.25,
    9.9999999999999995e-05, 1e16, 1e-4, 1e-5, 5e-324, 1.7976931348623157e308,
]


def test_unprovable_floats_take_the_fallback():
    x = np.array(_MUST_FALL_BACK)
    assert not io_text._float_digits(x, True)[2].any()
    assert not io_text._float_digits(x[14:], False)[2].any()  # '%.17g' rounds powers of two
    _check_floats(_MUST_FALL_BACK + [0.0, -0.0, math.nan, math.inf, -math.inf])


def test_ordinary_floats_take_the_fast_path():
    # probabilities and their errors: a fallback here would cost the speed
    x = np.random.default_rng(5).random(4096) * 10.0 ** -(np.arange(4096) % 12)
    for shortest in (True, False):
        assert io_text._float_digits(x, shortest)[2].mean() > 0.999
    _check_floats(x.tolist())
