"""CSV, TSV and JSON renderers for every report the CLI writes.

Each renderer (``*_blocks``) hands its small payload and its rows, as
columns, to ``_json`` or ``_table``.  Both write the rows from the columns
through ``_body``: each row is a fixed list of literal pieces with one cell
between each two, and ``_json`` takes its pieces from one ``json.dumps`` of
a row whose leaves are sentinels.  A renderer returns its output as
``Blocks``, UTF-8 bytes a block of rows at a time, formatted as they are
read, so a writer holds one block's text; each ``*_text`` function returns
the joined string.  JSON is byte for byte what
``json.dumps(indent=2, sort_keys=True)`` writes: floats in shortest repr
form, with ``NaN``, ``Infinity`` and ``-Infinity`` for the non-finite ones.
CSV and TSV write floats as ``%.17g``.  No format writes a timestamp, so a
given input always produces byte-identical files.

Float columns are formatted as numpy arrays, a block of cells at a time
(``_float_digits``, ``_float_cells``), in the split of fast float printers
(Loitsch's Grisu3): a cheap method where it can prove its rounding, and the
exact per-value one where it cannot.  Each float's 17 significant digits
come from a double-double product with a table of powers of ten, and the
remainder of each rounding is known to about 1e-15 of the last digit.  A
cell takes these digits only where that remainder proves the rounding: it is
more than 1e-9 of the last digit from every tie and, for the shortest repr,
from every edge of the float's rounding interval.  Every other cell
(subnormals, magnitudes past 1e+-290, non-finite values, powers of two in
JSON, values within 1e-12 of a power of ten in log10, and the unproven) is
written by ``repr``, ``json.dumps`` or ``'%.17g'`` as before, so each output
byte is the per-value formatter's byte.  Cells are padded with 0xFF, a byte
no UTF-8 text holds, and one ``bytes.translate`` per block of rows drops
the padding.
"""

from __future__ import annotations

import functools
import json
import math
import re

import numpy as np

from .walk_model import nonzero_columns

SCHEMA_VERSION = 1
_SLOT = "\x00rows"  # the row list's place in the payload's dump
_LEAF = re.compile(r'"\\u0000(\d+)"')  # a leaf of the sample row's dump: its column's index
_BOOLS = {False: "false", True: "true"}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json.dumps's spellings
_PAD = b"\xff"  # pads every cell to its column's width; translate drops it
_BLOCK_CELLS = 1 << 13  # cells per block of rows: bounds the temporaries of formatting
# tracemalloc peak of a streamed writer past its per-row charge (the CLI's
# LAW_CELL_BYTES, RETURN_ROW_BYTES and harness.REPORT_ROW_BYTES), with 7% to
# spare: one block's temporaries and the rows' own columns outweigh the rows'
# charge up to 333 KB (returns in JSON at 704 rows; compare's report up to
# 231 KB, exact's law up to 130 KB) on Python 3.11 and numpy 2.4
BLOCK_BYTES = 352 << 10
_GATHER_CELLS = 1 << 10  # float cells per gather of their text
_TIE = 1e-9  # least distance, in units of the last digit, of a proven rounding from a boundary
_LO, _HI = 1e-290, 1e290  # the magnitudes the fast float path takes
_POW_LO = -275  # the least power of ten in the table; 16 - floor(log10 _HI) is above it
_MANTISSA = (1 << 52) - 1


# -- lookup tables, built on first use (not at import) and read-only -------------


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays if len(arrays) > 1 else arrays[0]


@functools.cache
def _pow10() -> np.ndarray:
    """Rows hi, hi_h, hi_l, lo per k from _POW_LO to 308: 10**k = hi + lo to about 2**-106.

    hi is 10**k rounded, lo the rounded rest, and hi_h + hi_l = hi is
    Veltkamp's split of hi into two 26-bit halves, for Dekker's exact product.
    """
    rows = []
    for k in range(_POW_LO, 309):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int division is correctly rounded
        a, b = hi.as_integer_ratio()
        frac, exp = math.frexp(hi)
        c = frac * 134217729.0
        top = c - (c - frac)
        rows.append((hi, math.ldexp(top, exp), math.ldexp(frac - top, exp),
                     (num * b - a * den) / (den * b)))
    return _frozen(np.array(rows).T.copy())


@functools.cache
def _digit_table():
    """(groups, zeros): the four ASCII digits of each int below 10**4 as one uint32,
    and the count of trailing zeros of each (4 for 0)."""
    v = np.arange(10**4)
    ascii4 = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1) + 48
    zeros = np.zeros(10**4, np.int8)
    for k in (10, 100, 1000, 10**4):
        zeros += v % k == 0
    return _frozen(ascii4.astype(np.uint8).view(np.uint32).ravel(), zeros)


@functools.cache
def _exponents() -> np.ndarray:
    """The exponent sign and three digits of each e in [-400, 400), as one uint32."""
    text = b"".join(b"%c%03d" % (45 if e < 0 else 43, abs(e)) for e in range(-400, 400))
    return np.frombuffer(text, np.uint32)  # read-only: a view of bytes


# A float cell's source row: positions 0..19 the 17 digits after three zeros,
# then these characters, then padding.
_MINUS, _POINT, _ZERO, _E, _EXP = 20, 21, 22, 23, 24  # _EXP: sign, then three digits
_PADPOS = 28
_WIDTH = 24  # the longest float text, "-1.7976931348623157e+308"


@functools.cache
def _layouts(shortest: bool):
    """(positions, lengths) per layout key (form * 17 + digits - 1) * 2 + negative.

    form is e + 4 for fixed notation with decimal exponent e in [-4, 16], 21
    for an exponent of two digits, 22 for three.  positions lists, for each
    byte of the cell's text, the byte of its source row; padding past the
    text.  repr writes a whole number as "d.0"; '%.17g' drops the point.
    """
    pos = np.full((23 * 17 * 2, _WIDTH), _PADPOS, np.uint8)
    lens = np.zeros(len(pos), np.int64)
    for form in range(23):
        for nd in range(1, 18):
            digits = [3 + j for j in range(nd)]
            if form > 20:
                exp = [_E, _EXP] + list(range(_EXP + (1 if form == 22 else 2), _EXP + 4))
                text = digits[:1] + ([_POINT] + digits[1:] if nd > 1 else []) + exp
            elif form < 4:  # 0.000ddd
                text = [_ZERO, _POINT] + [_ZERO] * (3 - form) + digits
            else:  # the digits past nd of the 17 are zeros
                whole = [3 + j for j in range(form - 3)]
                if nd > len(whole):
                    text = whole + [_POINT] + digits[len(whole):]
                else:
                    text = whole + ([_POINT, _ZERO] if shortest else [])
            for neg in (0, 1):
                key = (form * 17 + nd - 1) * 2 + neg
                row = [_MINUS] * neg + text
                pos[key, :len(row)] = row
                lens[key] = len(row)
    return _frozen(pos, lens)


# -- cells -------------------------------------------------------------------------


def _text_cells(texts) -> np.ndarray:
    """One row per text, its UTF-8 bytes padded to the widest."""
    raw = [t.encode("utf-8", "surrogatepass") for t in texts]
    width = max(map(len, raw), default=0)
    return np.frombuffer(b"".join(r.ljust(width, _PAD) for r in raw),
                         np.uint8).reshape(len(raw), width)


def _float_digits(x: np.ndarray, shortest: bool):
    """(sig, e, proven) for each float of x.

    Where ``proven``, the digits of ``repr(x)`` (``shortest``) or of
    ``'%.17g' % x`` are those of the 17-digit int ``sig`` without its trailing
    zeros, and e is the decimal exponent of their first digit.  The steps
    work in place where they can, so few temporaries of len(x) live at once.
    """
    ax = np.abs(x)
    proven = (ax >= _LO) & (ax <= _HI)  # NaN compares False
    ax[~proven] = 1.0
    lg = np.log10(ax)
    # log10 errs by a few ulps: farther than 1e-12 from an integer its floor
    # is e, and no rounding of 15 digits or more carries into a new digit
    e = np.floor(lg).astype(np.int64)
    lg -= np.rint(lg)
    proven &= np.abs(lg, out=lg) > 1e-12
    del lg
    hi, hi_h, hi_l, lo = np.take(_pow10(), 16 - _POW_LO - e, axis=1)
    # y = ax * 10**(16 - e) in [10**16, 10**17) as y_hi + y_lo: Dekker's exact
    # product of ax and hi (ax split by Veltkamp), plus ax * lo
    top = ax * 134217729.0
    top -= top - ax
    bottom = ax - top
    y_hi = ax * hi
    y_lo = top * hi_h
    y_lo -= y_hi
    y_lo += np.multiply(top, hi_l, out=top)
    y_lo += np.multiply(bottom, hi_h, out=hi_h)
    y_lo += np.multiply(bottom, hi_l, out=hi_l)
    y_lo += np.multiply(ax, lo, out=lo)
    del top, bottom, hi_h, hi_l, lo
    # y_hi >= 10**16 > 2**53 is a whole number, so y_lo alone is rounded
    t = np.rint(y_lo)
    sig = y_hi.astype(np.int64)
    del y_hi
    sig += t.astype(np.int64)
    r = np.subtract(y_lo, t, out=y_lo)
    del t
    proven &= _off(r, 0.5)
    if shortest:
        # the shortest repr is the first of 15, 16 and 17 digits within half an
        # ulp of x: at most one 15-digit decimal is, so a shorter repr is 15
        # digits stripped.  A power of two's interval is asymmetric: unproven.
        proven &= (x.view(np.int64) & _MANTISSA) != 0
        half = np.multiply(np.spacing(ax), hi, out=hi)
        half *= 0.5
        del ax
        proven &= _off(r, half)
        out = sig.copy()
        free = np.ones(len(x), bool)  # no shorter rounding is within the interval
        for scale in (100, 10):  # 15 digits, then 16
            q = sig // scale
            f = sig - q * scale + r
            f /= scale  # y / scale - q, in [-0.005, 0.995)
            up = f > 0.5
            f -= up
            h = half / scale
            proven &= _off(f, 0.5) & _off(f, h)
            inside = np.abs(f, out=f) < h
            inside &= free
            q += up
            q *= scale
            np.copyto(out, q, where=inside)
            free &= ~inside
        sig = out
    zero = x == 0  # the digit 0 at exponent 0; the caller writes the sign
    sig[zero] = 0
    e[zero] = 0
    return sig, e, proven | zero


def _off(r: np.ndarray, bound) -> np.ndarray:
    """Where |r| is more than _TIE from ``bound``."""
    d = np.abs(r)
    d -= bound
    return np.abs(d, out=d) > _TIE


def _float_cells(x: np.ndarray, shortest: bool) -> np.ndarray:
    """Each float of x as json.dumps writes it (``shortest``) or as '%.17g', one padded row each."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    sig, e, proven = _float_digits(x, shortest)
    groups, zeros = _digit_table()
    # the source row: 3 zeros and the 17 digits, "-.0e", the exponent, padding
    src = np.empty((len(x), 8), np.uint32)
    src[:, 5] = np.frombuffer(b"-.0e", np.uint32)[0]
    src[:, 6] = _exponents()[np.clip(e, -400, 399) + 400]
    src[:, 7] = np.frombuffer(_PAD * 4, np.uint32)[0]
    tz = np.zeros(len(x), np.int64)
    full = np.ones(len(x), bool)  # every group right of this one is zeros
    for col in (4, 3, 2, 1):
        rest = sig // 10**4
        g = sig - rest * 10**4
        sig = rest
        src[:, col] = groups[g]
        tz += full * zeros[g]
        full &= g == 0
    src[:, 0] = groups[np.clip(sig, 0, 9999)]
    del sig, rest, g, full
    # layout key: (form * 17 + digits - 1) * 2 + negative
    form = np.where(np.abs(e) < 100, 21, 22)
    fixed = (e >= -4) & (e <= (15 if shortest else 16))
    np.copyto(form, e + 4, where=fixed)
    key = np.maximum(17 - tz, 1, out=tz)
    key -= 1
    key += 17 * form
    key *= 2
    key += np.signbit(x)
    del form, fixed, e
    pos, lens = _layouts(shortest)
    slow = np.flatnonzero(~proven)
    key[slow] = 0
    values = x[slow].tolist()
    if shortest:
        fallback = _text_cells(_NONFINITE.get(t, t) for t in map(repr, values))
    else:
        fallback = _text_cells(map("%.17g".__mod__, values))
    width = max(int(lens[key].max(initial=0)), fallback.shape[1])
    cells = np.empty((len(x), width), np.uint8)
    flat_src = src.view(np.uint8).ravel()
    for a in range(0, len(x), _GATHER_CELLS):  # the gather's index is 8 B a byte
        b = min(len(x), a + _GATHER_CELLS)
        at = pos[key[a:b], :width].astype(np.intp)
        at += np.arange(a * 32, b * 32, 32)[:, None]
        np.take(flat_src, at, out=cells[a:b], mode="clip")  # unbuffered; in range
    cells[slow] = _PAD[0]
    cells[slow, :fallback.shape[1]] = fallback
    return cells


def _int_cells(v: np.ndarray) -> np.ndarray:
    """The decimal text of each int64 of v, one padded row each.

    When v spans fewer values than it has, [lo, hi] is formatted once and
    its rows gathered: lo and hi set the width and the sign column alike.
    """
    lo, hi = (int(v.min()), int(v.max())) if v.size else (0, 0)
    if hi - lo < v.size:
        return _int_text(lo + np.arange(hi - lo + 1, dtype=np.int64))[v - lo]
    return _int_text(v)


def _int_text(v: np.ndarray) -> np.ndarray:
    groups, _ = _digit_table()
    neg = v < 0
    mag = v.astype(np.uint64)
    mag = np.where(neg, ~mag + np.uint64(1), mag)  # |v|, int64's least value included
    powers = np.array([10**k for k in range(1, 20)], np.uint64)
    nd = np.searchsorted(powers, mag, side="right") + 1
    width = int(nd.max(initial=1))
    words = -(-width // 4)
    digits = np.empty((len(v), words), np.uint32)
    for col in range(words - 1, -1, -1):
        mag, g = np.divmod(mag, np.uint64(10**4))
        digits[:, col] = groups[g]
    text = digits.view(np.uint8)[:, 4 * words - width:]
    text = np.where(np.arange(width) < (width - nd)[:, None], _PAD[0], text)
    if neg.any():
        text = np.hstack([np.where(neg, ord("-"), _PAD[0]).astype(np.uint8)[:, None], text])
    return text


def _column(col, fmt: str):
    """The column as the array its cells are formatted from, or as its cells' texts.

    ``fmt`` is "json" for json.dumps's text, or a %-format.  float64 and int64
    arrays take the vectorized formatters where the format is theirs; bools
    in JSON, and every other column, are formatted value by value.
    """
    if not isinstance(col, np.ndarray):
        kinds = set(map(type, col))
        dtype = next((t for k, t in ((int, np.int64), (float, np.float64), (bool, bool))
                      if kinds <= {k}), None)
        try:
            col = np.array(col, dtype) if dtype else col
        except OverflowError:  # an int past int64
            pass
    if isinstance(col, np.ndarray):
        kind = col.dtype.kind
        if kind == "f" and col.dtype.itemsize <= 8 and fmt in ("json", "%.17g"):
            return col.astype(np.float64, copy=False)
        if kind == "b" and fmt == "json":
            return list(map(_BOOLS.__getitem__, col.tolist()))
        if (kind == "b" or kind in "iu" and np.can_cast(col.dtype, np.int64)) \
                and fmt in ("json", "%d"):
            return col.astype(np.int64, copy=False)
        col = col.tolist()
    return list(map(json.dumps if fmt == "json" else fmt.__mod__, col))


def _body(pieces: list, columns: list, fmts: list):
    """Each row as pieces[0] + cell 0 + pieces[1] + ... + cell k + pieces[k + 1], a block at a time.

    Cell i is column i's value in ``fmts[i]`` ("json" or a %-format).  The
    cells and pieces of a block of rows are copied into the columns of one
    byte matrix, whose padding one ``translate`` drops; each block is
    yielded as the rows' UTF-8 bytes.
    """
    cols = [_column(c, f) for c, f in zip(columns, fmts)]
    rows = len(cols[0]) if cols else 0
    lits = [np.frombuffer(p.encode(), np.uint8) for p in pieces]
    # float and int columns of one format are formatted together
    groups: dict = {}
    for i, (c, f) in enumerate(zip(cols, fmts)):
        if isinstance(c, np.ndarray):
            groups.setdefault((c.dtype.kind, f), []).append(i)
    step = max(1, _BLOCK_CELLS // max(1, len(cols)))
    for a in range(0, rows, step):
        b = min(rows, a + step)
        cells = [None if isinstance(c, np.ndarray) else _text_cells(c[a:b]) for c in cols]
        for (kind, f), idx in groups.items():
            block = np.concatenate([cols[i][a:b] for i in idx])
            text = _float_cells(block, f == "json") if kind == "f" else _int_cells(block)
            for j, i in enumerate(idx):
                cells[i] = text[j * (b - a):(j + 1) * (b - a)]
        width = sum(map(len, lits)) + sum(c.shape[1] for c in cells)
        mat = np.empty((b - a, width), np.uint8)
        at = 0
        for lit, cell in zip(lits, cells + [None]):
            mat[:, at:at + len(lit)] = lit
            at += len(lit)
            if cell is not None:
                mat[:, at:at + cell.shape[1]] = cell
                at += cell.shape[1]
        text = mat.tobytes()
        del mat, cells
        text = text.translate(None, _PAD)
        yield text
        del text  # written: it goes before the next block is formatted


# -- renderers -----------------------------------------------------------------------


def _sentinels(shape):
    if isinstance(shape, dict):
        return {k: _sentinels(v) for k, v in shape.items()}
    if isinstance(shape, list):
        return [_sentinels(v) for v in shape]
    return f"\x00{shape}"


class Blocks:
    """A report's UTF-8 bytes, one block of rows at a time, formatted as they are read.

    ``write(*args)`` yields the blocks, and each pass over a Blocks formats
    them afresh, holding one block at a time.  ``encode`` joins one pass, the
    bytes ``str(blocks).encode()`` would give, and ``str`` is the report's text.
    """

    def __init__(self, write, *args):
        self._write, self._args = write, args

    def __iter__(self):
        return self._write(*self._args)

    def encode(self) -> bytes:
        return b"".join(self)

    def __str__(self) -> str:
        return self.encode().decode("utf-8", "surrogatepass")


def _json(key: str, shape, columns, **payload) -> Blocks:
    """The payload plus its rows at ``key``, as ``json.dumps(indent=2, sort_keys=True)``.

    ``shape`` is one row with each leaf replaced by the index of its column
    in ``columns``, and every row has that shape.  The row is dumped once
    with sentinel leaves, at the depth of the rows; the text between the
    sentinels is the row's literal pieces, and each sentinel's cell is its
    column's value as json.dumps writes it.  Each row starts with its
    separator, whose comma the first row drops.
    """
    head, tail = json.dumps(
        {"schema_version": SCHEMA_VERSION, **payload, key: _SLOT}, indent=2, sort_keys=True
    ).split(json.dumps(_SLOT))
    # the rows sit at depth 2: strip the one-row list's "[\n    " and "\n  ]"
    row = json.dumps([_sentinels(shape)], indent=2, sort_keys=True).replace("\n", "\n  ")[6:-4]
    parts = _LEAF.split(row)
    pieces = [",\n    " + parts[0], *parts[2:-1:2], parts[-1]]
    leaves = [columns[int(i)] for i in parts[1::2]]
    return Blocks(_json_blocks, head, tail, pieces, leaves)


def _json_blocks(head: str, tail: str, pieces: list, columns: list):
    blocks = _body(pieces, columns, ["json"] * len(columns))
    first = next(blocks, b"")
    if not first:
        yield f"{head}[]{tail}\n".encode()
        return
    yield f"{head}[".encode()
    yield memoryview(first)[1:]  # the first row's separator opens the list: its comma goes
    del first
    yield from blocks
    yield f"\n  ]{tail}\n".encode()


def _table(fmt: str, header: str | None, names, formats, columns) -> Blocks:
    """A '# ...' header line (if any), the column names, then one line per row.

    ``formats`` holds one %-format per column, such as ``%d`` or ``%.17g``.
    """
    sep = "," if fmt == "csv" else "\t"
    head = "\n".join([*([header] if header else []), sep.join(names)]) + "\n"
    return Blocks(_table_blocks, head, ["", *[sep] * (len(columns) - 1), "\n"], columns, formats)


def _table_blocks(head: str, pieces: list, columns: list, fmts: list):
    yield head.encode()
    yield from _body(pieces, columns, fmts)


def _coords(nu: int) -> list:
    return [f"x{i+1}" for i in range(nu)]


def distribution_blocks(dist, fmt: str = "csv") -> Blocks:
    """One row per support point, coordinates then mass, lexicographic order."""
    nu = dist.pmf.dim
    axes, mass = nonzero_columns(dist.pmf.weights, dist.pmf.offset)
    if fmt == "json":
        return _json("points", [*range(nu + 1)], [*axes, mass], n=dist.n, nu=nu, route=dist.route)
    return _table(fmt, f"# n={dist.n} nu={nu} route={dist.route}", _coords(nu) + ["mass"],
                  ["%d"] * nu + ["%.17g"], [*axes, mass])


def empirical_blocks(emp, fmt: str = "csv") -> Blocks:
    nu = emp.counts.ndim
    axes, counts = nonzero_columns(emp.counts, emp.offset)
    if fmt == "json":
        return _json("counts", [*range(nu + 1)], [*axes, counts],
                     n=emp.n, nu=nu, trials=emp.trials, seed=emp.seed)
    header = f"# n={emp.n} nu={nu} trials={emp.trials} seed={emp.seed}"
    return _table(fmt, header, _coords(nu) + ["count"], ["%d"] * (nu + 1), [*axes, counts])


_TERMS = ("gaussian_leading", "perturbation_correction", "edgeworth_terms", "total")


def predictions_blocks(cols: dict, n: int, nu: int, fmt: str = "csv") -> Blocks:
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


def coeffs_blocks(coeffs, fmt: str = "csv") -> Blocks:
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


def returns_blocks(f_pert, f_unpert, fmt: str = "csv") -> Blocks:
    f = np.asarray(f_pert, dtype=np.float64)
    g = np.asarray(f_unpert, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # inf - inf is nan, as for Python floats
        cols = [np.arange(1, len(f) + 1), f, g, np.abs(f - g)]
    if fmt == "json":
        return _json("rows", {"n": 0, "f": 1, "f_unperturbed": 2, "abs_diff": 3}, cols)
    return _table(fmt, "# first-return probabilities", ["n", "f", "f_unperturbed", "abs_diff"],
                  ["%d", "%.17g", "%.17g", "%.3e"], cols)


def report_blocks(rep, fmt: str = "csv") -> Blocks:
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


# -- the reports as strings ----------------------------------------------------------


def distribution_text(dist, fmt: str = "csv") -> str:
    return str(distribution_blocks(dist, fmt))


def empirical_text(emp, fmt: str = "csv") -> str:
    return str(empirical_blocks(emp, fmt))


def predictions_text(cols: dict, n: int, nu: int, fmt: str = "csv") -> str:
    return str(predictions_blocks(cols, n, nu, fmt))


def coeffs_text(coeffs, fmt: str = "csv") -> str:
    return str(coeffs_blocks(coeffs, fmt))


def returns_text(f_pert, f_unpert, fmt: str = "csv") -> str:
    return str(returns_blocks(f_pert, f_unpert, fmt))


def report_text(rep, fmt: str = "csv") -> str:
    return str(report_blocks(rep, fmt))
