"""Characteristic functions on the torus, exact inversion, and expansion
coefficients built from moments.

Transforms are UNNORMALIZED throughout: charfn(f) samples
``sum_x f(x) exp(i lambda . x)`` on a uniform grid of ``[-pi, pi)^nu``
with an odd number of points on each axis, kept in numpy's FFT order
(lambda = 0 first) and in the half layout of ``np.fft.rfftn`` (the last
axis keeps lambda >= 0: f is real, so the rest are conjugates) from the
samples to the inversion.  Each sample sums f over its support with the
phases reduced mod the grid size in integers, and the lambda = 0 sample
is f's exact total.  With M_i points on axis i and spatial support of
width <= M_i there, the samples determine the function exactly (a
trigonometric polynomial is recovered by uniform-grid quadrature with no
error), so the round trip invert(charfn(f)) == f holds to machine
precision; the inversion is one ``np.fft.irfftn``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import GridTooSmall, NotSymmetric, OrderTooHigh
from .walk_model import (
    LatticeFn, LatticePMF, SignedLatticeFn, exact_moment, is_symmetric, moments, second_moments,
)

# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


class TorusGrid:
    """A real function's transform on the torus grid, in the half layout of ``np.fft.rfftn``.

    The grid has ``sizes[i]`` points on axis i, each size odd.  ``values[j1, ..., jnu]``
    is the sample at ``lambda_i = 2 pi j_i / sizes[i]``, with j_i read mod
    sizes[i] (numpy's FFT order: index 0 holds lambda_i = 0 and index
    sizes[i] - j the value at -j).  The last axis keeps only j = 0 .. h,
    h = (sizes[-1] - 1) / 2: the transform of a real function takes the
    conjugate value at -lambda, so that half determines the rest.  ``m``
    is the largest size.  The values are frozen.
    """

    __slots__ = ("sizes", "values")

    def __init__(self, sizes, values: np.ndarray):
        if any(s % 2 == 0 for s in sizes):
            raise GridTooSmall("grid sizes must be odd")
        if values.shape != half_shape(sizes):
            raise GridTooSmall(f"values shape {values.shape} != {half_shape(sizes)}")
        values.flags.writeable = False
        self.sizes, self.values = tuple(sizes), values

    @property
    def dim(self) -> int:
        return len(self.sizes)

    @property
    def m(self) -> int:
        return max(self.sizes)


def half_shape(sizes) -> tuple:
    """The half layout's shape on a grid of odd ``sizes``: the last axis keeps (size + 1) / 2."""
    return (*sizes[:-1], sizes[-1] // 2 + 1)


def half_pairs(shape):
    """Each +-j pair of the full grid once, on the half layout of ``shape`` (odd sizes).

    Returns (keep, left, image).  The boolean mask ``keep`` holds every
    cell with j_nu >= 1, whose mirror -j lies outside the layout, and, from
    each pair in plane j_nu = 0, which holds both its cells, the one with
    the smaller flat index: (M + 1) / 2 cells of the grid's M, the origin,
    its own mirror, among them.  ``left`` holds the flat indices of plane
    0's other cells and ``image`` those of their mirrors, which are kept.
    """
    plane = np.arange(math.prod(shape[:-1])).reshape(shape[:-1])
    mirror = np.ravel(plane[np.ix_(*[-np.arange(s) % s for s in shape[:-1]])]) * shape[-1]
    plane = np.ravel(plane) * shape[-1]
    out = mirror < plane
    keep = np.ones(shape, dtype=bool)
    keep.flat[plane[out]] = False
    return keep, plane[out], mirror[out]


@functools.lru_cache(maxsize=32)
def _unit_roots(m: int) -> np.ndarray:
    """e^{2 pi i k / m} for k = 0..m-1 (m odd), read-only and kept for the next call.

    Entries k <= (m - 1) / 2 are evaluated in np.longdouble and rounded
    once (plain float64 where that type is a double); entry m - k is the
    exact conjugate of entry k.
    """
    h = m // 2
    angle = np.arange(h + 1).astype(np.longdouble) * (8 * np.arctan(np.longdouble(1)) / m)
    roots = np.empty(m, dtype=complex)
    roots.real[:h + 1] = np.cos(angle)
    roots.imag[:h + 1] = np.sin(angle)
    roots[h + 1:] = np.conj(roots[h:0:-1])
    roots.flags.writeable = False
    return roots


def charfn_grid(f: LatticeFn, m) -> TorusGrid:
    """Sample sum_x f(x) e^{i lambda.x} on the grid of odd sizes ``m``, in the half layout.

    ``m`` is one size per axis, or one int for every axis.  Each sample is
    ``sum_y f(y) prod_i e^{2 pi i (j_i y_i mod m_i) / m_i}``: the phases are
    reduced mod m_i in integers and read from one table of unit roots per
    axis, then summed over the support one axis at a time.  No FFT of a
    padded box rounds them, so every sample is within a few ulps of sum |f|
    of its exact value.  The sample at lambda = 0 is f's exact total: a
    law's mass is the n-th power there, and an ulp off would move it by n ulps.
    Each size must be at least the support box width on its axis,
    otherwise the spatial function cannot be recovered and GridTooSmall is raised.
    """
    sizes = (m,) * f.dim if np.ndim(m) == 0 else tuple(int(s) for s in m)
    if len(sizes) != f.dim or any(s % 2 == 0 for s in sizes):
        raise GridTooSmall(f"grid sizes {sizes} must be odd, one per axis")
    widths = f.weights.shape
    if any(s < w for s, w in zip(sizes, widths)):
        raise GridTooSmall(f"grid sizes {sizes} smaller than support widths {widths}")
    vals = f.weights.astype(complex)
    for ax in reversed(range(f.dim)):
        # contract axis ax of the support box against its table of phases
        s, w = sizes[ax], widths[ax]
        j = np.arange(half_shape(sizes)[ax])
        y = np.arange(w) + int(f.offset[ax])
        table = _unit_roots(s)[np.multiply.outer(j, y) % s]
        bcast = (-1,) + (1,) * (f.dim - 1 - ax)
        out = np.zeros(vals.shape[:ax] + (len(j),) + vals.shape[ax + 1:], dtype=complex)
        term = np.empty_like(out)
        for c in range(w):
            col = vals[(slice(None),) * ax + (slice(c, c + 1),)]
            if col.any():
                out += np.multiply(col, table[:, c].reshape(bcast), out=term)
        del term
        vals = out
    vals[(0,) * f.dim] = float(f.exact_total())
    return TorusGrid(sizes=sizes, values=vals)


def charfn_peak_bytes(f: LatticeFn, sizes) -> int:
    """Bytes ``charfn_grid(f, sizes)`` holds at its peak, its output included.

    The last axis summed (axis 0) writes two complex grids, the sum and one
    product, from the partial sums over the other axes (f's width on axis
    0 times the rest of the layout), and each product's two broadcast
    operands take numpy's iterator buffers of np.getbufsize() elements.
    """
    half = half_shape(sizes)
    cells = math.prod(half)
    return 16 * (2 * cells + f.weights.shape[0] * cells // half[0] + 2 * np.getbufsize())


def invert_charfn(g: TorusGrid, offset=None, shape=None) -> SignedLatticeFn:
    """Exact inverse transform, one ``np.fft.irfftn``.

    By default the result is placed on the centered box ``[-h_i, h_i]`` per
    axis; pass ``offset``/``shape`` when the true support box is known (it
    only relabels which representative of x mod sizes[i] each cell means).
    """
    # irfftn sums v_j e^{+2 pi i j.x / m} / m^nu: the function at -x
    spatial = np.fft.irfftn(g.values, s=g.sizes, axes=tuple(range(g.dim)))
    if offset is None:
        offset, shape = [-(s // 2) for s in g.sizes], g.sizes
    off = np.asarray(offset, dtype=np.int64)
    idx = np.ix_(*[-(np.arange(s) + int(o)) % m for s, o, m in zip(shape, off, g.sizes)])
    return SignedLatticeFn(dim=g.dim, offset=off, weights=spatial[idx])


# ---------------------------------------------------------------------------
# truncated multivariate series (exact rational or float coefficients)
# ---------------------------------------------------------------------------

MultiIndex = tuple[int, ...]
Series = dict  # MultiIndex -> Fraction | float


def _series_mul(a: Series, b: Series, cap: int, deg=sum) -> Series:
    """Product truncated to grade ``deg(key) <= cap`` (total degree by default)."""
    out: Series = {}
    for ka, va in a.items():
        da = deg(ka)
        for kb, vb in b.items():
            if da + deg(kb) > cap:
                continue
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def _series_log1p(t: Series, cap: int) -> Series:
    """log(1 + t) for a series t with no constant term, truncated at cap."""
    if not t:
        return {}
    out: Series = {}
    mindeg = min(sum(key) for key in t)
    power = dict(t)
    k = 1
    while power and k * mindeg <= cap:
        sign = 1 if k % 2 == 1 else -1
        for key, v in power.items():
            out[key] = out.get(key, 0) + sign * v / k
        k += 1
        power = _series_mul(power, t, cap)
    return {key: v for key, v in out.items() if v != 0}


def _series_expm1(g: Series, cap: int, deg=sum) -> Series:
    """exp(g) - 1 for a series g with no constant term, truncated at grade cap."""
    out: Series = {}
    term = dict(g)
    k = 1
    while term and k <= cap:
        for key, v in term.items():
            out[key] = out.get(key, 0) + v
        k += 1
        term = {key: v / k for key, v in _series_mul(term, g, cap, deg).items()}
    return {key: v for key, v in out.items() if v != 0}


@dataclass(frozen=True)
class EdgeworthCoeffs:
    """Correction coefficients m_alpha (3 <= |alpha| <= L) plus covariance.

    ``m`` holds the coefficients of lambda^alpha in the re-exponentiated
    non-Gaussian factor of the characteristic function; ``log_m`` holds the
    underlying log-series coefficients (they coincide for L <= 7, where no
    coefficient products fit under the truncation).  For a symmetric law all
    odd-|alpha| entries vanish and everything is real.
    """

    L: int
    m: dict
    B: np.ndarray
    log_m: dict = field(repr=False, default_factory=dict)
    exact: bool = False

    def __post_init__(self):
        self.B.flags.writeable = False


_MAX_ORDER = 12


def edgeworth_coeffs(p: LatticePMF, L: int = 4) -> EdgeworthCoeffs:
    """Expansion coefficients from the first L moments of a symmetric law.

    The characteristic function is Taylor-expanded about 0 through exact
    moment sums, composed with the log series, and the non-Gaussian part is
    re-exponentiated; coefficients of lambda^alpha are collected.  Rational
    weights give exact rational coefficients.
    """
    if L < 3:
        raise OrderTooHigh("expansion order must be at least 3")
    if L > _MAX_ORDER:
        raise OrderTooHigh(f"expansion order {L} beyond supported {_MAX_ORDER}")
    if not is_symmetric(p):
        raise NotSymmetric("expansion coefficients require a symmetric law")
    nu = p.dim
    exact = bool(p.exact)

    # Taylor series of charfn(lambda) - 1: sum over even 2 <= |alpha| <= L of
    # (-1)^(|alpha|/2) mu_alpha / alpha! * lambda^alpha  (odd moments vanish)
    t: Series = {}
    moment = exact_moment if exact else moments
    for alpha in _multi_indices(nu, 2, L):
        if sum(alpha) % 2 == 1:
            continue
        mu = moment(p, alpha)
        if mu == 0:
            continue
        fact = math.prod(math.factorial(a) for a in alpha)
        sgn = -1 if (sum(alpha) // 2) % 2 == 1 else 1
        coef = Fraction(sgn, fact) * mu if exact else sgn * mu / fact
        t[alpha] = coef

    logs = _series_log1p(t, L)
    log_m = {k: v for k, v in logs.items() if sum(k) >= 3}
    m = {k: v for k, v in _series_expm1(log_m, L).items() if sum(k) >= 3}
    # the log series' quadratic part is -(lambda, B lambda) / 2, B p's second moments
    return EdgeworthCoeffs(L=L, m=m, B=second_moments(p), log_m=log_m, exact=exact)


def _multi_indices(nu: int, lo: int, hi: int):
    for total in range(lo, hi + 1):
        yield from _compositions(total, nu)


def _compositions(total: int, nu: int):
    if nu == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, nu - 1):
            yield (first,) + rest


def unit_frame_terms(coeffs: EdgeworthCoeffs):
    """Log-series coefficients rewritten for the unit-covariance variable.

    Returns (O, sigmas, terms) where x' = diag(1/sigmas) @ O.T @ x maps the
    walk to identity covariance and ``terms[alpha]`` is the coefficient of
    mu^alpha in the transformed log series (quadratic part excluded).
    """
    nu = coeffs.B.shape[0]
    evals, O = np.linalg.eigh(coeffs.B)
    sig = np.sqrt(evals)
    # substitute lambda = O diag(1/sig) mu into each monomial
    rows = O / sig[np.newaxis, :]  # lambda_i = sum_j rows[i, j] mu_j
    units = [tuple(int(k == j) for k in range(nu)) for j in range(nu)]
    forms = [{u: r for u, r in zip(units, row) if r != 0.0} for row in rows]
    terms: dict = {}
    for alpha, v in coeffs.log_m.items():
        expanded = {(0,) * nu: float(v)}
        for lin, a in zip(forms, alpha):
            for _ in range(a):
                expanded = _series_mul(expanded, lin, 10**9)
        for key, val in expanded.items():
            terms[key] = terms.get(key, 0.0) + val
    return O, sig, {k: v for k, v in terms.items() if v != 0.0}
