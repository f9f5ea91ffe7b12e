"""Characteristic functions on the torus, exact inversion, and expansion
coefficients built from moments.

Transforms are UNNORMALIZED throughout: charfn(f) samples
``sum_x f(x) exp(i lambda . x)`` on a uniform odd-sized grid of
``[-pi, pi)^nu``, kept in numpy's FFT order (lambda = 0 first) from the
transform to the inversion, with the lambda = 0 sample set to f's exact
total.  With an odd grid of M points per axis and spatial support of
width <= M, the samples determine the function exactly (a trigonometric
polynomial is recovered by uniform-grid quadrature with no error), so the
round trip invert(charfn(f)) == f holds to machine precision.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class TorusGrid:
    """Samples of a lattice transform on the uniform torus grid, in FFT order.

    ``values[j1, ..., jnu]`` is the sample at ``lambda_i = 2 pi j_i / m``, with
    j_i read mod m, so index (0,)*nu holds the value at lambda = 0 and index
    m - j the value at -j.
    """

    dim: int
    m: int
    values: np.ndarray

    def __post_init__(self):
        if self.m % 2 == 0:
            raise GridTooSmall("grid size must be odd")
        if self.values.shape != (self.m,) * self.dim:
            raise GridTooSmall(
                f"values shape {self.values.shape} != {(self.m,) * self.dim}"
            )
        self.values.flags.writeable = False


def charfn_grid(f: LatticeFn, m: int) -> TorusGrid:
    """Sample sum_x f(x) e^{i lambda.x} on the m^nu grid (m odd), in FFT order.

    The sample at lambda = 0 is f's exact total: the FFT can miss it by an
    ulp, and a law's mass, the n-th power there, would then drift by n ulps.
    m must be at least the support box width on every axis, otherwise the
    spatial function cannot be recovered and GridTooSmall is raised.
    """
    if m % 2 == 0:
        raise GridTooSmall("m must be odd")
    widths = f.weights.shape
    if any(m < w for w in widths):
        raise GridTooSmall(f"m = {m} smaller than support width {max(widths)}")
    padded = np.zeros((m,) * f.dim)
    # place f(x) at index x mod m per axis
    idx = np.ix_(*[ (np.arange(w) + int(o)) % m for w, o in zip(widths, f.offset)])
    padded[idx] = f.weights
    vals = np.fft.ifftn(padded) * (m ** f.dim)  # sum_x f(x) e^{+2 pi i j.x / m}
    vals[(0,) * f.dim] = float(f.exact_total())
    return TorusGrid(dim=f.dim, m=m, values=vals)


def invert_charfn(g: TorusGrid, offset=None, shape=None) -> SignedLatticeFn:
    """Exact inverse transform.

    By default the result is placed on the centered box ``[-h, h]^nu``; pass
    ``offset``/``shape`` when the true support box is known (it only relabels
    which representative of x mod m each cell means).
    """
    m = g.m
    spatial = np.fft.fftn(g.values).real / (m ** g.dim)  # (1/m^nu) sum_j v_j e^{-2 pi i j.x/m}
    if offset is None:
        offset, shape = (-((m - 1) // 2),) * g.dim, (m,) * g.dim
    off = np.asarray(offset, dtype=np.int64)
    idx = np.ix_(*[(np.arange(s) + int(o)) % m for s, o in zip(shape, off)])
    return SignedLatticeFn(dim=g.dim, offset=off, weights=np.ascontiguousarray(spatial[idx]))


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
    terms: dict = {}
    for alpha, v in coeffs.log_m.items():
        expanded = {(0,) * nu: float(v)}
        for i, a in enumerate(alpha):
            lin = {}
            for j in range(nu):
                if rows[i, j] != 0.0:
                    key = tuple(1 if k == j else 0 for k in range(nu))
                    lin[key] = rows[i, j]
            for _ in range(a):
                expanded = _series_mul(expanded, lin, 10**9)
        for key, val in expanded.items():
            terms[key] = terms.get(key, 0.0) + val
    return O, sig, {k: v for k, v in terms.items() if v != 0.0}
