"""Probabilists' Hermite and generalized Laguerre polynomials, and the
identity suite connecting them.

Conventions: Hermite polynomials are the probabilists' family (weight
``exp(-x^2/2)``, three-term recurrence ``H_{n+1} = x H_n - n H_{n-1}``);
multivariate values are per-coordinate products.  Two of the printed forms
these identities usually circulate in carry normalization slips, so the
suite pins each one against an independent numeric oracle:

* the half-line integral of ``H_{2n+1} exp(-x^2/2)`` equals ``H_{2n}(0)``
  with NO ``1/sqrt(2 pi)`` prefactor (checked by quadrature);
* the sign function expands as ``(2/sqrt(2 pi)) * sum_l H_{2l}(0)/(2l+1)!
  * H_{2l+1}``;
* the Laguerre product identity starts at p = 0;
* ``sum_l L^1_l(x)/(l(l+1))`` Abel-sums to ``psi(2) - log x`` (no half).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegreeTooLarge, NoConvergence

_MAX_HERMITE = 200
_MAX_LAGUERRE = 10**6
_ABEL_TAIL = 1e-18  # geometric tail an Abel-summed series may drop
_EXP_SERIES_TERMS = 121  # terms l = 0..120 of the exponential-expansion series


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def hermite_univariate(n: int, x):
    """H_n(x), probabilists' normalization, stable three-term recurrence."""
    if n < 0:
        raise DegreeTooLarge("degree must be nonnegative")
    h = hermite_table(n, x)[n]
    return h if h.ndim else float(h)


def hermite(alpha, x) -> float:
    """Multivariate H_alpha(x) = prod_i H_{alpha_i}(x_i)."""
    if isinstance(alpha, (int, np.integer)):
        alpha = (int(alpha),)
        x = (float(x),) if np.ndim(x) == 0 else x
    if sum(alpha) > _MAX_HERMITE:
        raise DegreeTooLarge(f"|alpha| = {sum(alpha)} beyond guard {_MAX_HERMITE}")
    return float(math.prod(hermite_univariate(a, xi) for a, xi in zip(alpha, x)))


def hermite_table(nmax: int, t: np.ndarray) -> np.ndarray:
    """H_0..H_nmax at every entry of t; shape (nmax+1,) + t.shape."""
    if nmax > _MAX_HERMITE:
        raise DegreeTooLarge(f"degree {nmax} beyond guard {_MAX_HERMITE}")
    t = np.asarray(t, dtype=float)
    out = np.empty((nmax + 1,) + t.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = t
    for k in range(1, nmax):
        out[k + 1] = t * out[k] - k * out[k - 1]
    return out


def hermite_at_zero(n: int) -> int:
    """H_n(0): zero for odd n, (-1)^m (2m)!/(2^m m!) for n = 2m (exact int)."""
    if n % 2 == 1:
        return 0
    m = n // 2
    return (-1) ** m * math.factorial(2 * m) // (2**m * math.factorial(m))


def laguerre(m: int, a: float, x):
    """Generalized Laguerre L_m^a(x) by the standard recurrence."""
    if m < 0:
        raise DegreeTooLarge("degree must be nonnegative")
    l = laguerre_table(m, a, x)[m]
    return l if l.ndim else float(l)


def laguerre_table(mmax: int, a: float, x) -> np.ndarray:
    """L_0^a..L_mmax^a at x; shape (mmax+1,) + shape(x); past the float range, inf or nan."""
    if mmax > _MAX_LAGUERRE:
        raise DegreeTooLarge(f"degree {mmax} beyond guard {_MAX_LAGUERRE}")
    x = np.asarray(x, dtype=float)
    out = np.empty((mmax + 1,) + x.shape)
    out[0] = 1.0
    if mmax >= 1:
        out[1] = 1.0 + a - x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, mmax):
            out[k + 1] = ((2 * k + 1 + a - x) * out[k] - (k + a) * out[k - 1]) / (k + 1)
    return out


def sign_expansion_partial(y: float, terms: int = 200) -> float:
    """Partial sum of the Hermite expansion of sign(y).

    Uses the normalized pair h_n = H_n/sqrt(n!) and
    g_l = (2l-1)!!/sqrt((2l+1)!) so every factor stays O(1); the plain
    product of H_{2l}(0) H_{2l+1}(y) / (2l+1)! overflows long before 200
    terms otherwise.
    """
    total = 0.0
    g = 1.0
    h_prev, h = 1.0, y  # h_0, h_1
    deg = 1
    for l in range(terms + 1):
        if l > 0:
            g *= (2 * l - 1) / math.sqrt((2 * l) * (2 * l + 1))
            for _ in range(2):
                h_prev, h = h, (y * h - math.sqrt(deg) * h_prev) / math.sqrt(deg + 1)
                deg += 1
        total += (-1) ** l * g * h
    return 2.0 / math.sqrt(2.0 * math.pi) * total


# ---------------------------------------------------------------------------
# Abel summation
# ---------------------------------------------------------------------------

def abel_sum(coefs: np.ndarray, eps: float) -> float:
    """sum_l coefs[l] (1-eps)^l (plain geometric damping)."""
    l = np.arange(len(coefs))
    return float(np.sum(coefs * (1.0 - eps) ** l))


def abel_richardson(coefs: np.ndarray, eps_list=(0.02, 0.01, 0.005), tol: float = 1e-3):
    """Abel sums at several eps, extrapolated to eps -> 0 by a quadratic fit.

    Returns (limit, spread) where spread compares the quadratic and linear
    extrapolants; raises NoConvergence when spread exceeds tol.
    """
    eps = np.asarray(eps_list, dtype=float)
    vals = np.array([abel_sum(coefs, e) for e in eps])
    quad_fit = np.linalg.solve(np.vander(eps, 3, increasing=True), vals)[0]
    lin_fit = np.linalg.solve(np.vander(eps[-2:], 2, increasing=True), vals[-2:])[0]
    spread = abs(quad_fit - lin_fit)
    if spread > tol:
        raise NoConvergence(
            f"Abel extrapolants differ by {spread:.2e} (tolerance {tol:.1e})"
        )
    return float(quad_fit), float(spread)


def _abel_cutoff(eps: float) -> int:
    """Series length so the dropped geometric tail is below _ABEL_TAIL.

    DegreeTooLarge past _MAX_LAGUERRE terms, and where eps is too small for
    the length to be a float: it is infinite at eps = 0, and past float
    range at the least eps.
    """
    terms = math.log(_ABEL_TAIL) / math.log1p(-eps) if eps > 0 else math.inf
    if not terms <= _MAX_LAGUERRE:
        raise DegreeTooLarge(f"degree {terms:.3g} beyond guard {_MAX_LAGUERRE}")
    return max(64, int(terms) + 1)


# ---------------------------------------------------------------------------
# the exponential-expansion identity
# ---------------------------------------------------------------------------

def exp_integral_series(z: float, w: float, n: int) -> float:
    """Series side of  w^{z-1} * integral_w^{w(n-1)} e^t t^{-z} dt.

    Expanding the exponential termwise:  the l = z-1 term (present only for
    integer z) contributes  w^{z-1} log(n-1) / (z-1)!  and every other term
    contributes  w^l ((n-1)^{l-z+1} - 1) / (l! (l-z+1)).  The printed form
    this is usually quoted in omits the 1/(z-1)!; the quadrature oracle in
    the test suite pins the factor.
    """
    if w <= 0 or n < 2:
        raise ValueError("need w > 0 and n >= 2")
    total = 0.0
    z_int = abs(z - round(z)) < 1e-12
    for l in range(_EXP_SERIES_TERMS):
        if z_int and l == round(z) - 1:
            total += w ** (z - 1) * math.log(n - 1) / math.gamma(z)
            continue
        total += w**l * ((n - 1) ** (l - z + 1) - 1.0) / (math.factorial(l) * (l - z + 1))
    return total


def exp_integral_quadrature(z: float, w: float, n: int) -> float:
    """Quadrature side of the same identity (independent oracle)."""
    from scipy.integrate import quad  # scipy loads on first use, not on import

    val, _ = quad(lambda t: math.exp(t) * t ** (-z), w, w * (n - 1), limit=400)
    return w ** (z - 1) * val


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

@dataclass
class IdentityCheck:
    name: str
    lhs: float
    rhs: float
    tol: float

    @property
    def abs_err(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def ok(self) -> bool:
        # a side past the float range fails, though a tolerance scaled by it is inf
        return math.isfinite(self.lhs) and math.isfinite(self.rhs) and self.abs_err <= self.tol


@dataclass
class IdentityReport:
    checks: list[IdentityCheck] = field(default_factory=list)

    def add(self, name, lhs, rhs, tol):
        self.checks.append(IdentityCheck(name, float(lhs), float(rhs), tol))

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(
                f"[{'PASS' if c.ok else 'FAIL'}] {c.name}: "
                f"lhs={c.lhs:.12g} rhs={c.rhs:.12g} |err|={c.abs_err:.3e} tol={c.tol:.1e}"
            )
        return "\n".join(lines) + "\n"


def identity_suite(x: float = 1.0, eps: float = 0.01, tol: float = 1e-3) -> IdentityReport:
    """Numerically verify the polynomial identity stack.

    ``x`` is the evaluation point of the Abel-summed series (x > 0); ``eps``
    the base Abel parameter (Richardson runs at 2*eps, eps, eps/2); ``tol``
    the acceptance gate for the Abel-summed identities.  Raises
    NoConvergence if the extrapolation itself is unstable.  A side past
    the float range, as at large x, reads inf or nan: a failing check.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    from scipy.integrate import quad  # scipy loads on first use, not on import

    rep = IdentityReport()

    # Hermite/Laguerre bridges at a few sample points
    for m in (1, 3, 7):
        for t in (0.6, 1.3, 2.2):
            lhs = hermite_univariate(2 * m, t)
            rhs = (-2.0) ** m * math.factorial(m) * laguerre(m, -0.5, t * t / 2)
            rep.add(f"bridge even m={m} t={t}", lhs, rhs, 1e-10 * max(1, abs(rhs)))
            lhs = hermite_univariate(2 * m + 1, t)
            rhs = (-2.0) ** m * math.factorial(m) * t * laguerre(m, 0.5, t * t / 2)
            rep.add(f"bridge odd m={m} t={t}", lhs, rhs, 1e-10 * max(1, abs(rhs)))

    # Laguerre product identity (summation starts at p = 0)
    for l in (3, 12, 30):
        for y in (1.0, x, 2.0 * x):
            u, v = x * x / 2, y * y / 2
            terms = [laguerre(p, -0.5, u) * laguerre(l - p, 0.5, v) for p in range(0, l + 1)]
            try:
                lhs = math.fsum(terms)
            except (ValueError, OverflowError):  # inf - inf, or a sum past the float range
                lhs = math.nan
            rhs = laguerre(l, 1.0, u + v)
            rep.add(f"product identity l={l} y={y}", lhs, rhs, 1e-10 * max(1, abs(rhs)))

    # Abel-summed series against closed forms
    eps_list = (2 * eps, eps, eps / 2)
    nterms = _abel_cutoff(min(eps_list))
    table = laguerre_table(nterms, 1.0, x)
    ell = np.arange(nterms + 1)
    inv_coefs = table / (ell + 1.0)
    limit, _ = abel_richardson(inv_coefs, eps_list, tol)
    rep.add(f"inverse series at x={x}", limit, 1.0 / x, tol)

    log_coefs = np.zeros(nterms + 1)
    log_coefs[1:] = table[1:] / (ell[1:] * (ell[1:] + 1.0))
    limit, _ = abel_richardson(log_coefs, eps_list, tol)
    # psi(2) = 1 - gamma, exactly
    rep.add(f"log series at x={x}", limit, (1.0 - np.euler_gamma) - math.log(x), tol)

    # half-line Hermite integrals against H_{2n}(0)
    for nn in range(0, 6):
        val, _ = quad(
            lambda t: hermite_univariate(2 * nn + 1, t) * math.exp(-t * t / 2),
            0.0,
            np.inf,
            limit=200,
        )
        rep.add(f"half-line integral n={nn}", val, hermite_at_zero(2 * nn), 1e-8 * max(1, abs(hermite_at_zero(2 * nn))))

    # sign-function expansion partial sums away from 0
    for y in (1.0, 1.5, -1.5):
        rep.add(
            f"sign expansion y={y} (200 terms)",
            sign_expansion_partial(y, 200),
            math.copysign(1.0, y),
            2e-2,
        )

    # exponential-expansion identity, integer and non-integer z
    for z, nn in ((0.5, 9), (1.0, 9), (2.0, 7), (3.0, 7)):
        w = 0.35
        rep.add(
            f"exp-integral expansion z={z} n={nn}",
            exp_integral_series(z, w, nn),
            exp_integral_quadrature(z, w, nn),
            1e-8 * max(1.0, abs(exp_integral_quadrature(z, w, nn))),
        )

    return rep
