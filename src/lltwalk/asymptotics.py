"""Closed-form asymptotic predictions for the walk laws.

The leading term is the lattice Gaussian
``(2 pi n)^{-nu/2} det(B)^{-1/2} exp(-(x, B^{-1} x) / 2n)``.
For the perturbed chain the relative correction depends on the dimension:

* nu = 1:   (d / sigma^2) * sign(x)            (sign(0) := 0)
* nu = 2:   (1/pi) * det(B)^{-1/2} * (d, B^{-1} x) / (x, B^{-1} x)
* nu >= 3:  none at this order

The one-dimensional constant is the classical one; the two-dimensional
constant and sign were frozen against the exact engine (extrapolation over
n up to 4096 on a unit-covariance test walk), because printed versions of
this correction disagree with each other about the normalization.  With
B = I the relative correction reads (d.x) / (pi |x|^2).

For the unperturbed walk the Gaussian is refined by Hermite correction
terms built from the moment coefficients; orders are collected completely
in powers of n^{-1/2} (coefficient products included), which is what makes
the L = 4 truncation accurate to O(n^{-2}) relative for symmetric laws.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CoeffOrderMismatch, DimensionMismatch, OriginUndefined, SingularCovariance
from .spectral import EdgeworthCoeffs, _series_expm1, unit_frame_terms
from .special_fn import hermite_table
from .walk_model import LatticePMF, WalkSpec, second_moments


def _as_matrix(B) -> np.ndarray:
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape[0] != B.shape[1]:
        raise SingularCovariance(f"covariance must be square, got {B.shape}")
    return B


def gaussian_leading_many(B, n: int, X: np.ndarray) -> np.ndarray:
    """Vectorized lattice Gaussian over rows of X."""
    B = _as_matrix(B)
    nu = B.shape[0]
    det = float(np.linalg.det(B))
    if det <= 0 or np.linalg.eigvalsh(B).min() <= 0:
        raise SingularCovariance("covariance must be positive definite")
    Binv = np.linalg.inv(B)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != nu:
        raise DimensionMismatch(f"x has dim {X.shape[1]}, covariance has {nu}")
    quad = np.einsum("ij,jk,ik->i", X, Binv, X)
    return (2.0 * math.pi * n) ** (-nu / 2.0) / math.sqrt(det) * np.exp(-quad / (2.0 * n))


def llt_gaussian_leading(B, n: int, x) -> float:
    """Gaussian local-limit leading term at a single lattice point."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(gaussian_leading_many(B, n, x[np.newaxis, :])[0])


def perturbation_correction_many(spec: WalkSpec, n: int, X: np.ndarray) -> np.ndarray:
    """Relative correction of the perturbed chain over rows of X, vectorized.

    The additive correction is the lattice Gaussian times this factor.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if spec.nu == 1:
        return (spec.d[0] / spec.sigma2) * np.sign(X[:, 0])
    if spec.nu == 2:
        Binv = np.linalg.inv(spec.B)
        det = float(np.linalg.det(spec.B))
        num = X @ (Binv @ spec.d)
        den = np.einsum("ij,jk,ik->i", X, Binv, X)
        if np.any(den == 0):
            raise OriginUndefined("correction is singular at x = 0 in two dimensions")
        return (1.0 / math.pi) / math.sqrt(det) * num / den
    return np.zeros(X.shape[0])


def perturbation_correction(spec: WalkSpec, n: int, x) -> float:
    """Additive dimension-dependent correction at one lattice point.

    sign(0) is 0, so the origin receives no correction in one dimension
    (consistent with the exact origin identity); x = 0 raises
    OriginUndefined in two dimensions, where the reports use
    :func:`lltwalk.harness.predict` and its correction of 0.
    """
    X = np.atleast_1d(np.asarray(x, dtype=float))[np.newaxis, :]
    gauss = gaussian_leading_many(spec.B, n, X)
    return float(gauss[0] * perturbation_correction_many(spec, n, X)[0])


# ---------------------------------------------------------------------------
# Hermite-corrected expansion for the unperturbed walk
# ---------------------------------------------------------------------------

def _order_collected_terms(unit_terms: dict, L: int) -> dict:
    """exp of the non-Gaussian log part, collected by half-integer n-order.

    Returns {alpha + (j,): c}: the relative correction is
    sum c * (-1)^{|alpha|/2} H_alpha(x'/sqrt(n)) / n^{j/2} with j <= L - 2.
    A term built from log coefficients alpha_1..alpha_r carries
    j = sum (|alpha_i| - 2), so products enter at their true order instead
    of being misfiled under |alpha| - 2.
    """
    base = {alpha + (sum(alpha) - 2,): float(v) for alpha, v in unit_terms.items()}
    return _series_expm1(base, L - 2, deg=lambda key: key[-1])


def edgeworth_factor_many(coeffs: EdgeworthCoeffs, n: int, X: np.ndarray) -> np.ndarray:
    """Relative factor (1 + corrections) of the refined expansion, vectorized."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    nu = coeffs.B.shape[0]
    if X.shape[1] != nu:
        raise DimensionMismatch(f"x has dim {X.shape[1]}, coefficients have {nu}")
    O, sig, unit_terms = unit_frame_terms(coeffs)
    U = (X @ O) / sig / math.sqrt(n)
    collected = _order_collected_terms(unit_terms, coeffs.L)
    if not collected:
        return np.ones(X.shape[0])
    max_deg = max(max(key[:-1]) for key in collected)
    tables = [hermite_table(max_deg, U[:, i]) for i in range(nu)]
    factor = np.ones(X.shape[0])
    for (*alpha, j), c in sorted(collected.items()):
        herm = np.ones(X.shape[0])
        for i, a in enumerate(alpha):
            if a:
                herm = herm * tables[i][a]
        sign = -1.0 if (sum(alpha) // 2) % 2 == 1 else 1.0
        factor += c * sign * herm / float(n) ** (j / 2.0)
    return factor


def llt_edgeworth(p: LatticePMF, coeffs: EdgeworthCoeffs, n: int, x) -> float:
    """Hermite-refined local value for the unperturbed walk at one point.

    ``p`` must be the law the coefficients came from (the covariance is
    compared as a guard).  Remainder terms beyond the truncation order are
    dropped; outside |x| <= n^{1 - 1/L} the expansion stops being
    informative, which :class:`lltwalk.harness.AsymptoticPrediction` flags.
    """
    if float(np.abs(second_moments(p) - coeffs.B).max()) > 1e-12:
        raise CoeffOrderMismatch("coefficients were computed for a different law")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    gauss = llt_gaussian_leading(coeffs.B, n, x)
    factor = float(edgeworth_factor_many(coeffs, n, x[np.newaxis, :])[0])
    return gauss * factor

