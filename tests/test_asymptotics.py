import math

import numpy as np
import pytest

from lltwalk import (
    LatticePMF,
    asymptotic_prediction,
    convolve_power,
    edgeworth_coeffs,
    llt_edgeworth,
    llt_gaussian_leading,
    perturbation_correction,
    perturbed_forward,
)
from lltwalk.asymptotics import edgeworth_factor_many, gaussian_leading_many
from lltwalk.errors import CoeffOrderMismatch, OriginUndefined, SingularCovariance


def test_gaussian_leading_examples():
    assert llt_gaussian_leading([[0.5]], 100, [0]) == pytest.approx(
        1 / math.sqrt(100 * math.pi), rel=1e-12
    )
    assert llt_gaussian_leading([[0.5]], 100, [0]) == pytest.approx(0.0564190, abs=5e-8)
    assert llt_gaussian_leading(np.eye(2), 50, [3, 0]) == pytest.approx(
        math.exp(-0.09) / (100 * math.pi), rel=1e-12
    )
    assert llt_gaussian_leading(np.eye(2), 50, [3, 0]) == pytest.approx(0.00290913, abs=5e-9)
    for nu in (1, 2, 3):
        assert llt_gaussian_leading(np.eye(nu), 7, [0] * nu) == pytest.approx(
            (2 * math.pi * 7) ** (-nu / 2), rel=1e-12
        )


def test_singular_covariance():
    with pytest.raises(SingularCovariance):
        llt_gaussian_leading([[1.0, 1.0], [1.0, 1.0]], 5, [1, 0])


def test_perturbation_correction_1d(lazy_pert):
    corr = perturbation_correction(lazy_pert, 100, [5])
    gauss = llt_gaussian_leading(lazy_pert.B, 100, [5])
    assert corr == pytest.approx(0.2 * gauss, rel=1e-14)
    assert corr == pytest.approx(0.0087878, abs=5e-7)
    assert perturbation_correction(lazy_pert, 100, [-5]) == pytest.approx(-corr, rel=1e-14)
    # sign(0) = 0: the origin receives no correction
    assert perturbation_correction(lazy_pert, 100, [0]) == 0.0


def test_perturbation_correction_2d(unit_cov_2d):
    # relative term (d.x)/(pi |x|^2); constant frozen against the exact engine
    gauss = llt_gaussian_leading(unit_cov_2d.B, 50, [3, 0])
    corr = perturbation_correction(unit_cov_2d, 50, [3, 0])
    assert corr == pytest.approx(gauss * (0.1 * 3 / 9) / math.pi, rel=1e-12)
    assert corr == pytest.approx(3.0866e-5, abs=2e-9)
    # antisymmetric in x and vanishing orthogonally to d
    assert perturbation_correction(unit_cov_2d, 50, [-3, 0]) == pytest.approx(-corr, rel=1e-12)
    assert perturbation_correction(unit_cov_2d, 50, [0, 4]) == 0.0
    with pytest.raises(OriginUndefined):
        perturbation_correction(unit_cov_2d, 50, [0, 0])


def test_perturbation_correction_3d(spec3d):
    assert perturbation_correction(spec3d, 40, [1, 2, 0]) == 0.0
    assert perturbation_correction(spec3d, 40, [0, 0, 0]) == 0.0


def test_3d_perturbation_subleading(spec3d):
    # in three dimensions the perturbation leaves no correction at the
    # n^{-3/2} scale: the scaled gap to the unperturbed law must shrink
    from lltwalk import convolve_power, max_abs_difference, perturbed_forward

    scaled = []
    for n in (8, 16, 32):
        d = perturbed_forward(spec3d, n)
        u = convolve_power(spec3d.p, n, method="direct")
        scaled.append(n**1.5 * max_abs_difference(d.pmf, u))
    assert scaled[0] > scaled[1] > scaled[2]


def test_edgeworth_value_lazy(lazy_p):
    c = edgeworth_coeffs(lazy_p, 4)
    val = llt_edgeworth(lazy_p, c, 100, [0])
    exact = math.comb(200, 100) / 4**100
    gauss = llt_gaussian_leading(c.B, 100, [0])
    # the L=4 refinement lands within O(n^-5/2) of the exact value
    assert val == pytest.approx(gauss * (1 - 1 / (8 * 100)), rel=1e-12)
    assert abs(val - exact) < 1e-7
    assert abs(val - exact) < abs(gauss - exact) / 100


def test_edgeworth_order6_captures_next_term(lazy_p):
    c6 = edgeworth_coeffs(lazy_p, 6)
    exact = math.comb(200, 100) / 4**100
    val = llt_edgeworth(lazy_p, c6, 100, [0])
    assert abs(val - exact) < 1e-9


def test_truncation_without_even_terms_is_gaussian(lazy_p):
    c3 = edgeworth_coeffs(lazy_p, 3)  # only odd orders allowed, all vanish
    assert c3.m == {}
    val = llt_edgeworth(lazy_p, c3, 64, [4])
    assert val == pytest.approx(llt_gaussian_leading(c3.B, 64, [4]), rel=1e-14)


def test_edgeworth_improves_on_gaussian(lazy_p):
    n = 64
    pn = convolve_power(lazy_p, n)
    c = edgeworth_coeffs(lazy_p, 4)
    xs = np.arange(-n, n + 1)
    X = xs[:, None].astype(float)
    gauss = gaussian_leading_many(c.B, n, X)
    edge = gauss * edgeworth_factor_many(c, n, X)
    exact = np.array([pn.value_at([x]) for x in xs])
    assert np.abs(exact - edge).max() <= np.abs(exact - gauss).max()


def test_edgeworth_nondiagonal_covariance():
    # the refined expansion must still beat the Gaussian by the order-n
    # margin, which exercises the principal-axes rotation of the coefficients
    import lltwalk

    cases = [
        # correlated steps
        ({(1, 0): "1/5", (-1, 0): "1/5", (0, 1): "1/5", (0, -1): "1/5",
          (1, 1): "1/10", (-1, -1): "1/10"}, [[0.6, 0.2], [0.2, 0.6]], 50),
        # diagonal but unequal, so the rotation swaps the axes (eigh sorts
        # the variances); this lazy walk's ratio is 17.7 at n = 24
        ({(0, 0): "1/4", (1, 0): "1/4", (-1, 0): "1/4", (0, 1): "1/8", (0, -1): "1/8"},
         [[0.5, 0.0], [0.0, 0.25]], 15),
    ]
    for points, B, floor in cases:
        p = LatticePMF.from_points(2, points)
        spec = lltwalk.validate_walk_spec(p, p, unperturbed=True)
        assert spec.B == pytest.approx(np.array(B), abs=1e-15)
        c = edgeworth_coeffs(p, 4)
        ratios = []
        for n in (24, 48):
            pn = convolve_power(p, n)
            box = pn.box
            ax = [np.arange(lo, hi + 1) for lo, hi in box]
            X = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, 2).astype(float)
            exact = pn.weights.reshape(-1)
            gauss = gaussian_leading_many(spec.B, n, X)
            edge = gauss * edgeworth_factor_many(c, n, X)
            ratios.append(np.abs(exact - gauss).max() / np.abs(exact - edge).max())
        assert ratios[0] > floor
        assert ratios[1] > 1.5 * ratios[0]  # refinement gains an extra order in n


def test_coeff_mismatch_guard(lazy_p):
    other = LatticePMF.from_points(1, {0: "1/3", 1: "1/3", -1: "1/3"})
    c = edgeworth_coeffs(other, 4)
    with pytest.raises(CoeffOrderMismatch):
        llt_edgeworth(lazy_p, c, 10, [0])


def test_within_horizon_flag(lazy_pert):
    # lazy_pert has the default order L = 4, so the horizon is 100^(3/4) ~ 31.6
    assert asymptotic_prediction(lazy_pert, 100, [20]).within_horizon
    assert not asymptotic_prediction(lazy_pert, 100, [40]).within_horizon


def test_prediction_assembly(lazy_pert, lazy_sym, lazy_p):
    pred = asymptotic_prediction(lazy_pert, 100, [5])
    assert pred.total == pytest.approx(
        pred.gaussian_leading + pred.perturbation_correction, rel=1e-15
    )
    assert pred.edgeworth_terms == 0.0
    assert pred.gaussian_leading > 0
    c = edgeworth_coeffs(lazy_p, 4)
    pred2 = asymptotic_prediction(lazy_sym, 100, [0], coeffs=c)
    assert pred2.perturbation_correction == 0.0
    assert pred2.total == pytest.approx(llt_edgeworth(lazy_p, c, 100, [0]), rel=1e-14)


def test_unperturbed_2d_origin_prediction_is_defined(unit_cov_2d, lazy_p):
    import lltwalk

    p2 = unit_cov_2d.p
    spec_sym = lltwalk.validate_walk_spec(p2, p2, unperturbed=True)
    pred = asymptotic_prediction(spec_sym, 50, [0, 0])
    assert pred.perturbation_correction == 0.0


def test_perturbed_2d_origin_prediction_has_zero_correction(unit_cov_2d):
    # the one origin rule: the singular 2-D correction is 0 at x = 0
    pred = asymptotic_prediction(unit_cov_2d, 50, [0, 0])
    assert pred.perturbation_correction == 0.0
    assert pred.total == pred.gaussian_leading


def test_prediction_mass_sums_to_one(lazy_pert):
    # correction is odd in x, so it cancels in the sum; the Gaussian sums to
    # 1 up to Poisson-summation corrections
    n = 400
    rad = int(4 * math.sqrt(lazy_pert.sigma2 * n))
    total = 0.0
    for x in range(-rad, rad + 1):
        pred = asymptotic_prediction(lazy_pert, n, [x])
        total += pred.total
    assert abs(total - 1.0) <= 0.05


def test_argmax_on_drift_side(lazy_pert):
    n = 1024
    dist = perturbed_forward(lazy_pert, n)
    xs = np.arange(-n, n + 1)
    exact_vals = np.array([dist.value_at([x]) for x in xs])
    assert xs[np.argmax(exact_vals)] >= 0
    preds = np.array([asymptotic_prediction(lazy_pert, n, [x]).total for x in xs])
    assert xs[np.argmax(preds)] >= 0
