import math
from fractions import Fraction

import numpy as np
import pytest

from lltwalk import LatticePMF, charfn_grid, edgeworth_coeffs, invert_charfn
from lltwalk.errors import GridTooSmall, NotSymmetric, OrderTooHigh
from lltwalk.spectral import TorusGrid, unit_frame_terms
from lltwalk.walk_model import SignedLatticeFn


def lambda_axis(m: int) -> np.ndarray:
    """Grid frequencies 2*pi*j/m in FFT order: j = 0 .. (m-1)/2, then -(m-1)/2 .. -1."""
    h = (m - 1) // 2
    return 2.0 * np.pi * ((np.arange(m) + h) % m - h) / m


def test_charfn_lazy_values(lazy_p):
    g = charfn_grid(lazy_p, 9)
    lam = lambda_axis(9)
    assert np.allclose(g.values, 0.5 + 0.5 * np.cos(lam), atol=1e-15)
    # the function itself vanishes at the zone edge
    edge = sum(w * math.cos(math.pi * pt[0]) for pt, w in lazy_p.points())
    assert edge == pytest.approx(0.0, abs=1e-15)


def test_charfn_antisymmetric_is_imaginary():
    a = SignedLatticeFn.from_points(1, {1: 0.05, -1: -0.05})
    g = charfn_grid(a, 11)
    lam = lambda_axis(11)
    assert np.abs(g.values.real).max() < 1e-16
    assert np.allclose(g.values.imag, 0.1 * np.sin(lam), atol=1e-15)


def test_conjugate_symmetry(unit_cov_2d):
    # in FFT order the sample at -j sits at index -j mod m
    g = charfn_grid(unit_cov_2d.q, 15)
    neg = -np.arange(15) % 15
    flipped = g.values[np.ix_(neg, neg)]
    assert np.abs(flipped - np.conj(g.values)).max() < 1e-14


def test_round_trip(lazy_p):
    g = charfn_grid(lazy_p, 5)
    back = invert_charfn(g)
    for pt, w in lazy_p.points():
        assert back.value_at(pt) == pytest.approx(w, abs=1e-13)


def test_constant_grid_inverts_to_delta():
    g = TorusGrid(dim=1, m=7, values=np.ones(7, dtype=complex))
    back = invert_charfn(g)
    assert back.value_at(0) == pytest.approx(1.0, abs=1e-14)
    assert abs(back.value_at(2)) < 1e-14


def test_pointwise_square_is_convolution(lazy_p):
    g = charfn_grid(lazy_p, 5)
    sq = TorusGrid(dim=1, m=5, values=g.values**2)
    back = invert_charfn(sq)
    expect = {(-2,): 1 / 16, (-1,): 1 / 4, (0,): 3 / 8, (1,): 1 / 4, (2,): 1 / 16}
    for pt, w in expect.items():
        assert back.value_at(pt) == pytest.approx(w, abs=1e-14)


def test_grid_too_small(lazy_p):
    with pytest.raises(GridTooSmall):
        charfn_grid(lazy_p, 1)
    with pytest.raises(GridTooSmall):
        charfn_grid(lazy_p, 8)  # even


def test_edgeworth_lazy_exact(lazy_p):
    c = edgeworth_coeffs(lazy_p, 4)
    assert c.exact
    assert c.m == {(4,): Fraction(-1, 96)}
    assert c.B[0, 0] == pytest.approx(0.5, abs=1e-15)
    c6 = edgeworth_coeffs(lazy_p, 6)
    assert c6.m[(6,)] == Fraction(-1, 1440)


def test_edgeworth_float_mode(lazy_p):
    pf = LatticePMF(dim=1, offset=np.array([-1]), weights=np.array([0.25, 0.5, 0.25]))
    assert not pf.exact
    c = edgeworth_coeffs(pf, 4)
    assert not c.exact
    assert float(c.m[(4,)]) == pytest.approx(-1 / 96, abs=1e-15)


def test_edgeworth_requires_symmetry():
    p = LatticePMF.from_points(1, {0: 0.5, 1: 0.3, -1: 0.2})
    with pytest.raises(NotSymmetric):
        edgeworth_coeffs(p, 4)


def test_edgeworth_order_guards(lazy_p):
    with pytest.raises(OrderTooHigh):
        edgeworth_coeffs(lazy_p, 2)
    with pytest.raises(OrderTooHigh):
        edgeworth_coeffs(lazy_p, 40)


def test_odd_coefficients_vanish(unit_cov_2d):
    c = edgeworth_coeffs(unit_cov_2d.p, 5)
    for alpha, v in c.m.items():
        if sum(alpha) % 2 == 1:
            assert v == 0


def test_finite_difference_cumulant_oracle(lazy_p):
    """Richardson-extrapolated 4th derivative of log phat at 0 vs 24*m_4.

    log phat is evaluated as log1p(phat - 1) with phat - 1 written in the
    cancellation-free form -2 sum w sin^2(lam x / 2); otherwise the fourth
    difference loses everything to roundoff at these step sizes.
    """
    pts = list(lazy_p.points())

    def log_phat(lam: float) -> float:
        return math.log1p(-2.0 * sum(w * math.sin(lam * pt[0] / 2) ** 2 for pt, w in pts))

    def d4(h: float) -> float:
        return (
            log_phat(-2 * h) - 4 * log_phat(-h) + 6 * log_phat(0.0) - 4 * log_phat(h) + log_phat(2 * h)
        ) / h**4

    h = 1e-2
    richardson = (4 * d4(h / 2) - d4(h)) / 3.0  # stencil error is O(h^2)
    c = edgeworth_coeffs(lazy_p, 4)
    target = float(c.m[(4,)]) * math.factorial(4)
    assert richardson == pytest.approx(target, abs=1e-6)


def test_coefficient_symmetry_under_coordinate_swap(unit_cov_2d):
    c = edgeworth_coeffs(unit_cov_2d.p, 4)
    for (a1, a2), v in c.m.items():
        assert c.m.get((a2, a1), 0) == v


def test_modulus_below_one_off_zero(lazy_pert, unit_cov_2d):
    for spec, m in ((lazy_pert, 31), (unit_cov_2d, 21)):
        g = charfn_grid(spec.p, m)
        mod = np.abs(g.values)
        mask = np.ones_like(mod, dtype=bool)
        mask[(0,) * spec.nu] = False
        assert mod[mask].max() < 1.0


def test_tail_region_is_exponentially_small(lazy_p):
    # mass of |phat|^n outside a fixed neighbourhood of 0 decays geometrically
    m = 201
    g = charfn_grid(lazy_p, m)
    lam = lambda_axis(m)
    outside = np.abs(lam) > 1.0
    n = 64
    tail = np.abs(g.values[outside]) ** n
    assert tail.max() < (0.5 + 0.5 * math.cos(1.0)) ** n * 1.0001
    assert tail.mean() < 1e-7


def test_unit_frame_rotation_matches_scaling():
    # diagonal covariance: the principal-axes rotation must reduce to pure scaling
    p = LatticePMF.from_points(
        2, {(0, 0): "1/2", (1, 0): "1/8", (-1, 0): "1/8", (0, 1): "1/8", (0, -1): "1/8"}
    )
    c = edgeworth_coeffs(p, 4)
    O, sig, terms = unit_frame_terms(c)
    for alpha, v in c.log_m.items():
        scaled = float(v) * float(np.prod(sig ** (-np.array(alpha))))
        assert terms[alpha] == pytest.approx(scaled, rel=1e-12)


from hypothesis import given, settings, strategies as st


@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=7),
    st.integers(min_value=-3, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_random_functions(weights, shift):
    # any finitely supported function comes back exactly from a wide-enough grid
    if not any(weights):
        weights[0] = 1
    f = SignedLatticeFn(
        dim=1,
        offset=np.array([shift], dtype=np.int64),
        weights=np.array(weights, dtype=float),
    )
    # odd, wide enough that the centered output box covers the shifted support
    m = 2 * (abs(shift) + len(weights)) + 9
    g = charfn_grid(f, m)
    back = invert_charfn(g)
    for pt, w in f.points():
        assert back.value_at(pt) == pytest.approx(w, abs=1e-12 * max(1, max(weights)))
