import math
from fractions import Fraction

import numpy as np
import pytest

from lltwalk import LatticePMF, charfn_grid, edgeworth_coeffs, invert_charfn, load_walk_spec
from lltwalk.errors import GridTooSmall, NotSymmetric, OrderTooHigh
from lltwalk.spectral import TorusGrid, half_pairs, half_shape, unit_frame_terms
from lltwalk.walk_model import SignedLatticeFn

from conftest import CONFIGS, VALID_CONFIGS


def lambda_axis(m: int) -> np.ndarray:
    """Grid frequencies 2*pi*j/m in FFT order: j = 0 .. (m-1)/2, then -(m-1)/2 .. -1."""
    h = (m - 1) // 2
    return 2.0 * np.pi * ((np.arange(m) + h) % m - h) / m


def test_charfn_lazy_values(lazy_p):
    # the half layout keeps j = 0 .. (m - 1) / 2
    g = charfn_grid(lazy_p, 9)
    lam = lambda_axis(9)[:5]
    assert np.allclose(g.values, 0.5 + 0.5 * np.cos(lam), atol=1e-15)
    # the function itself vanishes at the zone edge
    edge = sum(w * math.cos(math.pi * pt[0]) for pt, w in lazy_p.points())
    assert edge == pytest.approx(0.0, abs=1e-15)


def test_charfn_antisymmetric_is_imaginary():
    a = SignedLatticeFn.from_points(1, {1: 0.05, -1: -0.05})
    g = charfn_grid(a, 11)
    lam = lambda_axis(11)[:6]
    assert np.abs(g.values.real).max() < 1e-16
    assert np.allclose(g.values.imag, 0.1 * np.sin(lam), atol=1e-15)


def test_conjugate_symmetry(unit_cov_2d):
    # in FFT order the sample at -j sits at index -j mod m; plane j2 = 0 of
    # the half layout holds both, and the exact phases make them conjugates
    # bit for bit
    g = charfn_grid(unit_cov_2d.q, 15)
    neg = -np.arange(15) % 15
    assert np.array_equal(g.values[neg, 0], np.conj(g.values[:, 0]))
    # and the half layout is the FFT's full grid with its mirrors dropped
    box = np.zeros((15, 15))
    box[np.ix_(*[(np.arange(w) + o) % 15 for w, o in zip(unit_cov_2d.q.weights.shape,
                                                          unit_cov_2d.q.offset)])] = unit_cov_2d.q.weights
    full = np.fft.ifftn(box) * box.size
    assert np.abs(full[:, :8] - g.values).max() < 1e-14


def test_round_trip(lazy_p):
    g = charfn_grid(lazy_p, 5)
    back = invert_charfn(g)
    for pt, w in lazy_p.points():
        assert back.value_at(pt) == pytest.approx(w, abs=1e-13)


def test_constant_grid_inverts_to_delta():
    g = TorusGrid(sizes=(7,), values=np.ones(4, dtype=complex))
    back = invert_charfn(g)
    assert back.value_at(0) == pytest.approx(1.0, abs=1e-14)
    assert abs(back.value_at(2)) < 1e-14


def test_pointwise_square_is_convolution(lazy_p):
    g = charfn_grid(lazy_p, 5)
    sq = TorusGrid(sizes=(5,), values=g.values**2)
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
    lam = lambda_axis(m)[:m // 2 + 1]
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


# the torus route's per-axis grid sizes at a tail-box n for each dimension
SAMPLE_N = {1: 1024, 2: 128, 3: 40, 4: 12}
# measured: at most 1.27 ulps of sum |f| (lazy_pert_3d's p at n = 40); an
# FFT of the padded box was off by up to 7.7 (unit_cov_2d's a at n = 128)
SAMPLE_ULPS = 2


def longdouble_samples(f, sizes):
    """sum_y f(y) e^{2 pi i t_y(j)} in np.longdouble on the half layout, t_y(j) = sum_i (j_i y_i mod m_i) / m_i.

    The same integer-reduced phases as charfn_grid, but summed point by point
    over the support, with sine and cosine and every product in the wider type.
    """
    half = half_shape(sizes)
    js = np.meshgrid(*[np.arange(h, dtype=np.int64) for h in half], indexing="ij")
    tau = 8 * np.arctan(np.longdouble(1))
    re, im = np.zeros(half, np.longdouble), np.zeros(half, np.longdouble)
    for y, w in f.points():
        turns = sum((j * c % m).astype(np.longdouble) / m for j, c, m in zip(js, y, sizes))
        re += np.longdouble(w) * np.cos(tau * turns)
        im += np.longdouble(w) * np.sin(tau * turns)
    return re, im


@pytest.mark.parametrize("name", VALID_CONFIGS)
def test_exact_phase_samples_match_longdouble(name):
    from lltwalk.exact_engine import _box

    spec = load_walk_spec(CONFIGS / name)
    _, shape, _ = _box(spec.p, SAMPLE_N[spec.nu])
    sizes = tuple(s | 1 for s in shape)
    for f in (spec.p, spec.a):
        if not f.weights.any():
            continue  # an unperturbed walk's a
        g = charfn_grid(f, sizes)
        assert g.sizes == sizes and g.values.shape == half_shape(sizes)
        origin = (0,) * spec.nu
        assert g.values[origin] == float(f.exact_total())
        re, im = longdouble_samples(f, sizes)
        re[origin] = float(f.exact_total())
        ulp = np.finfo(float).eps * np.abs(f.weights).sum()
        assert np.abs(g.values.real - re).max() <= SAMPLE_ULPS * ulp
        assert np.abs(g.values.imag - im).max() <= SAMPLE_ULPS * ulp


def test_per_axis_sizes_round_trip(aniso_2d):
    # each axis has its own odd size, just past the support's width there
    f = aniso_2d.q
    sizes = (5, 3)
    g = charfn_grid(f, sizes)
    assert g.sizes == sizes and g.values.shape == (5, 2) and g.m == 5 and g.dim == 2
    back = invert_charfn(g, offset=f.offset, shape=f.weights.shape)
    assert np.abs(back.weights - f.weights).max() < 1e-15
    with pytest.raises(GridTooSmall):
        charfn_grid(f, (5, 1))  # narrower than the support on axis 2
    with pytest.raises(GridTooSmall):
        charfn_grid(f, (5, 4))
    with pytest.raises(GridTooSmall):
        TorusGrid(sizes=(5, 3), values=np.ones((5, 3), dtype=complex))


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_half_pairs_keep_each_pair_once(nu, data):
    sizes = tuple(data.draw(st.lists(st.integers(0, 5).map(lambda k: 2 * k + 1),
                                     min_size=nu, max_size=nu)))
    shape = half_shape(sizes)
    keep, left, image = half_pairs(shape)
    assert keep.shape == shape and keep.sum() == (math.prod(sizes) + 1) // 2
    # on the full grid, a cell or its mirror -j is kept, both only at the origin
    full = np.zeros(sizes, dtype=bool)
    full[..., :shape[-1]] = keep
    mirrored = full[np.ix_(*[-np.arange(s) % s for s in sizes])]
    assert np.all(full | mirrored)
    assert np.flatnonzero(full & mirrored).tolist() == [0]
    # the cells left out lie on plane 0, and each one's image is its mirror, kept
    assert np.array_equal(np.sort(left), np.flatnonzero(~keep))
    js = np.unravel_index(left, shape)
    assert np.all(js[-1] == 0)
    mirror = np.ravel_multi_index(tuple(-j % s for j, s in zip(js, sizes)), shape)
    assert np.array_equal(image, mirror)
    assert keep.flat[image].all()
