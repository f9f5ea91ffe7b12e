import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lltwalk import (
    LatticePMF,
    convolve_power,
    cross_check,
    first_return_probs,
    max_abs_difference,
    perturbed_forward,
    perturbed_fourier,
    perturbed_via_representation,
    validate_walk_spec,
)
from lltwalk import exact_engine
from lltwalk.errors import CrossCheckError, ResourceLimit
from lltwalk.io_text import distribution_text
from lltwalk.walk_model import SignedLatticeFn

from conftest import direct_step, step_every_row


def test_convolve_power_lazy_n2(lazy_p):
    sq = convolve_power(lazy_p, 2)
    expect = {(-2,): 1 / 16, (-1,): 1 / 4, (0,): 3 / 8, (1,): 1 / 4, (2,): 1 / 16}
    for pt, w in expect.items():
        assert sq.value_at(pt) == pytest.approx(w, abs=1e-15)


def test_convolve_power_trivial_cases(lazy_p):
    delta = convolve_power(lazy_p, 0)
    assert delta.as_dict() == {(0,): 1.0}
    assert convolve_power(lazy_p, 1) is lazy_p


def test_convolve_power_offcenter_point_mass():
    d2 = LatticePMF.from_points(1, {2: 1})
    assert convolve_power(d2, 3).as_dict() == {(6,): 1.0}


def test_zero_steps_all_routes(lazy_pert):
    for route in ("dp", "repr", "fourier"):
        d0 = exact_engine.perturbed_distribution(lazy_pert, 0, route=route)
        assert d0.pmf.as_dict() == {(0,): 1.0}


@pytest.mark.parametrize("route", ["dp", "repr", "fourier"])
def test_negative_steps_rejected(lazy_pert, route):
    with pytest.raises(ValueError):
        exact_engine.perturbed_distribution(lazy_pert, -3, route=route)


def test_first_returns_single_step(lazy_pert):
    f, fp = first_return_probs(lazy_pert, 1)
    assert f[0] == pytest.approx(0.5) and fp[0] == pytest.approx(0.5)


@pytest.mark.parametrize("n", [2, 5, 16, 37])
def test_convolve_power_methods_agree_1d(lazy_p, n):
    a = convolve_power(lazy_p, n, method="fft")
    b = convolve_power(lazy_p, n, method="direct")
    assert max_abs_difference(a, b) < 1e-14


def test_convolve_power_methods_agree_2d(unit_cov_2d):
    a = convolve_power(unit_cov_2d.p, 9, method="fft")
    b = convolve_power(unit_cov_2d.p, 9, method="direct")
    assert max_abs_difference(a, b) < 1e-14


@pytest.mark.parametrize("points", [{2: 1}, {1: "1/2", 2: "1/2"}])
def test_convolve_power_methods_agree_off_origin_hull(points):
    # the hull of p misses the origin; the stepper's box must still hold it
    p = LatticePMF.from_points(1, points)
    a = convolve_power(p, 3, method="fft")
    b = convolve_power(p, 3, method="direct")
    assert max_abs_difference(a, b) < 1e-14


def test_forward_one_step_is_exit_law(lazy_pert):
    d = perturbed_forward(lazy_pert, 1)
    for pt, w in lazy_pert.q.points():
        assert d.value_at(pt) == pytest.approx(w, abs=1e-15)


def test_forward_two_steps_hand_values(lazy_pert):
    d = perturbed_forward(lazy_pert, 2)
    assert d.value_at([0]) == pytest.approx(0.375, abs=1e-15)
    assert d.value_at([1]) == pytest.approx(0.30, abs=1e-15)


def test_representation_two_steps_hand_values(lazy_pert):
    d = perturbed_via_representation(lazy_pert, 2)
    assert d.value_at([1]) == pytest.approx(0.30, abs=1e-14)
    # antisymmetric correction vanishes at the origin
    pn = convolve_power(lazy_pert.p, 2)
    assert d.value_at([0]) == pytest.approx(pn.value_at([0]), abs=1e-15)


def test_representation_reduces_to_power_when_unperturbed(lazy_sym):
    for n in (1, 3, 8):
        d = perturbed_via_representation(lazy_sym, n)
        pn = convolve_power(lazy_sym.p, n)
        assert max_abs_difference(d.pmf, pn) < 1e-14


@pytest.mark.parametrize("n", [1, 5, 17, 64])
def test_route_equivalence_1d(lazy_pert, n):
    _, worst = cross_check(lazy_pert, n, tol=1e-13)
    assert worst < 1e-13


@pytest.mark.parametrize("n", [2, 9, 24, 60])
def test_route_equivalence_2d(unit_cov_2d, n):
    _, worst = cross_check(unit_cov_2d, n, tol=1e-12)
    assert worst < 1e-12


def test_route_equivalence_3d(spec3d):
    _, worst = cross_check(spec3d, 6, tol=1e-12)
    assert worst < 1e-12


def test_route_equivalence_aniso_2d(aniso_2d):
    # diagonal steps, B != I, and a box cut to unequal sides
    n = 256
    dists, worst = cross_check(aniso_2d, n)
    assert worst < exact_engine.ROUTE_TOL
    for d in dists.values():
        assert d.pmf.weights.shape == (233, 211)
        assert 0.0 < d.tail_bound <= aniso_2d.nu * exact_engine.TAIL_TOL


def test_origin_identity(lazy_pert):
    # mass at the origin is never affected by the antisymmetric perturbation
    for n in (1, 7, 20, 50):
        d = perturbed_fourier(lazy_pert, n)
        pn = convolve_power(lazy_pert.p, n)
        assert d.value_at([0]) == pytest.approx(pn.value_at([0]), abs=1e-12)


def _check_nearest_neighbour_identity(spec, n):
    # last exit from the origin: for a nearest-neighbour walk with q(0) = p(0),
    # P_n(x) = p^{*n}(x) * q(sign x) / p(sign x) at every x != 0
    pn = convolve_power(spec.p, n, method="direct")
    xs = [x for x in range(-n, n + 1) if x]
    base = np.array([pn.value_at([x]) for x in xs])
    ratio = {s: float(spec.q.exact_at([s]) / spec.p.exact_at([s])) for s in (1, -1)}
    want = base * np.array([ratio[1 if x > 0 else -1] for x in xs])
    for route in exact_engine.ROUTES:
        d = exact_engine.perturbed_distribution(spec, n, route=route)
        got = np.array([d.value_at([x]) for x in xs])
        if route == "fourier":  # roundoff sets its relative error in the far tail
            assert np.abs(got - want).max() <= exact_engine.ROUTE_TOL
        else:
            tested = base >= 1e-300
            assert np.all(np.abs(got - want)[tested] <= 1e-12 * want[tested])


@pytest.mark.parametrize("n", [7, 100, 1000])
def test_nearest_neighbour_identity(lazy_pert, n):
    _check_nearest_neighbour_identity(lazy_pert, n)


@given(
    st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 50), max_denominator=50),
    st.fractions(min_value=Fraction(-49, 50), max_value=Fraction(49, 50), max_denominator=50),
    st.integers(min_value=1, max_value=80),
)
@settings(max_examples=25, deadline=None)
def test_nearest_neighbour_identity_random_spec(p0, delta_frac, n):
    # a lazy nearest-neighbour walk; delta is a nonzero fraction of p(1)
    assume(delta_frac != 0)
    p1 = (1 - p0) / 2
    delta = delta_frac * p1
    p = LatticePMF.from_points(1, {0: p0, 1: p1, -1: p1})
    q = LatticePMF.from_points(1, {0: p0, 1: p1 + delta, -1: p1 - delta})
    _check_nearest_neighbour_identity(validate_walk_spec(p, q), n)


def test_mass_conservation_and_support(lazy_pert):
    n = 30
    d = perturbed_forward(lazy_pert, n)
    assert d.pmf.total() == pytest.approx(1.0, abs=1e-10)
    lo, hi = d.pmf.box[0]
    assert lo >= -n * lazy_pert.radius and hi <= n * lazy_pert.radius
    assert np.all(d.pmf.weights >= 0)


def test_positive_drift_tilts_mass(lazy_pert):
    d = perturbed_forward(lazy_pert, 16)
    for x in range(1, 17):
        assert d.value_at([x]) >= d.value_at([-x])


def test_first_returns_hand_values(lazy_pert, lazy_sym):
    f, fp = first_return_probs(lazy_pert, 2)
    assert fp[0] == pytest.approx(0.5, abs=1e-15)    # stay put
    assert fp[1] == pytest.approx(1 / 8, abs=1e-15)  # out and back
    assert f[1] == pytest.approx(1 / 8, abs=1e-15)   # 0.3*0.25 + 0.2*0.25


def test_first_return_identity(lazy_pert, unit_cov_2d):
    f, fp = first_return_probs(lazy_pert, 50)
    assert np.abs(f - fp).max() < 1e-12
    f2, fp2 = first_return_probs(unit_cov_2d, 20)
    assert np.abs(f2 - fp2).max() < 1e-12


def test_resource_limit(lazy_pert):
    with pytest.raises(ResourceLimit):
        perturbed_forward(lazy_pert, 10**7, mem_limit=1 << 20)
    with pytest.raises(ResourceLimit):
        convolve_power(lazy_pert.p, 10**7, mem_limit=1 << 20)


@pytest.mark.parametrize("n", [6000, 8192])
def test_convolve_power_normalized_at_large_n(lazy_p, n):
    # the clamp zeroes positive and negative roundoff alike, so no mass is added
    pn = convolve_power(lazy_p, n)
    assert pn.weights.min() >= 0.0
    assert pn.value_at([0]) == pytest.approx(math.comb(2 * n, n) / 4**n, rel=1e-12)


@pytest.mark.parametrize("name, n", [("lazy_pert", 6000), ("unit_cov_2d", 256)])
def test_fourier_matches_forward_at_large_n(request, name, n):
    spec = request.getfixturevalue(name)
    dp = perturbed_forward(spec, n).pmf
    assert max_abs_difference(perturbed_fourier(spec, n).pmf, dp) < 1e-12
    assert max_abs_difference(perturbed_via_representation(spec, n).pmf, dp) < 1e-12


def test_fourier_mass_immune_to_transform_roundoff_at_zero(lazy_pert, monkeypatch):
    # the mass is the n-th power of p^(0): an FFT error of 1e-15 there would
    # move it by n * 1e-15 = 4e-12 at n = 4096, past LatticePMF's 1e-12, so
    # charfn_grid sets that sample to the exact total whatever the FFT gives
    ifftn = np.fft.ifftn
    charfn_grid, invert_charfn = exact_engine.charfn_grid, exact_engine.invert_charfn
    at_zero, masses = [], []

    def off_at_zero(x, *args, **kw):
        out = ifftn(x, *args, **kw)
        out[(0,) * out.ndim] += 1e-15 / out.size  # charfn_grid scales by m^nu, the size
        return out

    def recording_grid(f, m):
        g = charfn_grid(f, m)
        v = g.values[(0,) * g.dim]
        at_zero.append((v.real, v.imag))
        return g

    def recording_inverse(g, **kw):
        spatial = invert_charfn(g, **kw)
        masses.append(math.fsum(spatial.weights.ravel()))
        return spatial

    monkeypatch.setattr(np.fft, "ifftn", off_at_zero)
    monkeypatch.setattr(exact_engine, "charfn_grid", recording_grid)
    monkeypatch.setattr(exact_engine, "invert_charfn", recording_inverse)
    perturbed_fourier(lazy_pert, 4096)
    assert at_zero == [(1.0, 0.0), (0.0, 0.0)]  # p's and a's exact totals
    assert len(masses) == 1
    assert abs(masses[0] - 1.0) <= 1e-13


def test_fourier_rejects_complex_transform_of_p():
    # the k-sums run on the real part of p^, so an asymmetric p must not reach them
    p = LatticePMF.from_points(1, {0: "1/2", 1: "1/2"})
    a = SignedLatticeFn.from_points(1, {1: "1/10", -1: "-1/10"})
    with pytest.raises(CrossCheckError, match="imaginary"):
        exact_engine._fourier(p, a, (p,), 4, exact_engine.DEFAULT_MEM_LIMIT)


# Sizes where every axis of the box is cut at the tail box.
TAIL_CASES = [("lazy_pert", 1000), ("unit_cov_2d", 96), ("spec3d", 40)]


def _on_full_support(monkeypatch, fn):
    """fn() with the tail box off: TAIL_TOL = 0 leaves every box the full support."""
    with monkeypatch.context() as m:
        m.setattr(exact_engine, "TAIL_TOL", 0.0)
        return fn()


def _allowance(n, ref, torus):
    # Roundoff beside the bound.  The spatial routes differ from their
    # full-support runs by the dropped mass and its rounding (3.5e-18, one
    # ulp, at most in the measured cases).
    # On the torus, binary exponentiation leaves p^n up to about n ulps off,
    # and the inversion averages that with weights |p^n| whose mean is about
    # the law's largest value, so the torus routes also get n ulps of it.
    return 1e-16 + (n * np.finfo(float).eps * ref.max() if torus else 0.0)


@pytest.mark.parametrize("name, n", TAIL_CASES)
@pytest.mark.parametrize("route", exact_engine.ROUTES)
def test_route_within_tail_bound_of_full_support(request, monkeypatch, name, n, route):
    spec = request.getfixturevalue(name)
    got = exact_engine.perturbed_distribution(spec, n, route=route)
    ref = _on_full_support(monkeypatch, lambda: exact_engine.perturbed_distribution(spec, n, route=route))
    assert ref.tail_bound == 0.0
    assert 0.0 < got.tail_bound <= spec.nu * exact_engine.TAIL_TOL
    assert all(a < b for a, b in zip(got.pmf.weights.shape, ref.pmf.weights.shape))
    allowed = got.tail_bound + _allowance(n, ref.pmf.weights, route == "fourier")
    assert max_abs_difference(got.pmf, ref.pmf) <= allowed


@pytest.mark.parametrize("name, n", TAIL_CASES)
def test_first_returns_within_tail_bound_of_full_support(request, monkeypatch, name, n):
    spec = request.getfixturevalue(name)
    bound = exact_engine._box((spec.p, spec.q), n, 0, exact_engine.DEFAULT_MEM_LIMIT)[3]
    assert 0.0 < bound <= spec.nu * exact_engine.TAIL_TOL
    got = first_return_probs(spec, n)
    ref = _on_full_support(monkeypatch, lambda: first_return_probs(spec, n))
    for g, r in zip(got, ref):
        assert np.abs(g - r).max() <= bound + _allowance(n, r, False)


@pytest.mark.parametrize("name, n", TAIL_CASES)
@pytest.mark.parametrize("method", ["fft", "direct"])
def test_convolve_power_within_tail_bound_of_full_support(request, monkeypatch, name, n, method):
    p = request.getfixturevalue(name).p
    bound = exact_engine._box((p,), n, 0, exact_engine.DEFAULT_MEM_LIMIT)[3]
    assert 0.0 < bound <= p.dim * exact_engine.TAIL_TOL
    got = convolve_power(p, n, method=method)
    ref = _on_full_support(monkeypatch, lambda: convolve_power(p, n, method=method))
    assert got.weights.size < ref.weights.size
    assert max_abs_difference(got, ref) <= bound + _allowance(n, ref.weights, method == "fft")


@pytest.mark.parametrize("route", exact_engine.ROUTES)
def test_tail_bound_zero_on_full_support(lazy_pert, route):
    # at small n the tail box holds the whole support, which stays bit for bit
    d = exact_engine.perturbed_distribution(lazy_pert, 10, route=route)
    assert d.tail_bound == 0.0
    assert d.pmf.box == ((-10, 10),)


def test_walk_matches_full_box_stepping(unit_cov_2d):
    # the stepper, which steps only the window's rows, reproduces stepping
    # every row of the box with the same kernel bit for bit
    n = 12
    _, shape, org, _ = exact_engine._box((unit_cov_2d.p,), n, 24, exact_engine.DEFAULT_MEM_LIMIT)
    offs, ws = unit_cov_2d.p.support
    full = np.zeros(shape)
    full[org] = 1.0
    delta = exact_engine._delta(2)
    reach = unit_cov_2d.p.radius
    for k, cur, win in exact_engine._walk(shape, org, reach, delta, offs, ws, n):
        assert np.array_equal(cur, full)
        outside = cur.copy()
        outside[win] = 0.0
        assert not outside.any()
        full = step_every_row(full, offs, ws, reach)


@pytest.mark.parametrize("shape, org, offs", [
    ((7, 9), (3, 5), [(0, 0), (1, 0), (0, -1), (1, 1), (-2, 1), (2, 1)]),
    ((5, 6, 7), (2, 2, 4), [(0, 0, 0), (1, 1, 1), (-2, 1, 0), (1, -1, 2), (2, 0, 1), (-1, -2, -1)]),
])
def test_walk_drops_stepped_out_mass(shape, org, offs):
    # mass on the box's corners, stepped by diagonal jumps past two faces at
    # once: what leaves the box is dropped, not wrapped into another row,
    # and does not come back at the next step
    offs = np.array(offs, dtype=np.int64)
    ws = np.array([0.3, 0.1, 0.1, 0.2, 0.2, 0.1])
    corners = list(itertools.product(*((0, s - 1) for s in shape)))
    start = SignedLatticeFn.from_points(
        len(shape), {tuple(c - o for c, o in zip(x, org)): i + 1 for i, x in enumerate(corners)})
    expect = np.zeros(shape)
    for x, w in zip(corners, range(1, len(corners) + 1)):
        expect[x] = w
    reach = int(np.abs(offs).max())
    for k, cur, _ in exact_engine._walk(shape, org, reach, start, offs, ws, 2):
        assert np.abs(cur - expect).max() < 1e-15
        expect = direct_step(expect, offs, ws)


# numpy's ufunc buffers for strided operands (8192 elements each, about
# 128 KiB) and small Python objects come on top of the arrays; that memory
# does not grow with the box.
_FIXED_SLACK = 256 << 10


@pytest.mark.parametrize(
    "route", ["dp", "repr", "first_return", "direct", "fourier", "fft", "fourier_1d", "dp_3d"]
)
def test_stepper_route_memory_within_guard(unit_cov_2d, lazy_pert, spec3d, monkeypatch, route):
    n = 96
    budgets = []
    guard = exact_engine._guard_cells

    def recording_guard(shape, itemsize, mem_limit, extra=0):
        budgets.append(math.prod(shape) * itemsize + extra)
        guard(shape, itemsize, mem_limit, extra)

    monkeypatch.setattr(exact_engine, "_guard_cells", recording_guard)
    run = {
        "dp": lambda: perturbed_forward(unit_cov_2d, n),
        "repr": lambda: perturbed_via_representation(unit_cov_2d, n),
        "first_return": lambda: first_return_probs(unit_cov_2d, n),
        "direct": lambda: convolve_power(unit_cov_2d.p, n, method="direct"),
        "fourier": lambda: perturbed_fourier(unit_cov_2d, n),
        "fft": lambda: convolve_power(unit_cov_2d.p, n, method="fft"),
        # in 1-D the length-n return probabilities weigh against the grid
        "fourier_1d": lambda: perturbed_fourier(lazy_pert, 4096),
        # the stepper's halo is the largest share of the box in 3-D
        "dp_3d": lambda: perturbed_forward(spec3d, 40),
    }[route]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(budgets) == 1
    assert 0.8 * budgets[0] < peak <= budgets[0] + _FIXED_SLACK


def test_fourier_weights_clamped_nonnegative(lazy_pert):
    d = perturbed_fourier(lazy_pert, 64)
    assert d.pmf.weights.min() >= 0.0


@pytest.mark.parametrize("w, match", [
    (np.array([0.5, 0.5 + 2e-12]), "weights sum to"),
    (np.array([0.5, 0.5, -2e-14]), "negative weight -2e-14$"),
])
def test_route_law_failing_its_checks_is_a_cross_check_failure(w, match):
    # a route's wrong law is the program's fault, not the input's: exit 3, not 1
    with pytest.raises(CrossCheckError, match=match):
        exact_engine._law([0], w)


def test_route_law_zeroes_roundoff_of_either_sign():
    law = exact_engine._law([-1], np.array([-1e-17, 0.5, 1e-17, 0.5]))
    assert law.weights.tolist() == [0.0, 0.5, 0.0, 0.5]
    assert law.offset.tolist() == [-1]


@pytest.mark.xfail(strict=True, raises=CrossCheckError,
                   reason="ROADMAP item 3: the torus route's roundoff breaks its mass check")
def test_fourier_law_at_1d_n_8704(lazy_pert):
    # the first failing n of 2048, 2176, ..., 20480 on this walk (12 of the
    # 145 fail); once item 3 is mended this passes, and the strict marker
    # then fails the suite until it is removed
    assert perturbed_fourier(lazy_pert, 8704).pmf.total() == pytest.approx(1.0, abs=1e-12)


def test_export_format(lazy_pert):
    d = perturbed_forward(lazy_pert, 3)
    text = distribution_text(d, fmt="csv")
    lines = text.strip().split("\n")
    assert lines[0] == "# n=3 nu=1 route=dp"
    assert lines[1] == "x1,mass"
    xs = [int(line.split(",")[0]) for line in lines[2:]]
    assert xs == sorted(xs)
    total = sum(float(line.split(",")[1]) for line in lines[2:])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_export_json_schema(lazy_pert):
    import json

    d = perturbed_forward(lazy_pert, 3)
    payload = json.loads(distribution_text(d, fmt="json"))
    assert payload["schema_version"] == 1
    assert payload["route"] == "dp"
    assert payload["n"] == 3
