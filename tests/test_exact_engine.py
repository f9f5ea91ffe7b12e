import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lltwalk import (
    LatticePMF,
    convolve_power,
    cross_check,
    first_return_probs,
    load_walk_spec,
    max_abs_difference,
    perturbed_forward,
    perturbed_forward_many,
    perturbed_fourier,
    perturbed_via_representation,
    validate_walk_spec,
)
from lltwalk import _kernels, exact_engine, spectral
from lltwalk.errors import CrossCheckError, ResourceLimit
from lltwalk.io_text import distribution_text
from lltwalk.walk_model import SignedLatticeFn

from conftest import VALID_CONFIGS, config_path, direct_step, fresh_python, step_every_row, traced_guards


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


@pytest.mark.parametrize("n", [4, 8, 12])
def test_routes_and_identities_in_4d(spec4d, n):
    # the three routes, P_n(0) = p^{*n}(0) and the first-return identity in 4-D
    dists, worst = cross_check(spec4d, n)
    assert worst < exact_engine.ROUTE_TOL
    origin = convolve_power(spec4d.p, n).value_at([0] * 4)
    for d in dists.values():
        assert d.value_at([0] * 4) == pytest.approx(origin, abs=1e-12)
    f, fp = first_return_probs(spec4d, n)
    assert np.abs(f - fp).max() < 1e-12


def test_route_equivalence_aniso_2d(aniso_2d):
    # diagonal steps, B != I, and a box cut to unequal sides
    n = 256
    dists, worst = cross_check(aniso_2d, n)
    assert worst < exact_engine.ROUTE_TOL
    for d in dists.values():
        assert d.pmf.weights.shape == (233, 211)
        assert 0.0 < d.tail_bound <= aniso_2d.nu * exact_engine.TAIL_TOL


def test_route_equivalence_reach2_1d(reach2, monkeypatch):
    # steps of size 2, where p(0)'s nearest float makes p's floats sum to
    # 1 + 2^-54: the spatial routes' raw mass then read 1 + 1.1e-13 here
    n = 2048
    masses = []
    law = exact_engine._law

    def recording_law(lo, w):
        masses.append(math.fsum(w.ravel().tolist()))
        return law(lo, w)

    monkeypatch.setattr(exact_engine, "_law", recording_law)
    _, worst = cross_check(reach2, n)
    assert worst < 1e-14
    assert len(masses) == 3 and all(abs(m - 1) < 1e-14 for m in masses)


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


@pytest.mark.parametrize("name", ["lazy_pert", "lazy_sym", "reach2", "unit_cov_2d", "aniso_2d",
                                  "spec3d"])
def test_forward_snapshots_match_separate_runs(request, monkeypatch, name):
    spec = request.getfixturevalue(name)
    ns = [0, 1, 2, 48, 96] + ([192] if spec.nu == 3 else [])
    steps = []
    step = exact_engine.dp_step
    monkeypatch.setattr(exact_engine, "dp_step", lambda *args: steps.append(1) or step(*args))
    snaps = list(perturbed_forward_many(spec, ns))
    assert len(steps) == ns[-1]  # one walk serves every n
    assert len({held for _, held in snaps}) == 1
    for n, (dist, _) in zip(ns, snaps):
        ref = perturbed_forward(spec, n)
        assert (dist.n, dist.route, dist.tail_bound) == (n, "dp", ref.tail_bound)
        assert np.array_equal(dist.pmf.offset, ref.pmf.offset)
        assert dist.pmf.weights.shape == ref.pmf.weights.shape
        if ref.tail_bound == 0.0 or n == ns[-1]:
            # n's box is the full support, or the walk's own box: the same steps
            assert np.array_equal(dist.pmf.weights, ref.pmf.weights)
        else:
            # n's box is cut: the walk keeps what a run of n steps drops past it
            assert max_abs_difference(dist.pmf, ref.pmf) <= ref.tail_bound


@pytest.mark.parametrize("ns", [[4, 4], [8, 4], [-1, 4]])
def test_forward_snapshots_need_strictly_ascending_n(lazy_pert, ns):
    with pytest.raises(ValueError):
        next(perturbed_forward_many(lazy_pert, ns))


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
    # the mass is the n-th power of p^(0): an error of 1e-15 there would
    # move it by n * 1e-15 = 4e-12 at n = 4096, past LatticePMF's 1e-12, so
    # charfn_grid sets that sample to the exact total whatever its sum gives
    unit_roots = spectral._unit_roots
    charfn_grid, invert_charfn = exact_engine.charfn_grid, exact_engine.invert_charfn
    at_zero, masses = [], []

    def off_at_zero(m):
        roots = unit_roots(m).copy()
        roots[0] += 1e-15  # the phase of every term at lambda = 0
        return roots

    def recording_grid(f, m):
        g = charfn_grid(f, m)
        v = g.values[(0,) * g.dim]
        at_zero.append((v.real, v.imag))
        return g

    def recording_inverse(g, **kw):
        spatial = invert_charfn(g, **kw)
        masses.append(math.fsum(spatial.weights.ravel()))
        return spatial

    monkeypatch.setattr(spectral, "_unit_roots", off_at_zero)
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
        exact_engine._fourier(p, a, 4, exact_engine.DEFAULT_MEM_LIMIT)


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
    bound = exact_engine._box(spec.p, n)[2]
    assert 0.0 < bound <= spec.nu * exact_engine.TAIL_TOL
    got = first_return_probs(spec, n)
    ref = _on_full_support(monkeypatch, lambda: first_return_probs(spec, n))
    for g, r in zip(got, ref):
        assert np.abs(g - r).max() <= bound + _allowance(n, r, False)


@pytest.mark.parametrize("name, n", TAIL_CASES)
@pytest.mark.parametrize("method", ["fft", "direct"])
def test_convolve_power_within_tail_bound_of_full_support(request, monkeypatch, name, n, method):
    p = request.getfixturevalue(name).p
    bound = exact_engine._box(p, n)[2]
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


def test_walk_matches_full_box_stepping(unit_cov_2d, monkeypatch):
    # the stepper, which steps only the window's rows, reproduces stepping
    # every row of the box with the same kernel bit for bit
    n = 12
    p = unit_cov_2d.p
    monkeypatch.setattr(exact_engine, "_fold_axes", lambda *laws: ())  # the whole box
    st = exact_engine._Stepper((p,), exact_engine._box(p, n), exact_engine.DEFAULT_MEM_LIMIT, "dp", 24)
    offs, ws = p.support
    full = np.zeros(st.shape)
    full[st.origin] = 1.0
    for k, cur in st.walk(exact_engine._delta(2), n):
        assert np.array_equal(cur, full)
        outside = cur.copy()
        outside[tuple(slice(max(0, o - k * p.radius), o + k * p.radius + 1) for o in st.origin)] = 0.0
        assert not outside.any()
        full = step_every_row(full, offs, ws, p.radius)


@pytest.mark.parametrize("shape, org, offs", [
    ((9, 7), (4, 2), [(0, 0), (1, 0), (0, -1), (1, 1), (-2, 1), (2, 2)]),
    ((9, 7, 7), (4, 4, 2), [(0, 0, 0), (1, 1, 1), (-2, 1, 0), (1, -1, 2), (2, 0, 1), (-1, -2, -1)]),
])
def test_walk_drops_stepped_out_mass(monkeypatch, shape, org, offs):
    # mass on the box's corners, stepped by diagonal jumps past two faces at
    # once: what leaves the box is dropped, not wrapped into another row,
    # and does not come back at the next step.  The box, off centre, holds
    # two steps of the kernel, whose reach is the halo's width
    monkeypatch.setattr(exact_engine, "TAIL_TOL", 0.0)
    ws = [0.3, 0.1, 0.1, 0.2, 0.2, 0.1]
    p = LatticePMF.from_points(len(shape), {tuple(x): str(w) for x, w in zip(offs, ws)})
    st = exact_engine._Stepper((p,), exact_engine._box(p, 2), exact_engine.DEFAULT_MEM_LIMIT, "dp", 24)
    assert (st.shape, st.origin) == (shape, org)
    corners = list(itertools.product(*((0, s - 1) for s in shape)))
    start = SignedLatticeFn.from_points(
        len(shape), {tuple(c - o for c, o in zip(x, org)): i + 1 for i, x in enumerate(corners)})
    expect = np.zeros(shape)
    for x, w in zip(corners, range(1, len(corners) + 1)):
        expect[x] = w
    for k, cur in st.walk(start, 2):
        assert np.abs(cur - expect).max() < 1e-15
        expect = direct_step(expect, np.array(offs), np.array(ws))


def _unfolded(monkeypatch, fn):
    """fn() with every fold off: the stepper steps the whole tail box."""
    with monkeypatch.context() as m:
        m.setattr(exact_engine, "_fold_axes", lambda *laws: ())
        return fn()


_FOLDS = {"unit_cov_2d": (1,), "spec3d": (1, 2), "unequal_reach": (1,)}


@pytest.mark.parametrize("name, n", [
    *((name, n) for name in ("unit_cov_2d", "unequal_reach") for n in (0, 1, 2, 5, 33, 128)),
    *(("spec3d", n) for n in (0, 1, 2, 5, 24)),
])
def test_folded_routes_match_full_box_stepping(request, monkeypatch, name, n):
    # the folded stepper reads each mirror cell from its image, where the full
    # box steps it in its own order: the laws move by roundoff only, and come
    # out exactly even on every folded axis
    spec = request.getfixturevalue(name)
    folds = _FOLDS[name]
    assert exact_engine._fold_axes(spec.p, spec.q, spec.a) == folds
    for route in ("dp", "repr"):
        got = exact_engine.perturbed_distribution(spec, n, route=route)
        ref = _unfolded(monkeypatch, lambda: exact_engine.perturbed_distribution(spec, n, route=route))
        assert got.pmf.box == ref.pmf.box and got.tail_bound == ref.tail_bound
        assert np.abs(got.pmf.weights - ref.pmf.weights).max() <= 1e-16
        for ax in folds:
            assert np.array_equal(got.pmf.weights, np.flip(got.pmf.weights, ax))
    if n:
        got = first_return_probs(spec, n)
        ref = _unfolded(monkeypatch, lambda: first_return_probs(spec, n))
        for g, r in zip(got, ref):
            assert np.abs(g - r).max() <= 1e-16


def test_folded_convolve_power_matches_full_box_stepping(unit_cov_2d, monkeypatch):
    # with a = 0 the step law of unit_cov_2d is even on both axes, and both fold
    p = unit_cov_2d.p
    assert exact_engine._fold_axes(p, exact_engine.perturbation(p, p)) == (0, 1)
    got = convolve_power(p, 40, method="direct")
    ref = _unfolded(monkeypatch, lambda: convolve_power(p, 40, method="direct"))
    assert np.abs(got.weights - ref.weights).max() <= 1e-16
    assert np.array_equal(got.weights, np.flip(np.flip(got.weights, 0), 1))


@pytest.mark.parametrize("name, n", [("lazy_pert", 40), ("unit_cov_2d", 96), ("spec3d", 16),
                                     ("spec4d", 8)])
def test_odd_folded_walk_matches_full_box_stepping(request, monkeypatch, name, n):
    # repr's S walk steps a, odd on x1: its mirror cells take the negated
    # image and its x1 = 0 plane is held at exact zero, where the full box's
    # summation order leaves roundoff of up to 4.3e-20 there.  The states
    # then differ by at most 4.3e-19 (measured), on walks whose largest value is 0.05
    spec = request.getfixturevalue(name)

    def stepper():
        return exact_engine._Stepper((spec.p, spec.a), exact_engine._box(spec.p, n),
                                     exact_engine.DEFAULT_MEM_LIMIT, "repr", 32)

    st, ref = stepper(), _unfolded(monkeypatch, stepper)
    assert st.odd_axes(spec.a) == (0,) and ref.odd_axes(spec.a) == ()
    for (k, cur), (_, full) in zip(st.walk(spec.a, n), ref.walk(spec.a, n)):
        assert not cur[st.origin[0]].any()
        law = st.unfold(cur, (0,), walking=True)
        assert np.array_equal(law, -np.flip(law, 0))
        assert np.abs(law - full).max() <= 1e-18


def test_walk_rejects_a_law_neither_even_nor_odd(unit_cov_2d):
    st = exact_engine._Stepper((unit_cov_2d.p, unit_cov_2d.a), exact_engine._box(unit_cov_2d.p, 4),
                               exact_engine.DEFAULT_MEM_LIMIT, "repr", 32)
    with pytest.raises(ValueError, match="even or odd"):
        next(st.walk(unit_cov_2d.q, 4))


_CONFIG_SPECS = ["lazy_pert", "lazy_sym", "reach2", "unit_cov_2d", "aniso_2d", "spec3d", "spec4d"]


@pytest.mark.parametrize("name, n", [("lazy_pert", 1000), ("lazy_sym", 1000), ("reach2", 2048),
                                     ("unit_cov_2d", 96), ("aniso_2d", 256), ("spec3d", 40),
                                     ("spec4d", 12), ("spec4d", 32)])
def test_repr_on_its_odd_fold_matches_dp(request, name, n):
    # repr folds every axis p is even on, its S walk odd where a is; dp
    # folds only where a is even too
    spec = request.getfixturevalue(name)
    got = perturbed_via_representation(spec, n)
    ref = perturbed_forward(spec, n)
    assert got.pmf.box == ref.pmf.box
    assert max_abs_difference(got.pmf, ref.pmf) <= exact_engine.ROUTE_TOL


@pytest.mark.parametrize("name, n", [*((name, 96) for name in _CONFIG_SPECS[:5]),
                                     ("spec3d", 40), ("spec4d", 16)])
def test_first_return_horizon_is_bit_for_bit(request, monkeypatch, name, n):
    # both walks read only the origin, so the rows a step leaves past the
    # horizon change no bit of f or f'; unit_cov_2d's p walk folds x1 too
    spec = request.getfixturevalue(name)
    if name == "unit_cov_2d":
        assert exact_engine._fold_axes(spec.p) == (0, 1)
    cells = []
    step = exact_engine.dp_step
    monkeypatch.setattr(exact_engine, "dp_step", lambda *args: cells.append(args[1].size) or step(*args))
    got = first_return_probs(spec, n)
    stepped = sum(cells)
    walk = exact_engine._Stepper.walk
    monkeypatch.setattr(exact_engine._Stepper, "walk",
                        lambda self, start, steps, horizon=False: walk(self, start, steps))
    ref = first_return_probs(spec, n)
    assert stepped < sum(cells) - stepped
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)


def _tail_by_support_point(p, reach, n):
    """``_tail`` with its sums taken one support point at a time, a row each."""
    offs, ws = p.support
    log_c = math.log(2 * (2 * n + 1))
    out = []
    for x in offs.T:
        t = exact_engine._T_GRID / max(np.abs(x).max(), 1)
        up, down = np.zeros_like(t), np.zeros_like(t)
        for c, w in zip(x, ws):
            up += w * np.expm1(c * t)
            down += w * np.expm1(-c * t)
        log_phi = np.log1p(np.maximum(up, down))
        s = math.ceil(reach + ((log_c - math.log(exact_engine.TAIL_TOL) + n * log_phi) / t).min())
        out.append((s, math.exp((log_c + n * log_phi - t * (s - reach)).min())))
    return out


@pytest.mark.parametrize("name", _CONFIG_SPECS)
def test_tail_matches_a_sum_per_support_point(request, name):
    spec = request.getfixturevalue(name)
    for n in (1, 7, 64, 96, 1024, 8192, 13568):
        assert exact_engine._tail(spec.p, spec.radius, n) == _tail_by_support_point(
            spec.p, spec.radius, n)


def _multi_law_box(laws, n):
    """The tail box as built from a tuple of laws, p first: n steps of their hull, cut at p's tail."""
    m = max(n, 1)
    lo = [m * min(f.box[ax][0] for f in laws) for ax in range(laws[0].dim)]
    hi = [m * max(f.box[ax][1] for f in laws) for ax in range(laws[0].dim)]
    bound = 0.0
    for ax, (s, b) in enumerate(exact_engine._tail(laws[0], max(f.radius for f in laws), n)):
        if s < max(hi[ax], -lo[ax]):
            lo[ax], hi[ax] = max(lo[ax], -s), min(hi[ax], s)
            bound += b
    return lo, tuple(h - l + 1 for l, h in zip(lo, hi)), bound


@pytest.mark.parametrize("name", VALID_CONFIGS)
def test_box_of_p_is_the_multi_law_box(name):
    # q and a lie within p's box (|a| <= p), and p's box holds the origin,
    # so the box of p alone is each route's box of its laws and the origin
    spec = load_walk_spec(config_path(name))
    p, delta = spec.p, exact_engine._delta(spec.nu)
    for n in (0, 1, 4, 7, 8, 12, 16, 24, 64, 1024):
        for laws in [(p, spec.q), (p, spec.q, spec.a, delta), (p, spec.a, delta), (p, spec.q, delta),
                     (p, delta)]:
            assert exact_engine._box(p, n) == _multi_law_box(laws, n)
        m = max(n, 1)
        assert exact_engine._hull_box(p, n) == [(m * min(l, ql), m * max(h, qh))
                                               for (l, h), (ql, qh) in zip(p.box, spec.q.box)]


@pytest.mark.parametrize("name, n", [("unit_cov_2d", 96), ("unit_cov_2d", 256), ("aniso_2d", 128),
                                     ("spec3d", 24)])
def test_cross_check_within_its_guards(request, name, n):
    # each later route is charged the laws before it, and the comparison
    # the three laws and one difference
    spec = request.getfixturevalue(name)
    np.fft.fft  # loaded before tracing
    peak, claims = traced_guards(lambda: cross_check(spec, n))
    assert [p for p, _ in claims][-1] == "cross_check"
    assert peak <= max(b for _, b in claims) + _FIXED_SLACK


_THIRTEENTHS = {(0, 0): "1/13", **dict.fromkeys([(1, 0), (-1, 0), (0, 1), (0, -1)], "1/13"),
                **dict.fromkeys([(1, 1), (-1, -1), (1, -1), (-1, 1)], "2/13")}


@pytest.mark.parametrize("build", ["exact", "floats"])
def test_fold_axes_read_the_stepped_floats(build):
    # the law's exact weights are even on both axes, but _unit_sum puts its
    # residual on the orbit of (1, 1) and (-1, -1) alone: the floats there are
    # one ulp from those at (1, -1) and (-1, 1), so neither axis folds
    p = LatticePMF.from_points(2, _THIRTEENTHS)
    assert all(p.exact[(x, -y)] == v for (x, y), v in p.exact.items())
    w = p.weights
    assert w[0, 0] == w[2, 2] and np.nextafter(w[0, 0], 1.0) == w[0, 2]
    if build == "floats":
        p = LatticePMF(dim=2, offset=np.array([-1, -1]), weights=w.copy())
        assert np.array_equal(p.weights, w)
    assert exact_engine._fold_axes(p) == ()
    even = LatticePMF(dim=2, offset=np.array([-1, -1]), weights=np.maximum(w, np.flip(w, 1)))
    assert exact_engine._fold_axes(even) == (0, 1)


def test_unfolded_walks_step_the_full_box(aniso_2d, lazy_pert, unit_cov_2d):
    # aniso_2d's diagonal steps and every perturbed 1-D exit law are even on no axis
    for spec in (aniso_2d, lazy_pert):
        assert exact_engine._fold_axes(spec.p, spec.q, spec.a) == ()
    # a fold needs the box centred on the axis too
    shifted = LatticePMF(dim=2, offset=np.array([-3, -2]),
                         weights=np.pad(unit_cov_2d.p.weights, ((1, 0), (0, 0))))
    assert exact_engine._fold_axes(shifted) == (1,)


# Small Python objects come on top of the arrays (16 KiB at most, measured);
# that memory does not grow with the box.  numpy's iterator buffers for the
# k-sums' strided block products are larger, and the torus route's guard
# charges them.
_FIXED_SLACK = 64 << 10


@pytest.mark.parametrize(
    "route",
    ["dp", "repr", "first_return", "direct", "fourier", "fft", "fourier_1d", "fourier_1d_wide_blocks",
     "dp_3d", "repr_3d", "first_return_3d", "repr_4d", "first_return_4d", "dp_unfolded",
     "repr_unfolded", "dp_many", "dp_many_3d", "dp_many_unfolded"],
)
def test_stepper_route_memory_within_guard(unit_cov_2d, lazy_pert, spec3d, spec4d, aniso_2d,
                                           monkeypatch, route):
    n = 96
    if route == "fourier_1d_wide_blocks":
        # the k-sums' block buffers at 1 MiB each, well past the fixed slack,
        # so a buffer left out of the guard fails the bound below
        monkeypatch.setattr(_kernels, "KSUM_BLOCK_CELLS", 1 << 17)
    run = {
        "dp": lambda: perturbed_forward(unit_cov_2d, n),
        "repr": lambda: perturbed_via_representation(unit_cov_2d, n),
        "first_return": lambda: first_return_probs(unit_cov_2d, n),
        "direct": lambda: convolve_power(unit_cov_2d.p, n, method="direct"),
        "fourier": lambda: perturbed_fourier(unit_cov_2d, n),
        "fft": lambda: convolve_power(unit_cov_2d.p, n, method="fft"),
        # in 1-D the length-n return probabilities weigh against the grid
        "fourier_1d": lambda: perturbed_fourier(lazy_pert, 4096),
        "fourier_1d_wide_blocks": lambda: perturbed_fourier(lazy_pert, 4096),
        # the stepper's halo is the largest share of the box in 3-D; folded on
        # x2 and x3, the unfolded law outweighs the layout
        "dp_3d": lambda: perturbed_forward(spec3d, 40),
        "repr_3d": lambda: perturbed_via_representation(spec3d, 40),
        "first_return_3d": lambda: first_return_probs(spec3d, 40),
        # every axis folds for repr, x1 odd in its S walk
        "repr_4d": lambda: perturbed_via_representation(spec4d, 16),
        "first_return_4d": lambda: first_return_probs(spec4d, 16),
        # no fold: the layout holds the whole box
        "dp_unfolded": lambda: perturbed_forward(aniso_2d, n),
        "repr_unfolded": lambda: perturbed_via_representation(aniso_2d, n),
        # a law unfolded mid-walk beside every buffer of the walk; each law
        # goes as the next is built
        "dp_many": lambda: deque(perturbed_forward_many(unit_cov_2d, [32, n - 8, n]), 0),
        "dp_many_3d": lambda: deque(perturbed_forward_many(spec3d, [8, 36, 40]), 0),
        "dp_many_unfolded": lambda: deque(perturbed_forward_many(aniso_2d, [n - 8, n]), 0),
    }[route]
    np.fft.fft  # numpy loads its fft module (about 120 KiB) on first use, not per call
    peak, claims = traced_guards(run)
    # each n's tail scan is guarded first; the first-return walks from q and
    # from p then each build and guard their own stepper on one box, the
    # second once the first has dropped its arrays
    scans = {"dp_many": 3, "dp_many_3d": 3, "dp_many_unfolded": 2}.get(route, 1)
    assert len(claims) == scans + (2 if "first_return" in route else 1)
    budget = max(b for _, b in claims)
    assert 0.8 * budget < peak <= budget + _FIXED_SLACK


@pytest.mark.parametrize("n", [1024, 4096, 8192])
def test_fourier_1d_memory_within_guard_without_slack(lazy_pert, n):
    # the 1-D tail grid holds 473 to 1363 cells here, so numpy's iterator
    # buffers for the block products (3 x 8192 floats, 192 KiB) outweigh
    # it: left out of the guard, they put the peak up to 1.57 times past it
    np.fft.fft  # loaded before tracing, so the budget charges no load
    peak, [_, (_, budget)] = traced_guards(lambda: perturbed_fourier(lazy_pert, n))  # scan, route
    assert peak <= budget


@pytest.mark.parametrize("n", [1024, 8192])
def test_fourier_builds_one_plan_and_charges_it(lazy_pert, monkeypatch, n):
    # the guard and both k-sums read one plan; the k-sums' phase is the
    # route's largest here, so a plan 1 MiB heavier puts the guard's budget
    # up by exactly 1 MiB
    plans, laws, budgets = [], [], []
    plan_of = exact_engine.ksum_plan

    def recording_plan(z, n, extra=0):
        plan = plan_of(z, n)
        plan = plan._replace(nbytes=plan.nbytes + extra)
        plans.append(plan)
        return plan

    monkeypatch.setattr(_kernels, "ksum_plan", None)  # the k-sums build none of their own
    np.fft.fft  # loaded before both runs, so neither budget charges its load
    for extra in (0, 1 << 20):
        monkeypatch.setattr(exact_engine, "ksum_plan", lambda z, n: recording_plan(z, n, extra))
        _, [_, (_, budget)] = traced_guards(lambda: laws.append(perturbed_fourier(lazy_pert, n).pmf))
        budgets.append(budget)  # the route's, after its tail scan's
    assert all(law.total() == pytest.approx(1.0, abs=1e-12) for law in laws)
    assert len(plans) == len(budgets) == 2
    assert plans[0].blocks and plans[0].nbytes > 0
    assert budgets[1] - budgets[0] == 1 << 20


def test_fourier_guard_charges_numpy_fft_load():
    # the tests above load numpy.fft before tracing; a fresh interpreter traces
    # the route's first transform, which loads it (about 120 KiB that stay)
    proc = fresh_python(
        "import sys\n"
        "from conftest import traced_guards\n"
        "from lltwalk import exact_engine, load_walk_spec\n"
        f"spec = load_walk_spec({config_path('lazy_pert_1d.cfg')!r})\n"
        "loaded = 'numpy.fft' in sys.modules\n"
        "peak, [_, (_, budget)] = traced_guards(lambda: exact_engine.perturbed_fourier(spec, 1024))\n"
        "print(loaded, peak, budget)\n"
    )
    assert proc.returncode == 0, proc.stderr
    loaded, peak, budget = proc.stdout.split()
    assert loaded == "False" and int(peak) <= int(budget)


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


def test_fourier_law_at_1d_n_8704(lazy_pert):
    # the first failing n of 2048, 2176, ..., 20480 while the route sampled p
    # by an FFT of the padded box (mass 1 + 1.15e-12); exact phases pass it
    assert perturbed_fourier(lazy_pert, 8704).pmf.total() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.xfail(strict=True, raises=CrossCheckError,
                   reason="ROADMAP item 5: the torus route's roundoff breaks its mass check")
def test_fourier_law_at_1d_n_13568(lazy_pert):
    # the first failing n of 2048, 2176, ..., 20480 on this walk (6 of the
    # 145 fail, mass 1 + 1.08e-12); once item 5 is mended this passes, and
    # the strict marker then fails the suite until it is removed
    assert perturbed_fourier(lazy_pert, 13568).pmf.total() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name, n", [("lazy_pert", 36864), ("aniso_2d", 4096)])
def test_fourier_law_where_fft_samples_failed(request, monkeypatch, name, n):
    # with p and a sampled by an FFT of the padded box the route failed its
    # own checks here: a weight of -1.15e-14 (lazy_pert) and mass
    # 1 + 1.24e-12 (aniso_2d, whose grid was also square past its tail box)
    spec = request.getfixturevalue(name)
    sizes = []
    charfn_grid = exact_engine.charfn_grid

    def recording_grid(f, m):
        g = charfn_grid(f, m)
        sizes.append(g.sizes)
        return g

    monkeypatch.setattr(exact_engine, "charfn_grid", recording_grid)
    law = perturbed_fourier(spec, n).pmf
    assert law.total() == pytest.approx(1.0, abs=1e-12)
    assert law.weights.min() >= 0.0
    _, shape, _ = exact_engine._box(spec.p, n)
    assert sizes == [tuple(s | 1 for s in shape)] * 2  # p's samples and a's, on no wider a grid


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
