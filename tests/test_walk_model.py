import itertools
import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from lltwalk import LatticePMF, edgeworth_coeffs, load_walk_spec, moments, validate_walk_spec
from lltwalk.errors import (
    LawTooLarge,
    DimensionMismatch,
    MissingUnperturbedFlag,
    NotAntisymmetric,
    NotNormalized,
    NotSymmetric,
    Periodic,
    Reducible,
)
from lltwalk.walk_model import (
    SignedLatticeFn,
    _lattice_index,
    box_values,
    common_box,
    exact_moment,
    is_antisymmetric,
    is_symmetric,
    perturbation,
    second_moments,
)

from conftest import CONFIGS


def lazy():
    return LatticePMF.from_points(1, {0: "1/2", 1: "1/4", -1: "1/4"})


def test_validate_lazy_perturbed():
    q = LatticePMF.from_points(1, {0: 0.5, 1: 0.3, -1: 0.2})
    spec = validate_walk_spec(lazy(), q)
    assert spec.sigma2 == pytest.approx(0.5, abs=1e-15)
    assert spec.d[0] == pytest.approx(0.1, abs=1e-15)
    assert spec.a.as_dict() == {(1,): 0.05, (-1,): -0.05}
    assert spec.a.exact_at(1) == Fraction(1, 20)


def test_unperturbed_needs_flag():
    with pytest.raises(MissingUnperturbedFlag):
        validate_walk_spec(lazy(), lazy())
    spec = validate_walk_spec(lazy(), lazy(), unperturbed=True)
    assert spec.d[0] == 0.0
    assert spec.a.as_dict() == {}


def test_simple_walk_is_periodic():
    p = LatticePMF.from_points(1, {1: "1/2", -1: "1/2"})
    with pytest.raises(Periodic, match="factor 2"):
        validate_walk_spec(p, p, unperturbed=True)
    p2 = LatticePMF.from_points(2, {(1, 0): "1/4", (-1, 0): "1/4", (0, 1): "1/4", (0, -1): "1/4"})
    with pytest.raises(Periodic, match="factor 2"):
        validate_walk_spec(p2, p2, unperturbed=True)


@pytest.mark.parametrize("steps", [(2, 3), (2, 5)])
def test_long_odd_return_is_aperiodic(steps):
    # 2+2+2-3-3 = 0 and 2+2+2+2-5-5+2 = 0 are odd returns past 2 nu + 2 steps
    p = LatticePMF.from_points(1, {s * x: "1/4" for x in steps for s in (1, -1)})
    spec = validate_walk_spec(p, p, unperturbed=True)
    assert spec.B[0, 0] == pytest.approx(sum(x * x for x in steps) / 2)


def test_symmetric_part_mismatch_rejected():
    q = LatticePMF.from_points(1, {1: 0.6, -1: 0.4})
    with pytest.raises(NotAntisymmetric):
        validate_walk_spec(lazy(), q)


def test_asymmetric_p_rejected():
    p = LatticePMF.from_points(1, {0: 0.5, 1: 0.3, -1: 0.2})
    with pytest.raises(NotSymmetric):
        validate_walk_spec(p, p, unperturbed=True)


def test_reducible_rejected():
    p = LatticePMF.from_points(1, {0: 0.5, 2: 0.25, -2: 0.25})
    with pytest.raises(Reducible):
        validate_walk_spec(p, p, unperturbed=True)
    # diagonal-only 2-D walk lives on the even sublattice
    p2 = LatticePMF.from_points(2, {(1, 1): 0.25, (-1, -1): 0.25, (1, -1): 0.25, (-1, 1): 0.25})
    with pytest.raises(Reducible):
        validate_walk_spec(p2, p2, unperturbed=True)


def test_dimension_mismatch():
    q = LatticePMF.from_points(2, {(0, 0): 1})
    with pytest.raises(DimensionMismatch):
        validate_walk_spec(lazy(), q)


def test_not_normalized():
    with pytest.raises(NotNormalized):
        LatticePMF.from_points(1, {0: 0.5, 1: 0.4})
    with pytest.raises(NotNormalized):
        LatticePMF.from_points(1, {0: 1.5, 1: -0.5})


def test_renormalization_tolerance():
    # drift below 1e-12 is renormalized exactly, above is rejected
    w = Fraction(1, 4) + Fraction(1, 10**14)
    pmf = LatticePMF.from_points(1, {0: Fraction(1, 2), 1: w, -1: Fraction(1, 4)})
    assert pmf.exact_total() == 1
    with pytest.raises(NotNormalized):
        LatticePMF.from_points(1, {0: Fraction(1, 2), 1: Fraction(1, 4) + Fraction(1, 10**9), -1: Fraction(1, 4)})


def test_moments_examples():
    p = lazy()
    assert moments(p, 2) == pytest.approx(0.5, abs=1e-15)
    assert moments(p, 1) == 0.0
    a = SignedLatticeFn.from_points(1, {1: 0.05, -1: -0.05})
    assert moments(a, 1) == pytest.approx(0.1, abs=1e-15)


def test_moment_linearity_and_derived_quantities():
    q = LatticePMF.from_points(1, {0: 0.5, 1: 0.3, -1: 0.2})
    p = lazy()
    spec = validate_walk_spec(p, q)
    for alpha in range(0, 5):
        lhs = moments(spec.a, alpha)
        rhs = moments(q, alpha) - moments(p, alpha)
        assert lhs == pytest.approx(rhs, abs=1e-12)
    assert float(exact_moment(spec.a, (0,))) == 0.0
    assert float(exact_moment(spec.a, (1,))) == pytest.approx(spec.d[0], abs=1e-15)


def test_immutability():
    p = lazy()
    with pytest.raises(ValueError):
        p.weights[0] = 0.7
    spec = validate_walk_spec(p, p, unperturbed=True)
    with pytest.raises(ValueError):
        spec.B[0, 0] = 2.0


@st.composite
def perturbed_pairs(draw):
    """Random symmetric p and antisymmetric perturbation respecting q >= 0."""
    k = draw(st.integers(min_value=1, max_value=3))
    w0 = draw(st.integers(min_value=1, max_value=8))
    ws = [draw(st.integers(min_value=1, max_value=8)) for _ in range(k)]
    tot = w0 + 2 * sum(ws)
    p = {0: Fraction(w0, tot)}
    for i, w in enumerate(ws, start=1):
        p[i] = p[-i] = Fraction(w, tot)
    # antisymmetric tweak on the innermost support point, small enough to keep q >= 0
    eps = Fraction(draw(st.integers(min_value=0, max_value=ws[0])), 4 * tot)
    q = dict(p)
    q[1] = p[1] + eps
    q[-1] = p[-1] - eps
    return p, q, eps


@given(perturbed_pairs())
@settings(max_examples=60, deadline=None)
def test_random_specs_satisfy_invariants(pair):
    p_pts, q_pts, eps = pair
    p = LatticePMF.from_points(1, p_pts)
    q = LatticePMF.from_points(1, q_pts)
    spec = validate_walk_spec(p, q, unperturbed=(eps == 0))
    a = spec.a
    assert is_antisymmetric(a)
    assert abs(sum(w for _, w in a.points())) < 1e-12
    assert moments(a, 1) == pytest.approx(float(2 * eps), abs=1e-12)
    assert np.all(np.linalg.eigvalsh(spec.B) > 0)


# every config but periodic_1d.cfg, which validation rejects
@pytest.mark.parametrize("name", sorted(
    path.stem for path in CONFIGS.glob("*.cfg") if path.stem != "periodic_1d"))
def test_config_step_laws_sum_to_exactly_one(name):
    # a spatial route's mass moves by (sum of p's floats)^n, so the sum is exact
    spec = load_walk_spec(CONFIGS / f"{name}.cfg")
    for law in (spec.p, spec.q):
        assert sum(map(Fraction, law.weights.ravel().tolist())) == 1


@given(perturbed_pairs())
@settings(max_examples=60, deadline=None)
def test_float_weights_sum_to_exactly_one_and_stay_symmetric(pair):
    # the rounding residual goes into whole mirror orbits; it is a few ulps
    # of the largest weight, and no weight moves by more
    p = LatticePMF.from_points(1, pair[0])
    w = p.weights
    assert sum(map(Fraction, w.tolist())) == 1
    assert np.array_equal(w, w[::-1])
    reach = -int(p.offset[0])
    nearest = np.array([float(p.exact[(x,)]) for x in range(-reach, reach + 1)])
    assert np.all(np.abs(w - nearest) <= w.size * np.spacing(w.max()))


def test_float_weights_without_a_unit_sum_rejected():
    # the floats nearest 1 - 3e-300, 1e-300 and 2e-300 sum past 1, and no
    # weight can take the residual without going negative
    tiny = Fraction(10) ** -300
    with pytest.raises(NotNormalized, match="sum to exactly 1"):
        LatticePMF.from_points(1, {0: 1 - 3 * tiny, 1: tiny, 2: 2 * tiny})


def test_perturbation_exact_arithmetic():
    p = LatticePMF.from_points(1, {0: 0.5, 1: 0.25, -1: 0.25})
    q = LatticePMF.from_points(1, {0: 0.5, 1: 0.3, -1: 0.2})
    a = perturbation(p, q)
    assert a.exact_at(1) == Fraction(1, 20)
    assert a.exact_at(-1) == -Fraction(1, 20)
    assert a.exact_total() == 0


def test_float_built_laws_get_exact_checks():
    # a law built from a weights array has no exact dict; its floats read as decimals
    skew = LatticePMF(dim=1, offset=np.array([0]), weights=np.array([0.25, 0.75]))
    assert not is_symmetric(skew)
    with pytest.raises(NotSymmetric):
        edgeworth_coeffs(skew)
    p = LatticePMF(dim=1, offset=np.array([-1]), weights=np.array([0.25, 0.5, 0.25]))
    q = LatticePMF(dim=1, offset=np.array([-1]), weights=np.array([0.2, 0.5, 0.3]))
    spec = validate_walk_spec(p, q)
    assert spec.B.tolist() == [[0.5]]
    assert spec.a.exact_at(1) == Fraction(1, 20)
    assert spec.d[0] == pytest.approx(0.1, abs=1e-15)


def test_float_built_law_exact_access():
    pmf = LatticePMF(dim=1, offset=np.array([-1]), weights=np.array([0.25, 0.5, 0.25]))
    assert pmf.exact_at(1) == Fraction(1, 4)
    assert pmf.exact_at(2) == 0
    assert pmf.exact_total() == 1


def test_float_built_law_renormalizes_its_own_array_in_place():
    # a writeable array handed in becomes the law's: divided in place, no copy;
    # a frozen one is left as it is
    w = np.array([0.25, 0.5, 0.25 + 2**-40])
    expect = w / w.sum()
    pmf = LatticePMF(dim=1, offset=np.array([-1]), weights=w)
    assert pmf.weights is w and not w.flags.writeable
    assert np.array_equal(w, expect)
    frozen = np.array([0.25, 0.5, 0.25 + 2**-40])
    frozen.flags.writeable = False
    other = LatticePMF(dim=1, offset=np.array([-1]), weights=frozen)
    assert other.weights is not frozen and np.array_equal(other.weights, expect)
    assert frozen[2] == 0.25 + 2**-40


@pytest.mark.parametrize("points, match", [
    ({0: "1e400"}, r"weight at \(0,\) is too large for a float"),
    ({-(10**11): 1, 10**11: 1}, r"support box 200000000001 has more than 16777216 cells"),
])
def test_law_past_a_float_box_is_refused(points, match):
    # refused before the dense box is allocated (1.46 TiB here)
    with pytest.raises(LawTooLarge, match=match):
        LatticePMF.from_points(1, points)


def test_second_moments_matrix(unit_cov_2d):
    p = LatticePMF.from_points(1, {0: "1/2", 1: "1/4", -1: "1/4"})
    assert second_moments(p).tolist() == [[0.5]]
    assert second_moments(unit_cov_2d.p).tolist() == [[1.0, 0.0], [0.0, 1.0]]
    skew = LatticePMF.from_points(2, {(1, 1): "1/2", (-1, -1): "1/2"})
    assert second_moments(skew).tolist() == [[1.0, 1.0], [1.0, 1.0]]


def test_support_matches_points(unit_cov_2d):
    for f in (unit_cov_2d.p, unit_cov_2d.q, unit_cov_2d.a):
        pts, ws = f.support
        assert pts.dtype == np.int64 and pts.shape == (len(ws), 2)
        assert [(tuple(pt), w) for pt, w in zip(pts.tolist(), ws.tolist())] == list(f.points())
    zero = perturbation(lazy(), lazy()).support
    assert zero[0].shape == (0, 1) and zero[1].shape == (0,)


def _box_values_by_cell(values, offset, lo, shape):
    """Each cell of the box at ``lo`` looked up in ``values`` on its own; 0 past its edge."""
    out = np.zeros(shape, dtype=values.dtype)
    for idx in itertools.product(*map(range, shape)):
        src = tuple(l + i - o for l, i, o in zip(lo, idx, offset))
        if all(0 <= c < w for c, w in zip(src, values.shape)):
            out[idx] = values[src]
    return out


# the box read on, per axis, for a source box [o, o + w): (lower corner, width)
_BOX_RELATIONS = {
    "overlaps": lambda o, w: (o - 1, w),
    "nested in": lambda o, w: (o + 1, w - 1),
    "holds": lambda o, w: (o - 2, w + 4),
    "touches above": lambda o, w: (o + w, 2),
    "touches below": lambda o, w: (o - 2, 2),
    "disjoint": lambda o, w: (o + w + 3, 3),
}


@pytest.mark.parametrize("relation", _BOX_RELATIONS)
@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_box_values_matches_per_cell_reading(dim, dtype, relation):
    rng = np.random.default_rng(dim)
    values = rng.integers(1, 100, size=(3, 4, 2)[:dim]).astype(dtype)
    offset = np.array([-1, 2, 0][:dim], dtype=np.int64)
    lo, shape = zip(*map(_BOX_RELATIONS[relation], offset, values.shape))
    got = box_values(values, offset, lo, shape)
    assert got.dtype == dtype and got.shape == shape
    assert np.array_equal(got, _box_values_by_cell(values, offset, lo, shape))
    # one axis disjoint is enough for no overlap at all
    if dim > 1:
        lo = (*lo[:-1], offset[-1] + values.shape[-1])
        assert not box_values(values, offset, lo, shape).any()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("relation", _BOX_RELATIONS)
def test_common_box_matches_per_cell_reading(dim, relation):
    rng = np.random.default_rng(dim)
    f = rng.integers(1, 100, size=(3, 4, 2)[:dim]).astype(float)
    f_off = np.array([-1, 2, 0][:dim], dtype=np.int64)
    g_off, g_shape = zip(*map(_BOX_RELATIONS[relation], f_off, f.shape))
    g = rng.integers(1, 100, size=g_shape)
    one = np.ones((1,) * dim, dtype=np.int64)  # a third box: one cell below both
    boxes = [(f, f_off), (g, np.array(g_off)), (one, f_off - 5)]
    # the least box holding every cell of every box, found cell by cell
    cells = [np.add(off, idx) for v, off in boxes for idx in itertools.product(*map(range, v.shape))]
    lo = np.min(cells, axis=0)
    shape = tuple(np.max(cells, axis=0) - lo + 1)
    got = common_box(*boxes)
    for (v, off), read in zip(boxes, got):
        assert read.dtype == v.dtype and read.shape == shape
        assert np.array_equal(read, _box_values_by_cell(v, off, lo, shape))


def _lattice_index_by_elimination(support, dim):
    """The Hermite-style integer elimination that _lattice_index replaced, kept as a reference."""
    rows = [list(pt) for pt in support if any(pt)]
    if not rows:
        return 0
    mat = [row[:] for row in rows]
    pivot_rows = []
    col = 0
    while col < dim and mat:
        nonzero = [r for r in mat if r[col] != 0]
        if not nonzero:
            return 0
        while True:
            nonzero.sort(key=lambda r: abs(r[col]))
            piv = nonzero[0]
            done = True
            for r in nonzero[1:]:
                f = r[col] // piv[col]
                for j in range(dim):
                    r[j] -= f * piv[j]
                if r[col] != 0:
                    done = False
            nonzero = [piv] + [r for r in nonzero[1:] if r[col] != 0]
            if done and len(nonzero) == 1:
                break
        pivot_rows.append(piv)
        mat = [r for r in mat if r is not piv and any(r[col:])]
        col += 1
    if len(pivot_rows) < dim:
        return 0
    return math.prod(abs(row[i]) for i, row in enumerate(pivot_rows))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_lattice_index_matches_elimination(dim):
    rng = np.random.default_rng(100 + dim)
    seen = set()
    for _ in range(400):
        support = {tuple(pt) for pt in rng.integers(-4, 5, size=(rng.integers(1, 8), dim)).tolist()}
        if rng.random() < 0.5:  # a step law's support is symmetric
            support |= {tuple(-c for c in pt) for pt in support}
        support = sorted(support)
        index = _lattice_index(support, dim)
        assert index == _lattice_index_by_elimination(support, dim), support
        # the lifted support validate_walk_spec reads the period from
        lifted = [(*pt, 1) for pt in support]
        assert _lattice_index(lifted, dim + 1) == _lattice_index_by_elimination(lifted, dim + 1)
        seen.add(min(index, 2))
    assert seen == {0, 1, 2}  # rank deficient, all of Z^dim and a sublattice all occur
