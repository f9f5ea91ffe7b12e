"""Lattice distributions and validated walk specifications.

A walk is described by two finitely supported laws on Z^nu: the step law
``p`` used away from the origin and the exit law ``q`` used from the origin.
Both are stored dense over an integer bounding box (``offset`` is the lower
corner), because the exact engines downstream want contiguous arrays.

Weights are kept twice: as float64 for numerics and as exact ``Fraction``
values for the structural checks.  Numeric literals are interpreted as exact
decimals (``0.3`` means 3/10), so symmetry and antisymmetry can be verified
with no tolerance at all, which is what the model hypotheses demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    LawTooLarge,
    MissingUnperturbedFlag,
    NotAntisymmetric,
    NotNormalized,
    NotSymmetric,
    Periodic,
    Reducible,
    SingularCovariance,
)

NORMALIZATION_TOL = 1e-12
# cells of the dense box a law is built on (128 MiB of float64), checked
# before it is allocated: past it a spec's far support points would take the
# machine's memory before any route's guard runs
MAX_LAW_CELLS = 1 << 24

Point = tuple[int, ...]
WeightLike = Union[int, float, str, Fraction]


def _to_fraction(v: WeightLike) -> Fraction:
    """Exact-decimal coercion: float 0.3 becomes 3/10, not its binary value."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, np.integer)):
        return Fraction(int(v))
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, (float, np.floating)):
        return Fraction(repr(float(v)))
    raise TypeError(f"cannot interpret weight of type {type(v)!r}")


def _as_point(x, dim: int) -> Point:
    if isinstance(x, (int, np.integer)):
        pt = (int(x),)
    else:
        pt = tuple(int(c) for c in x)
    if len(pt) != dim:
        raise DimensionMismatch(f"point {pt} does not have dimension {dim}")
    return pt


def nonzero_columns(values: np.ndarray, offset) -> tuple[list[np.ndarray], np.ndarray]:
    """One int64 array per axis and the values, over the nonzero cells of a box.

    ``offset`` is the box's lower corner.  C order, which is lexicographic
    in the points.
    """
    idx = np.nonzero(values)
    return [i + int(o) for i, o in zip(idx, offset)], values[idx]


def box_values(values: np.ndarray, offset, lo, shape) -> np.ndarray:
    """The box ``values`` (lower corner ``offset``) read on the box at ``lo`` of ``shape``.

    Cells of the new box past the edge of ``values`` read 0.
    """
    out = np.zeros(shape, dtype=values.dtype)
    src, dst = [], []
    for o, w, l, s in zip(offset, values.shape, lo, shape):
        a, b = max(o, l), min(o + w, l + s)  # the overlap along this axis
        if a >= b:
            return out
        src.append(slice(a - o, b - o))
        dst.append(slice(a - l, b - l))
    out[tuple(dst)] = values[tuple(src)]
    return out


def common_box(*boxes) -> list[np.ndarray]:
    """Each ``(values, offset)`` pair read on the least box holding them all.

    Cells of the common box past the edge of a pair's box read 0.
    """
    lo = np.min([off for _, off in boxes], axis=0)
    shape = tuple(np.max([np.add(off, v.shape) for v, off in boxes], axis=0) - lo)
    return [box_values(v, off, lo, shape) for v, off in boxes]


def _dense(exact: Mapping[Point, Fraction], lo, shape) -> np.ndarray:
    """The exact weights as float64 on the box at ``lo`` of ``shape``, 0 elsewhere.

    LawTooLarge if the box has more than MAX_LAW_CELLS cells, before it is
    allocated, or if a weight is too large for a float.
    """
    if math.prod(shape) > MAX_LAW_CELLS:
        raise LawTooLarge(
            f"support box {'x'.join(map(str, shape))} has more than {MAX_LAW_CELLS} cells"
        )
    w = np.zeros(shape)
    for pt, v in exact.items():
        try:
            w[tuple(c - l for c, l in zip(pt, lo))] = float(v)
        except OverflowError:
            raise LawTooLarge(f"weight at {pt} is too large for a float") from None
    return w


def _unit_sum(exact: Mapping[Point, Fraction], lo, shape) -> np.ndarray:
    """``_dense`` of an exact law of total 1, with floats whose exact sum is 1.

    Each weight is first rounded to its nearest float.  The residual, 1 less
    the exact sum of those floats, is then folded into the weights an orbit
    at a time, the largest weight first: an orbit is a point and its mirror
    when their exact weights are equal (each takes half, so a symmetric law
    stays symmetric in floats), else the point alone.  Each orbit takes what
    of the residual its rounding keeps, with its weight still positive,
    until none is left; NotNormalized if some is left after every orbit.
    Without this, a walk's mass would grow as (sum of its floats)^n.
    """
    vals = {pt: float(v) for pt, v in exact.items()}
    res = 1 - sum(map(Fraction, vals.values()))
    for pt in sorted(exact, key=exact.__getitem__, reverse=True):
        if not res:
            break
        mirror = tuple(-c for c in pt)
        orbit = {pt, mirror} if exact.get(mirror) == exact[pt] else {pt}
        if min(orbit) != pt:
            continue  # the orbit is taken once, at its least point
        new = float(Fraction(vals[pt]) + res / len(orbit))
        if new > 0:
            res -= len(orbit) * (Fraction(new) - Fraction(vals[pt]))
            vals.update(dict.fromkeys(orbit, new))
    if res:
        raise NotNormalized(
            f"no float weights near the law's sum to exactly 1 (residual {float(res)!r})"
        )
    return _dense(vals, lo, shape)


@dataclass(frozen=True)
class LatticeFn:
    """Dense real-valued function on an integer box (base for pmfs)."""

    dim: int
    offset: np.ndarray          # int64, shape (dim,): lower corner of the box
    weights: np.ndarray         # float64, shape = box shape
    exact: dict[Point, Fraction] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch("dimension must be >= 1")
        off = np.asarray(self.offset, dtype=np.int64)
        w = np.asarray(self.weights, dtype=np.float64)
        if off.shape != (self.dim,) or w.ndim != self.dim or w.size == 0:
            raise DimensionMismatch("offset/weights shape inconsistent with dim")
        off.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "weights", w)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_points(cls, dim: int, points: Mapping) -> "LatticeFn":
        """Build from a {point: weight} mapping; weights read as exact decimals."""
        exact = {}
        for x, v in points.items():
            pt = _as_point(x, dim)
            exact[pt] = exact.get(pt, Fraction(0)) + _to_fraction(v)
        exact = {pt: v for pt, v in exact.items() if v != 0}
        if not exact:
            exact = {(0,) * dim: Fraction(0)}
        lo = [min(pt[i] for pt in exact) for i in range(dim)]
        shape = tuple(max(pt[i] for pt in exact) - lo[i] + 1 for i in range(dim))
        return cls(dim=dim, offset=np.array(lo, dtype=np.int64),
                   weights=_dense(exact, lo, shape), exact=exact)

    # -- access ------------------------------------------------------------

    def points(self) -> Iterator[tuple[Point, float]]:
        """Iterate (point, weight) over nonzero entries, lexicographic order."""
        axes, vals = nonzero_columns(self.weights, self.offset)
        return zip(zip(*(a.tolist() for a in axes)), vals.tolist())

    def value_at(self, x) -> float:
        pt = _as_point(x, self.dim)
        idx = tuple(c - int(o) for c, o in zip(pt, self.offset))
        if any(i < 0 or i >= s for i, s in zip(idx, self.weights.shape)):
            return 0.0
        return float(self.weights[idx])

    def exact_at(self, x) -> Fraction:
        return exact_weights(self).get(_as_point(x, self.dim), Fraction(0))

    def as_dict(self) -> dict[Point, float]:
        return dict(self.points())

    @property
    def box(self) -> tuple[tuple[int, int], ...]:
        """Per-axis (lo, hi) inclusive bounds."""
        return tuple(
            (int(o), int(o) + s - 1) for o, s in zip(self.offset, self.weights.shape)
        )

    @property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(points, weights) over the nonzero cells, in :meth:`points` order.

        ``points`` is an int64 array of shape (k, dim), one row per cell.
        """
        idx = np.nonzero(self.weights)
        return np.stack(idx, axis=1) + self.offset, self.weights[idx]

    @property
    def radius(self) -> int:
        """Max sup-norm of any support point (jump radius)."""
        return int(np.abs(self.support[0]).max(initial=0))

    def total(self) -> float:
        return float(self.weights.sum())

    def exact_total(self) -> Fraction:
        return sum(exact_weights(self).values(), Fraction(0))


@dataclass(frozen=True)
class LatticePMF(LatticeFn):
    """Finitely supported probability mass function on Z^dim.

    All weights nonnegative and summing to 1.  Inputs whose float sum is
    within 1e-12 of 1 are renormalized exactly; anything further off is
    rejected rather than silently fixed.  A law with exact weights gets
    float weights whose exact sum is 1 (see ``_unit_sum``).  A writeable
    float64 array handed in as ``weights`` becomes the law's own: it is
    frozen, and renormalized in place, so the law holds no second copy.
    """

    def __post_init__(self):
        w = self.weights
        own = isinstance(w, np.ndarray) and w.dtype == np.float64 and w.flags.writeable
        super().__post_init__()
        if np.any(self.weights < 0):
            raise NotNormalized("probability weights must be nonnegative")
        tot = self.exact_total() if self.exact else Fraction(repr(self.total()))
        if tot <= 0:
            raise NotNormalized("probability weights sum to zero")
        mass = float(tot) if tot < 2**1000 else math.inf  # a sum past float range
        if abs(mass - 1.0) > NORMALIZATION_TOL:
            raise NotNormalized(
                f"weights sum to {mass!r}, more than {NORMALIZATION_TOL} from 1"
            )
        if self.exact:
            exact = self.exact if tot == 1 else {pt: v / tot for pt, v in self.exact.items()}
            w = _unit_sum(exact, self.offset.tolist(), self.weights.shape)
        elif tot != 1:
            exact = {}
            w = self.weights
            if own:
                w.flags.writeable = True
                w /= float(tot)
            else:
                w = w / float(tot)
        else:
            return
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "exact", exact)


@dataclass(frozen=True)
class SignedLatticeFn(LatticeFn):
    """Like LatticePMF but weights may be negative (houses q - p)."""


def exact_weights(f: LatticeFn) -> dict[Point, Fraction]:
    """The exact weights of f; a law built from float weights reads them as decimals."""
    return f.exact or {pt: _to_fraction(v) for pt, v in f.points()}


def _mirrors(f: LatticeFn, sign: int) -> bool:
    """f(-x) == sign * f(x) for every x, checked exactly on the support."""
    w = exact_weights(f)
    return all(w.get(tuple(-c for c in pt), 0) == sign * v for pt, v in w.items())


def is_symmetric(f: LatticeFn) -> bool:
    """f(x) == f(-x) for every x, checked exactly on the support."""
    return _mirrors(f, 1)


def is_antisymmetric(f: LatticeFn) -> bool:
    """f(x) == -f(-x) for every x, checked exactly on the support."""
    return _mirrors(f, -1)


def moments(f: LatticeFn, alpha) -> float:
    """Mixed moment sum_x x^alpha f(x) for a multi-index alpha (finite sum)."""
    alpha = (alpha,) if isinstance(alpha, (int, np.integer)) else tuple(int(a) for a in alpha)
    if len(alpha) != f.dim:
        raise DimensionMismatch(f"multi-index {alpha} does not match dim {f.dim}")
    return math.fsum(
        v * math.prod(c ** a for c, a in zip(pt, alpha)) for pt, v in f.points()
    )


def exact_moment(f: LatticeFn, alpha: Sequence[int]) -> Fraction:
    alpha = tuple(int(a) for a in alpha)
    return sum(
        (v * math.prod(c ** a for c, a in zip(pt, alpha)) for pt, v in exact_weights(f).items()),
        Fraction(0),
    )


def second_moments(f: LatticeFn) -> np.ndarray:
    """Matrix of the exact second moments sum_x x_i x_j f(x), each rounded once."""
    axes = range(f.dim)
    return np.array([
        [float(exact_moment(f, [(k == i) + (k == j) for k in axes])) for j in axes]
        for i in axes
    ])


def perturbation(p: LatticePMF, q: LatticePMF) -> SignedLatticeFn:
    """q - p as a signed lattice function (exact arithmetic)."""
    if p.dim != q.dim:
        raise DimensionMismatch("p and q must share a dimension")
    diff: dict[Point, Fraction] = dict(exact_weights(q))
    for pt, v in exact_weights(p).items():
        diff[pt] = diff.get(pt, Fraction(0)) - v
    diff = {pt: v for pt, v in diff.items() if v != 0}
    return SignedLatticeFn.from_points(p.dim, diff)


# -- structural checks on the step law --------------------------------------


def _lattice_index(support: Iterable[Sequence[int]], dim: int) -> int:
    """Index in Z^dim of the lattice the support vectors generate (0: rank deficient).

    For a symmetric support the reachable semigroup is that subgroup, so
    index 1 means the walk reaches all of Z^dim.  Per column, Euclid's
    algorithm folds every row into one pivot holding the gcd of the column,
    by unimodular row steps that keep the lattice; the other rows leave with
    a zero there.  The pivots form a triangular basis, whose diagonal's
    product is the index.
    """
    rows = [list(pt) for pt in support]
    index = 1
    for col in range(dim):
        piv, rest = [0] * dim, []
        for r in rows:
            while r[col]:
                f = piv[col] // r[col]
                piv, r = r, [x - f * y for x, y in zip(piv, r)]
            if any(r):
                rest.append(r)
        index *= abs(piv[col])
        rows = rest
    return index


@dataclass(frozen=True)
class WalkSpec:
    """Validated pair (p, q) with derived quantities.

    Invariants established by :func:`validate_walk_spec`: p symmetric, a = q-p
    antisymmetric, p aperiodic and irreducible, B symmetric positive definite,
    and d = 0 only when the ``unperturbed`` flag was given.
    """

    nu: int
    p: LatticePMF
    q: LatticePMF
    a: SignedLatticeFn
    B: np.ndarray               # nu x nu second-moment matrix of p
    d: np.ndarray               # mean of the exit law q (= first moment of a)
    L: int = 4
    unperturbed: bool = False

    def __post_init__(self):
        for arr in (self.B, self.d):
            arr.flags.writeable = False

    @property
    def sigma2(self) -> float:
        """Variance of the step law; one-dimensional walks only."""
        if self.nu != 1:
            raise DimensionMismatch("sigma2 is defined for nu = 1 only")
        return float(self.B[0, 0])

    @property
    def radius(self) -> int:
        """Max jump radius over both laws; bounds the support growth per step."""
        return max(self.p.radius, self.q.radius)


def validate_walk_spec(
    p: LatticePMF,
    q: LatticePMF,
    unperturbed: bool = False,
    L: int = 4,
) -> WalkSpec:
    """Check the model hypotheses and assemble a WalkSpec.

    Raises NotSymmetric / NotAntisymmetric / Periodic / Reducible /
    DimensionMismatch / MissingUnperturbedFlag on violations.  All structural
    comparisons are exact (rational arithmetic), not tolerance-based.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"p has dim {p.dim}, q has dim {q.dim}")
    nu = p.dim

    if not is_symmetric(p):
        raise NotSymmetric("step law p must satisfy p(x) = p(-x) exactly")

    a = perturbation(p, q)
    if not is_antisymmetric(a):
        # equivalently q(x) + q(-x) != 2 p(x) somewhere
        raise NotAntisymmetric(
            "q - p must be antisymmetric: q(x) + q(-x) = 2 p(x) fails"
        )

    support = p.support[0].tolist()
    if _lattice_index(support, nu) != 1:
        raise Reducible("support of p does not additively generate Z^nu")

    # a k-step return is a sum of k lifted steps (s, 1) equal to (0, k); for a
    # symmetric irreducible walk the lifted lattice's index is the period
    g = _lattice_index([(*pt, 1) for pt in support], nu + 1)
    if g != 1:
        raise Periodic(f"return times to the origin share the factor {g}")

    B = second_moments(p)
    eig = np.linalg.eigvalsh(B)
    if eig.min() <= 0:
        raise SingularCovariance(f"step covariance not positive definite: eigenvalues {eig}")

    d_exact = [exact_moment(a, [1 if k == i else 0 for k in range(nu)]) for i in range(nu)]
    d = np.array([float(v) for v in d_exact])
    if all(v == 0 for v in d_exact) and not unperturbed:
        raise MissingUnperturbedFlag(
            "exit law has zero mean d; pass unperturbed=True to accept"
        )

    return WalkSpec(nu=nu, p=p, q=q, a=a, B=B, d=d, L=L, unperturbed=unperturbed)
