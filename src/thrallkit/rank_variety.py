"""Rank diagnostics for signature tensors.

The headline facts being exercised: a nonzero signature-level tensor has rank
one exactly when it is symmetric; symmetry at one level of the exponential
image of a Lie series forces all the higher graded parts to vanish; and both
of these collapse the straight-line test to three equivalent criteria on the
truncated (log-)signature.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random

from . import linalg
from .free_lie import LieElement, exp_truncated, is_lie_element, phi_k
from .shuffle_sig import PiecewiseLinearPath, log_signature, signature
from .tensors import Tensor, TensorSeries, is_symmetric
from .words import value_type


@value_type
class RankOneResult:
    """Outcome of the elementary-tensor test, with factors on success."""

    is_rank_one: bool
    factors: tuple[tuple[Fraction, ...], ...] | None = None

    def __bool__(self) -> bool:
        return self.is_rank_one


def is_rank_one(tensor: Tensor) -> RankOneResult:
    """Decide whether a nonzero tensor is elementary; recover the factors.

    If T = u_1 (x) .. (x) u_k is nonzero at the word w, the slice of T
    through w along slot j (letter j free, the others fixed as in w) is u_j
    times the nonzero number prod_{i != j} u_i[w_i].  So the slices through
    one nonzero entry are the factors up to scale, and T is elementary iff
    their product, scaled to agree at w, rebuilds it.  The recovered factors
    follow the convention that the first one absorbs the overall scale and
    the others have leading coordinate one.
    """
    if tensor.is_zero():
        raise ValueError("the zero tensor has no rank-one factorization")
    k, d, nums = tensor.k, tensor.d, tensor.nums
    if k == 0:
        return RankOneResult(True, ((Fraction(nums[0], tensor.den),),))
    at = next(i for i, n in enumerate(nums) if n)
    slices = []
    for slot in range(k):
        stride = d ** (k - slot - 1)
        first = at - (at // stride) % d * stride
        slices.append(nums[first : first + d * stride : stride])
    # on the numerators the slices' product rebuilds nums[at]^(k-1) times the tensor
    rebuilt = [1]
    for vec in slices:
        rebuilt = [x * y for x in rebuilt for y in vec]
    c = nums[at] ** (k - 1)
    if any(r != c * n for r, n in zip(rebuilt, nums)):
        return RankOneResult(False)
    leads = [next(x for x in vec if x) for vec in slices[1:]]
    scale = Fraction(math.prod(leads), c * tensor.den)
    factors = [tuple(scale * x for x in slices[0])]
    factors += [tuple(Fraction(x, lead) for x in vec) for vec, lead in zip(slices[1:], leads)]
    return RankOneResult(True, tuple(factors))


@value_type
class SymmetryCascadeReport:
    hypothesis_level_symmetric: bool
    higher_parts_vanish: bool | None
    lower_levels_symmetric: bool | None
    passed: bool


def symmetric_level_implies_segment(series: TensorSeries, k: int) -> SymmetryCascadeReport:
    """Verify the symmetry cascade for a Lie series with nonzero degree-1 part.

    If level k of the exponential image is symmetric, checks that the
    degree-2..k parts vanish and that all exponential levels up to k are
    symmetric.  When level k is not symmetric the statement is vacuous and
    the report says so.
    """
    if k < 2 or k > series.k_max:
        raise ValueError("need 2 <= k <= k_max")
    for i in range(1, series.k_max + 1):
        if not series.level(i).is_zero() and not is_lie_element(series.level(i)):
            raise ValueError(f"level {i} is not a Lie element")
    if series.level(1).is_zero():
        raise ValueError("outside the hypothesis: degree-1 part is zero")
    image = exp_truncated(series)
    if not is_symmetric(image.level(k)):
        return SymmetryCascadeReport(False, None, None, True)
    vanish = all(series.level(i).is_zero() for i in range(2, k + 1))
    lower = all(is_symmetric(image.level(i)) for i in range(1, k + 1))
    return SymmetryCascadeReport(True, vanish, lower, vanish and lower)


@value_type
class FlsReport:
    """Straight-line criteria on the truncated signature of a path."""

    criterion_a: bool  # log-signature vanishes above degree 1
    criterion_b: bool  # every level is symmetric
    criterion_c: bool  # every level has rank at most one
    consistent: bool
    is_segment: bool

    def as_dict(self) -> dict:
        return {
            "criterion_a": self.criterion_a,
            "criterion_b": self.criterion_b,
            "criterion_c": self.criterion_c,
            "consistent": self.consistent,
            "is_segment": self.is_segment,
        }


def fls_check(path: PiecewiseLinearPath, k_max: int) -> FlsReport:
    """Evaluate the three straight-line criteria up to level k_max.

    (a) the log-signature vanishes in degrees 2..k_max, (b) all signature
    levels are symmetric, (c) all signature levels have rank at most one.
    The three must coincide on genuine paths with nonzero total increment.
    The signature and the log-signature share the path's one Chen update
    (see :func:`thrallkit.shuffle_sig.signature`).  Raises ``ValueError``
    for ``k_max < 1``, where there is no level 1.
    """
    if k_max < 1:
        raise ValueError("the straight-line criteria need k_max >= 1")
    sig = signature(path, k_max)
    if sig.level(1).is_zero():
        raise ValueError("outside the hypothesis: total increment is zero")
    log = log_signature(path, k_max)
    crit_a = all(log.level(i).is_zero() for i in range(2, k_max + 1))
    crit_b = all(is_symmetric(sig.level(i)) for i in range(2, k_max + 1))
    crit_c = all(
        sig.level(i).is_zero() or bool(is_rank_one(sig.level(i)))
        for i in range(2, k_max + 1)
    )
    consistent = crit_a == crit_b == crit_c
    return FlsReport(crit_a, crit_b, crit_c, consistent, crit_a and consistent)


# ---------------------------------------------------------------------------
# the matrix case


def skew_plus_rank_one_rank(a, x) -> int:
    """Exact rank of A + x x^T for skew-symmetric A.

    Asserts the case formula: the rank of A if x lies in the row span of A,
    one more otherwise.
    """
    a = [[Fraction(v) for v in row] for row in a]
    x = [Fraction(v) for v in x]
    d = len(a)
    if any(len(row) != d for row in a) or len(x) != d:
        raise ValueError("need a d x d matrix and a d-vector")
    for i in range(d):
        for j in range(d):
            if a[i][j] != -a[j][i]:
                raise ValueError("matrix is not skew-symmetric")
    m = [[a[i][j] + x[i] * x[j] for j in range(d)] for i in range(d)]
    result = linalg.rank(m)
    base = linalg.rank(a)
    in_rowspan = linalg.rank(a + [x]) == base
    expected = base if in_rowspan else base + 1
    if result != expected:
        raise ArithmeticError("rank disagrees with the skew-plus-rank-one case formula")
    return result


# ---------------------------------------------------------------------------
# the generic-rank lower bound


def generic_rank_lower_bound(d: int, k: int) -> int:
    """Evaluate ceil((d^k (d-1) - d (d^(k/2) - 1)) / ((d-1) k (k d - k + 1))) - 1.

    With p = d^k (d-1) + d and r = isqrt(d^(k+2)), the numerator is p - s for
    s = d sqrt(d^k) = sqrt(d^(k+2)), and r <= s < r + 1.  If s = r, then
    ceil((p - r) / denom) - 1 = (p - r - 1) // denom for the integer p - r.
    If s is irrational, p - s lies strictly between the integers p - r - 1
    and p - r, so its ceiling over denom is (p - r - 1) // denom + 1.  Both
    cases give the same exact integer expression, whatever the parity of k.
    """
    if d < 2 or k < 2:
        raise ValueError("need d >= 2 and k >= 2")
    denom = (d - 1) * k * (k * d - k + 1)
    return (d**k * (d - 1) + d - math.isqrt(d ** (k + 2)) - 1) // denom


# ---------------------------------------------------------------------------
# the 2x2x2 hyperdeterminant


def hyperdeterminant_2x2x2(tensor: Tensor) -> Fraction:
    """Degree-four equation of the tangential variety of the Segre threefold.

    Written as the discriminant of the pencil of 2x2 slices along the middle
    slot; the 0/1 slice coordinates a_{ijk} correspond to the word with
    letters (i+1, j+1, k+1).
    """
    if tensor.d != 2 or tensor.k != 3:
        raise ValueError("defined for d = 2, k = 3")

    def a(i: int, j: int, k: int) -> Fraction:
        return tensor[(i + 1, j + 1, k + 1)]

    mixed = a(0, 0, 0) * a(1, 1, 1) - a(0, 1, 1) * a(1, 0, 0) \
        + a(0, 1, 0) * a(1, 0, 1) - a(0, 0, 1) * a(1, 1, 0)
    det_j0 = a(0, 0, 0) * a(1, 0, 1) - a(0, 0, 1) * a(1, 0, 0)
    det_j1 = a(0, 1, 0) * a(1, 1, 1) - a(0, 1, 1) * a(1, 1, 0)
    return mixed**2 - 4 * det_j0 * det_j1


@value_type
class PullbackReport:
    passed: bool
    constant: Fraction | None
    samples: int
    counterexample: dict | None = None

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "constant": str(self.constant) if self.constant is not None else None,
            "samples": self.samples,
            "counterexample": self.counterexample,
        }


def hdet_pullback_check(seed: int, samples: int = 20) -> PullbackReport:
    """Sample the factorized pullback identity of the hyperdeterminant.

    For random rational tuples (s1, s2, t12, u112, u122) build the Lie
    element with those Lyndon coordinates, push through the degree-3
    exponential level, and compare the hyperdeterminant against

        c * (s2 u112 + s1 u122)^2 * (3 t12^2 - 4 s2 u112 - 4 s1 u122)

    for one constant c shared across all samples.  Raises ``ValueError``
    for ``samples < 1``, which would check nothing.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = Random(seed)
    constant: Fraction | None = None
    checked = 0
    while checked < samples:
        coords = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(5)]
        s1, s2, t12, u112, u122 = coords
        element = LieElement(2, 3, dict(zip([(1,), (2,), (1, 2), (1, 1, 2), (1, 2, 2)], coords)))
        lhs = hyperdeterminant_2x2x2(phi_k(element, 3))
        rhs_factor = (s2 * u112 + s1 * u122) ** 2 * (3 * t12**2 - 4 * s2 * u112 - 4 * s1 * u122)
        checked += 1
        if rhs_factor == 0:
            if lhs != 0:
                return PullbackReport(False, constant, checked, {"tuple": list(map(str, coords))})
            continue
        ratio = lhs / rhs_factor
        if constant is None:
            constant = ratio
        elif ratio != constant:
            counterexample = {"tuple": list(map(str, coords)), "ratio": str(ratio)}
            return PullbackReport(False, constant, checked, counterexample)
    return PullbackReport(True, constant, checked)
