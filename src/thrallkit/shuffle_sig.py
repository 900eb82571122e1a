"""Shuffle products on word functionals and signatures of piecewise-linear paths.

A piecewise-linear path is stored by its vertices only; signatures are
reparametrization invariant, so that is all the data there is.  Each segment
with increment ``v`` contributes the exponential of ``v``, and concatenation
multiplies the series (Chen's identity).

:func:`signature` applies ``S <- S (x) exp(v)`` in place, one segment at a
time, on integer numerators: with ``q`` the lcm of all vertex-coordinate
denominators, level ``m`` is kept as numerators over the fixed denominator
``m! q^m``, so every update is integer arithmetic and rationals are formed
once, at the end.  :func:`log_signature` passes those integer levels
straight to the integer log kernel of :mod:`thrallkit.free_lie`.  Both are
capped at :data:`SIGNATURE_ENTRIES_MAX` entries over all levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from . import linalg
from .free_lie import _log_series
from .tensors import Tensor, TensorSeries
from .words import ResourceLimitError, Word, all_words, check_partition, partition_union, word_to_index

# Cap on the entries of a truncated signature, 1 + d + .. + d^k_max, so that
# every level fits in memory: d=2 to level 16, d=3 to level 10 and d=4 to
# level 8 pass; d=9 to level 6 does not.
SIGNATURE_ENTRIES_MAX = 200_000


@dataclass(frozen=True)
class WordFunctional:
    """Finite rational combination of coordinate functionals T -> T_w.

    Words of different lengths may be mixed; evaluation on a series sums the
    matching levels.
    """

    d: int
    terms: dict[Word, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {}
        for word, c in self.terms.items():
            word = tuple(word)
            if any(not 1 <= letter <= self.d for letter in word):
                raise ValueError(f"word {word} has letters outside 1..{self.d}")
            c = Fraction(c)
            if c != 0:
                cleaned[word] = c
        object.__setattr__(self, "terms", cleaned)

    @staticmethod
    def coordinate(d: int, word: Word) -> "WordFunctional":
        return WordFunctional(d, {tuple(word): Fraction(1)})

    @staticmethod
    def zero(d: int) -> "WordFunctional":
        return WordFunctional(d, {})

    def __add__(self, other: "WordFunctional") -> "WordFunctional":
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, Fraction(0)) + c
        return WordFunctional(self.d, terms)

    def __sub__(self, other: "WordFunctional") -> "WordFunctional":
        return self + other.scale(-1)

    def scale(self, c) -> "WordFunctional":
        c = Fraction(c)
        return WordFunctional(self.d, {w: c * v for w, v in self.terms.items()})

    def max_length(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def evaluate(self, series: TensorSeries) -> Fraction:
        if series.d != self.d:
            raise ValueError("dimension mismatch")
        if self.max_length() > series.k_max:
            raise ValueError("series truncated below the functional's top word")
        total = Fraction(0)
        for w, c in self.terms.items():
            level = series.level(len(w))
            total += c * (level.entries[word_to_index(w, self.d)] if w else level.entries[0])
        return total

    def evaluate_tensor(self, tensor: Tensor) -> Fraction:
        """Evaluate on a single homogeneous level."""
        total = Fraction(0)
        for w, c in self.terms.items():
            if len(w) == tensor.k:
                total += c * tensor.entries[word_to_index(w, tensor.d)]
        return total

    def _check(self, other: "WordFunctional") -> None:
        if self.d != other.d:
            raise ValueError(f"alphabet mismatch: d={self.d} vs d={other.d}")


@cache
def _shuffle_multiplicities(a: Word, b: Word) -> tuple[tuple[Word, int], ...]:
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    counts: dict[Word, int] = {}
    for w, c in _shuffle_multiplicities(a[1:], b):
        counts[(a[0],) + w] = counts.get((a[0],) + w, 0) + c
    for w, c in _shuffle_multiplicities(a, b[1:]):
        counts[(b[0],) + w] = counts.get((b[0],) + w, 0) + c
    return tuple(sorted(counts.items()))


def shuffle_words(a: Word, b: Word, d: int | None = None) -> WordFunctional:
    """Shuffle product of two coordinate functionals.

    Sum over all interleavings preserving the internal order of each word,
    with multiplicity; total mass is binomial(|a| + |b|, |a|).
    """
    a, b = tuple(a), tuple(b)
    if d is None:
        d = max(max(a, default=1), max(b, default=1))
    terms = {w: Fraction(c) for w, c in _shuffle_multiplicities(a, b)}
    return WordFunctional(d, terms)


def shuffle_functionals(beta: WordFunctional, gamma: WordFunctional) -> WordFunctional:
    """Bilinear extension of :func:`shuffle_words`."""
    beta._check(gamma)
    acc = WordFunctional.zero(beta.d)
    for wa, ca in beta.terms.items():
        for wb, cb in gamma.terms.items():
            acc = acc + shuffle_words(wa, wb, beta.d).scale(ca * cb)
    return acc


def is_group_like(series: TensorSeries) -> bool:
    """Exact check of the product identity T_{I shuffle J} = T_I * T_J.

    Runs over unordered pairs of nonempty words with |I| + |J| <= k_max;
    the empty word holds trivially since level 0 must be 1.  Both sides are
    read straight off one word -> numerator table, level k scaled to integers
    over the lcm ``den[k]`` of its denominators, and compared cross-multiplied.
    """
    if series.level(0) != Tensor.scalar(series.d, 1):
        raise ValueError("group-likeness needs level 0 equal to 1")
    d, k_max = series.d, series.k_max
    den = [1]
    value: dict[Word, int] = {}
    for k in range(1, k_max + 1):
        level_den, nums = linalg.integer_numerators(series.level(k).entries)
        den.append(level_den)
        value.update(zip(all_words(d, k), nums))
    words = [w for k in range(1, k_max) for w in all_words(d, k)]
    for i, a in enumerate(words):
        for b in words[i:]:
            m = len(a) + len(b)
            if m > k_max:
                continue
            lhs = sum(c * value[w] for w, c in _shuffle_multiplicities(a, b))
            if lhs * den[len(a)] * den[len(b)] != value[a] * value[b] * den[m]:
                return False
    return True


# ---------------------------------------------------------------------------
# piecewise-linear paths


@dataclass(frozen=True)
class PiecewiseLinearPath:
    """Path through the given rational vertices, traversed in order."""

    d: int
    points: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a path needs at least one point")
        pts = tuple(tuple(Fraction(x) for x in p) for p in self.points)
        if any(len(p) != self.d for p in pts):
            raise ValueError("every vertex must have d coordinates")
        object.__setattr__(self, "points", pts)

    @staticmethod
    def from_lists(points) -> "PiecewiseLinearPath":
        pts = tuple(tuple(Fraction(x) for x in p) for p in points)
        if not pts:
            raise ValueError("a path needs at least one point")
        return PiecewiseLinearPath(len(pts[0]), pts)

    def increments(self) -> list[tuple[Fraction, ...]]:
        return [
            tuple(b - a for a, b in zip(p, q))
            for p, q in zip(self.points, self.points[1:])
        ]

    def reversed(self) -> "PiecewiseLinearPath":
        return PiecewiseLinearPath(self.d, tuple(reversed(self.points)))

    def concatenate(self, other: "PiecewiseLinearPath") -> "PiecewiseLinearPath":
        """Translate ``other`` to start at this path's endpoint and append it."""
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        end = self.points[-1]
        start = other.points[0]
        shift = tuple(e - s for e, s in zip(end, start))
        moved = [tuple(x + dx for x, dx in zip(p, shift)) for p in other.points[1:]]
        return PiecewiseLinearPath(self.d, self.points + tuple(moved))

    def is_collinear(self) -> bool:
        incs = [v for v in self.increments() if any(x != 0 for x in v)]
        if len(incs) <= 1:
            return True
        base = incs[0]
        for v in incs[1:]:
            # parallel or antiparallel both trace one line: 2x2 minors vanish
            for i in range(self.d):
                for j in range(i + 1, self.d):
                    if base[i] * v[j] - base[j] * v[i] != 0:
                        return False
        return True


def _chen_numerators(path: PiecewiseLinearPath, k_max: int):
    """The signature levels as numerators ``N_m`` and their denominators
    ``m! q^m``; see :func:`signature`."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    d = path.d
    entries, size = 0, 1
    for _ in range(k_max + 1):
        entries += size
        if entries > SIGNATURE_ENTRIES_MAX:
            raise ResourceLimitError(
                f"signature of d={d} to level {k_max} exceeds the cap of "
                f"{SIGNATURE_ENTRIES_MAX} entries over all levels"
            )
        size *= d
    q = math.lcm(*(x.denominator for p in path.points for x in p))
    nums = [[1]] + [[0] * d**m for m in range(1, k_max + 1)]
    for inc in path.increments():
        if all(x == 0 for x in inc):
            continue
        u = [int(x * q) for x in inc]
        for m in range(k_max, 0, -1):
            acc = nums[0]
            for j in range(1, m + 1):
                c, lower = math.comb(m, j), iter(nums[j])
                # the entry of acc (x) u at word (p, letter) sits at index p * d + letter
                acc = [a * x + c * next(lower) for a in acc for x in u]
            nums[m] = acc
    return nums, [math.factorial(m) * q**m for m in range(k_max + 1)]


def signature(path: PiecewiseLinearPath, k_max: int) -> TensorSeries:
    """Signature series of a piecewise-linear path, truncated at k_max.

    Chen's identity in place: each segment with nonzero increment ``v``
    updates ``S <- S (x) exp(v)``.  With ``q`` the lcm of the vertex
    denominators, level ``m`` is held as a flat list of integer numerators
    ``N_m`` over the fixed denominator ``m! q^m`` and, for ``u = q v``,

        N_m <- sum_{i=0..m} binomial(m, i) N_i (x) u^(x)(m - i),

    evaluated top level first (so the lower levels read are still the old
    ones) in Horner form: ``acc = N_0``, then ``acc = acc (x) u +
    binomial(m, j) N_j`` for ``j = 1..m``.

    Raises :class:`ResourceLimitError`, before allocating any level, when
    the series would hold more than :data:`SIGNATURE_ENTRIES_MAX` entries
    (``1 + d + .. + d^k_max``).
    """
    nums, dens = _chen_numerators(path, k_max)
    levels = [
        Tensor(path.d, m, tuple(Fraction(n, den) for n in level))
        for m, (level, den) in enumerate(zip(nums, dens))
    ]
    return TensorSeries(path.d, tuple(levels))


def log_signature(path: PiecewiseLinearPath, k_max: int) -> TensorSeries:
    """Truncated logarithm of the signature; levels are Lie elements.

    The integer levels of the Chen update (numerators over ``m! q^m``, see
    :func:`signature`) go straight into the integer Horner kernel of
    :func:`thrallkit.free_lie.log_truncated`; no Fraction signature is
    built.  Same size cap as :func:`signature`.
    """
    return _log_series(path.d, *_chen_numerators(path, k_max))


def levy_area(series: TensorSeries) -> Fraction:
    """The planar invariant (T_12 - T_21) / 2."""
    if series.d != 2:
        raise ValueError("defined for d = 2 only")
    if series.k_max < 2:
        raise ValueError("needs k_max >= 2")
    level = series.level(2)
    return (level[(1, 2)] - level[(2, 1)]) / 2


# ---------------------------------------------------------------------------
# graded functionals


def act_on_functional(x, beta: WordFunctional, k: int) -> WordFunctional:
    """Dual slot action on degree-k functionals: (x . beta)(T) = beta(x . T).

    Since the slot action sends the basis tensor at word u to the one at
    u o sigma^{-1}, the coefficient of beta at word w is scattered to w o sigma.
    The sums run on integer numerators over one denominator for ``x`` and
    one for ``beta``, and touch only the support of ``beta``: no index map
    over all d^k words is built.
    """
    if any(len(word) != k for word in beta.terms):
        raise ValueError("functional is not homogeneous of degree k")
    xden, xs = linalg.integer_numerators(x.terms.values())
    bden, bs = linalg.integer_numerators(beta.terms.values())
    acc: dict[Word, int] = {}
    for perm, c in zip(x.terms, xs):
        for word, v in zip(beta.terms, bs):
            moved = tuple(map(word.__getitem__, perm))
            acc[moved] = acc.get(moved, 0) + c * v
    den = xden * bden
    return WordFunctional(beta.d, {w: Fraction(a, den) for w, a in acc.items() if a})


def functional_in_w_dual(beta: WordFunctional, lam, k: int) -> bool:
    """True iff the degree-k functional only depends on the lam-graded part."""
    from .group_algebra import higher_lie_idempotent

    return act_on_functional(higher_lie_idempotent(lam), beta, k) == beta


def shuffle_grading_check(
    beta: WordFunctional, gamma: WordFunctional, lam, mu
) -> bool:
    """Verify the graded multiplication rule for the shuffle product.

    Requires beta to be graded by lam and gamma by mu (checked); returns
    whether beta shuffle gamma is graded by the union partition.
    """
    lam, mu = check_partition(lam), check_partition(mu)

    def graded(functional: WordFunctional, grade) -> bool:
        if not grade:
            # degree-0 grading: constants only
            return set(functional.terms) <= {()}
        return functional_in_w_dual(functional, grade, sum(grade))

    if not graded(beta, lam):
        raise ValueError("beta is not graded by lam")
    if not graded(gamma, mu):
        raise ValueError("gamma is not graded by mu")
    union = partition_union(lam, mu)
    product = shuffle_functionals(beta, gamma)
    return graded(product, union)


def levy_functional() -> WordFunctional:
    """The degree-2 planar functional ((12) - (21)) / 2."""
    return WordFunctional(
        2, {(1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 2)}
    )
