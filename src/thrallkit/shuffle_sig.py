"""Shuffle products on word functionals and signatures of piecewise-linear paths.

A piecewise-linear path is stored by its vertices only; signatures are
reparametrization invariant, so that is all the data there is.  Each segment
with increment ``v`` contributes the exponential of ``v``, and concatenation
multiplies the series (Chen's identity).

:func:`signature` runs Chen's identity on integer numerators over ``m! q^m``
(``q`` the lcm of the vertex denominators).  Runs of consecutive parallel
increments are merged into one segment, and the runs are applied right to
left, ``S <- exp(u) (x) S``, on levels packed into one Python int each
(``N_m[i]`` in bits ``B i .. B i + B - 1``, index order), so that the
per-entry work runs inside integer arithmetic.  The slot width ``B`` comes
from the bound ``|N_m(w)| <= V^m``, ``V`` summing each run's largest
coordinate.  One path object shares one update: it keeps the integer
levels of its highest truncation, which :func:`signature`,
:func:`log_signature` and the straight-line criteria of
:func:`thrallkit.rank_variety.fls_check` read, a lower truncation as a
slice.  Each level goes to the tensor constructor as its numerators over
``m! q^m`` (every tensor is held that way, see :mod:`thrallkit.tensors`),
and :func:`log_signature` is the integer log kernel of
:mod:`thrallkit.free_lie` on that signature, whose levels the path keeps
the same way, so no reader builds a Fraction per entry.  Both are capped at
:data:`SIGNATURE_ENTRIES_MAX` entries over all levels.

:func:`is_group_like` tests one shuffle identity per non-Lyndon word ``w =
l v`` (``l`` the longest Lyndon prefix), ``T_{l shuffle v} = T_l T_v``,
rather than one per word pair: the word ``w`` leads ``l shuffle v`` in lex
order, so these identities and the Lyndon coordinates are triangular, and
by induction on the level they imply all the others (see its docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from operator import mul

from .tensors import Tensor, TensorSeries
from .words import (
    ResourceLimitError, Word, all_words, index_to_word, longest_lyndon_prefix, word_to_index,
)

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
        return sum((c * series.level(len(w))[w] for w, c in self.terms.items()), Fraction(0))

    def _check(self, other: "WordFunctional") -> None:
        if self.d != other.d:
            raise ValueError(f"alphabet mismatch: d={self.d} vs d={other.d}")


def shuffle_words(a: Word, b: Word, d: int) -> WordFunctional:
    """Shuffle product of two coordinate functionals.

    Sum over all interleavings preserving the internal order of each word,
    with multiplicity; total mass is binomial(|a| + |b|, |a|).
    """
    return shuffle_functionals(WordFunctional(d, {tuple(a): 1}), WordFunctional(d, {tuple(b): 1}))


def shuffle_functionals(beta: WordFunctional, gamma: WordFunctional) -> WordFunctional:
    """Bilinear extension of :func:`shuffle_words`, summed into one map over
    the interleavings that :func:`_shuffle_indices` counts."""
    beta._check(gamma)
    d = beta.d
    terms: dict[Word, Fraction] = {}
    for wa, ca in beta.terms.items():
        for wb, cb in gamma.terms.items():
            n = len(wa) + len(wb)
            for index, c in sorted(_shuffle_indices(wa, wb, d).items()):
                w = index_to_word(index, d, n)
                terms[w] = terms.get(w, 0) + c * ca * cb
    return WordFunctional(d, terms)


def _shuffle_indices(a: Word, b: Word, d: int) -> dict[int, int]:
    """The words of ``a shuffle b`` as flat indices, with multiplicities.

    Recurrence on the first letter, ``a[i:] shuffle b[j:] = a[i] (a[i+1:]
    shuffle b[j:]) + b[j] (a[i:] shuffle b[j+1:])``, where a leading letter
    ``x`` adds ``(x - 1) d^(n - 1)`` to the index of a word of length ``n``.
    The memo over the positions ``(i, j)`` lives for one call, so no
    sub-shuffle outlives it.
    """
    memo: dict[tuple[int, int], dict[int, int]] = {}

    def rec(i: int, j: int) -> dict[int, int]:
        if i == len(a) or j == len(b):
            return {word_to_index(a[i:] + b[j:], d): 1}
        out = memo.get((i, j))
        if out is None:
            out = {}
            step = d ** (len(a) - i + len(b) - j - 1)
            for head, rest in ((a[i], rec(i + 1, j)), (b[j], rec(i, j + 1))):
                for index, c in rest.items():
                    index += (head - 1) * step
                    out[index] = out.get(index, 0) + c
            memo[(i, j)] = out
        return out

    return rec(0, 0)


@cache
def _group_like_plan(d: int, m: int) -> tuple[tuple, ...]:
    """The level-m equations of :func:`is_group_like`, one per non-Lyndon word
    ``w = l v``: ``(|l|, index of l, index of v, indices of the words of
    l shuffle v, their multiplicities)``."""
    plan = []
    for w in all_words(d, m):
        p = longest_lyndon_prefix(w)
        if p == m:
            continue
        terms = _shuffle_indices(w[:p], w[p:], d)
        plan.append((
            p, word_to_index(w[:p], d), word_to_index(w[p:], d), tuple(terms), tuple(terms.values()),
        ))
    return tuple(plan)


def is_group_like(series: TensorSeries) -> bool:
    """Exact check that the series satisfies every shuffle identity
    T_{a shuffle b} = T_a * T_b up to its truncation.

    Only one identity per non-Lyndon word is tested: for ``w = l v`` with
    ``l`` the first Lyndon factor of ``w`` (its longest Lyndon prefix),
    ``T_{l shuffle v} = T_l * T_v``.  At level ``m`` these are ``d^m`` minus
    the number of Lyndon words of length ``m``, which is the number of
    independent identities there: the shuffle algebra is the free
    commutative algebra on the Lyndon words (Radford 1979; Reutenauer, *Free
    Lie Algebras*, 6.1).  The reduced set suffices, by induction on ``m``:

    * the lexicographically largest word of ``l shuffle v`` is ``w`` itself,
      with a positive coefficient, so the functionals ``T -> T_{l shuffle v}``
      of the non-Lyndon words and the coordinates at the Lyndon words are
      triangular in lex order: a basis of the dual of level ``m``;
    * if ``T`` is group-like below ``m``, some group-like ``G`` equals ``T``
      below ``m`` and at the Lyndon words of length ``m``: add to the
      exponential of the lower Lie part the Lie element of degree ``m`` with
      the right values there, which exists because the Lyndon bracketings are
      unitriangular on the Lyndon words (Reutenauer Thm 5.1, as in
      :func:`thrallkit.free_lie.lie_coordinates`);
    * if the reduced identities hold, ``(T - G)_{l shuffle v} = T_l T_v - G_l
      G_v = 0``, as ``l`` and ``v`` are shorter than ``m``; ``T - G`` vanishes
      at level ``m`` on that basis, so ``T`` equals ``G`` there.

    Each level ``k`` is read as its integer numerators over its denominator
    ``den[k]``, and the two sides are compared cross-multiplied.  The
    equations of each level are built once per ``(d, m)`` and shared by
    every truncation; the empty word holds trivially since level 0 must be 1.
    """
    if series.level(0) != Tensor.scalar(series.d, 1):
        raise ValueError("group-likeness needs level 0 equal to 1")
    den = [level.den for level in series.levels]
    nums = [level.nums for level in series.levels]
    for m in range(2, series.k_max + 1):
        top = nums[m]
        for p, i, j, words, mults in _group_like_plan(series.d, m):
            lhs = sum(map(mul, mults, map(top.__getitem__, words)))
            if lhs * den[p] * den[m - p] != nums[p][i] * nums[m - p][j] * den[m]:
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
    dens = [math.factorial(m) * q**m for m in range(k_max + 1)]
    points = [[x.numerator * (q // x.denominator) for x in p] for p in path.points]
    runs: list[list[int]] = []
    for a, b in zip(points, points[1:]):
        u = list(map(int.__sub__, b, a))
        i = next((i for i, x in enumerate(u) if x), None)
        if i is None:
            continue
        # u_i != 0, so the last run r is parallel to u iff r_l u_i = u_l r_i
        if runs and all(x * u[i] == y * runs[-1][i] for x, y in zip(runs[-1], u)):
            runs[-1] = list(map(int.__add__, runs[-1], u))
            if not any(runs[-1]):
                runs.pop()
        else:
            runs.append(u)
    if not runs:
        return [[1]] + [[0] * d**m for m in range(1, k_max + 1)], dens
    # slot bound: |N_m(w)| = m! q^m |S_m(w)| <= V^m < 2^(B - 1) for V the sum over
    # runs of max_l |u_l|, as entrywise |exp(u / q)| <= exp(max_l |u_l| / q) times
    # the all-ones tensor; so each final N_m(w) + 2^(B - 1) fits its B-bit slot
    V = sum(max(map(abs, u)) for u in runs)
    B = -(-(k_max * (V.bit_length() + 1) + 2) // 8) * 8
    # u (x) X is the sum of x X << shift over the pairs of row j, for X of level j
    rows = [[[(x, l * d**j * B) for l, x in enumerate(u) if x] for j in range(k_max)] for u in runs]
    packed = [1]
    for row in rows.pop():
        packed.append(sum(x * packed[-1] << shift for x, shift in row))
    for u_rows in reversed(rows):
        for m in range(k_max, 0, -1):
            acc = 1
            for j in range(1, m + 1):
                new = math.comb(m, j) * packed[j]
                for x, shift in u_rows[j - 1]:
                    new += x * acc << shift
                acc = new
            packed[m] = acc
    b, half, nums = B // 8, 1 << (B - 1), [[1]]
    for m in range(1, k_max + 1):
        bias = int.from_bytes((bytes(b - 1) + b"\x80") * d**m, "little")
        raw = (packed[m] + bias).to_bytes(d**m * b, "little")
        nums.append([int.from_bytes(raw[i : i + b], "little") - half for i in range(0, len(raw), b)])
    return nums, dens


def signature(path: PiecewiseLinearPath, k_max: int) -> TensorSeries:
    """Signature series of a piecewise-linear path, truncated at k_max.

    Chen's identity over the runs of consecutive parallel increments: these
    commute, so a run is one segment, and a run that sums to zero is
    dropped.  Level ``m`` is held as integer numerators ``N_m`` over ``m!
    q^m``, for ``q`` the lcm of the vertex denominators.  The runs are
    applied last first, ``S <- exp(u) (x) S`` for ``u = q v``: the last run
    sets ``N_m = u^(x)m``, and each earlier one updates, top level first,

        N_m <- sum_{j=0..m} binomial(m, j) u^(x)(m - j) (x) N_j

    in Horner form: ``acc = N_0``, then ``acc = u (x) acc + binomial(m, j)
    N_j`` for ``j = 1..m``.  Each level is packed into one int, ``sum_i
    N_m[i] 2^(B i)`` in index order (first letter most significant), so
    ``u (x) acc`` at level ``j`` is ``sum_l (u_l acc) << (l d^j B)``.
    Packing is linear, so it is exact; each level is unpacked once, at the
    end, and a slot of ``B = k_max (bit_length(V) + 1) + 2`` bits, rounded
    up to bytes, holds every final ``|N_m(w)| <= V^m``, for ``V`` the sum
    over the runs of ``max_l |u_l|``.

    Each level hands ``N_m`` over ``m! q^m`` to the tensor constructor,
    which reduces it to lowest terms.  The update runs once per path object
    and truncation: the path keeps the levels of the highest truncation
    computed so far, outside its dataclass fields (equality, hashing and
    repr ignore them), and :func:`log_signature` and lower truncations share
    them.  Level ``m`` does not depend on ``k_max``, so a lower truncation
    is a slice; a higher one runs the update again, size cap included.

    Raises :class:`ResourceLimitError`, before allocating any level, when
    the series would hold more than :data:`SIGNATURE_ENTRIES_MAX` entries
    (``1 + d + .. + d^k_max``).
    """
    levels = path.__dict__.get("_chen_levels")
    if levels is None or not 0 <= k_max < len(levels):
        nums, dens = _chen_numerators(path, k_max)
        levels = tuple(Tensor(path.d, m, n, den) for m, (n, den) in enumerate(zip(nums, dens)))
        object.__setattr__(path, "_chen_levels", levels)
    return TensorSeries(path.d, levels[: k_max + 1])


def log_signature(path: PiecewiseLinearPath, k_max: int) -> TensorSeries:
    """Truncated logarithm of the signature; levels are Lie elements.

    :func:`thrallkit.free_lie.log_truncated` of :func:`signature`, whose
    levels share the path's one Chen update; both run on integer
    numerators.  The path keeps the log levels of its highest truncation
    beside the signature's: log level ``m`` reads only signature levels up
    to ``m``, so a lower truncation is a slice.  Same size cap as
    :func:`signature`.
    """
    levels = path.__dict__.get("_log_levels")
    if levels is None or not 0 <= k_max < len(levels):
        from .free_lie import log_truncated

        levels = log_truncated(signature(path, k_max)).levels
        object.__setattr__(path, "_log_levels", levels)
    return TensorSeries(path.d, levels[: k_max + 1])


def levy_area(series: TensorSeries) -> Fraction:
    """The planar invariant (T_12 - T_21) / 2."""
    if series.d != 2:
        raise ValueError("defined for d = 2 only")
    if series.k_max < 2:
        raise ValueError("needs k_max >= 2")
    level = series.level(2)
    return (level[(1, 2)] - level[(2, 1)]) / 2


def levy_functional() -> WordFunctional:
    """The degree-2 planar functional ((12) - (21)) / 2."""
    return WordFunctional(
        2, {(1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 2)}
    )
