"""Shuffle products on word functionals and signatures of piecewise-linear paths.

A piecewise-linear path is stored by its vertices only; signatures are
reparametrization invariant, so that is all the data there is.  Each segment
with increment ``v`` contributes the exponential of ``v``, and concatenation
multiplies the series (Chen's identity).

:func:`signature` runs Chen's identity on integer numerators over ``m! q^m``
(``q`` the lcm of the vertex denominators), each run of parallel increments
as one segment, on levels packed into one Python int each by the slot codec
of :mod:`thrallkit.tensors`, which the slot action of
:mod:`thrallkit.group_algebra` shares.  One path object
shares one update, which :func:`signature`, :func:`log_signature` (the
integer log kernel of :mod:`thrallkit.free_lie`) and the straight-line
criteria of :func:`thrallkit.rank_variety.fls_check` read, so no reader
builds a Fraction per entry.  Both are capped at
:data:`~thrallkit.tensors.SIGNATURE_ENTRIES_MAX` entries over all levels.

:func:`is_group_like` tests no shuffle identity directly: the series is
group-like exactly when its Dynkin log-derivative ``L``, ``Y(S) = S L`` for
the grading operator ``Y``, is Lie at every level, which the Lyndon
back-substitution of :mod:`thrallkit.free_lie` decides (see its docstring).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import accumulate, combinations, compress
from operator import itemgetter, mul, sub
from types import MappingProxyType

from .tensors import Tensor, TensorSeries, check_entries, read_slots, slot_bytes, slot_mask, slot_width
from .words import Word, value_type


@value_type
class WordFunctional:
    """Finite rational combination of coordinate functionals T -> T_w.

    Words of different lengths may be mixed; evaluation on a series sums the
    matching levels.  The nonzero ``terms`` are kept as a read-only mapping.
    """

    d: int
    terms: MappingProxyType[Word, Fraction]

    def __init__(self, d: int, terms: dict[Word, Fraction] | None = None) -> None:
        cleaned = {}
        for word, c in (terms or {}).items():
            word = tuple(word)
            if any(not 1 <= letter <= d for letter in word):
                raise ValueError(f"word {word} has letters outside 1..{d}")
            c = Fraction(c)
            if c != 0:
                cleaned[word] = c
        self.__dict__.update(d=d, terms=MappingProxyType(cleaned))

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
    the interleavings that :func:`_shuffle_words` counts."""
    beta._check(gamma)
    terms: dict[Word, Fraction] = {}
    for wa, ca in beta.terms.items():
        for wb, cb in gamma.terms.items():
            for w, c in sorted(_shuffle_words(wa, wb).items()):
                terms[w] = terms.get(w, 0) + c * ca * cb
    return WordFunctional(beta.d, terms)


def _shuffle_words(a: Word, b: Word) -> dict[Word, int]:
    """The words of ``a shuffle b``, with multiplicities.

    Recurrence on the first letter, ``a[i:] shuffle b[j:] = a[i] (a[i+1:]
    shuffle b[j:]) + b[j] (a[i:] shuffle b[j+1:])``.  The memo over the
    positions ``(i, j)`` lives for one call, so no sub-shuffle outlives it.
    """
    memo: dict[tuple[int, int], dict[Word, int]] = {}

    def rec(i: int, j: int) -> dict[Word, int]:
        if i == len(a) or j == len(b):
            return {a[i:] + b[j:]: 1}
        out = memo.get((i, j))
        if out is None:
            out = {}
            for head, rest in ((a[i], rec(i + 1, j)), (b[j], rec(i, j + 1))):
                for w, c in rest.items():
                    w = (head, *w)
                    out[w] = out.get(w, 0) + c
            memo[(i, j)] = out
        return out

    return rec(0, 0)


def is_group_like(series: TensorSeries) -> bool:
    """Exact check that the series satisfies every shuffle identity
    T_{a shuffle b} = T_a * T_b up to its truncation.

    The identities say that ``S`` is group-like, ``Delta(S) = S (x) S`` for
    the coproduct ``Delta`` that makes the letters primitive (dual to the
    shuffle).  Let ``Y`` be the grading operator, ``Y w = |w| w``, and ``L``
    the series with ``Y(S) = S L``; as ``S_0 = 1``, level by level

        L_n = n S_n - sum_{i=1..n-1} S_i (x) L_(n-i),

    so ``L_1..L_n`` read only ``S_1..S_n``.  ``S`` is group-like up to level
    ``n`` iff ``L_1..L_n`` are Lie elements (Ree, Ann. of Math. 68, 1958;
    Reutenauer, *Free Lie Algebras*, 1993, ch. 1 and 3):

    * ``Delta`` is an algebra morphism that keeps total degree, so ``Delta Y
      = (Y (x) 1 + 1 (x) Y) Delta``.  If ``L`` is
      primitive up to level ``n``, then ``Delta(S)`` and ``S (x) S`` both
      solve ``(Y (x) 1 + 1 (x) Y) X = X (L (x) 1 + 1 (x) L)`` there, from
      ``X_0 = 1 (x) 1``; in total degree ``m >= 1`` this gives ``m X_m`` from
      ``X`` below ``m``, so the two are equal up to level ``n``;
    * if ``S`` is group-like up to level ``n``, then so is ``S^-1``, and
      ``L = S^-1 Y(S)`` has ``Delta(L) = (S^-1 (x) S^-1) (Y(S) (x) S + S (x)
      Y(S)) = L (x) 1 + 1 (x) L`` up to level ``n``: it is primitive;
    * the primitive elements are the Lie elements (Friedrichs).

    ``L_1 = S_1`` is always Lie, so each level ``n >= 2`` goes to the Lyndon
    back-substitution of :func:`thrallkit.free_lie.is_lie_element`.
    ``L_n`` is computed on the levels' integer numerators over one common
    denominator, the lcm of those of its terms, and not reduced: Lie
    membership does not depend on scale, so the numerators go to the test
    as they are (:func:`thrallkit.free_lie.is_lie_numerators`), and no
    tensor is built for ``L_n``.  A zero
    ``L_j`` adds no term, so the trivial series takes no product, and a
    group-like series at d = 1 (``L_n = 0`` for ``n >= 2``) one per level.
    """
    if series.level(0) != Tensor.scalar(series.d, 1):
        raise ValueError("group-likeness needs level 0 equal to 1")
    from .free_lie import is_lie_numerators

    d, levels, lie = series.d, series.levels, {}
    for n in range(1, series.k_max + 1):
        # the nonzero L_j for j < n, as numerators over a denominator
        terms = [(levels[n - j], *b) for j, b in lie.items()]
        den = math.lcm(levels[n].den, *(a.den * bden for a, _, bden in terms))
        f = n * (den // levels[n].den)
        acc = [f * x for x in levels[n].nums]
        for a, ys, bden in terms:
            f = den // (a.den * bden)
            xs = a.nums if f == 1 else [f * x for x in a.nums]
            acc = list(map(sub, acc, [x * y for x in xs for y in ys]))
        if n >= 2 and not is_lie_numerators(acc, d, n):
            return False
        if any(acc):
            lie[n] = acc, den
    return True


# ---------------------------------------------------------------------------
# piecewise-linear paths


@value_type
class PiecewiseLinearPath:
    """Path through the given rational vertices, traversed in order."""

    d: int
    points: tuple[tuple[Fraction, ...], ...]

    def __init__(self, d: int, points) -> None:
        if not points:
            raise ValueError("a path needs at least one point")
        pts = tuple(tuple(Fraction(x) for x in p) for p in points)
        if any(len(p) != d for p in pts):
            raise ValueError("every vertex must have d coordinates")
        self.__dict__.update(d=d, points=pts)

    @staticmethod
    def from_lists(points) -> "PiecewiseLinearPath":
        pts = tuple(map(tuple, points))
        return PiecewiseLinearPath(len(pts[0]) if pts else 0, pts)


def _runs(diffs, d: int) -> list[tuple[int, ...]]:
    """The sums of the runs of consecutive parallel steps, each ``d`` values
    of ``diffs``, with zero steps and runs that sum to zero dropped; every
    loop runs at C level.  Nonzero steps ``u`` and ``v`` are parallel iff
    every 2x2 minor ``u_i v_j - u_j v_i`` is zero, so a run breaks between
    consecutive steps with a nonzero minor, and it sums as a difference of
    prefix sums of the coordinate columns.  Runs on either side of a dropped
    one may be parallel; applied one after the other they commute, as any
    parallel segments do, so the signature is the same."""
    steps = list(filter(any, zip(*[iter(diffs)] * d)))
    if not steps:
        return []
    columns = list(zip(*steps))
    minors = [map(sub, map(mul, a[:-1], b[1:]), map(mul, b[:-1], a[1:]))
              for a, b in combinations(columns, 2)]
    at = itemgetter(0, *compress(range(1, len(steps)), map(any, zip(*minors))), len(steps))
    ends = [at(list(accumulate(column, initial=0))) for column in columns]
    return list(filter(any, zip(*(map(sub, e[1:], e[:-1]) for e in ends))))


def _scaled_runs(path: PiecewiseLinearPath, k_max: int) -> tuple[int, list[tuple[int, ...]]]:
    """``q``, the lcm of the vertex denominators, and the :func:`_runs` of
    the path times ``q``, once ``k_max`` passes :func:`signature`'s checks.
    Coordinates are read as integer ratios (no rescale at ``q = 1``), once
    per path: it keeps both in its instance dict."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    d = path.d
    check_entries(d, k_max, "signature", levels=True)
    if "_scaled_runs" not in vars(path):
        ratios = [x.as_integer_ratio() for p in path.points for x in p]
        q = math.lcm(*(b for _, b in ratios))
        flat = [a for a, _ in ratios] if q == 1 else [a * (q // b) for a, b in ratios]
        object.__setattr__(path, "_scaled_runs", (q, _runs(map(int.__sub__, flat[d:], flat[:-d]), d)))
    return vars(path)["_scaled_runs"]


def _chen_numerators(path: PiecewiseLinearPath, k_max: int):
    """The signature levels as numerators ``N_m`` and their denominators
    ``m! q^m``; see :func:`signature`.  The runs come from
    :func:`_scaled_runs`, and each run lists its nonzero letters once,
    against per-call tables."""
    d = path.d
    q, runs = _scaled_runs(path, k_max)
    dens = [math.factorial(m) * q**m for m in range(k_max + 1)]
    if not runs:
        return [[1]] + [[0] * d**m for m in range(1, k_max + 1)], dens
    # slot bound: |N_m(w)| = m! q^m |S_m(w)| <= V^m < 2^(B - 1) for V the sum over
    # runs of max_l |u_l|, as entrywise |exp(u / q)| <= exp(max_l |u_l| / q) times
    # the all-ones tensor; so each final N_m(w) fits its B-bit slot
    V = sum(max(map(abs, u)) for u in runs)
    B = slot_width(k_max * (V.bit_length() + 1) + 2)
    # u (x) X, for X of level j, is the sum of u_l X << shifts[j][l] over the letters l
    shifts = [[l * d**j * B for l in range(d)] for j in range(k_max)]
    # only earlier runs read binomials, and a path at d = 1 has one run at most
    binomials = [[math.comb(m, j) for j in range(m + 1)] for m in range(k_max + 1)] if runs[1:] else []
    letters = [[(x, l) for l, x in enumerate(u) if x] for u in runs]
    packed = [1]
    for shift in shifts:
        packed.append(sum(x * packed[-1] << shift[l] for x, l in letters[-1]))
    for nonzero in reversed(letters[:-1]):
        first = sum(x << l * B for x, l in nonzero)
        for m in range(k_max, 0, -1):
            acc, binomial = m * packed[1] + first, binomials[m]
            for j in range(2, m + 1):
                new, shift = binomial[j] * packed[j], shifts[j - 1]
                for x, l in nonzero:
                    new += x * acc << shift[l]
                acc = new
            packed[m] = acc
    nums = [read_slots(slot_bytes(packed[m], slot_mask(B, d**m)), B) for m in range(k_max + 1)]
    if sys.byteorder == "big":
        # memory order is slot order reversed there
        nums = [level[::-1] for level in nums]
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
    Packing is linear, so it is exact.  Every final ``|N_m(w)| <= V^m``, for
    ``V`` the sum over the runs of ``max_l |u_l|``, fits ``k_max
    (bit_length(V) + 1) + 2`` bits, and the slot ``B`` is that need as
    :func:`~thrallkit.tensors.slot_width` of the shared slot codec rounds
    it: 8, 16, 32 or 64 bits, else whole bytes.  Each level is read out once,
    at the end, by :func:`~thrallkit.tensors.read_slots`: one
    ``memoryview.cast``, or one ``int.from_bytes`` a slot above 64 bits.

    Each level hands ``N_m`` over ``m! q^m``, sized by construction, to
    ``Tensor._built``, which reduces it to lowest terms.  The update runs
    once per path object and truncation: the path keeps the levels of the
    highest truncation computed so far in its instance dict, beside its
    fields (equality, hashing and repr ignore them), and
    :func:`log_signature` and lower truncations share them.  Level ``m``
    does not depend on ``k_max``, so a lower truncation is a slice; a higher
    one runs the update again, size cap included.

    Raises :class:`~thrallkit.words.ResourceLimitError`, before allocating
    any level, when the series would hold more than
    :data:`~thrallkit.tensors.SIGNATURE_ENTRIES_MAX` entries (``1 + d + ..
    + d^k_max``), as counted by :func:`~thrallkit.tensors.check_entries`.
    """
    levels = path.__dict__.get("_chen_levels")
    if levels is None or not 0 <= k_max < len(levels):
        nums, dens = _chen_numerators(path, k_max)
        levels = tuple(Tensor._built(path.d, m, n, den) for m, (n, den) in enumerate(zip(nums, dens)))
        object.__setattr__(path, "_chen_levels", levels)
    return TensorSeries(path.d, levels[: k_max + 1])


def log_signature(path: PiecewiseLinearPath, k_max: int) -> TensorSeries:
    """Truncated logarithm of the signature; levels are Lie elements.

    When every run of :func:`_scaled_runs` is parallel to the first (at d =
    1, or on a line), the signature is ``exp(v)`` for the total increment
    ``v``, so the log is ``v`` at level 1 and zero above.  Otherwise it is
    :func:`thrallkit.free_lie.log_truncated` of :func:`signature`, whose
    levels share the path's one Chen update; both run on integer
    numerators.  The path keeps the log levels of its highest truncation
    beside the signature's: log level ``m`` reads only signature levels up
    to ``m``, so a lower truncation is a slice.  Same size cap as
    :func:`signature`.
    """
    levels = path.__dict__.get("_log_levels")
    if levels is None or not 0 <= k_max < len(levels):
        d, (q, runs) = path.d, _scaled_runs(path, k_max)
        if all(a * y == x * b for u in runs[1:] for (a, b), (x, y) in combinations(zip(runs[0], u), 2)):
            v = Tensor._built(d, 1, [sum(column) for column in zip(*runs)] or [0] * d, q)
            levels = TensorSeries.from_levels(d, k_max, {1: v}).levels
        else:
            from .free_lie import log_truncated

            levels = log_truncated(signature(path, k_max)).levels
        object.__setattr__(path, "_log_levels", levels)
    return TensorSeries(path.d, levels[: k_max + 1])


def levy_area(series: TensorSeries) -> Fraction:
    """The planar invariant (T_12 - T_21) / 2, :func:`levy_functional`'s value."""
    return levy_functional().evaluate(series)


def levy_functional() -> WordFunctional:
    """The degree-2 planar functional ((12) - (21)) / 2."""
    return WordFunctional(
        2, {(1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 2)}
    )
