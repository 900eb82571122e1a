"""Free Lie algebra on the Lyndon basis, truncated exp/log, and the graded
decomposition of tensor space induced by the exponential parametrization.

The standard bracketing of a Lyndon word ``w`` of length >= 2 splits
``w = u v`` with ``v`` the lexicographically smallest proper suffix (the
classical right factorization; ``u`` and ``v`` are then Lyndon) and maps
``w`` to ``[b(u), b(v)]``.  Like every word polynomial here it is held as a
sparse map from flat word index (see :mod:`thrallkit.words`) to integer, with
``u v`` at ``index(u) d^|v| + index(v)``; words appear only where they are
the interface: Lyndon words, :attr:`LieElement.coeffs`, Lyndon coordinates.

The truncated exponential and logarithm share one kernel,
:func:`_power_series`: it evaluates sum_n c_n X^n (c_n = 1/n! or
(-1)^(n+1)/n) in Horner form on the levels' integer numerators (each
tensor's ``nums`` over its ``den``, see :mod:`thrallkit.tensors`) and hands
each output level's numerators to ``Tensor._built``.  The graded
bases, the decomposition backends and :func:`lie_coordinates` likewise run
on integers, so no Fraction is built per entry.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from . import linalg
from .tensors import SIGNATURE_ENTRIES_MAX, Tensor, TensorSeries, weight_patterns
from .words import (
    Partition,
    ResourceLimitError,
    Word,
    check_partition,
    distinct_orderings,
    is_lyndon,
    lyndon_words,
    multiplicity_profile,
    partitions,
    value_type,
    word_to_index,
)


def _concat_into(out: dict, a: dict, b: dict, sb: int, scale: int = 1) -> dict:
    """Add ``scale`` times the concatenation product ``a b`` of flat
    polynomials into ``out``, with ``sb = d^n`` for ``b``'s word length ``n``."""
    for x, ca in a.items():
        x, ca = x * sb, ca * scale
        for y, cb in b.items():
            out[x + y] = out.get(x + y, 0) + ca * cb
    return out


def _commutator(a: dict, b: dict, sa: int, sb: int) -> dict[int, int]:
    """``a b - b a`` for flat polynomials, ``sa = d^|a|``, ``sb = d^|b|``; zeros dropped."""
    out = _concat_into(_concat_into({}, a, b, sb), b, a, sa, -1)
    return {i: c for i, c in out.items() if c}


def _symmetrized_product(labels, factors) -> dict[int, int]:
    """Sum over the distinct orderings of the multiset ``labels`` of the
    concatenation product of their factors in that order, ``factors[label]``
    being a flat polynomial and ``d^n`` for the length ``n`` of its words."""
    out: dict[int, int] = {}
    for order in distinct_orderings(labels):
        term = {0: 1}
        for label in order:
            term = _concat_into({}, term, *factors[label])
        _concat_into(out, term, {0: 1}, 1)  # out += term
    return {i: c for i, c in out.items() if c}


def _tensor(d: int, k: int, poly: dict[int, int], den: int) -> Tensor:
    """The order-k tensor of a flat polynomial of integer numerators over ``den``."""
    return Tensor._built(d, k, [poly.get(i, 0) for i in range(d**k)], den)


def standard_factorization(word: Word) -> tuple[Word, Word]:
    """Right standard factorization of a Lyndon word of length >= 2."""
    if len(word) < 2 or not is_lyndon(word):
        raise ValueError(f"{word} is not a Lyndon word of length >= 2")
    suffix = min(word[i:] for i in range(1, len(word)))
    return word[: len(word) - len(suffix)], suffix


@cache
def bracket_expansion(word: Word, d: int) -> dict[int, int]:
    """The standard bracketing of a Lyndon word over {1..d} as a flat polynomial,
    the commutator of its standard factors' expansions: the one bracket cache."""
    if not is_lyndon(word):
        raise ValueError(f"{word} is not a Lyndon word")
    if len(word) == 1:
        return {word_to_index(word, d): 1}
    u, v = standard_factorization(word)
    return _commutator(bracket_expansion(u, d), bracket_expansion(v, d), d ** len(u), d ** len(v))


def lyndon_bracketing(word: Word, d: int) -> Tensor:
    """Dense tensor of the standard bracketing of a Lyndon word over {1..d}."""
    return _tensor(d, len(word), bracket_expansion(tuple(word), d), 1)


def lie_basis(d: int, k: int) -> list[Tensor]:
    """Bracketings of the Lyndon words of length k: a basis of the degree-k
    graded Lie piece inside the k-fold tensor power."""
    return [lyndon_bracketing(w, d) for w in lyndon_words(d, k)]


@value_type
class LieElement:
    """Element of the truncated free Lie algebra in Lyndon coordinates.

    ``coeffs`` maps Lyndon words of length 1..k_max over {1..d} to rationals;
    the constructor checks each word and drops zeros, and keeps them as a
    read-only mapping.  Builders whose words are Lyndon by construction
    (:func:`lie_bracket`, :func:`random_lie_element`) skip the checks
    through ``_built`` (see :func:`~thrallkit.words.value_type`).
    """

    d: int
    k_max: int
    coeffs: MappingProxyType[Word, Fraction]

    def __init__(self, d: int, k_max: int, coeffs: dict[Word, Fraction] | None = None) -> None:
        cleaned = {}
        for word, c in (coeffs or {}).items():
            word = tuple(word)
            if not is_lyndon(word):
                raise ValueError(f"{word} is not a Lyndon word")
            if not 1 <= len(word) <= k_max:
                raise ValueError(f"word {word} has length outside 1..{k_max}")
            if any(not 1 <= letter <= d for letter in word):
                raise ValueError(f"{word} has letters outside 1..{d}")
            c = Fraction(c)
            if c != 0:
                cleaned[word] = c
        self._reduce((d, k_max, cleaned))

    def _reduce(self, fields) -> None:
        """Write the fields ``(d, k_max, coeffs)``, ``coeffs`` read-only."""
        d, k_max, coeffs = fields
        self.__dict__.update(d=d, k_max=k_max, coeffs=MappingProxyType(coeffs))

    def _terms(self, k: int) -> tuple[int, dict[int, int]]:
        """The degree-k part: bracket expansions summed on integer numerators
        over one denominator, as a flat polynomial."""
        words = [w for w in self.coeffs if len(w) == k]
        den, nums = linalg.integer_numerators(self.coeffs[w] for w in words)
        acc: dict[int, int] = {}
        for word, n in zip(words, nums):
            _concat_into(acc, {0: n}, bracket_expansion(word, self.d), self.d**k)
        return den, acc

    def level(self, k: int) -> Tensor:
        """The degree-k homogeneous part, expanded as a dense tensor."""
        den, terms = self._terms(k)
        return _tensor(self.d, k, terms, den)

    def to_series(self, k_max: int) -> TensorSeries:
        """Embed into the tensor algebra to level ``k_max`` (level 0 is zero)."""
        return TensorSeries.from_levels(
            self.d, k_max, {k: self.level(k) for k in range(1, k_max + 1)}
        )


# ---------------------------------------------------------------------------
# truncated exponential and logarithm


@cache
def _horner_weights(k_max: int, log: bool) -> tuple[int, tuple[int, ...]]:
    """The coefficients ``c_n``, n = 0..k_max, of exp (``1/n!``) or of log (0,
    then ``(-1)^(n+1)/n``) as integers over one denominator, once per ``k_max``."""
    if log:
        scale = math.lcm(*range(1, k_max + 1))
        return scale, (0, *((-1) ** (n + 1) * (scale // n) for n in range(1, k_max + 1)))
    scale = math.factorial(k_max)
    return scale, tuple(scale // math.factorial(n) for n in range(k_max + 1))


def _power_series(series: TensorSeries, scale: int, weights: tuple[int, ...]) -> TensorSeries:
    """The truncated power series sum_{n=0..K} c_n X^n on integer numerators,
    for ``c_n = weights[n] / scale``.

    ``X`` is the series with level 0 dropped: level ``a = 1..K`` is
    ``nums[a] / dens[a]``, the level's numerators and denominator.  With ``S
    = scale`` and ``s_n = weights[n]``, the sum is ``R_0 / S`` for the Horner
    recursion ``R_K = s_K``, ``R_j = s_j + X (x) R_(j+1)``, where ``R_j`` is
    only needed up to level ``K - j``.  Level ``m`` of every ``R_j`` is held
    as integer numerators over ``D_m = lcm_a D_(m-a) dens[a]`` (``D_0 =
    1``), so each term ``X_a (x) R_(m-a)`` is an integer outer product once
    ``X_a`` is scaled by ``D_m / (D_(m-a) dens[a])``; each output level,
    sized by construction, is handed to ``Tensor._built`` as its numerators
    over ``S D_m``.
    """
    d, k_max = series.d, series.k_max
    nums = [level.nums for level in series.levels]
    dens = [level.den for level in series.levels]
    # D_m of the docstring
    level_dens = [1]
    for m in range(1, k_max + 1):
        level_dens.append(
            math.lcm(*(level_dens[m - a] * dens[a] for a in range(1, m + 1)))
        )
    nonzero = [a for a in range(1, k_max + 1) if any(nums[a])]
    # scaled[m] lists (a, X_a scaled into D_m) for the nonzero levels a <= m
    scaled: list[list[tuple[int, list[int]]]] = [[]]
    for m in range(1, k_max + 1):
        row = []
        for a in nonzero:
            if a > m:
                break
            f = level_dens[m] // (level_dens[m - a] * dens[a])
            row.append((a, nums[a] if f == 1 else [f * x for x in nums[a]]))
        scaled.append(row)
    r = [[weights[k_max]]]
    for j in range(k_max - 1, -1, -1):
        nxt = [[weights[j]]]
        for m in range(1, k_max - j + 1):
            acc = None
            for a, xa in scaled[m]:
                term = [x * y for x in xa for y in r[m - a]]
                acc = term if acc is None else list(map(operator.add, acc, term))
            nxt.append(acc or [0] * d**m)
        r = nxt
    return TensorSeries(d, tuple(
        Tensor._built(d, m, level, scale * level_dens[m]) for m, level in enumerate(r)
    ))


def exp_truncated(series: TensorSeries) -> TensorSeries:
    """Truncated tensor exponential; input must have zero level 0.

    Evaluates sum_n X^n / n! with the integer-numerator Horner kernel
    :func:`_power_series` on the levels' numerators.
    """
    if not series.level(0).is_zero():
        raise ValueError("exp requires level 0 equal to 0")
    return _power_series(series, *_horner_weights(series.k_max, log=False))


def log_truncated(series: TensorSeries) -> TensorSeries:
    """Truncated tensor logarithm; input must have level 0 equal to 1.

    Evaluates sum_n (-1)^(n+1) (S - 1)^n / n with the integer-numerator
    Horner kernel :func:`_power_series` on the levels' numerators.
    """
    if series.level(0) != Tensor.scalar(series.d, 1):
        raise ValueError("log requires level 0 equal to 1")
    return _power_series(series, *_horner_weights(series.k_max, log=True))


def phi_k(element: LieElement, k: int) -> Tensor:
    """Level-k image of the exponential of a truncated Lie element.

    Equals the sum over compositions (a_1, .., a_l) of k of
    (1/l!) T_(a_1) x ... x T_(a_l) with T_(i) the degree-i part.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return exp_truncated(element.to_series(k)).level(k)


def f_lambda(element: LieElement, lam: Partition) -> Tensor:
    """The lam-indexed summand of :func:`phi_k`.

    Sums (1/l!) T_(a_1) x .. x T_(a_l) over the distinct permutations
    (a_1, .., a_l) of lam.
    """
    lam, d = check_partition(lam), element.d
    parts = {i: element._terms(i) for i in set(lam)}
    den = math.factorial(len(lam)) * math.prod(parts[a][0] for a in lam)
    terms = _symmetrized_product(lam, {a: (poly, d**a) for a, (_, poly) in parts.items()})
    return _tensor(d, sum(lam), terms, den)


# ---------------------------------------------------------------------------
# graded subspaces and the decomposition of tensor space


def _w_basis(lam: Partition, d: int, contents):
    """The lam-graded basis vectors whose content (sorted letters) is among
    ``contents``, as ``(content, vector)`` pairs with flat polynomial
    vectors: one vector per multiset of Lyndon words realizing lam, the sum
    over its distinct orderings of the products of their bracketings."""
    per_size = [
        itertools.combinations_with_replacement(lyndon_words(d, i), a)
        for i, a in sorted(multiplicity_profile(lam).items())
    ]
    for combo in itertools.product(*per_size):
        words = [w for group in combo for w in group]
        if (content := tuple(sorted(itertools.chain(*words)))) in contents:
            factors = {w: (bracket_expansion(w, d), d ** len(w)) for w in words}
            yield content, _symmetrized_product(words, factors)


def _solve_blocks(d: int, k: int):
    """The graded projectors built by the solve, in the form that
    :func:`thrallkit.group_algebra.graded_projections` reduces and stacks:
    for each shape of :func:`thrallkit.tensors.weight_patterns` in turn,
    ``(den, rows)`` per partition lam of k, ``rows`` the integer matrix of
    lam's projector on the shape's first block over ``den``, the
    denominator of that block's inverse.

    The concatenated graded bases form a d^k x d^k change of basis.  Each
    basis vector lies in one weight block (letter content), so the matrix is
    block-diagonal with square blocks.  The projector onto each graded
    piece along the others is GL_d-equivariant, since every piece is a
    GL_d-submodule, and the permutation matrices lie in GL_d: relabelling
    letters maps the first block of a shape onto each block of that shape
    in the order of :func:`thrallkit.tensors.weight_patterns` and commutes
    with the projectors, so these blocks share their matrices.  Only the
    first block of each shape is built, from the basis vectors of its
    content, and inverted once by the exact kernel, as the shape is reached;
    lam's projector there is ``rows_lam inverse[lo:hi] / den``, summed as
    integer rows of the inverse (:func:`_compose`), where ``rows_lam[t]``
    holds the entries at the block's ``t``-th flat index of its basis
    columns ``lo..hi-1`` from the lam-graded basis.
    """
    shapes = weight_patterns(d, k)
    # each shape's first block by its content, the block's first word
    shape_of = {words[0]: shape for shape, (words, _) in shapes.items()}
    columns: dict[tuple[int, ...], list] = {shape: [] for shape in shapes}
    for lam in partitions(k):
        for content, vec in _w_basis(lam, d, shape_of):
            columns[shape_of[content]].append((lam, vec))
    for shape, (_, blocks) in shapes.items():
        cols, first, b = columns.pop(shape), blocks[0], len(blocks[0])
        if len(cols) != b:
            raise ArithmeticError("graded bases do not fill the tensor power")
        try:
            inverse, den = linalg.integer_inverse([[vec.get(i, 0) for _, vec in cols] for i in first])
        except ZeroDivisionError:
            raise ArithmeticError("decomposition solve failed") from None
        composed = _compose(cols, {i: t for t, i in enumerate(first)}, inverse)
        yield [(den, composed.get(lam) or [[0] * b for _ in range(b)]) for lam in partitions(k)]


@cache
def _partition_count(k: int, limit: int) -> int:
    """p(k) by Euler's pentagonal recurrence, or the first p(n) above
    ``limit`` for n <= k: p never decreases, so then p(k) > limit too."""
    p = [1]
    while len(p) <= k and p[-1] <= limit:
        n = len(p)
        # the generalized pentagonal numbers j(3j - 1)/2 at j = 1, -1, 2, -2, ..
        pentagonal = ((i, j * (3 * j - 1) // 2) for i in range(1, n + 1) for j in (i, -i))
        p.append(sum((-1) ** (i + 1) * p[n - g] for i, g in pentagonal if g <= n))
    return p[-1]


def _compose(cols, place, inverse) -> dict[Partition, list[list[int]]]:
    """The matrix ``rows_lam inverse[lo:hi]`` of :func:`_solve_blocks`, as a
    list of rows, for each lam among the basis columns ``cols``, with
    ``place`` the place in the block of each flat index.

    Row ``t`` of lam's matrix is the sum of ``c * inverse[r]`` over the
    nonzero entries ``c`` at the block's ``t``-th index of lam's basis
    vectors ``r``: plain sums of Python int rows, exact at any entry size.
    """
    b = len(inverse)
    out: dict[Partition, list[list[int]]] = {}
    for (lam, vec), row in zip(cols, inverse):
        rows = out.setdefault(lam, [[0] * b for _ in range(b)])
        for i, c in vec.items():
            t = place[i]
            rows[t] = list(map(operator.add, rows[t], map(c.__mul__, row)))
    return out


def thrall_decompose(tensor: Tensor, method: str = "auto") -> dict[Partition, Tensor]:
    """Split a tensor into its graded components, one per partition of k.

    Two independent constructions of the graded projectors, each stacked
    in lowest terms once per (d, k) and applied by the one packed kernel of
    :func:`thrallkit.group_algebra.graded_projections`: ``"idempotent"``
    takes the closed-form projector family (which raises
    :class:`ResourceLimitError` above its degree cap
    :data:`~thrallkit.group_algebra.K_MAX`), ``"solve"`` the inverse of the
    concatenated graded bases (:func:`_solve_blocks`).  ``"auto"`` picks
    before anything is built: the closed form for k <= ``K_MAX``, the solve
    above it.  Degree 0 is the trivial piece: every route returns an order-0
    tensor as its one component, at the empty partition.  Where the answer's
    p(k) components of d^k entries pass SIGNATURE_ENTRIES_MAX in all, every
    route raises :class:`ResourceLimitError` before any partition is listed.
    A zero tensor that passes both caps is its own p(k) components, and no
    construction is built for it.
    """
    if method not in ("auto", "solve", "idempotent"):
        raise ValueError(f"unknown method {method!r}")
    d, k, limit = tensor.d, tensor.k, SIGNATURE_ENTRIES_MAX // tensor.d**tensor.k
    if _partition_count(k, limit) > limit:
        raise ResourceLimitError(f"graded decomposition of d={d} to order {k} needs more "
                                 f"than {SIGNATURE_ENTRIES_MAX} entries over its components")
    from . import group_algebra

    solve = method == "solve" or (method == "auto" and k > group_algebra.K_MAX)
    if not any(tensor.nums) and (solve or k <= group_algebra.K_MAX):
        # every projector maps zero to zero, so no construction is built
        return dict.fromkeys(partitions(k), tensor)
    if solve:
        return group_algebra.graded_projections(tensor, _solve_blocks)
    return group_algebra.graded_projections(tensor)


def is_lie_element(tensor: Tensor) -> bool:
    """Lie membership: order at least one and :func:`lie_coordinates`'
    back-substitution leaves no residual."""
    return tensor.k >= 1 and _back_substitute(list(tensor.nums), tensor.d, tensor.k) is not None


def lie_coordinates(tensor: Tensor) -> dict[Word, Fraction] | None:
    """Lyndon coordinates of a tensor, or None if it is not a Lie element.

    Triangular back-substitution: the standard bracketing of a Lyndon word
    ``w`` has coefficient 1 at ``w`` and otherwise only lex-greater words
    (Reutenauer, *Free Lie Algebras*, Thm 5.1).  Walking the Lyndon words in
    ascending order, the coefficient of ``w`` is the residual entry at
    ``w``; subtracting its bracketing leaves the remaining words untouched.
    The tensor is a Lie element iff the residual ends at zero.  The walk runs
    on a copy of the integer numerators, by flat index (:func:`_back_substitute`).
    """
    coords = _back_substitute(list(tensor.nums), tensor.d, tensor.k)
    return None if coords is None else {w: Fraction(c, tensor.den) for w, c in coords.items()}


@cache
def _lyndon_table(d: int, k: int) -> tuple[tuple[Word, int], ...]:
    """The Lyndon words of length k in lex order, each with its flat index."""
    return tuple((w, word_to_index(w, d)) for w in lyndon_words(d, k))


def _back_substitute(residual: list[int], d: int, k: int) -> dict[Word, int] | None:
    """The integer Lyndon coordinates of the integer numerators ``residual``
    (in index order, consumed), or None when a residual is left; each word
    met subtracts its :func:`bracket_expansion`, and no other is expanded."""
    coords = {}
    for w, i in _lyndon_table(d, k):
        c = residual[i]
        if c:
            coords[w] = c
            for j, e in bracket_expansion(w, d).items():
                residual[j] -= c * e
    return None if any(residual) else coords


# [P_u, P_v] in integer Lyndon coordinates for Lyndon words u, v over
# {1..d}, keyed by (u, v, d): the Lyndon basis's structure constants, filled
# by lie_bracket in both orders as it meets each pair, so bounded by the pairs met
_STRUCTURE: dict[tuple[Word, Word, int], tuple[tuple[Word, int], ...]] = {}


def lie_bracket(a: LieElement, b: LieElement) -> LieElement:
    """Commutator of truncated Lie elements, in Lyndon coordinates.

    The sum of ``a_u b_v [P_u, P_v]`` over the pairs of Lyndon words with
    ``|u| + |v|`` at most the common truncation, on integer numerators over
    one denominator per element.  The Lyndon basis is a Z-basis, so each
    ``[P_u, P_v]`` has integer Lyndon coordinates, read back once per pair
    from the commutator that builds :func:`bracket_expansion` by
    :func:`lie_coordinates`' back-substitution and kept in ``_STRUCTURE``
    with its negative ``[P_v, P_u]``.  One Fraction is built per output
    word, and the words, Lyndon by construction, go to
    :meth:`LieElement._built` unchecked.
    """
    if a.d != b.d:
        raise ValueError("dimension mismatch")
    d, k_max = a.d, min(a.k_max, b.k_max)
    aden, left = linalg.integer_numerators(a.coeffs.values())
    bden, right = linalg.integer_numerators(b.coeffs.values())
    right = list(zip(b.coeffs, right))
    nums: dict[Word, int] = {}
    for u, x in zip(a.coeffs, left):
        room = k_max - len(u)
        for v, y in right:
            if len(v) > room:
                continue
            constants = _STRUCTURE.get((u, v, d))
            if constants is None:
                su, sv = d ** len(u), d ** len(v)
                poly = _commutator(bracket_expansion(u, d), bracket_expansion(v, d), su, sv)
                coords = _back_substitute([poly.get(i, 0) for i in range(su * sv)], d, len(u) + len(v))
                if coords is None:
                    raise ArithmeticError("commutator left the graded Lie subspace")
                constants = _STRUCTURE[u, v, d] = tuple(coords.items())
                _STRUCTURE[v, u, d] = tuple((w, -c) for w, c in constants)
            xy = x * y
            for w, c in constants:
                nums[w] = nums.get(w, 0) + xy * c
    den = aden * bden
    return LieElement._built(d, k_max, {w: Fraction(n, den) for w, n in nums.items() if n})


def random_lie_element(d: int, k_max: int, rng) -> LieElement:
    """Seeded random element: each Lyndon coefficient is ``n / m`` with
    ``|n| <= 4`` and ``1 <= m <= 3``."""
    coeffs: dict[Word, Fraction] = {}
    for k in range(1, k_max + 1):
        for w in lyndon_words(d, k):
            num = rng.randint(-4, 4)
            if num:
                coeffs[w] = Fraction(num, rng.randint(1, 3))
    return LieElement._built(d, k_max, coeffs)
