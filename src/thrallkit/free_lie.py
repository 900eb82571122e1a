"""Free Lie algebra on the Lyndon basis, truncated exp/log, and the graded
decomposition of tensor space induced by the exponential parametrization.

The standard bracketing of a Lyndon word ``w`` of length >= 2 splits
``w = u v`` with ``v`` the lexicographically smallest proper suffix (the
classical right factorization; ``u`` and ``v`` are then Lyndon) and maps
``w`` to ``[b(u), b(v)]``.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from . import linalg
from .tensors import SIGNATURE_ENTRIES_MAX, Tensor, TensorSeries, weight_patterns
from .words import (
    Partition,
    ResourceLimitError,
    Word,
    check_partition,
    distinct_orderings,
    index_to_word,
    is_lyndon,
    lyndon_words,
    multiplicity_profile,
    partitions,
    word_to_index,
)


def _concat_into(out: dict, a: dict, b: dict, scale: int = 1) -> dict:
    """Add ``scale`` times the concatenation product ``a b`` into ``out``."""
    for wa, ca in a.items():
        ca *= scale
        for wb, cb in b.items():
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
    return out


def _symmetrized_product(labels, expand) -> dict[Word, int]:
    """Sum over the distinct orderings of the multiset ``labels`` of the
    concatenation product of ``expand(label)`` in that order."""
    out: dict[Word, int] = {}
    for order in distinct_orderings(labels):
        term = {(): 1}
        for label in order:
            term = _concat_into({}, term, expand(label))
        _concat_into(out, term, {(): 1})  # out += term
    return {w: c for w, c in out.items() if c}


def standard_factorization(word: Word) -> tuple[Word, Word]:
    """Right standard factorization of a Lyndon word of length >= 2."""
    if len(word) < 2 or not is_lyndon(word):
        raise ValueError(f"{word} is not a Lyndon word of length >= 2")
    suffix = min(word[i:] for i in range(1, len(word)))
    return word[: len(word) - len(suffix)], suffix


@cache
def bracket_expansion(word: Word) -> dict[Word, int]:
    """Sparse integer expansion of the standard bracketing of a Lyndon word."""
    if not is_lyndon(word):
        raise ValueError(f"{word} is not a Lyndon word")
    if len(word) == 1:
        return {word: 1}
    bu, bv = map(bracket_expansion, standard_factorization(word))
    out = _concat_into(_concat_into({}, bu, bv), bv, bu, -1)
    return {w: c for w, c in out.items() if c}


def lyndon_bracketing(word: Word, d: int) -> Tensor:
    """Dense tensor of the standard bracketing of a Lyndon word over {1..d}."""
    return Tensor.from_dict(d, len(word), bracket_expansion(tuple(word)), 1)


def lie_basis(d: int, k: int) -> list[Tensor]:
    """Bracketings of the Lyndon words of length k: a basis of the degree-k
    graded Lie piece inside the k-fold tensor power."""
    return [lyndon_bracketing(w, d) for w in lyndon_words(d, k)]


@dataclass(frozen=True)
class LieElement:
    """Element of the truncated free Lie algebra in Lyndon coordinates.

    ``coeffs`` maps Lyndon words of length 1..k_max over {1..d} to rationals.
    """

    d: int
    k_max: int
    coeffs: dict[Word, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {}
        for word, c in self.coeffs.items():
            word = tuple(word)
            if not is_lyndon(word):
                raise ValueError(f"{word} is not a Lyndon word")
            if not 1 <= len(word) <= self.k_max:
                raise ValueError(f"word {word} has length outside 1..{self.k_max}")
            if any(not 1 <= letter <= self.d for letter in word):
                raise ValueError(f"{word} has letters outside 1..{self.d}")
            c = Fraction(c)
            if c != 0:
                cleaned[word] = c
        object.__setattr__(self, "coeffs", cleaned)

    def _terms(self, k: int) -> tuple[int, dict[Word, int]]:
        """The degree-k part: bracket expansions summed on integer numerators
        over one denominator."""
        words = [w for w in self.coeffs if len(w) == k]
        den, nums = linalg.integer_numerators(self.coeffs[w] for w in words)
        acc: dict[Word, int] = {}
        for word, n in zip(words, nums):
            _concat_into(acc, {(): n}, bracket_expansion(word))
        return den, acc

    def level(self, k: int) -> Tensor:
        """The degree-k homogeneous part, expanded as a dense tensor."""
        den, terms = self._terms(k)
        return Tensor.from_dict(self.d, k, terms, den)

    def to_series(self, k_max: int) -> TensorSeries:
        """Embed into the tensor algebra to level ``k_max`` (level 0 is zero)."""
        return TensorSeries.from_levels(
            self.d, k_max, {k: self.level(k) for k in range(1, k_max + 1)}
        )


# ---------------------------------------------------------------------------
# truncated exponential and logarithm


def _power_series(series: TensorSeries, coeffs: list[Fraction]) -> TensorSeries:
    """The truncated power series sum_{n=0..K} coeffs[n] X^n on integer numerators.

    ``X`` is the series with level 0 dropped: level ``a = 1..K`` is
    ``nums[a] / dens[a]``, the level's numerators and denominator.  With ``S``
    the lcm of the coefficient denominators and ``s_n = S coeffs[n]``, the
    sum is ``R_0 / S`` for the Horner recursion ``R_K = s_K``, ``R_j = s_j +
    X (x) R_(j+1)``, where ``R_j`` is only needed up to level ``K - j``.
    Level ``m`` of every ``R_j`` is held as integer numerators over
    ``D_m = lcm_a D_(m-a) dens[a]`` (``D_0 = 1``), so each term ``X_a (x)
    R_(m-a)`` is an integer outer product once ``X_a`` is scaled by ``D_m /
    (D_(m-a) dens[a])``; each output level, sized by construction, is
    handed to ``Tensor._built`` as its numerators over ``S D_m``.
    """
    d, k_max = series.d, series.k_max
    nums = [level.nums for level in series.levels]
    dens = [level.den for level in series.levels]
    scale, weights = linalg.integer_numerators(coeffs)
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
    coeffs = [Fraction(1, math.factorial(n)) for n in range(series.k_max + 1)]
    return _power_series(series, coeffs)


def log_truncated(series: TensorSeries) -> TensorSeries:
    """Truncated tensor logarithm; input must have level 0 equal to 1.

    Evaluates sum_n (-1)^(n+1) (S - 1)^n / n with the integer-numerator
    Horner kernel :func:`_power_series` on the levels' numerators.
    """
    if series.level(0) != Tensor.scalar(series.d, 1):
        raise ValueError("log requires level 0 equal to 1")
    coeffs = [0] + [Fraction((-1) ** (n + 1), n) for n in range(1, series.k_max + 1)]
    return _power_series(series, coeffs)


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
    lam = check_partition(lam)
    parts = {i: element._terms(i) for i in set(lam)}
    den = math.factorial(len(lam)) * math.prod(parts[a][0] for a in lam)
    terms = _symmetrized_product(lam, lambda a: parts[a][1])
    return Tensor.from_dict(element.d, sum(lam), terms, den)


# ---------------------------------------------------------------------------
# graded subspaces and the decomposition of tensor space


def _w_basis(lam: Partition, d: int, contents) -> tuple[dict[Word, int], ...]:
    """The lam-graded basis vectors whose sorted letters are among
    ``contents``, as sparse integer word polynomials: one vector per multiset
    of Lyndon words realizing lam, the sum over its distinct orderings of the
    products of their bracketings."""
    per_size = [
        itertools.combinations_with_replacement(lyndon_words(d, i), a)
        for i, a in sorted(multiplicity_profile(lam).items())
    ]
    combos = ([w for group in combo for w in group] for combo in itertools.product(*per_size))
    return tuple(
        _symmetrized_product(words, bracket_expansion)
        for words in combos
        if tuple(sorted(itertools.chain(*words))) in contents
    )


@cache
def _solve_blocks(d: int, k: int):
    """The graded projectors built by the solve, once per (d, k): ``(lam,
    den, groups)`` for each partition lam of k, ``groups`` the integer
    matrices of lam's projector over ``den`` (in lowest terms) per shape,
    in the form that :func:`thrallkit.group_algebra.graded_projections`
    applies.

    The concatenated graded bases form a d^k x d^k change of basis.  Each
    basis vector lies in one weight block (letter content), so the matrix is
    block-diagonal with square blocks.  The projector onto each graded
    piece along the others is GL_d-equivariant, since every piece is a
    GL_d-submodule, and the permutation matrices lie in GL_d: relabelling
    letters maps the first block of a shape onto each block of that shape
    in the order of :func:`thrallkit.tensors.weight_patterns` and commutes
    with the projectors, so these blocks share their matrices.  Only the
    first block of each shape is built, from the basis vectors of its
    content, and inverted once by the exact kernel; lam's projector there
    is ``rows_lam inverse[lo:hi] / den``, summed as integer rows of the
    inverse (:func:`_compose`), where ``rows_lam[t]`` holds the entries at
    the block's word ``t`` of its basis columns ``lo..hi-1`` from the
    lam-graded basis.
    """
    shapes = weight_patterns(d, k)
    # each shape's first block by its content, the block's first word
    shape_of = {index_to_word(blocks[0][0], d, k): shape for shape, blocks in shapes.items()}
    columns: dict[tuple[int, ...], list[tuple[Partition, dict[Word, int]]]] = {
        shape: [] for shape in shapes
    }
    for lam in partitions(k):
        for vec in _w_basis(lam, d, shape_of):
            columns[shape_of[tuple(sorted(next(iter(vec))))]].append((lam, vec))
    pieces: dict[Partition, list] = {lam: [] for lam in partitions(k)}
    for shape, blocks in shapes.items():
        cols, b = columns[shape], len(blocks[0])
        if len(cols) != b:
            raise ArithmeticError("graded bases do not fill the tensor power")
        words = [index_to_word(i, d, k) for i in blocks[0]]
        try:
            inverse, den = linalg.integer_inverse(
                [[vec.get(w, 0) for _, vec in cols] for w in words]
            )
        except ZeroDivisionError:
            raise ArithmeticError("decomposition solve failed") from None
        composed = _compose(cols, {w: t for t, w in enumerate(words)}, inverse)
        for lam, found in pieces.items():
            flat = composed.get(lam, [0] * (b * b))
            g = math.gcd(den, *flat)
            found.append((shape, blocks, flat, g, den // g))
    out = []
    for lam, found in pieces.items():
        # each piece over its own denominator in lowest terms, so over their
        # lcm the whole projector is in lowest terms
        den = math.lcm(*(q for *_, q in found))
        groups = {}
        for shape, blocks, flat, g, q in found:
            flat, b = [x // g * (den // q) for x in flat], len(blocks[0])
            groups[shape] = (tuple(tuple(flat[i : i + b]) for i in range(0, b * b, b)), blocks)
        out.append((lam, den, groups))
    return tuple(out)


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


def _compose(cols, place, inverse) -> dict[Partition, list[int]]:
    """The matrix ``rows_lam inverse[lo:hi]`` of :func:`_solve_blocks`,
    row-major, for each lam among the basis columns ``cols``, with
    ``place`` the place of each word of the block.

    Row ``t`` of lam's matrix is the sum of ``c * inverse[r]`` over the
    nonzero entries ``c`` at word ``t`` of lam's basis vectors ``r``: plain
    sums of Python int rows, exact at any entry size.
    """
    b = len(inverse)
    out: dict[Partition, list[list[int]]] = {}
    for (lam, vec), row in zip(cols, inverse):
        rows = out.setdefault(lam, [[0] * b for _ in range(b)])
        for w, c in vec.items():
            t = place[w]
            rows[t] = list(map(operator.add, rows[t], map(c.__mul__, row)))
    return {lam: list(itertools.chain.from_iterable(rows)) for lam, rows in out.items()}


def thrall_decompose(tensor: Tensor, method: str = "auto") -> dict[Partition, Tensor]:
    """Split a tensor into its graded components, one per partition of k.

    Two independent constructions of the graded projectors, each cached per
    (d, k) and applied by the one packed kernel of
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
    """
    if method not in ("auto", "solve", "idempotent"):
        raise ValueError(f"unknown method {method!r}")
    d, k, limit = tensor.d, tensor.k, SIGNATURE_ENTRIES_MAX // tensor.d**tensor.k
    if _partition_count(k, limit) > limit:
        raise ResourceLimitError(f"graded decomposition of d={d} to order {k} needs more "
                                 f"than {SIGNATURE_ENTRIES_MAX} entries over its components")
    from . import group_algebra

    if method == "solve" or (method == "auto" and tensor.k > group_algebra.K_MAX):
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
    on a copy of the integer numerators, by flat index (:func:`_bracket_row`).
    """
    coords = _back_substitute(list(tensor.nums), tensor.d, tensor.k)
    return None if coords is None else {w: Fraction(c, tensor.den) for w, c in coords.items()}


@cache
def _lyndon_table(d: int, k: int) -> tuple[tuple[Word, int], ...]:
    """The Lyndon words of length k in lex order, each with its flat index."""
    return tuple((w, word_to_index(w, d)) for w in lyndon_words(d, k))


@cache
def _bracket_row(word: Word, d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The flat indices and integer coefficients of a Lyndon word's
    :func:`bracket_expansion`: its own index first, at coefficient 1, then
    the lex-greater words in index order."""
    return tuple(zip(*sorted((word_to_index(u, d), c) for u, c in bracket_expansion(word).items())))


def _back_substitute(residual: list[int], d: int, k: int) -> dict[Word, int] | None:
    """The integer Lyndon coordinates of the integer numerators ``residual``
    (in index order, consumed), or None when a residual is left; a sparse
    residual builds only the rows of the words it meets."""
    coords = {}
    for w, i in _lyndon_table(d, k):
        c = residual[i]
        if c:
            coords[w] = c
            for j, e in zip(*_bracket_row(w, d)):
                residual[j] -= c * e
    return None if any(residual) else coords


def lie_bracket(a: LieElement, b: LieElement) -> LieElement:
    """Commutator of truncated Lie elements, in Lyndon coordinates.

    Level pieces are bracketed on their integer numerators by flat index
    (the word ``u v`` sits at ``index(u) d^|v| + index(v)``), and the
    Lyndon coordinates recovered by :func:`lie_coordinates`' triangular
    back-substitution; graded pieces above the common truncation are dropped.
    """
    if a.d != b.d:
        raise ValueError("dimension mismatch")
    d, k_max = a.d, min(a.k_max, b.k_max)
    left, right = ([(den, [(word_to_index(w, d), c) for w, c in terms.items()])
                    for den, terms in map(x._terms, range(k_max + 1))] for x in (a, b))
    coeffs: dict[Word, Fraction] = {}
    for i in range(1, k_max):
        for j in range(1, k_max - i + 1):
            (aden, u), (bden, v) = left[i], right[j]
            if not (u and v):
                continue
            commutator, si, sj = [0] * d ** (i + j), d**i, d**j
            for x, cx in u:
                for y, cy in v:
                    commutator[x * sj + y] += cx * cy
                    commutator[y * si + x] -= cx * cy
            coords = _back_substitute(commutator, d, i + j)
            if coords is None:
                raise ArithmeticError("commutator left the graded Lie subspace")
            for w, c in coords.items():
                coeffs[w] = coeffs.get(w, 0) + Fraction(c, aden * bden)
    return LieElement(a.d, k_max, {w: c for w, c in coeffs.items() if c})


def random_lie_element(d: int, k_max: int, rng) -> LieElement:
    """Seeded random element: each Lyndon coefficient is ``n / m`` with
    ``|n| <= 4`` and ``1 <= m <= 3``."""
    coeffs: dict[Word, Fraction] = {}
    for k in range(1, k_max + 1):
        for w in lyndon_words(d, k):
            num = rng.randint(-4, 4)
            if num:
                coeffs[w] = Fraction(num, rng.randint(1, 3))
    return LieElement(d, k_max, coeffs)
