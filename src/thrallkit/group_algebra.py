"""The rational group algebra of the symmetric group acting on tensor slots.

An element holds integer numerators over one denominator, as a
:class:`~thrallkit.tensors.Tensor` does; every builder and the product work on
those integers, and :attr:`GroupAlgebraElement.terms` is built on first read.

The one product is :func:`ga_multiply`, the convolution extending
``(sigma tau)(i) = sigma(tau(i))``.
Elements act on tensors by :func:`ga_act`, the package's one slot action
(fixed here once):

    ga_act(x, T)[w] = sum_sigma x_sigma T[w o sigma]      (w o sigma)_i = w_{sigma(i)}

so on decomposable tensors the one-term element ``sigma`` moves the factor
in slot ``i`` to slot ``sigma^{-1}(i)``,

    sigma . (v_1 x ... x v_k) = v_{sigma^{-1}(1)} x ... x v_{sigma^{-1}(k)},

which makes it a left action: ``(sigma tau) . T = sigma . (tau . T)``.  For
elements fixed by ``sigma -> sigma^{-1}`` (all degree-3 projectors below,
every central idempotent) this agrees with the mirrored action; in general the
two differ and this package consistently uses the slot action above.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .permutations import (
    Perm,
    all_permutations,
    compose,
    cycle_type,
    inverse,
    perm_to_word,
    sign,
    word_to_perm,
)
from .tensors import Tensor, weight_blocks
from .words import (
    Partition,
    ResourceLimitError,
    Word,
    YoungTableau,
    check_partition,
    distinct_orderings,
    index_to_word,
    partitions,
)

# Degree cap for the projector family, checked by :func:`_projector_family`
# before any table is built; reproduction of the published values needs
# k <= 4.  The closed form has k! terms per projector; lifting the cap is an
# extension point, not a supported path.
K_MAX = 5


@dataclass(frozen=True)
class GroupAlgebraElement:
    """Rational linear combination of permutations of {0..k-1}: a sparse map
    ``nums`` from permutation to integer numerator over one denominator ``den``.

    ``GroupAlgebraElement(k, terms)`` reads rationals and ``(k, nums, den)``
    integers over ``den >= 1``; both are reduced to lowest terms (zero has
    ``den == 1``), so equal elements have equal fields.  The Fractions
    :attr:`terms` (permutation -> Fraction) are built on first read.
    """

    k: int
    nums: dict[Perm, int]
    den: int | None = None

    def __post_init__(self) -> None:
        den, nums = self.den, self.nums
        if den is None:
            den, values = linalg.integer_numerators(map(Fraction, nums.values()))
            nums = dict(zip(nums, values))
        elif den < 1:
            raise ValueError(f"den must be >= 1, got {den}")
        full = list(range(self.k))
        for perm in nums:
            if sorted(perm) != full:
                raise ValueError(f"{perm} is not a permutation of 0..{self.k - 1}")
        # math.gcd also rejects numerators that are not integers
        g = math.gcd(den, *nums.values())
        object.__setattr__(self, "nums", {tuple(p): n // g for p, n in nums.items() if n})
        object.__setattr__(self, "den", den // g)

    @functools.cached_property
    def terms(self) -> dict[Perm, Fraction]:
        """The coefficients as Fractions, built once, on first read."""
        return {p: Fraction(n, self.den) for p, n in self.nums.items()}

    @staticmethod
    def zero(k: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement(k, {}, 1)

    def reverse(self) -> "GroupAlgebraElement":
        """Image under the antipode sigma -> sigma^{-1}."""
        return GroupAlgebraElement(self.k, {inverse(p): n for p, n in self.nums.items()}, self.den)

    def _check(self, other: "GroupAlgebraElement") -> None:
        if self.k != other.k:
            raise ValueError(f"degree mismatch: {self.k} vs {other.k}")


def ga_multiply(x: GroupAlgebraElement, y: GroupAlgebraElement) -> GroupAlgebraElement:
    """Convolution product with (sigma tau)(i) = sigma(tau(i)).

    Accumulates integer numerators over the product of the denominators;
    ``itemgetter(*tau)`` composes ``sigma o tau`` in one C call.
    """
    x._check(y)
    acc: dict[Perm, int] = {}
    if x.k < 2:
        # the identity alone; itemgetter needs two indices to return a tuple
        acc = {p: a * b for p, a in x.nums.items() for b in y.nums.values()}
    else:
        xs = x.nums.items()
        for q, b in y.nums.items():
            at = operator.itemgetter(*q)
            for p, a in xs:
                pq = at(p)
                acc[pq] = acc.get(pq, 0) + a * b
    return GroupAlgebraElement(x.k, acc, x.den * y.den)


def ga_act(x: GroupAlgebraElement, tensor: Tensor) -> Tensor:
    """Apply an element to a tensor through the slot action.

    ``out[u] = sum_sigma x_sigma T[u o sigma]``: the integer block matrices
    of :func:`_block_operator` applied to the tensor's integer numerators by
    :func:`_apply_blocks`, one mat-vec per weight block.
    """
    if x.k != tensor.k:
        raise ValueError(f"degree mismatch: element {x.k}, tensor order {tensor.k}")
    groups = _block_operator(x, tensor.d)
    return Tensor(tensor.d, tensor.k, _apply_blocks(groups, tensor.nums), x.den * tensor.den)


@functools.cache
def _block_places(counts: tuple[int, ...]) -> dict[Word, int]:
    """The place of each word with these letter counts in lex order."""
    letters = [a for a, c in enumerate(counts) for _ in range(c)]
    return {w: t for t, w in enumerate(distinct_orderings(letters))}


@functools.cache
def _block_gather(counts: tuple[int, ...], perm: Perm) -> tuple[int, ...]:
    """The place of ``u o perm`` for each word ``u`` with these letter counts,
    in lex order; cached per permutation, so a sparse element pays only for
    its own support."""
    if len(perm) < 2:
        return (0,)  # one word; itemgetter needs two indices to return a tuple
    place = _block_places(counts)
    at = operator.itemgetter(*perm)
    return tuple(place[at(u)] for u in place)


def _block_operator(x: GroupAlgebraElement, d: int):
    """The integer matrices of ``ga_act(x, .)`` over ``x.den``.

    ``groups`` maps the letter counts of a weight block, in letter order, to
    ``(rows, blocks)``; row ``t`` holds ``x_sigma`` at the place of ``u o
    sigma`` for ``u`` the block's ``t``-th word.  Relabelling the letters in
    order keeps the word order and commutes with ``u -> u o sigma``, so the
    blocks with the same counts share one matrix.
    """
    groups: dict[tuple[int, ...], tuple[tuple, list]] = {}
    for block in weight_blocks(d, x.k):
        first = index_to_word(block[0], d, x.k)
        counts = tuple(len(list(run)) for _, run in itertools.groupby(first))
        if counts not in groups:
            rows = [[0] * len(block) for _ in block]
            for perm, c in x.nums.items():
                for row, j in zip(rows, _block_gather(counts, perm)):
                    row[j] += c
            groups[counts] = (tuple(map(tuple, rows)), [])
        groups[counts][1].append(block)
    return groups


def _apply_blocks(groups, values: tuple[int, ...]) -> list[int]:
    """The block matrices ``groups`` of :func:`_block_operator` applied to
    the integer numerators ``values``."""
    out = [0] * len(values)
    for rows, blocks in groups.values():
        for block in blocks:
            local = [values[i] for i in block]
            if not any(local):
                continue
            for i, row in zip(block, rows):
                out[i] = sum(map(operator.mul, row, local))
    return out


@functools.cache
def _projector_blocks(d: int, k: int):
    """``(lam, E_lam.den, _block_operator(E_lam, d))`` for each partition lam of k."""
    return tuple((lam, e.den, _block_operator(e, d)) for lam, e in _projector_family(k).items())


def graded_projections(tensor: Tensor) -> dict[Partition, Tensor]:
    """The graded components of a tensor, ``ga_act(E_lam, tensor)`` for each
    partition lam of k: one integer mat-vec per weight block with the cached
    block matrices of the projector family (subject to :data:`K_MAX`).  An
    order-0 tensor is its own component at the empty partition, as in the
    solve backend of :func:`thrallkit.free_lie.thrall_decompose`."""
    if tensor.k == 0:
        return {(): tensor}
    return {
        lam: Tensor(tensor.d, tensor.k, _apply_blocks(groups, tensor.nums), den * tensor.den)
        for lam, den, groups in _projector_blocks(tensor.d, tensor.k)
    }


def balanced_projections(d: int, ell: int, build):
    """Functionals on the balanced weight block, projected along the graded pieces.

    ``build(d, ell)`` returns ``(words, rows)``: the balanced words (each
    letter of 1..d exactly ell times) in lex order and integer rows over
    them, read as functionals.  It is called only after the degree d*ell
    has been checked against :data:`K_MAX`.  Returns ``(words, images)``, where ``images[lam]``
    holds each row composed with the slot action of E_lam (scaled by its
    common denominator): the row times that block's projector matrix.
    """
    blocks = _projector_blocks(d, d * ell)
    words, rows = build(d, ell)
    images = {}
    for lam, _, groups in blocks:
        columns = list(zip(*groups[(ell,) * d][0]))
        images[lam] = [[sum(map(operator.mul, row, col)) for col in columns] for row in rows]
    return words, images


def operator_image(x: GroupAlgebraElement, d: int) -> list[Tensor]:
    """The nonzero images of the basis tensors under ``ga_act(x, .)``, in word
    order (they span the image): the nonzero columns of :func:`_block_operator`."""
    groups = _block_operator(x, d)
    images = {}
    for rows, blocks in groups.values():
        for block in blocks:
            for v, column in zip(block, zip(*rows)):
                if any(column):
                    nums = [0] * d**x.k
                    for u, c in zip(block, column):
                        nums[u] = c
                    images[v] = Tensor(d, x.k, nums, x.den)
    return [images[v] for v in sorted(images)]


def operator_rank(x: GroupAlgebraElement, d: int) -> int:
    """Rank of ``ga_act(x, .)`` on the k-fold tensor power of a d-space.

    The slot action keeps letter content, so the operator is block-diagonal
    on the weight blocks; its rank is the sum of the ranks of the block
    matrices of :func:`_block_operator`, one elimination per shared matrix
    (scaling ``x`` to integer coefficients keeps the rank).
    """
    groups = _block_operator(x, d)
    return sum(linalg.rank(rows) * len(blocks) for rows, blocks in groups.values())


# ---------------------------------------------------------------------------
# Young symmetrizers


def _subgroup_fixing(groups: list[tuple[int, ...]], k: int) -> list[Perm]:
    """All permutations preserving each 1-based group setwise."""
    perms = []
    options = [list(itertools.permutations(g)) for g in groups]
    for combo in itertools.product(*options):
        p = list(range(k))
        for group, image in zip(groups, combo):
            for a, b in zip(group, image):
                p[a - 1] = b - 1
        perms.append(tuple(p))
    return perms


def young_symmetrizer(tableau: YoungTableau) -> GroupAlgebraElement:
    """Row sum times signed column sum, in that product order."""
    k = tableau.size
    rows = [tuple(r) for r in tableau.rows]
    cols = [tableau.column(j) for j in range(tableau.shape[0])]
    nums: dict[Perm, int] = {}
    for t in _subgroup_fixing(rows, k):
        for s in _subgroup_fixing(cols, k):
            ts = compose(t, s)
            nums[ts] = nums.get(ts, 0) + sign(s)
    return GroupAlgebraElement(k, nums, 1)


def young_symmetrizer_transposed(tableau: YoungTableau) -> GroupAlgebraElement:
    """Signed column sum times row sum (the column-first variant).

    The antipode reverses products, the row and column groups are closed
    under inverses and sign(s^{-1}) = sign(s), so this is the reverse of
    :func:`young_symmetrizer`.
    """
    return young_symmetrizer(tableau).reverse()


# ---------------------------------------------------------------------------
# central idempotents


@functools.cache
def _cycle_types(k: int) -> tuple[tuple[Perm, Partition], ...]:
    """Every permutation of {0..k-1} with its cycle type."""
    return tuple((p, cycle_type(p)) for p in all_permutations(k))


def central_idempotent(mu: Partition) -> GroupAlgebraElement:
    """Character projector onto the isotypic component labelled by mu:
    ``f^mu chi^mu(type sigma) / k!`` at each sigma, where ``f^mu`` is chi^mu
    at the identity; built once per mu."""
    return _central_idempotent(check_partition(mu))


@functools.cache
def _central_idempotent(mu: Partition) -> GroupAlgebraElement:
    from .symfun import sn_character

    k = sum(mu)
    f = sn_character(mu, (1,) * k)
    char_by_type = {rho: f * sn_character(mu, rho) for rho in partitions(k)}
    nums = {p: char_by_type[rho] for p, rho in _cycle_types(k)}
    return GroupAlgebraElement(k, nums, math.factorial(k))


# ---------------------------------------------------------------------------
# higher Lie idempotents in closed form (Garsia & Reutenauer, Adv. Math. 77,
# 1989; Reutenauer, Free Lie Algebras, ch. 3)
#
# The projector family is determined by its action on the single tensor
# e_1 x e_2 x .. x e_k (all letters distinct): permutation operators are
# linearly independent there.  The first Eulerian idempotent rho_a sends
# e_{1..a} to sum_v (-1)^des(v) / (a C(a-1, des(v))) e_v over the permutation
# words v, and
#
#     E_lam = (1/l!) sum over distinct rearrangements (a_1..a_l) of lam of
#             rho_{a_1} * .. * rho_{a_l}
#
# where the convolution * applied to e_{1..k} sums the concatenations of rho
# applied to the blocks of every ordered set partition with block sizes
# a_1..a_l.  A word w arises from exactly one such partition per
# rearrangement (its consecutive segments of lengths a_1..a_l), so its
# coefficient is a product over those segments.  Since
# 1 / (a C(a-1, j)) = j! (a-1-j)! / a!, every product shares the denominator
# l! prod(lam_i!) and the sum stays in integers.


@functools.cache
def _projector_family(k: int) -> dict[Partition, GroupAlgebraElement]:
    if k < 1:
        raise ValueError("lam must be a partition of k >= 1")
    if k > K_MAX:
        raise ResourceLimitError(f"degree {k} exceeds the projector degree cap {K_MAX}")
    words = [perm_to_word(p) for p in all_permutations(k)]
    family: dict[Partition, GroupAlgebraElement] = {}
    for lam in partitions(k):
        den = math.factorial(len(lam)) * math.prod(map(math.factorial, lam))
        arrangements = list(distinct_orderings(lam))
        nums: dict[Perm, int] = {}
        for w in words:
            total = 0
            for parts in arrangements:
                term, start = 1, 0
                for a in parts:
                    segment = w[start : start + a]
                    j = sum(x > y for x, y in zip(segment, segment[1:]))
                    term *= (-1) ** j * math.factorial(j) * math.factorial(a - 1 - j)
                    start += a
                total += term
            # the slot action sends e_iota to e_{word(sigma^{-1})}, so the
            # coefficient of sigma sits at that word
            nums[inverse(word_to_perm(w))] = total
        family[lam] = GroupAlgebraElement(k, nums, den)
    return family


def higher_lie_idempotent(lam: Partition) -> GroupAlgebraElement:
    """The projector onto the lam-graded subspace along the other summands.

    Acts as the identity on the lam-graded subspace and as zero on every
    other graded summand, for every dimension d.  Built in closed form from
    the first Eulerian idempotents (see the comment block above), once per
    degree, and memoized.
    """
    lam = check_partition(lam)
    return _projector_family(sum(lam))[lam]


def intersection_projector(lam: Partition, mu: Partition) -> GroupAlgebraElement:
    """Projector onto the mu-isotypic part of the lam-graded subspace.

    Equals the product of the graded projector with the central idempotent
    (in either order, by centrality); zero exactly when the corresponding
    multiplicity vanishes.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("lam and mu must partition the same integer")
    return ga_multiply(higher_lie_idempotent(lam), central_idempotent(mu))
