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

The slot action keeps the letter content of a word, so an element acts by
one integer matrix per letter pattern of the weight blocks
(:func:`_block_operator`).  One packed kernel applies them:
:func:`_stack` stacks the matrices of several operators per pattern (the
p(k) graded projectors in :func:`graded_projections`, cached per
construction and ``(d, k)``; one element in :func:`ga_act`), :func:`_pack`
packs each column of a stack into one Python int, ``W`` bits a slot, and
:func:`_pass` computes a block's outputs for every operator as one sum of
``b`` big-int products, read back by one ``to_bytes`` and one
``memoryview.cast``.  The slot width ``W`` (:func:`_slot_width`) is the
smallest of 8, 16, 32 and 64 bits that holds ``bound * max|x|`` plus a sign
bit, ``bound`` the stack's largest absolute row sum, so that every output
fits its slot and at most four packings are cached per stack.  Where no
such slot holds the outputs (closed-form projector inputs of more than 54
bits), :func:`_apply_stacked` takes one dot product per row: a Python int
is already a run of packed 30-bit digits, and wider slots would cost memory
per packing and superlinear products.  The graded projectors have two
constructions, both applied by this kernel: the closed form here
(:func:`_projector_blocks`) and the solve backend of
:func:`thrallkit.free_lie.thrall_decompose`, which inverts the graded
bases.  They stay independent checks on each other where the risk is, in
how the matrices are made.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .permutations import Perm, all_permutations, compose, cycle_type, inverse, sign
from .tensors import Tensor, weight_patterns
from .words import (
    Partition,
    ResourceLimitError,
    Word,
    YoungTableau,
    check_partition,
    distinct_orderings,
    partitions,
)

# Degree cap for the closed-form projector family (k! terms per projector),
# checked by :func:`_projector_family` before any table is built; the
# published values need k <= 4.  ``thrall_decompose(method="auto")`` reads it
# to take the solve backend above it instead.
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
    of :func:`_block_operator`, packed for this call and applied to the
    tensor's integer numerators by :func:`_apply_stacked`, the kernel of
    :func:`graded_projections`, as a stack of one layer.
    """
    if x.k != tensor.k:
        raise ValueError(f"degree mismatch: element {x.k}, tensor order {tensor.k}")
    stack = _stack([_block_operator(x, tensor.d)])
    [nums] = _apply_stacked(stack, functools.partial(_pack, stack), tensor.nums)
    return Tensor(tensor.d, tensor.k, nums, x.den * tensor.den)


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

    ``groups`` maps each letter pattern of :func:`weight_patterns` to
    ``(rows, blocks)``; row ``t`` holds ``x_sigma`` at the place of ``u o
    sigma`` for ``u`` the block's ``t``-th word.  Relabelling the letters in
    order commutes with ``u -> u o sigma``, so the blocks of a pattern share
    one matrix.
    """
    groups: dict[tuple[int, ...], tuple[tuple, list]] = {}
    for counts, blocks in weight_patterns(d, x.k).items():
        rows = [[0] * len(blocks[0]) for _ in blocks[0]]
        for perm, c in x.nums.items():
            for row, j in zip(rows, _block_gather(counts, perm)):
                row[j] += c
        groups[counts] = (tuple(map(tuple, rows)), blocks)
    return groups


class _Stack(NamedTuple):
    """The block matrices of ``layers`` operators at one ``(d, k)``, stacked
    per letter pattern: row ``t * layers + j`` of a pattern's matrix is row
    ``t`` of operator ``j``.  ``bound`` is the largest absolute row sum,
    ``gather`` the flat indices block by block in pattern order, ``scatter``
    its inverse, and ``patterns`` each pattern's stacked columns with its
    block count, in that order."""

    layers: int
    bound: int
    gather: list[int]
    scatter: list[int]
    patterns: list[tuple[tuple[tuple[int, ...], ...], int]]


def _stack(operators) -> _Stack:
    """Stack results of :func:`_block_operator` at one ``(d, k)``, which
    share their patterns and blocks."""
    bound, gather, patterns = 0, [], []
    for counts, (_, blocks) in operators[0].items():
        rows = [row for rows in zip(*(g[counts][0] for g in operators)) for row in rows]
        bound = max([bound, *(sum(map(abs, row)) for row in rows)])
        patterns.append((tuple(zip(*rows)), len(blocks)))
        for block in blocks:
            gather.extend(block)
    scatter = sorted(range(len(gather)), key=gather.__getitem__)
    return _Stack(len(operators), bound, gather, scatter, patterns)


def _slot_width(bound: int, values) -> int:
    """The smallest power of two, at least 8, that holds ``bound * max|x|``
    plus a sign bit: every output of a stacked matrix whose absolute row
    sums are at most ``bound``, and every entry of that matrix."""
    need = (bound * (max(map(abs, values)) or 1)).bit_length() + 1
    return max(8, 1 << (need - 1).bit_length())


# The signed C types of 8, 16, 32 and 64 bits, by width: array and
# memoryview.cast read and write slots of these widths at C level.
_SLOT_CODES = {array(code).itemsize * 8: code for code in "bhilq"}


def _pack(stack: _Stack, width: int):
    """The stacked columns packed into one int each, ``width`` bits a slot
    (8 to 64).

    Slot ``r`` holds row ``r`` (bits ``r * width`` up on a little-endian
    machine; bytes are in native order, as ``memoryview.cast`` reads them).
    ``array`` writes the slots as two's complement bytes at C level, and
    ``(x ^ mask) - mask``, with ``mask`` the top bit of every slot, turns
    those bytes into the signed sum over the slots.  Returns ``(columns,
    mask, size, count)`` per pattern, ``size`` the byte length of its packed
    outputs and ``count`` its number of blocks.
    """
    p, code, step = stack.layers, _SLOT_CODES[width], width // 8
    top = (1 << (width - 1)).to_bytes(step, sys.byteorder)
    packed = []
    for columns, count in stack.patterns:
        mask = int.from_bytes(top * (p * len(columns)), sys.byteorder)
        raws = (array(code, column).tobytes() for column in columns)
        ints = [(int.from_bytes(raw, sys.byteorder) ^ mask) - mask for raw in raws]
        packed.append((ints, mask, step * p * len(columns), count))
    return packed


def _pass(packed, width: int, xs) -> bytes:
    """The packed kernel over ``xs``, the inputs in the gather order of a
    stack, with ``packed`` that stack packed at ``width``: adding and then
    xoring a pattern's ``mask`` leaves each slot of a block's sum holding its
    output in two's complement, as native-order bytes."""
    raws, start = [], 0
    for columns, mask, size, count in packed:
        b = len(columns)
        for _ in range(count):
            local = xs[start : start + b]
            start += b
            total = sum(map(operator.mul, local, columns)) if any(local) else 0
            raws.append(((total + mask) ^ mask).to_bytes(size, sys.byteorder))
    return b"".join(raws)


def _apply_stacked(stack: _Stack, pack, values) -> list[list[int]]:
    """Each operator of a stack applied to the integer numerators
    ``values``, with ``pack(width)`` the stack packed by :func:`_pack`: one
    :func:`_pass` where a slot of at most 64 bits holds ``bound * max|x|``,
    else one dot product per row (see the module docstring)."""
    p = stack.layers
    xs = list(map(values.__getitem__, stack.gather))
    width = _slot_width(stack.bound, xs)
    if width <= 64:
        flat = memoryview(_pass(pack(width), width, xs)).cast(_SLOT_CODES[width]).tolist()
    else:
        flat, start = [], 0
        for columns, count in stack.patterns:
            rows = list(zip(*columns))
            for _ in range(count):
                local = xs[start : start + len(columns)]
                start += len(columns)
                flat.extend(sum(map(operator.mul, row, local)) for row in rows)
    # flat[g p + j] is layer j's output at the place gather[g]
    return [list(map(flat[j::p].__getitem__, stack.scatter)) for j in range(p)]


@functools.cache
def _projector_blocks(d: int, k: int):
    """``(lam, E_lam.den, _block_operator(E_lam, d))`` for each partition lam of k."""
    return tuple((lam, e.den, _block_operator(e, d)) for lam, e in _projector_family(k).items())


@functools.cache
def _projector_stack(construction, d: int, k: int) -> _Stack:
    """The block matrices of ``construction(d, k)`` stacked by :func:`_stack`."""
    return _stack([groups for _, _, groups in construction(d, k)])


@functools.cache
def _projector_packed(construction, d: int, k: int, width: int):
    """:func:`_projector_stack` packed at one of the slot widths of
    :func:`_apply_stacked`, 8, 16, 32 or 64 bits: at most four per
    construction and ``(d, k)``, whatever the size of the inputs."""
    return _pack(_projector_stack(construction, d, k), width)


def graded_projections(tensor: Tensor, construction=_projector_blocks) -> dict[Partition, Tensor]:
    """The graded components of a tensor, one per partition lam of k.

    ``construction(d, k)`` builds the projectors as ``(lam, den, groups)`` per
    partition, ``groups`` the integer matrices of lam's projector over
    ``den`` in the form of :func:`_block_operator`: by default
    :func:`_projector_blocks`, the closed form ``ga_act(E_lam, .)`` (subject
    to :data:`K_MAX`); the solve backend of
    :func:`thrallkit.free_lie.thrall_decompose` passes its own.  The
    matrices are stacked and packed once per construction, ``(d, k)`` and
    slot width, and applied by :func:`_apply_stacked` in one pass over the
    weight blocks.  An order-0 tensor is its own component at the empty
    partition."""
    if tensor.k == 0:
        return {(): tensor}
    d, k, nums = tensor.d, tensor.k, tensor.nums
    pack = functools.partial(_projector_packed, construction, d, k)
    outputs = _apply_stacked(_projector_stack(construction, d, k), pack, nums)
    return {
        lam: Tensor(d, k, out, den * tensor.den)
        for (lam, den, _), out in zip(construction(d, k), outputs)
    }


def balanced_projections(d: int, ell: int) -> list[tuple[Partition, int, tuple]]:
    """The closed-form graded projectors on the balanced weight block (each
    letter of 1..d exactly ell times): ``(lam, den, rows)`` for each
    partition lam of d*ell, ``rows`` the integer matrix of lam's projector
    over ``den`` on the block's words in lex order.  The degree d*ell is
    checked against :data:`K_MAX` before anything is built."""
    balanced = (ell,) * d
    return [(lam, den, groups[balanced][0]) for lam, den, groups in _projector_blocks(d, d * ell)]


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
    # signs[a][j] = (-1)^j j! (a-1-j)!, the factor of a segment of a letters
    # with j descents
    signs = [
        [(-1) ** j * math.factorial(j) * math.factorial(a - 1 - j) for j in range(a)]
        for a in range(k + 1)
    ]
    # each rearrangement of lam as (start, end - 1, signs[a]) per segment
    segments = {}
    for lam in partitions(k):
        segments[lam] = []
        for parts in distinct_orderings(lam):
            starts = itertools.accumulate(parts, initial=0)
            segments[lam].append([(s, s + a - 1, signs[a]) for s, a in zip(starts, parts)])
    # a word's coefficients depend on its descents alone: one sum per descent set
    by_descents: dict[tuple[int, ...], list[int]] = {}
    family: dict[Partition, dict[Perm, int]] = {lam: {} for lam in segments}
    for p in all_permutations(k):
        # descents[i]: the descents of the word of p at places 1..i, so a
        # segment from s to e has descents[e] - descents[s]
        descents = tuple(itertools.accumulate((x > y for x, y in zip(p, p[1:])), initial=0))
        if descents not in by_descents:
            by_descents[descents] = [
                sum(
                    math.prod(table[descents[e] - descents[s]] for s, e, table in parts)
                    for parts in arrangements
                )
                for arrangements in segments.values()
            ]
        # the slot action sends e_iota to e_{word(sigma^{-1})}, so the
        # coefficient of sigma = p^{-1} sits at the word of p
        sigma = inverse(p)
        for nums, c in zip(family.values(), by_descents[descents]):
            nums[sigma] = c
    return {
        lam: GroupAlgebraElement(
            k, nums, math.factorial(len(lam)) * math.prod(map(math.factorial, lam))
        )
        for lam, nums in family.items()
    }


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
