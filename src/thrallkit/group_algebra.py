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

The slot action keeps the letter content of a word and commutes with
relabelling letters, the permutation matrices of GL_d, so an element acts by
one integer matrix per shape of the weight blocks, their letter counts in
decreasing order, in the word order that
:func:`~thrallkit.tensors.weight_patterns` fixes.  One walk of the elements'
supports builds them, shape by shape (:func:`_block_operators`: the
projector family at once, or one element).  One packed kernel applies them:
:func:`_stack` stacks the matrices of several operators per shape (the
p(k) graded projectors in :func:`graded_projections`, in lowest terms and
cached per construction and ``(d, k)``; one element in :func:`ga_act`, kept
on the element per ``d``), :func:`_pack`
packs each column of a stack into one Python int, ``W`` bits a slot, and
:func:`_pass` computes a block's outputs for every operator as one sum of
``b`` big-int products; one ``itemgetter`` per operator then picks that
operator's outputs out of them all.  Packing, the slot width and the read-back (one
``to_bytes`` a block and one ``memoryview.cast`` in all) are the slot codec
of :mod:`thrallkit.tensors`, which the Chen update of
:mod:`thrallkit.shuffle_sig` shares.  The slot width ``W``
(:func:`~thrallkit.tensors.slot_width`) is the smallest of 8, 16, 32 and 64
bits that holds ``bound * max|x|`` plus a sign bit, ``bound`` the stack's
largest absolute row sum, so that every output fits its slot and at most
four packings are cached per stack.  Where no
such slot holds the outputs (closed-form projector inputs of more than 54
bits), :func:`_apply_stacked` takes one dot product per row: a Python int
is already a run of packed 30-bit digits, and wider slots would cost memory
per packing and superlinear products.  The graded projectors have two
constructions, both reduced to lowest terms in one place
(:func:`_projector_stack`) and applied by this kernel: the closed form here
(:func:`_closed_form_blocks`) and the solve backend of
:func:`thrallkit.free_lie.thrall_decompose`, which inverts the graded
bases.  Neither keeps what it builds.  They stay independent checks on each
other where the risk is, in how the matrices are made.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from types import MappingProxyType, SimpleNamespace

from . import linalg
from .permutations import Perm, all_permutations, compose, cycle_type, inverse, subgroup_fixing
from .tensors import Tensor, pack_slots, read_slots, slot_bytes, slot_mask, slot_width, weight_patterns
from .words import (
    Partition,
    ResourceLimitError,
    YoungTableau,
    check_partition,
    distinct_orderings,
    partitions,
    reduced_mapping,
    value_type,
)

# Degree cap for the closed-form projector family (k! terms per projector),
# checked by :func:`_projector_family` before any table is built; the
# published values need k <= 4.  ``thrall_decompose(method="auto")`` reads it
# to take the solve backend above it instead.
K_MAX = 5


def _getter(indices):
    """``itemgetter(*indices)``, a sequence also for one index or none."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    return operator.itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


@value_type
class GroupAlgebraElement:
    """Rational linear combination of permutations of {0..k-1}: a sparse map
    ``nums`` from permutation to integer numerator over one denominator ``den``.

    ``GroupAlgebraElement(k, terms)`` reads rationals and ``(k, nums, den)``
    integers over ``den >= 1``; both are checked and reduced to lowest terms
    (zero has ``den == 1``), so equal elements have equal fields.  Builders
    whose keys are permutations by construction go through ``_built`` (see
    :func:`~thrallkit.words.value_type`), which reduces but checks no key.
    ``nums`` and the Fractions :attr:`terms` (permutation -> Fraction, built
    on first read) are read-only mappings, so a cached element cannot change.
    """

    k: int
    nums: MappingProxyType[Perm, int]
    den: int

    def __init__(self, k: int, nums: dict[Perm, int], den: int | None = None) -> None:
        if den is None:
            den, values = linalg.integer_numerators(map(Fraction, nums.values()))
            nums = dict(zip(nums, values))
        elif den < 1:
            raise ValueError(f"den must be >= 1, got {den}")
        full = list(range(k))
        for perm in nums:
            if sorted(perm) != full:
                raise ValueError(f"{perm} is not a permutation of 0..{k - 1}")
        self._reduce((k, {tuple(p): n for p, n in nums.items()}, den))

    def _reduce(self, fields) -> None:
        """Write the fields ``(k, nums, den)``, ``nums`` and ``den`` in lowest terms."""
        k, nums, den = fields
        nums, den = reduced_mapping(nums, den)
        self.__dict__.update(k=k, nums=nums, den=den)

    @functools.cached_property
    def terms(self) -> MappingProxyType[Perm, Fraction]:
        """The coefficients as Fractions, built once, on first read."""
        return MappingProxyType({p: Fraction(n, self.den) for p, n in self.nums.items()})

    @staticmethod
    def zero(k: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement(k, {}, 1)

    def reverse(self) -> "GroupAlgebraElement":
        """Image under the antipode sigma -> sigma^{-1}."""
        return GroupAlgebraElement._built(self.k, {inverse(p): n for p, n in self.nums.items()}, self.den)

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
    for q, b in y.nums.items():
        at = _getter(q)
        for p, a in x.nums.items():
            pq = at(p)
            acc[pq] = acc.get(pq, 0) + a * b
    return GroupAlgebraElement._built(x.k, acc, x.den * y.den)


def ga_act(x: GroupAlgebraElement, tensor: Tensor) -> Tensor:
    """Apply an element to a tensor through the slot action.

    ``out[u] = sum_sigma x_sigma T[u o sigma]``: the integer block matrices
    of :func:`_block_operators`, stacked by :func:`_stack` as one layer and
    applied to the tensor's integer numerators by :func:`_apply_stacked`,
    the kernel of :func:`graded_projections`.  The stack, with its
    packings, is kept per ``d`` in the element's instance dict beside its
    ranks (see :func:`operator_rank`), so a repeated call builds and packs
    nothing.
    """
    if x.k != tensor.k:
        raise ValueError(f"degree mismatch: element {x.k}, tensor order {tensor.k}")
    stacks = vars(x).setdefault("_stacks", {})
    stack = stacks.get(tensor.d)
    if stack is None:
        table = weight_patterns(tensor.d, x.k)
        stack = stacks[tensor.d] = _stack(_block_operators([x], tensor.d, table), table)
    [nums] = _apply_stacked(stack, tensor.nums)
    return Tensor._built(tensor.d, tensor.k, nums, x.den * tensor.den)


def _block_operators(elements, d: int, shapes):
    """The integer matrices of ``ga_act(x, .)`` over ``x.den`` for each
    element ``x`` of one degree, in one walk of the union of their supports:
    for each of ``shapes`` in turn, each element's rows on the shape's first
    block of :func:`weight_patterns`.  Row ``t`` holds ``x_sigma`` at the
    place of ``u o sigma`` for ``u`` the word at place ``t`` of that block.
    Relabelling letters commutes with ``u -> u o sigma``, and each block of
    a shape lists the relabelled words of the first in the same places, so
    the blocks of a shape share one matrix.  The walk holds each permutation
    of the supports once, as one ``itemgetter`` with every element's
    coefficient: its places are found once per shape, for all elements.
    """
    walk = [(_getter(perm), [x.nums.get(perm, 0) for x in elements])
            for perm in set().union(*(x.nums for x in elements))]
    table = weight_patterns(d, elements[0].k)
    for shape in shapes:
        words = table[shape][0]
        place = {u: t for t, u in enumerate(words)}.__getitem__
        matrices = [[[0] * len(words) for _ in words] for _ in elements]
        for at, coefficients in walk:
            places = list(map(place, map(at, words)))
            for rows, c in zip(matrices, coefficients):
                if c:
                    for row, j in zip(rows, places):
                        row[j] += c
        yield matrices


def _stack(matrices, table) -> SimpleNamespace:
    """The block matrices of ``layers`` operators stacked per shape, from
    each operator's rows on the first block of each shape of ``table``
    (:func:`weight_patterns`' form) in turn: row ``t * layers + j`` of a
    shape's matrix is row ``t`` of operator ``j``, and :func:`_pass`
    applies it to every block of the shape.  ``bound`` is the largest
    absolute row sum, ``gather`` an itemgetter of the inputs block by block
    in shape order, each block in its own order of places, ``outputs`` one
    itemgetter per layer of that layer's outputs in index order from the
    stacked ones, ``shapes`` each shape's stacked columns with its block
    count, and ``packed`` its :func:`_pack` per slot width, each filled on
    first use."""
    bound, gather, shapes = 0, [], []
    for layers, (_, blocks) in zip(matrices, table.values()):
        p, rows = len(layers), [row for rows in zip(*layers) for row in rows]
        bound = max([bound, *(sum(map(abs, row)) for row in rows)])
        shapes.append((tuple(zip(*rows)), len(blocks)))
        gather.extend(itertools.chain.from_iterable(blocks))
    inverse = sorted(range(len(gather)), key=gather.__getitem__)
    return SimpleNamespace(
        layers=p, bound=bound, gather=_getter(gather), shapes=shapes, packed={},
        outputs=tuple(_getter([g * p + j for g in inverse]) for j in range(p)),
    )


def _pack(stack: SimpleNamespace, width: int):
    """The stacked columns packed into one int each by
    :func:`~thrallkit.tensors.pack_slots`, ``width`` bits a slot (8 to 64),
    slot ``r`` holding row ``r``.  Returns ``(columns, mask, count)`` per
    shape, ``mask`` the sign bits of its outputs' slots and ``count`` its
    number of blocks."""
    packed = []
    for columns, count in stack.shapes:
        mask = slot_mask(width, stack.layers * len(columns))
        packed.append(([pack_slots(column, width, mask) for column in columns], mask, count))
    return packed


def _pass(packed, xs) -> bytes:
    """The packed kernel over ``xs``, the inputs in the gather order of a
    stack, with ``packed`` that stack packed by :func:`_pack`: each block's
    outputs are one sum of products, read out by
    :func:`~thrallkit.tensors.slot_bytes`."""
    raws, start = [], 0
    for columns, mask, count in packed:
        b = len(columns)
        for _ in range(count):
            local = xs[start : start + b]
            start += b
            total = sum(map(operator.mul, local, columns)) if any(local) else 0
            raws.append(slot_bytes(total, mask))
    return b"".join(raws)


def _apply_stacked(stack: SimpleNamespace, values) -> list:
    """Each operator of a stack applied to the integer numerators
    ``values``: one :func:`_pass` where a slot of at most 64 bits holds
    ``bound * max|x|``, else one dot product per row (see the module
    docstring).  Each layer's outputs come straight from its getter in
    ``outputs``: a tuple, or a one-entry list where the tensor has one entry."""
    xs = stack.gather(values)
    # every output, and every entry of the stack, is at most bound * max|x|
    width = slot_width((stack.bound * (max(map(abs, xs)) or 1)).bit_length() + 1)
    if width <= 64:
        packed = stack.packed.get(width)
        if packed is None:
            packed = stack.packed[width] = _pack(stack, width)
        flat = read_slots(_pass(packed, xs), width)
    else:
        flat, start = [], 0
        for columns, count in stack.shapes:
            rows = list(zip(*columns))
            for _ in range(count):
                local = xs[start : start + len(columns)]
                start += len(columns)
                flat.extend(sum(map(operator.mul, row, local)) for row in rows)
    return [get(flat) for get in stack.outputs]


def _closed_form_blocks(d: int, k: int):
    """The closed-form graded projectors ``ga_act(E_lam, .)``, subject to
    :data:`K_MAX`, as :func:`_projector_stack` reads a construction: for
    each shape of :func:`weight_patterns` in turn, ``(E_lam.den, rows)`` per
    partition lam of k, from one :func:`_block_operators` walk of the family."""
    family = _projector_family(k)
    dens = [e.den for e in family.values()]
    return (list(zip(dens, matrices))
            for matrices in _block_operators(list(family.values()), d, weight_patterns(d, k)))


@functools.cache
def _projector_stack(construction, d: int, k: int) -> SimpleNamespace:
    """The graded projectors of ``construction(d, k)`` stacked by
    :func:`_stack`, ``dens`` mapping each partition lam of k, in layer
    order, to its denominator.  A construction gives, for each shape of
    :func:`weight_patterns` in turn, ``(den, rows)`` per lam: lam's integer
    matrix on the shape's first block over ``den``.  This is the one
    lowest-terms step: the gcd ``g`` of ``den`` and the entries leaves a
    matrix over ``den // g``, so a projector is in lowest terms over the
    lcm of those over its shapes.  Each matrix is scaled to that lcm as it
    is stacked, and kept as built where the scale is one."""
    pieces = [[(den // math.gcd(den, *itertools.chain.from_iterable(rows)), den, rows)
               for den, rows in matrices] for matrices in construction(d, k)]
    dens = [math.lcm(*(q for q, _, _ in found)) for found in zip(*pieces)]
    # popped as stacked, so that no shape is held both unscaled and scaled
    scaled = ([rows if lcm == den else [[x * lcm // den for x in row] for row in rows]
               for lcm, (_, den, rows) in zip(dens, pieces.pop(0))] for _ in range(len(pieces)))
    stack = _stack(scaled, weight_patterns(d, k))
    stack.dens = dict(zip(partitions(k), dens))
    return stack


def graded_projections(tensor: Tensor, construction=_closed_form_blocks) -> dict[Partition, Tensor]:
    """The graded components of a tensor, one per partition lam of k.

    ``construction(d, k)`` builds the projectors' integer matrices shape by
    shape, in the form that :func:`_projector_stack` reduces and stacks: by
    default :func:`_closed_form_blocks`, the closed form ``ga_act(E_lam, .)``
    (subject to :data:`K_MAX`); the solve backend of
    :func:`thrallkit.free_lie.thrall_decompose` passes its own.  The stack,
    with each lam's denominator, is built once per construction and
    ``(d, k)``, packed once per slot width, and applied by
    :func:`_apply_stacked` in one pass over the weight blocks;
    ``Tensor._built`` reduces each output, unchecked.  An order-0 tensor is
    its own component at the empty partition."""
    if tensor.k == 0:
        return {(): tensor}
    stack = _projector_stack(construction, tensor.d, tensor.k)
    return {lam: Tensor._built(tensor.d, tensor.k, out, den * tensor.den)
            for (lam, den), out in zip(stack.dens.items(), _apply_stacked(stack, tensor.nums))}


def balanced_projections(d: int, ell: int) -> list[tuple[Partition, list]]:
    """The closed-form graded projectors on the balanced weight block (each
    letter of 1..d exactly ell times): ``(lam, rows)`` for each partition
    lam of d*ell, ``rows`` the integer matrix of ``ga_act(E_lam, .)`` over
    ``E_lam.den`` on the block's words in lex order, from a walk of that one
    shape.  The degree d*ell is checked against :data:`K_MAX` before
    anything is built."""
    family = _projector_family(d * ell)
    [matrices] = _block_operators(list(family.values()), d, [(ell,) * d])
    return list(zip(family, matrices))


def operator_image(x: GroupAlgebraElement, d: int) -> list[Tensor]:
    """The nonzero images of the basis tensors under ``ga_act(x, .)``, in word
    order (they span the image): the nonzero columns of :func:`_block_operators`."""
    images, table = {}, weight_patterns(d, x.k)
    for [rows], (_, blocks) in zip(_block_operators([x], d, table), table.values()):
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
    matrices of :func:`_block_operators`, one elimination per shape, since
    the blocks of a shape share one matrix (scaling ``x`` to integer
    coefficients keeps the rank).  The rank is kept per ``d`` in the
    element's instance dict, outside its fields (as :attr:`~GroupAlgebraElement.terms`
    is), so equality and repr do not see it and it lives as long as ``x``.
    """
    ranks = vars(x).setdefault("_ranks", {})
    if d not in ranks:
        table = weight_patterns(d, x.k)
        ranks[d] = sum(linalg.rank(rows) * len(blocks)
                       for [rows], (_, blocks) in zip(_block_operators([x], d, table), table.values()))
    return ranks[d]


# ---------------------------------------------------------------------------
# Young symmetrizers


def young_symmetrizer(tableau: YoungTableau) -> GroupAlgebraElement:
    """Row sum times signed column sum, in that product order."""
    k = tableau.size
    cols = subgroup_fixing([tableau.column(j) for j in range(tableau.shape[0])], k)
    nums: dict[Perm, int] = {}
    for t, _ in subgroup_fixing(tableau.rows, k):
        for s, sgn in cols:
            ts = compose(t, s)
            nums[ts] = nums.get(ts, 0) + sgn
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


def central_idempotent(mu: Partition) -> GroupAlgebraElement:
    """Character projector onto the isotypic component labelled by mu:
    ``f^mu chi^mu(type sigma) / k!`` at each sigma, where ``f^mu`` is chi^mu
    at the identity."""
    from .symfun import sn_character

    mu = check_partition(mu)
    k = sum(mu)
    f = sn_character(mu, (1,) * k)
    char_by_type = {rho: f * sn_character(mu, rho) for rho in partitions(k)}
    nums = {p: char_by_type[cycle_type(p)] for p in all_permutations(k)}
    return GroupAlgebraElement._built(k, nums, math.factorial(k))


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
        lam: GroupAlgebraElement._built(
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
    multiplicity vanishes.  Built once per pair (88 pairs up to :data:`K_MAX`).
    """
    return _intersection_projector(check_partition(lam), check_partition(mu))


@functools.cache
def _intersection_projector(lam: Partition, mu: Partition) -> GroupAlgebraElement:
    if sum(lam) != sum(mu):
        raise ValueError("lam and mu must partition the same integer")
    return ga_multiply(higher_lie_idempotent(lam), central_idempotent(mu))
