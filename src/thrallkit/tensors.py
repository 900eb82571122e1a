"""Dense tensors and truncated tensor series over exact rationals.

A :class:`Tensor` has one representation: integer numerators over one
positive denominator, in lowest terms.  Every algorithm computes on those
integers and hands them to the constructor, or, sized by construction, to
``Tensor._built``: both reduce them by one method.  Fractions are built
only at the boundary (:attr:`Tensor.entries`, item access, :meth:`Tensor.nonzero_terms`).

Weight blocks: slot permutations keep the letter content of a word (the
multiset of its letters), and so do the graded bases and every operator
built from them, because the diagonal torus of GL_d fixes each of these.
:func:`weight_patterns` walks the contents, not the d^k words, and lists
the flat indices of each one's words, its weight block, grouped by shape.
The slot action itself is :func:`thrallkit.group_algebra.ga_act`; the
symmetric group acts transitively on each weight block, so
:func:`is_symmetric` and :func:`symmetrize` read the blocks alone.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from fractions import Fraction
from functools import cache, cached_property
from operator import add, floordiv, mul

from . import linalg
from .words import ResourceLimitError, Word, distinct_orderings, index_to_word, value_type, word_to_index

_ZERO = Fraction(0)

# Cap on the entries of a dense tensor read from input, and of a truncated
# signature or series over all its levels (1 + d + .. + d^k_max), so that
# every level fits in memory: d=2 to level 16, d=3 to level 10 and d=4 to
# level 8 pass; d=9 to level 6 does not.
SIGNATURE_ENTRIES_MAX = 200_000


def check_entries(d: int, k: int, what: str, levels: bool = False) -> None:
    """Raise :class:`ResourceLimitError` for ``what``, a tensor of ``d**k``
    entries or with ``levels`` a series of ``1 + d + .. + d**k``, over
    :data:`SIGNATURE_ENTRIES_MAX`, before any entry is allocated.  The count
    is built up a level at a time, so it stops within 18 steps for d >= 2
    and within the cap for a series; a lone tensor at d = 1 has one entry
    whatever its order."""
    entries = size = 1
    for _ in range(k if levels or d > 1 else 0):
        size *= d
        entries = entries + size if levels else size
        if entries > SIGNATURE_ENTRIES_MAX:
            raise ResourceLimitError(
                f"{what} of d={d} to {'level' if levels else 'order'} {k} needs more than "
                f"{SIGNATURE_ENTRIES_MAX} entries{' over all levels' if levels else ''}"
            )


@value_type
class Tensor:
    """Dense order-``k`` tensor on a ``d``-dimensional space: integer
    numerators ``nums`` over one denominator ``den``.

    ``Tensor(d, k, values)`` reads ``d**k`` ints or Fractions and ``Tensor(d, k,
    nums, den)`` integer numerators over ``den >= 1``.  Both are checked, then
    reduced by :meth:`_reduce` to ``gcd(den, *nums) == 1`` (the zero tensor has
    ``den == 1``), so equal tensors have equal fields, and equality, hashing and
    repr read ``(d, k, nums, den)``.  Entries are indexed by words via
    base-``d`` encoding; ``k == 0`` stores a single scalar.  The Fractions
    :attr:`entries` are built on first read, for output and tests.
    """

    d: int
    k: int
    nums: tuple[int, ...]
    den: int

    def __init__(self, d: int, k: int, nums, den: int | None = None) -> None:
        if d < 1 or k < 0:
            raise ValueError("require d >= 1 and k >= 0")
        if den is None:
            den, nums = linalg.integer_numerators(nums)
        elif den < 1:
            raise ValueError(f"den must be >= 1, got {den}")
        nums = tuple(nums)
        if len(nums) != d**k:
            raise ValueError(f"expected {d ** k} entries, got {len(nums)}")
        self._reduce((d, k, nums, den))

    def _reduce(self, fields) -> None:
        """Write the fields ``(d, k, nums, den)``, ``nums`` and ``den`` divided by
        their gcd; a tuple already in lowest terms is kept, not copied."""
        d, k, nums, den = fields
        # math.gcd also rejects numerators that are not integers
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = map(floordiv, nums, itertools.repeat(g)), den // g
        self.__dict__.update(d=d, k=k, nums=tuple(nums), den=den)

    # -- construction -------------------------------------------------

    @staticmethod
    def scalar(d: int, value) -> "Tensor":
        return Tensor(d, 0, (value,))

    @staticmethod
    def from_vector(d: int, coords) -> "Tensor":
        coords = list(coords)
        if len(coords) != d:
            raise ValueError("coordinate count must equal d")
        return Tensor(d, 1, coords)

    @staticmethod
    def from_dict(d: int, k: int, terms: dict[Word, Fraction]) -> "Tensor":
        """The tensor of a sparse map from words to rational coefficients."""
        values = [0] * d**k
        for word, coeff in terms.items():
            if len(word) != k:
                raise ValueError(f"word {word} has length != {k}")
            values[word_to_index(word, d)] += Fraction(coeff)
        return Tensor(d, k, values)

    # -- access --------------------------------------------------------

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        """The entries as Fractions, built once, on first read."""
        return tuple(Fraction(n, self.den) if n else _ZERO for n in self.nums)

    def __getitem__(self, word: Word) -> Fraction:
        if len(word) != self.k:
            raise ValueError(f"word {word} has length != {self.k}")
        return Fraction(self.nums[word_to_index(word, self.d)], self.den)

    def nonzero_terms(self) -> dict[Word, Fraction]:
        return {
            index_to_word(i, self.d, self.k): Fraction(n, self.den)
            for i, n in enumerate(self.nums)
            if n
        }

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- linear structure -----------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        """The sum over the lcm of the two denominators."""
        if self.d != other.d or self.k != other.k:
            raise ValueError(
                f"shape mismatch: (d={self.d}, k={self.k}) vs (d={other.d}, k={other.k})"
            )
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return Tensor(self.d, self.k, [fa * a + fb * b for a, b in zip(self.nums, other.nums)], den)

    def scale(self, c) -> "Tensor":
        c = Fraction(c)
        return Tensor(self.d, self.k, [c.numerator * n for n in self.nums], self.den * c.denominator)


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    """Tensor (outer) product; entry at word IJ is a[I] * b[J]."""
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    return Tensor(a.d, a.k + b.k, [x * y for x in a.nums for y in b.nums], a.den * b.den)


@cache
def weight_patterns(d: int, k: int) -> dict[tuple[int, ...], tuple[tuple[Word, ...], list]]:
    """The weight blocks, the flat indices of the words of length k that
    share one letter content, grouped by shape (their letter counts in
    decreasing order) as ``shape: (words, blocks)``, shapes and blocks in
    the order of the blocks' first indices: the lex order of the contents.

    ``words`` are the words of the letters 1..l with the shape's counts,
    non-increasing, in lex order.  Each block lists its flat indices as the
    images of those words under the letter relabelling that keeps counts,
    ties broken in letter order, so place t of every block of a shape holds
    the same word up to relabelling; the first block holds ``words``.
    Relabelling letters is the action of a permutation matrix of GL_d, so
    an operator that commutes with GL_d (a slot permutation, a graded
    projector) has one matrix per shape.
    """
    shapes, values = {}, {}
    powers = [d**p for p in reversed(range(k))]
    for content in itertools.combinations_with_replacement(range(d), k):
        runs = sorted((-len(list(run)), a) for a, run in itertools.groupby(content))
        shape = tuple(-c for c, _ in runs)
        if shape not in shapes:
            words = tuple(distinct_orderings(c for c, n in enumerate(shape, 1) for _ in range(n)))
            shapes[shape] = (words, [])
            # values[shape][c - 1][t]: the place value of letter c in word t,
            # the sum of d^(k-1-p) over the places p that hold it
            values[shape] = [[0] * len(words) for _ in shape]
            for t, u in enumerate(words):
                for x, c in zip(powers, u):
                    values[shape][c - 1][t] += x
        words, blocks = shapes[shape]
        # a relabelled word's index: each letter's place value times its new digit
        block = itertools.repeat(0, len(words))
        for column, (_, a) in zip(values[shape], runs):
            block = map(add, block, map(mul, column, itertools.repeat(a)))
        blocks.append(tuple(block))
    return shapes


def is_symmetric(tensor: Tensor) -> bool:
    """True iff the tensor is fixed by every slot permutation: these permute
    each weight block transitively, so iff its numerators are constant on
    every block."""
    at = tensor.nums.__getitem__
    return all(len(set(map(at, block))) == 1
               for _, blocks in weight_patterns(tensor.d, tensor.k).values() for block in blocks)


@value_type
class TensorSeries:
    """Truncated tensor series: one tensor per level 0..k_max."""

    d: int
    levels: tuple[Tensor, ...]

    def __init__(self, d: int, levels: tuple[Tensor, ...]) -> None:
        if not levels:
            raise ValueError("series needs at least level 0")
        for i, level in enumerate(levels):
            if level.d != d or level.k != i:
                raise ValueError(f"level {i} has wrong shape")
        self.__dict__.update(d=d, levels=levels)

    @property
    def k_max(self) -> int:
        return len(self.levels) - 1

    def level(self, k: int) -> Tensor:
        return self.levels[k]

    @staticmethod
    def from_levels(d: int, k_max: int, parts: dict[int, Tensor]) -> "TensorSeries":
        """The series with the given levels, zero at every level not given."""
        return TensorSeries(d, tuple(
            parts[k] if k in parts else Tensor(d, k, (0,) * d**k, 1) for k in range(k_max + 1)
        ))


def symmetrize(tensor: Tensor) -> Tensor:
    """Average over all slot permutations: each entry becomes the mean of its
    weight block, which the k! permutations cover k! / |block| times each."""
    d, k = tensor.d, tensor.k
    n = math.factorial(k)
    nums = [0] * len(tensor.nums)
    for block in itertools.chain.from_iterable(blocks for _, blocks in weight_patterns(d, k).values()):
        total = sum(map(tensor.nums.__getitem__, block)) * (n // len(block))
        for i in block:
            nums[i] = total
    return Tensor(d, k, nums, tensor.den * n)


# ---------------------------------------------------------------------------
# the slot codec of both packed kernels, the slot action of
# thrallkit.group_algebra and the Chen update of thrallkit.shuffle_sig:
# signed integers packed into one Python int, ``width`` bits a slot

# The signed C types of 8, 16, 32 and 64 bits, by width: array and
# memoryview.cast read and write slots of these widths at C level.
_SLOT_CODES = {array(code).itemsize * 8: code for code in "bhilq"}


def slot_width(bits: int) -> int:
    """The slot for signed values of ``bits`` bits, sign included: 8, 16, 32
    or 64 bits, which ``array`` and ``memoryview.cast`` read at C level, else
    whole bytes."""
    return max(8, 1 << (bits - 1).bit_length()) if bits <= 64 else -(-bits // 8) * 8


def slot_mask(width: int, count: int) -> int:
    """The top bit of each of ``count`` slots of ``width`` bits."""
    top = (1 << (width - 1)).to_bytes(width // 8, sys.byteorder)
    return int.from_bytes(top * count, sys.byteorder)


def pack_slots(values, width: int, mask: int) -> int:
    """``values``, each fitting a slot of 8 to 64 bits, as one signed int:
    ``array`` writes two's complement slots in native byte order, and
    ``(x ^ mask) - mask`` makes them the signed sum over the slots."""
    raw = array(_SLOT_CODES[width], values).tobytes()
    return (int.from_bytes(raw, sys.byteorder) ^ mask) - mask


def slot_bytes(total: int, mask: int) -> bytes:
    """The slots of a sum of packed ints, each slot's value fitting it, as
    two's complement in native byte order: adding ``mask`` first keeps each
    slot's borrow out of the next.  ``mask`` has ``count * width`` bits."""
    return ((total + mask) ^ mask).to_bytes(mask.bit_length() // 8, sys.byteorder)


def read_slots(raw: bytes, width: int) -> list[int]:
    """The signed slots of :func:`slot_bytes`, in memory order (slot order on
    a little-endian machine): one ``memoryview.cast`` up to 64 bits, else
    one ``int.from_bytes`` a slot."""
    if width in _SLOT_CODES:
        return memoryview(raw).cast(_SLOT_CODES[width]).tolist()
    step = width // 8
    return [int.from_bytes(raw[i : i + step], sys.byteorder, signed=True)
            for i in range(0, len(raw), step)]
