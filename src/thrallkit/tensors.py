"""Dense tensors and truncated tensor series over exact rationals.

A :class:`Tensor` has one representation: integer numerators over one
positive denominator, in lowest terms.  Every algorithm computes on those
integers, and each hands its own to the constructor, the one place where
numerators become a tensor.  Fractions are built only at the boundary
(:attr:`Tensor.entries`, item access, :meth:`Tensor.nonzero_terms`).

Weight blocks: slot permutations keep the letter content of a word (the
multiset of its letters), and so do the graded bases and every operator
built from them, because the diagonal torus of GL_d fixes each of these.
:func:`weight_blocks` groups the flat indices by content.  The slot action
itself is :func:`thrallkit.group_algebra.ga_act`; the symmetric group acts
transitively on each weight block, so :func:`is_symmetric` and
:func:`symmetrize` read the blocks alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from . import linalg
from .words import Word, index_to_word, word_to_index

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Tensor:
    """Dense order-``k`` tensor on a ``d``-dimensional space: integer
    numerators ``nums`` over one denominator ``den``.

    ``Tensor(d, k, values)`` reads ``d**k`` ints or Fractions and ``Tensor(d, k,
    nums, den)`` integer numerators over ``den >= 1``.  Both are reduced to
    lowest terms, ``gcd(den, *nums) == 1`` (the zero tensor has ``den ==
    1``), so equal tensors have equal fields, and equality, hashing and
    repr read ``(d, k, nums, den)``.  Entries are indexed by words via
    base-``d`` encoding; ``k == 0`` stores a single scalar.  The Fractions
    :attr:`entries` are built on first read, for output and tests.
    """

    d: int
    k: int
    nums: tuple[int, ...]
    den: int | None = None

    def __post_init__(self) -> None:
        if self.d < 1 or self.k < 0:
            raise ValueError("require d >= 1 and k >= 0")
        nums, den = self.nums, self.den
        if den is None:
            den, nums = linalg.integer_numerators(nums)
        elif den < 1:
            raise ValueError(f"den must be >= 1, got {den}")
        nums = tuple(nums)
        if len(nums) != self.d**self.k:
            raise ValueError(f"expected {self.d ** self.k} entries, got {len(nums)}")
        # math.gcd also rejects numerators that are not integers
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = tuple(n // g for n in nums), den // g
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

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
    def from_dict(d: int, k: int, terms: dict[Word, Fraction], den: int | None = None) -> "Tensor":
        """The tensor of a sparse word map: rational coefficients, or integer
        numerators over ``den`` as in the constructor."""
        values = [0] * d**k
        for word, coeff in terms.items():
            if len(word) != k:
                raise ValueError(f"word {word} has length != {k}")
            values[word_to_index(word, d)] += coeff if den else Fraction(coeff)
        return Tensor(d, k, values, den)

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
def weight_blocks(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Flat indices of the words of length k grouped by letter content.

    Blocks appear in the order of their first index, indices ascending.
    """
    blocks: dict[tuple[int, ...], list[int]] = {}
    for i, word in enumerate(itertools.product(range(d), repeat=k)):
        blocks.setdefault(tuple(sorted(word)), []).append(i)
    return tuple(tuple(block) for block in blocks.values())


def is_symmetric(tensor: Tensor) -> bool:
    """True iff the tensor is fixed by every slot permutation: these permute
    each weight block transitively, so iff its numerators are constant on
    every block."""
    at = tensor.nums.__getitem__
    return all(len(set(map(at, block))) == 1 for block in weight_blocks(tensor.d, tensor.k))


@dataclass(frozen=True)
class TensorSeries:
    """Truncated tensor series: one tensor per level 0..k_max."""

    d: int
    levels: tuple[Tensor, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("series needs at least level 0")
        for i, level in enumerate(self.levels):
            if level.d != self.d or level.k != i:
                raise ValueError(f"level {i} has wrong shape")

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
    for block in weight_blocks(d, k):
        total = sum(map(tensor.nums.__getitem__, block)) * (n // len(block))
        for i in block:
            nums[i] = total
    return Tensor(d, k, nums, tensor.den * n)
