"""Dense tensors and truncated tensor series over exact rationals.

Slot-action convention (fixed here once, and every slot action agrees with
:func:`permute_slots`): for a permutation ``sigma`` the permuted tensor has

    permute_slots(T, sigma)[w] = T[w o sigma]      (w o sigma)_i = w_{sigma(i)}

equivalently on decomposable tensors sigma moves the factor in slot ``i``
to slot ``sigma^{-1}(i)``:

    sigma . (v_1 x ... x v_k) = v_{sigma^{-1}(1)} x ... x v_{sigma^{-1}(k)}

which makes the assignment ``sigma -> permute_slots(., sigma)`` a left
group action: ``(sigma tau) . T = sigma . (tau . T)``.

Weight blocks: slot permutations keep the letter content of a word (the
multiset of its letters), and so do the graded bases and every operator
built from them, because the diagonal torus of GL_d fixes each of these.
:func:`weight_blocks` groups the flat indices by content.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import linalg
from .permutations import Perm, inverse
from .words import Word, index_to_word, word_to_index

Scalar = Fraction

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Tensor:
    """Dense order-``k`` tensor on a ``d``-dimensional space.

    ``entries`` has length ``d**k`` and is indexed by words via base-``d``
    encoding; ``k == 0`` stores a single scalar.  A tensor built from
    integers by :meth:`from_numerators` keeps them for :meth:`numerators`,
    outside the dataclass fields, so equality, hashing and repr read the
    entries only.
    """

    d: int
    k: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.d < 1 or self.k < 0:
            raise ValueError("require d >= 1 and k >= 0")
        if len(self.entries) != self.d**self.k:
            raise ValueError(
                f"expected {self.d ** self.k} entries, got {len(self.entries)}"
            )

    # -- construction -------------------------------------------------

    @staticmethod
    def from_numerators(d: int, k: int, den: int, nums) -> "Tensor":
        """The tensor with entries ``nums[i] / den`` (``den >= 1``), whose
        :meth:`numerators` are ``(den, nums)``."""
        nums = tuple(nums)
        entries = [_ZERO] * len(nums)
        for i in itertools.compress(range(len(nums)), nums):
            entries[i] = Fraction(nums[i], den)
        tensor = Tensor(d, k, tuple(entries))
        object.__setattr__(tensor, "_numerators", (den, nums))
        return tensor

    @staticmethod
    def zero(d: int, k: int) -> "Tensor":
        return Tensor(d, k, (Fraction(0),) * d**k)

    @staticmethod
    def scalar(d: int, value) -> "Tensor":
        return Tensor(d, 0, (Fraction(value),))

    @staticmethod
    def basis(d: int, word: Word) -> "Tensor":
        entries = [Fraction(0)] * d ** len(word)
        entries[word_to_index(word, d)] = Fraction(1)
        return Tensor(d, len(word), tuple(entries))

    @staticmethod
    def from_vector(d: int, coords) -> "Tensor":
        coords = [Fraction(c) for c in coords]
        if len(coords) != d:
            raise ValueError("coordinate count must equal d")
        return Tensor(d, 1, tuple(coords))

    @staticmethod
    def from_dict(d: int, k: int, terms: dict[Word, Fraction]) -> "Tensor":
        entries = [Fraction(0)] * d**k
        for word, coeff in terms.items():
            if len(word) != k:
                raise ValueError(f"word {word} has length != {k}")
            entries[word_to_index(word, d)] += Fraction(coeff)
        return Tensor(d, k, tuple(entries))

    # -- access --------------------------------------------------------

    def __getitem__(self, word: Word) -> Fraction:
        if len(word) != self.k:
            raise ValueError(f"word {word} has length != {self.k}")
        return self.entries[word_to_index(word, self.d)]

    def nonzero_terms(self) -> dict[Word, Fraction]:
        return {
            index_to_word(i, self.d, self.k): c
            for i, c in enumerate(self.entries)
            if c != 0
        }

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.entries)

    def numerators(self) -> tuple[int, tuple[int, ...]]:
        """Common denominator ``D`` and integers ``n`` with ``entries[i] == n[i]
        / D``, as in :func:`thrallkit.linalg.integer_numerators` (``D`` need
        not be least); computed once per tensor, or kept from
        :meth:`from_numerators`."""
        try:
            return self._numerators
        except AttributeError:
            den, nums = linalg.integer_numerators(self.entries)
            object.__setattr__(self, "_numerators", (den, tuple(nums)))
            return self._numerators

    # -- linear structure -----------------------------------------------

    def _check_compatible(self, other: "Tensor") -> None:
        if self.d != other.d or self.k != other.k:
            raise ValueError(
                f"shape mismatch: (d={self.d}, k={self.k}) vs (d={other.d}, k={other.k})"
            )

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_compatible(other)
        return Tensor(
            self.d, self.k, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_compatible(other)
        return Tensor(
            self.d, self.k, tuple(a - b for a, b in zip(self.entries, other.entries))
        )

    def __neg__(self) -> "Tensor":
        return Tensor(self.d, self.k, tuple(-a for a in self.entries))

    def scale(self, c) -> "Tensor":
        c = Fraction(c)
        return Tensor(self.d, self.k, tuple(c * a for a in self.entries))

    def __rmul__(self, c) -> "Tensor":
        return self.scale(c)


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    """Tensor (outer) product; entry at word IJ is a[I] * b[J]."""
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    size_b = b.d**b.k
    entries = [Fraction(0)] * (a.d ** (a.k + b.k))
    pos = 0
    for ca in a.entries:
        if ca == 0:
            pos += size_b
            continue
        for cb in b.entries:
            if cb != 0:
                entries[pos] = ca * cb
            pos += 1
    return Tensor(a.d, a.k + b.k, tuple(entries))


@cache
def weight_blocks(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Flat indices of the words of length k grouped by letter content.

    Blocks appear in the order of their first index, indices ascending.
    """
    blocks: dict[tuple[int, ...], list[int]] = {}
    for i, word in enumerate(itertools.product(range(d), repeat=k)):
        blocks.setdefault(tuple(sorted(word)), []).append(i)
    return tuple(tuple(block) for block in blocks.values())


def permute_slots(tensor: Tensor, sigma: Perm) -> Tensor:
    """Left slot action; see the module docstring for the convention.

    Gathers through the index map ``g[index(w)] = index(w o sigma)``: letter
    j of w lands at place ``sigma^{-1}(j)`` of ``w o sigma``, so the map is
    built slot by slot, leftmost (most significant) first.
    """
    d, k = tensor.d, tensor.k
    if len(sigma) != k:
        raise ValueError(f"permutation size {len(sigma)} != tensor order {k}")
    g = [0]
    for place in inverse(tuple(sigma)):
        step = d ** (k - 1 - place)
        g = [x + a * step for x in g for a in range(d)]
    return Tensor(d, k, tuple(map(tensor.entries.__getitem__, g)))


def is_symmetric(tensor: Tensor) -> bool:
    """True iff the tensor is fixed by every slot permutation.

    Checked on adjacent transpositions, which generate the full group.
    """
    k = tensor.k
    for i in range(k - 1):
        sigma = list(range(k))
        sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
        if permute_slots(tensor, tuple(sigma)) != tensor:
            return False
    return True


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
    def unit(d: int, k_max: int) -> "TensorSeries":
        levels = [Tensor.scalar(d, 1)] + [Tensor.zero(d, k) for k in range(1, k_max + 1)]
        return TensorSeries(d, tuple(levels))

    @staticmethod
    def zero(d: int, k_max: int) -> "TensorSeries":
        levels = [Tensor.scalar(d, 0)] + [Tensor.zero(d, k) for k in range(1, k_max + 1)]
        return TensorSeries(d, tuple(levels))

    @staticmethod
    def from_levels(d: int, k_max: int, parts: dict[int, Tensor]) -> "TensorSeries":
        levels = []
        for k in range(k_max + 1):
            if k in parts:
                levels.append(parts[k])
            elif k == 0:
                levels.append(Tensor.scalar(d, 0))
            else:
                levels.append(Tensor.zero(d, k))
        return TensorSeries(d, tuple(levels))

    def _check_compatible(self, other: "TensorSeries") -> None:
        if self.d != other.d or self.k_max != other.k_max:
            raise ValueError("series shape mismatch")

    def __add__(self, other: "TensorSeries") -> "TensorSeries":
        self._check_compatible(other)
        return TensorSeries(
            self.d, tuple(a + b for a, b in zip(self.levels, other.levels))
        )

    def __sub__(self, other: "TensorSeries") -> "TensorSeries":
        self._check_compatible(other)
        return TensorSeries(
            self.d, tuple(a - b for a, b in zip(self.levels, other.levels))
        )

    def scale(self, c) -> "TensorSeries":
        return TensorSeries(self.d, tuple(level.scale(c) for level in self.levels))


def random_tensor(d: int, k: int, rng, bound: int = 5) -> Tensor:
    """Uniform small-integer-coefficient tensor from an explicit RNG (tests)."""
    return Tensor(
        d, k, tuple(Fraction(rng.randint(-bound, bound)) for _ in range(d**k))
    )


def symmetrize(tensor: Tensor) -> Tensor:
    """Average over all slot permutations."""
    k = tensor.k
    acc = Tensor.zero(tensor.d, k)
    count = 0
    for sigma in itertools.permutations(range(k)):
        acc = acc + permute_slots(tensor, sigma)
        count += 1
    return acc.scale(Fraction(1, count))
