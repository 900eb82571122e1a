"""Words, Lyndon words, partitions and Young tableaux, and the decorator
:func:`value_type` that gives the package's value classes their semantics.

Conventions used throughout the package:

* words are tuples of letters from the 1-based alphabet ``{1, .., d}``;
* the flat index of a word is its base-``d`` encoding with the leftmost
  letter most significant (letter ``l`` contributes digit ``l - 1``), so
  index order coincides with lexicographic order on words;
* partitions are weakly decreasing tuples of positive integers;
* enumerations of partitions are in reverse-lexicographic order, largest
  part first, so output is deterministic.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cache
from types import MappingProxyType

Word = tuple[int, ...]
Partition = tuple[int, ...]


# Defined in this dependency-free module so that the CLI can catch it, and
# every module raise it, without loading the algebra.
class ResourceLimitError(RuntimeError):
    """Raised when a computation exceeds a fixed degree or size cap."""


def value_type(cls):
    """Make ``cls`` an immutable value over its annotated fields, in order.

    Installs ``==`` and ``hash`` on the tuple of fields, the repr
    ``Name(field=value, ..)``, and an ``AttributeError`` on any assignment
    or deletion of an attribute.  A class without its own ``__init__`` gets
    one that takes the fields by position or keyword, with the class
    attributes as defaults.  Fields live in the instance dict, which an
    ``__init__`` writes directly; memos kept there beside them (a
    ``cached_property``, or a key set through ``vars(x)``) are seen by
    neither equality nor the repr.  A class whose ``_reduce(self, fields)``
    writes a tuple of field values in canonical form gets the one builder of
    values valid by construction, ``cls._built(*fields)``: reduced,
    unchecked.  ``pickle`` and ``copy`` rebuild a value from its fields (a
    read-only mapping as a dict) through ``_built``, else the constructor,
    and carry no memo.  Unlike a frozen dataclass it imports nothing and
    generates no code, so no CLI process loads ``dataclasses`` and ``inspect``.
    """
    names = tuple(cls.__annotations__)
    fields = operator.attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    if "__init__" not in vars(cls):
        defaults = {n: vars(cls)[n] for n in names if n in vars(cls)}

        def __init__(self, *args, **kwargs):
            values = {**defaults, **dict(zip(names, args)), **kwargs}
            extra = len(args) > len(names) or not kwargs.keys() <= set(names[len(args):])
            if extra or len(values) != len(names):
                raise TypeError(f"{cls.__qualname__} takes the fields {', '.join(names)}")
            self.__dict__.update(values)

        cls.__init__ = __init__
    build = cls
    if "_reduce" in vars(cls):
        new, reduce = object.__new__, cls._reduce

        def _built(*fields):
            out = new(cls)
            reduce(out, fields)
            return out

        # named as the class attribute it is, so pickle finds it by reference
        _built.__module__, _built.__qualname__ = cls.__module__, f"{cls.__qualname__}._built"
        cls._built, build = staticmethod(_built), _built

    def __reduce__(self):
        values = map(vars(self).__getitem__, names)
        return build, tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in values)

    cls.__eq__, cls.__hash__, cls.__repr__, cls.__reduce__ = __eq__, __hash__, __repr__, __reduce__
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


def reduced_mapping(nums: dict, den: int) -> tuple[MappingProxyType, int]:
    """``nums``, integers over ``den``, read-only in lowest terms, zeros dropped."""
    # math.gcd also rejects numerators that are not integers
    g = math.gcd(den, *nums.values())
    return MappingProxyType({key: n // g for key, n in nums.items() if n}), den // g


# ---------------------------------------------------------------------------
# words


def word_to_index(word: Word, d: int) -> int:
    """Flat index of a word in {0, .., d^k - 1}."""
    idx = 0
    for letter in word:
        if not 1 <= letter <= d:
            raise ValueError(f"letter {letter} outside alphabet 1..{d}")
        idx = idx * d + (letter - 1)
    return idx


def index_to_word(index: int, d: int, k: int) -> Word:
    """Inverse of :func:`word_to_index` for words of length ``k``."""
    letters = []
    for _ in range(k):
        index, rem = divmod(index, d)
        letters.append(rem + 1)
    if index:
        raise ValueError(f"index out of range for d={d}, k={k}")
    return tuple(reversed(letters))


def all_words(d: int, k: int) -> list[Word]:
    """All d^k words of length k, in lexicographic (= index) order."""
    return list(itertools.product(range(1, d + 1), repeat=k))


def word_from_string(s: str) -> Word:
    """Parse a digit string like ``"1122"`` into a word.  Only the ASCII
    digits 1..9 are letters: ``str.isdigit`` also accepts the digits of
    other scripts, which would make ``"١٢"`` and ``"１２"`` aliases of ``"12"``."""
    if not all("1" <= c <= "9" for c in s):
        raise ValueError(f"word string {s!r} must consist of digits 1..9")
    return tuple(int(c) for c in s)


def word_to_string(word: Word) -> str:
    return "".join(str(letter) for letter in word)


def distinct_orderings(items):
    """The distinct orderings of a multiset, as tuples in lexicographic order.

    Each ordering is the lexicographic successor of the one before (Knuth,
    TAOCP 7.2.1.2, Algorithm L), so the cost is the number of orderings,
    not ``len(items)!``.
    """
    w = sorted(items)
    while True:
        yield tuple(w)
        i = len(w) - 2
        while i >= 0 and w[i] >= w[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(w) - 1
        while w[j] <= w[i]:
            j -= 1
        w[i], w[j] = w[j], w[i]
        w[i + 1 :] = w[:i:-1]


def longest_lyndon_prefix(word: Word) -> int:
    """Length of the longest Lyndon prefix of a nonempty word, which is the
    first factor of its Lyndon factorization (Duval's algorithm)."""
    i, j = 0, 1
    while j < len(word) and word[i] <= word[j]:
        i = 0 if word[i] < word[j] else i + 1
        j += 1
    return j - i


def is_lyndon(word: Word) -> bool:
    """True iff the word is its own longest Lyndon prefix (a Lyndon word is
    nonempty and strictly smaller than all of its proper rotations)."""
    return bool(word) and longest_lyndon_prefix(word) == len(word)


def lyndon_words(d: int, k: int) -> list[Word]:
    """Lyndon words of length exactly ``k`` over ``{1, .., d}``, in lex order.

    Uses Duval's generation of Lyndon words of length at most ``k``,
    keeping the ones of full length.  The words are generated once per
    ``(d, k)``; each call returns a fresh list of them.
    """
    return list(_lyndon_words(d, k))


@cache
def _lyndon_words(d: int, k: int) -> tuple[Word, ...]:
    """The words of :func:`lyndon_words`, generated once per ``(d, k)``; at
    d = 1 only ``(1,)``, without the walk's O(k) steps to find nothing above it."""
    if d < 1 or k < 1:
        raise ValueError("require d >= 1 and k >= 1")
    if d == 1:
        return ((1,),) if k == 1 else ()
    out: list[Word] = []
    w = [1]
    while w:
        if len(w) == k:
            out.append(tuple(w))
        # extend periodically to length k, then increment the last letter
        prefix = w[:]
        while len(w) < k:
            w.append(prefix[(len(w)) % len(prefix)])
        while w and w[-1] == d:
            w.pop()
        if w:
            w[-1] += 1
    return tuple(out)


def moebius(n: int) -> int:
    """Number-theoretic Moebius function."""
    if n < 1:
        raise ValueError("moebius is defined for n >= 1")
    if n == 1:
        return 1
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def divisors(n: int) -> list[int]:
    small = [t for t in range(1, math.isqrt(n) + 1) if n % t == 0]
    large = [n // t for t in reversed(small) if t * t != n]
    return small + large


def lie_dim(d: int, k: int) -> int:
    """Dimension of the degree-k graded piece of the free Lie algebra on d letters.

    Equals the necklace count (1/k) * sum_{t | k} moebius(t) * d^(k/t).
    """
    if d < 1 or k < 1:
        raise ValueError("require d >= 1 and k >= 1")
    total = sum(moebius(t) * d ** (k // t) for t in divisors(k))
    assert total % k == 0
    return total // k


# ---------------------------------------------------------------------------
# partitions


@cache
def partitions(k: int) -> tuple[Partition, ...]:
    """All partitions of ``k`` in reverse-lexicographic order."""
    if k < 0:
        raise ValueError("k must be nonnegative")

    def gen(n: int, largest: int):
        if n == 0:
            yield ()
            return
        for part in range(min(n, largest), 0, -1):
            for rest in gen(n - part, part):
                yield (part,) + rest

    return tuple(gen(k, k))


def check_partition(lam: Partition) -> Partition:
    lam = tuple(lam)
    if any(p <= 0 for p in lam):
        raise ValueError(f"{lam} has nonpositive parts")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"{lam} is not weakly decreasing")
    return lam


def multiplicity_profile(lam: Partition) -> dict[int, int]:
    """Map part size i -> number of parts of lam equal to i."""
    prof: dict[int, int] = {}
    for p in lam:
        prof[p] = prof.get(p, 0) + 1
    return prof


def partition_union(lam: Partition, mu: Partition) -> Partition:
    """Union of partitions: multiplicity profiles add."""
    return tuple(sorted(check_partition(lam) + check_partition(mu), reverse=True))


def multichoose(n: int, k: int) -> int:
    """Number of multisets of size k from n symbols."""
    if k == 0:
        return 1
    if n <= 0:
        return 0
    return math.comb(n + k - 1, k)


def w_module_dim(lam: Partition, d: int) -> int:
    """Dimension of the lam-graded module on a d-dimensional space."""
    lam = check_partition(lam)
    return math.prod(
        multichoose(lie_dim(d, i), a) for i, a in multiplicity_profile(lam).items()
    )


# ---------------------------------------------------------------------------
# tableaux


@value_type
class YoungTableau:
    """A filling of a partition shape with the integers 1..k, no repeats."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        entries = [x for row in rows for x in row]
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValueError("filling must be a bijection with 1..k")
        check_partition(tuple(map(len, rows)))
        self.__dict__.update(rows=rows)

    @property
    def shape(self) -> Partition:
        return tuple(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(self.shape)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows if len(row) > j)

def standard_tableaux(lam: Partition) -> list[YoungTableau]:
    """All standard Young tableaux of shape ``lam``."""
    lam = check_partition(lam)
    k = sum(lam)
    rows: list[list[int]] = [[] for _ in lam]

    out: list[YoungTableau] = []

    def place(value: int) -> None:
        if value > k:
            out.append(YoungTableau(tuple(tuple(r) for r in rows)))
            return
        for i, row in enumerate(rows):
            if len(row) >= lam[i]:
                continue
            j = len(row)
            if i > 0 and len(rows[i - 1]) <= j:
                continue
            row.append(value)
            place(value + 1)
            row.pop()

    place(1)
    return out


def hook_lengths(lam: Partition) -> list[list[int]]:
    lam = check_partition(lam)
    conj = conjugate_partition(lam)
    return [
        [(lam[i] - j) + (conj[j] - i) - 1 for j in range(lam[i])]
        for i in range(len(lam))
    ]


def conjugate_partition(lam: Partition) -> Partition:
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def num_standard(lam: Partition) -> int:
    """Number of standard tableaux of shape lam, by the hook length formula.

    This is also the multiplicity of the irreducible labelled by lam inside
    the k-fold tensor power under the classical commuting-actions duality.
    """
    lam = check_partition(lam)
    k = sum(lam)
    denom = math.prod(h for row in hook_lengths(lam) for h in row)
    f, rem = divmod(math.factorial(k), denom)
    assert rem == 0
    return f


def schur_dim(mu: Partition, d: int) -> int:
    """Dimension of the Schur module for shape mu on a d-dimensional space.

    Hook-content formula; zero when mu has more than d rows.
    """
    mu = check_partition(mu)
    if d < 1:
        raise ValueError("d must be >= 1")
    if len(mu) > d:
        return 0
    hooks = hook_lengths(mu)
    num = 1
    den = 1
    for i in range(len(mu)):
        for j in range(mu[i]):
            num *= d + j - i
            den *= hooks[i][j]
    dim, rem = divmod(num, den)
    assert rem == 0
    return dim
