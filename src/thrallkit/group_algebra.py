"""The rational group algebra of the symmetric group acting on tensor slots.

Element product is the convolution extending ``(sigma tau)(i) = sigma(tau(i))``.
Elements act on tensors through :func:`thrallkit.tensors.permute_slots`:

    ga_act(x, T) = sum_sigma x_sigma * permute_slots(T, sigma)

For elements fixed by ``sigma -> sigma^{-1}`` (all degree-3 projectors below,
every central idempotent) this agrees with the mirrored action; in general the
two differ and this package consistently uses the slot action above.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import linalg
from .free_lie import bracket_expansion
from .permutations import (
    Perm,
    all_permutations,
    compose,
    cycle_type,
    identity as identity_perm,
    inverse,
    perm_to_word,
    sign,
    word_to_perm,
)
from .tensors import Tensor, gather_map, weight_blocks
from .words import Partition, Word, YoungTableau, check_partition, partitions

# Degree cap for the exact projector solve; reproduction of the published
# values needs k <= 4, and 5 stays comfortably fast.  Larger degrees are an
# extension point, not a supported path.
K_MAX = 5


_ZERO = Fraction(0)


class ResourceLimitError(RuntimeError):
    """Raised when a computation exceeds the configured degree cap."""


@dataclass(frozen=True)
class GroupAlgebraElement:
    """Rational linear combination of permutations of {1..k}."""

    k: int
    terms: dict[Perm, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {}
        for perm, c in self.terms.items():
            perm = tuple(perm)
            if sorted(perm) != list(range(self.k)):
                raise ValueError(f"{perm} is not a permutation of 0..{self.k - 1}")
            c = Fraction(c)
            if c != 0:
                cleaned[perm] = c
        object.__setattr__(self, "terms", cleaned)

    @staticmethod
    def identity(k: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement(k, {identity_perm(k): Fraction(1)})

    @staticmethod
    def zero(k: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement(k, {})

    @staticmethod
    def of(k: int, perm: Perm, coeff=1) -> "GroupAlgebraElement":
        return GroupAlgebraElement(k, {tuple(perm): Fraction(coeff)})

    def coefficient(self, perm: Perm) -> Fraction:
        return self.terms.get(tuple(perm), Fraction(0))

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = terms.get(p, Fraction(0)) + c
        return GroupAlgebraElement(self.k, terms)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + other.scale(-1)

    def scale(self, c) -> "GroupAlgebraElement":
        c = Fraction(c)
        return GroupAlgebraElement(self.k, {p: c * v for p, v in self.terms.items()})

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return ga_multiply(self, other)

    def reverse(self) -> "GroupAlgebraElement":
        """Image under the antipode sigma -> sigma^{-1}."""
        return GroupAlgebraElement(
            self.k, {inverse(p): c for p, c in self.terms.items()}
        )

    def is_idempotent(self) -> bool:
        return ga_multiply(self, self) == self

    def _check(self, other: "GroupAlgebraElement") -> None:
        if self.k != other.k:
            raise ValueError(f"degree mismatch: {self.k} vs {other.k}")


def ga_multiply(x: GroupAlgebraElement, y: GroupAlgebraElement) -> GroupAlgebraElement:
    """Convolution product with (sigma tau)(i) = sigma(tau(i)).

    Accumulates integer numerators over the product of the two common
    denominators.
    """
    x._check(y)
    xden, xs = linalg.integer_numerators(x.terms.values())
    yden, ys = linalg.integer_numerators(y.terms.values())
    acc: dict[Perm, int] = {}
    for p, a in zip(x.terms, xs):
        for q, b in zip(y.terms, ys):
            pq = compose(p, q)
            acc[pq] = acc.get(pq, 0) + a * b
    den = xden * yden
    return GroupAlgebraElement(x.k, {p: Fraction(c, den) for p, c in acc.items() if c})


def ga_act(x: GroupAlgebraElement, tensor: Tensor) -> Tensor:
    """Apply an element to a tensor through the slot action.

    ``out[u] = sum_sigma x_sigma T[u o sigma]``, accumulated as integer
    numerators over the product of the common denominators of ``x`` and
    ``T``, in one pass per permutation through its cached
    :func:`~thrallkit.tensors.gather_map`; no intermediate tensors are built.
    Each gather map stays inside the weight blocks of
    :func:`~thrallkit.tensors.weight_blocks`.
    """
    if x.k != tensor.k:
        raise ValueError(f"degree mismatch: element {x.k}, tensor order {tensor.k}")
    d, k = tensor.d, tensor.k
    tden, values = linalg.integer_numerators(tensor.entries)
    xden, coeffs = linalg.integer_numerators(x.terms.values())
    acc = [0] * len(values)
    if any(values):
        for perm, c in zip(x.terms, coeffs):
            acc = [a + c * values[j] for a, j in zip(acc, gather_map(d, k, perm))]
    den = xden * tden
    return Tensor(d, k, tuple(Fraction(a, den) if a else _ZERO for a in acc))


def operator_image(x: GroupAlgebraElement, d: int) -> list[Tensor]:
    """Images of all basis tensors under ``ga_act(x, .)`` (spanning the image)."""
    out = []
    for word in itertools.product(range(1, d + 1), repeat=x.k):
        img = ga_act(x, Tensor.basis(d, word))
        if not img.is_zero():
            out.append(img)
    return out


def operator_rank(x: GroupAlgebraElement, d: int) -> int:
    """Rank of ``ga_act(x, .)`` on the k-fold tensor power of a d-space.

    The slot action keeps letter content, so the operator is block-diagonal
    on the weight blocks; its rank is the sum of the ranks of the block
    matrices, built straight from ``x.terms`` through the gather maps
    (row ``u`` holds ``x_sigma`` at column ``u o sigma``; scaling ``x`` to
    integer coefficients keeps the rank).
    """
    _, coeffs = linalg.integer_numerators(x.terms.values())
    maps = [gather_map(d, x.k, perm) for perm in x.terms]
    total = 0
    for block in weight_blocks(d, x.k):
        position = {i: t for t, i in enumerate(block)}
        rows = []
        for u in block:
            row = [0] * len(block)
            for c, g in zip(coeffs, maps):
                row[position[g[u]]] += c
            rows.append(row)
        total += linalg.rank(rows)
    return total


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
    terms: dict[Perm, Fraction] = {}
    for t in _subgroup_fixing(rows, k):
        for s in _subgroup_fixing(cols, k):
            ts = compose(t, s)
            terms[ts] = terms.get(ts, Fraction(0)) + sign(s)
    return GroupAlgebraElement(k, terms)


def young_symmetrizer_transposed(tableau: YoungTableau) -> GroupAlgebraElement:
    """Signed column sum times row sum (the column-first variant)."""
    k = tableau.size
    rows = [tuple(r) for r in tableau.rows]
    cols = [tableau.column(j) for j in range(tableau.shape[0])]
    terms: dict[Perm, Fraction] = {}
    for s in _subgroup_fixing(cols, k):
        for t in _subgroup_fixing(rows, k):
            st = compose(s, t)
            terms[st] = terms.get(st, Fraction(0)) + sign(s)
    return GroupAlgebraElement(k, terms)


# ---------------------------------------------------------------------------
# central idempotents


def central_idempotent(mu: Partition) -> GroupAlgebraElement:
    """Character projector onto the isotypic component labelled by mu."""
    from .symfun import sn_character
    from .words import num_standard

    mu = check_partition(mu)
    k = sum(mu)
    norm = Fraction(num_standard(mu), math.factorial(k))
    char_by_type = {rho: sn_character(mu, rho) for rho in partitions(k)}
    terms = {
        p: norm * char_by_type[cycle_type(p)]
        for p in all_permutations(k)
        if char_by_type[cycle_type(p)] != 0
    }
    return GroupAlgebraElement(k, terms)


# ---------------------------------------------------------------------------
# higher Lie idempotents via the multilinear graded decomposition
#
# The projector family is determined by its action on the single tensor
# e_1 x e_2 x .. x e_k (all letters distinct): permutation operators are
# linearly independent there, and the graded decomposition preserves the
# multilinear weight space.  So it suffices to decompose that one tensor
# inside the k!-dimensional span of the permutation words.


def _lyndon_words_on_set(letters: tuple[int, ...]) -> list[Word]:
    """Lyndon words using each of the given distinct letters exactly once.

    A word on distinct letters is Lyndon iff it starts with the smallest one.
    """
    smallest = min(letters)
    rest = sorted(x for x in letters if x != smallest)
    return [(smallest,) + perm for perm in itertools.permutations(rest)]


def _set_partitions_with_sizes(elements: tuple[int, ...], sizes: tuple[int, ...]):
    """Partitions of ``elements`` into unordered blocks of the given sizes."""
    if not sizes:
        if not elements:
            yield ()
        return
    first = elements[0]
    for s in sorted(set(sizes), reverse=True):
        remaining_sizes = list(sizes)
        remaining_sizes.remove(s)
        for combo in itertools.combinations(elements[1:], s - 1):
            block = (first,) + combo
            rest = tuple(e for e in elements if e not in block)
            for tail in _set_partitions_with_sizes(rest, tuple(remaining_sizes)):
                yield (block,) + tail


def _sparse_product(factors: list[dict[Word, int]]) -> dict[Word, int]:
    term: dict[Word, int] = {(): 1}
    for factor in factors:
        new: dict[Word, int] = {}
        for wa, ca in term.items():
            for wb, cb in factor.items():
                key = wa + wb
                new[key] = new.get(key, 0) + ca * cb
        term = new
    return term


def _multilinear_w_basis(k: int) -> dict[Partition, list[dict[Word, int]]]:
    """Multilinear part of each graded subspace, as sparse word vectors."""
    elements = tuple(range(1, k + 1))
    out: dict[Partition, list[dict[Word, int]]] = {}
    for lam in partitions(k):
        vectors = []
        seen: set[tuple] = set()
        for blocks in _set_partitions_with_sizes(elements, lam):
            key = tuple(sorted(tuple(sorted(b)) for b in blocks))
            if key in seen:
                continue
            seen.add(key)
            blocks_sorted = sorted(key, key=lambda b: (len(b), b))
            choices = [
                _lyndon_words_on_set(tuple(block)) for block in blocks_sorted
            ]
            for words in itertools.product(*choices):
                brackets = [dict(bracket_expansion(w)) for w in words]
                vec: dict[Word, int] = {}
                for order in itertools.permutations(range(len(words))):
                    for w, c in _sparse_product([brackets[i] for i in order]).items():
                        vec[w] = vec.get(w, 0) + c
                vectors.append({w: c for w, c in vec.items() if c})
        out[lam] = vectors
    return out


_idempotent_lock = threading.Lock()
_idempotent_table: dict[int, dict[Partition, GroupAlgebraElement]] = {}


def _solve_lie_idempotents(k: int) -> dict[Partition, GroupAlgebraElement]:
    basis = _multilinear_w_basis(k)
    perm_words = [perm_to_word(p) for p in all_permutations(k)]
    word_index = {w: i for i, w in enumerate(perm_words)}
    n = len(perm_words)
    columns: list[list[Fraction]] = []
    column_labels: list[Partition] = []
    for lam in partitions(k):
        for vec in basis[lam]:
            col = [Fraction(0)] * n
            for w, c in vec.items():
                col[word_index[w]] = Fraction(c)
            columns.append(col)
            column_labels.append(lam)
    if len(columns) != n:
        raise ArithmeticError("multilinear graded bases do not fill the weight space")
    matrix = [[columns[j][i] for j in range(n)] for i in range(n)]
    iota = tuple(range(1, k + 1))
    rhs = [Fraction(1) if w == iota else Fraction(0) for w in perm_words]
    coords = linalg.solve(matrix, rhs)
    if coords is None:
        raise ArithmeticError("projector solve is inconsistent")
    out: dict[Partition, GroupAlgebraElement] = {}
    for lam in partitions(k):
        component = [Fraction(0)] * n
        for j, label in enumerate(column_labels):
            if label == lam and coords[j] != 0:
                col = columns[j]
                for i in range(n):
                    component[i] += coords[j] * col[i]
        # component = projection of e_iota; the slot action sends e_iota to
        # e_{word(sigma^{-1})}, so the coefficient of sigma sits at that word
        terms: dict[Perm, Fraction] = {}
        for i, w in enumerate(perm_words):
            if component[i] != 0:
                terms[inverse(word_to_perm(w))] = component[i]
        out[lam] = GroupAlgebraElement(k, terms)
    return out


# Version of the disk-cache file format (the first format had no version in
# its file names); bump it when the projector convention or the JSON layout
# changes, so stale files are never read.
CACHE_VERSION = 2


def _cache_dir() -> Path | None:
    path = os.environ.get("THRALLKIT_CACHE_DIR")
    return Path(path) if path else None


def _cache_file(k: int, lam: Partition) -> Path | None:
    base = _cache_dir()
    if base is None:
        return None
    name = f"idempotent_v{CACHE_VERSION}_k{k}_" + "-".join(map(str, lam)) + ".json"
    return base / name


def _load_cached(k: int, lam: Partition) -> GroupAlgebraElement | None:
    """The cached element, or None when the file is missing or undecodable."""
    path = _cache_file(k, lam)
    if path is None:
        return None
    from .jsonio import group_element_from_json

    try:
        element = group_element_from_json(json.loads(path.read_text()))
    except (FileNotFoundError, ValueError, TypeError):
        # missing, corrupt JSON, bad UTF-8 or a payload of the wrong shape
        return None
    return element if element.k == k else None


def _store_cached(k: int, lam: Partition, element: GroupAlgebraElement) -> None:
    """Write atomically: a temporary file in the cache directory, then a rename."""
    path = _cache_file(k, lam)
    if path is None:
        return
    from .jsonio import group_element_to_json

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(group_element_to_json(element)))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _is_projector_family(k: int, table: dict[Partition, GroupAlgebraElement]) -> bool:
    """Check a loaded family: E_lam has identity coefficient |class lam| / k!
    (its trace on the group algebra), the family sums to the identity, and
    each E_lam is idempotent.  Idempotents summing to the identity in
    characteristic 0 are pairwise orthogonal, so that is implied."""
    from .symfun import centralizer_order

    one = identity_perm(k)
    total = GroupAlgebraElement.zero(k)
    for lam, element in table.items():
        if element.coefficient(one) != Fraction(1, centralizer_order(lam)):
            return False
        total = total + element
    if total != GroupAlgebraElement.identity(k):
        return False
    return all(element.is_idempotent() for element in table.values())


def higher_lie_idempotent(lam: Partition) -> GroupAlgebraElement:
    """The projector onto the lam-graded subspace along the other summands.

    Acts as the identity on the lam-graded subspace and as zero on every
    other graded summand, for every dimension d.  Computed once per degree
    by an exact linear solve (see the comment block above) and memoized;
    set THRALLKIT_CACHE_DIR to persist results across processes.  Cached
    families are validated on load; an undecodable or invalid family is
    recomputed and its files rewritten.
    """
    lam = check_partition(lam)
    k = sum(lam)
    if k < 1:
        raise ValueError("lam must be a partition of k >= 1")
    if k > K_MAX:
        raise ResourceLimitError(f"degree {k} exceeds the exact-solve cap {K_MAX}")
    with _idempotent_lock:
        if k in _idempotent_table:
            return _idempotent_table[k][lam]
    cached = {mu: _load_cached(k, mu) for mu in partitions(k)}
    if all(v is not None for v in cached.values()) and _is_projector_family(k, cached):
        table = cached
    else:
        table = _solve_lie_idempotents(k)
        for mu, element in table.items():
            _store_cached(k, mu, element)
    with _idempotent_lock:
        _idempotent_table[k] = table
    return table[lam]


def verify_refinement(
    parts: list[GroupAlgebraElement], whole: GroupAlgebraElement
) -> bool:
    """Check a user-supplied splitting of a projector into finer projectors.

    Splittings of an isotypic block into individual irreducible copies are
    not canonical, so this library never constructs one; it only verifies
    that the given elements are idempotent, pairwise orthogonal, and sum to
    the given projector.
    """
    total = GroupAlgebraElement.zero(whole.k)
    for i, p in enumerate(parts):
        if ga_multiply(p, p) != p:
            return False
        for q in parts[i + 1 :]:
            if ga_multiply(p, q).terms or ga_multiply(q, p).terms:
                return False
        total = total + p
    return total == whole


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
