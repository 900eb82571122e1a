"""Linear functionals on tensor levels invariant under volume-preserving maps.

Invariance is imposed infinitesimally: a functional is invariant under the
connected group of determinant-one matrices iff it is killed by the traceless
matrices acting by derivations across the slots.  That condition is a finite
exact linear system, so the space of invariants is a nullspace computation.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from . import linalg
from .free_lie import LieElement
from .group_algebra import K_MAX, ResourceLimitError, _projector_blocks
from .permutations import all_permutations, sign
from .shuffle_sig import WordFunctional
from .tensors import Tensor
from .words import Partition, Word, word_to_index


def _words_with_counts(counts: dict[int, int]) -> list[Word]:
    """All words with the given letter multiplicities, lexicographically."""
    letters = [letter for letter, c in sorted(counts.items()) for _ in range(c)]
    return sorted(set(itertools.permutations(letters)))


def sl_invariant_space(d: int, k: int) -> list[WordFunctional]:
    """Basis of the degree-k functionals invariant under determinant-one maps.

    Invariance under the diagonal traceless generators pins the support to
    balanced words (each letter appearing k/d times, so empty unless d
    divides k); the off-diagonal elementary matrices E_ab then impose exact
    linear conditions, and the space is their nullspace.  Returned
    functionals are normalized: integer coefficients with gcd one, first
    nonzero coefficient (in lex word order) positive.
    """
    if k <= 0 or k % d != 0:
        return []
    quota = k // d
    balanced = _words_with_counts({letter: quota for letter in range(1, d + 1)})
    index = {w: i for i, w in enumerate(balanced)}
    rows: list[list[Fraction]] = []
    # one condition per generator E_ab and word w with one extra b and one
    # missing a: sum over slots of w holding b of beta[w with that slot -> a]
    for a in range(1, d + 1):
        for b in range(1, d + 1):
            if a == b:
                continue
            counts = {letter: quota for letter in range(1, d + 1)}
            counts[a] -= 1
            counts[b] += 1
            if counts[a] < 0:
                continue
            for w in _words_with_counts(counts):
                row = [Fraction(0)] * len(balanced)
                for slot, letter in enumerate(w):
                    if letter == b:
                        moved = w[:slot] + (a,) + w[slot + 1 :]
                        row[index[moved]] += 1
                rows.append(row)
    basis = linalg.nullspace(rows) if rows else linalg.identity_matrix(len(balanced))
    basis = linalg.row_space_basis(basis)
    return [
        normalize_functional(
            WordFunctional(d, {w: v[i] for w, i in index.items() if v[i] != 0})
        )
        for v in basis
    ]


def normalize_functional(beta: WordFunctional) -> WordFunctional:
    """Clear denominators, divide by the gcd, make the lex-first coefficient positive."""
    if not beta.terms:
        return beta
    _, nums = linalg.integer_numerators(beta.terms.values())
    g = math.gcd(*nums)
    if beta.terms[min(beta.terms)] < 0:
        g = -g
    return WordFunctional(beta.d, {w: n // g for w, n in zip(beta.terms, nums)})


def path_invariants(d: int, ell: int) -> dict[Partition, list[WordFunctional]]:
    """Invariant functionals of degree d*ell, split along the graded pieces.

    For each partition lam of d*ell, a basis of the invariants that only
    depend on the lam-graded component, obtained by projecting the invariant
    space with the graded projector family.  The dimension at lam equals the
    multiplicity of the d-by-ell rectangle inside the lam-graded character.

    The invariants live on the balanced weight block (each letter ell times),
    so each image is an invariant's integer row times that block's cached
    projector matrix (:mod:`thrallkit.group_algebra`).
    """
    k = d * ell
    if k > K_MAX:
        raise ResourceLimitError(
            f"path invariants via projectors capped at degree {K_MAX}"
        )
    words = _words_with_counts({letter: ell for letter in range(1, d + 1)})
    ambient = [
        linalg.integer_numerators(beta.terms.get(w, 0) for w in words)[1]
        for beta in sl_invariant_space(d, k)
    ]
    out: dict[Partition, list[WordFunctional]] = {}
    for lam, _, groups in _projector_blocks(d, k):
        columns = list(zip(*groups[(ell,) * d][0]))
        images = [[sum(map(operator.mul, beta, col)) for col in columns] for beta in ambient]
        out[lam] = [
            normalize_functional(
                WordFunctional(d, {w: v[i] for i, w in enumerate(words) if v[i] != 0})
            )
            for v in linalg.row_space_basis(images)
        ]
    return out


def lie_invariant_dimension(d: int, ell: int) -> int:
    """Dimension of the invariants living in the top graded piece (one part).

    This is the rectangle multiplicity inside the degree-(d*ell) Lie
    character, so it is available for any degree, without the projector cap.
    """
    from .symfun import thrall_coefficients

    k = d * ell
    return thrall_coefficients((k,)).get((ell,) * d, 0)


# ---------------------------------------------------------------------------
# alternating signatures


def alternating_signature(tensor: Tensor) -> Fraction:
    """The unique (up to scale) invariant on level k = d, evaluated directly.

    Sum over permutations of sgn(sigma) times the entry at the word
    (sigma(1), .., sigma(d)); for d = 2 this is T_12 - T_21.
    """
    if tensor.k != tensor.d:
        raise ValueError("alternating signature needs k = d")
    total = Fraction(0)
    for p in all_permutations(tensor.d):
        word = tuple(x + 1 for x in p)
        total += sign(p) * tensor.entries[word_to_index(word, tensor.d)]
    return total


def pfaffian_form(element: LieElement) -> Fraction:
    """Pfaffian-type sum on the degree-2 part of a Lie element, for even d.

    Sum over sigma of sgn(sigma) * prod_i M[sigma(2i-1), sigma(2i)] where M
    is the degree-2 coefficient matrix; proportional to the alternating
    signature of the level-d exponential image with a fixed constant, pinned
    by the test suite.
    """
    d = element.d
    if d % 2 != 0:
        raise ValueError("the Pfaffian form needs even d")
    level2 = element.level(2)
    m = [[level2[(i, j)] for j in range(1, d + 1)] for i in range(1, d + 1)]
    e = d // 2
    total = Fraction(0)
    for p in all_permutations(d):
        prod = Fraction(1)
        for i in range(e):
            prod *= m[p[2 * i]][p[2 * i + 1]]
            if prod == 0:
                break
        if prod != 0:
            total += sign(p) * prod
    return total


# ---------------------------------------------------------------------------
# invariance checking


def apply_matrix(g, tensor: Tensor) -> Tensor:
    """Apply g to every slot: the diagonal action of a d x d matrix."""
    d, k = tensor.d, tensor.k
    g = [[Fraction(x) for x in row] for row in g]
    if len(g) != d or any(len(row) != d for row in g):
        raise ValueError("matrix must be d x d")
    entries = list(tensor.entries)
    # apply along one slot at a time
    for slot in range(k):
        stride = d ** (k - slot - 1)
        new = [Fraction(0)] * len(entries)
        for base in range(0, len(entries), stride * d):
            for offset in range(stride):
                column = [entries[base + j * stride + offset] for j in range(d)]
                if all(c == 0 for c in column):
                    continue
                for i in range(d):
                    val = sum(g[i][j] * column[j] for j in range(d))
                    new[base + i * stride + offset] = val
        entries = new
    return Tensor(d, k, tuple(entries))


def check_invariance(beta: WordFunctional, g, tensor: Tensor) -> bool:
    """Exact test of beta(g . T) == beta(T) for a determinant-one matrix."""
    g = [[Fraction(x) for x in row] for row in g]
    if linalg.determinant(g) != 1:
        raise ValueError("matrix must have determinant exactly 1")
    return beta.evaluate_tensor(apply_matrix(g, tensor)) == beta.evaluate_tensor(tensor)


def random_unimodular_matrix(d: int, rng, steps: int = 6):
    """Product of integer shear matrices; determinant exactly one (tests)."""
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    for _ in range(steps):
        a = rng.randrange(d)
        b = rng.randrange(d)
        if a == b:
            continue
        c = Fraction(rng.randint(-2, 2))
        if c == 0:
            continue
        # left-multiply by I + c E_ab
        for j in range(d):
            m[a][j] += c * m[b][j]
    return m
