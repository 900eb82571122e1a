"""Linear functionals on tensor levels invariant under volume-preserving maps.

By the first fundamental theorem for the determinant-one group, the
degree-k invariants are zero unless k = d*ell, and then they are spanned by
products of determinants: split the k slots into ell columns of d slots and
multiply the determinants of the letters read in each column.  The standard
tableaux of the d-by-ell rectangle give a basis (the standard polytabloids;
straightening rewrites every other column split in terms of them), so the
invariant space is read off directly, with no linear solve.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from . import linalg
from .permutations import all_permutations, sign
from .shuffle_sig import WordFunctional
from .tensors import Tensor
from .words import Partition, Word, distinct_orderings, standard_tableaux, word_to_index


def _column_sign(letters: Word) -> int:
    """Determinant of the basis vectors e_letters: a sign, or 0 on a repeat."""
    inversions = 0
    for i, a in enumerate(letters):
        for b in letters[i + 1 :]:
            if a == b:
                return 0
            inversions += a > b
    return -1 if inversions % 2 else 1


def _polytabloid_rows(d: int, ell: int) -> tuple[list[Word], list[list[int]]]:
    """The balanced words (each letter ell times) and one integer row per
    standard tableau of the rectangle ``(ell,)*d``: at the word w, the product
    over the tableau's columns of the determinant of the letters of w in that
    column's slots."""
    words = list(distinct_orderings(letter for letter in range(1, d + 1) for _ in range(ell)))
    rows = []
    for tableau in standard_tableaux((ell,) * d):
        columns = [tableau.column(j) for j in range(ell)]
        rows.append([
            math.prod(_column_sign(tuple(w[slot - 1] for slot in col)) for col in columns)
            for w in words
        ])
    return words, rows


def _functionals(d: int, words: list[Word], vectors) -> list[WordFunctional]:
    """The functionals of :func:`thrallkit.linalg.primitive_row_basis` of the
    vectors, whose entries sit at the words in lex order."""
    return [
        WordFunctional(d, {w: c for w, c in zip(words, row) if c})
        for row in linalg.primitive_row_basis(vectors)
    ]


def sl_invariant_space(d: int, k: int) -> list[WordFunctional]:
    """Basis of the degree-k functionals invariant under determinant-one maps.

    Degree 0 is the trivial piece: the constant functional ``{(): 1}``.
    Above it the space is empty unless d divides k.  Otherwise the standard
    polytabloid rows of the d-by-(k/d) rectangle span the invariants (they
    are products of determinants, and their number is the rectangle's count
    of standard tableaux, the dimension of the space), supported on the
    balanced words.  Returned functionals are the canonical (row-reduced)
    basis of that span, normalized: integer coefficients with gcd one, first
    nonzero coefficient (in lex word order) positive.  Raises ``ValueError``
    for ``k < 0``.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return [WordFunctional(d, {(): 1})]
    if k % d != 0:
        return []
    words, rows = _polytabloid_rows(d, k // d)
    return _functionals(d, words, rows)


def path_invariants(d: int, ell: int) -> dict[Partition, list[WordFunctional]]:
    """Invariant functionals of degree d*ell, split along the graded pieces.

    For each partition lam of d*ell, a basis of the invariants that only
    depend on the lam-graded component, obtained by projecting the invariant
    space with the graded projector family.  The dimension at lam equals the
    multiplicity of the d-by-ell rectangle inside the lam-graded character.

    The invariants live on the balanced weight block (each letter ell times),
    so each image is a polytabloid row times that block's cached projector
    matrix (:func:`thrallkit.group_algebra.balanced_projections`), and the
    rows are built only once that call has checked the degree cap.  Degree 0
    (``ell == 0``) is the trivial piece: the constant functional at the
    empty partition.  Raises ``ValueError`` for ``ell < 0``.
    """
    if ell < 0:
        raise ValueError(f"ell must be >= 0, got {ell}")
    if ell == 0:
        return {(): sl_invariant_space(d, 0)}
    from .group_algebra import balanced_projections

    projectors = balanced_projections(d, ell)
    words, rows = _polytabloid_rows(d, ell)
    table = {}
    for lam, _, matrix in projectors:
        columns = list(zip(*matrix))
        images = [[sum(map(operator.mul, row, col)) for col in columns] for row in rows]
        table[lam] = _functionals(d, words, images)
    return table


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
    total = sum(
        sign(p) * tensor.nums[word_to_index(tuple(x + 1 for x in p), tensor.d)]
        for p in all_permutations(tensor.d)
    )
    return Fraction(total, tensor.den)


def random_unimodular_matrix(d: int, rng):
    """Product of up to six random integer shears; determinant exactly one."""
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    for _ in range(6):
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
