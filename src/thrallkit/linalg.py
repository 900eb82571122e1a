"""Exact linear algebra over the rationals.

Matrices are lists of rows of ints or :class:`fractions.Fraction`.  Every
routine goes through one fraction-free kernel: each row is scaled to
integers by the lcm of its denominators (which keeps its row space), then
reduced by Gauss-Jordan elimination with Bareiss's exact division (Bareiss,
*Math. Comp.* 22, 1968), so every intermediate entry is an integer minor of
the scaled matrix.  Results are integers too: a rank, an inverse as
numerators over one denominator, and a row-space basis as primitive
integer rows; no Fraction is built here.
"""

from __future__ import annotations

import math


def integer_numerators(values) -> tuple[int, list[int]]:
    """Common denominator ``D`` and integers ``n`` with ``values[i] == n[i] / D``
    for ints and Fractions ``values``."""
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def _integer_rows(matrix) -> tuple[list[list[int]], list[int]]:
    """Each row scaled to integers; returns the rows and their scale factors."""
    rows, scales = [], []
    for row in matrix:
        den, nums = integer_numerators(row)
        rows.append(nums)
        scales.append(den)
    return rows, scales


def _eliminate(rows: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place.

    Returns ``(pivot columns, p)``.  Afterwards row ``r`` below the rank
    holds ``p`` at its pivot column and 0 at every other pivot column, the
    remaining rows are zero, and the RREF is ``rows / p``.  ``p`` is the
    determinant of the pivot rows and columns after the row swaps.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev, r = 1, 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            # Sylvester's identity makes every division exact
            if f:
                rows[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
            elif p != prev:
                rows[i] = [p * a // prev for a in row]
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, prev


def rank(matrix) -> int:
    rows, _ = _integer_rows(matrix)
    return len(_eliminate(rows)[0])


def integer_inverse(matrix) -> tuple[list[list[int]], int]:
    """Inverse of a square matrix as integer numerators over one denominator.

    Returns ``(N, D)`` with ``inverse == N / D`` in lowest terms and ``D >=
    1``.  Reducing ``[S A | S]``, where ``S`` holds the row scale factors,
    leaves ``[p I | p A^-1]``; ``p`` is a minor of the scaled matrix, and its
    gcd with the numerators is often most of it.  Raises
    :class:`ZeroDivisionError` when the matrix is singular.
    """
    rows, scales = _integer_rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse requires a square matrix")
    for i, s in enumerate(scales):
        rows[i] += [s if j == i else 0 for j in range(n)]
    pivots, p = _eliminate(rows)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    g = math.gcd(p, *(x for row in rows for x in row[n:])) * (1 if p > 0 else -1)
    return [[x // g for x in row[n:]] for row in rows], p // g


def primitive_row_basis(matrix) -> list[list[int]]:
    """Basis of the row space: the nonzero rows of the reduced row echelon
    form, each scaled to coprime integers with a positive pivot.

    Row ``r`` of the eliminated matrix is ``p`` times RREF row ``r``, so
    dividing it by its gcd, signed like ``p``, makes it primitive.
    """
    rows, _ = _integer_rows(matrix)
    pivots, p = _eliminate(rows)
    basis = []
    for row in rows[: len(pivots)]:
        g = math.gcd(*row) if p > 0 else -math.gcd(*row)
        basis.append([a // g for a in row])
    return basis


def in_span(vectors, target) -> bool:
    """Exact membership of ``target`` in the span of ``vectors``."""
    vecs = [list(v) for v in vectors]
    return rank(vecs + [list(target)]) == rank(vecs)


def same_span(vectors_a, vectors_b) -> bool:
    """Exact equality of spans."""
    a = [list(v) for v in vectors_a]
    b = [list(v) for v in vectors_b]
    return rank(a) == rank(b) == rank(a + b)
