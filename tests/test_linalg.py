import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from thrallkit import linalg

from oracles import gauss_jordan_rref, gauss_jordan_solve, identity_matrix, leibniz_determinant, nullspace


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_identity():
    assert linalg.primitive_row_basis(frac_matrix([[2, 0], [0, 5]])) == [[1, 0], [0, 1]]


def test_rank_and_nullspace_hand_case():
    m = frac_matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert linalg.rank(m) == 2
    ns = nullspace(m)
    assert len(ns) == 1
    v = ns[0]
    for row in m:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_solve_consistent_and_inconsistent():
    m = frac_matrix([[1, 1], [0, 1]])
    x = gauss_jordan_solve(m, [3, 2])
    assert x == [Fraction(1), Fraction(2)]
    bad = gauss_jordan_solve(frac_matrix([[1, 1], [1, 1]]), [0, 1])
    assert bad is None


def test_underdetermined_solve_satisfies_system():
    m = frac_matrix([[1, 2, 0]])
    x = gauss_jordan_solve(m, [4])
    assert sum(a * b for a, b in zip(m[0], x)) == 4


small_matrix = st.lists(
    st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=3, max_size=3
)


@given(small_matrix)
def test_rank_nullity(rows):
    m = frac_matrix(rows)
    assert linalg.rank(m) + len(nullspace(m)) == 3
    for v in nullspace(m):
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_span_helpers():
    a = frac_matrix([[1, 0, 0], [0, 1, 0]])
    b = frac_matrix([[1, 1, 0], [1, -1, 0]])
    assert linalg.same_span(a, b)
    assert linalg.in_span(a, [Fraction(2), Fraction(3), Fraction(0)])
    assert not linalg.in_span(a, [0, 0, 1])
    assert linalg.primitive_row_basis(b) == [[1, 0, 0], [0, 1, 0]]


def test_identity_matrix():
    assert identity_matrix(3) == frac_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert identity_matrix(0) == []


fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def rational_matrices(draw):
    """Rectangular matrices with fractional entries: full, rank-deficient
    (a product through a thin inner dimension) or with zero rows mixed in."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["full", "low-rank", "zero-rows"]))
    if kind == "low-rank":
        inner = draw(st.integers(0, 3))
        a = draw(st.lists(st.lists(fractions, min_size=inner, max_size=inner), min_size=nrows, max_size=nrows))
        b = draw(st.lists(st.lists(fractions, min_size=ncols, max_size=ncols), min_size=inner, max_size=inner))
        return [[sum((a[i][t] * b[t][j] for t in range(inner)), Fraction(0)) for j in range(ncols)] for i in range(nrows)]
    rows = draw(st.lists(st.lists(fractions, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    if kind == "zero-rows":
        for i in draw(st.lists(st.integers(0, max(nrows - 1, 0)), max_size=3)):
            if rows:
                rows[i] = [Fraction(0)] * ncols
    return rows


def primitive_rref_rows(red, pivots):
    """The nonzero rows of a Fraction RREF, each times the lcm of its
    denominators over the gcd of the products; the pivot 1 stays positive."""
    out = []
    for row in red[: len(pivots)]:
        scale = math.lcm(*(x.denominator for x in row))
        nums = [int(x * scale) for x in row]
        out.append([n // math.gcd(*nums) for n in nums])
    return out


@given(rational_matrices())
# the zero matrix; negative pivots, alone and after a row swap; rank deficiency
@example([[Fraction(0)] * 3] * 2)
@example(frac_matrix([[-3, 6, 1]]))
@example(frac_matrix([[0, -2, 4], [-5, 1, 0]]))
@example(frac_matrix([[1, 2], [3, 4]]))
@example(frac_matrix([[-2, 4, 6], [1, -2, -3], [0, 0, Fraction(-1, 2)]]))
def test_kernel_matches_gauss_jordan_oracle(m):
    red, pivots = gauss_jordan_rref(m)
    assert linalg.rank(m) == len(pivots)
    basis = linalg.primitive_row_basis(m)
    assert basis == primitive_rref_rows(red, pivots)
    assert all(math.gcd(*row) == 1 and next(a for a in row if a) > 0 for row in basis)
    ncols = len(m[0]) if m else 0
    null = nullspace(m)
    assert len(null) == ncols - len(pivots)
    for v in null:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


@given(rational_matrices(), st.data())
def test_solve_matches_gauss_jordan_oracle(m, data):
    # the oracle's solve, which the dense reference solves use, agrees with the
    # kernel: None exactly when the right-hand side raises the rank
    rhs = data.draw(st.lists(fractions, min_size=len(m), max_size=len(m)))
    augmented = [list(row) + [b] for row, b in zip(m, rhs)]
    consistent = linalg.rank(augmented) == linalg.rank(m)
    assert (gauss_jordan_solve(m, rhs) is not None) == consistent
    # a consistent right-hand side built from a known solution
    ncols = len(m[0]) if m else 0
    x = data.draw(st.lists(fractions, min_size=ncols, max_size=ncols))
    b = [sum((a * c for a, c in zip(row, x)), Fraction(0)) for row in m]
    got = gauss_jordan_solve(m, b)
    assert [sum((a * c for a, c in zip(row, got)), Fraction(0)) for row in m] == b


@given(st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(fractions, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_determinant_and_inverse_fractional(m):
    det = leibniz_determinant(m)
    n = len(m)
    if det == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.integer_inverse(m)
        return
    num, den = linalg.integer_inverse(m)
    # in lowest terms over a positive denominator
    assert den >= 1 and math.gcd(den, *(x for row in num for x in row)) == 1
    inv = [[Fraction(x, den) for x in row] for row in num]
    product = [[sum((m[i][t] * inv[t][j] for t in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]
    assert product == identity_matrix(n)


def test_integer_inverse_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.integer_inverse([[1, 2]])
