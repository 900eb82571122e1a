import math
from fractions import Fraction

import pytest

from thrallkit.symfun import (
    SymFun,
    _character_table,
    higher_lie_character,
    lie_character,
    plethysm_h,
    plethysm_p,
    schur_expand,
    sn_character,
    thrall_coefficients,
)
from thrallkit.words import (
    conjugate_partition,
    lie_dim,
    multiplicity_profile,
    num_standard,
    partitions,
    schur_dim,
    w_module_dim,
)

from oracles import kraskiewicz_weyman_multiplicity, mn_character


def centralizer_order(rho) -> int:
    """Order of the centralizer of a permutation of cycle type rho."""
    return math.prod(i**a * math.factorial(a) for i, a in multiplicity_profile(rho).items())


def specialize(f: SymFun, d: int) -> Fraction:
    """Every power sum set to d: for the character of a polynomial functor,
    the dimension of its space on a d-dimensional vector space."""
    return Fraction(sum(n * d ** len(rho) for rho, n in f.nums.items()), f.den)

S3_TABLE = {
    # classes (1,1,1), (2,1), (3)
    (3,): [1, 1, 1],
    (2, 1): [2, 0, -1],
    (1, 1, 1): [1, -1, 1],
}


def test_s3_character_table():
    classes = [(1, 1, 1), (2, 1), (3,)]
    for mu, values in S3_TABLE.items():
        assert [sn_character(mu, rho) for rho in classes] == values


def test_trivial_and_sign_characters():
    for k in range(1, 7):
        for rho in partitions(k):
            assert sn_character((k,), rho) == 1
            parity = (-1) ** (k - len(rho))
            assert sn_character((1,) * k, rho) == parity


def test_character_dimension_column():
    for k in range(1, 8):
        for mu in partitions(k):
            assert sn_character(mu, (1,) * k) == num_standard(mu)


@pytest.mark.parametrize("k", range(1, 7))
def test_character_orthogonality(k):
    fact = math.factorial(k)
    for mu in partitions(k):
        for nu in partitions(k):
            total = sum(
                Fraction(fact, centralizer_order(rho))
                * sn_character(mu, rho)
                * sn_character(nu, rho)
                for rho in partitions(k)
            )
            assert total == (fact if mu == nu else 0)


def test_transpose_symmetry():
    # chi_{mu'}(rho) = sign(rho) * chi_mu(rho)
    for k in range(1, 7):
        for mu in partitions(k):
            for rho in partitions(k):
                sign = (-1) ** (k - len(rho))
                assert sn_character(conjugate_partition(mu), rho) == sign * sn_character(mu, rho)


def test_lie_character_small():
    assert lie_character(1) == SymFun(1, {(1,): 1})
    l2 = lie_character(2)
    assert (l2.nums, l2.den) == ({(1, 1): 1, (2,): -1}, 2)
    l3 = lie_character(3)
    assert (l3.nums, l3.den) == ({(1, 1, 1): 1, (3,): -1}, 3)
    assert schur_expand(l3) == {(2, 1): Fraction(1)}


def test_lie_character_rejects_degree_zero():
    with pytest.raises(ValueError):
        lie_character(0)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lie_character_specializes_to_dimension(d):
    for k in range(1, 7):
        assert specialize(lie_character(k), d) == lie_dim(d, k)


def test_plethysm_h_degenerate():
    f = lie_character(2)
    assert plethysm_h(0, f) == SymFun(0, {(): 1})
    assert plethysm_h(1, f) == f


def test_plethysm_p_substitution():
    f = SymFun(2, {(1, 1): 1, (2,): -1}, 2)
    g = plethysm_p(3, f)
    assert (g.nums, g.den) == ({(3, 3): 1, (6,): -1}, 2)


def test_sym2_of_wedge2():
    got = schur_expand(plethysm_h(2, lie_character(2)))
    assert got == {(2, 2): Fraction(1), (1, 1, 1, 1): Fraction(1)}


@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_sym_powers_of_wedge2_have_doubled_columns(a):
    expansion = schur_expand(plethysm_h(a, lie_character(2)))
    for mu, coeff in expansion.items():
        assert coeff == 1
        # every part repeated evenly often, i.e. the conjugate has even parts
        assert all(part % 2 == 0 for part in conjugate_partition(mu))
    got = {mu: int(c) for mu, c in expansion.items()}
    assert got == {tuple(x for p in lam for x in (p, p)): 1 for lam in partitions(a)}


def test_higher_lie_character_degenerate_shapes():
    for k in range(1, 6):
        assert higher_lie_character((k,)) == lie_character(k)
        sym_k = plethysm_h(k, SymFun(1, {(1,): 1}))
        assert higher_lie_character((1,) * k) == sym_k


def test_higher_lie_character_21():
    got = schur_expand(higher_lie_character((2, 1)))
    assert got == {(2, 1): Fraction(1), (1, 1, 1): Fraction(1)}


def test_schur_expand_full_tensor_power():
    for k in range(1, 6):
        f = SymFun(k, {(1,) * k: 1})
        assert schur_expand(f) == {
            mu: Fraction(num_standard(mu)) for mu in partitions(k)
        }


def test_thrall_reference_values():
    assert thrall_coefficients((4, 1))[(3, 1, 1)] == 2
    assert thrall_coefficients((3,)) == {(2, 1): 1}
    assert thrall_coefficients((2, 1)) == {(2, 1): 1, (1, 1, 1): 1}
    assert thrall_coefficients((1, 1, 1)) == {(3,): 1}


def test_thrall_multiplicity_free_up_to_four():
    for k in range(1, 5):
        for lam in partitions(k):
            assert all(a in (0, 1) for a in thrall_coefficients(lam).values())


@pytest.mark.parametrize("k", range(1, 9))
def test_thrall_column_sums(k):
    totals: dict = {}
    for lam in partitions(k):
        for mu, a in thrall_coefficients(lam).items():
            totals[mu] = totals.get(mu, 0) + a
    assert totals == {mu: num_standard(mu) for mu in partitions(k)}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_thrall_row_dimension_sums(d):
    for k in range(1, 7):
        for lam in partitions(k):
            total = sum(
                a * schur_dim(mu, d) for mu, a in thrall_coefficients(lam).items()
            )
            assert total == w_module_dim(lam, d)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_higher_lie_character_specialization(d):
    for k in range(1, 7):
        for lam in partitions(k):
            assert specialize(higher_lie_character(lam), d) == w_module_dim(lam, d)


def test_w_module_dims_fill_tensor_power():
    for d in (1, 2, 3):
        for k in range(1, 7):
            assert sum(w_module_dim(lam, d) for lam in partitions(k)) == d**k


def test_symfun_product_degree_check():
    with pytest.raises(ValueError):
        SymFun(2, {(1, 1): 1}) + SymFun(3, {(3,): 1})
    prod = SymFun(2, {(2,): 1}) * SymFun(1, {(1,): 1})
    assert prod == SymFun(3, {(2, 1): 1})


S4_TABLE = {
    # classes (1,1,1,1), (2,1,1), (2,2), (3,1), (4)
    (4,): [1, 1, 1, 1, 1],
    (3, 1): [3, 1, -1, 0, -1],
    (2, 2): [2, 0, 2, -1, 0],
    (2, 1, 1): [3, -1, -1, 0, 1],
    (1, 1, 1, 1): [1, -1, 1, 1, -1],
}


def test_s4_character_table():
    classes = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    for mu, values in S4_TABLE.items():
        assert [sn_character(mu, rho) for rho in classes] == values


def test_alternating_invariant_location_degree5():
    # for odd dimension 5 the unique alternating invariant sits in the
    # (2,2,1)-graded piece and nowhere else
    for lam in partitions(5):
        a = thrall_coefficients(lam).get((1, 1, 1, 1, 1), 0)
        assert a == (1 if lam == (2, 2, 1) else 0)


@pytest.mark.parametrize("k", range(10))
def test_character_table_matches_the_pairwise_recursion(k):
    assert _character_table(k) == {
        mu: {rho: mn_character(mu, rho) for rho in partitions(k)} for mu in partitions(k)
    }


@pytest.mark.parametrize("k", range(1, 10))
def test_lie_character_multiplicities_count_tableaux_by_major_index(k):
    expected = {mu: kraskiewicz_weyman_multiplicity(mu) for mu in partitions(k)}
    assert thrall_coefficients((k,)) == {mu: a for mu, a in expected.items() if a}


def test_symfun_canonical_form():
    f = SymFun(2, {(1, 1): 2, (2,): -4}, 6)
    assert (f.nums, f.den) == ({(1, 1): 1, (2,): -2}, 3)
    zero = SymFun(2, {(1, 1): 0, (2,): 0}, 5)
    assert (zero.nums, zero.den) == ({}, 1)
    assert SymFun(2, {(2,): 3, (1, 1): 0}, 3) == SymFun(2, {(2,): 1})
    # products and sums come back in lowest terms too
    half = SymFun(1, {(1,): 1}, 2)
    assert (half * half).den == 4 and (half + half) == SymFun(1, {(1,): 1})
    for den in (0, -1):
        with pytest.raises(ValueError):
            SymFun(1, {(1,): 1}, den)
    with pytest.raises(TypeError):
        SymFun(1, {(1,): Fraction(1, 2)})
    with pytest.raises(ValueError):
        SymFun(2, {(3,): 1})


def test_symfun_constructor_checks_keys_and_arithmetic_keeps_them_canonical():
    # sums and products build their keys as partitions and skip the check,
    # but the public constructor still refuses a key that is not one
    for bad in ((1, 2), (2, 0), (-1, 3)):
        with pytest.raises(ValueError):
            SymFun(3, {bad: 1})
    f = SymFun(3, {(2, 1): 2, (1, 1, 1): -4}, 6) * SymFun(2, {(1, 1): 3}, 9)
    assert f == SymFun(5, {(2, 1, 1, 1): 2, (1, 1, 1, 1, 1): -4}, 18)
    assert f.nums == {(2, 1, 1, 1): 1, (1, 1, 1, 1, 1): -2} and f.den == 9
    assert f + f == SymFun(5, {(2, 1, 1, 1): 2, (1, 1, 1, 1, 1): -4}, 9)
