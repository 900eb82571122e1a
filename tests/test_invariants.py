import itertools
import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from thrallkit import group_algebra, invariants, linalg
from thrallkit.free_lie import LieElement, phi_k, random_lie_element
from thrallkit.invariants import (
    alternating_signature,
    lie_invariant_dimension,
    path_invariants,
    random_unimodular_matrix,
    sl_invariant_space,
)
from thrallkit.jsonio import format_partition, functional_to_json
from thrallkit.permutations import all_permutations, sign
from thrallkit.reference_suite import BETA_22, BETA_31
from thrallkit.shuffle_sig import WordFunctional, levy_functional
from thrallkit.symfun import thrall_coefficients
from thrallkit.tensors import Tensor, symmetrize, tensor_product
from thrallkit.words import (
    ResourceLimitError,
    all_words,
    distinct_orderings,
    num_standard,
    partitions,
    standard_tableaux,
)

from oracles import (
    apply_matrix,
    basis_tensor,
    check_invariance,
    dense_w_lambda_basis,
    evaluate_on_tensor,
    fraction_path_invariants,
    leibniz_determinant,
    nullspace_sl_invariant_space,
    permutation_sl_invariant_space,
    permutation_words_with_counts,
    polytabloid_rows_by_scan,
    random_tensor,
)


def words_with_counts(counts: dict) -> list:
    return list(distinct_orderings(letter for letter, c in counts.items() for _ in range(c)))


ISOTYPIC_1 = WordFunctional(
    2, {(1, 2, 1, 2): 1, (1, 2, 2, 1): -1, (2, 1, 1, 2): -1, (2, 1, 2, 1): 1}
)


def proportional(beta, gamma):
    if set(beta.terms) != set(gamma.terms):
        return False
    return len({gamma.terms[w] / c for w, c in beta.terms.items()}) == 1


@pytest.mark.parametrize(
    "d,ell",
    [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)],
)
def test_invariant_space_dimension_is_rectangle_multiplicity(d, ell):
    k = d * ell
    assert len(sl_invariant_space(d, k)) == num_standard((ell,) * d)


@pytest.mark.parametrize(
    "d,k",
    [(1, k) for k in range(1, 7)]
    + [(2, k) for k in range(1, 10)]
    + [(3, 3), (3, 6), (4, 4), (5, 5)],
)
def test_invariant_space_matches_nullspace_reference(d, k):
    assert sl_invariant_space(d, k) == nullspace_sl_invariant_space(d, k)


@pytest.mark.parametrize(
    "counts",
    [{}, {1: 3}, {1: 2, 2: 2}, {1: 3, 2: 1, 3: 2}, {1: 0, 2: 2}, {2: 4, 1: 1, 3: 1, 4: 2}],
)
def test_words_with_counts_match_the_permutation_enumeration(counts):
    assert words_with_counts(counts) == permutation_words_with_counts(counts)


@pytest.mark.parametrize(
    "d,k",
    [(1, k) for k in range(1, 9)]
    + [(2, k) for k in range(1, 11)]
    + [(3, 3), (3, 6), (4, 4), (4, 8)],
)
def test_balanced_words_and_invariants_match_the_permutation_enumeration(d, k):
    counts = {letter: k // d for letter in range(1, d + 1)}
    assert words_with_counts(counts) == permutation_words_with_counts(counts)
    assert sl_invariant_space(d, k) == permutation_sl_invariant_space(d, k)


@pytest.mark.parametrize(
    "d,ell",
    [(2, ell) for ell in range(1, 7)] + [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]
    + [(d, 1) for d in (1, 5, 6)],
)
def test_polytabloid_rows_match_the_scan_of_every_balanced_word(d, ell):
    assert invariants._polytabloid_rows(d, ell) == polytabloid_rows_by_scan(d, ell)


def test_polytabloid_rows_at_2_7_hold_one_signed_word_per_column_permutation():
    # the scan takes seconds here: count the rows and their nonzero entries,
    # and read sampled entries as products of Leibniz column determinants
    words, rows = invariants._polytabloid_rows(2, 7)
    tableaux = standard_tableaux((7, 7))
    assert len(words) == 3432 and len(rows) == len(tableaux) == 429
    assert all(sum(map(abs, row)) == sum(map(bool, row)) == 2**7 for row in rows)
    rng = Random(36)
    for t in rng.sample(range(429), 6):
        support = [i for i, c in enumerate(rows[t]) if c]
        for i in rng.sample(support, 8) + rng.sample(range(3432), 8):
            expected = 1
            for j in range(7):
                letters = [words[i][slot - 1] for slot in tableaux[t].column(j)]
                expected *= leibniz_determinant([[int(a == b) for b in (1, 2)] for a in letters])
            assert rows[t][i] == expected


def test_invariant_space_empty_when_degree_not_divisible():
    assert sl_invariant_space(2, 3) == []
    assert sl_invariant_space(3, 4) == []


def test_invariant_space_levy():
    basis = sl_invariant_space(2, 2)
    assert len(basis) == 1
    assert proportional(basis[0], levy_functional())


def test_invariant_space_k4_contains_isotypic_basis():
    basis = sl_invariant_space(2, 4)
    words = all_words(2, 4)
    span = [[b.terms.get(w, Fraction(0)) for w in words] for b in basis]
    for ref in (ISOTYPIC_1, BETA_22):
        assert linalg.in_span(span, [ref.terms.get(w, Fraction(0)) for w in words])


def test_invariants_kill_derivations_sample():
    # beta(X . T) = 0 for the raising derivation on random tensors
    rng = Random(30)
    basis = sl_invariant_space(2, 4)
    shear = [[1, 1], [0, 1]]  # exp of the raising generator
    for beta in basis:
        for _ in range(3):
            t = random_tensor(2, 4, rng)
            assert evaluate_on_tensor(beta, apply_matrix(shear, t)) == evaluate_on_tensor(beta, t)


def test_path_invariants_22_reference():
    table = path_invariants(2, 2)
    assert set(table) == set(partitions(4))
    assert len(table[(2, 2)]) == 1 and proportional(table[(2, 2)][0], BETA_22)
    assert len(table[(3, 1)]) == 1 and proportional(table[(3, 1)][0], BETA_31)
    for lam in ((4,), (2, 1, 1), (1, 1, 1, 1)):
        assert table[lam] == []


def test_path_invariants_dims_match_thrall_coefficients():
    for d, ell in [(2, 1), (2, 2), (3, 1)]:
        table = path_invariants(d, ell)
        k = d * ell
        total = 0
        for lam in partitions(k):
            expected = thrall_coefficients(lam).get((ell,) * d, 0)
            assert len(table[lam]) == expected
            total += expected
        assert total == len(sl_invariant_space(d, k))


@pytest.mark.parametrize(
    "d,ell",
    [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 2), (3, 1), (4, 1), (5, 1)],
)
def test_path_invariants_match_fraction_action(d, ell):
    table = path_invariants(d, ell)
    assert list(table) == list(partitions(d * ell))
    assert table == fraction_path_invariants(d, ell)


def test_path_invariants_resource_guard(monkeypatch):
    # the cap is checked before the invariant rows or the partitions of d*ell
    def fail(*args):
        raise AssertionError("built before the degree cap was checked")

    monkeypatch.setattr(invariants, "_polytabloid_rows", fail)
    monkeypatch.setattr(group_algebra, "partitions", fail)
    for d, ell in ((2, 3), (9, 1000)):
        with pytest.raises(ResourceLimitError):
            path_invariants(d, ell)


def _table_plain(table):
    """A table in the CLI's JSON form."""
    return {
        format_partition(lam): [functional_to_json(beta, grading=lam) for beta in basis]
        for lam, basis in table.items()
    }


def test_path_invariants_are_built_once_and_returned_fresh(monkeypatch):
    golden = json.loads((Path(__file__).parent / "data" / "invariants_d2_ell2.out").read_text())
    first, second = path_invariants(2, 2), path_invariants(2, 2)
    assert first == second
    assert first is not second
    # a caller that clears its answer changes no later one
    for basis in first.values():
        basis.clear()
    first.clear()
    assert _table_plain(second) == golden

    def fail(*args):
        raise AssertionError("rebuilt a memoized table")

    monkeypatch.setattr(invariants, "_polytabloid_rows", fail)
    assert _table_plain(path_invariants(2, 2)) == golden


def test_path_invariants_above_the_cap_raise_on_every_call():
    # an error is never cached
    for _ in range(3):
        with pytest.raises(ResourceLimitError):
            path_invariants(1, 6)


def test_path_invariants_pass_invariance_battery():
    rng = Random(31)
    table = path_invariants(2, 2)
    matrices = [random_unimodular_matrix(2, rng) for _ in range(20)]
    for lam, basis in table.items():
        for beta in basis:
            for g in matrices:
                t = random_tensor(2, 4, rng)
                assert check_invariance(beta, g, t)


def test_check_invariance_examples():
    t = random_tensor(2, 4, Random(32))
    identity = [[1, 0], [0, 1]]
    assert check_invariance(BETA_22, identity, t)
    shear = [[1, 2], [0, 1]]
    coord = WordFunctional(2, {(1, 1, 1, 1): 1})
    assert not check_invariance(coord, shear, basis_tensor(2, (1, 2, 1, 2)))
    with pytest.raises(ValueError):
        check_invariance(BETA_22, [[2, 0], [0, 1]], t)


def test_apply_matrix_on_elementary_tensor():
    g = [[1, 2], [3, 4]]
    u = Tensor.from_vector(2, [1, 1])
    v = Tensor.from_vector(2, [2, -1])
    lhs = apply_matrix(g, tensor_product(u, v))
    gu = Tensor.from_vector(2, [3, 7])
    gv = Tensor.from_vector(2, [0, 2])
    assert lhs == tensor_product(gu, gv)


def test_alternating_signature_plane():
    t = Tensor.from_dict(2, 2, {(1, 2): Fraction(3), (2, 1): Fraction(1)})
    assert alternating_signature(t) == 2
    levy = levy_functional()
    rng = Random(33)
    for _ in range(3):
        s = random_tensor(2, 2, rng)
        assert alternating_signature(s) == 2 * evaluate_on_tensor(levy, s)
    with pytest.raises(ValueError):
        alternating_signature(random_tensor(2, 3, rng))


def test_alternating_signature_kills_symmetric():
    for d in (2, 3):
        sym = symmetrize(random_tensor(d, d, Random(34)))
        assert alternating_signature(sym) == 0


def odd_alternating_oracle(element: LieElement) -> Fraction:
    """Degree-3 odd-dimensional evaluation: sum of sgn(s) T_{s(1)} * T_{s(2)s(3)}."""
    v = element.level(1)
    m = element.level(2)
    total = Fraction(0)
    for perm in itertools.permutations(range(3)):
        sign = 1
        p = list(perm)
        for i in range(3):
            while p[i] != i:
                j = p[i]
                p[i], p[j] = p[j], p[i]
                sign = -sign
        total += sign * v[(perm[0] + 1,)] * m[(perm[1] + 1, perm[2] + 1)]
    return total


def test_alternating_signature_d3_matches_odd_formula():
    # on Lie elements the level-3 evaluation is a fixed multiple of the
    # degree-(1,2) contraction; the multiple is pinned here
    rng = Random(35)
    ratios = set()
    for _ in range(6):
        element = random_lie_element(3, 3, rng)
        lhs = alternating_signature(phi_k(element, 3))
        rhs = odd_alternating_oracle(element)
        if rhs == 0:
            assert lhs == 0
        else:
            ratios.add(lhs / rhs)
    assert ratios == {Fraction(1)}


def test_alternating_signature_depends_only_on_level2_even_d():
    rng = Random(36)
    for d in (2, 4):
        base = random_lie_element(d, d, rng)
        value = alternating_signature(phi_k(base, d))
        modified_coeffs = dict(base.coeffs)
        for w in list(modified_coeffs):
            if len(w) != 2:
                modified_coeffs[w] = modified_coeffs[w] + Fraction(rng.randint(1, 3))
        extra = [(1,)] if d == 2 else [(1,), (1, 2, 3), (1, 2, 3, 4)]
        for w in extra:
            modified_coeffs.setdefault(w, Fraction(1))
        modified = LieElement(d, d, modified_coeffs)
        assert alternating_signature(phi_k(modified, d)) == value


def pfaffian_form(element: LieElement) -> Fraction:
    """Pfaffian-type sum on the degree-2 part of a Lie element, for even d:
    the sum over sigma of sgn(sigma) prod_i M[sigma(2i-1), sigma(2i)], with M
    the degree-2 coefficient matrix."""
    d = element.d
    if d % 2 != 0:
        raise ValueError("the Pfaffian form needs even d")
    level2 = element.level(2)
    m = [[level2[(i, j)] for j in range(1, d + 1)] for i in range(1, d + 1)]
    total = Fraction(0)
    for p in all_permutations(d):
        prod = Fraction(1)
        for i in range(d // 2):
            prod *= m[p[2 * i]][p[2 * i + 1]]
        total += sign(p) * prod
    return total


def test_pfaffian_form_d2():
    a = Fraction(5, 3)
    element = LieElement(2, 2, {(1, 2): a})
    assert pfaffian_form(element) == 2 * a
    assert pfaffian_form(LieElement(2, 2, {(1,): 1})) == 0
    with pytest.raises(ValueError):
        pfaffian_form(LieElement(3, 2, {(1, 2): 1}))


def test_pfaffian_form_d4_squares_to_determinant():
    rng = Random(37)
    for _ in range(4):
        coeffs = {}
        for w in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
            coeffs[w] = Fraction(rng.randint(-3, 3))
        element = LieElement(4, 2, coeffs)
        level2 = element.level(2)
        m = [[level2[(i, j)] for j in range(1, 5)] for i in range(1, 5)]
        # the full signed sum counts each pairing 2^e * e! = 8 times
        assert pfaffian_form(element) ** 2 == 64 * leibniz_determinant(m)


def test_pfaffian_form_proportional_to_alternating_signature():
    rng = Random(38)
    for d, want in ((2, Fraction(1)), (4, Fraction(1, 2))):
        ratios = set()
        for _ in range(3):
            element = random_lie_element(d, d, rng)
            pf = pfaffian_form(element)
            alt = alternating_signature(phi_k(element, d))
            if pf == 0:
                assert alt == 0
            else:
                ratios.add(alt / pf)
        assert ratios <= {want}
        assert ratios
    # note: the proportionality constants above are pinned by this test


def test_lie_invariant_vanishing_pattern():
    assert lie_invariant_dimension(3, 1) == 0
    assert lie_invariant_dimension(2, 2) == 0
    assert lie_invariant_dimension(3, 2) == 0
    assert lie_invariant_dimension(2, 3) > 0


def test_parts_bounded_by_two_pattern():
    # among shapes with parts <= 2, invariants exist exactly at the
    # rectangle-compatible shapes: (2^l) for d = 2 and (2^l, 1^l) for d = 3
    for ell in (1, 2, 3, 4):
        k = 2 * ell
        for lam in partitions(k):
            if lam and lam[0] > 2:
                continue
            dim = thrall_coefficients(lam).get((ell, ell), 0)
            assert dim == (1 if lam == (2,) * ell else 0)
    for ell in (1, 2):
        k = 3 * ell
        for lam in partitions(k):
            if lam and lam[0] > 2:
                continue
            dim = thrall_coefficients(lam).get((ell,) * 3, 0)
            assert dim == (1 if lam == (2,) * ell + (1,) * ell else 0)


def _kills_other_grades(beta, lam, d, k):
    """Dual-side grading via the primal bases: vanish on every other grade."""
    for mu in partitions(k):
        vanishes = all(
            evaluate_on_tensor(beta, vec) == 0 for vec in dense_w_lambda_basis(mu, d)
        )
        if mu == lam:
            if vanishes:
                return False
        elif not vanishes:
            return False
    return True


def test_products_of_graded_invariants():
    from thrallkit.shuffle_sig import levy_functional, shuffle_functionals

    levy = levy_functional()
    table = path_invariants(2, 2)
    beta22 = table[(2, 2)][0]
    # area x area lands in the (2,2) grade and is nonzero there
    square = shuffle_functionals(levy, levy)
    assert square.terms and _kills_other_grades(square, (2, 2), 2, 4)
    # area x (2,2)-invariant lands in the (2,2,2) grade (degree 6, beyond the
    # projector cap, so graded membership is checked against the bases)
    product = shuffle_functionals(levy, beta22)
    assert product.terms and _kills_other_grades(product, (2, 2, 2), 2, 6)
    rng = Random(39)
    g = random_unimodular_matrix(2, rng)
    for _ in range(3):
        t = random_tensor(2, 6, rng)
        assert check_invariance(product, g, t)


def test_parts_bounded_by_three_pattern_planar():
    # for d = 2, among shapes with parts <= 3, an invariant exists exactly
    # when parts 1 and 3 appear equally often, always with multiplicity one
    from thrallkit.words import multiplicity_profile

    for ell in range(1, 5):
        k = 2 * ell
        for lam in partitions(k):
            if lam and lam[0] > 3:
                continue
            prof = multiplicity_profile(lam)
            want = 1 if prof.get(1, 0) == prof.get(3, 0) else 0
            assert thrall_coefficients(lam).get((ell, ell), 0) == want
