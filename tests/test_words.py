import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thrallkit.words import (
    YoungTableau,
    all_words,
    distinct_orderings,
    index_to_word,
    is_lyndon,
    lie_dim,
    longest_lyndon_prefix,
    lyndon_words,
    moebius,
    multichoose,
    num_standard,
    partition_union,
    partitions,
    schur_dim,
    standard_tableaux,
    word_from_string,
    word_to_index,
    word_to_string,
)

from oracles import (
    is_lyndon_by_rotations,
    longest_lyndon_prefix_by_rotations,
    permutation_orderings,
)


def is_standard(tableau: YoungTableau) -> bool:
    """Rows increase left to right and columns top to bottom."""
    columns = [tableau.column(j) for j in range(tableau.shape[0] if tableau.rows else 0)]
    return all(
        all(a < b for a, b in zip(line, line[1:])) for line in list(tableau.rows) + columns
    )


def brute_force_lyndon(d, k):
    """Oracle: keep the words strictly smaller than all their rotations."""
    return [w for w in all_words(d, k) if all(w < w[i:] + w[:i] for i in range(1, k))]


@pytest.mark.parametrize("d,k", [(d, k) for d in (1, 2, 3) for k in range(1, 7)] + [(4, 4)])
def test_lyndon_words_match_rotation_oracle(d, k):
    assert lyndon_words(d, k) == brute_force_lyndon(d, k)


def test_lyndon_reference_values():
    flat = [w for k in (1, 2, 3) for w in lyndon_words(2, k)]
    assert flat == [(1,), (2,), (1, 2), (1, 1, 2), (1, 2, 2)]
    assert lyndon_words(1, 1) == [(1,)]
    assert lyndon_words(1, 2) == []
    assert lyndon_words(3, 2) == [(1, 2), (1, 3), (2, 3)]


def test_lyndon_words_returns_a_fresh_list_each_call():
    words = lyndon_words(3, 3)
    words.clear()
    assert lyndon_words(3, 3) == brute_force_lyndon(3, 3)
    with pytest.raises(ValueError):
        lyndon_words(0, 2)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lyndon_count_equals_lie_dim(d):
    for k in range(1, 9):
        assert len(lyndon_words(d, k)) == lie_dim(d, k)


def test_lie_dim_values():
    assert [lie_dim(2, k) for k in (1, 2, 3)] == [2, 1, 2]
    assert lie_dim(5, 1) == 5
    assert lie_dim(3, 3) == 8
    assert all(lie_dim(d, 3) == (d**3 - d) // 3 for d in range(1, 7))


def test_moebius_values():
    assert moebius(1) == 1
    assert moebius(4) == 0
    assert moebius(6) == 1
    assert [moebius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


@given(st.integers(1, 50), st.integers(1, 50))
def test_moebius_multiplicative_on_coprimes(a, b):
    if math.gcd(a, b) == 1:
        assert moebius(a * b) == moebius(a) * moebius(b)


@given(st.integers(1, 3), st.integers(0, 6), st.data())
def test_word_index_roundtrip(d, k, data):
    idx = data.draw(st.integers(0, d**k - 1))
    w = index_to_word(idx, d, k)
    assert word_to_index(w, d) == idx
    assert word_from_string(word_to_string(w)) == w


@pytest.mark.parametrize("text", ["\u0661\u0662", "\uff11\uff12", "1\u0662", "0", "1a", "\u00b9"])
def test_word_strings_take_only_ascii_digits_1_to_9(text):
    # str.isdigit holds for each of these but "1a"
    with pytest.raises(ValueError):
        word_from_string(text)
    assert word_from_string("19") == (1, 9)


def test_all_words_in_lex_order():
    words = all_words(3, 2)
    assert words == sorted(words)
    assert len(words) == 9


def test_partitions_small():
    assert partitions(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions(0) == ((),)
    assert len(partitions(5)) == 7


@given(st.integers(0, 10))
def test_partitions_are_decreasing_and_sum(k):
    seen = set()
    for lam in partitions(k):
        assert sum(lam) == k
        assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
        seen.add(lam)
    assert len(seen) == len(partitions(k))
    # reverse-lexicographic order
    assert list(partitions(k)) == sorted(partitions(k), reverse=True)


def test_partition_union():
    assert partition_union((3, 2, 1), (2, 2)) == (3, 2, 2, 2, 1)
    assert partition_union((3, 1), ()) == (3, 1)
    assert partition_union((1,), (1,)) == (1, 1)


def test_standard_tableaux_21():
    tabs = standard_tableaux((2, 1))
    assert {t.rows for t in tabs} == {((1, 2), (3,)), ((1, 3), (2,))}
    assert all(is_standard(t) for t in tabs)


def test_standard_tableaux_counts():
    assert len(standard_tableaux((4,))) == 1
    assert len(standard_tableaux((2, 2))) == 2
    for k in range(1, 7):
        for lam in partitions(k):
            tabs = standard_tableaux(lam)
            assert len(tabs) == num_standard(lam)
            assert len({t.rows for t in tabs}) == len(tabs)


def test_tableau_validation():
    with pytest.raises(ValueError):
        YoungTableau(((1, 2), (2,)))
    assert not is_standard(YoungTableau(((2, 1), (3,))))


def test_schur_dim_values():
    for d in range(1, 7):
        assert schur_dim((2, 1), d) == (d**3 - d) // 3
        assert schur_dim((1, 1, 1), d) == math.comb(d, 3)
    assert schur_dim((1, 1), 1) == 0
    assert schur_dim((3,), 2) == 4


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_schur_weyl_dimension_count(d):
    for k in range(1, 7):
        total = sum(num_standard(mu) * schur_dim(mu, d) for mu in partitions(k))
        assert total == d**k


def test_multichoose():
    assert multichoose(3, 0) == 1
    assert multichoose(0, 2) == 0
    assert multichoose(2, 3) == 4


@given(st.integers(1, 4), st.integers(1, 5))
def test_is_lyndon_matches_membership(d, k):
    generated = set(lyndon_words(d, k))
    for w in all_words(d, k):
        assert is_lyndon(w) == (w in generated)


@pytest.mark.parametrize("d, n", [(1, 6), (2, 8), (3, 6)])
def test_duval_prefix_matches_the_rotation_definition(d, n):
    assert not is_lyndon(()) and not is_lyndon_by_rotations(())
    for k in range(1, n + 1):
        for w in all_words(d, k):
            assert longest_lyndon_prefix(w) == longest_lyndon_prefix_by_rotations(w)
            assert is_lyndon(w) == is_lyndon_by_rotations(w)


@given(st.lists(st.integers(1, 4), max_size=7))
def test_distinct_orderings_match_the_permutation_enumeration(items):
    assert list(distinct_orderings(items)) == permutation_orderings(items)


def test_distinct_orderings_of_labels_and_repeats():
    labels = [(1, 2), (1,), (1, 2)]
    assert list(distinct_orderings(labels)) == permutation_orderings(labels)
    assert list(distinct_orderings([7] * 30)) == [(7,) * 30]
    assert list(distinct_orderings([])) == [()]
