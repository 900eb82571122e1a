import itertools
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thrallkit.permutations import compose
from thrallkit.tensors import (
    Tensor,
    TensorSeries,
    is_symmetric,
    permute_slots,
    random_tensor,
    symmetrize,
    tensor_product,
)

from oracles import flattening_rank, series_product


def e(d, *letters):
    return Tensor.basis(d, tuple(letters))


def test_tensor_product_basis():
    t = tensor_product(e(2, 1), e(2, 2))
    assert t.nonzero_terms() == {(1, 2): Fraction(1)}


def test_tensor_product_unit_scalar():
    a = random_tensor(2, 2, Random(1))
    assert tensor_product(a, Tensor.scalar(2, 1)) == a
    assert tensor_product(Tensor.scalar(2, 1), a) == a


def test_tensor_product_hand_expansion():
    # (e1 + e2) x (e1 - e2)
    t = tensor_product(Tensor.from_vector(2, [1, 1]), Tensor.from_vector(2, [1, -1]))
    assert t.nonzero_terms() == {
        (1, 1): Fraction(1),
        (1, 2): Fraction(-1),
        (2, 1): Fraction(1),
        (2, 2): Fraction(-1),
    }


def test_tensor_product_dimension_mismatch():
    with pytest.raises(ValueError):
        tensor_product(e(2, 1), e(3, 1))


def test_tensor_product_bilinear_associative():
    rng = Random(2)
    for _ in range(5):
        a, b, c = (random_tensor(2, k, rng) for k in (1, 2, 1))
        assert tensor_product(tensor_product(a, b), c) == tensor_product(
            a, tensor_product(b, c)
        )
        assert tensor_product(a + a, b) == tensor_product(a, b) + tensor_product(a, b)
        assert tensor_product(a.scale(Fraction(2, 3)), b) == tensor_product(
            a, b
        ).scale(Fraction(2, 3))


def test_series_product_unit_and_cross_term():
    rng = Random(3)
    s = TensorSeries(
        2,
        (
            Tensor.scalar(2, 1),
            random_tensor(2, 1, rng),
            random_tensor(2, 2, rng),
        ),
    )
    unit = TensorSeries.unit(2, 2)
    assert series_product(s, unit) == s
    assert series_product(unit, s) == s
    v = TensorSeries.from_levels(2, 2, {0: Tensor.scalar(2, 1), 1: Tensor.from_vector(2, [1, 0])})
    w = TensorSeries.from_levels(2, 2, {0: Tensor.scalar(2, 1), 1: Tensor.from_vector(2, [0, 1])})
    assert series_product(v, w).level(2) == tensor_product(
        Tensor.from_vector(2, [1, 0]), Tensor.from_vector(2, [0, 1])
    )


def test_series_product_associative():
    rng = Random(4)

    def rand_series():
        return TensorSeries(
            2, tuple([Tensor.scalar(2, rng.randint(-2, 2))] + [random_tensor(2, k, rng) for k in range(1, 5)])
        )

    for _ in range(3):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert series_product(series_product(a, b), c) == series_product(
            a, series_product(b, c)
        )


def test_permute_slots_identity_and_transposition():
    t = random_tensor(2, 3, Random(5))
    assert permute_slots(t, (0, 1, 2)) == t
    swapped = permute_slots(tensor_product(e(2, 1), e(2, 2)), (1, 0))
    assert swapped == tensor_product(e(2, 2), e(2, 1))


def test_permute_slots_three_cycle_convention():
    # the 3-cycle sending 1->2->3->1 moves e1 x e2 x e3 to e3 x e1 x e2
    t = tensor_product(tensor_product(e(3, 1), e(3, 2)), e(3, 3))
    moved = permute_slots(t, (1, 2, 0))
    want = tensor_product(tensor_product(e(3, 3), e(3, 1)), e(3, 2))
    assert moved == want


def test_permute_slots_left_action():
    rng = Random(6)
    perms = list(itertools.permutations(range(4)))
    for _ in range(10):
        t = random_tensor(2, 4, rng)
        sigma = perms[rng.randrange(len(perms))]
        tau = perms[rng.randrange(len(perms))]
        assert permute_slots(t, compose(sigma, tau)) == permute_slots(
            permute_slots(t, tau), sigma
        )


def test_permute_slots_size_mismatch():
    with pytest.raises(ValueError):
        permute_slots(e(2, 1, 2, 1), (1, 0))


def test_is_symmetric():
    v = Tensor.from_vector(2, [2, 3])
    cube = tensor_product(tensor_product(v, v), v)
    assert is_symmetric(cube)
    skew = tensor_product(e(2, 1), e(2, 2)) - tensor_product(e(2, 2), e(2, 1))
    assert not is_symmetric(skew)
    assert is_symmetric(symmetrize(random_tensor(2, 3, Random(7))))


def test_flattening_rank_rank_one():
    vs = [Tensor.from_vector(2, [1, 2]), Tensor.from_vector(2, [3, 1]), Tensor.from_vector(2, [1, -1])]
    t = vs[0]
    for v in vs[1:]:
        t = tensor_product(t, v)
    for r in range(1, 3):
        for split in itertools.combinations(range(1, 4), r):
            assert flattening_rank(t, set(split)) == 1


def test_flattening_rank_skew():
    skew = tensor_product(e(2, 1), e(2, 2)) - tensor_product(e(2, 2), e(2, 1))
    assert flattening_rank(skew, {1}) == 2


def test_flattening_rank_two_generic_terms():
    a = tensor_product(
        tensor_product(Tensor.from_vector(2, [1, 0]), Tensor.from_vector(2, [1, 1])),
        Tensor.from_vector(2, [2, 1]),
    )
    b = tensor_product(
        tensor_product(Tensor.from_vector(2, [0, 1]), Tensor.from_vector(2, [1, -1])),
        Tensor.from_vector(2, [1, 1]),
    )
    t = a + b
    for r in range(1, 3):
        for split in itertools.combinations(range(1, 4), r):
            assert flattening_rank(t, set(split)) == 2


def test_flattening_invalid_split():
    t = random_tensor(2, 3, Random(8))
    with pytest.raises(ValueError):
        flattening_rank(t, set())
    with pytest.raises(ValueError):
        flattening_rank(t, {1, 2, 3})
    with pytest.raises(ValueError):
        flattening_rank(t, {0, 1})


def test_tensor_from_dict_and_getitem():
    t = Tensor.from_dict(2, 2, {(1, 2): Fraction(3, 4)})
    assert t[(1, 2)] == Fraction(3, 4)
    assert t[(2, 1)] == 0
    with pytest.raises(ValueError):
        t[(1, 2, 1)]


def test_series_shape_validation():
    with pytest.raises(ValueError):
        TensorSeries(2, (Tensor.zero(2, 1),))
    with pytest.raises(ValueError):
        series_product(TensorSeries.unit(2, 2), TensorSeries.unit(2, 3))


fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_numerators_contract_seeded_and_unseeded(d, k, data):
    entries = tuple(data.draw(st.lists(fractions, min_size=d**k, max_size=d**k)))
    den = data.draw(st.integers(1, 4)) * math.lcm(*(x.denominator for x in entries))
    nums = [int(x * den) for x in entries]
    seeded = Tensor.from_numerators(d, k, den, nums)
    plain = Tensor(d, k, entries)
    assert seeded.numerators() == (den, tuple(nums))
    for tensor in (seeded, plain):
        got_den, got = tensor.numerators()
        assert got_den >= 1 and all(isinstance(n, int) for n in got)
        assert tuple(Fraction(n, got_den) for n in got) == tensor.entries
        assert tensor.numerators() is tensor.numerators()  # kept once computed
    assert seeded == plain and hash(seeded) == hash(plain) and repr(seeded) == repr(plain)
    assert seeded.entries == entries
