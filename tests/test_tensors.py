import itertools
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thrallkit.free_lie import thrall_decompose
from thrallkit.group_algebra import ga_act
from thrallkit.permutations import compose
from thrallkit.tensors import (
    Tensor,
    TensorSeries,
    is_symmetric,
    symmetrize,
    tensor_product,
)

from oracles import (
    basis_tensor,
    flattening_rank,
    random_tensor,
    scatter_permute_slots,
    series_product,
    slot_permutation,
    unit_series,
)


def e(d, *letters):
    return basis_tensor(d, tuple(letters))


def permute_slots(tensor, sigma):
    """The slot action of one permutation: ``ga_act`` of its one-term element."""
    return ga_act(slot_permutation(sigma), tensor)


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
    unit = unit_series(2, 2)
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
    skew = tensor_product(e(2, 1), e(2, 2)) + tensor_product(e(2, 2), e(2, 1)).scale(-1)
    assert not is_symmetric(skew)
    assert is_symmetric(symmetrize(random_tensor(2, 3, Random(7))))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_symmetry_closed_forms_match_the_sum_over_permutations(d, k):
    rng = Random(100 * d + k)
    perms = list(itertools.permutations(range(k)))
    t = Tensor(d, k, [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(d**k)])
    total = Tensor(d, k, [0] * d**k)
    for sigma in perms:
        total = total + scatter_permute_slots(t, sigma)
    mean = total.scale(Fraction(1, len(perms)))
    assert symmetrize(t) == mean
    # off by one entry of a block that holds more than one word when d, k > 1
    nudged = mean + e(d, *((d,) + (1,) * (k - 1))) if k else mean
    for x in (t, mean, nudged):
        assert is_symmetric(x) == all(scatter_permute_slots(x, s) == x for s in perms)
    assert is_symmetric(mean) and is_symmetric(nudged) == (d == 1 or k < 2)


def test_flattening_rank_rank_one():
    vs = [Tensor.from_vector(2, [1, 2]), Tensor.from_vector(2, [3, 1]), Tensor.from_vector(2, [1, -1])]
    t = vs[0]
    for v in vs[1:]:
        t = tensor_product(t, v)
    for r in range(1, 3):
        for split in itertools.combinations(range(1, 4), r):
            assert flattening_rank(t, set(split)) == 1


def test_flattening_rank_skew():
    skew = tensor_product(e(2, 1), e(2, 2)) + tensor_product(e(2, 2), e(2, 1)).scale(-1)
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
        TensorSeries(2, (Tensor(2, 1, [0, 0]),))
    with pytest.raises(ValueError):
        series_product(unit_series(2, 2), unit_series(2, 3))


fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _check_canonical(tensor, expected):
    """``tensor`` has the entries ``expected``, in lowest terms, with the same
    fields as the tensor built from those rationals."""
    assert tensor.den >= 1 and all(isinstance(n, int) for n in tensor.nums)
    assert math.gcd(tensor.den, *tensor.nums) == 1
    assert tensor.den == 1 or not tensor.is_zero()
    assert tensor.entries == tuple(expected)
    assert tensor.entries is tensor.entries  # built once
    fresh = Tensor(tensor.d, tensor.k, tuple(expected))
    assert (tensor.den, tensor.nums) == (fresh.den, fresh.nums)
    assert tensor == fresh and hash(tensor) == hash(fresh) and repr(tensor) == repr(fresh)


@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_numerators_contract_seeded_and_unseeded(d, k, data):
    draw_entries = st.lists(fractions, min_size=d**k, max_size=d**k)
    entries = tuple(data.draw(draw_entries))
    other = Tensor(d, k, data.draw(draw_entries))
    den = data.draw(st.integers(1, 4)) * math.lcm(*(x.denominator for x in entries))
    nums = [int(x * den) for x in entries]
    seeded = Tensor(d, k, nums, den)
    plain = Tensor(d, k, entries)
    c = data.draw(fractions)
    sigma = tuple(data.draw(st.permutations(range(k))))
    words = list(itertools.product(range(1, d + 1), repeat=k))
    routes = [
        (plain, entries),
        (seeded, entries),
        (plain + other, [a + b for a, b in zip(entries, other.entries)]),
        (plain.scale(c), [c * a for a in entries]),
        (tensor_product(plain, other), [a * b for a in entries for b in other.entries]),
        (permute_slots(plain, sigma), [plain[tuple(w[s] for s in sigma)] for w in words]),
    ]
    for tensor, expected in routes:
        _check_canonical(tensor, expected)
    assert Tensor(d, k, [0] * d**k, den).den == 1
    solve = thrall_decompose(seeded, "solve")
    idempotent = thrall_decompose(plain, "idempotent")
    assert solve.keys() == idempotent.keys()
    for lam, part in solve.items():
        _check_canonical(part, part.entries)
        assert (part.den, part.nums) == (idempotent[lam].den, idempotent[lam].nums)
