import math
from fractions import Fraction
from random import Random

import pytest

from thrallkit.free_lie import (
    LieElement,
    lyndon_bracketing,
    phi_k,
    random_lie_element,
)
from thrallkit.rank_variety import (
    fls_check,
    generic_rank_lower_bound,
    hdet_pullback_check,
    hyperdeterminant_2x2x2,
    RankOneResult,
    is_rank_one,
    skew_plus_rank_one_rank,
    symmetric_level_implies_segment,
)
from thrallkit.shuffle_sig import PiecewiseLinearPath, signature
from thrallkit.tensors import Tensor, TensorSeries, is_symmetric, tensor_product

from oracles import (
    basis_tensor,
    flattening_is_rank_one,
    is_segment_equivalent,
    leibniz_determinant,
    random_tensor,
    rank_by_minors,
)


def product_of(vectors, d):
    t = Tensor.from_vector(d, vectors[0])
    for v in vectors[1:]:
        t = tensor_product(t, Tensor.from_vector(d, v))
    return t


def test_rank_one_detects_powers_with_witness():
    v = [Fraction(2), Fraction(-3)]
    cube = product_of([v, v, v], 2)
    result = is_rank_one(cube)
    assert result
    rebuilt = product_of(result.factors, 2)
    assert rebuilt == cube
    # factors parallel to v
    for factor in result.factors:
        assert factor[0] * v[1] == factor[1] * v[0]


def test_rank_one_rejects_symmetric_rank_two():
    t = tensor_product(basis_tensor(2, (1,)), basis_tensor(2, (2,))) + tensor_product(
        basis_tensor(2, (2,)), basis_tensor(2, (1,))
    )
    assert not is_rank_one(t)
    with pytest.raises(ValueError):
        is_rank_one(Tensor.zero(2, 2))


def test_rank_one_witness_random_elementary():
    rng = Random(40)
    for d, k in ((2, 3), (3, 3), (2, 4)):
        for _ in range(4):
            vecs = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)]
                for _ in range(k)
            ]
            if any(all(x == 0 for x in v) for v in vecs):
                continue
            t = product_of(vecs, d)
            if t.is_zero():
                continue
            result = is_rank_one(t)
            assert result
            assert product_of(result.factors, d) == t


def test_rank_one_order_one_is_the_vector_itself():
    v = Tensor.from_vector(2, [3, -1])
    assert is_rank_one(v) == RankOneResult(True, ((Fraction(3), Fraction(-1)),))
    assert is_rank_one(Tensor.from_vector(3, [0, Fraction(1, 2), 0])).factors == (
        (0, Fraction(1, 2), 0),
    )


def rank_one_inputs():
    rng = Random(42)
    for d, k in ((1, 3), (2, 1), (2, 3), (3, 2), (3, 3), (2, 5)):
        for _ in range(6):
            # outer products with some zero coordinates, so leads vary
            vecs = [
                [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(d)]
                for _ in range(k)
            ]
            yield product_of(vecs, d).scale(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
            yield random_tensor(d, k, rng)
            # a rank-one tensor with one entry moved off the variety
            t = product_of(vecs, d)
            yield t + basis_tensor(d, tuple(rng.randint(1, d) for _ in range(k)))
    for points in (
        [[0, 0], [1, 2], [3, 6], [2, 4]],
        [[0, 0, 0], [1, -1, 2], [-2, 2, -4]],
        [[0, 0], [1, 0], [1, 1]],
        [[0, 0, 0], [1, 0, 2], [1, 3, 2], [0, 1, 1]],
    ):
        sig = signature(PiecewiseLinearPath.from_lists(points), 4)
        for level in range(1, 5):
            yield sig.level(level)


def test_rank_one_matches_flattening_definition():
    checked = rank_one = 0
    for t in rank_one_inputs():
        if t.is_zero():
            continue
        got = is_rank_one(t)
        assert got == flattening_is_rank_one(t)
        checked += 1
        rank_one += bool(got)
    assert checked > 100 and 30 < rank_one < checked - 30


def test_rank_one_rejects_phi3_with_area():
    element = LieElement(2, 3, {(1,): 1, (2,): 1, (1, 2): Fraction(1, 2)})
    t = phi_k(element, 3)
    assert not is_rank_one(t)
    assert not is_symmetric(t)


def test_symmetry_and_rank_one_side_by_side():
    v = LieElement(2, 4, {(1,): 2, (2,): 1})
    assert is_symmetric(phi_k(v, 4)) and is_rank_one(phi_k(v, 4))

    mixed = LieElement(2, 3, {(1,): 1, (1, 2): 1})
    assert not is_symmetric(phi_k(mixed, 3)) and not is_rank_one(phi_k(mixed, 3))

    # symmetric but of rank two: not a signature level
    sym_rank2 = product_of([[1, 0], [1, 0]], 2) + product_of([[0, 1], [0, 1]], 2)
    assert is_symmetric(sym_rank2) and not is_rank_one(sym_rank2)


@pytest.mark.parametrize("d,k", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_symmetry_iff_rank_one_on_exponential_levels(d, k):
    rng = Random(41)
    checked = 0
    for _ in range(13):
        element = random_lie_element(d, k, rng)
        t = phi_k(element, k)
        if t.is_zero():
            continue
        checked += 1
        assert is_symmetric(t) == bool(is_rank_one(t))
    assert checked >= 10


def test_symmetric_cascade_segment_series():
    v = TensorSeries.from_levels(2, 3, {1: Tensor.from_vector(2, [1, 2])})
    report = symmetric_level_implies_segment(v, 3)
    assert report.hypothesis_level_symmetric and report.passed
    assert report.higher_parts_vanish and report.lower_levels_symmetric


def test_symmetric_cascade_vacuous_case():
    element = LieElement(2, 3, {(1,): 1, (1, 2): 1})
    series = element.to_series(3)
    report = symmetric_level_implies_segment(series, 3)
    assert not report.hypothesis_level_symmetric and report.passed


def test_symmetric_cascade_forces_zero_top():
    # with only degree-1 and degree-3 parts, symmetry at level 3 forces the
    # degree-3 part to vanish
    for c in (Fraction(0), Fraction(1), Fraction(-2, 3)):
        element = LieElement(2, 3, {(1,): 1, (1, 1, 2): c})
        series = element.to_series(3)
        report = symmetric_level_implies_segment(series, 3)
        assert report.hypothesis_level_symmetric == (c == 0)
    bad = TensorSeries.from_levels(2, 3, {1: Tensor.from_vector(2, [1, 0]), 3: random_tensor(2, 3, Random(1))})
    with pytest.raises(ValueError):
        symmetric_level_implies_segment(bad, 3)
    zero_start = TensorSeries.from_levels(2, 3, {2: lyndon_bracketing((1, 2), 2)})
    with pytest.raises(ValueError):
        symmetric_level_implies_segment(zero_start, 3)


def test_fls_on_model_paths():
    segment = PiecewiseLinearPath.from_lists([[0, 0], [2, 3]])
    report = fls_check(segment, 4)
    assert report.criterion_a and report.criterion_b and report.criterion_c
    assert report.consistent and report.is_segment

    collinear = PiecewiseLinearPath.from_lists([[0, 0], [1, 1], [3, 3], [2, 2], [4, 4]])
    report = fls_check(collinear, 4)
    assert report.is_segment

    stair = PiecewiseLinearPath.from_lists([[0, 0], [1, 0], [1, 1]])
    report = fls_check(stair, 4)
    assert not (report.criterion_a or report.criterion_b or report.criterion_c)
    assert report.consistent and not report.is_segment

    closed = PiecewiseLinearPath.from_lists([[0, 0], [1, 0], [0, 0]])
    with pytest.raises(ValueError):
        fls_check(closed, 3)
    for level in (0, -1):
        with pytest.raises(ValueError, match="k_max >= 1"):
            fls_check(segment, level)


def test_fls_zero_level2_but_nonsegment():
    # pairwise areas cancel yet the path is not a segment; level 3 catches it
    path = PiecewiseLinearPath.from_lists([[0, 0], [1, 0], [1, 1], [2, 1]])
    report = fls_check(path, 4)
    assert report.consistent and not report.is_segment


@pytest.mark.parametrize("d", [2, 3])
def test_fls_random_paths_criteria_agree(d):
    rng = Random(42 + d)
    segments_checked = 0
    for _ in range(25):
        if rng.random() < 0.4:
            direction = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
            if all(x == 0 for x in direction):
                continue
            multipliers = [Fraction(0)] + [
                Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))
            ]
            if sum(multipliers) == 0:
                multipliers.append(Fraction(1))
            points = []
            acc = Fraction(0)
            for m in multipliers:
                acc += m
                points.append([acc * x for x in direction])
            points.insert(0, [Fraction(0)] * d)
            path = PiecewiseLinearPath.from_lists(points)
            expect_segment = True
        else:
            points = [
                [Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(4)
            ]
            path = PiecewiseLinearPath.from_lists(points)
            if signature(path, 1).level(1).is_zero():
                continue
            expect_segment = is_segment_equivalent(path)
        report = fls_check(path, 4)
        assert report.consistent
        assert report.is_segment == expect_segment
        segments_checked += 1
    assert segments_checked >= 20


# --- the matrix lemma -------------------------------------------------------


def random_skew(d, rng):
    a = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            a[i][j] = Fraction(rng.randint(-3, 3))
            a[j][i] = -a[i][j]
    return a


def test_skew_plus_rank_one_examples():
    assert skew_plus_rank_one_rank([[0, 0], [0, 0]], [1, 2]) == 1
    assert skew_plus_rank_one_rank([[0, 1], [-1, 0]], [5, -2]) == 2
    a = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    assert skew_plus_rank_one_rank(a, [0, 0, 3]) == 3
    assert skew_plus_rank_one_rank(a, [2, 5, 0]) == 2
    with pytest.raises(ValueError):
        skew_plus_rank_one_rank([[0, 1], [1, 0]], [1, 1])


def test_skew_plus_rank_one_random_battery():
    rng = Random(44)
    count = 0
    for _ in range(100):
        d = rng.randint(1, 5)
        a = random_skew(d, rng)
        x = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
        if all(v == 0 for v in x) and all(all(c == 0 for c in row) for row in a):
            continue
        got = skew_plus_rank_one_rank(a, x)
        m = [[a[i][j] + x[i] * x[j] for j in range(d)] for i in range(d)]
        assert got == rank_by_minors(m)
        count += 1
    assert count >= 90


def test_matrix_determinant_stability_even_skew():
    rng = Random(45)
    for d in (2, 4):
        for _ in range(5):
            a = random_skew(d, rng)
            if leibniz_determinant(a) == 0:
                continue
            x = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
            m = [[a[i][j] + x[i] * x[j] for j in range(d)] for i in range(d)]
            assert leibniz_determinant(m) == leibniz_determinant(a)


# --- the generic-rank bound -------------------------------------------------


def bound_oracle(d, k):
    """Ceiling via interval arithmetic with a tight rational sqrt bracket."""
    denom = (d - 1) * k * (k * d - k + 1)
    p = d**k * (d - 1) + d
    if k % 2 == 0:
        value_lo = value_hi = Fraction(p - d ** (k // 2 + 1))
    else:
        q = d ** ((k + 1) // 2)
        scale = 10**40
        lo = Fraction(math.isqrt(d * scale**2), scale)
        hi = Fraction(math.isqrt(d * scale**2) + 1, scale)
        value_lo, value_hi = p - q * hi, p - q * lo
    lo_c = math.ceil(value_lo / denom)
    hi_c = math.ceil(value_hi / denom)
    assert lo_c == hi_c, "bracket too loose"
    return lo_c - 1


@pytest.mark.parametrize(
    "d,k,expected",
    [
        (2, 4, 0),
        (2, 2, 0),
        (3, 6, 8),
        (2, 3, 0),
        (3, 5, 4),
        (4, 3, 1),
        (5, 4, 8),
        # rounding sqrt(d^k) before multiplying by d gives 613 here
        (74, 3, 612),
    ],
)
def test_generic_rank_lower_bound_values(d, k, expected):
    assert generic_rank_lower_bound(d, k) == expected
    assert generic_rank_lower_bound(d, k) == bound_oracle(d, k)


def test_generic_rank_lower_bound_matches_oracle_sweep():
    # square d with odd k is the case where d^(k+2) is a perfect square
    # although k/2 is not an integer
    shapes = [(d, k) for d in range(2, 41) for k in range(2, 16)]
    assert {(d, k) for d, k in shapes if math.isqrt(d) ** 2 == d and k % 2}
    for d, k in shapes:
        assert generic_rank_lower_bound(d, k) == bound_oracle(d, k)


def test_generic_rank_bound_matrix_case_is_weak():
    # the matrix bound must not exceed the true generic rank d
    for d in range(2, 6):
        assert generic_rank_lower_bound(d, 2) <= d


# --- the hyperdeterminant ---------------------------------------------------


def cayley_oracle(t: Tensor) -> Fraction:
    """Discriminant of the pencil sliced along the first slot."""
    def a(i, j, k):
        return t[(i + 1, j + 1, k + 1)]

    mixed = (
        a(0, 0, 0) * a(1, 1, 1)
        + a(0, 1, 1) * a(1, 0, 0)
        - a(0, 0, 1) * a(1, 1, 0)
        - a(0, 1, 0) * a(1, 0, 1)
    )
    det0 = a(0, 0, 0) * a(0, 1, 1) - a(0, 0, 1) * a(0, 1, 0)
    det1 = a(1, 0, 0) * a(1, 1, 1) - a(1, 0, 1) * a(1, 1, 0)
    return mixed**2 - 4 * det0 * det1


def test_hyperdeterminant_matches_cayley_form():
    rng = Random(46)
    for _ in range(10):
        t = random_tensor(2, 3, rng)
        assert hyperdeterminant_2x2x2(t) == cayley_oracle(t)


def test_hyperdeterminant_vanishes_on_elementary():
    rng = Random(47)
    for _ in range(5):
        vecs = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(3)]
        t = product_of(vecs, 2)
        assert hyperdeterminant_2x2x2(t) == 0
    v = [Fraction(2), Fraction(1)]
    assert hyperdeterminant_2x2x2(product_of([v, v, v], 2)) == 0


def test_hyperdeterminant_nonzero_generic():
    t = Tensor.from_dict(2, 3, {(1, 1, 1): 1, (2, 2, 2): 1})
    assert hyperdeterminant_2x2x2(t) != 0
    with pytest.raises(ValueError):
        hyperdeterminant_2x2x2(random_tensor(3, 3, Random(0)))


def test_hdet_pullback_check_passes_with_fixed_constant():
    for seed in (1, 7, 2024):
        report = hdet_pullback_check(seed=seed, samples=20)
        assert report.passed
        assert report.constant == Fraction(1, 3)
        assert report.samples == 20
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            hdet_pullback_check(seed=1, samples=samples)


def test_hdet_pullback_degenerate_tuples():
    element = LieElement(2, 3, {(1,): 3, (2,): -1})
    assert hyperdeterminant_2x2x2(phi_k(element, 3)) == 0
    area_only = LieElement(2, 3, {(1,): 1, (2,): 2, (1, 2): 5})
    assert hyperdeterminant_2x2x2(phi_k(area_only, 3)) == 0
