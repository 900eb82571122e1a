import functools
import itertools
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thrallkit import free_lie, group_algebra, linalg
from thrallkit.free_lie import (
    LieElement,
    _w_basis,
    bracket_expansion,
    exp_truncated,
    f_lambda,
    is_lie_element,
    lie_basis,
    lie_coordinates,
    log_truncated,
    lyndon_bracketing,
    phi_k,
    random_lie_element,
    standard_factorization,
    thrall_decompose,
)
from thrallkit.group_algebra import K_MAX, higher_lie_idempotent
from thrallkit.tensors import (
    Tensor,
    TensorSeries,
    is_symmetric,
    symmetrize,
    tensor_product,
)
from thrallkit.words import (
    ResourceLimitError,
    index_to_word,
    lie_dim,
    lyndon_words,
    multichoose,
    partitions,
    w_module_dim,
    word_to_index,
)

from oracles import (
    basis_tensor,
    dense_f_lambda,
    dense_ga_act,
    dense_lie_bracket,
    dense_lie_coordinates,
    dense_lie_level,
    dense_solve_decompose,
    dense_w_lambda_basis,
    dynkin_is_lie_element,
    lyndon_bracketing_by_words,
    random_tensor,
    series_exp,
    series_log,
    series_product,
    unit_series,
    weight_blocks,
)

def w_lambda_basis(lam, d):
    """The lam-graded basis behind the solve backend, as tensors: the basis
    vectors of every weight block, each block named by its sorted content,
    and each vector in the block of the content it is paired with."""
    k = sum(lam)
    contents = {index_to_word(block[0], d, k) for block in weight_blocks(d, k)}
    out = []
    for content, vec in _w_basis(lam, d, contents):
        assert {tuple(sorted(index_to_word(i, d, k))) for i in vec} == {content}
        out.append(Tensor(d, k, [vec.get(i, 0) for i in range(d**k)], 1))
    return out


# Shapes (d, k) on which the Lyndon fast paths are cross-checked.
LYNDON_SHAPES = [(3, 5), (2, 6), (4, 4)]


def test_standard_factorization():
    assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
    assert standard_factorization((1, 2, 2)) == ((1, 2), (2,))
    assert standard_factorization((1, 2)) == ((1,), (2,))
    with pytest.raises(ValueError):
        standard_factorization((2, 1))


def test_bracket_expansion_values():
    # by flat index at d = 2: 1 -> 0; 12 -> 1, 21 -> 2; 112 -> 1, 121 -> 2, 211 -> 4
    assert bracket_expansion((1,), 2) == {0: 1}
    assert bracket_expansion((1, 2), 2) == {1: 1, 2: -1}
    assert bracket_expansion((1, 1, 2), 2) == {1: 1, 2: -2, 4: 1}


def test_lyndon_bracketing_tensor():
    b = lyndon_bracketing((1, 2), 2)
    assert b.nonzero_terms() == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 2)])
def test_lie_basis_independent(d, k):
    basis = lie_basis(d, k)
    assert len(basis) == lie_dim(d, k)
    rows = [list(b.entries) for b in basis]
    assert linalg.rank(rows) == len(basis)


def test_exp_of_zero_and_line():
    zero = TensorSeries.from_levels(2, 3, {})
    assert exp_truncated(zero) == unit_series(2, 3)
    v = Tensor.from_vector(2, [2, -1])
    series = TensorSeries.from_levels(2, 4, {1: v})
    ex = exp_truncated(series)
    power = v
    for k in range(2, 5):
        power = tensor_product(power, v)
        assert ex.level(k) == power.scale(Fraction(1, math.factorial(k)))


def test_exp_level_three_with_area_part():
    v = Tensor.from_vector(2, [1, 2])
    a = lyndon_bracketing((1, 2), 2).scale(Fraction(3, 2))
    series = TensorSeries.from_levels(2, 3, {1: v, 2: a})
    level3 = exp_truncated(series).level(3)
    want = tensor_product(tensor_product(v, v), v).scale(Fraction(1, 6)) + (
        tensor_product(a, v) + tensor_product(v, a)
    ).scale(Fraction(1, 2))
    assert level3 == want


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        exp_truncated(unit_series(2, 2))
    with pytest.raises(ValueError):
        log_truncated(TensorSeries.from_levels(2, 2, {}))


def test_log_exp_roundtrip_random():
    rng = Random(9)
    for _ in range(5):
        levels = {k: random_tensor(2, k, rng, bound=3) for k in range(1, 6)}
        series = TensorSeries.from_levels(2, 5, levels)
        assert log_truncated(exp_truncated(series)) == series
        grouplike = exp_truncated(series)
        assert exp_truncated(log_truncated(grouplike)) == grouplike


def test_log_of_trivial_series():
    assert log_truncated(unit_series(2, 3)) == TensorSeries.from_levels(2, 3, {})


def test_log_of_two_segment_product_level2():
    e1 = TensorSeries.from_levels(2, 2, {1: Tensor.from_vector(2, [1, 0])})
    e2 = TensorSeries.from_levels(2, 2, {1: Tensor.from_vector(2, [0, 1])})
    sig = series_product(exp_truncated(e1), exp_truncated(e2))
    log = log_truncated(sig)
    assert log.level(2) == lyndon_bracketing((1, 2), 2).scale(Fraction(1, 2))


@st.composite
def truncated_series(draw):
    """Series with d 1..4, k_max 0..6 (at most 1024 top-level entries),
    level 0 in {0, 1, other}, and each higher level zero, sparse or dense
    with entries over mixed denominators."""
    d = draw(st.integers(1, 4))
    k_max = draw(st.integers(0, 6).filter(lambda k: d**k <= 1024))
    dens = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 7, 9, 12]), min_size=1, max_size=3))
    rng = Random(draw(st.integers(0, 2**32)))
    levels = [Tensor.scalar(d, draw(st.sampled_from([0, 1, Fraction(1, 2), -1])))]
    for k in range(1, k_max + 1):
        kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
        entries = [Fraction(0)] * d**k
        if kind != "zero":
            share = 0.15 if kind == "sparse" else 1.0
            for i in range(d**k):
                if rng.random() < share:
                    entries[i] = Fraction(rng.randint(-6, 6), rng.choice(dens))
        levels.append(Tensor(d, k, tuple(entries)))
    return TensorSeries(d, tuple(levels))


def _with_level0(series, value):
    return TensorSeries(series.d, (Tensor.scalar(series.d, value),) + series.levels[1:])


@settings(deadline=None, max_examples=80)
@given(truncated_series())
def test_exp_log_kernel_matches_series_product_oracle(series):
    # the level-0 ValueErrors are the oracle's: exp needs 0, log needs 1
    level0 = series.level(0).entries[0]
    if level0 == 0:
        assert exp_truncated(series) == series_exp(series)
    else:
        for f in (exp_truncated, series_exp):
            with pytest.raises(ValueError, match="level 0 equal to 0"):
                f(series)
    if level0 == 1:
        # random levels are generally not group-like
        assert log_truncated(series) == series_log(series)
    else:
        for f in (log_truncated, series_log):
            with pytest.raises(ValueError, match="level 0 equal to 1"):
                f(series)


@settings(deadline=None, max_examples=40)
@given(truncated_series())
def test_exp_log_roundtrips(series):
    x = _with_level0(series, 0)
    assert log_truncated(exp_truncated(x)) == x
    s = _with_level0(series, 1)
    assert exp_truncated(log_truncated(s)) == s


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 2**32))
def test_phi_k_is_sum_of_f_lambda(d, k, seed):
    element = random_lie_element(d, k, Random(seed))
    total = Tensor(d, k, [0] * d**k)
    for lam in partitions(k):
        total = total + f_lambda(element, lam)
    assert phi_k(element, k) == total


def test_phi_k_examples():
    v = LieElement(2, 3, {(1,): Fraction(1), (2,): Fraction(2)})
    vt = Tensor.from_vector(2, [1, 2])
    assert phi_k(v, 3) == tensor_product(tensor_product(vt, vt), vt).scale(
        Fraction(1, 6)
    )
    pure_top = LieElement(2, 3, {(1, 1, 2): Fraction(5)})
    assert phi_k(pure_top, 3) == lyndon_bracketing((1, 1, 2), 2).scale(5)
    mixed = LieElement(2, 2, {(1,): 1, (2,): 2, (1, 2): Fraction(1, 3)})
    a = lyndon_bracketing((1, 2), 2).scale(Fraction(1, 3))
    assert phi_k(mixed, 2) == tensor_product(vt, vt).scale(Fraction(1, 2)) + a


def test_f_lambda_splits_phi():
    rng = Random(10)
    for _ in range(4):
        element = random_lie_element(2, 5, rng)
        for k in range(1, 6):
            total = Tensor(2, k, [0] * 2**k)
            for lam in partitions(k):
                total = total + f_lambda(element, lam)
            assert total == phi_k(element, k)


def test_f_lambda_k3_reference_split():
    element = random_lie_element(2, 3, Random(11))
    v = element.level(1)
    a = element.level(2)
    top = element.level(3)
    assert f_lambda(element, (1, 1, 1)) == tensor_product(
        tensor_product(v, v), v
    ).scale(Fraction(1, 6))
    assert f_lambda(element, (2, 1)) == (
        tensor_product(a, v) + tensor_product(v, a)
    ).scale(Fraction(1, 2))
    assert f_lambda(element, (3,)) == top


def test_f_lambda_homogeneity():
    rng = Random(12)
    element = random_lie_element(2, 4, rng)
    t = Fraction(3, 2)
    for lam in partitions(4):
        counts = {i: lam.count(i) for i in set(lam)}
        for i, a_i in counts.items():
            scaled_coeffs = {
                w: (c * t if len(w) == i else c) for w, c in element.coeffs.items()
            }
            scaled = LieElement(2, 4, scaled_coeffs)
            assert f_lambda(scaled, lam) == f_lambda(element, lam).scale(t**a_i)


def test_f_lambda_lands_in_w_subspace():
    rng = Random(13)
    element = random_lie_element(2, 4, rng)
    for lam in partitions(4):
        image = f_lambda(element, lam)
        span = [list(b.entries) for b in w_lambda_basis(lam, 2)]
        assert linalg.in_span(span, list(image.entries))


def test_w_lambda_basis_shapes():
    assert [t.nonzero_terms() for t in w_lambda_basis((3,), 2)] == [
        t.nonzero_terms() for t in lie_basis(2, 3)
    ]
    sym_basis = w_lambda_basis((1, 1, 1), 2)
    assert len(sym_basis) == multichoose(2, 3)
    assert all(is_symmetric(t) for t in sym_basis)
    basis21 = w_lambda_basis((2, 1), 2)
    assert len(basis21) == 2 == lie_dim(2, 2) * lie_dim(2, 1)


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)])
def test_w_lambda_bases_fill_tensor_power(d, k):
    all_vectors = []
    for lam in partitions(k):
        vecs = w_lambda_basis(lam, d)
        assert len(vecs) == w_module_dim(lam, d)
        all_vectors.extend(list(t.entries) for t in vecs)
    assert len(all_vectors) == d**k
    assert linalg.rank(all_vectors) == d**k


def test_thrall_decompose_trivial_slots():
    sym = symmetrize(random_tensor(2, 3, Random(14)))
    parts = thrall_decompose(sym)
    assert parts[(1, 1, 1)] == sym
    assert all(parts[lam].is_zero() for lam in parts if lam != (1, 1, 1))

    lie = lyndon_bracketing((1, 1, 2), 2).scale(Fraction(2, 7))
    parts = thrall_decompose(lie)
    assert parts[(3,)] == lie
    assert all(parts[lam].is_zero() for lam in parts if lam != (3,))


def test_thrall_decompose_methods_agree():
    rng = Random(15)
    for k in (2, 3, 4):
        for _ in range(3):
            t = random_tensor(2, k, rng)
            a = thrall_decompose(t, method="idempotent")
            b = thrall_decompose(t, method="solve")
            assert a == b
            total = Tensor(2, k, [0] * 2**k)
            for lam, part in a.items():
                span = [list(v.entries) for v in w_lambda_basis(lam, 2)]
                if not part.is_zero():
                    assert linalg.in_span(span, list(part.entries))
                total = total + part
            assert total == t


@pytest.mark.parametrize("method", ["auto", "idempotent", "solve"])
@pytest.mark.parametrize("d, value", [(1, 0), (2, 3), (3, Fraction(-5, 2))])
def test_order_zero_tensor_is_its_own_component(method, d, value):
    tensor = Tensor.scalar(d, value)
    assert thrall_decompose(tensor, method) == {(): tensor}


@pytest.mark.parametrize("d, k", [(1, 4), (2, 6), (3, 4), (3, 5)])
def test_solve_decompose_matches_dense_solve(d, k):
    # fractional entries, a basis tensor (the dense solve at (3, 5) takes
    # seconds, so only once there) and the zero tensor
    rng = Random(31 * d + k)
    t = Tensor(
        d, k, tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d**k))
    )
    assert thrall_decompose(t, method="solve") == dense_solve_decompose(t)
    if d**k < 243:
        e = basis_tensor(d, tuple(min(i + 1, d) for i in range(k)))
        assert thrall_decompose(e, method="solve") == dense_solve_decompose(e)
    zero = Tensor(d, k, [0] * d**k)
    assert thrall_decompose(zero, method="solve") == {
        lam: zero for lam in partitions(k)
    }


def test_both_routes_at_four_letters_match_dense_solve():
    # d = 4, k = 3: shapes (2, 1) and (1, 1, 1) span blocks whose relabelling
    # reorders letters
    rng = Random(403)
    t = Tensor(4, 3, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(64)])
    want = dense_solve_decompose(t)
    assert thrall_decompose(t, "solve") == want
    assert thrall_decompose(t, "idempotent") == want


def test_both_routes_agree_off_the_first_block_of_each_shape():
    # a (4, 4) tensor supported only on blocks that are not the first of
    # their shape (letters 1..l with non-increasing counts), so every
    # nonzero output is read through a relabelled block
    rng = Random(404)
    entries = []
    for w in itertools.product(range(1, 5), repeat=4):
        counts = [w.count(a) for a in range(1, 5)]
        used = [c for c in counts if c]
        first = counts[: len(used)] == sorted(used, reverse=True)
        entries.append(Fraction(0) if first else Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    t = Tensor(4, 4, entries)
    assert sum(1 for x in entries if x) > 150
    solve, closed = thrall_decompose(t, "solve"), thrall_decompose(t, "idempotent")
    assert solve == closed
    for lam, part in closed.items():
        assert part == dense_ga_act(higher_lie_idempotent(lam), t)


@st.composite
def decompose_tensors(draw):
    """Tensors with d 1..4 and k 1..5 that are zero, supported on one weight
    block, sparse or dense, with entries over mixed denominators."""
    d, k = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rng = Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["zero", "block", "sparse", "dense"]))
    support = {
        "zero": [],
        "block": rng.choice(weight_blocks(d, k)),
        "sparse": [i for i in range(d**k) if rng.random() < 0.15],
        "dense": range(d**k),
    }[kind]
    entries = [Fraction(0)] * d**k
    for i in support:
        entries[i] = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 12]))
    return Tensor(d, k, tuple(entries))


@settings(deadline=None, max_examples=60)
@given(decompose_tensors())
def test_idempotent_decompose_matches_ga_act_and_solve(tensor):
    d, k = tensor.d, tensor.k
    got = thrall_decompose(tensor, "idempotent")
    assert list(got) == list(partitions(k))
    want = {lam: dense_ga_act(higher_lie_idempotent(lam), tensor) for lam in partitions(k)}
    assert got == want
    assert thrall_decompose(tensor, "auto") == got
    # the solve backend's first call at (4, 5) inverts its blocks for seconds
    if d**k <= 243:
        assert thrall_decompose(tensor, "solve") == got


@pytest.mark.parametrize("digits", [1, 20, 100])
@pytest.mark.parametrize(
    "d,k", [(d, k) for d in range(1, 10) for k in range(6) if d**k <= 243]
)
def test_idempotent_and_solve_backends_agree_on_wide_entries(d, k, digits):
    # the closed-form and the solve-built projectors through the one packed
    # kernel, with entries of 1, 20 and 100 digits: slots of 8 to 64 bits,
    # and one dot product per row where no slot of 64 bits holds the outputs
    rng = Random(1000 * d + 10 * k + digits)
    nums = [rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(d**k)]
    nums[0] = 7 * nums[0] + 1
    tensor = Tensor(d, k, nums, 7)
    assert tensor.den == 7
    assert thrall_decompose(tensor, "idempotent") == thrall_decompose(tensor, "solve")


@pytest.mark.parametrize("digits", [20, 100])
@pytest.mark.parametrize("d,k", [(2, 6), (3, 4)])
def test_solve_route_on_wide_entries_matches_dense_solve(d, k, digits):
    # outputs wider than 64-bit slots: the solve-built stack takes one dot
    # product per row
    rng = Random(7000 * d + 10 * k + digits)
    nums = [
        rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(d**k)
    ]
    tensor = Tensor(d, k, nums, 10**digits + 1)
    assert thrall_decompose(tensor, "solve") == dense_solve_decompose(tensor)


@pytest.mark.parametrize("bits", [3, 12, 28, 60, 100])
def test_compose_matches_plain_products_at_every_slot_width(bits):
    # entries of the inverse of 3 to 100 bits, below and above a 64-bit
    # machine word: the row sums stay exact at every size
    rng = Random(bits)
    b = 4
    inverse = [[rng.randint(-(2**bits), 2**bits) for _ in range(b)] for _ in range(b)]
    inverse[0][0] = 2**bits
    words = [(1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 1)]
    place = {w: t for t, w in enumerate(words)}
    cols = [
        ((2, 1), {words[0]: 1, words[1]: -1}),
        ((2, 1), {words[2]: 3}),
        ((3,), {words[0]: -2, words[1]: 5, words[3]: 1}),
        ((1, 1, 1), {words[3]: 1}),
    ]
    got = free_lie._compose(cols, place, inverse)
    assert list(got) == [(2, 1), (3,), (1, 1, 1)]
    for lam, matrix in got.items():
        rows = [[vec.get(w, 0) if mu == lam else 0 for mu, vec in cols] for w in words]
        want = [[sum(x * inv[c] for x, inv in zip(row, inverse)) for c in range(b)] for row in rows]
        assert matrix == want


@pytest.mark.parametrize("width", [8, 16, 32, 64, 72])
def test_compose_at_the_slot_limits(width):
    # entries of size 2^(W-1) - 1 and 2^(W-1), either side of the signed
    # W-bit range, next to entries of the opposite sign in the same row
    top = 2 ** (width - 1)
    words = [(1, 2), (2, 1)]
    place = {w: t for t, w in enumerate(words)}
    cols = [((2,), {words[0]: 1}), ((1, 1), {words[1]: 1})]
    for x in (top - 1, 1 - top, top, -top):
        assert free_lie._compose(cols, place, [[x, -x], [-x, x]]) == {
            (2,): [[x, -x], [0, 0]],
            (1, 1): [[0, 0], [-x, x]],
        }


def test_auto_falls_back_to_the_solve_above_the_projector_cap():
    t = random_tensor(2, 6, Random(61))
    with pytest.raises(ResourceLimitError):
        thrall_decompose(t, "idempotent")
    assert thrall_decompose(t, "auto") == thrall_decompose(t, "solve")


def test_auto_above_the_cap_never_builds_the_closed_form(monkeypatch):
    # auto picks the solve from the degree alone, so the closed-form family
    # is not even attempted at k = 6
    def fail(*args):
        raise AssertionError("auto built the closed form above the cap")

    monkeypatch.setattr(group_algebra, "_projector_family", fail)
    t = random_tensor(2, 6, Random(62))
    assert thrall_decompose(t, "auto") == thrall_decompose(t, "solve")


@pytest.mark.parametrize("d, k", [(2, 11), (3, 4), (1, 7)])
def test_zero_tensor_builds_no_construction(monkeypatch, d, k):
    # every projector maps zero to zero: at (2, 11) building the solve takes
    # over a minute, and the p(11) = 56 zero components need none of it
    def fail(*args):
        raise AssertionError("built a construction for the zero tensor")

    monkeypatch.setattr(group_algebra, "graded_projections", fail)
    zero = Tensor(d, k, [0] * d**k)
    for method in ("auto", "solve", "idempotent"):
        if method == "idempotent" and k > K_MAX:
            continue
        parts = thrall_decompose(zero, method)
        assert list(parts) == list(partitions(k)) and set(parts.values()) == {zero}
    # the route cap and the answer guard still come first
    monkeypatch.undo()
    if k > K_MAX:
        with pytest.raises(ResourceLimitError, match="degree cap"):
            thrall_decompose(zero, "idempotent")
    monkeypatch.setattr(free_lie, "SIGNATURE_ENTRIES_MAX", len(partitions(k)) * d**k - 1)
    with pytest.raises(ResourceLimitError, match="components"):
        thrall_decompose(zero, "auto")


@pytest.mark.parametrize("method", ["auto", "solve", "idempotent"])
def test_solve_guard_refuses_p_k_components_at_d_1(monkeypatch, method):
    # p(2000) components of one entry each: refused before any partition of
    # k is listed, where the solve once ran without end
    def fail(*args):
        raise AssertionError("listed the partitions before the guard")

    monkeypatch.setattr(free_lie, "partitions", fail)
    with pytest.raises(ResourceLimitError, match="components"):
        thrall_decompose(Tensor(1, 2000, [1]), method)


def test_solve_guard_counts_every_entry_of_the_answer(monkeypatch):
    # p(30) = 5604 one-entry components pass; at (2, 3) the answer has
    # p(3) * 2^3 = 24 entries, so a cap of 24 passes and 23 does not
    t = Tensor(1, 30, [1])
    parts = thrall_decompose(t, "solve")
    assert len(parts) == 5604 and parts[(1,) * 30] == t
    assert all(part.is_zero() for lam, part in parts.items() if lam != (1,) * 30)
    # the guard sits before the route is picked, so every route answers alike
    t = random_tensor(2, 3, Random(63))
    for method in ("auto", "solve", "idempotent"):
        monkeypatch.setattr(free_lie, "SIGNATURE_ENTRIES_MAX", 24)
        assert len(thrall_decompose(t, method)) == 3
        monkeypatch.setattr(free_lie, "SIGNATURE_ENTRIES_MAX", 23)
        with pytest.raises(ResourceLimitError):
            thrall_decompose(t, method)


def test_partition_count_by_the_pentagonal_recurrence():
    assert [free_lie._partition_count(n, 10**6) for n in range(30)] == [
        len(partitions(n)) for n in range(30)
    ]
    # stops at the first p(n) above the limit: p(4) = 5 > 4
    assert free_lie._partition_count(2000, 4) == 5
    assert free_lie._partition_count(50, 10**6) == 204226


def test_one_letter_basis_has_one_ordering():
    # the (1^12) basis vector at d = 1 is a symmetrized product of 12 equal
    # labels, which has one ordering, not 12!
    assert [t.nonzero_terms() for t in w_lambda_basis((1,) * 12, 1)] == [{(1,) * 12: 1}]


def test_thrall_decompose_e112():
    t = basis_tensor(2, (1, 1, 2))
    parts = thrall_decompose(t, method="idempotent")
    assert sum((p for p in parts.values()), Tensor(2, 3, [0] * 8)) == t
    assert parts == thrall_decompose(t, method="solve")


def test_is_lie_element():
    for w in lyndon_words(2, 4):
        assert is_lie_element(lyndon_bracketing(w, 2))
    v = Tensor.from_vector(2, [1, 1])
    assert not is_lie_element(tensor_product(v, v))
    rng = Random(16)
    basis = lie_basis(2, 4)
    for _ in range(5):
        combo = Tensor(2, 4, [0] * 16)
        for b in basis:
            combo = combo + b.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        assert is_lie_element(combo) == dynkin_is_lie_element(combo)
        assert is_lie_element(combo)
    generic = random_tensor(2, 4, rng)
    assert is_lie_element(generic) == dynkin_is_lie_element(generic)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(0, 6), st.booleans(), st.integers(0, 2**32))
def test_is_lie_element_matches_dynkin(d, k, perturb, seed):
    rng = Random(seed)
    if k == 0:
        tensor = Tensor.scalar(d, rng.randint(-3, 3))
    else:
        tensor = random_lie_element(d, k, rng).level(k)
    if perturb:
        word = tuple(rng.randint(1, d) for _ in range(k))
        tensor = tensor + basis_tensor(d, word).scale(rng.randint(1, 3))
    elif k >= 1:
        assert is_lie_element(tensor)
    assert is_lie_element(tensor) == dynkin_is_lie_element(tensor)


def test_lyndon_bracketings_are_unitriangular():
    for d, k_max in LYNDON_SHAPES:
        for k in range(1, k_max + 1):
            for w in lyndon_words(d, k):
                expansion, i = bracket_expansion(w, d), word_to_index(w, d)
                assert expansion[i] == 1
                assert all(j > i for j in expansion if j != i)


def test_bracket_expansion_matches_the_word_bracketing():
    for d, k_max in LYNDON_SHAPES:
        for k in range(1, k_max + 1):
            for w in lyndon_words(d, k):
                words = {index_to_word(i, d, k): c for i, c in bracket_expansion(w, d).items()}
                assert words == lyndon_bracketing_by_words(w)


@pytest.mark.parametrize("d, k_max", [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 4)])
def test_lyndon_table_rows_are_the_bracket_expansions(d, k_max):
    # the shapes signature-warm runs: the table lists the Lyndon words in lex
    # order with their flat indices, and each row of the walk is the word's
    # bracketing, at coefficient 1 on its own index
    for k in range(1, k_max + 1):
        table = free_lie._lyndon_table(d, k)
        assert [w for w, _ in table] == lyndon_words(d, k)
        for w, index in table:
            assert index == word_to_index(w, d) and bracket_expansion(w, d)[index] == 1


def test_lie_coordinates_expand_only_the_bracketings_they_meet(monkeypatch):
    # a sparse Lie element at (2, 14) expands its own word and that word's
    # standard factors only, not the bracketings of all 1,161 Lyndon words
    # of that length
    word = (1,) * 13 + (2,)
    tensor = lyndon_bracketing(word, 2).scale(3)
    built = []
    expand = free_lie.bracket_expansion.__wrapped__
    monkeypatch.setattr(
        free_lie, "bracket_expansion", functools.cache(lambda w, d: built.append(w) or expand(w, d))
    )
    assert lie_coordinates(tensor) == {word: 3}
    factors = [(1,) * j + (2,) for j in range(13)] + [(1,)]
    assert sorted(built) == sorted([word] + factors)
    assert lie_coordinates(Tensor(2, 14, [0] * 2**14)) == {} and len(built) == 15


def _count_back_substitutions(monkeypatch):
    """A fresh structure-constant table, and the ``(d, k)`` of every
    back-substitution from here on."""
    calls = []
    substitute = free_lie._back_substitute
    monkeypatch.setattr(
        free_lie, "_back_substitute", lambda *args: calls.append(args[1:3]) or substitute(*args)
    )
    monkeypatch.setattr(free_lie, "_STRUCTURE", {})
    return calls


def test_lie_bracket_and_lie_coordinates_share_one_back_substitution(monkeypatch):
    # the table starts empty whatever ran before, so the bracket's one pair
    # is read back here, once
    calls = _count_back_substitutions(monkeypatch)
    e1, e2 = (LieElement(2, 3, {(i,): 1}) for i in (1, 2))
    assert free_lie.lie_bracket(e1, e2).coeffs == {(1, 2): 1}
    assert lie_coordinates(lyndon_bracketing((1, 1, 2), 2)) == {(1, 1, 2): 1}
    assert calls == [(2, 2), (2, 3)]
    assert free_lie.lie_bracket(e1, e2).coeffs == {(1, 2): 1}
    assert calls == [(2, 2), (2, 3)]


def test_bracket_table_holds_each_pair_once_within_the_truncation(monkeypatch):
    calls = _count_back_substitutions(monkeypatch)
    rng = Random(34)
    a, b = random_lie_element(3, 4, rng), random_lie_element(3, 3, rng)
    ab = free_lie.lie_bracket(a, b)
    table = dict(free_lie._STRUCTURE)
    # none above min(k_max) = 3; each pair met is kept in both orders, from
    # one back-substitution per unordered pair
    met = {(u, v) for u in a.coeffs for v in b.coeffs if len(u) + len(v) <= 3}
    assert all(d == 3 for _, _, d in table)
    assert {(u, v) for u, v, _ in table} == met | {(v, u) for u, v in met}
    assert len(calls) == len({frozenset(pair) for pair in met}) < len(met)
    # each entry is [P_u, P_v] in Lyndon coordinates, read from the dense commutator
    for (u, v, d), constants in table.items():
        left, right = lyndon_bracketing(u, d), lyndon_bracketing(v, d)
        commutator = tensor_product(left, right) + tensor_product(right, left).scale(-1)
        assert dict(constants) == lie_coordinates(commutator)
    assert ab == dense_lie_bracket(a, b)
    # a repeat, and pairs already met at a higher truncation, compute nothing
    low = LieElement(3, 2, {w: c for w, c in a.coeffs.items() if len(w) == 1})
    want = dense_lie_bracket(low, b)
    calls.clear()
    assert free_lie.lie_bracket(a, b) == ab
    assert free_lie.lie_bracket(low, b) == want
    assert calls == [] and free_lie._STRUCTURE == table


def test_bracket_at_one_letter_and_of_zero_is_zero(monkeypatch):
    _count_back_substitutions(monkeypatch)
    # at d = 1 the only Lyndon word is (1,), and [P_1, P_1] = 0
    one = LieElement(1, 5, {(1,): Fraction(3, 2)})
    assert free_lie.lie_bracket(one, one) == LieElement(1, 5, {})
    assert free_lie._STRUCTURE == {((1,), (1,), 1): ()}
    zero = LieElement(2, 3, {})
    other = random_lie_element(2, 3, Random(1))
    for x, y in ((zero, zero), (zero, other), (other, zero)):
        assert free_lie.lie_bracket(x, y) == LieElement(2, 3, {}) == dense_lie_bracket(x, y)
    assert free_lie.lie_bracket(other, other) == LieElement(2, 3, {})


@pytest.mark.parametrize("d,ka,kb", [(2, 5, 2), (2, 1, 4), (3, 3, 4), (3, 4, 2)])
def test_bracket_of_unequal_truncations_matches_dense_oracle(d, ka, kb):
    rng = Random(100 * d + 10 * ka + kb)
    a, b = random_lie_element(d, ka, rng), random_lie_element(d, kb, rng)
    for x, y in ((a, b), (b, a)):
        got = free_lie.lie_bracket(x, y)
        assert got.k_max == min(ka, kb)
        assert got == dense_lie_bracket(x, y)


def test_lie_coordinates_match_dense_solve():
    rng = Random(17)
    dens = (1, 2, 3, 5, 7, 12)  # mixed denominators, so the scale is an lcm
    for d, k in LYNDON_SHAPES:
        words = lyndon_words(d, k)
        for _ in range(3):
            coeffs = {
                w: Fraction(rng.randint(-9, 9), rng.choice(dens))
                for w in rng.sample(words, 4)
            }
            lie = Tensor(d, k, [0] * d**k)
            for w, c in coeffs.items():
                lie = lie + lyndon_bracketing(w, d).scale(c)
            want = {w: c for w, c in coeffs.items() if c}
            assert lie_coordinates(lie) == dense_lie_coordinates(lie) == want
            # a fractional rescaling stays in the Lie span
            scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(dens))
            assert lie_coordinates(lie.scale(scale)) == {w: scale * c for w, c in want.items()}
            assert lie_coordinates(lie.scale(scale)) == dense_lie_coordinates(lie.scale(scale))
            # moving one or two entries by fractions of other denominators, or
            # taking a generic tensor, leaves the Lie span: for k >= 2 the
            # coefficients of a Lie element sum to zero over each letter
            # content, and two moves of different sizes cannot cancel
            for moves in (1, 2):
                entries = list(lie.entries)
                sizes = rng.sample((2, 11, 13), moves)
                for i, den in zip(rng.sample(range(len(entries)), moves), sizes):
                    entries[i] += Fraction(rng.choice((-1, 1)), den)
                other = Tensor(d, k, tuple(entries))
                assert lie_coordinates(other) is None
                assert dense_lie_coordinates(other) is None
            other = random_tensor(d, k, rng)
            assert lie_coordinates(other) is None
            assert dense_lie_coordinates(other) is None
    zero = Tensor(3, 4, [0] * 81)
    assert lie_coordinates(zero) == dense_lie_coordinates(zero) == {}


def test_lie_element_validation():
    with pytest.raises(ValueError):
        LieElement(2, 3, {(2, 1): Fraction(1)})
    with pytest.raises(ValueError):
        LieElement(2, 2, {(1, 1, 2): Fraction(1)})
    with pytest.raises(ValueError):
        LieElement(2, 2, {(1, 3): Fraction(1)})


def test_lie_element_level_and_series():
    element = LieElement(2, 3, {(1,): 2, (1, 2): 3, (1, 1, 2): Fraction(1, 2)})
    assert element.level(1) == Tensor.from_vector(2, [2, 0])
    assert element.level(2) == lyndon_bracketing((1, 2), 2).scale(3)
    series = element.to_series(3)
    assert series.k_max == 3
    assert series.level(0).is_zero()


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32))
def test_lie_level_matches_dense_bracketing_sum(d, k_max, seed):
    element = random_lie_element(d, k_max, Random(seed))
    for k in range(k_max + 2):
        assert element.level(k) == dense_lie_level(element, k)


def test_lie_bracket_in_lyndon_coordinates():
    from thrallkit.free_lie import lie_bracket

    e1 = LieElement(2, 3, {(1,): 1})
    e2 = LieElement(2, 3, {(2,): 1})
    assert lie_bracket(e1, e2).coeffs == {(1, 2): Fraction(1)}
    # [e1, [e1, e2]] is the bracketing of the word 112
    inner = lie_bracket(e1, e2)
    assert lie_bracket(e1, inner).coeffs == {(1, 1, 2): Fraction(1)}
    # antisymmetry and bilinearity on random elements
    rng = Random(60)
    a = random_lie_element(2, 3, rng)
    b = random_lie_element(2, 3, rng)
    ab = lie_bracket(a, b)
    ba = lie_bracket(b, a)
    assert {w: -c for w, c in ab.coeffs.items()} == ba.coeffs
    two_a = LieElement(2, 3, {w: 2 * c for w, c in a.coeffs.items()})
    assert lie_bracket(two_a, b).coeffs == {
        w: 2 * c for w, c in ab.coeffs.items()
    }
    # the coordinates reconstruct the tensor-level commutator at each degree
    for k in (2, 3):
        want = Tensor(2, k, [0] * 2**k)
        for i in range(1, k):
            left, right = a.level(i), b.level(k - i)
            want = want + tensor_product(left, right) + tensor_product(right, left).scale(-1)
        assert ab.level(k) == want


def test_lie_bracket_jacobi():
    from thrallkit.free_lie import lie_bracket

    rng = Random(61)
    a = random_lie_element(2, 4, rng)
    b = random_lie_element(2, 4, rng)
    c = random_lie_element(2, 4, rng)

    def add(x, y):
        coeffs = dict(x.coeffs)
        for w, v in y.coeffs.items():
            coeffs[w] = coeffs.get(w, Fraction(0)) + v
        return LieElement(x.d, x.k_max, coeffs)

    lhs = add(
        add(lie_bracket(a, lie_bracket(b, c)), lie_bracket(b, lie_bracket(c, a))),
        lie_bracket(c, lie_bracket(a, b)),
    )
    assert lhs.coeffs == {}


# Shapes (d, k) on which the sparse builders are checked against the dense oracles.
ORACLE_SHAPES = [(d, k) for d in range(1, 5) for k in range(1, 6)] + [(2, 6)]


@settings(deadline=None, max_examples=20)
@given(st.sampled_from([(lam, d) for d, k in ORACLE_SHAPES for lam in partitions(k)]))
def test_w_lambda_basis_matches_dense_oracle(case):
    lam, d = case
    assert w_lambda_basis(lam, d) == dense_w_lambda_basis(lam, d)


def _lie_element(d, k_max, rng):
    """A random Lie element with each graded piece dropped with probability 1/3."""
    element = random_lie_element(d, k_max, rng)
    kept = {k for k in range(1, k_max + 1) if rng.random() < 2 / 3}
    return LieElement(d, k_max, {w: c for w, c in element.coeffs.items() if len(w) in kept})


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(ORACLE_SHAPES), st.integers(0, 2**32), st.data())
def test_f_lambda_matches_dense_oracle(shape, seed, data):
    d, k = shape
    element = _lie_element(d, k, Random(seed))
    lam = data.draw(st.sampled_from(partitions(k)))
    assert f_lambda(element, lam) == dense_f_lambda(element, lam)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(ORACLE_SHAPES), st.integers(0, 2**32))
def test_lie_bracket_matches_dense_oracle(shape, seed):
    from thrallkit.free_lie import lie_bracket

    d, k = shape
    rng = Random(seed)
    a = _lie_element(d, k, rng)
    b = _lie_element(d, rng.randint(1, k), rng)
    assert lie_bracket(a, b) == dense_lie_bracket(a, b)
    assert lie_bracket(b, a) == dense_lie_bracket(b, a)
