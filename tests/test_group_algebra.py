import itertools
import math
import operator
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thrallkit import free_lie, group_algebra, linalg
from thrallkit.free_lie import lie_basis, lyndon_bracketing
from thrallkit.group_algebra import (
    GroupAlgebraElement,
    K_MAX,
    ResourceLimitError,
    central_idempotent,
    ga_act,
    ga_multiply,
    graded_projections,
    higher_lie_idempotent,
    intersection_projector,
    operator_image,
    operator_rank,
    young_symmetrizer,
    young_symmetrizer_transposed,
)
from thrallkit.permutations import from_cycles
from thrallkit.reference_suite import (
    E3_REFERENCE,
    E21_1_REFERENCE,
    E21_2_REFERENCE,
    E21_REFERENCE,
    E111_REFERENCE,
    _element,
)
from thrallkit.symfun import thrall_coefficients
from thrallkit.tensors import Tensor, read_slots, slot_width, symmetrize, weight_patterns
from thrallkit.words import YoungTableau, partitions, schur_dim

from oracles import (
    basis_tensor,
    column_first_young_symmetrizer,
    dense_ga_act,
    dense_operator_rank,
    dense_w_lambda_basis,
    fraction_central_idempotent,
    fraction_ga_multiply,
    fraction_ga_sum,
    random_tensor,
    scatter_permute_slots,
    slot_permutation,
    solve_lie_idempotents,
    verify_refinement,
    word_to_perm,
)
from test_values import assert_same_value


def tau(*rows):
    return YoungTableau(tuple(tuple(r) for r in rows))


def test_ga_multiply_basics():
    x = GroupAlgebraElement(3, {(1, 0, 2): Fraction(2), (0, 1, 2): Fraction(-1)})
    assert ga_multiply(x, slot_permutation(range(3))) == x
    swap = slot_permutation((1, 0))
    assert ga_multiply(swap, swap) == slot_permutation(range(2))
    with pytest.raises(ValueError):
        ga_multiply(x, swap)


def test_rational_and_integer_constructors_agree():
    x = GroupAlgebraElement(3, {(1, 0, 2): Fraction(3, 4), (0, 1, 2): Fraction(-1, 6)})
    assert x == GroupAlgebraElement(3, {(1, 0, 2): 9, (0, 1, 2): -2}, 12)
    # both forms are reduced to lowest terms, so equal elements have equal fields
    assert x == GroupAlgebraElement(3, {(1, 0, 2): 18, (0, 1, 2): -4, (2, 1, 0): 0}, 24)
    assert (x.nums, x.den) == ({(1, 0, 2): 9, (0, 1, 2): -2}, 12)
    assert GroupAlgebraElement(2, {(1, 0): "2/4"}) == GroupAlgebraElement(2, {(1, 0): 1}, 2)


def test_zero_element_has_unit_denominator_and_no_terms():
    for zero in (
        GroupAlgebraElement.zero(3),
        GroupAlgebraElement(3, {(0, 1, 2): 0}, 7),
        GroupAlgebraElement(3, {(0, 1, 2): Fraction(0)}),
        slot_permutation((2, 0, 1), 0),
    ):
        assert (zero.nums, zero.den, zero.terms) == ({}, 1, {})


def test_terms_are_fractions_of_the_numerators():
    x = GroupAlgebraElement(3, {(1, 0, 2): 9, (0, 1, 2): -2, (2, 0, 1): 12}, 12)
    assert x.terms == {(1, 0, 2): Fraction(3, 4), (0, 1, 2): Fraction(-1, 6), (2, 0, 1): 1}
    assert all(type(c) is Fraction for c in x.terms.values())
    assert all(x.terms[p] == Fraction(n, x.den) for p, n in x.nums.items())
    assert (2, 1, 0) not in x.terms
    assert x.terms[(1, 0, 2)] == Fraction(3, 4)


@pytest.mark.parametrize(
    "k,nums,den",
    [
        (3, {(0, 1, 1): 1}, 1),  # repeated image
        (3, {(0, 1, 3): 1}, 1),  # image out of range
        (3, {(0, 1): 1}, 1),  # wrong length
        (2, {(0, 1, 2): Fraction(1)}, None),  # wrong length, rational form
        (2, {(1, 1): Fraction(0)}, None),  # checked even with a zero coefficient
        (2, {(1, 0): 1}, 0),
        (2, {(1, 0): 1}, -3),
    ],
)
def test_malformed_elements_raise(k, nums, den):
    with pytest.raises(ValueError):
        GroupAlgebraElement(k, nums, den)


def test_degree_mismatch_raises_in_product():
    with pytest.raises(ValueError):
        ga_multiply(slot_permutation(range(2)), slot_permutation(range(3)))
    with pytest.raises(ValueError):
        ga_multiply(GroupAlgebraElement.zero(0), slot_permutation(range(1)))


_coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _elements(draw, k):
    # sparse (a few sampled permutations) or dense (every permutation)
    perms = list(itertools.permutations(range(k)))
    if draw(st.booleans()):
        support = perms
    else:
        support = draw(st.lists(st.sampled_from(perms), max_size=4, unique=True))
    return GroupAlgebraElement(k, {p: draw(_coefficients) for p in support})


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 5).flatmap(lambda k: st.tuples(_elements(k), _elements(k))))
# degrees 0 and 1, where itemgetter cannot compose, are always run
@example((GroupAlgebraElement(0, {(): Fraction(-2, 3)}),) * 2)
@example((slot_permutation((0,), Fraction(5, 4)), slot_permutation((0,), 3)))
@example((GroupAlgebraElement.zero(1), slot_permutation(range(1))))
def test_ga_multiply_matches_fraction_oracle(pair):
    x, y = pair
    assert ga_multiply(x, y) == fraction_ga_multiply(x, y)


@pytest.mark.parametrize("k", range(7))
def test_central_idempotents_match_fraction_oracle(k):
    elements = [central_idempotent(mu) for mu in partitions(k)]
    for mu, z in zip(partitions(k), elements):
        assert z == fraction_central_idempotent(mu)
    assert fraction_ga_sum(k, elements) == slot_permutation(range(k))


def test_ga_multiply_associative():
    rng = Random(17)
    perms = list(itertools.permutations(range(3)))

    def rand_element():
        return GroupAlgebraElement(
            3, {perms[rng.randrange(6)]: Fraction(rng.randint(-3, 3)) for _ in range(3)}
        )

    for _ in range(10):
        a, b, c = rand_element(), rand_element(), rand_element()
        assert ga_multiply(ga_multiply(a, b), c) == ga_multiply(a, ga_multiply(b, c))


def test_ga_act_is_left_module_action():
    rng = Random(18)
    perms = list(itertools.permutations(range(3)))
    for _ in range(5):
        x = GroupAlgebraElement(3, {perms[rng.randrange(6)]: Fraction(rng.randint(-2, 2))})
        y = GroupAlgebraElement(3, {perms[rng.randrange(6)]: Fraction(rng.randint(-2, 2))})
        t = random_tensor(2, 3, rng)
        assert ga_act(x, ga_act(y, t)) == ga_act(ga_multiply(x, y), t)


def test_ga_act_identity_and_symmetrization():
    t = random_tensor(2, 3, Random(19))
    assert ga_act(slot_permutation(range(3)), t) == t
    full = higher_lie_idempotent((1, 1, 1))
    assert ga_act(full, t) == symmetrize(t)


def _random_element(k, rng, count):
    perms = list(itertools.permutations(range(k)))
    return GroupAlgebraElement(
        k,
        {
            p: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for p in rng.sample(perms, min(count, len(perms)))
        },
    )


def _random_fractional_tensor(d, k, rng):
    return Tensor(
        d,
        k,
        tuple(
            Fraction(rng.randint(-4, 4), rng.randint(1, 5)) if rng.random() < 0.7 else Fraction(0)
            for _ in range(d**k)
        ),
    )


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_ga_act_matches_dense_sum(d, k):
    rng = Random(1000 * d + k)
    for count in (1, 3, 24):
        x = _random_element(k, rng, count)
        t = _random_fractional_tensor(d, k, rng)
        assert ga_act(x, t) == dense_ga_act(x, t)
        # numerators of 65 bits and more take one dot product per row of
        # the one-layer stack
        wide = t.scale(2**64 + 1)
        assert ga_act(x, wide) == dense_ga_act(x, wide)
        zero = Tensor(d, k, [0] * d**k)
        assert ga_act(x, zero) == zero
        assert ga_act(GroupAlgebraElement.zero(k), t) == zero
    for sigma in itertools.permutations(range(k)):
        t = _random_fractional_tensor(d, k, rng)
        assert ga_act(slot_permutation(sigma), t) == scatter_permute_slots(t, sigma)


def test_ga_act_on_nine_letters_matches_dense_oracle():
    # one weight block of 120 words among 9^5 entries: the block operator
    # builds one matrix per shape of letter counts, not one map per permutation
    x = higher_lie_idempotent((5,))
    t = basis_tensor(9, (1, 2, 3, 4, 5))
    assert ga_act(x, t) == dense_ga_act(x, t)


@pytest.mark.parametrize("k", [3, 4])
def test_ga_act_at_four_letters_matches_dense_sum(k):
    # at d = 4 blocks such as {1,2,2,3} and {1,1,2,3} share a shape with tied
    # counts, so most blocks read their matrix through a relabelling that
    # reorders letters
    rng = Random(4000 + k)
    cases = [_random_element(k, rng, count) for count in (1, 3, 24)]
    cases += [higher_lie_idempotent(lam) for lam in partitions(k)]
    for x in cases:
        t = _random_fractional_tensor(4, k, rng)
        assert ga_act(x, t) == dense_ga_act(x, t)


def test_operator_rank_at_four_letters_matches_dense_rank():
    rng = Random(43)
    cases = [higher_lie_idempotent(lam) for lam in partitions(3)]
    cases += [_random_element(3, rng, count) for count in (1, 2, 4)]
    for x in cases:
        assert operator_rank(x, 4) == dense_operator_rank(x, 4)


def test_sparse_element_on_seven_slots_matches_dense_oracle():
    # one term among 7! permutations: the block gathers are built only for
    # the element's support, not for every permutation of each pattern
    x = slot_permutation((1, 2, 3, 4, 5, 6, 0), Fraction(-3, 2))
    t = _random_fractional_tensor(3, 7, Random(7))
    assert ga_act(x, t) == dense_ga_act(x, t)


def plain_layers(matrices, table, values):
    """Each layer's block matrices applied one dot product per row: the
    products that the packed kernel replaces.  ``matrices`` holds each
    shape's rows per layer, in the order of the block table ``table``."""
    outputs = [[0] * len(values) for _ in matrices[0]]
    for layers, (_, blocks) in zip(matrices, table.values()):
        for out, rows in zip(outputs, layers):
            for block in blocks:
                local = [values[i] for i in block]
                for i, row in zip(block, rows):
                    out[i] = sum(map(operator.mul, row, local))
    return outputs


def packed_layers(matrices, table, values):
    """The packed kernel on ``matrices`` over ``table``, at the slot widths
    it picks itself, each layer's outputs as a list."""
    stack = group_algebra._stack(matrices, table)
    return [list(out) for out in group_algebra._apply_stacked(stack, values)]


@st.composite
def stacked_operators(draw):
    """1-3 layers of block matrices over a block table of 1-4 letter
    patterns, each pattern with 1-3 blocks of 1-4 places, the places a
    shuffle of the indices, and a vector; entries are small or up to 2^70
    in size, and some blocks of the vector are zero."""
    entries = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
    sizes = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=4))
    places = draw(st.permutations(range(sum(b * count for b, count in sizes))))
    values = draw(st.lists(entries, min_size=len(places), max_size=len(places)))
    layers = draw(st.integers(1, 3))
    matrices, table, start = [], {}, 0
    for pattern, (b, count) in enumerate(sizes):
        blocks = [tuple(places[start + i * b : start + (i + 1) * b]) for i in range(count)]
        start += b * count
        for block in blocks:
            if draw(st.booleans()):
                for i in block:
                    values[i] = 0
        table[pattern] = ((), blocks)
        matrix = st.lists(st.lists(entries, min_size=b, max_size=b), min_size=b, max_size=b)
        matrices.append([tuple(map(tuple, draw(matrix))) for _ in range(layers)])
    return matrices, table, values


def solve_built_case(d, k, digits):
    """The matrices that the solve backend builds at (d, k), over its block
    table, and a vector with entries of ``digits`` digits: 20 digits take
    one dot product per row."""
    rng = Random(100 * d + 10 * k + digits)
    values = [rng.randrange(-(10**digits), 10**digits) for _ in range(d**k)]
    matrices = [[rows for _, rows in shape] for shape in free_lie._solve_blocks(d, k)]
    return matrices, weight_patterns(d, k), values


@settings(deadline=None, max_examples=200)
@given(stacked_operators())
@example(solve_built_case(2, 4, 1))
@example(solve_built_case(3, 4, 1))
@example(solve_built_case(3, 4, 20))
@example(solve_built_case(2, 6, 1))
@example(solve_built_case(2, 6, 20))
def test_packed_kernel_matches_plain_dot_products(case):
    assert packed_layers(*case) == plain_layers(*case)


@pytest.mark.parametrize("width", [8, 16, 32, 64, 128])
def test_packed_kernel_at_the_slot_limits(width):
    top = 2 ** (width - 1)
    # outputs up to 2^(W-1) - 1 in size fit W bits; 2^(W-1) takes the next
    # width, whole bytes above 64 bits
    wider = 2 * width if width < 64 else width + 8
    for x, w in ((top - 1, width), (1 - top, width), (top, wider), (-top, wider)):
        assert slot_width(abs(x).bit_length() + 1) == w
    # neighbouring slots of opposite signs, at the limit of their width
    one, plus, minus = {(1,): ((), [(0,)])}, ((1,),), ((-1,),)
    for x in (top - 1, 1 - top, top, -top, 0):
        assert packed_layers([[plus, minus, plus]], one, [x]) == [[x], [-x], [x]]
    diagonal, matrix = {(1, 1): ((), [(0, 1), (2, 3)])}, [[((1, 0), (0, -1))]]
    for xs in ([top - 1, top - 1, 0, 0], [1 - top, top - 1, top - 1, 1 - top], [-top, top, 1, -1]):
        assert packed_layers(matrix, diagonal, xs) == plain_layers(matrix, diagonal, xs)
    if width <= 64:
        # the most negative slot value fits W bits in two's complement
        stack = group_algebra._stack([[plus]], one)
        packed = group_algebra._pack(stack, width)
        assert read_slots(group_algebra._pass(packed, [-top]), width) == [-top]


CONSTRUCTIONS = [group_algebra._closed_form_blocks, free_lie._solve_blocks]


@pytest.mark.parametrize("construction", CONSTRUCTIONS, ids=["closed-form", "solve"])
def test_projector_stack_is_packed_at_most_once_per_width(construction):
    # a fresh stack, so that its packings are the ones made here
    group_algebra._projector_stack.cache_clear()
    stack = group_algebra._projector_stack(construction, 3, 4)
    rng = Random(34)
    used = []
    for size, width in ((1, 8), (10**2, 16), (10**6, 32), (10**12, 64), (10**20, 80)):
        assert slot_width((stack.bound * size).bit_length() + 1) == width
        t = Tensor(3, 4, [size] + [rng.randint(-size, size) for _ in range(80)])
        graded_projections(t, construction)
        if width <= 64:
            used.append(width)
        assert sorted(stack.packed) == used and len(stack.packed) <= 4
        packings = dict(stack.packed)
        graded_projections(t, construction)
        assert group_algebra._projector_stack(construction, 3, 4) is stack
        assert stack.packed.keys() == packings.keys()
        assert all(stack.packed[w] is packings[w] for w in used)


def test_packed_kernel_on_zero_and_one_place_blocks():
    table = {(1,): ((), [(0,), (1,)]), (2,): ((), [(2, 3)])}
    five, zero = ((5,),), ((0, 0), (0, 0))
    assert packed_layers([[five], [zero]], table, [0, 0, 0, 0]) == [[0, 0, 0, 0]]
    assert packed_layers([[five, five], [zero, zero]], table, [3, 0, 7, -7]) == [[15, 0, 0, 0]] * 2
    # d = 1: one word, one block of one place, so each layer of a stack
    # holds one output and reads it from its own slot, on both constructions
    # and on both the packed pass and the per-row path
    for k in range(1, K_MAX + 1):
        for x in (Fraction(3, 2), Fraction(-(10**30) - 1, 7)):
            t = Tensor(1, k, [x])
            want = {lam: t if lam == (1,) * k else Tensor(1, k, [0]) for lam in partitions(k)}
            assert graded_projections(t) == graded_projections(t, free_lie._solve_blocks) == want


@pytest.mark.parametrize("d,k", [(2, 4), (3, 4), (2, 5)])
def test_wide_inputs_read_each_layer_out_per_row(d, k):
    # an input over 2^55 takes one dot product per row on both constructions;
    # the components are those of the small input, scaled
    rng = Random(10 * d + k)
    small = Tensor(d, k, [rng.randint(-5, 5) for _ in range(d**k)])
    wide = small.scale(2**60 + 1)
    stack = group_algebra._projector_stack(group_algebra._closed_form_blocks, d, k)
    assert slot_width((stack.bound * max(map(abs, wide.nums))).bit_length() + 1) > 64
    for method in ("idempotent", "solve"):
        parts = free_lie.thrall_decompose(small, method)
        assert free_lie.thrall_decompose(wide, method) == {
            lam: t.scale(2**60 + 1) for lam, t in parts.items()
        }


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_operator_image_matches_basis_tensor_images(d, k):
    # the images of every basis tensor through the dense slot action, in word
    # order, zero images left out; the projectors share one block matrix
    # between blocks
    rng = Random(2000 * d + k)
    cases = [_random_element(k, rng, count) for count in (1, 3, 24)]
    cases += [GroupAlgebraElement.zero(k)]
    cases += [higher_lie_idempotent(lam) for lam in partitions(k) if k]
    for x in cases:
        want = [
            dense_ga_act(x, basis_tensor(d, w))
            for w in itertools.product(range(1, d + 1), repeat=k)
        ]
        assert operator_image(x, d) == [t for t in want if not t.is_zero()]


def _rank_cases(k):
    """Projectors, and Young symmetrizers scaled to idempotents (c^2 = (k!/f) c)."""
    import math

    from thrallkit.words import num_standard, standard_tableaux

    cases = [higher_lie_idempotent(lam) for lam in partitions(k)]
    for lam in partitions(k):
        for tab in standard_tableaux(lam):
            scale = Fraction(num_standard(lam), math.factorial(k))
            for y in (young_symmetrizer(tab), young_symmetrizer_transposed(tab)):
                cases.append(GroupAlgebraElement(k, {p: scale * c for p, c in y.terms.items()}))
    return cases


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_operator_rank_matches_oracles(d, k):
    # every case is idempotent, so its rank equals its trace at every d; the
    # dense row reduction is also run where it stays small
    for x in _rank_cases(k):
        rank = operator_rank(x, d)
        assert rank == _projector_trace(x, d)
        if d**k <= 27:
            assert rank == dense_operator_rank(x, d)
    x = _random_element(k, Random(d * k), 5)
    if d**k <= 27:
        assert operator_rank(x, d) == dense_operator_rank(x, d)


def test_operator_rank_is_kept_per_element_and_d(monkeypatch):
    x = higher_lie_idempotent((2, 1, 1))
    want = {2: 3, 3: 18}
    assert {d: dense_operator_rank(x, d) for d in want} == want
    for _ in range(2):
        assert {d: operator_rank(x, d) for d in want} == want

    def fail(*args):
        raise AssertionError("rebuilt a memoized rank")

    # a memoized rank runs neither the walk nor the elimination
    with monkeypatch.context() as m:
        m.setattr(group_algebra, "_block_operators", fail)
        m.setattr(group_algebra.linalg, "rank", fail)
        assert {d: operator_rank(x, d) for d in want} == want
    # an equal fresh copy computes its own rank; the memo is not a field
    copy = GroupAlgebraElement(x.k, dict(x.nums), x.den)
    assert_same_value(copy, x)
    assert {d: operator_rank(copy, d) for d in want} == want
    assert_same_value(copy, x)


def test_ga_act_keeps_its_stack_per_element_and_d(monkeypatch):
    # ga_act stacks and packs one element's block matrices once per d; a
    # repeat builds no row and packs no column
    x = _random_element(4, Random(35), 5)
    tensors = {d: _random_fractional_tensor(d, 4, Random(d)) for d in (2, 3)}
    acts = {d: ga_act(x, t) for d, t in tensors.items()}

    def fail(*args):
        raise AssertionError("rebuilt an element's stack")

    for name in ("_block_operators", "_stack", "_pack"):
        monkeypatch.setattr(group_algebra, name, fail)
    for d, t in tensors.items():
        assert ga_act(x, t) == acts[d] == dense_ga_act(x, t)
    # an equal fresh copy builds its own
    with pytest.raises(AssertionError, match="rebuilt"):
        ga_act(GroupAlgebraElement(x.k, dict(x.nums), x.den), tensors[2])


def test_ga_act_degree_mismatch():
    with pytest.raises(ValueError):
        ga_act(slot_permutation(range(3)), random_tensor(2, 2, Random(0)))


def test_young_symmetrizer_reference_elements():
    assert young_symmetrizer(tau([1, 2, 3])) == GroupAlgebraElement(
        3, {p: Fraction(1) for p in itertools.permutations(range(3))}
    )
    assert young_symmetrizer(tau([1], [2])) == GroupAlgebraElement(
        2, {(0, 1): Fraction(1), (1, 0): Fraction(-1)}
    )


def test_young_symmetrizer_transposed_is_reverse():
    # every standard tableau with k <= 5: the reverse of the row-first
    # element equals the column-first double sum
    from thrallkit.words import standard_tableaux

    count = 0
    for k in range(1, 6):
        for lam in partitions(k):
            for tab in standard_tableaux(lam):
                assert young_symmetrizer_transposed(tab) == column_first_young_symmetrizer(tab)
                count += 1
    assert count == 43


def test_young_symmetrizer_transposed_degenerate():
    assert young_symmetrizer_transposed(tau([1, 2, 3])) == young_symmetrizer(
        tau([1, 2, 3])
    )
    assert young_symmetrizer_transposed(tau([1], [2])) == young_symmetrizer(
        tau([1], [2])
    )


@pytest.mark.parametrize("d", [2, 3])
def test_young_symmetrizer_image_is_lie_cube(d):
    c = young_symmetrizer(tau([1, 3], [2]))
    image = [list(t.entries) for t in operator_image(c, d)]
    lie3 = [list(t.entries) for t in lie_basis(d, 3)]
    assert linalg.same_span(image, lie3)


@pytest.mark.parametrize("d", [2, 3])
def test_transposed_symmetrizer_image_is_isotypic_block(d):
    ct = young_symmetrizer_transposed(tau([1, 2], [3]))
    image = [list(t.entries) for t in operator_image(ct, d)]
    block = [
        list(t.entries)
        for t in operator_image(intersection_projector((2, 1), (2, 1)), d)
    ]
    assert linalg.same_span(image, block)


def test_young_symmetrizer_row_column_swap_matches_mirror_span():
    # the row-then-column element under the mirrored (reversed) action spans
    # the same subspace as the column-then-row element under the slot action
    c = young_symmetrizer(tau([1, 2], [3]))
    ct = young_symmetrizer_transposed(tau([1, 2], [3]))
    assert c.reverse() == ct
    image_rev = [list(t.entries) for t in operator_image(c.reverse(), 2)]
    want = [
        [0, 1, -1, 0, 0, 0, 0, 0],  # e112 - e211 direction appears below
    ]
    # reference span: the two tensors A x v + v x A for A the area bracket
    from thrallkit.free_lie import lyndon_bracketing
    from thrallkit.tensors import Tensor, tensor_product

    a = lyndon_bracketing((1, 2), 2)
    vecs = []
    for coords in ([1, 0], [0, 1]):
        v = Tensor.from_vector(2, coords)
        vecs.append(list((tensor_product(a, v) + tensor_product(v, a)).entries))
    assert linalg.same_span(image_rev, vecs)


def test_central_idempotent_k3():
    z = central_idempotent((2, 1))
    want = GroupAlgebraElement(
        3,
        {
            (0, 1, 2): Fraction(2, 3),
            from_cycles([[1, 2, 3]], 3): Fraction(-1, 3),
            from_cycles([[1, 3, 2]], 3): Fraction(-1, 3),
        },
    )
    assert z == want
    assert ga_multiply(z, z) == z


def test_central_idempotent_trivial_and_sign():
    k = 4
    triv = central_idempotent((k,))
    assert triv == GroupAlgebraElement(
        k,
        {p: Fraction(1, 24) for p in itertools.permutations(range(k))},
    )
    from thrallkit.permutations import sign

    sgn = central_idempotent((1,) * k)
    assert sgn == GroupAlgebraElement(
        k,
        {p: Fraction(sign(p), 24) for p in itertools.permutations(range(k))},
    )


def test_central_idempotent_is_built_once_per_partition(monkeypatch):
    first = central_idempotent((3, 1))
    # a later request, and the intersection projector, reuse that element
    monkeypatch.setattr(group_algebra, "_cycle_types", None)
    assert central_idempotent([3, 1]) is first
    assert intersection_projector((2, 1, 1), (3, 1)) == ga_multiply(
        higher_lie_idempotent((2, 1, 1)), first
    )


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_central_idempotents_resolve_identity(k):
    elements = [central_idempotent(mu) for mu in partitions(k)]
    assert fraction_ga_sum(k, elements) == slot_permutation(range(k))
    for i, z1 in enumerate(elements):
        assert ga_multiply(z1, z1) == z1
        for z2 in elements[i + 1 :]:
            assert ga_multiply(z1, z2) == GroupAlgebraElement.zero(k)


def test_central_idempotents_commute_with_group():
    k = 4
    z = central_idempotent((2, 2))
    for cyc in ([[1, 2]], [[1, 2, 3, 4]], [[2, 4]]):
        g = slot_permutation(from_cycles(cyc, k))
        assert ga_multiply(z, g) == ga_multiply(g, z)


@pytest.mark.parametrize("d,k", [(2, 5), (3, 5), (4, 4), (5, 4)])
def test_one_walk_builds_every_elements_block_matrices(d, k):
    # the projector family, a Young symmetrizer and a sparse element share one
    # walk of their supports: each element gets the matrices of its own walk,
    # and column j of a block holds the dense slot action on the basis tensor
    # at the block's place j, over the element's denominator
    elements = list(group_algebra._projector_family(k).values())
    elements.append(young_symmetrizer({4: tau([1, 3], [2, 4]), 5: tau([1, 3, 4], [2, 5])}[k]))
    elements.append(_random_element(k, Random(10 * d + k), 3))
    table = weight_patterns(d, k)
    built = list(group_algebra._block_operators(elements, d, table))
    alone = [[rows for [rows] in group_algebra._block_operators([x], d, table)] for x in elements]
    assert [list(layers) for layers in zip(*alone)] == built
    for (_, blocks), layers in zip(table.values(), built):
        for block in blocks:
            for j, v in enumerate(block):
                basis = Tensor(d, k, [int(i == v) for i in range(d**k)])
                for x, rows in zip(elements, layers):
                    column = [0] * d**k
                    for u, row in zip(block, rows):
                        column[u] = row[j]
                    assert Tensor(d, k, column, x.den) == dense_ga_act(x, basis)


def closed_form_blocks(monkeypatch, d, k):
    """The closed-form construction's matrices at (d, k), under a degree
    cap raised to k, from a family built outside its cache so that the
    raised cap leaves the caches untouched."""
    monkeypatch.setattr(group_algebra, "K_MAX", max(k, K_MAX))
    monkeypatch.setattr(group_algebra, "_projector_family", group_algebra._projector_family.__wrapped__)
    return list(group_algebra._closed_form_blocks(d, k))


def stacked_layers(stack):
    """Each shape's stacked matrix split back into each layer's rows."""
    p = stack.layers
    return [[rows[j::p] for j in range(p)] for rows in (list(zip(*columns)) for columns, _ in stack.shapes)]


def assert_lowest_terms(stack):
    """Each layer of a projector stack is in lowest terms over its denominator."""
    shapes = stacked_layers(stack)
    for j, den in enumerate(stack.dens.values()):
        assert math.gcd(den, *(x for layers in shapes for row in layers[j] for x in row)) == 1


@pytest.mark.parametrize(
    "d,k", [(d, k) for d in range(1, 10) for k in range(1, 7) if d**k <= 243 and k <= 5] + [(2, 6)]
)
def test_solve_and_closed_form_build_equal_stacks(monkeypatch, d, k):
    # the two constructions of every projector's block matrices agree as
    # rational matrices, shape by shape; each is over its own denominator
    # (the family's E_lam.den, the solve's block inverse's), so compare
    # cross-multiplied
    closed = closed_form_blocks(monkeypatch, d, k)
    solved = list(free_lie._solve_blocks(d, k))
    assert len(closed) == len(solved) == len(weight_patterns(d, k))
    for closed_shape, solved_shape in zip(closed, solved):
        assert len(closed_shape) == len(solved_shape) == len(partitions(k))
        for (closed_den, closed_rows), (den, rows) in zip(closed_shape, solved_shape):
            assert [[x * closed_den for x in row] for row in rows] == [
                [x * den for x in row] for row in closed_rows
            ]
    # the one lowest-terms step makes equal integer stacks of them, outside
    # the stack cache, so that the raised cap leaves it untouched
    stacks = [group_algebra._projector_stack.__wrapped__(lambda d, k, m=m: m, d, k) for m in (closed, solved)]
    assert list(stacks[0].dens.items()) == list(stacks[1].dens.items())
    assert stacks[0].shapes == stacks[1].shapes
    assert_lowest_terms(stacks[0])


@pytest.mark.parametrize("d,k", [(1, 3), (2, 3), (2, 4), (3, 4), (2, 5), (3, 5), (4, 4), (4, 5)])
def test_closed_form_and_solve_stacks_are_equal_integer_fields(d, k):
    # each cached stack holds its construction's matrices over the lcm of
    # their reduced denominators, in lowest terms, so the two stacks agree
    # as integers, not only as rationals
    stacks = [group_algebra._projector_stack(c, d, k) for c in CONSTRUCTIONS]
    for construction, stack in zip(CONSTRUCTIONS, stacks):
        assert list(stack.dens) == list(partitions(k))
        assert_lowest_terms(stack)
        for layers, built in zip(stacked_layers(stack), construction(d, k), strict=True):
            for rows, den, (built_den, built_rows) in zip(layers, stack.dens.values(), built, strict=True):
                assert [[x * built_den for x in row] for row in rows] == [
                    [x * den for x in row] for row in built_rows
                ]
    closed, solved = stacks
    assert list(closed.dens.items()) == list(solved.dens.items())
    assert closed.shapes == solved.shapes
    assert (closed.layers, closed.bound) == (solved.layers, solved.bound)


def test_repeated_graded_projections_build_neither_construction_again(monkeypatch):
    t = random_tensor(3, 4, Random(38))
    first = [graded_projections(t, c) for c in CONSTRUCTIONS]

    def fail(*args):
        raise AssertionError("built a construction again")

    for module, name in ((group_algebra, "_projector_family"), (group_algebra, "_block_operators"),
                         (free_lie, "_w_basis"), (free_lie, "_compose")):
        monkeypatch.setattr(module, name, fail)
    assert [graded_projections(t, c) for c in CONSTRUCTIONS] == first
    assert [free_lie.thrall_decompose(t, method) for method in ("idempotent", "solve")] == first


@pytest.mark.parametrize("d,ell", [(2, 2), (3, 1), (5, 1)])
def test_balanced_projections_build_only_the_balanced_shape(monkeypatch, d, ell):
    # one walk of the one shape; each lam's rows are over E_lam.den, so they
    # are the closed-form stack's rows at that shape scaled by lam's factor
    k, balanced = d * ell, (ell,) * d
    index = list(weight_patterns(d, k)).index(balanced)
    stack = group_algebra._projector_stack(group_algebra._closed_form_blocks, d, k)
    want = stacked_layers(stack)[index]
    walk, asked = group_algebra._block_operators, []

    def recorded(elements, d, shapes):
        asked.append(list(shapes))
        return walk(elements, d, asked[-1])

    monkeypatch.setattr(group_algebra, "_block_operators", recorded)
    got = group_algebra.balanced_projections(d, ell)
    assert asked == [[balanced]]
    assert [lam for lam, _ in got] == list(stack.dens) == list(partitions(k))
    for (lam, rows), stacked, den in zip(got, want, stack.dens.values()):
        scale = higher_lie_idempotent(lam).den
        assert [[x * den for x in row] for row in rows] == [[x * scale for x in row] for row in stacked]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_projector_family_matches_solve_oracle(k):
    oracle = solve_lie_idempotents(k)
    for lam in partitions(k):
        assert higher_lie_idempotent(lam) == oracle[lam]


def test_higher_lie_idempotents_k3_reference():
    assert higher_lie_idempotent((3,)) == _element(3, E3_REFERENCE)
    assert higher_lie_idempotent((2, 1)) == _element(3, E21_REFERENCE)
    assert higher_lie_idempotent((1, 1, 1)) == _element(3, E111_REFERENCE)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_higher_lie_idempotents_orthogonal_resolution(k):
    elements = {lam: higher_lie_idempotent(lam) for lam in partitions(k)}
    for lam, e in elements.items():
        assert ga_multiply(e, e) == e
        for mu, f in elements.items():
            if mu != lam:
                assert ga_multiply(e, f) == GroupAlgebraElement.zero(k)
    assert fraction_ga_sum(k, elements.values()) == slot_permutation(range(k))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_projector_action_on_graded_bases(k):
    # with d = k, sampled graded basis vectors are fixed by their own
    # projector and killed by the others
    rng = Random(100 + k)
    for lam in partitions(k):
        e_lam = higher_lie_idempotent(lam)
        basis = dense_w_lambda_basis(lam, k)
        sample = basis if k <= 3 else rng.sample(basis, min(3, len(basis)))
        for vec in sample:
            assert ga_act(e_lam, vec) == vec
        for mu in partitions(k):
            if mu == lam:
                continue
            others = dense_w_lambda_basis(mu, k)
            sample = others if k <= 3 else rng.sample(others, min(2, len(others)))
            for vec in sample:
                assert ga_act(e_lam, vec).is_zero()


def test_intersection_projector_reference_elements():
    assert intersection_projector((2, 1), (1, 1, 1)) == _element(3, E21_1_REFERENCE)
    assert intersection_projector((2, 1), (2, 1)) == _element(3, E21_2_REFERENCE)
    assert intersection_projector((3,), (3,)) == GroupAlgebraElement.zero(3)


def test_intersection_projector_is_built_once_per_pair(monkeypatch):
    pairs = [(lam, mu) for k in range(1, 5) for lam in partitions(k) for mu in partitions(k)]
    for lam, mu in pairs:
        want = ga_multiply(higher_lie_idempotent(lam), central_idempotent(mu))
        assert intersection_projector(lam, mu) == want
    first = intersection_projector((2, 1, 1), (3, 1))
    calls = []
    monkeypatch.setattr(group_algebra, "ga_multiply", lambda *args: calls.append(args))
    assert intersection_projector([2, 1, 1], [3, 1]) is first
    for lam, mu in pairs:
        intersection_projector(lam, mu)
    assert calls == []
    # above the degree cap nothing is cached: every call raises
    for _ in range(3):
        with pytest.raises(ResourceLimitError):
            intersection_projector((6,), (6,))


def test_intersection_projector_idempotent_and_central_commutes():
    for lam, mu in [((2, 1), (2, 1)), ((3, 1), (2, 1, 1)), ((2, 2), (2, 2))]:
        p = intersection_projector(lam, mu)
        assert ga_multiply(p, p) == p
        other = ga_multiply(central_idempotent(mu), higher_lie_idempotent(lam))
        assert p == other


def _projector_trace(x, d):
    # trace of a permutation operator on the k-fold power is d^(cycle count);
    # for an idempotent the trace equals the rank
    from thrallkit.permutations import cycle_type

    return sum(c * d ** len(cycle_type(p)) for p, c in x.terms.items())


@pytest.mark.parametrize("k", [2, 3, 4])
def test_intersection_projector_ranks_match_multiplicities(k):
    for lam in partitions(k):
        coeffs = thrall_coefficients(lam)
        for mu in partitions(k):
            expected = coeffs.get(mu, 0) * schur_dim(mu, k)
            proj = intersection_projector(lam, mu)
            assert ga_multiply(proj, proj) == proj
            if k <= 3:
                assert operator_rank(proj, k) == expected
            assert _projector_trace(proj, k) == expected


def test_intersection_projector_matrix_rank_spot_check_k4():
    proj = intersection_projector((2, 2), (2, 2))
    assert operator_rank(proj, 4) == thrall_coefficients((2, 2))[(2, 2)] * schur_dim(
        (2, 2), 4
    )


def test_resource_guard():
    with pytest.raises(ResourceLimitError):
        higher_lie_idempotent((K_MAX + 1,))
    with pytest.raises(ResourceLimitError):
        intersection_projector((6,), (6,))


def test_graded_projections_check_the_cap_before_any_table(monkeypatch):
    def fail(*args):
        raise AssertionError("built before the degree cap was checked")

    monkeypatch.setattr(group_algebra, "partitions", fail)
    monkeypatch.setattr(group_algebra, "all_permutations", fail)
    for k in (K_MAX + 1, 40):
        with pytest.raises(ResourceLimitError):
            graded_projections(basis_tensor(1, (1,) * k))


def test_higher_lie_idempotents_k5():
    elements = {lam: higher_lie_idempotent(lam) for lam in partitions(5)}
    for e in elements.values():
        assert ga_multiply(e, e) == e
    assert fraction_ga_sum(5, elements.values()) == slot_permutation(range(5))
    for vec in dense_w_lambda_basis((3, 2), 3):
        assert ga_act(elements[(3, 2)], vec) == vec
        assert ga_act(elements[(2, 2, 1)], vec).is_zero()


def test_young_symmetrizer_scalar_idempotency():
    # c^2 = (k! / f^shape) c, the classical normalization scalar
    import math

    from thrallkit.words import num_standard

    for rows in ([[1, 2], [3]], [[1, 3], [2]], [[1, 2, 3], [4]], [[1, 3], [2, 4]]):
        tab = tau(*rows)
        c = young_symmetrizer(tab)
        k = tab.size
        scalar = Fraction(math.factorial(k), num_standard(tab.shape))
        ct = young_symmetrizer_transposed(tab)
        for y in (c, ct):
            assert ga_multiply(y, y).terms == {p: scalar * v for p, v in y.terms.items()}


def test_degree5_invariant_grading():
    # full degree-5 run: the sign functional projects entirely into the
    # (2,2,1) graded piece
    from thrallkit.invariants import path_invariants

    table = path_invariants(5, 1)
    for lam, basis in table.items():
        assert len(basis) == (1 if lam == (2, 2, 1) else 0)
    beta = table[(2, 2, 1)][0]
    from thrallkit.permutations import sign

    assert len(beta.terms) == 120
    assert all(c == sign(word_to_perm(w)) for w, c in beta.terms.items())


def _descent_family(k):
    """Length-graded projector sums from descent counts (independent oracle).

    The coefficient of sigma in the degree-j piece is the t^j coefficient of
    binom(t - d + k - 1, k) where d counts descents of sigma's inverse
    one-line word (the inverse matches this module's slot-side action).
    """
    import math

    from thrallkit.permutations import inverse

    out = {j: {} for j in range(1, k + 1)}
    for p in itertools.permutations(range(k)):
        q = inverse(p)
        d = sum(1 for i in range(k - 1) if q[i] > q[i + 1])
        poly = [Fraction(1)]
        for i in range(k):
            c = Fraction(k - 1 - d - i)
            new = [Fraction(0)] * (len(poly) + 1)
            for idx, a in enumerate(poly):
                new[idx + 1] += a
                new[idx] += a * c
            poly = new
        for j in range(1, k + 1):
            coef = poly[j] / math.factorial(k)
            if coef:
                out[j][p] = coef
    return {j: GroupAlgebraElement(k, terms) for j, terms in out.items()}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_projector_length_sums_match_descent_construction(k):
    family = _descent_family(k)
    for j in range(1, k + 1):
        pieces = [higher_lie_idempotent(lam) for lam in partitions(k) if len(lam) == j]
        assert fraction_ga_sum(k, pieces) == family[j]


def test_projector_length_sums_match_descent_construction_k5():
    family = _descent_family(5)
    for j in range(1, 6):
        pieces = [higher_lie_idempotent(lam) for lam in partitions(5) if len(lam) == j]
        assert fraction_ga_sum(5, pieces) == family[j]


def test_verify_refinement():
    whole = higher_lie_idempotent((2, 1))
    parts = [
        intersection_projector((2, 1), (1, 1, 1)),
        intersection_projector((2, 1), (2, 1)),
    ]
    assert verify_refinement(parts, whole)
    # dropping a part breaks the sum; a non-idempotent part is rejected
    assert not verify_refinement(parts[:1], whole)
    double = GroupAlgebraElement(3, {p: 2 * n for p, n in whole.nums.items()}, whole.den)
    assert not verify_refinement([double], double)
    # sum matches but the halves are neither idempotent nor orthogonal
    half = GroupAlgebraElement(3, whole.nums, whole.den * 2)
    assert not verify_refinement([half, half], whole)
