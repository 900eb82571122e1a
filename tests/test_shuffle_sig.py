import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thrallkit import free_lie, jsonio, shuffle_sig, tensors
from thrallkit.free_lie import exp_truncated, is_lie_element, log_truncated, random_lie_element
from thrallkit.group_algebra import K_MAX, ResourceLimitError, ga_act, higher_lie_idempotent
from thrallkit.invariants import random_unimodular_matrix
from thrallkit.rank_variety import fls_check
from thrallkit.shuffle_sig import (
    PiecewiseLinearPath,
    WordFunctional,
    is_group_like,
    levy_area,
    levy_functional,
    log_signature,
    shuffle_functionals,
    shuffle_words,
    signature,
)
from thrallkit.tensors import Tensor, TensorSeries
from thrallkit.words import all_words, check_partition, lie_dim, partition_union


from oracles import (
    basis_tensor,
    chen_numerators_reference,
    concatenate_paths,
    evaluate_on_tensor,
    fraction_act_on_functional,
    group_like_oracle,
    integration_oracle,
    longest_lyndon_prefix_by_rotations as _longest_lyndon_prefix,
    random_tensor,
    series_log,
    series_product,
    shuffle_oracle,
    unit_series,
)


word_strategy = st.lists(st.integers(1, 3), min_size=0, max_size=4).map(tuple)


@given(word_strategy, word_strategy)
@settings(max_examples=60)
@example((), ())
@example((), (2, 1))
@example((3, 3), ())
def test_shuffle_words_match_position_oracle(a, b):
    got = shuffle_words(a, b, 3)
    want = shuffle_oracle(a, b)
    assert {w: int(c) for w, c in got.terms.items()} == {
        w: c for w, c in want.items() if c
    }
    assert sum(got.terms.values()) == math.comb(len(a) + len(b), len(a))


_functionals = st.dictionaries(
    word_strategy, st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=3
).map(lambda terms: WordFunctional(3, terms))


@given(_functionals, _functionals)
@settings(max_examples=60)
def test_shuffle_functionals_match_bilinear_position_oracle(beta, gamma):
    # one map over all pairs of terms; words that cancel leave no zero term
    want: dict = {}
    for wa, ca in beta.terms.items():
        for wb, cb in gamma.terms.items():
            for w, c in shuffle_oracle(wa, wb).items():
                want[w] = want.get(w, 0) + c * ca * cb
    got = shuffle_functionals(beta, gamma)
    assert got.terms == {w: c for w, c in want.items() if c}
    assert all(got.terms.values())


def test_shuffle_reference_expansions():
    got = shuffle_words((1, 2), (3, 4), 4)
    assert {w: int(c) for w, c in got.terms.items()} == {
        (1, 2, 3, 4): 1, (1, 3, 2, 4): 1, (1, 3, 4, 2): 1,
        (3, 1, 2, 4): 1, (3, 1, 4, 2): 1, (3, 4, 1, 2): 1,
    }
    assert shuffle_words((1,), (2,), 2).terms == {
        (1, 2): Fraction(1), (2, 1): Fraction(1)
    }
    assert shuffle_words((1,), (1,), 1).terms == {(1, 1): Fraction(2)}


def test_shuffle_functionals_unit_and_commutativity():
    rng = Random(21)
    unit = WordFunctional(2, {(): Fraction(1)})

    def rand_functional():
        words = [w for k in (1, 2) for w in all_words(2, k)]
        return WordFunctional(
            2, {w: Fraction(rng.randint(-3, 3)) for w in rng.sample(words, 3)}
        )

    for _ in range(5):
        beta, gamma = rand_functional(), rand_functional()
        assert shuffle_functionals(beta, unit) == beta
        assert shuffle_functionals(beta, gamma) == shuffle_functionals(gamma, beta)


def test_levy_shuffle_square_is_four_beta22():
    levy = levy_functional()
    square = shuffle_functionals(levy, levy)
    want = WordFunctional(
        2,
        {
            (1, 1, 2, 2): Fraction(1), (1, 2, 2, 1): Fraction(-1),
            (2, 1, 1, 2): Fraction(-1), (2, 2, 1, 1): Fraction(1),
        },
    )
    assert square == want  # = 4 * (reference quarter-sum invariant)


def test_group_like_exponentials_and_counterexample():
    rng = Random(22)
    for _ in range(5):
        series = exp_truncated(random_lie_element(2, 4, rng).to_series(4))
        assert is_group_like(series)
    bad = TensorSeries.from_levels(
        2, 3, {0: Tensor.scalar(2, 1), 2: basis_tensor(2, (1, 2))}
    )
    assert not is_group_like(bad)
    assert is_group_like(unit_series(2, 3))
    with pytest.raises(ValueError):
        is_group_like(TensorSeries.from_levels(2, 2, {}))


# is_group_like's two routes, each case run on both: the recurrence for L,
# and the walks of a known log, which log_signature leaves on a path's
# signature.  On the second, a corrupted series gets its own log as
# log_signature would leave it, so the walks decide every case.
ROUTES = ["recurrence", "known log"]


def _path_signature(points, k_max, route):
    path = PiecewiseLinearPath.from_lists(points)
    sig = signature(path, k_max)
    if route == "known log":
        log_signature(path, k_max)
        assert len(vars(sig)["_log_levels"]) == k_max + 1
    return sig


def _on_route(series, route):
    if route == "known log":
        vars(series)["_log_levels"] = log_truncated(series).levels
    return series


def test_group_like_matches_oracle_on_signatures_and_corruptions():
    for route in ROUTES:
        rng = Random(28)
        for d, k_max in [(2, 5), (3, 4), (1, 4)]:
            for _ in range(3):
                points = [
                    [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
                    for _ in range(4)
                ]
                sig = _path_signature(points, k_max, route)
                assert is_group_like(sig) and group_like_oracle(sig)
                # one entry of one level moved by a small rational
                levels = list(sig.levels)
                k = rng.randint(1, k_max)
                entries = list(levels[k].entries)
                entries[rng.randrange(len(entries))] += Fraction(1, rng.randint(1, 3))
                levels[k] = Tensor(d, k, tuple(entries))
                bad = _on_route(TensorSeries(d, tuple(levels)), route)
                assert is_group_like(bad) == group_like_oracle(bad)
                if k == k_max:  # the top level only ever sits on the shuffle side
                    assert not is_group_like(bad)


def _with_level(series, k, tensor):
    levels = list(series.levels)
    levels[k] = tensor
    return TensorSeries(series.d, tuple(levels))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(0, 5), st.integers(0, 2**32))
def test_group_like_matches_all_pairs_oracle(d, k_max, seed):
    for route in ROUTES:
        rng = Random(seed)
        points = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d)]
            for _ in range(rng.randint(1, 4))
        ]
        sig = _path_signature(points, k_max, route)
        assert is_group_like(sig) and group_like_oracle(sig)
        for k in range(1, k_max + 1):
            # one entry of level k moved by a small rational
            entries = list(sig.level(k).entries)
            entries[rng.randrange(len(entries))] += Fraction(rng.choice([-1, 1]), rng.randint(1, 3))
            bad = _on_route(_with_level(sig, k, Tensor(d, k, tuple(entries))), route)
            assert is_group_like(bad) == group_like_oracle(bad)
            # a Lie element of degree k added at level k: group-like at the top
            # level, where exp(x + y) = exp(x) + y, and generally not below it
            lie = random_lie_element(d, k, rng).level(k)
            moved = _on_route(_with_level(sig, k, sig.level(k) + lie), route)
            assert is_group_like(moved) == group_like_oracle(moved)
            if k == k_max:
                assert is_group_like(moved)


def test_group_like_walks_the_known_log_alone(monkeypatch):
    """A path's signature with the log that log_signature left on it hands
    each log level 2..K, its own numerators, to the Lie test and forms no
    L_n; a lower truncation and a series read back from JSON have no known
    log, and run the recurrence."""
    seen = []
    lie = free_lie.is_lie_numerators
    monkeypatch.setattr(free_lie, "is_lie_numerators", lambda nums, d, k: seen.append((nums, k)) or lie(nums, d, k))

    def fail(*args):
        raise AssertionError("the log of a one-direction path ran the general route")

    # a bent path, then a collinear one: its closed-form log is left on the
    # series that signature made, with no power series run
    for points in ([[0, 0, 0], [1, 2, 0], [3, 1, -1], [2, -1, 2]], [[0, 0], [1, 2], [-2, -4], [3, 6]]):
        path = PiecewiseLinearPath.from_lists(points)
        sig = signature(path, 4)
        assert sig is signature(path, 4)
        # a log below the series' truncation is kept, but does not decide it
        low = log_signature(path, 2)
        assert is_group_like(sig) and not any(nums is low.level(2).nums for nums, _ in seen)
        log = log_signature(path, 4)
        seen.clear()
        assert is_group_like(sig)
        assert [k for _, k in seen] == [2, 3, 4]
        assert all(nums is log.level(k).nums for nums, k in seen)
        for other in (signature(path, 3), jsonio.series_from_json(jsonio.series_to_json(sig))):
            seen.clear()
            assert "_log_levels" not in vars(other) and is_group_like(other)
            assert [k for _, k in seen] == list(range(2, other.k_max + 1))
            assert not any(nums is log.level(k).nums for nums, k in seen)
        monkeypatch.setattr(free_lie, "_power_series", fail)


def test_group_like_at_high_levels():
    """The trivial series at the top of the entry cap, and a level-12
    signature with one entry moved at the top or in the middle."""
    assert is_group_like(TensorSeries.from_levels(2, 16, {0: Tensor.scalar(2, 1)}))
    path = PiecewiseLinearPath.from_lists([[0, 0], [1, 0], [1, 2], [-1, 3], [2, 1], [3, 3]])
    sig = signature(path, 12)
    assert is_group_like(sig)
    for k in (12, 6):
        entries = list(sig.level(k).entries)
        entries[5] += Fraction(1, 7)
        assert not is_group_like(_with_level(sig, k, Tensor(2, k, entries)))


def test_group_like_at_d_1_to_level_20000():
    """Over one letter no Lyndon word is longer than one, so every level
    n >= 2 must have L_n = 0: the trivial series passes and one nonzero
    entry at level 19,999 fails, neither walking the levels' words."""
    unit = Tensor.scalar(1, 1)
    assert is_group_like(TensorSeries.from_levels(1, 20_000, {0: unit}))
    moved = TensorSeries.from_levels(1, 20_000, {0: unit, 19_999: Tensor(1, 19_999, [1])})
    assert not is_group_like(moved)


def test_from_lists_is_the_constructor():
    points = [[1, "1/2"], [Fraction(3, 4), "-2"], ["0.25", 5]]
    path = PiecewiseLinearPath.from_lists(points)
    assert path == PiecewiseLinearPath(2, tuple(map(tuple, points)))
    assert path.points[2] == (Fraction(1, 4), Fraction(5))
    with pytest.raises(ValueError, match="at least one point"):
        PiecewiseLinearPath.from_lists([])
    with pytest.raises(ValueError, match="d coordinates"):
        PiecewiseLinearPath.from_lists([[0, 0], [1]])


@pytest.mark.parametrize("d, m", [(d, m) for d in (1, 2, 3) for m in range(2, 6)] + [(2, 7)])
def test_reduced_shuffle_equations_are_triangular(d, m):
    """For each non-Lyndon ``w = l v``, ``l`` its longest Lyndon prefix, the
    lexicographically largest word of ``l shuffle v`` is ``w``, with a positive
    coefficient; there are ``d^m`` minus the number of Lyndon words of length
    ``m`` of them, so with the coordinates at the Lyndon words they form a
    triangular basis of the dual of level ``m`` (Radford 1979)."""
    equations = 0
    for w in all_words(d, m):
        p = _longest_lyndon_prefix(w)
        if p == m:
            continue
        equations += 1
        terms = shuffle_oracle(w[:p], w[p:])
        assert max(terms) == w and terms[w] > 0
    assert equations == d**m - lie_dim(d, m)


def test_staircase_against_integration_oracle():
    stair = PiecewiseLinearPath.from_lists([[0, 0], [1, 0], [1, 1]])
    sig = signature(stair, 2)
    level2 = sig.level(2)
    assert level2[(1, 1)] == Fraction(1, 2)
    assert level2[(1, 2)] == Fraction(1)
    assert level2[(2, 1)] == Fraction(0)
    assert level2[(2, 2)] == Fraction(1, 2)
    assert sig == integration_oracle(stair, 2)


def test_signature_matches_integration_oracle_random_paths():
    rng = Random(23)
    for _ in range(4):
        points = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
            for _ in range(rng.randint(2, 4))
        ]
        path = PiecewiseLinearPath.from_lists(points)
        assert signature(path, 3) == integration_oracle(path, 3)


def test_signature_matches_integration_oracle_edge_cases():
    third, neg = Fraction(1, 3), Fraction(-5, 2)
    cases = [
        # non-integer vertices with a repeated point (zero increment)
        ([[0, 0], [third, neg], [third, neg], [1, Fraction(2, 7)]], 4),
        ([[third], [neg], [neg], [2]], 5),  # d = 1
        ([[0, 0, 0], [1, third, 0], [neg, 1, 1]], 0),
        ([[0, 0, 0], [1, third, 0], [neg, 1, 1]], 1),
        ([[0, 0, 0], [1, third, 0], [neg, 1, 1]], 2),
        ([[0, 0, 0, 0], [1, -1, 2, 0], [1, -1, 2, 0], [third, 0, 1, neg]], 4),
        ([[0, 0], [2, -1], [third, 1], [third, 1], [neg, 0]], 6),
        ([[1, 2]], 3),  # a single point
    ]
    for points, k_max in cases:
        path = PiecewiseLinearPath.from_lists(points)
        expected = integration_oracle(path, k_max)
        assert signature(path, k_max) == expected
        assert log_signature(path, k_max) == series_log(expected)
    for f in (signature, log_signature):
        with pytest.raises(ValueError):
            f(PiecewiseLinearPath.from_lists([[0, 0], [1, 1]]), -1)


fraction_strategy = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def chen_paths(draw):
    """Paths whose steps are fresh, parallel or antiparallel to the step
    before, undo the step before (so its run may sum to zero), or repeat a
    point, on fractional vertices."""
    d = draw(st.integers(1, 3))
    points = [draw(st.lists(fraction_strategy, min_size=d, max_size=d))]
    steps: list = []
    for kind in draw(st.lists(st.sampled_from(["fresh", "parallel", "undo", "repeat"]), max_size=7)):
        if kind == "fresh" or not steps:
            step = draw(st.lists(fraction_strategy, min_size=d, max_size=d))
        elif kind == "parallel":
            t = draw(fraction_strategy)
            step = [t * x for x in steps[-1]]
        elif kind == "undo":
            step = [-x for x in steps[-1]]
        else:
            step = [0] * d
        steps.append(step)
        points.append([p + x for p, x in zip(points[-1], step)])
    return PiecewiseLinearPath.from_lists(points)


def diagonal(d: int, steps) -> PiecewiseLinearPath:
    """The straight path from the origin along -(1, .., 1) in the given
    steps: one run, with |N_m| = V^m at every word."""
    points = [[0] * d]
    for t in steps:
        points.append([x - t for x in points[-1]])
    return PiecewiseLinearPath.from_lists(points)


@settings(deadline=None, max_examples=150)
@given(chen_paths(), st.integers(0, 5))
@example(diagonal(2, [1, 2, 4]), 6)  # every N_m(w) is (-7)^m
@example(diagonal(3, [2**7, 2**7 - 1]), 4)  # V = 255
@example(diagonal(1, [2**8]), 12)  # V = 256, one past a bit-length boundary
@example(diagonal(2, [2**8]), 0)
@example(PiecewiseLinearPath.from_lists([[1, 2], [3, 0], [1, 2], [1, 2]]), 4)  # a run that cancels
# the run (0, 1) cancels, and the parallel runs (1, 0) around it apply one after the other
@example(PiecewiseLinearPath.from_lists([[0, 0], [1, 0], [1, 1], [1, 0], [2, 0]]), 5)
# the steps (0, 1, 0) and (0, 0, 1) are told apart by their last 2x2 minor alone
@example(PiecewiseLinearPath.from_lists([[0, 0, 0], [0, 1, 0], [0, 1, 1], [2, 1, 1]]), 4)
# the slot need k_max (bit_length(V) + 1) + 2 at and just above 8, 16, 32 and
# 64 bits, which picks the next slot width, at d = 2 and 3; then 112 bits
@example(diagonal(2, [31]), 1)  # need 8
@example(diagonal(3, [3]), 2)  # 8
@example(diagonal(2, [32]), 1)  # 9
@example(diagonal(3, [4]), 2)  # 10
@example(diagonal(2, [63]), 2)  # 16
@example(diagonal(3, [63]), 2)  # 16
@example(diagonal(2, [15]), 3)  # 17
@example(diagonal(3, [3]), 5)  # 17
@example(diagonal(2, [511]), 3)  # 32
@example(diagonal(3, [31]), 5)  # 32
@example(diagonal(2, [127]), 4)  # 34
@example(diagonal(3, [2**29]), 1)  # 33
@example(diagonal(2, [2**29, 2**29 - 1]), 2)  # 64
@example(diagonal(3, [2**30 - 1]), 2)  # 64
@example(diagonal(2, [2**20 - 1]), 3)  # 65
@example(diagonal(3, [2**30]), 2)  # 66
@example(diagonal(2, [2**20, 5]), 5)  # 112: one from_bytes a slot
def test_chen_numerators_match_the_list_update(path, k_max):
    assert shuffle_sig._chen_numerators(path, k_max) == chen_numerators_reference(path, k_max)


def test_one_letter_signature_at_level_1000():
    points = [[Fraction(1, 3)], [Fraction(-5, 2)], [Fraction(-5, 2)], [2], [Fraction(-1, 7)]]
    sig = signature(PiecewiseLinearPath.from_lists(points), 1000)
    x = Fraction(-1, 7) - Fraction(1, 3)
    assert [level.entries for level in sig.levels] == [
        (x**m / math.factorial(m),) for m in range(1001)
    ]


def test_signature_size_cap(monkeypatch):
    wide = PiecewiseLinearPath.from_lists([[0] * 9, list(range(9))])
    for f in (signature, log_signature, fls_check):
        with pytest.raises(ResourceLimitError, match="entries"):
            f(wide, 12)
    # the cap counts 1 + d + .. + d^k_max entries, inclusive
    monkeypatch.setattr(tensors, "SIGNATURE_ENTRIES_MAX", 7)
    stair = PiecewiseLinearPath.from_lists([[0, 0], [1, 0], [1, 1]])
    assert signature(stair, 2) == integration_oracle(stair, 2)
    for f in (signature, log_signature):
        with pytest.raises(ResourceLimitError):
            f(stair, 3)


def test_signature_trivial_cases():
    v = [Fraction(3), Fraction(-2)]
    seg = PiecewiseLinearPath.from_lists([[0, 0], v])
    sig = signature(seg, 4)
    vt = Tensor.from_vector(2, v)
    power = vt
    for k in range(2, 5):
        from thrallkit.tensors import tensor_product

        power = tensor_product(power, vt)
        assert sig.level(k) == power.scale(Fraction(1, math.factorial(k)))
    constant = PiecewiseLinearPath.from_lists([[1, 1]])
    assert signature(constant, 3) == unit_series(2, 3)


def test_chen_concatenation():
    rng = Random(24)
    for _ in range(5):
        pts1 = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(3)]
        pts2 = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(3)]
        x = PiecewiseLinearPath.from_lists(pts1)
        y = PiecewiseLinearPath.from_lists(pts2)
        joined = concatenate_paths(x, y)
        assert signature(joined, 4) == series_product(signature(x, 4), signature(y, 4))


def test_log_signature_cases():
    seg = PiecewiseLinearPath.from_lists([[0, 0], [3, 2]])
    log = log_signature(seg, 4)
    assert log.level(1) == Tensor.from_vector(2, [3, 2])
    assert all(log.level(k).is_zero() for k in (2, 3, 4))

    stair = PiecewiseLinearPath.from_lists([[0, 0], [1, 0], [1, 1]])
    from thrallkit.free_lie import lyndon_bracketing

    assert log_signature(stair, 2).level(2) == lyndon_bracketing((1, 2), 2).scale(
        Fraction(1, 2)
    )

    out_and_back = PiecewiseLinearPath.from_lists([[0, 0], [2, 1], [0, 0]])
    sig = signature(out_and_back, 4)
    assert sig == unit_series(2, 4)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_direction_log_is_the_increment_alone(monkeypatch, d):
    # when every run is parallel to the first, the signature is exp(v) and
    # the log is v at level 1 and zero above: no Chen update, no power series
    rng = Random(60 + d)
    step = [rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(d)]
    other = [1] + [0] * (d - 1)
    times = ([0, 1], [0, 2, -1, 4], [Fraction(1, 2), Fraction(-5, 3), 3, 3], [1, 1], [7])
    paths = [[[t * x for x in step] for t in ts] for ts in times]
    # two runs apart, either side of one that cancels
    paths.append([[0] * d, step, [a + b for a, b in zip(step, other)], step, [2 * x for x in step]])
    expected = [[log_truncated(signature(PiecewiseLinearPath.from_lists(p), k)) for k in range(7)]
                for p in paths]

    def fail(*args):
        raise AssertionError("the log of a one-direction path ran the general route")

    monkeypatch.setattr(shuffle_sig, "_chen_numerators", fail)
    monkeypatch.setattr(free_lie, "_power_series", fail)
    for points, logs in zip(paths, expected):
        assert [log_signature(PiecewiseLinearPath.from_lists(points), k) for k in range(7)] == logs
        increment = [b - a for a, b in zip(points[0], points[-1])]
        assert logs[6].level(1) == Tensor.from_vector(d, increment)
        assert all(level.is_zero() for level in logs[6].levels[2:])


def test_log_signature_is_kept_on_the_path(monkeypatch):
    points = [[0, 0], [1, 2], [3, 1], [2, -1]]
    fresh = [log_signature(PiecewiseLinearPath.from_lists(points), k) for k in range(7)]
    path = PiecewiseLinearPath.from_lists(points)
    assert log_signature(path, 6) == fresh[6]

    def fail(*args):
        raise AssertionError("the log kernel ran again")

    # lower truncations are slices, and fls_check reads the same levels
    monkeypatch.setattr(free_lie, "_power_series", fail)
    assert [log_signature(path, k) for k in range(7)] == fresh
    assert fls_check(path, 4).consistent


def test_log_signature_levels_are_lie():
    rng = Random(25)
    for _ in range(3):
        points = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(4)]
        log = log_signature(PiecewiseLinearPath.from_lists(points), 4)
        for k in range(1, 5):
            level = log.level(k)
            assert level.is_zero() or is_lie_element(level)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_log_levels_are_the_first_eulerian_components_of_the_signature(d):
    # the Horner log and the projector family are independent: the first
    # Eulerian idempotent E_(m) (the lam = (m) graded projector) sends level m
    # of a signature to level m of its log, on lattice paths, collinear and
    # back-tracking ones among them, at every m up to the projector cap
    rng = Random(50 + d)
    paths = [
        [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(2, 6))] for _ in range(8)
    ]
    step = [rng.randint(1, 3) for _ in range(d)]
    paths += [[[t * x for x in step] for t in ts] for ts in ([0, 1, 3], [0, 2, -1, 4], [1, 1])]
    for points in paths:
        path = PiecewiseLinearPath.from_lists(points)
        sig, log = signature(path, K_MAX), log_signature(path, K_MAX)
        for m in range(1, K_MAX + 1):
            assert ga_act(higher_lie_idempotent((m,)), sig.level(m)) == log.level(m)


def test_levy_area_values():
    stair = PiecewiseLinearPath.from_lists([[0, 0], [1, 0], [1, 1]])
    assert levy_area(signature(stair, 2)) == Fraction(1, 2)
    seg = PiecewiseLinearPath.from_lists([[0, 0], [5, 7]])
    assert levy_area(signature(seg, 2)) == 0
    assert levy_area(signature(PiecewiseLinearPath(2, stair.points[::-1]), 2)) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        levy_area(signature(PiecewiseLinearPath.from_lists([[0, 0, 0], [1, 1, 1]]), 2))


def test_levy_area_invariant_under_unimodular_maps():
    rng = Random(26)
    stair = PiecewiseLinearPath.from_lists([[0, 0], [1, 0], [1, 1], [3, 2]])
    base = levy_area(signature(stair, 2))
    for _ in range(5):
        g = random_unimodular_matrix(2, rng)
        moved = PiecewiseLinearPath.from_lists(
            [[sum(g[i][j] * p[j] for j in range(2)) for i in range(2)] for p in stair.points]
        )
        assert levy_area(signature(moved, 2)) == base


def test_act_on_functional_duality():
    rng = Random(27)
    from thrallkit.group_algebra import ga_act

    x = higher_lie_idempotent((2, 2))
    for _ in range(5):
        t = random_tensor(2, 4, rng)
        beta = WordFunctional(
            2, {w: Fraction(rng.randint(-2, 2)) for w in all_words(2, 4)}
        )
        moved = fraction_act_on_functional(x, beta, 4)
        assert evaluate_on_tensor(moved, t) == evaluate_on_tensor(beta, ga_act(x, t))


def shuffle_grading_check(beta: WordFunctional, gamma: WordFunctional, lam, mu) -> bool:
    """The graded multiplication rule for the shuffle product: with beta graded
    by lam and gamma by mu (checked), whether beta shuffle gamma is graded by
    their union.  A functional is graded by lam when the lam projector fixes it."""
    lam, mu = check_partition(lam), check_partition(mu)

    def graded(functional: WordFunctional, grade) -> bool:
        if not grade:
            # degree-0 grading: constants only
            return set(functional.terms) <= {()}
        k = sum(grade)
        return fraction_act_on_functional(higher_lie_idempotent(grade), functional, k) == functional

    if not graded(beta, lam):
        raise ValueError("beta is not graded by lam")
    if not graded(gamma, mu):
        raise ValueError("gamma is not graded by mu")
    return graded(shuffle_functionals(beta, gamma), partition_union(lam, mu))


def test_shuffle_grading():
    levy = levy_functional()
    assert shuffle_grading_check(levy, levy, (2,), (2,))
    empty = WordFunctional(2, {(): Fraction(2)})
    gamma = fraction_act_on_functional(
        higher_lie_idempotent((2,)),
        WordFunctional(2, {(1, 2): Fraction(1)}),
        2,
    )
    assert shuffle_grading_check(empty, gamma, (), (2,))
    # random graded functionals of small degree
    rng = Random(28)
    for lam, mu in [((2,), (1,)), ((1, 1), (2,)), ((2, 1), (1,)), ((2,), (2,))]:
        for _ in range(2):
            beta = _random_graded(rng, lam)
            gamma = _random_graded(rng, mu)
            if beta.terms and gamma.terms:
                assert shuffle_grading_check(beta, gamma, lam, mu)
    with pytest.raises(ValueError):
        shuffle_grading_check(levy, levy, (1, 1), (2,))


def _random_graded(rng, lam):
    k = sum(lam)
    raw = WordFunctional(
        2, {w: Fraction(rng.randint(-2, 2)) for w in all_words(2, k)}
    )
    return fraction_act_on_functional(higher_lie_idempotent(lam), raw, k)


def test_path_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearPath(2, ())
    with pytest.raises(ValueError):
        PiecewiseLinearPath(2, ((Fraction(0),),))
    path = PiecewiseLinearPath.from_lists([[0, 0], [0, 0], [1, 1]])
    assert signature(path, 2) == signature(
        PiecewiseLinearPath.from_lists([[0, 0], [1, 1]]), 2
    )


def test_path_signatures_are_group_like():
    rng = Random(29)
    for d in (2, 3):
        for _ in range(3):
            points = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(4)]
            assert is_group_like(signature(PiecewiseLinearPath.from_lists(points), 4))


# one Chen update per path object: signature, log_signature and fls_check
# share the integer levels of the highest truncation computed so far

PATH_READERS = {"signature": signature, "log_signature": log_signature, "fls_check": fls_check}


def _outcome(name, path, k_max):
    try:
        return PATH_READERS[name](path, k_max)
    except ValueError as exc:
        return type(exc), str(exc)


def _fresh(path):
    return PiecewiseLinearPath(path.d, path.points)


def _check_numerators(series):
    for level in series.levels:
        assert level.den >= 1 and math.gcd(level.den, *level.nums) == 1
        rational = Tensor(level.d, level.k, level.entries)
        assert (rational.den, rational.nums) == (level.den, level.nums)


@settings(deadline=None, max_examples=80)
@given(chen_paths(), st.lists(st.tuples(st.sampled_from(sorted(PATH_READERS)), st.integers(0, 5)),
                              min_size=2, max_size=6))
@example(diagonal(2, [1, 2]), [("signature", 5), ("log_signature", 2), ("fls_check", 3)])
@example(diagonal(2, [1, 2]), [("fls_check", 1), ("log_signature", 4), ("signature", 5)])
@example(PiecewiseLinearPath.from_lists([[1, 2], [3, 0], [1, 2], [1, 2]]),
         [("log_signature", 1), ("fls_check", 4), ("signature", 0)])  # a run that cancels
def test_one_path_object_answers_like_fresh_equal_paths(path, calls):
    for name, k_max in calls:
        got = _outcome(name, path, k_max)
        assert got == _outcome(name, _fresh(path), k_max)
        if name != "fls_check":
            _check_numerators(got)


def test_memo_slices_lower_and_recomputes_higher(monkeypatch):
    calls = []
    chen = shuffle_sig._chen_numerators
    monkeypatch.setattr(shuffle_sig, "_chen_numerators", lambda p, k: calls.append((p, k)) or chen(p, k))
    path = PiecewiseLinearPath.from_lists([[0, 0], [1, Fraction(1, 2)], [2, 3], [0, 1]])
    for k_max in (3, 1, 0, 3, 5, 2, 4):
        assert signature(path, k_max) == signature(_fresh(path), k_max)
    assert [k for p, k in calls if p is path] == [3, 5]
    # the path keeps one series: itself at its top truncation, sliced below it
    assert signature(path, 5) is signature(path, 5) is vars(path)["_signature"]
    assert signature(path, 4) is not signature(path, 4)
    with pytest.raises(ValueError, match="k_max"):
        signature(path, -1)


def test_one_chen_update_per_path_for_signature_log_and_fls(monkeypatch):
    calls = []
    chen = shuffle_sig._chen_numerators
    monkeypatch.setattr(shuffle_sig, "_chen_numerators", lambda p, k: calls.append(k) or chen(p, k))
    rng = Random(31)
    for d, level in [(2, 6), (3, 4), (1, 5)]:
        path = PiecewiseLinearPath.from_lists(
            [[rng.randint(-2, 2) for _ in range(d)] for _ in range(8)] + [[9] * d]
        )
        calls.clear()
        sig = signature(path, level)
        log = log_signature(path, level)
        fls_check(path, level)
        assert calls == [level]
        assert log == log_signature(_fresh(path), level)
        assert is_group_like(sig)


def test_size_cap_still_fires_after_a_lower_call():
    wide = PiecewiseLinearPath.from_lists([[0] * 9, list(range(9)), [1] * 9])
    assert signature(wide, 2) == signature(_fresh(wide), 2)
    for f in (signature, log_signature, fls_check):
        with pytest.raises(ResourceLimitError, match="entries"):
            f(wide, 12)
    assert log_signature(wide, 1) == log_signature(_fresh(wide), 1)
