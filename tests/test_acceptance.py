"""Acceptance suite, exact arithmetic throughout.

The hard-coded reference values (projector coefficients, multiplicity
tables, the six-term shuffle, the staircase signature, the graded
invariants, ...) live once, in :mod:`thrallkit.reference_suite`, and are
checked here by one test per entry of its ``ALL_CHECKS``.  The criterion
tests add what the suite does not check: the k <= 4 projector resolution,
random group-like exponentials, unimodular invariance, the integration
oracle, minor ranks and segment equivalence.

Each criterion test prints a single `[criterion N] PASS` line on success
(visible with `pytest -s` or in the captured output summary); any failure
is a plain assertion failure.  Run with `pytest tests/test_acceptance.py -s`.
"""

import time
from fractions import Fraction
from random import Random

import pytest
from oracles import (
    check_invariance,
    concatenate_paths,
    integration_oracle,
    is_segment_equivalent,
    random_tensor,
    rank_by_minors,
    series_product,
    slot_permutation,
)

from thrallkit import linalg
from thrallkit.free_lie import (
    exp_truncated,
    lie_basis,
    random_lie_element,
    phi_k,
)
from thrallkit.group_algebra import (
    GroupAlgebraElement,
    ga_multiply,
    higher_lie_idempotent,
    intersection_projector,
    operator_image,
    young_symmetrizer,
    young_symmetrizer_transposed,
)
from thrallkit.invariants import (
    path_invariants,
    random_unimodular_matrix,
    sl_invariant_space,
)
from thrallkit.rank_variety import (
    fls_check,
    hdet_pullback_check,
    is_rank_one,
    skew_plus_rank_one_rank,
    symmetric_level_implies_segment,
)
from thrallkit.reference_suite import ALL_CHECKS
from thrallkit.shuffle_sig import PiecewiseLinearPath, is_group_like, signature
from thrallkit.symfun import lie_character, plethysm_h, schur_expand, thrall_coefficients
from thrallkit.tensors import is_symmetric
from thrallkit.words import (
    YoungTableau,
    conjugate_partition,
    num_standard,
    partitions,
)


def report(number: int, started: float, message: str) -> None:
    print(f"[criterion {number:2d}] PASS ({time.time() - started:.2f}s)  {message}")


@pytest.mark.parametrize("name, check", ALL_CHECKS, ids=[name for name, _ in ALL_CHECKS])
def test_reference_check(name, check):
    passed, detail = check()
    assert passed, f"{name}: {detail}"


def test_criterion_02_idempotent_regression():
    # the degree-3 coefficients are the reference check "idempotents-k3"
    t0 = time.time()
    # the raw unnormalized sum of all six permutations is not idempotent;
    # the 1/6 normalization is forced and is the library's answer
    raw = higher_lie_idempotent((1, 1, 1)).scale(6)
    assert ga_multiply(raw, raw) == raw.scale(6) != raw
    for k in range(1, 5):
        elements = {lam: higher_lie_idempotent(lam) for lam in partitions(k)}
        total = GroupAlgebraElement.zero(k)
        for lam, e in elements.items():
            total = total + e
            for mu, f in elements.items():
                want = e if lam == mu else GroupAlgebraElement.zero(k)
                assert ga_multiply(e, f) == want
        assert total == slot_permutation(range(k))
    report(2, t0, "the forced 1/6 normalization and the k <= 4 resolution")


def test_criterion_04_tableau_identifications():
    t0 = time.time()
    c_tab = YoungTableau(((1, 3), (2,)))
    ct_tab = YoungTableau(((1, 2), (3,)))
    for d in (2, 3):
        image = [list(t.entries) for t in operator_image(young_symmetrizer(c_tab), d)]
        lie3 = [list(t.entries) for t in lie_basis(d, 3)]
        assert linalg.same_span(image, lie3)
        image_t = [
            list(t.entries)
            for t in operator_image(young_symmetrizer_transposed(ct_tab), d)
        ]
        block = [
            list(t.entries)
            for t in operator_image(intersection_projector((2, 1), (2, 1)), d)
        ]
        assert linalg.same_span(image_t, block)
    report(4, t0, "tableau images equal the graded/isotypic subspaces, d = 2, 3")


def test_criterion_05_thrall_coefficients():
    # the degree-5 value 2, the degree-3 table and multiplicity-freeness up to
    # degree 4 are the reference checks "thrall-41", "thrall-k3-table" and
    # "multiplicity-free-small"
    t0 = time.time()
    for k in range(1, 9):
        sums: dict = {}
        for lam in partitions(k):
            for mu, a in thrall_coefficients(lam).items():
                sums[mu] = sums.get(mu, 0) + a
        assert sums == {mu: num_standard(mu) for mu in partitions(k)}
    report(5, t0, "graded multiplicities sum to the standard tableau counts, k <= 8")


def test_criterion_06_symmetric_powers_of_area():
    # the a = 2 expansion is the reference check "sym2-wedge2"
    t0 = time.time()
    for a in range(1, 5):
        for mu, coeff in schur_expand(plethysm_h(a, lie_character(2))).items():
            assert coeff == 1
            assert all(part % 2 == 0 for part in conjugate_partition(mu))
    report(6, t0, "symmetric powers of the degree-2 character stay doubled")


def test_criterion_07_shuffle_and_group_likeness():
    # the six-term shuffle is the reference check "shuffle-12-34"
    t0 = time.time()
    rng = Random(77)
    for _ in range(25):
        series = exp_truncated(random_lie_element(2, 4, rng).to_series(4))
        assert is_group_like(series)
    report(7, t0, "25 group-like exponentials")


def test_criterion_08_invariants():
    # the graded invariants, the ambient (2, 4) invariants and the area
    # functional are the reference checks "path-invariants-22",
    # "isotypic-basis" and "levy-recovered"
    t0 = time.time()
    table = path_invariants(2, 2)
    ambient = sl_invariant_space(2, 4)
    levy_basis = sl_invariant_space(2, 2)
    rng = Random(88)
    matrices = [random_unimodular_matrix(2, rng) for _ in range(20)]
    for basis in list(table.values()) + [ambient, levy_basis]:
        for beta in basis:
            k = len(next(iter(beta.terms)))
            for g in matrices:
                assert check_invariance(beta, g, random_tensor(2, k, rng))
    report(8, t0, "graded and ambient invariants stay invariant under SL(2)")


def test_criterion_10_rank_symmetry_equivalence():
    t0 = time.time()
    rng = Random(99)
    cases = 0
    while cases < 50:
        d = rng.choice((2, 3))
        k = rng.choice((3, 4))
        element = random_lie_element(d, k, rng)
        level = phi_k(element, k)
        if level.is_zero():
            continue
        assert is_symmetric(level) == bool(is_rank_one(level))
        if not element.level(1).is_zero():
            transcript = symmetric_level_implies_segment(element.to_series(k), k)
            assert transcript.passed
        cases += 1
    report(10, t0, "symmetry and rank one agree on 50 exponential levels")


def test_criterion_11_straight_line_criteria():
    t0 = time.time()
    rng = Random(111)
    collinear_count = 0
    noncollinear_count = 0
    while collinear_count + noncollinear_count < 50:
        d = rng.choice((2, 3))
        if rng.random() < 0.5:
            direction = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
            if all(x == 0 for x in direction):
                continue
            steps = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
            if sum(steps) == 0:
                steps.append(Fraction(1))
            acc = Fraction(0)
            points = [[Fraction(0)] * d]
            for step in steps:
                acc += step
                points.append([acc * x for x in direction])
            path = PiecewiseLinearPath.from_lists(points)
        else:
            points = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(4)]
            path = PiecewiseLinearPath.from_lists(points)
            if signature(path, 1).level(1).is_zero():
                continue
        result = fls_check(path, 4)
        assert result.consistent
        assert result.is_segment == is_segment_equivalent(path)
        if result.is_segment:
            collinear_count += 1
        else:
            noncollinear_count += 1
    assert collinear_count >= 10 and noncollinear_count >= 10
    report(11, t0, f"criteria coincide on {collinear_count}+{noncollinear_count} paths")


def test_criterion_12_matrix_lemma():
    t0 = time.time()
    rng = Random(122)
    for _ in range(100):
        d = rng.randint(1, 5)
        a = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                a[i][j] = Fraction(rng.randint(-3, 3))
                a[j][i] = -a[i][j]
        x = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
        m = [[a[i][j] + x[i] * x[j] for j in range(d)] for i in range(d)]
        if all(all(c == 0 for c in row) for row in m):
            continue
        assert skew_plus_rank_one_rank(a, x) == rank_by_minors(m)
    report(12, t0, "case formula matches minor-rank on 100 instances")


def test_criterion_13_hyperdeterminant_pullback():
    t0 = time.time()
    report_obj = hdet_pullback_check(seed=1234, samples=20)
    assert report_obj.passed
    assert report_obj.constant == Fraction(1, 3)
    report(13, t0, f"factorized pullback with constant {report_obj.constant}")


def test_criterion_14_signature_oracle():
    # the staircase values are the reference check "staircase-signature"
    t0 = time.time()
    stair = PiecewiseLinearPath.from_lists([[0, 0], [1, 0], [1, 1]])
    assert signature(stair, 2) == integration_oracle(stair, 2)

    rng = Random(144)
    for _ in range(25):
        pts1 = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(3)]
        pts2 = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(3)]
        x = PiecewiseLinearPath.from_lists(pts1)
        y = PiecewiseLinearPath.from_lists(pts2)
        assert signature(concatenate_paths(x, y), 4) == series_product(
            signature(x, 4), signature(y, 4)
        )
    report(14, t0, "staircase integration oracle, 25 concatenations")
