"""Curated regression checks against hard-coded reference values.

Every check reproduces a concrete number, coefficient table, or subspace
identity that the library must get exactly right; the CLI exposes the suite
as ``thrallkit paper-suite``.  Checks return (passed, detail).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random

from . import linalg
from .free_lie import (
    LieElement,
    exp_truncated,
    f_lambda,
    lie_basis,
    lyndon_bracketing,
    phi_k,
    random_lie_element,
)
from .group_algebra import (
    GroupAlgebraElement,
    ga_act,
    ga_multiply,
    higher_lie_idempotent,
    intersection_projector,
    operator_image,
    young_symmetrizer,
    young_symmetrizer_transposed,
)
from .invariants import (
    alternating_signature,
    lie_invariant_dimension,
    path_invariants,
    sl_invariant_space,
)
from .permutations import from_cycles
from .rank_variety import (
    generic_rank_lower_bound,
    hdet_pullback_check,
    is_rank_one,
    skew_plus_rank_one_rank,
    symmetric_level_implies_segment,
)
from .shuffle_sig import (
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
from .symfun import lie_character, plethysm_h, schur_expand, thrall_coefficients
from .tensors import Tensor, is_symmetric, symmetrize
from .words import YoungTableau, lie_dim, lyndon_words, partition_union, partitions, standard_tableaux
from .words import value_type


@value_type
class CheckResult:
    name: str
    passed: bool
    detail: str


def _element(k: int, data: dict[str, tuple[int, int]]) -> GroupAlgebraElement:
    terms = {}
    for cycles_str, (num, den) in data.items():
        chunks = [] if cycles_str == "id" else cycles_str.strip("()").split(")(")
        terms[from_cycles([list(map(int, c)) for c in chunks], k)] = Fraction(num, den)
    return GroupAlgebraElement(k, terms)


E3_REFERENCE = {
    "id": (1, 3), "(12)": (-1, 6), "(23)": (-1, 6),
    "(123)": (-1, 6), "(132)": (-1, 6), "(13)": (1, 3),
}
E21_REFERENCE = {"id": (1, 2), "(13)": (-1, 2)}
# the published display drops the 1/6; idempotency and the unit-sum identity
# force it, so the normalized element is the reference here
E111_REFERENCE = {
    "id": (1, 6), "(12)": (1, 6), "(13)": (1, 6),
    "(23)": (1, 6), "(123)": (1, 6), "(132)": (1, 6),
}
E21_1_REFERENCE = {
    "id": (1, 6), "(12)": (-1, 6), "(23)": (-1, 6),
    "(123)": (1, 6), "(132)": (1, 6), "(13)": (-1, 6),
}
E21_2_REFERENCE = {
    "id": (1, 3), "(12)": (1, 6), "(23)": (1, 6),
    "(123)": (-1, 6), "(132)": (-1, 6), "(13)": (-1, 3),
}


def check_lyndon_words_and_dims() -> tuple[bool, str]:
    words = [w for k in (1, 2, 3) for w in lyndon_words(2, k)]
    expected = [(1,), (2,), (1, 2), (1, 1, 2), (1, 2, 2)]
    dims = [lie_dim(2, k) for k in (1, 2, 3)]
    ok = words == expected and dims == [2, 1, 2]
    return ok, f"words={words}, dims={dims}"


def check_lie_dim_formula() -> tuple[bool, str]:
    ok = all(lie_dim(d, 3) == (d**3 - d) // 3 for d in range(1, 6))
    ok = ok and lie_dim(3, 3) == 8
    return ok, "dim of degree-3 piece is (d^3 - d)/3"


def check_partition_union() -> tuple[bool, str]:
    got = partition_union((3, 2, 1), (2, 2))
    return got == (3, 2, 2, 2, 1), f"(3,2,1) u (2,2) = {got}"


def check_standard_tableaux() -> tuple[bool, str]:
    tabs = {t.rows for t in standard_tableaux((2, 1))}
    ok = tabs == {((1, 2), (3,)), ((1, 3), (2,))}
    return ok, f"{sorted(tabs)}"


def check_idempotents_k3() -> tuple[bool, str]:
    ok = (
        higher_lie_idempotent((3,)) == _element(3, E3_REFERENCE)
        and higher_lie_idempotent((2, 1)) == _element(3, E21_REFERENCE)
        and higher_lie_idempotent((1, 1, 1)) == _element(3, E111_REFERENCE)
    )
    return ok, "degree-3 projector coefficients"


def check_idempotent_square() -> tuple[bool, str]:
    e3 = higher_lie_idempotent((3,))
    return ga_multiply(e3, e3) == e3, "E(3)^2 = E(3)"


def check_projector_action_on_lie() -> tuple[bool, str]:
    ok = True
    for d in (2, 3):
        t = lyndon_bracketing((1, 1, 2), d)
        ok = ok and ga_act(higher_lie_idempotent((3,)), t) == t
        ok = ok and ga_act(higher_lie_idempotent((2, 1)), t).is_zero()
        ok = ok and ga_act(higher_lie_idempotent((1, 1, 1)), t).is_zero()
    return ok, "degree-3 Lie tensors are fixed by their projector only"


def check_intersection_projectors() -> tuple[bool, str]:
    ok = (
        intersection_projector((2, 1), (1, 1, 1)) == _element(3, E21_1_REFERENCE)
        and intersection_projector((2, 1), (2, 1)) == _element(3, E21_2_REFERENCE)
        and intersection_projector((3,), (3,)) == GroupAlgebraElement.zero(3)
    )
    return ok, "refined degree-3 projectors"


def check_symmetrizer_images() -> tuple[bool, str]:
    tab_c = YoungTableau(((1, 3), (2,)))
    tab_ct = YoungTableau(((1, 2), (3,)))
    ok = True
    for d in (2, 3):
        image_c = [list(t.nums) for t in operator_image(young_symmetrizer(tab_c), d)]
        lie3 = [list(t.nums) for t in lie_basis(d, 3)]
        ok = ok and linalg.same_span(image_c, lie3)
        image_ct = [
            list(t.nums)
            for t in operator_image(young_symmetrizer_transposed(tab_ct), d)
        ]
        iso = [
            list(t.nums)
            for t in operator_image(intersection_projector((2, 1), (2, 1)), d)
        ]
        ok = ok and linalg.same_span(image_ct, iso)
    return ok, "tableau images match graded subspaces for d = 2, 3"


def check_full_symmetrizer() -> tuple[bool, str]:
    tab = YoungTableau(((1, 2, 3),))
    total = GroupAlgebraElement(3, dict.fromkeys(itertools.permutations(range(3)), 1), 1)
    return young_symmetrizer(tab) == total, "single-row tableau gives the full sum"


def check_lie_character_expansion() -> tuple[bool, str]:
    got = schur_expand(lie_character(3))
    return got == {(2, 1): Fraction(1)}, f"degree 3: {got}"


def check_higher_lie_21() -> tuple[bool, str]:
    from .symfun import higher_lie_character

    got = schur_expand(higher_lie_character((2, 1)))
    want = {(2, 1): Fraction(1), (1, 1, 1): Fraction(1)}
    return got == want, f"(2,1): {got}"


def check_sym2_wedge2() -> tuple[bool, str]:
    got = schur_expand(plethysm_h(2, lie_character(2)))
    want = {(2, 2): Fraction(1), (1, 1, 1, 1): Fraction(1)}
    return got == want, f"h_2 of the degree-2 character: {got}"


def check_thrall_41() -> tuple[bool, str]:
    got = thrall_coefficients((4, 1)).get((3, 1, 1), 0)
    return got == 2, f"multiplicity at (3,1,1) inside (4,1): {got}"


def check_thrall_k3_table() -> tuple[bool, str]:
    table = {lam: thrall_coefficients(lam) for lam in partitions(3)}
    want = {
        (3,): {(2, 1): 1},
        (2, 1): {(2, 1): 1, (1, 1, 1): 1},
        (1, 1, 1): {(3,): 1},
    }
    return table == want, f"{table}"


def check_multiplicity_free_small() -> tuple[bool, str]:
    ok = all(
        a in (0, 1)
        for k in range(1, 5)
        for lam in partitions(k)
        for a in thrall_coefficients(lam).values()
    )
    return ok, "all degree <= 4 multiplicities lie in {0, 1}"


def check_phi_maps() -> tuple[bool, str]:
    rng = Random(11)
    element = random_lie_element(2, 3, rng)
    v = element.level(1)
    a = element.level(2)
    lie3_part = element.level(3)
    sixth = Fraction(1, 6)
    from .tensors import tensor_product

    want_111 = tensor_product(tensor_product(v, v), v).scale(sixth)
    want_21 = (tensor_product(a, v) + tensor_product(v, a)).scale(Fraction(1, 2))
    ok = (
        f_lambda(element, (1, 1, 1)) == want_111
        and f_lambda(element, (2, 1)) == want_21
        and f_lambda(element, (3,)) == lie3_part
        and phi_k(element, 3) == want_111 + want_21 + lie3_part
        and phi_k(element, 2)
        == tensor_product(v, v).scale(Fraction(1, 2)) + a
    )
    return ok, "degree-3 exponential level splits as stated"


def check_shuffle_12_34() -> tuple[bool, str]:
    got = shuffle_words((1, 2), (3, 4), 4)
    want = WordFunctional(
        4,
        {
            (1, 2, 3, 4): 1, (1, 3, 2, 4): 1, (1, 3, 4, 2): 1,
            (3, 1, 2, 4): 1, (3, 1, 4, 2): 1, (3, 4, 1, 2): 1,
        },
    )
    return got == want, "12 shuffled with 34 has the six reference terms"


def check_levy_shuffle_square() -> tuple[bool, str]:
    levy = levy_functional()
    square = shuffle_functionals(levy, levy)
    beta22 = WordFunctional(
        2,
        {
            (1, 1, 2, 2): Fraction(1, 4), (1, 2, 2, 1): Fraction(-1, 4),
            (2, 1, 1, 2): Fraction(-1, 4), (2, 2, 1, 1): Fraction(1, 4),
        },
    )
    return square == beta22.scale(4), "the square of the area functional"


def check_group_like_exponentials() -> tuple[bool, str]:
    rng = Random(23)
    ok = all(
        is_group_like(exp_truncated(random_lie_element(2, 4, rng).to_series(4)))
        for _ in range(3)
    )
    return ok, "exponentials satisfy the product identity"


def check_isotypic_basis() -> tuple[bool, str]:
    basis = sl_invariant_space(2, 4)
    span = [[b.terms.get(w, Fraction(0)) for w in _words24()] for b in basis]
    ref1 = WordFunctional(2, {(1, 2, 1, 2): 1, (1, 2, 2, 1): -1, (2, 1, 1, 2): -1, (2, 1, 2, 1): 1})
    ref2 = WordFunctional(2, {(1, 1, 2, 2): 1, (1, 2, 2, 1): -1, (2, 1, 1, 2): -1, (2, 2, 1, 1): 1})
    ok = len(basis) == 2
    for ref in (ref1, ref2):
        vec = [ref.terms.get(w, Fraction(0)) for w in _words24()]
        ok = ok and linalg.in_span(span, vec)
    return ok, f"invariant space at (d, k) = (2, 4) has dim {len(basis)}"


def _words24():
    from .words import all_words

    return all_words(2, 4)


BETA_22 = WordFunctional(
    2, {(1, 1, 2, 2): 1, (1, 2, 2, 1): -1, (2, 1, 1, 2): -1, (2, 2, 1, 1): 1}
)
BETA_31 = WordFunctional(
    2,
    {
        (1, 1, 2, 2): -2, (1, 2, 1, 2): 1, (1, 2, 2, 1): 1,
        (2, 1, 1, 2): 1, (2, 1, 2, 1): 1, (2, 2, 1, 1): -2,
    },
)


def _proportional(beta: WordFunctional, gamma: WordFunctional) -> bool:
    if set(beta.terms) != set(gamma.terms):
        return False
    ratios = {gamma.terms[w] / c for w, c in beta.terms.items()}
    return len(ratios) == 1


def check_path_invariants_22() -> tuple[bool, str]:
    table = path_invariants(2, 2)
    ok = True
    for lam, basis in table.items():
        if lam == (2, 2):
            ok = ok and len(basis) == 1 and _proportional(basis[0], BETA_22)
        elif lam == (3, 1):
            ok = ok and len(basis) == 1 and _proportional(basis[0], BETA_31)
        else:
            ok = ok and basis == []
    return ok, "unique invariants in the (2,2) and (3,1) graded pieces"


def check_levy_recovered() -> tuple[bool, str]:
    basis = sl_invariant_space(2, 2)
    ok = len(basis) == 1 and _proportional(basis[0], levy_functional())
    return ok, "degree-2 invariant is the area functional up to scale"


def check_alternating_signature() -> tuple[bool, str]:
    t = Tensor.from_dict(2, 2, {(1, 2): Fraction(3), (2, 1): Fraction(-1)})
    ok = alternating_signature(t) == Fraction(4)
    sym = symmetrize(Tensor.from_dict(3, 3, {(1, 2, 3): Fraction(5)}))
    ok = ok and alternating_signature(sym) == 0
    return ok, "plane case is T_12 - T_21; symmetric tensors vanish"


def check_lie_invariant_vanishing() -> tuple[bool, str]:
    dims = {
        (3, 1): lie_invariant_dimension(3, 1),
        (2, 2): lie_invariant_dimension(2, 2),
        (3, 2): lie_invariant_dimension(3, 2),
        (2, 3): lie_invariant_dimension(2, 3),
    }
    ok = dims[(3, 1)] == 0 and dims[(2, 2)] == 0 and dims[(3, 2)] == 0 and dims[(2, 3)] > 0
    return ok, f"dims: {dims}"


def check_segment_log_signature() -> tuple[bool, str]:
    seg = PiecewiseLinearPath.from_lists([[0, 0], [3, 2]])
    log = log_signature(seg, 4)
    ok = all(log.level(i).is_zero() for i in range(2, 5))
    ok = ok and log.level(1) == Tensor.from_vector(2, [3, 2])
    return ok, "a segment's log-signature stops at degree 1"


def check_staircase_signature() -> tuple[bool, str]:
    stair = PiecewiseLinearPath.from_lists([[0, 0], [1, 0], [1, 1]])
    sig = signature(stair, 2)
    level2 = sig.level(2)
    ok = (
        level2[(1, 1)] == Fraction(1, 2)
        and level2[(1, 2)] == 1
        and level2[(2, 1)] == 0
        and level2[(2, 2)] == Fraction(1, 2)
        and levy_area(sig) == Fraction(1, 2)
    )
    return ok, "axis staircase level-2 signature"


def check_rank_symmetry_equivalence() -> tuple[bool, str]:
    rng = Random(5)
    ok = True
    for d, k in ((2, 3), (3, 3), (2, 4)):
        for _ in range(3):
            t = phi_k(random_lie_element(d, k, rng), k)
            if t.is_zero():
                continue
            ok = ok and (is_symmetric(t) == bool(is_rank_one(t)))
    # a pure segment level is both
    v = LieElement(2, 3, {(1,): Fraction(2), (2,): Fraction(1)})
    t = phi_k(v, 3)
    ok = ok and is_symmetric(t) and bool(is_rank_one(t))
    return ok, "symmetry and rank one coincide on exponential levels"


def check_symmetric_cascade() -> tuple[bool, str]:
    segment = LieElement(2, 3, {(1,): 2, (2,): 1}).to_series(3)
    bent = LieElement(2, 3, {(1,): 1, (1, 2): 1}).to_series(3)
    report = symmetric_level_implies_segment(segment, 3)
    ok = report.hypothesis_level_symmetric and report.passed
    ok = ok and not symmetric_level_implies_segment(bent, 3).hypothesis_level_symmetric
    return ok, "a symmetric level 3 forces a segment; a bent series is not symmetric there"


def check_skew_rank_corollary() -> tuple[bool, str]:
    a = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    x = [0, 0, 1]
    ok = skew_plus_rank_one_rank(a, x) == 3
    full = [[0, 1], [-1, 0]]
    ok = ok and skew_plus_rank_one_rank(full, [5, 7]) == 2
    return ok, "odd-dimension bump and even-dimension stability"


def check_generic_rank_bound() -> tuple[bool, str]:
    want = {(2, 4): 0, (3, 5): 4, (3, 6): 8, (4, 3): 1, (74, 3): 612}
    table = {(d, k): generic_rank_lower_bound(d, k) for d, k in want}
    return table == want, f"bounds at (d, k): {table}"


def check_hdet_pullback() -> tuple[bool, str]:
    report = hdet_pullback_check(seed=2024, samples=20)
    return (
        report.passed and report.constant == Fraction(1, 3),
        f"constant {report.constant}",
    )


ALL_CHECKS = [
    ("lyndon-words-and-dims", check_lyndon_words_and_dims),
    ("lie-dim-formula", check_lie_dim_formula),
    ("partition-union", check_partition_union),
    ("standard-tableaux", check_standard_tableaux),
    ("idempotents-k3", check_idempotents_k3),
    ("idempotent-square", check_idempotent_square),
    ("projector-action-on-lie", check_projector_action_on_lie),
    ("intersection-projectors", check_intersection_projectors),
    ("symmetrizer-images", check_symmetrizer_images),
    ("full-symmetrizer", check_full_symmetrizer),
    ("lie-character-expansion", check_lie_character_expansion),
    ("higher-lie-21", check_higher_lie_21),
    ("sym2-wedge2", check_sym2_wedge2),
    ("thrall-41", check_thrall_41),
    ("thrall-k3-table", check_thrall_k3_table),
    ("multiplicity-free-small", check_multiplicity_free_small),
    ("phi-maps", check_phi_maps),
    ("shuffle-12-34", check_shuffle_12_34),
    ("levy-shuffle-square", check_levy_shuffle_square),
    ("group-like-exponentials", check_group_like_exponentials),
    ("isotypic-basis", check_isotypic_basis),
    ("path-invariants-22", check_path_invariants_22),
    ("levy-recovered", check_levy_recovered),
    ("alternating-signature", check_alternating_signature),
    ("lie-invariant-vanishing", check_lie_invariant_vanishing),
    ("segment-log-signature", check_segment_log_signature),
    ("staircase-signature", check_staircase_signature),
    ("rank-symmetry-equivalence", check_rank_symmetry_equivalence),
    ("symmetric-cascade", check_symmetric_cascade),
    ("skew-rank-corollary", check_skew_rank_corollary),
    ("generic-rank-bound", check_generic_rank_bound),
    ("hdet-pullback", check_hdet_pullback),
]


def run_reference_checks() -> list[CheckResult]:
    """Run every check in order; a crash is a failure with the error as detail."""
    results = []
    for name, func in ALL_CHECKS:
        try:
            passed, detail = func()
        except Exception as exc:
            results.append(CheckResult(name, False, f"error: {exc}"))
        else:
            results.append(CheckResult(name, passed, detail))
    return results
