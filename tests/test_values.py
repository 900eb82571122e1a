"""The value classes: equality and hashing on their fields, the repr, no
assignment or deletion, memos outside the fields, and read-only mappings in
the answers that caches hand out."""

import copy
import json
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from test_invariants import _table_plain
from thrallkit.free_lie import LieElement
from thrallkit.group_algebra import GroupAlgebraElement, higher_lie_idempotent, operator_rank
from thrallkit.invariants import path_invariants
from thrallkit.rank_variety import (
    FlsReport,
    PullbackReport,
    RankOneResult,
    SymmetryCascadeReport,
    fls_check,
)
from thrallkit.reference_suite import CheckResult
from thrallkit.shuffle_sig import PiecewiseLinearPath, WordFunctional, log_signature, signature
from thrallkit.symfun import SymFun, lie_character
from thrallkit.tensors import Tensor, TensorSeries
from thrallkit.words import YoungTableau, standard_tableaux

# Each class: one value built two ways, and a reader that fills a memo in the
# first one's instance dict (or None).  The tensor and its Fractions, the
# projector with its rank and a fresh copy, and the path with its signature
# are the memos that the tensor, rank and signature tests fill.
CASES = {
    "Tensor": (
        lambda: Tensor(2, 1, (Fraction(1, 2), 1)),
        lambda: Tensor._built(2, 1, (2, 4), 4),
        lambda x: x.entries,
    ),
    "TensorSeries": (
        lambda: TensorSeries(1, (Tensor(1, 0, (1,)), Tensor(1, 1, (Fraction(-2, 3),)))),
        lambda: TensorSeries.from_levels(1, 1, {0: Tensor(1, 0, (1,)), 1: Tensor(1, 1, (-4,), 6)}),
        None,
    ),
    "GroupAlgebraElement": (
        lambda: higher_lie_idempotent((2, 1)),
        lambda: GroupAlgebraElement(3, dict(higher_lie_idempotent((2, 1)).nums), 2),
        lambda x: (x.terms, operator_rank(x, 2)),
    ),
    "LieElement": (
        lambda: LieElement(2, 2, {(1,): 1, (1, 2): Fraction(1, 3)}),
        lambda: LieElement._built(2, 2, {(1,): Fraction(1), (1, 2): Fraction(2, 6)}),
        None,
    ),
    "WordFunctional": (
        lambda: WordFunctional(2, {(1, 2): Fraction(1, 2), (2,): 3}),
        lambda: WordFunctional(2, {(1, 2): Fraction(2, 4), (1,): 0, (2,): 3}),
        None,
    ),
    "PiecewiseLinearPath": (
        lambda: PiecewiseLinearPath.from_lists([[0, 0], [1, 2], [Fraction(3, 2), 0]]),
        lambda: PiecewiseLinearPath(2, ((0, 0), (1, Fraction(4, 2)), (Fraction(3, 2), 0))),
        lambda x: (signature(x, 4), log_signature(x, 3)),
    ),
    "SymFun": (
        lambda: SymFun(2, {(2,): 1, (1, 1): 3}, 2),
        lambda: SymFun._built(2, {(2,): 2, (1, 1): 6}, 4),
        None,
    ),
    "YoungTableau": (
        lambda: YoungTableau(((1, 2), (3,))),
        lambda: standard_tableaux((2, 1))[0],
        None,
    ),
    "RankOneResult": (
        lambda: RankOneResult(True, ((Fraction(1, 2), 1), (1, Fraction(-1, 3)))),
        lambda: RankOneResult(is_rank_one=True, factors=((Fraction(1, 2), 1), (1, Fraction(-1, 3)))),
        None,
    ),
    "SymmetryCascadeReport": (
        lambda: SymmetryCascadeReport(True, True, None, True),
        lambda: SymmetryCascadeReport(
            hypothesis_level_symmetric=True, higher_parts_vanish=True,
            lower_levels_symmetric=None, passed=True,
        ),
        None,
    ),
    "FlsReport": (
        lambda: FlsReport(True, True, True, True, True),
        lambda: fls_check(PiecewiseLinearPath.from_lists([[0, 0], [1, 2], [2, 4]]), 3),
        None,
    ),
    "PullbackReport": (
        lambda: PullbackReport(False, Fraction(3, 2), 4, {"tuple": ["1", "0"]}),
        lambda: PullbackReport(False, Fraction(3, 2), samples=4, counterexample={"tuple": ["1", "0"]}),
        None,
    ),
    "CheckResult": (
        lambda: CheckResult("lie_dim", True, "ok"),
        lambda: CheckResult(name="lie_dim", passed=True, detail="ok"),
        None,
    ),
}

# The repr of each case's first value as the frozen dataclasses printed it:
# the decorator that replaced them keeps the text.
DATACLASS_REPR = {
    "Tensor": "Tensor(d=2, k=1, nums=(1, 2), den=2)",
    "TensorSeries": "TensorSeries(d=1, levels=(Tensor(d=1, k=0, nums=(1,), den=1), "
    "Tensor(d=1, k=1, nums=(-2,), den=3)))",
    "GroupAlgebraElement": "GroupAlgebraElement(k=3, nums={(0, 1, 2): 1, (2, 1, 0): -1}, den=2)",
    "LieElement": "LieElement(d=2, k_max=2, coeffs={(1,): Fraction(1, 1), (1, 2): Fraction(1, 3)})",
    "WordFunctional": "WordFunctional(d=2, terms={(1, 2): Fraction(1, 2), (2,): Fraction(3, 1)})",
    "PiecewiseLinearPath": "PiecewiseLinearPath(d=2, points=((Fraction(0, 1), Fraction(0, 1)), "
    "(Fraction(1, 1), Fraction(2, 1)), (Fraction(3, 2), Fraction(0, 1))))",
    "SymFun": "SymFun(degree=2, nums={(2,): 1, (1, 1): 3}, den=2)",
    "YoungTableau": "YoungTableau(rows=((1, 2), (3,)))",
    "RankOneResult": "RankOneResult(is_rank_one=True, factors=((Fraction(1, 2), 1), (1, Fraction(-1, 3))))",
    "SymmetryCascadeReport": "SymmetryCascadeReport(hypothesis_level_symmetric=True, "
    "higher_parts_vanish=True, lower_levels_symmetric=None, passed=True)",
    "FlsReport": "FlsReport(criterion_a=True, criterion_b=True, criterion_c=True, consistent=True, "
    "is_segment=True)",
    "PullbackReport": "PullbackReport(passed=False, constant=Fraction(3, 2), samples=4, "
    "counterexample={'tuple': ['1', '0']})",
    "CheckResult": "CheckResult(name='lie_dim', passed=True, detail='ok')",
}
# Fields held as read-only mappings, which print as mappingproxy({...}) where
# the dataclasses printed a bare dict.
READ_ONLY = {
    "GroupAlgebraElement": "nums", "LieElement": "coeffs", "WordFunctional": "terms", "SymFun": "nums",
}
# Classes with a mapping field (a dict in the report) cannot be hashed.
UNHASHABLE = set(READ_ONLY) | {"PullbackReport"}


def assert_same_value(x, y):
    """``x`` and ``y`` are one value: equal both ways, with one repr, and
    with one hash where the class hashes."""
    assert x == y and y == x and not x != y
    assert repr(x) == repr(y)
    if type(x).__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) and len({x, y}) == 1


def _expected_repr(name, value):
    expected = DATACLASS_REPR[name]
    if name in READ_ONLY:
        field = READ_ONLY[name]
        bare = f"{field}={dict(getattr(value, field))!r}"
        assert bare in expected
        expected = expected.replace(bare, f"{field}=mappingproxy({dict(getattr(value, field))!r})")
    return expected


@pytest.mark.parametrize("name", CASES)
def test_value_contract(name):
    build, build_other, fill = CASES[name]
    x, y = build(), build_other()
    assert type(x).__name__ == name and type(y) is type(x)
    assert_same_value(x, y)
    assert repr(x) == _expected_repr(name, x)
    fields = list(type(x).__annotations__)
    before = [getattr(x, f) for f in fields]
    for field, value in zip(fields, before):
        with pytest.raises(AttributeError):
            setattr(x, field, value)
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert [getattr(x, f) for f in fields] == before
    # a memo in the instance dict is seen by neither equality, hashing nor the repr
    if fill is None:
        vars(x)["_memo"] = object()
    else:
        fill(x)
    assert len(vars(x)) > len(fields)
    assert_same_value(x, y)
    assert repr(x) == _expected_repr(name, x)
    assert x != object() and not x == repr(x)


def _signature_with_its_log():
    """A path's signature series, with the log that log_signature leaves on it."""
    path = PiecewiseLinearPath.from_lists([[0, 0], [1, 2], [Fraction(3, 2), 0]])
    series = signature(path, 3)
    log_signature(path, 3)
    assert len(vars(series)) > len(TensorSeries.__annotations__)
    return series


@pytest.mark.parametrize("name", [*CASES, "TensorSeries with its log"])
def test_values_survive_pickle_and_deepcopy(name):
    build, _, fill = CASES.get(name, (_signature_with_its_log, None, None))
    x = build()
    if fill is not None:
        fill(x)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert_same_value(pickle.loads(pickle.dumps(x, protocol)), x)
    y = copy.deepcopy(x)
    assert_same_value(y, x)
    # a rebuilt value carries no memo, and its mappings stay read-only
    assert len(vars(y)) == len(type(x).__annotations__)
    if name in READ_ONLY:
        with pytest.raises(TypeError):
            getattr(y, READ_ONLY[name])["key"] = 1


def test_value_init_takes_the_fields_once():
    with pytest.raises(TypeError):
        CheckResult("x", True)
    with pytest.raises(TypeError):
        CheckResult("x", True, "ok", "extra")
    with pytest.raises(TypeError):
        CheckResult("x", True, "ok", name="y")
    with pytest.raises(TypeError):
        CheckResult("x", True, details="ok")
    assert RankOneResult(False) == RankOneResult(False, None)


def test_cached_answers_are_read_only():
    golden = json.loads((Path(__file__).parent / "data" / "invariants_d2_ell2.out").read_text())
    beta = path_invariants(2, 2)[(2, 2)][0]
    projector = higher_lie_idempotent((2,))
    character = lie_character(3)
    with pytest.raises(TypeError):
        beta.terms[next(iter(beta.terms))] = 99
    for mapping in (projector.nums, projector.terms, character.nums):
        with pytest.raises(TypeError):
            mapping[next(iter(mapping))] = 99
        with pytest.raises(AttributeError):  # a read-only mapping has no clear()
            mapping.clear()
    assert _table_plain(path_invariants(2, 2)) == golden
    assert higher_lie_idempotent((2,)) == GroupAlgebraElement(
        2, {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}
    )
    assert lie_character(3) == SymFun(3, {(1, 1, 1): 1, (3,): -1}, 3)
