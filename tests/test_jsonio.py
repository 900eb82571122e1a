from fractions import Fraction
from random import Random

import pytest

from thrallkit import jsonio
from thrallkit.group_algebra import higher_lie_idempotent
from thrallkit.jsonio import FormatError
from thrallkit.shuffle_sig import PiecewiseLinearPath, WordFunctional, signature
from thrallkit.tensors import Tensor

from oracles import random_tensor


def test_fraction_strings():
    assert jsonio.format_fraction(Fraction(3, 4)) == "3/4"
    assert jsonio.format_fraction(Fraction(-5)) == "-5"
    assert jsonio._parse_fraction("7/2", "x") == Fraction(7, 2)
    assert jsonio._parse_fraction(4, "x") == Fraction(4)
    with pytest.raises(FormatError) as exc:
        jsonio._parse_fraction("1/0", "entries.11")
    assert "entries.11" in str(exc.value)
    with pytest.raises(FormatError):
        jsonio._parse_fraction(1.5, "x")


def test_tensor_roundtrip():
    t = random_tensor(2, 3, Random(50))
    obj = jsonio.tensor_to_json(t)
    assert obj["d"] == 2 and obj["k"] == 3
    assert jsonio.tensor_from_json(obj) == t
    sparse = jsonio.tensor_to_json(Tensor.from_dict(2, 2, {(1, 2): Fraction(1, 3)}))
    assert sparse["entries"] == {"12": "1/3"}


def test_wire_alphabet_capped_at_nine_letters():
    assert jsonio.check_wire_dimension(9, "d") == 9
    readers = [
        lambda d: jsonio.tensor_from_json({"d": d, "k": 1, "entries": {}}),
        lambda d: jsonio.series_from_json({"d": d, "k_max": 0, "levels": [{"": "1"}]}),
        lambda d: jsonio.path_from_json({"d": d, "points": [["0"] * d]}),
    ]
    for read in readers:
        read(9)
        for d in (0, 10):
            with pytest.raises(FormatError) as exc:
                read(d)
            assert exc.value.field.endswith(".d")


def test_tensor_errors_name_fields():
    with pytest.raises(FormatError) as exc:
        jsonio.tensor_from_json({"d": 2, "entries": {}})
    assert "tensor.k" in str(exc.value)
    with pytest.raises(FormatError) as exc:
        jsonio.tensor_from_json({"d": 2, "k": 2, "entries": {"123": "1"}})
    assert "entries.123" in str(exc.value)
    with pytest.raises(FormatError) as exc:
        jsonio.tensor_from_json({"d": 2, "k": 2, "entries": {"13": "1"}})
    assert "entries.13" in str(exc.value)


def test_series_roundtrip():
    path = PiecewiseLinearPath.from_lists([[0, 0], [1, 0], [1, 1]])
    series = signature(path, 3)
    obj = jsonio.series_to_json(series)
    assert jsonio.series_from_json(obj) == series
    with pytest.raises(FormatError):
        jsonio.series_from_json({"d": 2, "k_max": 2, "levels": [{}]})


def test_group_element_to_json():
    element = higher_lie_idempotent((2, 1))
    assert jsonio.group_element_to_json(element) == {
        "k": 3, "terms": [{"cycles": [], "coeff": "1/2"}, {"cycles": [[1, 3]], "coeff": "-1/2"}]
    }


def test_functional_to_json():
    beta = WordFunctional(2, {(2, 1): Fraction(1, 2), (1, 2): Fraction(-1, 2)})
    assert jsonio.functional_to_json(beta, grading=(2,)) == {
        "terms": {"12": "-1/2", "21": "1/2"}, "grading": [2]
    }
    assert jsonio.functional_to_json(beta) == {"terms": {"12": "-1/2", "21": "1/2"}}


def test_path_from_json():
    path = PiecewiseLinearPath.from_lists([[0, 0], ["1/2", 1]])
    assert jsonio.path_from_json({"d": 2, "points": [["0", 0], ["1/2", "1"]]}) == path
    with pytest.raises(FormatError) as exc:
        jsonio.path_from_json({"d": 2, "points": [["1", "x"]]})
    assert "points[0][1]" in str(exc.value)


def test_partition_parsing():
    assert jsonio.parse_partition("3,1,1") == (3, 1, 1)
    assert jsonio.parse_partition("") == ()
    assert jsonio.format_partition((2, 1)) == "2,1"
    with pytest.raises(FormatError):
        jsonio.parse_partition("1,2")
    with pytest.raises(FormatError):
        jsonio.parse_partition("a,b")
