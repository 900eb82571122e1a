import contextlib
import io
import json
import math
import os
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thrallkit.cli import main
from thrallkit.jsonio import format_fraction, tensor_to_json
from thrallkit.tensors import Tensor
from thrallkit.words import partitions

from golden import DATA, EMPTY, ROWS, resolve
from golden import main as run_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_output(capsys):
    code, out, _ = run(capsys, "dims", "--d", "2", "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["lie_dims"] == {"1": 2, "2": 1, "3": 2}
    assert payload["w_dims"] == {"3": 2, "2,1": 2, "1,1,1": 4}
    assert payload["multiplicities"]["2,1"] == 2


def test_lyndon_upto(capsys):
    code, out, _ = run(capsys, "lyndon", "--d", "2", "--k", "3", "--upto")
    assert code == 0
    assert json.loads(out)["words"] == ["1", "2", "12", "112", "122"]


@pytest.mark.parametrize("k", ["0", "-2"])
@pytest.mark.parametrize("upto", [[], ["--upto"]], ids=["one-length", "upto"])
def test_lyndon_length_below_one_exits_2(capsys, k, upto):
    code, out, err = run(capsys, "lyndon", "--d", "2", "--k", k, *upto)
    assert (code, out) == (2, "") and "k >= 1" in err


def test_idempotent_text_output(capsys):
    code, out, _ = run(
        capsys, "--format", "text", "idempotent", "--k", "3", "--partition", "3"
    )
    assert code == 0
    assert "1/3" in out and "-1/6" in out
    code, out, _ = run(capsys, "idempotent", "--k", "3", "--partition", "2,1",
                       "--intersect-mu", "1,1,1")
    payload = json.loads(out)
    assert payload["k"] == 3
    assert all(t["coeff"] in ("1/6", "-1/6") for t in payload["terms"])


def test_thrall_coeffs(capsys):
    code, out, _ = run(capsys, "thrall-coeffs", "--k", "3")
    assert code == 0
    assert json.loads(out) == {
        "3": {"2,1": 1},
        "2,1": {"2,1": 1, "1,1,1": 1},
        "1,1,1": {"3": 1},
    }
    code, out, _ = run(capsys, "thrall-coeffs", "--k", "5", "--partition", "4,1")
    assert json.loads(out)["4,1"]["3,1,1"] == 2


def test_decompose_roundtrip(tmp_path, capsys):
    tensor = Tensor.from_dict(2, 3, {(1, 1, 2): 1})
    file = tmp_path / "tensor.json"
    file.write_text(json.dumps(tensor_to_json(tensor)))
    code, out, _ = run(capsys, "decompose", "--tensor", str(file))
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"3", "2,1", "1,1,1"}
    total = {}
    for part in payload.values():
        for word, value in part["entries"].items():
            total[word] = total.get(word, Fraction(0)) + Fraction(value)
    total = {w: c for w, c in total.items() if c}
    assert total == {"112": Fraction(1)}


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", "--d", "2", "--ell", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["2,2"][0]["terms"] == {
        "1122": "1", "1221": "-1", "2112": "-1", "2211": "1"
    }
    assert payload["3,1"][0]["grading"] == [3, 1]
    assert payload["4"] == []


def test_signature_command(tmp_path, capsys):
    stair = {"d": 2, "points": [[0, 0], [1, 0], [1, 1]]}
    file = tmp_path / "path.json"
    file.write_text(json.dumps(stair))
    code, out, _ = run(capsys, "signature", "--path", str(file), "--level", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["levels"][2]["12"] == "1"
    assert payload["levels"][2]["11"] == "1/2"
    code, out, _ = run(
        capsys, "signature", "--path", str(file), "--level", "2", "--log"
    )
    payload = json.loads(out)
    assert payload["levels"][2] == {"12": "1/2", "21": "-1/2"}


def test_check_exit_codes(tmp_path, capsys):
    stair = {"d": 2, "points": [[0, 0], [1, 0], [1, 1]]}
    pfile = tmp_path / "path.json"
    pfile.write_text(json.dumps(stair))
    code, out, _ = run(capsys, "check", "fls", "--input", str(pfile), "--level", "3")
    assert code == 1
    assert json.loads(out)["criterion_a"] is False

    seg = {"d": 2, "points": [[0, 0], [2, 1]]}
    sfile = tmp_path / "seg.json"
    sfile.write_text(json.dumps(seg))
    code, out, _ = run(capsys, "check", "fls", "--input", str(sfile), "--level", "3")
    assert code == 0

    tfile = tmp_path / "sym.json"
    tfile.write_text(json.dumps(tensor_to_json(Tensor.from_dict(2, 2, {(1, 2): 1, (2, 1): 1}))))
    code, out, _ = run(capsys, "check", "symmetric", "--input", str(tfile))
    assert code == 0
    code, out, _ = run(capsys, "check", "rank1", "--input", str(tfile))
    assert code == 1

    lie_file = tmp_path / "lie.json"
    lie_file.write_text(
        json.dumps(tensor_to_json(Tensor.from_dict(2, 2, {(1, 2): 1, (2, 1): -1})))
    )
    code, out, _ = run(capsys, "check", "lie", "--input", str(lie_file))
    assert code == 0


def test_check_rank1_witness(tmp_path, capsys):
    t = Tensor.from_dict(2, 2, {(1, 1): 2, (1, 2): 2, (2, 1): 1, (2, 2): 1})
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps(tensor_to_json(t)))
    code, out, _ = run(capsys, "check", "rank1", "--input", str(tfile))
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and len(payload["witness"]) == 2


def test_check_rank1_order_one_witness_is_the_vector(tmp_path, capsys):
    tfile = tmp_path / "v.json"
    tfile.write_text(json.dumps({"d": 2, "k": 1, "entries": {"1": "3", "2": "-1"}}))
    code, out, _ = run(capsys, "check", "rank1", "--input", str(tfile))
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and payload["witness"] == [["3", "-1"]]


@pytest.mark.parametrize("key", ["\u0661\u0662", "\uff11\uff12", "1\u0662"])
@pytest.mark.parametrize("command, where", [
    ("check lie --input", "tensor"), ("check group-like --input", "series.levels[2]"),
])
def test_non_ascii_digit_keys_exit_2_naming_the_field(tmp_path, capsys, key, command, where):
    # Arabic-Indic and fullwidth digits are no letters: read as digits, the
    # key would alias "12" and one of the two entries would be dropped
    entries = {"12": "1", key: "5"}
    doc = {"d": 2, "k": 2, "entries": entries}
    if where != "tensor":
        doc = {"d": 2, "k_max": 2, "levels": [{"": "1"}, {}, entries]}
    file = tmp_path / "input.json"
    file.write_text(json.dumps(doc))
    code, out, err = run(capsys, *command.split(), str(file))
    assert (code, out) == (2, "")
    assert f"field {where + '.entries.' + key!r}: word string" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["\u0661\u0662", "-\u0661\u0662", "\uff11/\uff12", "1e\u0663", "1\u2003"])
def test_non_ascii_numbers_exit_2_naming_the_field(tmp_path, capsys, value):
    # Fraction and str.isdigit read the digits of every script, so these
    # once read as 12, -12, 1/2, 1000 and 1
    cases = [
        (["check", "lie", "--input"], {"d": 2, "k": 2, "entries": {"12": value, "21": "-12"}},
         "tensor.entries.12"),
        (["signature", "--level", "1", "--path"], {"d": 2, "points": [["0", "0"], [value, "2"]]},
         "path.points[1][0]"),
    ]
    for argv, doc, field in cases:
        file = tmp_path / "input.json"
        file.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, str(file))
        assert (code, out) == (2, "")
        assert f"field {field!r}: bad rational {value!r}: numbers are written in the ASCII digits" in err


@pytest.mark.parametrize("argv, message", [
    (["idempotent", "--k", "\u0663", "--partition", "2,1"], "argument --k: invalid int value: '\u0663'"),
    (["dims", "--d", "\uff12", "--k", "3"], "argument --d: invalid int value: '\uff12'"),
    (["hdet-pullback", "--seed", "1", "--samples", "\u0662"], "argument --samples: invalid int value"),
    (["idempotent", "--k", "3", "--partition", "\u0662,\u0661"], "field 'partition': cannot parse"),
    (["idempotent", "--k", "3", "--partition", "2,1", "--intersect-mu", "\u0661,1,1"],
     "field 'intersect-mu': cannot parse"),
    (["thrall-coeffs", "--k", "3", "--partition", "\uff13"], "field 'partition': cannot parse"),
])
def test_non_ascii_integer_options_exit_2_naming_the_option(capsys, argv, message):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and message in err and "Traceback" not in err


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": 2, "k": 2, "entries": {"31": "1"}}))
    code, _, err = run(capsys, "check", "symmetric", "--input", str(bad))
    assert code == 2
    assert "entries.31" in err
    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, "check", "symmetric", "--input", str(missing))
    assert code == 2
    # a directory is no file: refused naming the path, not a traceback (exit 4)
    code, out, err = run(capsys, "decompose", "--tensor", str(tmp_path))
    assert (code, out) == (2, "")
    assert f"field 'tensor': cannot read {tmp_path}" in err and "Traceback" not in err


# each reader of an input file, as a command, with the format it reads
READERS = {
    "decompose --tensor": "tensor",
    "check group-like --input": "series",
    "signature --level 3 --path": "path",
}


@pytest.mark.parametrize("text", ["5", "null", "true", '"dk"', '["d"]'])
@pytest.mark.parametrize("command", READERS)
def test_top_level_json_that_is_not_an_object_exits_2(tmp_path, capsys, command, text):
    file = tmp_path / "input.json"
    file.write_text(text)
    code, out, err = run(capsys, *command.split(), str(file))
    assert (code, out) == (2, "")
    assert f"field {READERS[command]!r}: expected a JSON object" in err and "Traceback" not in err


# digits of other scripts, which are no letters of a word and no digits of a number
OTHER_DIGITS = "\u0661\u0662\uff11\uff12"
RATIONALS = st.integers(-2, 3) | st.sampled_from(["1/2", "-2/3"])
JUNK = st.none() | st.booleans() | st.integers(-1, 5) | st.sampled_from(
    ["", "1/0", "x", "2e3", [], "\u0661\u0662", "-\uff11/\uff12", "1e\u0663"])
VALUES = st.one_of(RATIONALS, RATIONALS, JUNK)


@st.composite
def documents(draw, fmt):
    """A small ``fmt`` object, its words over the letters 0..d (half of them
    also over ``OTHER_DIGITS``), with now and then junk in place of a value,
    a field or the whole, or a field dropped."""
    d, k = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    words = [
        st.text("0123"[: d + 1], min_size=m, max_size=m)
        | st.text("0123"[: d + 1] + OTHER_DIGITS, min_size=m, max_size=m)
        for m in range(k + 1)
    ]
    terms = [draw(st.dictionaries(word, VALUES, max_size=3)) for word in words]
    points = st.lists(st.lists(VALUES, min_size=d, max_size=d), max_size=4)
    doc = {
        "tensor": {"d": d, "k": k, "entries": terms[k]},
        "series": {"d": d, "k_max": k, "levels": [{"": 1}, *terms[1:]]},
        "path": {"d": d, "points": draw(points)},
    }[fmt]
    key = draw(st.sampled_from([None, *doc]))
    if key is not None and draw(st.booleans()):
        del doc[key]
    elif key is not None:
        doc[key] = draw(JUNK)
    return draw(JUNK) if draw(st.integers(0, 7)) == 0 else doc


FUZZED = {**READERS, "check lie --input": "tensor", "check fls --level 3 --input": "path"}


@given(case=st.sampled_from(sorted(FUZZED)).flatmap(
    lambda command: st.tuples(st.just(command), documents(FUZZED[command]))
))
@example(case=("decompose --tensor", 5))
@example(case=("check group-like --input", None))
@example(case=("check lie --input", {"d": 2, "k": 2, "entries": {"12": "1", "\u0661\u0662": "5"}}))
@example(case=("check lie --input", {"d": 2, "k": 2, "entries": {"12": "\u0661\u0662", "21": "-\u0661\u0662"}}))
@example(case=("signature --level 3 --path", {"d": 2, "points": [["0", "0"], ["\u0661", "\uff12"]]}))
@settings(max_examples=200, deadline=None)
def test_any_json_input_exits_with_a_documented_code(tmp_path_factory, case):
    command, document = case
    file = tmp_path_factory.getbasetemp() / "fuzzed_input.json"
    file.write_text(json.dumps(document))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command.split(), str(file)])
    assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue(), err.getvalue()
    assert out.getvalue() == "" or code in (0, 1)
    # every value and key of a document is read, and no other script's digit passes
    if not json.dumps(document, ensure_ascii=False).isascii():
        assert code == 2, document


# partitions that are not partitions; a drawn k adds its own partitions
BAD_PARTITIONS = ["3,0", "2,-1", "1,,2", "1,2", "", "0", "-1", ",", "x", "\u0662,\u0661", "\uff13"]
# an integer written in Arabic-Indic or fullwidth digits
OTHER_SCRIPTS = [str.maketrans("0123456789", "".join(map(chr, range(z, z + 10)))) for z in (0x660, 0xFF10)]
# sizes stay inside the commands' unbounded ranges: d <= 4 (d = 10 is refused
# before any work), k <= 8 and samples <= 50
DIMENSIONS = st.sampled_from([-1, 0, 1, 2, 3, 4, 10])
ORDERS = st.sampled_from(range(-2, 9))


@st.composite
def integer_argvs(draw, path):
    """The argv of one command with drawn integer options and partitions."""
    d, k = str(draw(DIMENSIONS)), draw(ORDERS)
    good = [",".join(map(str, lam)) for lam in partitions(max(k, 0))]
    k = str(k)
    if draw(st.integers(0, 7)) == 0:
        d, k = (x.translate(draw(st.sampled_from(OTHER_SCRIPTS))) for x in (d, k))

    def part():
        return draw(st.sampled_from(BAD_PARTITIONS) | st.sampled_from(good))

    # each argv is built only when drawn, so it draws only what it uses
    argv = draw(st.sampled_from([
        lambda: ["idempotent", "--k", k, "--partition", part(), "--intersect-mu", part()],
        lambda: ["idempotent", "--k", k, "--partition", part()],
        lambda: ["thrall-coeffs", "--k", k, "--partition", part()],
        lambda: ["thrall-coeffs", "--k", k],
        lambda: ["dims", "--d", d, "--k", k],
        lambda: ["lyndon", "--d", d, "--k", k, "--upto"],
        lambda: ["lyndon", "--d", d, "--k", k],
        lambda: ["invariants", "--d", d, "--ell", k],
        lambda: ["invariant-space", "--d", d, "--k", k],
        lambda: ["hdet-pullback", "--seed", str(draw(st.integers(-2**70, 2**70))),
                 "--samples", str(draw(st.integers(-2, 50)))],
        lambda: ["signature", "--path", path, "--level", k],
        lambda: ["signature", "--path", path, "--level", k, "--log"],
        lambda: ["check", "fls", "--input", path, "--level", k],
    ]))()
    return draw(st.sampled_from([[], ["--format", "text"]])) + argv


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_any_integer_option_exits_with_a_documented_code(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed_path.json"
    path.write_text(json.dumps({"d": 2, "points": [[0, 0], [1, 2], [3, -1]]}))
    argv = data.draw(integer_argvs(str(path)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue(), (argv, err.getvalue())
    assert out.getvalue() == "" or code in (0, 1), argv
    if not "".join(argv).isascii():
        assert code == 2, argv


@pytest.mark.parametrize("command", ["decompose --tensor", "check symmetric --input",
                                     "check rank1 --input", "check lie --input"])
def test_negative_tensor_order_exits_2(tmp_path, capsys, command):
    # d**k is a float when k < 0, so the order is refused where it is read
    file = tmp_path / "tensor.json"
    file.write_text(json.dumps({"d": 2, "k": -1, "entries": {}}))
    code, out, err = run(capsys, *command.split(), str(file))
    assert code == 2 and out == "" and "tensor.k'" in err


def test_negative_series_truncation_exits_2(tmp_path, capsys):
    file = tmp_path / "series.json"
    file.write_text(json.dumps({"d": 2, "k_max": -1, "levels": []}))
    code, out, err = run(capsys, "check", "group-like", "--input", str(file))
    assert code == 2 and out == "" and "series.k_max'" in err


def test_alphabets_beyond_nine_letters_exit_2(tmp_path, capsys):
    # with d >= 10 the words (1, 12) and (11, 2) would both print as "112"
    code, out, err = run(capsys, "lyndon", "--d", "12", "--k", "2")
    assert code == 2 and out == "" and "'d'" in err
    code, out, _ = run(capsys, "lyndon", "--d", "9", "--k", "1")
    assert code == 0 and json.loads(out)["words"] == [str(i) for i in range(1, 10)]
    wide = {"d": 10, "points": [[0] * 10, list(range(10))]}
    file = tmp_path / "wide.json"
    file.write_text(json.dumps(wide))
    code, out, err = run(capsys, "signature", "--path", str(file), "--level", "2")
    assert code == 2 and out == "" and "path.d" in err


def test_resource_guard_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "idempotent", "--k", "6", "--partition", "6")
    assert code == 3
    assert "resource guard" in err
    wide = {"d": 9, "points": [[0] * 9, list(range(9))]}
    file = tmp_path / "wide.json"
    file.write_text(json.dumps(wide))
    for argv in (["signature", "--path", str(file), "--level", "12"],
                 ["signature", "--path", str(file), "--level", "12", "--log"],
                 ["check", "fls", "--input", str(file), "--level", "12"]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "resource guard" in err


@pytest.mark.parametrize("command", ["decompose --tensor", "check symmetric --input"])
@pytest.mark.parametrize("k", [18, 30, 100])
def test_tensor_over_the_entry_cap_exits_3(tmp_path, capsys, command, k):
    # d**k entries would be allocated densely: refused as the file is read,
    # before any is, where k = 100 once overflowed the list (exit 4)
    file = tmp_path / "tensor.json"
    file.write_text(json.dumps({"d": 2, "k": k, "entries": {}}))
    code, out, err = run(capsys, *command.split(), str(file))
    assert code == 3 and out == "" and "resource guard" in err and "'tensor.k'" in err


def test_entry_cap_is_inclusive(tmp_path, capsys):
    # 2^17 = 131072 entries fit the cap of 200000 and 2^18 do not; a lone
    # tensor at d = 1 has one entry whatever its order
    for d, k in ((2, 17), (1, 10**6)):
        file = tmp_path / "tensor.json"
        file.write_text(json.dumps({"d": d, "k": k, "entries": {}}))
        code, out, _ = run(capsys, "check", "symmetric", "--input", str(file))
        assert code == 0 and json.loads(out)["passed"]


@pytest.mark.parametrize("d,k_max,code", [(2, 16, 2), (2, 17, 3), (2, 100, 3), (1, 200_000, 3)])
def test_series_over_the_entry_cap_exits_3(tmp_path, capsys, d, k_max, code):
    # a series is held to the cap over all its levels, 1 + d + .. + d^k_max,
    # as a signature is: 131071 entries pass the cap (and the zero series
    # then exits 2 for its level 0), 262143 do not, nor 200001 one-entry
    # levels at d = 1
    file = tmp_path / "series.json"
    file.write_text(json.dumps({"d": d, "k_max": k_max, "levels": [{}] * (k_max + 1)}))
    got, out, err = run(capsys, "check", "group-like", "--input", str(file))
    assert got == code
    if code == 3:
        assert out == "" and "resource guard" in err and "'series.k_max'" in err


def test_fls_level_below_one_exits_2(tmp_path, capsys):
    file = tmp_path / "seg.json"
    file.write_text(json.dumps({"d": 2, "points": [[0, 0], [2, 1]]}))
    code, out, err = run(capsys, "check", "fls", "--input", str(file), "--level", "0")
    assert code == 2 and out == "" and "k_max >= 1" in err


def test_hdet_pullback_command(capsys):
    code, out, _ = run(capsys, "hdet-pullback", "--seed", "3", "--samples", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and payload["constant"] == "1/3"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_hdet_pullback_without_samples_exits_2(capsys, samples):
    code, out, err = run(capsys, "hdet-pullback", "--seed", "3", "--samples", samples)
    assert code == 2 and out == "" and "samples must be >= 1" in err


def test_paper_suite_command(capsys):
    code, out, _ = run(capsys, "paper-suite")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert len(payload["checks"]) >= 25


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "dims", "--d", "3", "--k", "4")
    _, out2, _ = run(capsys, "dims", "--d", "3", "--k", "4")
    assert out1 == out2
    _, inv1, _ = run(capsys, "invariants", "--d", "2", "--ell", "2")
    _, inv2, _ = run(capsys, "invariants", "--d", "2", "--ell", "2")
    assert inv1 == inv2


def test_threads_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "4", "paper-suite"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


def test_partition_weight_mismatch_exits_2(capsys):
    code, _, err = run(capsys, "idempotent", "--k", "4", "--partition", "2,1")
    assert code == 2 and "partition" in err
    code, _, err = run(capsys, "thrall-coeffs", "--k", "4", "--partition", "2,1")
    assert code == 2


def test_invariants_guard_exits_3(capsys):
    code, _, err = run(capsys, "invariants", "--d", "2", "--ell", "3")
    assert code == 3


def test_decompose_of_p_k_components_at_d_1_exits_3(tmp_path, capsys):
    # p(50) > 200,000 one-entry components: refused before any is built
    file = tmp_path / "t50.json"
    file.write_text(json.dumps({"d": 1, "k": 50, "entries": {"1" * 50: "1"}}))
    for argv in ([], ["--method", "solve"]):
        code, out, err = run(capsys, "decompose", "--tensor", str(file), *argv)
        assert code == 3 and out == "" and "resource guard" in err
    code, out, err = run(capsys, "decompose", "--tensor", str(DATA / "tensor_d1_k2000.json"))
    assert code == 3 and out == "" and "resource guard" in err


def test_decompose_guard_and_solve_fallback(tmp_path, capsys):
    import json as _json

    from thrallkit.free_lie import lyndon_bracketing

    t = lyndon_bracketing((1, 1, 2, 2, 2, 2), 2)
    file = tmp_path / "t6.json"
    file.write_text(_json.dumps(tensor_to_json(t)))
    code, _, err = run(capsys, "decompose", "--tensor", str(file), "--method", "idempotent")
    assert code == 3
    code, out, _ = run(capsys, "decompose", "--tensor", str(file), "--method", "solve")
    assert code == 0
    payload = json.loads(out)
    nonzero = [lam for lam, part in payload.items() if part["entries"]]
    assert nonzero == ["6"]


@pytest.mark.parametrize("method", ["auto", "solve", "idempotent"])
def test_decompose_answer_guard_does_not_depend_on_the_route(tmp_path, capsys, method):
    # one entry at (8, 5): the answer's 7 components of 8^5 entries pass the
    # cap, so every route exits 3 and prints nothing
    file = tmp_path / "t.json"
    file.write_text(json.dumps({"d": 8, "k": 5, "entries": {"12345": "1"}}))
    code, out, err = run(capsys, "decompose", "--tensor", str(file), "--method", method)
    assert (code, out) == (3, "")
    assert "entries" in err


def row_id(argv, golden):
    """The golden's file name, with the row's last argument where that file
    alone does not tell the rows apart: the method it forces, or its input."""
    if golden == EMPTY or "--method" in argv:
        return f"{golden}-{argv[-1]}"
    return golden


@pytest.mark.parametrize("argv,golden,exit_code", ROWS, ids=[row_id(a, g) for a, g, _ in ROWS])
def test_stdout_matches_golden_bytes(capsys, monkeypatch, argv, golden, exit_code):
    monkeypatch.setenv("COLUMNS", "80")  # the width the --help golden was written at
    try:
        code = main(resolve(argv))
    except SystemExit as exc:  # --help
        code = exc.code
    assert code == exit_code
    assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()


def test_help_matches_golden_bytes(tmp_path, monkeypatch, capsys):
    # the runner that CI points at the installed console script, here on
    # ``python -m thrallkit.cli``: the --help row passes, a wrong golden fails
    path = [str(DATA.parent.parent / "src"), os.environ.get("PYTHONPATH")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, path)))
    command = [sys.executable, "-m", "thrallkit.cli"]
    assert run_table(command, [(["--help"], "help.out", 0)]) == 0
    assert capsys.readouterr().out == "1 of 1 rows match\n"
    wrong = tmp_path / "wrong.out"
    wrong.write_bytes((DATA / "help.out").read_bytes() + b"\n")
    assert run_table(command, [(["--help"], str(wrong), 0), (["--help"], "help.out", 2)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"--help: stdout differs from {wrong}", "--help: exit 0, expected 2", "0 of 2 rows match",
    ]


@pytest.mark.parametrize("method", ["auto", "idempotent", "solve"])
def test_order_zero_decompose_is_its_empty_partition_component(tmp_path, capsys, method):
    file = tmp_path / "t0.json"
    file.write_text(json.dumps({"d": 2, "k": 0, "entries": {"": "3"}}))
    code, out, err = run(capsys, "decompose", "--tensor", str(file), "--method", method)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"": {"d": 2, "k": 0, "entries": {"": "3"}}}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_degree_zero_invariants_are_the_constant_functional(capsys, d):
    code, out, err = run(capsys, "invariant-space", "--d", str(d), "--k", "0")
    assert (code, err) == (0, "")
    assert json.loads(out) == [{"terms": {"": "1"}}]
    code, out, err = run(capsys, "invariants", "--d", str(d), "--ell", "0")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"": [{"terms": {"": "1"}, "grading": []}]}


@pytest.mark.parametrize(
    "argv,field",
    [(["invariant-space", "--d", "2", "--k", "-1"], "k"), (["invariants", "--d", "2", "--ell", "-1"], "ell")],
)
def test_negative_degree_exits_2_naming_the_field(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"{field} must be >= 0" in err


def test_internal_error_exits_4_not_check_failed(capsys, monkeypatch):
    from thrallkit import cli, free_lie

    def crash(tensor):
        raise ArithmeticError("injected")

    monkeypatch.setattr(free_lie, "is_lie_element", crash)
    code, out, err = run(capsys, "check", "lie", "--input", str(DATA / "tensor_d3_k4_lie.json"))
    assert (code, out) == (cli.EXIT_INTERNAL, "") and code == 4
    assert "Traceback" in err and "ArithmeticError: injected" in err


# --- Python's limit on int <-> str conversions (3.10.7+, 4300 digits by default)

needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-string digit limit"
)


@contextlib.contextmanager
def unlimited_digits():
    """Lift the digit limit in the test itself, to write the expected values."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def write_path(tmp_path, points, name="path.json"):
    file = tmp_path / name
    file.write_text(json.dumps({"d": len(points[0]), "points": points}))
    return str(file)


@needs_digit_limit
def test_signature_at_level_1700_prints_every_digit(tmp_path, capsys):
    # 1700! alone has 4,756 digits; the limit applies again after main returns
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "signature", "--path", write_path(tmp_path, [[0], [1], [3]]),
                         "--level", "1700")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    levels = json.loads(out)["levels"]
    with unlimited_digits():
        want = [{"1" * m: format_fraction(Fraction(3**m, math.factorial(m)))} for m in range(1701)]
    assert levels == want


@pytest.mark.parametrize("text", ["1e100000000", "-1E-100000000", "1e+0100000000"])
def test_huge_exponents_are_refused_before_they_are_expanded(tmp_path, capsys, text):
    # expanding 1e100000000 alone would build a 41 MB integer, for seconds
    tensor = tmp_path / "tensor.json"
    tensor.write_text(json.dumps({"d": 1, "k": 1, "entries": {"1": text}}))
    cases = [
        (["check", "rank1", "--input", str(tensor)], "tensor.entries.1"),
        (["signature", "--path", write_path(tmp_path, [["0"], [text]]), "--level", "1"],
         "path.points[1][0]"),
    ]
    for argv, field in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert f"field {field!r}: bad rational {text!r}: exponent beyond the digit limit" in err


@pytest.mark.parametrize("value", [True, False])
def test_json_booleans_are_not_rationals(tmp_path, capsys, value):
    # bool is a subclass of int, so true once read as 1 and false as 0
    tensor = tmp_path / "tensor.json"
    tensor.write_text(json.dumps({"d": 2, "k": 1, "entries": {"1": value, "2": "1"}}))
    series = tmp_path / "series.json"
    series.write_text(json.dumps({"d": 1, "k_max": 1, "levels": [{"": "1"}, {"1": value}]}))
    cases = [
        (["decompose", "--tensor", str(tensor)], "tensor.entries.1"),
        (["check", "group-like", "--input", str(series)], "series.levels[1].entries.1"),
        (["signature", "--path", write_path(tmp_path, [[0, 0], [value, 1]]), "--level", "1"],
         "path.points[1][0]"),
    ]
    for argv, field in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"field {field!r}: expected a rational string, got bool" in err
    # JSON integers are still rationals
    tensor.write_text(json.dumps({"d": 2, "k": 1, "entries": {"1": 1, "2": "1"}}))
    code, out, err = run(capsys, "decompose", "--tensor", str(tensor))
    assert (code, err) == (0, "")
    assert json.loads(out)["1"]["entries"] == {"1": "1", "2": "1"}
    code, out, err = run(capsys, "signature", "--path", write_path(tmp_path, [[0, 0], [1, 1]]),
                         "--level", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["levels"][1] == {"1": "1", "2": "1"}


@needs_digit_limit
def test_digit_limit_guards_input_but_not_output(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    at_limit = "9" * limit
    code, out, err = run(capsys, "signature", "--path", write_path(tmp_path, [["0"], [at_limit]]),
                         "--level", "2")
    assert (code, err) == (0, "")
    with unlimited_digits():
        square = format_fraction(Fraction(int(at_limit) ** 2, 2))
    assert json.loads(out)["levels"][1:] == [{"1": at_limit}, {"11": square}]
    # one digit more is malformed input: the field is named, the number not echoed
    over = at_limit + "9"
    code, out, err = run(capsys, "signature", "--path", write_path(tmp_path, [["0"], [over]]),
                         "--level", "2")
    assert (code, out) == (2, "")
    assert "field 'path.points[1][0]'" in err and f"of {limit + 1} characters" in err
    assert len(err) < 400
    # exponent notation is held to the same limit
    code, out, err = run(capsys, "signature", "--path",
                         write_path(tmp_path, [["0"], [f"1e{limit}"]]), "--level", "2")
    assert (code, out) == (2, "")
    assert f"field 'path.points[1][0]': bad rational '1e{limit}'" in err
    code, out, err = run(capsys, "signature", "--path",
                         write_path(tmp_path, [["0"], [f"1e-{limit - 1}"]]), "--level", "1")
    assert (code, err) == (0, "")
    with unlimited_digits():
        assert json.loads(out)["levels"][1] == {"1": format_fraction(Fraction(1, 10 ** (limit - 1)))}
    # the same number as a JSON integer literal names the file's field
    literal = tmp_path / "literal.json"
    literal.write_text('{"d": 1, "points": [[0], [' + over + "]]}")
    code, out, err = run(capsys, "signature", "--path", str(literal), "--level", "2")
    assert (code, out) == (2, "")
    assert "field 'path'" in err and len(err) < 400
    assert sys.get_int_max_str_digits() == limit
