import contextlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from thrallkit.cli import main
from thrallkit.jsonio import format_fraction, tensor_to_json
from thrallkit.tensors import Tensor


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


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": 2, "k": 2, "entries": {"31": "1"}}))
    code, _, err = run(capsys, "check", "symmetric", "--input", str(bad))
    assert code == 2
    assert "entries.31" in err
    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, "check", "symmetric", "--input", str(missing))
    assert code == 2


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


DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
# Stdout recorded from the earlier implementations: the Fraction series-product
# exp/log for the signature, fls and paper-suite cases, the per-partition
# ga_act route with the Fraction dual action for the decompose and invariants
# cases, the CLI that imported every module up front for the dims, lyndon,
# thrall-coeffs, idempotent, check lie, check group-like and help cases, the
# tensors that stored one Fraction per entry for the signature without --log,
# the group-algebra elements that stored one Fraction per term for the
# k = 5 idempotent, the solve backend, whose projector route then took one
# dot product per row, for the wide decompose case, and the solve backend's
# per-block inverses and dot products for the k = 6 decompose case.
GOLDEN = [
    (["dims", "--d", "3", "--k", "5"], "dims_d3_k5.out", 0),
    (["--format", "text", "dims", "--d", "3", "--k", "5"], "dims_d3_k5_text.out", 0),
    (["lyndon", "--d", "3", "--k", "4", "--upto"], "lyndon_d3_k4_upto.out", 0),
    (["thrall-coeffs", "--k", "5"], "thrall_coeffs_k5.out", 0),
    (["thrall-coeffs", "--k", "10"], "thrall_coeffs_k10.out", 0),
    (["idempotent", "--k", "4", "--partition", "2,1,1", "--intersect-mu", "3,1"],
     "idempotent_k4_211_mu31.out", 0),
    (["idempotent", "--k", "5", "--partition", "3,2", "--intersect-mu", "3,1,1"],
     "idempotent_k5_32_mu311.out", 0),
    (["check", "lie", "--input", "tensor_d3_k4_lie.json"], "check_lie_d3_k4.out", 0),
    (["check", "group-like", "--input", "series_d2_level3_signature.json"],
     "check_group_like_d2_level3.out", 0),
    # the trivial series to level 16, inside the entry cap
    (["check", "group-like", "--input", "series_d2_level16_trivial.json"],
     "check_group_like_d2_level16_trivial.out", 0),
    # d = 1 to level 20,000: no Lyndon word longer than one letter to walk
    (["check", "group-like", "--input", "series_d1_level20000_trivial.json"],
     "check_group_like_d1_level20000_trivial.out", 0),
    (["signature", "--path", "path_d2_integer.json", "--level", "6", "--log"],
     "signature_log_d2_integer_level6.out", 0),
    (["signature", "--path", "path_d3_fractional.json", "--level", "5", "--log"],
     "signature_log_d3_fractional_level5.out", 0),
    (["signature", "--path", "path_d3_fractional.json", "--level", "5"],
     "signature_d3_fractional_level5.out", 0),
    (["check", "fls", "--input", "path_collinear.json", "--level", "5"],
     "check_fls_collinear_level5.out", 0),
    (["check", "fls", "--input", "path_bent.json", "--level", "5"],
     "check_fls_bent_level5.out", 1),
    (["paper-suite"], "paper_suite.out", 0),
    (["decompose", "--tensor", "tensor_d2_k5_fractional.json"],
     "decompose_d2_k5_fractional.out", 0),
    (["decompose", "--tensor", "tensor_d3_k4.json"], "decompose_d3_k4.out", 0),
    # the solve-built projectors at d = 3, composed by integer row sums
    (["decompose", "--tensor", "tensor_d3_k4.json", "--method", "solve"],
     "decompose_d3_k4.out", 0),
    # 40-digit numerators over an lcm of 200 bits: too wide for 64-bit
    # slots, so the projectors take one dot product per row
    (["decompose", "--tensor", "tensor_d3_k4_wide.json"], "decompose_d3_k4_wide.out", 0),
    # d = 4: most blocks share their shape's matrix through a relabelling
    # that reorders letters
    (["decompose", "--tensor", "tensor_d4_k4.json"], "decompose_d4_k4.out", 0),
    # k = 6 is above the projector degree cap: the default route takes the
    # solve-built projectors
    (["decompose", "--tensor", "tensor_d2_k6.json"], "decompose_d2_k6.out", 0),
    (["invariants", "--d", "2", "--ell", "2"], "invariants_d2_ell2.out", 0),
    (["invariants", "--d", "5", "--ell", "1"], "invariants_d5_ell1.out", 0),
    # a memoized table in which two of three pieces are empty
    (["invariants", "--d", "3", "--ell", "1"], "invariants_d3_ell1.out", 0),
    (["invariant-space", "--d", "3", "--k", "6"], "invariant_space_d3_k6.out", 0),
    (["check", "rank1", "--input", "tensor_d2_k3_rank_one.json"],
     "check_rank1_d2_k3.out", 0),
    # a 4,000-digit vertex (3^8383): its square has more digits than Python
    # converts to a string by default
    (["signature", "--path", "path_d1_4000_digits.json", "--level", "2"],
     "signature_d1_4000_digits_level2.out", 0),
]


def golden_id(argv, golden):
    """The golden's file name, with the method where a case forces one."""
    if "--method" in argv:
        return f"{golden}-{argv[argv.index('--method') + 1]}"
    return golden


@pytest.mark.parametrize(
    "argv,golden,exit_code", GOLDEN, ids=[golden_id(a, g) for a, g, _ in GOLDEN]
)
def test_stdout_matches_golden_bytes(capsys, argv, golden, exit_code):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert out.encode() == (DATA / golden).read_bytes()


def test_help_matches_golden_bytes():
    # the installed console script and ``python -m thrallkit.cli`` share main()
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "thrallkit.cli", "--help"], capture_output=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout == (DATA / "help.out").read_bytes()


@pytest.mark.parametrize("method", ["idempotent", "solve"])
@pytest.mark.parametrize("name", ["d2_k5_fractional", "d3_k4", "d3_k4_wide", "d4_k4"])
def test_decompose_methods_match_golden_bytes(capsys, method, name):
    code, out, _ = run(
        capsys, "decompose", "--tensor", str(DATA / f"tensor_{name}.json"), "--method", method
    )
    assert code == 0
    assert out.encode() == (DATA / f"decompose_{name}.out").read_bytes()


def test_solve_method_above_the_projector_cap_matches_golden_bytes(capsys):
    code, out, _ = run(
        capsys, "decompose", "--tensor", str(DATA / "tensor_d2_k6.json"), "--method", "solve"
    )
    assert code == 0
    assert out.encode() == (DATA / "decompose_d2_k6.out").read_bytes()


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
