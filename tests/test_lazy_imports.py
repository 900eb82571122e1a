"""The package and the CLI load library modules on demand, no CLI path
loads ``dataclasses`` (with ``inspect``, ``ast``, ``dis`` and ``tokenize``
behind it), neither the CLI's start nor its light subcommands load
``typing`` or ``pathlib``, the commands that build the group algebra load no
``typing``, and the commands that print only integers load no ``fractions``
(with ``decimal`` behind it).

The import checks run in a fresh interpreter, because this test process has
already imported every module, and under ``-S``, because a site ``.pth`` may
import modules before the program starts.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thrallkit
from thrallkit import group_algebra, words

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = (
    "linalg", "tensors", "group_algebra", "free_lie", "shuffle_sig", "invariants", "rank_variety",
)


def loaded_after(code: str) -> set:
    """The ``thrallkit`` modules, and ``dataclasses``, ``typing``,
    ``pathlib`` and ``fractions`` where loaded, in a fresh interpreter after
    ``code``."""
    script = (
        "import contextlib, io, json, sys\n"
        f"{code}\n"
        "print(json.dumps(sorted(\n"
        "    m for m in sys.modules\n"
        "    if m.split('.')[0] in ('thrallkit', 'dataclasses', 'typing', 'pathlib', 'fractions')\n"
        ")))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_package_loads_no_submodule():
    assert loaded_after("import thrallkit") == {"thrallkit"}


def test_import_cli_loads_only_jsonio_and_words():
    # and not dataclasses, typing, pathlib or fractions, which loaded_after would list
    assert loaded_after("import thrallkit.cli") == {
        "thrallkit", "thrallkit.cli", "thrallkit.jsonio", "thrallkit.words",
    }


DATA = Path(__file__).resolve().parent / "data"
MALFORMED = DATA / "malformed_tensor.json"


# each light subcommand, with whether it prints integers only
@pytest.mark.parametrize(
    "argv,code,integers",
    [
        (["dims", "--d", "3", "--k", "5"], 0, True),
        (["lyndon", "--d", "3", "--k", "4", "--upto"], 0, True),
        (["thrall-coeffs", "--k", "5"], 0, True),
        (["--help"], 0, True),
        (["decompose", "--tensor", str(MALFORMED)], 2, False),
    ],
    ids=["dims", "lyndon", "thrall-coeffs", "help", "malformed-decompose"],
)
def test_light_subcommands_leave_the_algebra_stack_unloaded(argv, code, integers):
    loaded = loaded_after(
        "from thrallkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        assert main({argv!r}) == {code}\n"
        "    except SystemExit as exc:\n"
        f"        assert exc.code == {code}\n"
    )
    assert "thrallkit.cli" in loaded
    assert not loaded & {f"thrallkit.{name}" for name in HEAVY}
    assert not loaded & {"dataclasses", "typing", "pathlib"}
    if integers:
        assert "fractions" not in loaded


@pytest.mark.parametrize(
    "argv,code",
    [
        (["signature", "--path", str(DATA / "path_d2_integer.json"), "--level", "3"], 0),
        (["signature", "--path", str(DATA / "path_d2_integer.json"), "--level", "3", "--log"], 0),
        # one direction: the log in closed form, with no Chen update
        (["signature", "--path", str(DATA / "path_d1_three_vertices.json"), "--level", "3", "--log"], 0),
        (["invariant-space", "--d", "2", "--k", "4"], 0),
        (["check", "lie", "--input", str(DATA / "tensor_d3_k4_lie.json")], 0),
        (["check", "group-like", "--input", str(DATA / "series_d2_level3_signature.json")], 0),
        (["check", "fls", "--input", str(DATA / "path_bent.json"), "--level", "5"], 1),
        (["check", "rank1", "--input", str(DATA / "tensor_d2_k3_rank_one.json")], 0),
    ],
    ids=[
        "signature", "signature-log", "signature-log-d1", "invariant-space", "check-lie",
        "check-group-like", "check-fls", "check-rank1",
    ],
)
def test_signature_and_checks_leave_the_group_algebra_unloaded(argv, code):
    loaded = loaded_after(
        "from thrallkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == {code}\n"
    )
    assert "thrallkit.shuffle_sig" in loaded or "thrallkit.free_lie" in loaded
    assert "thrallkit.group_algebra" not in loaded
    assert "dataclasses" not in loaded


@pytest.mark.parametrize(
    "argv",
    [["signature", "--path", str(DATA / "path_d2_integer.json"), "--level", "3"]],
    ids=["signature"],
)
def test_signature_without_log_leaves_free_lie_unloaded(argv):
    loaded = loaded_after(
        "from thrallkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    assert "thrallkit.shuffle_sig" in loaded
    assert "thrallkit.free_lie" not in loaded
    assert "dataclasses" not in loaded


@pytest.mark.parametrize(
    "argv,code",
    [
        (["decompose", "--tensor", str(DATA / "tensor_d3_k4.json")], 0),
        (["check", "symmetric", "--input", str(DATA / "tensor_d2_k3_rank_one.json")], 1),
    ],
    ids=["decompose", "check-symmetric"],
)
def test_tensor_commands_leave_the_signature_stack_unloaded(argv, code):
    # the entry cap that the tensor reader checks lives in tensors
    loaded = loaded_after(
        "from thrallkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == {code}\n"
    )
    assert "thrallkit.tensors" in loaded
    assert "thrallkit.shuffle_sig" not in loaded
    assert "dataclasses" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--tensor", str(DATA / "tensor_d3_k4.json")],
        ["idempotent", "--k", "4", "--partition", "2,1,1"],
        ["invariants", "--d", "2", "--ell", "2"],
        ["paper-suite"],
    ],
    ids=["decompose", "idempotent", "invariants", "paper-suite"],
)
def test_group_algebra_commands_leave_typing_unloaded(argv):
    loaded = loaded_after(
        "from thrallkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    assert "thrallkit.group_algebra" in loaded
    assert "typing" not in loaded


def test_paper_suite_builds_every_value_class_without_dataclasses():
    loaded = loaded_after(
        "from thrallkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['paper-suite']) == 0\n"
    )
    assert {"thrallkit.reference_suite", "thrallkit.rank_variety", "thrallkit.symfun"} <= loaded
    assert "dataclasses" not in loaded


def test_every_export_is_the_object_of_its_defining_module():
    assert len(thrallkit.__all__) == len(set(thrallkit.__all__))
    for name in thrallkit.__all__:
        module = importlib.import_module(f"thrallkit.{thrallkit._EXPORTS[name]}")
        assert getattr(thrallkit, name) is getattr(module, name), name


def test_star_import_and_dir():
    namespace: dict = {}
    exec("from thrallkit import *", namespace)
    assert set(thrallkit.__all__) <= set(namespace)
    assert namespace["Tensor"] is thrallkit.tensors.Tensor
    assert set(thrallkit.__all__) <= set(dir(thrallkit))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        thrallkit.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from thrallkit import no_such_name", {})
    assert not hasattr(thrallkit, "series_product")
    assert not hasattr(thrallkit, "flattening_rank")


def test_resource_limit_error_is_one_class():
    assert words.ResourceLimitError is group_algebra.ResourceLimitError
    assert thrallkit.ResourceLimitError is words.ResourceLimitError
