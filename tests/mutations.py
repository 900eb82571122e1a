"""The mutation table: each row names a module under ``src/``, a fragment of
its text, the fragment that replaces it, and the pytest selector that must
fail on the changed code.  A row records a fault that a check is there to
catch, so a check that stops catching it shows up here.

``python tests/mutations.py`` first runs every selector on the unchanged
source, which must pass.  Then it applies each row alone to a fresh copy of
``src/`` in a temporary directory and runs that row's selector with ``-x``
against the copy.  It prints one line per row and exits 1 when a row's
fragment does not occur exactly once, or when its selector does not fail.
This is not part of the tier-1 suite: it runs each selector once more per row.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module under src/, old text, new text, pytest selector that must fail)
ROWS = [
    # a polytabloid row without its column signs
    ("thrallkit/invariants.py",
     "row[place[tuple(map(word.__getitem__, pi))]] = sgn",
     "row[place[tuple(map(word.__getitem__, pi))]] = 1",
     "tests/test_invariants.py::test_polytabloid_rows_match_the_scan_of_every_balanced_word"),
    # the closed-form log taken for a path whose runs are not parallel
    ("thrallkit/shuffle_sig.py",
     "if all(a * y == x * b for u in runs[1:] for (a, b), (x, y) in combinations(zip(runs[0], u), 2)):",
     "if True:",
     "tests/test_shuffle_sig.py::test_log_signature_cases"),
    # a value rebuilt by pickle and copy through the default reduction
    ("thrallkit/words.py",
     "cls.__repr__, cls.__reduce__ = __eq__, __hash__, __repr__, __reduce__",
     "cls.__repr__ = __eq__, __hash__, __repr__",
     "tests/test_values.py::test_values_survive_pickle_and_deepcopy"),
    # the closed-form projector family counting ascents for descents
    ("thrallkit/group_algebra.py",
     "itertools.accumulate((x > y for x, y in zip(p, p[1:])), initial=0)",
     "itertools.accumulate((x < y for x, y in zip(p, p[1:])), initial=0)",
     "tests/test_group_algebra.py::test_projector_family_matches_solve_oracle"),
    # the log's weights all positive, +1/n for even n
    ("thrallkit/free_lie.py",
     "(0, *((-1) ** (n + 1) * (scale // n) for n in range(1, k_max + 1)))",
     "(0, *((scale // n) for n in range(1, k_max + 1)))",
     "tests/test_free_lie.py::test_log_exp_roundtrip_random"),
    # the exp/log kernel without the D_m pre-scale of each level
    ("thrallkit/free_lie.py",
     "f = level_dens[m] // (level_dens[m - a] * dens[a])",
     "f = 1",
     "tests/test_free_lie.py::test_exp_log_kernel_matches_series_product_oracle"),
    # the bracket table filling [P_v, P_u] with the constants of [P_u, P_v], unnegated
    ("thrallkit/free_lie.py",
     "_STRUCTURE[v, u, d] = tuple((w, -c) for w, c in constants)",
     "_STRUCTURE[v, u, d] = constants",
     "tests/test_free_lie.py::test_lie_bracket_matches_dense_oracle"),
    # the Lyndon walk reading each word's bracketing from the row before it
    ("thrallkit/free_lie.py",
     "    for row in _lyndon_table(d, k):\n        w, i, expansion = row\n",
     "    table = _lyndon_table(d, k)\n"
     "    for row, prev in zip(table, (table[0], *table)):\n        w, i, expansion = row[0], row[1], prev[2]\n",
     "tests/test_free_lie.py::test_lie_coordinates_match_dense_solve"),
    # a Chen slot one sign bit and two guard bits too narrow
    ("thrallkit/shuffle_sig.py",
     "B = slot_width(k_max * (V.bit_length() + 1) + 2)",
     "B = slot_width(k_max * V.bit_length())",
     "tests/test_shuffle_sig.py::test_chen_numerators_match_the_list_update"),
    # a one-index getter that always reads index 0
    ("thrallkit/group_algebra.py",
     "slice(indices[0], indices[0] + 1)",
     "slice(0, 1)",
     "tests/test_group_algebra.py::test_packed_kernel_on_zero_and_one_place_blocks"),
    # operator_rank eliminating again on every call
    ("thrallkit/group_algebra.py",
     "    if d not in ranks:\n",
     "    if True:\n",
     "tests/test_group_algebra.py::test_operator_rank_is_kept_per_element_and_d"),
    # ga_act building and packing its stack again on every call
    ("thrallkit/group_algebra.py",
     "    if stack is None:\n",
     "    if True:\n",
     "tests/test_group_algebra.py::test_ga_act_keeps_its_stack_per_element_and_d"),
    # Bareiss elimination leaving the rows with a zero in the pivot column unscaled
    ("thrallkit/linalg.py",
     "elif p != prev:",
     "elif False:",
     "tests/test_linalg.py::test_kernel_matches_gauss_jordan_oracle"),
    # a tensor kept over a common factor of its numerators and denominator
    ("thrallkit/tensors.py",
     "if g != 1:",
     "if False:",
     "tests/test_values.py::test_value_contract[Tensor]"),
    # the slot codec reading a negative slot without the mask's borrow guard
    ("thrallkit/tensors.py",
     "((total + mask) ^ mask)",
     "(total ^ mask)",
     "tests/test_tensors.py::test_slot_codec_round_trips_signed_values"),
    # the stacked outputs read back in gather order, not in index order
    ("thrallkit/group_algebra.py",
     "inverse = sorted(range(len(gather)), key=gather.__getitem__)",
     "inverse = list(range(len(gather)))",
     "tests/test_group_algebra.py::test_ga_act_matches_dense_sum"),
    # Chen runs that break only where every 2x2 minor is nonzero
    ("thrallkit/shuffle_sig.py",
     "map(any, zip(*minors))",
     "map(all, zip(*minors))",
     "tests/test_shuffle_sig.py::test_chen_numerators_match_the_list_update"),
    # a stack packed again at every call of a width it has met
    ("thrallkit/group_algebra.py",
     "packed = stack.packed[width] = _pack(stack, width)",
     "packed = _pack(stack, width)",
     "tests/test_group_algebra.py::test_projector_stack_is_packed_at_most_once_per_width"),
    # stacked projectors left over their constructions' unreduced denominators
    ("thrallkit/group_algebra.py",
     "den // math.gcd(den, *itertools.chain.from_iterable(rows))",
     "den // 1",
     "tests/test_group_algebra.py::test_solve_and_closed_form_build_equal_stacks"),
    # a projector over its first shape's reduced denominator, not the lcm over its shapes
    ("thrallkit/group_algebra.py",
     "dens = [math.lcm(*(q for q, _, _ in found)) for found in zip(*pieces)]",
     "dens = [found[0][0] for found in zip(*pieces)]",
     "tests/test_group_algebra.py::test_closed_form_and_solve_stacks_are_equal_integer_fields"),
    # the balanced projectors walked on another shape than the balanced one
    ("thrallkit/group_algebra.py",
     "[(ell,) * d]",
     "[(d * ell,)]",
     "tests/test_group_algebra.py::test_balanced_projections_build_only_the_balanced_shape"),
    # the solve's composition adding the inverse's rows without their coefficients
    ("thrallkit/free_lie.py",
     "map(c.__mul__, row)",
     "row",
     "tests/test_free_lie.py::test_compose_matches_plain_products_at_every_slot_width"),
    # the weight-shape table breaking ties between equal counts in reverse letter order
    ("thrallkit/tensors.py",
     "runs = sorted((-len(list(run)), a) for a, run in itertools.groupby(content))",
     "runs = sorted(((-len(list(run)), a) for a, run in itertools.groupby(content)),"
     " key=lambda r: (r[0], -r[1]))",
     "tests/test_tensors.py::test_weight_patterns_equal_the_table_grouped_from_every_word"),
]


def _pytest(src: Path, *selectors: str) -> int:
    """The exit code of pytest on ``selectors``, importing the package from ``src``."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selectors],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def check(row) -> str | None:
    """Why ``row`` fails, or None when its selector fails on the mutated copy."""
    path, old, new, selector = row
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = src / path
        text = target.read_text()
        if text.count(old) != 1:
            return f"the old text occurs {text.count(old)} times in {path}, not once"
        target.write_text(text.replace(old, new))
        code = _pytest(src, selector)
    # 1 is "tests failed"; an import or usage error is not a caught mutation
    return None if code == 1 else f"pytest exited {code}, not 1 (tests failed): the mutation was not caught"


def main() -> int:
    code = _pytest(ROOT / "src", *sorted({row[3] for row in ROWS}))
    if code != 0:
        print(f"the selectors fail on the unchanged source (pytest exited {code})")
        return 1
    failures = 0
    for row in ROWS:
        reason = check(row)
        failures += reason is not None
        print(f"{'FAIL' if reason else 'ok'}  {row[0]}  {row[3]}" + (f"\n      {reason}" if reason else ""))
    print(f"{len(ROWS) - failures} of {len(ROWS)} mutations caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
