"""The one table of CLI goldens: each row is an argv (a ``.json`` entry names
a file under ``tests/data``), the file there that holds the run's exact
stdout, and its exit code.  ``test_cli.py`` runs the rows in-process and
``test_hygiene.py`` traces the program over them.  ``python tests/golden.py
thrallkit`` runs each row through the installed console script, or any
command given, in a fresh process; it prints one line per row whose exit
code or stdout differs and exits 1 if any does.
"""

import os
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
TIMEOUT_S = 10  # every row runs in well under a second
EMPTY = "empty.out"  # the golden of the runs that must print nothing

# A new golden is written by the CLI as it stood before the change under
# test.  These came from earlier implementations: the Fraction series-product
# exp/log, the per-partition ga_act route, a CLI that imported every module
# up front, one Fraction per tensor entry or group-algebra term, the solve
# backend's per-row dot products, and a CLI that read any top-level JSON.
ROWS = [(argv.split(), golden, code) for argv, golden, code in [
    ("--help", "help.out", 0),
    ("dims --d 3 --k 5", "dims_d3_k5.out", 0),
    ("--format text dims --d 3 --k 5", "dims_d3_k5_text.out", 0),
    ("lyndon --d 3 --k 4 --upto", "lyndon_d3_k4_upto.out", 0),
    ("--format text lyndon --d 3 --k 4 --upto", "lyndon_d3_k4_upto_text.out", 0),
    ("thrall-coeffs --k 5", "thrall_coeffs_k5.out", 0),
    ("--format text thrall-coeffs --k 5", "thrall_coeffs_k5_text.out", 0),
    ("thrall-coeffs --k 10", "thrall_coeffs_k10.out", 0),
    ("idempotent --k 4 --partition 2,1,1 --intersect-mu 3,1", "idempotent_k4_211_mu31.out", 0),
    ("idempotent --k 5 --partition 3,2 --intersect-mu 3,1,1", "idempotent_k5_32_mu311.out", 0),
    ("check lie --input tensor_d3_k4_lie.json", "check_lie_d3_k4.out", 0),
    ("check group-like --input series_d2_level3_signature.json",
     "check_group_like_d2_level3.out", 0),
    # the trivial series to level 16, inside the entry cap
    ("check group-like --input series_d2_level16_trivial.json",
     "check_group_like_d2_level16_trivial.out", 0),
    # d = 1 to level 20,000: no Lyndon word longer than one letter to walk
    ("check group-like --input series_d1_level20000_trivial.json",
     "check_group_like_d1_level20000_trivial.out", 0),
    ("signature --path path_d2_integer.json --level 6 --log",
     "signature_log_d2_integer_level6.out", 0),
    ("signature --path path_d3_fractional.json --level 5 --log",
     "signature_log_d3_fractional_level5.out", 0),
    ("signature --path path_d3_fractional.json --level 5", "signature_d3_fractional_level5.out", 0),
    ("check fls --input path_collinear.json --level 5", "check_fls_collinear_level5.out", 0),
    ("check fls --input path_bent.json --level 5", "check_fls_bent_level5.out", 1),
    ("paper-suite", "paper_suite.out", 0),
    ("--format text paper-suite", "paper_suite_text.out", 0),
    # every route of a decompose input prints the same bytes
    ("decompose --tensor tensor_d2_k5_fractional.json", "decompose_d2_k5_fractional.out", 0),
    ("decompose --tensor tensor_d2_k5_fractional.json --method idempotent",
     "decompose_d2_k5_fractional.out", 0),
    ("decompose --tensor tensor_d2_k5_fractional.json --method solve",
     "decompose_d2_k5_fractional.out", 0),
    ("decompose --tensor tensor_d3_k4.json", "decompose_d3_k4.out", 0),
    ("decompose --tensor tensor_d3_k4.json --method idempotent", "decompose_d3_k4.out", 0),
    # the solve-built projectors at d = 3, composed by integer row sums
    ("decompose --tensor tensor_d3_k4.json --method solve", "decompose_d3_k4.out", 0),
    # numerators over a 200-bit lcm, too wide for 64-bit slots: one dot product a row
    ("decompose --tensor tensor_d3_k4_wide.json", "decompose_d3_k4_wide.out", 0),
    ("decompose --tensor tensor_d3_k4_wide.json --method idempotent",
     "decompose_d3_k4_wide.out", 0),
    ("decompose --tensor tensor_d3_k4_wide.json --method solve", "decompose_d3_k4_wide.out", 0),
    # d = 4: most blocks share their shape's matrix by a relabelling of letters
    ("decompose --tensor tensor_d4_k4.json", "decompose_d4_k4.out", 0),
    ("decompose --tensor tensor_d4_k4.json --method idempotent", "decompose_d4_k4.out", 0),
    ("decompose --tensor tensor_d4_k4.json --method solve", "decompose_d4_k4.out", 0),
    # k = 6 is above the projector degree cap: the default route takes the solve
    ("decompose --tensor tensor_d2_k6.json", "decompose_d2_k6.out", 0),
    ("decompose --tensor tensor_d2_k6.json --method solve", "decompose_d2_k6.out", 0),
    ("decompose --tensor malformed_tensor.json", EMPTY, 2),
    # p(2000) one-entry components at d = 1, refused before any is listed
    ("decompose --tensor tensor_d1_k2000.json", EMPTY, 3),
    # the zero tensor is its own p(7) components: no projector is built
    ("decompose --tensor tensor_d3_k7_zero.json", "decompose_d3_k7_zero.out", 0),
    ("invariants --d 2 --ell 2", "invariants_d2_ell2.out", 0),
    ("--format text invariants --d 2 --ell 2", "invariants_d2_ell2_text.out", 0),
    ("invariants --d 5 --ell 1", "invariants_d5_ell1.out", 0),
    # a memoized table in which two of three pieces are empty
    ("invariants --d 3 --ell 1", "invariants_d3_ell1.out", 0),
    # the other under-cap pairs: d = 1 has the one word, in the piece 1,..,1
    ("invariants --d 1 --ell 1", "invariants_d1_ell1.out", 0),
    ("invariants --d 1 --ell 2", "invariants_d1_ell2.out", 0),
    ("invariants --d 1 --ell 3", "invariants_d1_ell3.out", 0),
    ("invariants --d 1 --ell 4", "invariants_d1_ell4.out", 0),
    ("invariants --d 1 --ell 5", "invariants_d1_ell5.out", 0),
    ("invariants --d 2 --ell 1", "invariants_d2_ell1.out", 0),
    ("invariants --d 4 --ell 1", "invariants_d4_ell1.out", 0),
    ("invariant-space --d 3 --k 6", "invariant_space_d3_k6.out", 0),
    # 42 rows of 252 balanced words, each row 32 signed words
    ("invariant-space --d 2 --k 10", "invariant_space_d2_k10.out", 0),
    ("check rank1 --input tensor_d2_k3_rank_one.json", "check_rank1_d2_k3.out", 0),
    # the rank-one tensor is not symmetric
    ("check symmetric --input tensor_d2_k3_rank_one.json", "check_symmetric_d2_k3.out", 1),
    ("hdet-pullback --seed 2024 --samples 20", "hdet_pullback_seed2024_samples20.out", 0),
    # a vertex of 4,000 digits, whose square has more than Python prints by default
    ("signature --path path_d1_4000_digits.json --level 2",
     "signature_d1_4000_digits_level2.out", 0),
    # d = 1: the log is the increment alone; through the power series this took 6.5 min
    ("signature --path path_d1_three_vertices.json --level 1000 --log",
     "signature_log_d1_three_vertices_level1000.out", 0),
]]


def resolve(argv):
    """``argv`` with each ``.json`` entry as a path under ``tests/data``."""
    return [str(DATA / a) if a.endswith(".json") else a for a in argv]


def main(command, rows=ROWS):
    """Run each row as ``command + argv``; 1 if any row differs, else 0."""
    env = dict(os.environ, COLUMNS="80")
    failed = 0
    for argv, golden, exit_code in rows:
        try:
            proc = subprocess.run(
                [*command, *resolve(argv)], capture_output=True, env=env, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            problem = f"still running after {TIMEOUT_S} s"
        else:
            if proc.returncode != exit_code:
                problem = f"exit {proc.returncode}, expected {exit_code}"
            elif proc.stdout != (DATA / golden).read_bytes():
                problem = f"stdout differs from {golden}"
            else:
                continue
        failed += 1
        print(f"{' '.join(argv)}: {problem}")
    print(f"{len(rows) - failed} of {len(rows)} rows match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
