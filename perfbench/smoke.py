"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

For every workload it checks that an untraced and a traced run print
exactly the metrics named in BENCHMARK.json, with their units; that a run
whose every output is corrupted before its check counts every request as
failed; and, once, that a directory holding only the benchmark's files
makes the benchmark exit non-zero without a result.  Exits non-zero on the
first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "7", "--seconds", "0.2", "--min-requests", "4", "--trace-requests", "4"]


def bench(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, *TINY, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if proc.returncode != 0 and cwd == ROOT:
        sys.stderr.write(proc.stderr)
    return proc.returncode, result


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_shape(result: dict, declared: list[dict], what: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys {sorted(result)}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{what}: attempted")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{what}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{what}: {name} is not a number")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        code, result = bench(workload, "--trace", "0")
        expect(code == 0 and result is not None, f"{workload}: untraced run failed")
        check_shape(result, SPEC["end_to_end"], f"{workload} --trace 0")
        expect(result["correct"] and result["failed"] == 0, f"{workload}: outputs failed their checks")

        code, result = bench(workload, "--trace", "1")
        expect(code == 0 and result is not None, f"{workload}: traced run failed")
        check_shape(result, SPEC["per_layer"], f"{workload} --trace 1")
        expect(result["correct"], f"{workload}: traced outputs failed their checks")

        code, result = bench(workload, "--trace", "0", "--corrupt-every", "1")
        expect(code == 0 and result is not None, f"{workload}: corrupted run failed")
        expect(result["failed"] == result["attempted"] and not result["correct"],
               f"{workload}: {result['attempted'] - result['failed']} corrupted outputs passed their checks")
        expect(result["metrics"]["ok_ratio"]["value"] == 0, f"{workload}: ok_ratio ignores failures")
        print(f"ok: {workload}")

    bare = HERE / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    name = SPEC["workloads"][0]["name"]
    code, result = bench(name, "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and result is None, "a directory without the sources still produced a result")
    print("ok: refuses to run without the sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
