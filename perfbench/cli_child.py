"""Traced stand-in for ``python -m thrallkit.cli``.

    python perfbench/cli_child.py SUMMARY.json <thrallkit arguments>

Times the import of ``thrallkit.cli``, installs the tracer, runs the CLI
with the given arguments and exits with its exit code.  The tracer's
aggregates and spans go to SUMMARY.json when the CLI returns.
``thrallkit.reference_suite``, which the CLI imports only for
``paper-suite``, is imported before the tracer is installed so that its
functions are traced too.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

t0 = time.perf_counter()
import thrallkit.cli  # noqa: E402

startup_s = time.perf_counter() - t0

import thrallkit.reference_suite  # noqa: E402,F401
from tracer import Tracer  # noqa: E402


def main() -> int:
    summary_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = thrallkit.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        hits, misses = tracer.bracket_cache()
        summary = tracer.summary()
        summary.update(startup_s=startup_s, bracket=[hits, misses], span_rows=list(tracer.span_rows()))
        summary_path.write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
