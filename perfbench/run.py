"""thrallkit benchmark: one closed-loop client, three workloads.

    python3 perfbench/run.py --workload algebra-warm --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures end-to-end metrics with nothing
instrumented.  With ``--trace 1`` it runs a fixed number of requests (the
workload's ``TRACE_REQUESTS``, whatever ``--seconds`` says) untraced, then
the same requests again with every thrallkit module wrapped by
``tracer.Tracer``; it prints the per-layer metrics and the ratio of traced
to untraced call time, and writes the spans under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("algebra-warm", "signature-warm", "cli-cold")


def run_in_process(workload, args) -> None:
    def setup_steps(state):
        yield lambda: state.update(tk=harness.import_thrallkit())
        yield from workload.warmup_steps(state["tk"])

    if args.trace:
        _, state = harness.timed_setups(setup_steps, repeats=1)
        harness.traced_run(
            args, workload.DECK, partial(workload.make_request, state["tk"]),
            partial(start_tracing, workload),
        )
        return
    setup_s, state = harness.timed_setups(setup_steps)
    loop = harness.closed_loop(
        partial(workload.make_request, state["tk"]), deck=workload.DECK, seed=args.seed,
        seconds=args.seconds, min_requests=args.min_requests, corrupt_every=args.corrupt_every,
    )
    metrics = harness.end_to_end(loop, setup_s, harness.peak_rss_mb())
    harness.report(loop, metrics, args.workload, args.seed)


def start_tracing(workload):
    """Import thrallkit afresh, trace it and warm it up again (see ``harness.traced_run``)."""
    tk = harness.import_thrallkit()
    tracer = Tracer()
    tracer.install()
    for step in workload.warmup_steps(tk):
        step()
    tracer.reset()
    hits0, misses0 = tracer.bracket_cache()

    def make_request(kind, rng):
        tracer.request += 1
        return workload.make_request(tk, kind, rng)

    def collect():
        hits1, misses1 = tracer.bracket_cache()
        layers = dict(summary=tracer.summary(), bracket=(hits1 - hits0, misses1 - misses0))
        return layers, tracer.span_rows()

    return make_request, tracer.paused, collect


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-requests", type=int, default=harness.MIN_REQUESTS,
                        help="keep going past --seconds until this many requests ran")
    parser.add_argument("--trace-requests", type=int, default=None,
                        help="requests in the traced run (default: the workload's TRACE_REQUESTS)")
    parser.add_argument("--corrupt-every", type=int, default=0,
                        help="corrupt every n-th output before its check (tests the checker)")
    args = parser.parse_args(argv)
    try:
        harness.require_source()
    except harness.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = importlib.import_module(args.workload.replace("-", "_"))
    if args.trace_requests is None:
        args.trace_requests = workload.TRACE_REQUESTS
    if args.workload == "cli-cold":
        workload.run(args)
    else:
        run_in_process(workload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
