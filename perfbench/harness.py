"""Closed-loop runner, statistics and result formatting shared by the workloads.

One client sends the next request only after the previous one has returned
and been checked.  Only the library call itself is timed; building the
request's input, converting the output to plain JSON data and checking it
happen outside the timer but inside the run's wall-clock budget.

Times are reported in reference seconds.  Before every request (and every
set-up) the loop times a fixed piece of stdlib Fraction arithmetic that
does not touch thrallkit, the speed probe.  Each measured time is scaled by
PROBE_REF_S over the median probe time around it, which cancels most of the
slow drift in the speed of a shared machine while leaving any change in
thrallkit's own work in full.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from oracles import cycles_of, fmt
from tracer import COUNT_MODULES, PACKAGE, SPAN_MODULES, layer_metrics, write_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# p90 needs ten samples beyond it.
MIN_REQUESTS = 100
# The digest covers this many leading requests, so it does not depend on
# how many requests a run happens to complete.
DIGEST_REQUESTS = 100
SETUP_REPEATS = 3
# The probe: a harmonic sum in Fractions, about 1 ms on a 2-core x86 VM.
PROBE_TERMS = 400
# Probe time that defines one reference second.
PROBE_REF_S = 1.0e-3
# Probes on each side of a request that enter its scale.
PROBE_HALF_WINDOW = 5

MODULES = COUNT_MODULES + SPAN_MODULES


class SourceMissing(RuntimeError):
    pass


def require_source() -> None:
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SourceMissing(f"{PACKAGE} sources not found under {SRC}")


def forget_thrallkit() -> None:
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def import_thrallkit() -> SimpleNamespace:
    """Import thrallkit from scratch, so that every cache starts empty."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    forget_thrallkit()
    importlib.invalidate_caches()
    importlib.import_module(PACKAGE)
    return SimpleNamespace(
        **{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    )


def probe() -> float:
    """Seconds taken by the fixed probe, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, PROBE_TERMS):
            total += Fraction(1, i)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def probe_median(count: int = 2 * PROBE_HALF_WINDOW + 1) -> float:
    return statistics.median(probe() for _ in range(count))


@dataclass
class Request:
    """One call into the library.

    ``call`` runs the timed operation; ``plain`` turns its output into JSON
    data (rationals as "p/q" strings); ``check`` judges that data with an
    oracle and returns True when it is right.
    """

    call: Callable[[], object]
    plain: Callable[[object], object]
    check: Callable[[object], bool]


GOLDEN = (5**0.5 - 1) / 2


def schedule(deck: list[str], seed: int):
    """Endless request kinds from a deck listed in ascending expected cost.

    The deck is dealt in golden-ratio order, so that every stretch of the
    sequence samples cheap and expensive kinds in their fixed shares, and
    runs that complete different numbers of requests still see the same
    mix.  The seed picks where in the circular order a run starts.
    """
    order = sorted(range(len(deck)), key=lambda j: (j * GOLDEN) % 1.0)
    dealt = [deck[j] for j in order]
    t = random.Random(f"{seed}/deck").randrange(len(dealt))
    while True:
        yield dealt[t % len(dealt)]
        t += 1


def request_rng(seed: int, i: int) -> random.Random:
    return random.Random(f"{seed}/request/{i}")


def corrupt(data):
    """Change one leaf of plain output data, to show that checks catch it.

    Prefers the first rational string, then the first integer, then the
    first boolean.
    """
    leaves = []

    def walk(node, setter):
        if isinstance(node, dict):
            for key in node:
                walk(node[key], lambda v, key=key, node=node: node.__setitem__(key, v))
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(item, lambda v, i=i, node=node: node.__setitem__(i, v))
        else:
            leaves.append((node, setter))

    box = [data]
    walk(data, lambda v: box.__setitem__(0, v))
    for want in ("str", "int", "bool"):
        for value, setter in leaves:
            if want == "str" and isinstance(value, str):
                try:
                    setter(str(Fraction(value) + 1))
                    return box[0]
                except (ValueError, ZeroDivisionError):
                    continue
            if want == "int" and isinstance(value, int) and not isinstance(value, bool):
                setter(value + 1)
                return box[0]
            if want == "bool" and isinstance(value, bool):
                setter(not value)
                return box[0]
    return ["corrupted", box[0]]


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    failed: int = 0
    wall_s: float = 0.0
    digest: str = ""
    digest_count: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled_latencies(self) -> list[float]:
        """Latencies in reference seconds, each scaled by the probes around it."""
        h = PROBE_HALF_WINDOW
        return [
            latency * PROBE_REF_S / statistics.median(self.probes[max(0, i - h): i + h + 1])
            for i, latency in enumerate(self.latencies)
        ]


def closed_loop(
    make_request: Callable[[str, random.Random], Request],
    deck: list[str],
    seed: int,
    seconds: float,
    min_requests: int = MIN_REQUESTS,
    max_requests: int | None = None,
    corrupt_every: int = 0,
    pause=None,
) -> LoopResult:
    """Run requests back to back until ``seconds`` have passed.

    Stops early at ``max_requests``.  Otherwise it runs on past the deadline
    until ``min_requests`` have completed and the last pass through the deck
    is whole, so every run holds each kind in exactly its deck share and the
    rare costly kinds do not move the mean from run to run.  ``pause`` is a
    context-manager factory wrapped around everything that is not the timed
    call (the tracer uses it to leave oracle work out of its spans).
    """
    pause = pause or nullcontext
    result = LoopResult()
    digest = hashlib.sha256()
    kinds = schedule(deck, seed)
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while max_requests is None or i < max_requests:
        if i >= min_requests and i % len(deck) == 0 and time.perf_counter() >= deadline:
            break
        kind = next(kinds)
        with pause():
            request = make_request(kind, request_rng(seed, i))
        result.probes.append(probe())
        ok = True
        t0 = time.perf_counter()
        try:
            output = request.call()
        except Exception:  # a raising request is a failed request
            ok = False
            result.failures.append(f"{kind}: {traceback.format_exc(limit=2)}")
        t1 = time.perf_counter()
        result.latencies.append(t1 - t0)
        if ok:
            with pause():
                try:
                    data = request.plain(output)
                    if corrupt_every and (i + 1) % corrupt_every == 0:
                        data = corrupt(data)
                    ok = bool(request.check(data))
                    if not ok:
                        result.failures.append(f"{kind}: check failed")
                except Exception:
                    ok = False
                    result.failures.append(f"{kind}: {traceback.format_exc(limit=2)}")
        if i < DIGEST_REQUESTS:
            digest.update(kind.encode())
            digest.update(json.dumps(data, sort_keys=True).encode() if ok else b"failed")
        if not ok:
            result.failed += 1
        i += 1
    result.wall_s = time.perf_counter() - start
    result.digest = digest.hexdigest()
    result.digest_count = min(i, DIGEST_REQUESTS)
    return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(loop: LoopResult, setup_s: float, rss_mb: float) -> dict:
    """End-to-end metrics; times in reference seconds (see the module docstring)."""
    scaled = loop.scaled_latencies()
    return {
        "latency_p50_s": (percentile(scaled, 0.5), "s"),
        "latency_p90_s": (percentile(scaled, 0.9), "s"),
        "throughput_rps": (loop.attempted / sum(scaled), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_ratio": (1 - loop.failed / loop.attempted, "ratio"),
    }


def timed_steps(steps) -> float:
    """Run the callables from ``steps`` in order; return their time in reference seconds.

    Probes are taken before every step and after the last one, and each
    step is scaled by the probes on both sides of it.
    """
    total = 0.0
    before = probe_median(3)
    for step in steps:
        t0 = time.perf_counter()
        step()
        elapsed = time.perf_counter() - t0
        after = probe_median(3)
        total += elapsed * PROBE_REF_S / ((before + after) / 2)
        before = after
    return total


def timed_setups(make_steps: Callable[[dict], object], repeats: int = SETUP_REPEATS):
    """Set up several times from scratch.

    ``make_steps(state)`` yields the set-up's steps, which leave what they
    build in ``state``.  Returns the median set-up time in reference seconds
    and the last state.
    """
    times, state = [], {}
    for _ in range(repeats):
        # free the previous import and its caches before timing the next
        state = {}
        forget_thrallkit()
        gc.collect()
        times.append(timed_steps(make_steps(state)))
    return statistics.median(times), state


def report(loop: LoopResult, metrics: dict, workload: str, seed: int) -> None:
    """Print the summary lines, then the result object as the last line."""
    for failure in loop.failures[:5]:
        print(f"failure: {failure.strip()}", file=sys.stderr)
    print(
        f"{workload} seed={seed}: {loop.attempted} requests in {loop.wall_s:.2f} s, "
        f"failed_ratio={loop.failed / loop.attempted:.4f}"
    )
    print(
        f"unscaled: p50={percentile(loop.latencies, 0.5):.4f} s "
        f"p90={percentile(loop.latencies, 0.9):.4f} s "
        f"throughput={loop.attempted / sum(loop.latencies):.3f}/s; "
        f"probe median={statistics.median(loop.probes) * 1e3:.3f} ms "
        f"(reference {PROBE_REF_S * 1e3:.3f} ms)"
    )
    print(f"digest sha256={loop.digest} over the first {loop.digest_count} requests")
    print(
        json.dumps(
            {
                "correct": loop.failed == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def traced_run(args, deck: list[str], untraced, start_tracing) -> None:
    """The traced run: the seed's first ``args.trace_requests`` requests,
    untraced and then traced.

    The request count is fixed, not set by ``--seconds``, so the per-layer
    totals of one seed do not grow when the program gets faster.
    ``start_tracing()`` is called between the two loops and returns the
    traced request factory, the tracer's pause context (or None) and
    ``collect()``.  ``collect()`` returns the keyword arguments of
    ``tracer.layer_metrics`` other than the overhead, and the span rows.
    """
    loop = partial(
        closed_loop, deck=deck, seed=args.seed, seconds=0, min_requests=args.trace_requests,
        max_requests=args.trace_requests, corrupt_every=args.corrupt_every,
    )
    base = loop(untraced)
    make_request, pause, collect = start_tracing()
    traced = loop(make_request, pause=pause)
    layers, rows = collect()
    overhead = sum(traced.scaled_latencies()) / sum(base.scaled_latencies())
    write_spans(OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz", rows)
    report(traced, layer_metrics(overhead=overhead, **layers), args.workload, args.seed)


# ---------------------------------------------------------------------------
# library objects to plain data, reading public attributes only


def tensor_plain(tensor) -> dict:
    """Nonzero entries of a dense tensor, keyed by digit-string words."""
    d, k = tensor.d, tensor.k
    out = {}
    for index, c in enumerate(tensor.entries):
        if c:
            digits = []
            for _ in range(k):
                index, r = divmod(index, d)
                digits.append(str(r + 1))
            out["".join(reversed(digits))] = fmt(c)
    return out


def series_plain(series) -> list:
    return [tensor_plain(level) for level in series.levels]


def group_plain(element) -> dict:
    return {
        "k": element.k,
        "terms": [
            {"cycles": cycles_of(perm), "coeff": fmt(c)}
            for perm, c in sorted(element.terms.items())
        ],
    }


def words_plain(coeffs: dict) -> dict:
    return {"".join(map(str, w)): fmt(c) for w, c in sorted(coeffs.items())}

