"""Per-module spans recorded from outside the library.

``Tracer.install`` replaces every public module-level function of the
traced thrallkit modules with a timing wrapper, in every thrallkit
namespace that holds a reference to it, so ``from .x import y`` bindings
and re-exports are traced too.  Calls made through a module attribute at
call time (including function-local imports) find the wrapper as well.

Spans are kept in flat arrays in memory and written out once, at the end of
the run.  A module's self time is the duration of its spans minus the time
covered by their child spans.  The hot scalar helpers in ``words`` and
``permutations`` are only counted: timing them would cost more than they do,
so their time stays in the calling span.

Public methods of classes (``Tensor.__add__``, ``TensorSeries.level``, ...)
are not wrapped; their time is part of the calling function's self time.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "thrallkit"
SPAN_MODULES = (
    "linalg", "tensors", "free_lie", "group_algebra", "shuffle_sig",
    "invariants", "symfun", "rank_variety", "jsonio", "reference_suite", "cli",
)
COUNT_MODULES = ("permutations", "words")
COUNTERS = ("linalg.cells", "linalg.max_cols", "tensors.entries_out", "group_algebra.act_cells")


def _rref_size(tracer, args, result):
    rows = result[0]
    cols = len(rows[0]) if rows else 0
    tracer.cells(len(rows) * cols, cols)


def _determinant_size(tracer, args, result):
    n = len(args[0])
    tracer.cells(n * n, n)


def _entries_out(tracer, args, result):
    tracer.counters["tensors.entries_out"] += len(result.entries)


def _series_entries_out(tracer, args, result):
    tracer.counters["tensors.entries_out"] += sum(len(t.entries) for t in result.levels)


def _act_cells(tracer, args, result):
    element, tensor = args[0], args[1]
    tracer.counters["group_algebra.act_cells"] += len(element.terms) * len(tensor.entries)


SIZERS = {
    "linalg.rref": _rref_size,
    "linalg.determinant": _determinant_size,
    "tensors.tensor_product": _entries_out,
    "tensors.permute_slots": _entries_out,
    "tensors.series_product": _series_entries_out,
    "group_algebra.ga_act": _act_cells,
}


class Tracer:
    def __init__(self):
        self.enabled = True
        self.names: list[str] = []
        self._open: list[int] = []
        self._child: list[float] = []
        self._next = 0
        self.request = -1
        self.first_degrees: set[int] = set()
        self.projector_first_s = 0.0
        self.installed: dict[str, object] = {}
        self.reset()

    def reset(self) -> None:
        """Drop collected spans and counters (first-call times are kept)."""
        self.calls = {m: 0 for m in SPAN_MODULES + COUNT_MODULES}
        self.self_s = {m: 0.0 for m in SPAN_MODULES}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_request = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    def cells(self, cells: int, cols: int) -> None:
        self.counters["linalg.cells"] += cells
        if cols > self.counters["linalg.max_cols"]:
            self.counters["linalg.max_cols"] = cols

    @contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        replacements: dict[int, tuple[object, object]] = {}
        for short in SPAN_MODULES + COUNT_MODULES:
            module = sys.modules.get(f"{PACKAGE}.{short}")
            if module is None:
                continue
            for name, obj in vars(module).items():
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                qualified = f"{short}.{name}"
                if short in COUNT_MODULES:
                    wrapper = self._counter(short, obj)
                else:
                    wrapper = self._span(short, qualified, obj)
                replacements[id(obj)] = (obj, wrapper)
                self.installed[qualified] = obj
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for name, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])

    def _counter(self, module: str, fn):
        def counted(*args, **kwargs):
            if self.enabled:
                self.calls[module] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _span(self, module: str, qualified: str, fn):
        name_id = len(self.names)
        self.names.append(qualified)
        sizer = SIZERS.get(qualified)
        is_projector = qualified == "group_algebra.higher_lie_idempotent"
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._next
            self._next += 1
            parent = self._open[-1] if self._open else -1
            self._open.append(sid)
            self._child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._open.pop()
                child = self._child.pop()
                duration = t1 - t0
                if self._child:
                    self._child[-1] += duration
                self.calls[module] += 1
                self.self_s[module] += duration - child
                self.span_id.append(sid)
                self.span_parent.append(parent)
                self.span_name.append(name_id)
                self.span_request.append(self.request)
                self.span_start.append(t0)
                self.span_end.append(t1)
            if sizer is not None:
                sizer(self, args, result)
            if is_projector:
                self._first_projector(args, kwargs, duration)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def _first_projector(self, args, kwargs, duration: float) -> None:
        lam = args[0] if args else kwargs.get("lam")
        degree = sum(lam)
        if degree not in self.first_degrees:
            self.first_degrees.add(degree)
            self.projector_first_s += duration

    # -- results -----------------------------------------------------------

    def bracket_cache(self) -> tuple[int, int]:
        """(hits, misses) of ``free_lie.bracket_expansion`` so far."""
        original = self.installed.get("free_lie.bracket_expansion")
        if original is None:
            return 0, 0
        info = original.cache_info()
        return info.hits, info.misses

    def summary(self) -> dict:
        """Aggregates as plain data, mergeable across processes."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "projector_first_s": self.projector_first_s,
            "spans": len(self.span_id),
        }

    def span_rows(self):
        for i in range(len(self.span_id)):
            yield (
                self.span_id[i], self.span_parent[i], self.span_request[i],
                self.names[self.span_name[i]], self.span_start[i], self.span_end[i],
            )


def write_spans(path: Path, rows) -> None:
    """Write (span, parent, request, function, start, end) rows, gzip-compressed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as out:
        out.write("span\tparent\trequest\tfunction\tstart_s\tend_s\n")
        for row in rows:
            out.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % row)


def layer_metrics(summary: dict, bracket: tuple[int, int], overhead: float,
                  startup_s: float = 0.0, bytes_in: int = 0, bytes_out: int = 0) -> dict:
    """The per-layer metrics, named as in BENCHMARK.json: name -> (value, unit)."""
    metrics = {}
    for module in SPAN_MODULES:
        metrics[f"{module}.calls"] = (summary["calls"][module], "count")
        metrics[f"{module}.self_s"] = (summary["self_s"][module], "s")
    for module in COUNT_MODULES:
        metrics[f"{module}.calls"] = (summary["calls"][module], "count")
    for name in COUNTERS:
        metrics[name] = (summary["counters"][name], "count")
    hits, misses = bracket
    metrics.update({
        "group_algebra.projector_first_s": (summary["projector_first_s"], "s"),
        "free_lie.bracket_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "cli.startup_s": (startup_s, "s"),
        "jsonio.bytes_in": (bytes_in, "B"),
        "jsonio.bytes_out": (bytes_out, "B"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return metrics
