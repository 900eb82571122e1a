"""cli-cold: one fresh ``python -m thrallkit.cli`` process per request.

Every request pays interpreter start, the thrallkit import, JSON I/O and all
the lazy set-up the warm workloads hoist out (a degree-5 projector solve,
graded bases).  ``THRALLKIT_CACHE_DIR`` is removed from the child's
environment and ``--threads`` is never passed: both are the documented
defaults, so the disk cache is deliberately not measured.

Set-up writes a pool of input files from the seed and is timed as the
median wall time of fresh ``thrallkit --help`` processes, in reference
seconds (see ``harness``).
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import harness
import oracles as ora
from harness import Request
from signature_warm import lattice_path

HELP_REPEATS = 9
POOL = 6
TIMEOUT_S = 120
CHILD = Path(__file__).resolve().parent / "cli_child.py"
PARTITIONS_4 = tuple(ora.partitions(4))
PARTITIONS_5 = tuple(ora.partitions(5))

# Kind -> copies per deck pass, in ascending expected cost.  The shares put
# the 90th percentile inside the paper-suite block, below the three kinds
# that pay a cold degree-5 projector solve or a degree-6 invariant solve.
DECK_COUNTS = {
    "malformed": 4,
    "check-lie": 4,
    "dims": 4,
    "lyndon": 4,
    "thrall-coeffs": 4,
    "signature-log": 6,
    "check-group-like": 4,
    "idempotent-k4-mu": 4,
    "invariants": 5,
    "check-fls": 5,
    "decompose-2x4": 5,
    "paper-suite": 8,
    "idempotent-k5": 1,
    "decompose-2x5": 1,
    "invariant-space": 1,
}
DECK = [kind for kind, n in DECK_COUNTS.items() for _ in range(n)]
# The traced run makes one pass of the deck.
TRACE_REQUESTS = len(DECK)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("THRALLKIT_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(harness.SRC), env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# input files


def _path_json(points):
    return {"d": len(points[0]), "points": [[str(x) for x in p] for p in points]}


def _tensor_json(d, k, terms):
    return {"d": d, "k": k, "entries": {ora.word_str(w): ora.fmt(c) for w, c in sorted(terms.items()) if c}}


def write_inputs(directory: Path, seed: int) -> dict:
    """Write the seeded input pool; return {pool name: [(file, facts)]}."""
    rng = random.Random(f"{seed}/cli-inputs")
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    pools: dict = {}

    def add(pool, index, payload, **facts):
        path = directory / f"{pool}-{index}.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        pools.setdefault(pool, []).append((str(path), facts))

    for i in range(POOL):
        for d, k in ((2, 4), (2, 5)):
            terms = {w: rng.randint(-5, 5) for w in ora.all_words(d, k)}
            add(f"tensor-{d}x{k}", i, _tensor_json(d, k, terms), terms=terms, d=d, k=k)
        points = lattice_path(rng, 2, 10)
        add("path", i, _path_json(points), points=points)
        collinear = i % 2 == 0
        points = lattice_path(rng, 2, 8, collinear)
        add("fls-path", i, _path_json(points), points=points)
        # genuine signatures are group-like; one changed level-2 entry is not
        points = lattice_path(rng, 2, 5)
        sig = ora.integration_signature(points, 4)
        genuine = i % 2 == 0
        if not genuine:
            sig[(1, 2)] = sig.get((1, 2), 0) + 1
        levels = [
            {ora.word_str(w): ora.fmt(c) for w, c in sorted(sig.items()) if len(w) == k and c}
            for k in range(5)
        ]
        add("series", i, {"d": 2, "k_max": 4, "levels": levels}, group_like=genuine)
        d = rng.choice((2, 3))
        if i % 2 == 0:
            words = ora.lyndon_words(d, 4)
            terms = ora.lie_expand({w: rng.randint(-3, 3) or 1 for w in rng.sample(words, min(3, len(words)))})
        else:
            terms = {w: rng.randint(-2, 2) for w in ora.all_words(d, 4)}
        add("lie-tensor", i, _tensor_json(d, 4, terms), lie=ora.is_lie_tensor(terms, d, 4))
    malformed = [
        ("decompose", "--tensor", '{"d": 2, "k": '),
        ("decompose", "--tensor", json.dumps({"d": 2, "k": 2, "entries": {"12": "1/0"}})),
        ("decompose", "--tensor", json.dumps({"d": 2, "k": 2, "entries": {"13": "1"}})),
        ("signature", "--path", json.dumps({"d": 2})),
    ]
    for i, (command, flag, text) in enumerate(malformed):
        add("malformed", i, text, command=command, flag=flag)
    return pools


# ---------------------------------------------------------------------------
# requests


class Cli:
    """Launches one CLI process per call and records what it read and wrote."""

    def __init__(self, traced_summaries: list | None = None):
        self.env = child_env()
        self.traced = traced_summaries
        self.bytes_in = 0
        self.bytes_out = 0
        self.summary_path = harness.OUT / "cli-child-summary.json"

    def __call__(self, argv: list[str], files: tuple[str, ...] = ()):
        if self.traced is None:
            command = [sys.executable, "-m", "thrallkit.cli", *argv]
        else:
            command = [sys.executable, str(CHILD), str(self.summary_path), *argv]
            self.summary_path.unlink(missing_ok=True)
        proc = subprocess.run(
            command, capture_output=True, text=True, env=self.env,
            cwd=harness.ROOT, timeout=TIMEOUT_S,
        )
        self.bytes_in += sum(os.path.getsize(f) for f in files)
        self.bytes_out += len(proc.stdout.encode())
        if self.traced is not None:
            self.traced.append(json.loads(self.summary_path.read_text()))
        return proc


def _stdout_json(proc):
    return json.loads(proc.stdout) if proc.stdout.strip() else None


def make_request(cli: Cli, pools: dict, parent, kind: str, rng) -> Request:
    """``parent`` lazily provides in-process library oracles (the solve backend)."""

    def simple(argv, expected_exit, check_payload, files=(), plain=None):
        def to_plain(proc):
            payload = _stdout_json(proc)
            return {"exit": proc.returncode, "stdout": plain(payload) if plain else payload}

        def check(data):
            return data["exit"] == expected_exit and check_payload(data["stdout"])

        return Request(lambda: cli(argv, files), to_plain, check)

    if kind.startswith("decompose-"):
        path, facts = rng.choice(pools[f"tensor-{kind.split('-')[1]}"])
        return simple(["decompose", "--tensor", path], 0,
                      lambda p: _check_decompose(p, facts, parent), files=(path,))
    if kind == "idempotent-k5":
        lam = rng.choice(PARTITIONS_5)
        return simple(["idempotent", "--k", "5", "--partition", _part(lam)], 0,
                      lambda p: p["k"] == 5 and bool(ora.group_element(p)) and ora.is_idempotent(ora.group_element(p)))
    if kind == "idempotent-k4-mu":
        lam, mu = rng.choice(PARTITIONS_4), rng.choice(PARTITIONS_4)
        multiplicity = parent().symfun.thrall_coefficients(lam).get(mu, 0)
        return simple(
            ["idempotent", "--k", "4", "--partition", _part(lam), "--intersect-mu", _part(mu)], 0,
            lambda p: p["k"] == 4 and ora.is_idempotent(ora.group_element(p))
            and bool(ora.group_element(p)) == bool(multiplicity),
        )
    if kind == "invariants":
        return simple(["invariants", "--d", "2", "--ell", "2"], 0,
                      lambda p: _check_invariants([b["terms"] for basis in p.values() for b in basis], 2, 4, rng))
    if kind == "invariant-space":
        return simple(["invariant-space", "--d", "3", "--k", "6"], 0,
                      lambda p: _check_invariants([b["terms"] for b in p], 3, 6, rng))
    if kind == "signature-log":
        path, facts = rng.choice(pools["path"])
        return simple(["signature", "--path", path, "--level", "4", "--log"], 0,
                      lambda p: _check_log_signature(p, facts["points"]), files=(path,))
    if kind == "check-fls":
        path, facts = rng.choice(pools["fls-path"])
        segment = ora.segment_equivalent(facts["points"])
        return simple(["check", "fls", "--input", path, "--level", "4"], 0 if segment else 1,
                      lambda p: p["passed"] is segment and p["consistent"] is True, files=(path,))
    if kind == "check-group-like":
        path, facts = rng.choice(pools["series"])
        return simple(["check", "group-like", "--input", path, "--level", "4"],
                      0 if facts["group_like"] else 1,
                      lambda p: p["passed"] is facts["group_like"], files=(path,))
    if kind == "check-lie":
        path, facts = rng.choice(pools["lie-tensor"])
        return simple(["check", "lie", "--input", path], 0 if facts["lie"] else 1,
                      lambda p: p["passed"] is facts["lie"], files=(path,))
    if kind == "thrall-coeffs":
        return simple(["thrall-coeffs", "--k", "5"], 0, _check_thrall_coefficients)
    if kind == "dims":
        d, k = rng.choice((2, 3)), rng.choice((3, 4, 5))
        return simple(["dims", "--d", str(d), "--k", str(k)], 0, lambda p: _check_dims(p, d, k))
    if kind == "lyndon":
        d, k = rng.choice((2, 3)), rng.choice((4, 5))
        expected = [ora.word_str(w) for n in range(1, k + 1) for w in ora.lyndon_words(d, n)]
        return simple(["lyndon", "--d", str(d), "--k", str(k), "--upto"], 0,
                      lambda p: p["words"] == expected)
    if kind == "paper-suite":
        return simple(["paper-suite"], 0,
                      lambda p: p["passed"] is True and len(p["checks"]) > 0 and all(p["checks"]),
                      plain=lambda p: {"passed": p["passed"], "checks": [c["passed"] for c in p["checks"]]})
    if kind == "malformed":
        path, facts = rng.choice(pools["malformed"])
        argv = [facts["command"], facts["flag"], path]
        if facts["command"] == "signature":
            argv += ["--level", "3"]
        return simple(argv, 2, lambda p: p is None, files=(path,))
    raise ValueError(f"unknown request kind {kind!r}")


def _part(lam) -> str:
    return ",".join(map(str, lam))


def _check_decompose(payload, facts, parent) -> bool:
    d, k, terms = facts["d"], facts["k"], facts["terms"]
    if any((component["d"], component["k"]) != (d, k) for component in payload.values()):
        return False
    if not ora.check_decomposition({key: c["entries"] for key, c in payload.items()}, terms, k):
        return False
    # the solve backend, in this process, must give the same components
    tk = parent()
    solved = tk.free_lie.thrall_decompose(tk.tensors.Tensor.from_dict(d, k, terms), "solve")
    return all(
        ora.parse_terms(payload[_part(lam)]["entries"]) == ora.parse_terms(harness.tensor_plain(t))
        for lam, t in solved.items()
    )


def _check_invariants(functionals, d, k, rng) -> bool:
    terms = [ora.parse_terms(f) for f in functionals]
    # invariants of degree k = d * ell span a space of dimension f^(ell^d)
    if len(terms) != ora.num_standard((k // d,) * d) or not all(terms):
        return False
    return all(ora.functional_invariant(t, d, rng) for t in terms)


def _check_log_signature(payload, points) -> bool:
    log = {w: c for level in payload["levels"] for w, c in ora.parse_terms(level).items()}
    return ora.exp_series(log, payload["k_max"]) == ora.integration_signature(points, payload["k_max"])


def _check_thrall_coefficients(payload) -> bool:
    # the multilinear part of the lam-graded module has one basis vector per
    # permutation of cycle type lam, and the Schur module for mu has f^mu
    if set(payload) != {_part(lam) for lam in PARTITIONS_5}:
        return False
    for lam in PARTITIONS_5:
        row = payload[_part(lam)]
        total = sum(a * ora.num_standard(tuple(int(x) for x in mu.split(","))) for mu, a in row.items())
        if total != ora.class_size(lam):
            return False
    return True


def _check_dims(payload, d, k) -> bool:
    if payload["lie_dims"] != {str(i): ora.witt(d, i) for i in range(1, k + 1)}:
        return False
    if sum(payload["w_dims"].values()) != d**k:
        return False
    parts = list(ora.partitions(k))
    if payload["schur_dims"] != {_part(mu): ora.schur_dim(mu, d) for mu in parts}:
        return False
    return payload["multiplicities"] == {_part(mu): ora.num_standard(mu) for mu in parts}


# ---------------------------------------------------------------------------
# the run


def _help_wall_time(env) -> float:
    """Wall time of one ``thrallkit --help`` process, in reference seconds."""
    return harness.timed_steps([lambda: subprocess.run(
        [sys.executable, "-m", "thrallkit.cli", "--help"], env=env, cwd=harness.ROOT,
        capture_output=True, check=True, timeout=TIMEOUT_S,
    )])


def run(args) -> None:
    inputs = harness.OUT / f"cli-inputs-seed{args.seed}"
    pools = write_inputs(inputs, args.seed)
    tk_box: list = []

    def parent():
        if not tk_box:
            tk_box.append(harness.import_thrallkit())
        return tk_box[0]

    def requests(cli):
        return lambda kind, rng: make_request(cli, pools, parent, kind, rng)

    def start_tracing():
        summaries: list = []
        cli = Cli(summaries)

        def collect():
            cli.summary_path.unlink(missing_ok=True)
            layers = dict(
                summary=_merge(summaries),
                bracket=tuple(sum(s["bracket"][i] for s in summaries) for i in (0, 1)),
                startup_s=statistics.median(s["startup_s"] for s in summaries),
                bytes_in=cli.bytes_in,
                bytes_out=cli.bytes_out,
            )
            rows = [
                (sid, parent_id, request, name, start, end)
                for request, s in enumerate(summaries)
                for sid, parent_id, _, name, start, end in s["span_rows"]
            ]
            return layers, rows

        return requests(cli), None, collect

    try:
        if args.trace:
            harness.traced_run(args, DECK, requests(Cli()), start_tracing)
            return
        env = child_env()
        setup_s = statistics.median(_help_wall_time(env) for _ in range(HELP_REPEATS))
        result = harness.closed_loop(
            requests(Cli()), deck=DECK, seed=args.seed, seconds=args.seconds,
            min_requests=args.min_requests, corrupt_every=args.corrupt_every,
        )
        rss = harness.peak_rss_mb(resource.RUSAGE_CHILDREN)
        harness.report(result, harness.end_to_end(result, setup_s, rss), args.workload, args.seed)
    finally:
        shutil.rmtree(inputs)


def _merge(summaries: list) -> dict:
    merged = {"calls": {}, "self_s": {}, "counters": {}, "projector_first_s": 0.0}
    for s in summaries:
        for key in ("calls", "self_s"):
            for name, value in s[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, value in s["counters"].items():
            if name == "linalg.max_cols":
                merged["counters"][name] = max(merged["counters"].get(name, 0), value)
            else:
                merged["counters"][name] = merged["counters"].get(name, 0) + value
        merged["projector_first_s"] += s["projector_first_s"]
    return merged
