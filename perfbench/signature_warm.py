"""signature-warm: signatures and log-signatures of lattice paths, in one process.

Each request computes the signature, the log-signature, the Lyndon
coordinates of every log-signature level and the group-likeness test; some
also run the straight-line criteria.  The shapes (d, level) are those whose
Lyndon brackets are known to be triangular: (2, 6), (3, 5) and (4, 4), plus
the smaller levels.  The projector family is never touched.
"""

from __future__ import annotations

from fractions import Fraction

import oracles as ora
from harness import Request, series_plain, words_plain

# (d, level, vertices, straight-line check) per deck entry, in ascending
# expected cost.
DECK_ENTRIES = [
    (2, 4, 10, False), (2, 4, 20, False), (2, 5, 10, False), (3, 4, 10, False),
    (2, 4, 40, False), (2, 4, 30, True), (2, 5, 30, False), (3, 4, 20, False),
    (2, 5, 20, True), (2, 5, 40, False), (2, 6, 20, False), (2, 6, 10, True),
    (3, 4, 30, False), (2, 6, 30, False), (4, 4, 10, False), (3, 5, 10, False),
]
DECK = ["-".join(str(int(x)) for x in entry) for entry in DECK_ENTRIES]
# The traced run makes four passes of the deck.
TRACE_REQUESTS = 4 * len(DECK)
SHAPES = sorted({(d, level) for d, level, _, _ in DECK_ENTRIES})
# Share of requests whose signature is compared with polynomial integration.
ORACLE_SHARE = 0.125
# Share of straight-line requests that use a collinear path.
COLLINEAR_SHARE = 0.5


def warmup_steps(tk):
    """One request per shape, on a two-segment path, as separate steps."""
    for d, level in SHAPES:
        path = tk.shuffle_sig.PiecewiseLinearPath.from_lists(
            [[0] * d, [1] * d, [1] + [2] * (d - 1)]
        )
        yield lambda path=path, level=level: _compute(tk, path, level, fls=True)


def _compute(tk, path, level: int, fls: bool):
    sig = tk.shuffle_sig.signature(path, level)
    log = tk.shuffle_sig.log_signature(path, level)
    coords = [tk.free_lie.lie_coordinates(log.level(k)) for k in range(1, level + 1)]
    group_like = tk.shuffle_sig.is_group_like(sig)
    report = tk.rank_variety.fls_check(path, level) if fls else None
    return sig, log, coords, group_like, report


def lattice_path(rng, d: int, vertices: int, collinear: bool = False) -> list[tuple[int, ...]]:
    """Integer path from the origin with a nonzero total increment."""
    while True:
        points = [(0,) * d]
        direction = tuple(rng.randint(-2, 2) for _ in range(d))
        for _ in range(vertices - 1):
            if collinear:
                t = rng.choice((-2, -1, 1, 2, 3))
                step = tuple(t * x for x in direction)
            else:
                step = tuple(rng.randint(-2, 2) for _ in range(d))
            points.append(tuple(p + s for p, s in zip(points[-1], step)))
        if any(points[-1]):
            return points


def make_request(tk, kind: str, rng) -> Request:
    d, level, vertices, fls = (int(x) for x in kind.split("-"))
    collinear = bool(fls) and rng.random() < COLLINEAR_SHARE
    points = lattice_path(rng, d, vertices, collinear)
    path = tk.shuffle_sig.PiecewiseLinearPath.from_lists(points)
    use_oracle = rng.random() < ORACLE_SHARE

    def plain(out):
        sig, log, coords, group_like, report = out
        return {
            "signature": series_plain(sig),
            "log_signature": series_plain(log),
            "lie_coordinates": [None if c is None else words_plain(c) for c in coords],
            "group_like": group_like,
            "straight_line": None if report is None else report.as_dict(),
        }

    def check(data):
        return _check(tk, data, d, level, points, bool(fls), use_oracle)

    return Request(lambda: _compute(tk, path, level, bool(fls)), plain, check)


def _series(tk, d: int, levels: list[dict]):
    Tensor = tk.tensors.Tensor
    return tk.tensors.TensorSeries(
        d, tuple(Tensor.from_dict(d, k, ora.parse_terms(lv)) for k, lv in enumerate(levels))
    )


def _check(tk, data, d, level, points, fls, use_oracle) -> bool:
    sig, log = data["signature"], data["log_signature"]
    if len(sig) != level + 1 or sig[0] != {"": "1"} or data["group_like"] is not True:
        return False
    # the exponential of the log-signature is the signature
    if series_plain(tk.free_lie.exp_truncated(_series(tk, d, log))) != sig:
        return False
    # Lyndon coordinates rebuild every log-signature level
    for k, coords in enumerate(data["lie_coordinates"], start=1):
        if coords is None or ora.lie_expand(ora.parse_terms(coords)) != ora.parse_terms(log[k]):
            return False
    if use_oracle:
        expected = ora.integration_signature(points, level)
        got = {w: c for lv in sig for w, c in ora.parse_terms(lv).items()}
        got[()] = Fraction(1)
        if got != expected:
            return False
    if fls:
        report = data["straight_line"]
        return report["consistent"] is True and report["is_segment"] == ora.segment_equivalent(points)
    return data["straight_line"] is None
