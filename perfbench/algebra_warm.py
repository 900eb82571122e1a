"""algebra-warm: representation-theory calls on warm caches, in one process.

Set-up imports thrallkit and makes one warm-up call per distinct operation
and shape, which fills the projector table, the graded bases and the
``@cache`` tables.  Requests then pay only their own solves, ranks and slot
actions.
"""

from __future__ import annotations

import math
from fractions import Fraction

import oracles as ora
from harness import Request, group_plain, tensor_plain, words_plain

AUTO_SHAPES = ((2, 4), (3, 4), (2, 5), (2, 6), (3, 5))
# The solve backend at (3, 5) takes seconds per call, so the forced-solve
# share stays on the smaller shapes.
SOLVE_SHAPES = ((2, 4), (3, 4), (2, 5))
# Shapes whose two backends are compared on a sample: k = 6 has no
# projector route and the (3, 5) solve is too slow to repeat.
CROSS_CHECK_SHAPES = ((2, 4), (3, 4), (2, 5))
CROSS_CHECK_SHARE = 0.25
PARTITIONS_4 = tuple(ora.partitions(4))

# Kind -> copies per deck pass, in ascending expected cost.  The shares put
# the median inside the decompose-auto-3x4 block and the 90th percentile
# inside the block of 0.1-0.15 s decompositions, below the six slowest kinds.
DECK_COUNTS = {
    "intersection": 11,
    "decompose-solve-2x4": 4,
    "path-invariants": 8,
    "decompose-auto-2x4": 10,
    "decompose-solve-2x5": 4,
    "lie-bracket": 4,
    "decompose-auto-3x4": 17,
    "decompose-auto-2x5": 13,
    "decompose-auto-2x6": 10,
    "decompose-solve-3x4": 13,
    **{"operator-rank-" + "".join(map(str, lam)): 1 for lam in PARTITIONS_4},
    "decompose-auto-3x5": 1,
}
DECK = [kind for kind, n in DECK_COUNTS.items() for _ in range(n)]
# The traced run makes one pass of the deck.
TRACE_REQUESTS = len(DECK)


def warmup_steps(tk):
    """One call per distinct operation and shape, as separate steps."""
    decompose = tk.free_lie.thrall_decompose
    for d, k in AUTO_SHAPES:
        yield lambda d=d, k=k: decompose(_tensor(tk, d, k, {(1,) * k: 1}), "auto")
    for d, k in SOLVE_SHAPES:
        yield lambda d=d, k=k: decompose(_tensor(tk, d, k, {(1,) * k: 1}), "solve")
    ga = tk.group_algebra
    yield lambda: ga.operator_rank(ga.higher_lie_idempotent((4,)), 3)
    yield lambda: tk.invariants.path_invariants(2, 2)
    yield lambda: ga.intersection_projector((2, 1, 1), (2, 1, 1))
    one = tk.free_lie.LieElement(3, 4, {(1,): 1, (2, 3): 1})
    yield lambda: tk.free_lie.lie_bracket(one, one)


def _tensor(tk, d, k, terms):
    return tk.tensors.Tensor.from_dict(d, k, terms)


def make_request(tk, kind: str, rng) -> Request:
    if kind.startswith("decompose-"):
        _, method, shape = kind.split("-")
        d, k = (int(x) for x in shape.split("x"))
        return _decompose(tk, d, k, method, rng)
    if kind.startswith("operator-rank-"):
        return _operator_rank(tk, tuple(int(x) for x in kind.rsplit("-", 1)[1]))
    return {
        "path-invariants": _path_invariants,
        "intersection": _intersection,
        "lie-bracket": _lie_bracket,
    }[kind](tk, rng)


def _decompose(tk, d, k, method, rng) -> Request:
    terms = {w: rng.randint(-5, 5) for w in ora.all_words(d, k)}
    tensor = _tensor(tk, d, k, terms)
    cross = (d, k) in CROSS_CHECK_SHAPES and rng.random() < CROSS_CHECK_SHARE
    decompose = tk.free_lie.thrall_decompose

    def plain(components):
        return {",".join(map(str, lam)): tensor_plain(t) for lam, t in components.items()}

    def check(data):
        if not ora.check_decomposition(data, terms, k):
            return False
        if cross:
            other = "idempotent" if method == "solve" else "solve"
            return plain(decompose(tensor, other)) == data
        return True

    return Request(lambda: decompose(tensor, method), plain, check)


def _operator_rank(tk, lam) -> Request:
    ga = tk.group_algebra
    # dim W_lam = prod over part sizes i of multichoose(witt(3, i), multiplicity)
    expected = math.prod(
        math.comb(ora.witt(3, i) + lam.count(i) - 1, lam.count(i)) for i in set(lam)
    )
    return Request(
        lambda: ga.operator_rank(ga.higher_lie_idempotent(lam), 3),
        lambda r: r,
        lambda r: r == expected,
    )


def _path_invariants(tk, rng) -> Request:
    def plain(table):
        return {
            ",".join(map(str, lam)): [words_plain(beta.terms) for beta in basis]
            for lam, basis in table.items()
        }

    def check(data):
        functionals = [ora.parse_terms(b) for basis in data.values() for b in basis]
        # the invariants of degree 4 in the plane span a space of dimension
        # f^(2,2), split without loss across the graded pieces
        if len(functionals) != ora.num_standard((2, 2)):
            return False
        return all(f and ora.functional_invariant(f, 2, rng) for f in functionals)

    return Request(lambda: tk.invariants.path_invariants(2, 2), plain, check)


def _intersection(tk, rng) -> Request:
    lam, mu = rng.choice(PARTITIONS_4), rng.choice(PARTITIONS_4)
    multiplicity = tk.symfun.thrall_coefficients(lam).get(mu, 0)

    def check(data):
        element = ora.group_element(data)
        return data["k"] == 4 and ora.is_idempotent(element) and bool(element) == bool(multiplicity)

    return Request(
        lambda: tk.group_algebra.intersection_projector(lam, mu),
        group_plain,
        check,
    )


def _lie_bracket(tk, rng) -> Request:
    # two nonzero coefficients in every degree, so every graded pair is bracketed
    by_degree = [ora.lyndon_words(3, k) for k in range(1, 5)]

    def random_coeffs():
        return {
            w: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
            for words in by_degree
            for w in rng.sample(words, 2)
        }

    a, b = random_coeffs(), random_coeffs()
    left = tk.free_lie.LieElement(3, 4, a)
    right = tk.free_lie.LieElement(3, 4, b)

    def check(data):
        got = ora.lie_expand(ora.parse_terms(data))
        return got == ora.commutator(ora.lie_expand(a), ora.lie_expand(b), 4)

    return Request(
        lambda: tk.free_lie.lie_bracket(left, right),
        lambda r: words_plain(r.coeffs),
        check,
    )
