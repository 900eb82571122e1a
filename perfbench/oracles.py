"""Independent oracles for checking benchmark outputs.

Nothing here imports thrallkit: every check re-derives the answer with its
own small implementation (polynomial integration for signatures, a sparse
word algebra for exp and brackets, explicit convolution for the group
algebra, closed counting formulas for dimensions).  Outputs arrive as plain
JSON data, either parsed from CLI stdout or converted from library objects
by the benchmark, with rationals as "p/q" strings and words as digit strings.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache


def fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def word_of(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text)


def word_str(word) -> str:
    return "".join(str(x) for x in word)


def parse_terms(entries: dict) -> dict:
    """{"112": "3/2"} -> {(1, 1, 2): Fraction(3, 2)}, zeros dropped."""
    out = {}
    for key, value in entries.items():
        c = Fraction(value)
        if c:
            out[word_of(key)] = c
    return out


def all_words(d: int, k: int):
    return itertools.product(range(1, d + 1), repeat=k)


# ---------------------------------------------------------------------------
# signatures by polynomial integration


def _integrate(coeffs):
    return [Fraction(0)] + [c / (i + 1) for i, c in enumerate(coeffs)]


def integration_signature(points, k_max: int) -> dict:
    """Signature coordinates {word: value} for all words of length 1..k_max.

    On a segment with constant velocity v the integral for word w + (a,)
    grows by v_a times the running integral for w; everything stays a
    polynomial in the segment parameter and is integrated exactly.
    """
    d = len(points[0])
    words = [w for k in range(1, k_max + 1) for w in all_words(d, k)]
    values = {w: Fraction(0) for w in words}
    for start, end in zip(points, points[1:]):
        v = [Fraction(e) - Fraction(s) for s, e in zip(start, end)]
        polys = {(): [Fraction(1)]}
        for w in words:
            poly = _integrate([c * v[w[-1] - 1] for c in polys[w[:-1]]])
            poly[0] = values[w]
            polys[w] = poly
        for w in words:
            values[w] = sum(polys[w], Fraction(0))
    values[()] = Fraction(1)
    return {w: c for w, c in values.items() if c}


def segment_equivalent(points) -> bool:
    """True when the path's signature is that of one straight segment.

    Drops zero increments and merges adjacent parallel increments until
    nothing changes; adjacent increments on one line commute, so this keeps
    the signature.  Segment-equivalent iff at most one increment is left.
    """
    pts = [tuple(Fraction(x) for x in p) for p in points]
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(pts):
            if pts[i] == pts[i + 1]:
                del pts[i + 1]
                changed = True
            else:
                i += 1
        i = 0
        while i + 2 < len(pts):
            u = [b - a for a, b in zip(pts[i], pts[i + 1])]
            v = [b - a for a, b in zip(pts[i + 1], pts[i + 2])]
            if all(u[a] * v[b] == u[b] * v[a] for a in range(len(u)) for b in range(a)):
                del pts[i + 1]
                changed = True
            else:
                i += 1
    return len(pts) <= 2


def apply_matrix(g, points):
    return [tuple(sum(Fraction(g[r][c]) * Fraction(p[c]) for c in range(len(p))) for r in range(len(g))) for p in points]


def unimodular(d: int, rng, steps: int = 5):
    """Integer matrix of determinant one: a product of elementary shears."""
    g = [[int(r == c) for c in range(d)] for r in range(d)]
    for _ in range(steps):
        a, b = rng.sample(range(d), 2)
        f = rng.choice((-2, -1, 1, 2))
        g[a] = [x + f * y for x, y in zip(g[a], g[b])]
    return g


def functional_invariant(terms: dict, d: int, rng) -> bool:
    """Sampled invariance under a determinant-one map, on an exact signature.

    The signature of g.X at level k is g acting on every slot of the
    signature of X, so an invariant functional takes the same value on both.
    """
    k = max(len(w) for w in terms)
    points = [tuple([0] * d)]
    for _ in range(3):
        points.append(tuple(p + rng.randint(-3, 3) for p in points[-1]))
    g = unimodular(d, rng)
    before = integration_signature(points, k)
    after = integration_signature(apply_matrix(g, points), k)
    zero = Fraction(0)
    value = sum((c * before.get(w, zero) for w, c in terms.items()), zero)
    moved = sum((c * after.get(w, zero) for w, c in terms.items()), zero)
    return value == moved


# ---------------------------------------------------------------------------
# the tensor algebra on sparse word dictionaries


def product(a: dict, b: dict, k_max: int) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) <= k_max:
                w = wa + wb
                out[w] = out.get(w, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def exp_series(x: dict, k_max: int) -> dict:
    """Truncated exponential of a series with no constant term."""
    result = {(): Fraction(1)}
    power = {(): Fraction(1)}
    for n in range(1, k_max + 1):
        power = product(power, x, k_max)
        for w, c in power.items():
            result[w] = result.get(w, 0) + c / math.factorial(n)
    return {w: c for w, c in result.items() if c}


def is_lyndon(word) -> bool:
    return all(word < word[i:] + word[:i] for i in range(1, len(word)))


def lyndon_words(d: int, k: int) -> list:
    return [w for w in all_words(d, k) if is_lyndon(w)]


@cache
def bracket(word: tuple) -> dict:
    """Expansion of the standard bracketing [b(u), b(v)], v the least proper suffix.

    Memoized: callers must not modify the returned dictionary.
    """
    if len(word) == 1:
        return {tuple(word): 1}
    v = min(word[i:] for i in range(1, len(word)))
    u = word[: len(word) - len(v)]
    bu, bv = bracket(u), bracket(v)
    k = len(word)
    return {w: c for w, c in _sub(product(bu, bv, k), product(bv, bu, k)).items() if c}


def _sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) - c
    return {w: c for w, c in out.items() if c}


def lie_expand(coeffs: dict) -> dict:
    """Tensor expansion of a combination of Lyndon brackets."""
    out: dict = {}
    for word, c in coeffs.items():
        for w, b in bracket(word).items():
            out[w] = out.get(w, 0) + c * b
    return {w: c for w, c in out.items() if c}


def commutator(a: dict, b: dict, k_max: int) -> dict:
    return _sub(product(a, b, k_max), product(b, a, k_max))


def is_lie_tensor(terms: dict, d: int, k: int) -> bool:
    """A homogeneous tensor is Lie iff it is a combination of Lyndon brackets.

    Eliminates with the brackets in decreasing Lyndon order: each bracket
    has its own word as the lexicographically least word of its support
    with coefficient one, so peeling off least words is exact.
    """
    rest = dict(terms)
    basis = {w: bracket(w) for w in lyndon_words(d, k)}
    while rest:
        w = min(rest)
        if w not in basis:
            return False
        rest = _sub(rest, {u: rest[w] * c for u, c in basis[w].items()})
    return True


# ---------------------------------------------------------------------------
# the group algebra of S_k, permutations 0-based one-line


def perm_from_cycles(cycles, k: int) -> tuple:
    p = list(range(k))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            p[a - 1] = b - 1
    return tuple(p)


def cycles_of(perm) -> list:
    seen, out = set(), []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            continue
        cycle, j = [], i
        while j not in seen:
            seen.add(j)
            cycle.append(j + 1)
            j = perm[j]
        out.append(cycle)
    return out


def group_element(payload: dict) -> dict:
    k = payload["k"]
    out: dict = {}
    for term in payload["terms"]:
        p = perm_from_cycles(term["cycles"], k)
        out[p] = out.get(p, 0) + Fraction(term["coeff"])
    return {p: c for p, c in out.items() if c}


def convolve(x: dict, y: dict) -> dict:
    out: dict = {}
    for p, cp in x.items():
        for q, cq in y.items():
            pq = tuple(p[i] for i in q)
            out[pq] = out.get(pq, 0) + cp * cq
    return {p: c for p, c in out.items() if c}


def is_idempotent(x: dict) -> bool:
    return convolve(x, x) == x


def check_decomposition(components: dict, terms: dict, k: int) -> bool:
    """True when there is one component per partition of k and they sum to ``terms``.

    ``components`` maps "3,1"-style partition keys to {word: "p/q"} entries;
    ``terms`` maps word tuples to the input's integer coefficients.
    """
    if set(components) != {",".join(map(str, lam)) for lam in partitions(k)}:
        return False
    total: dict = {}
    for entries in components.values():
        for w, c in parse_terms(entries).items():
            total[w] = total.get(w, 0) + c
    return {w: c for w, c in total.items() if c} == {w: Fraction(c) for w, c in terms.items() if c}


# ---------------------------------------------------------------------------
# counting formulas


def partitions(k: int, largest: int | None = None):
    largest = k if largest is None else largest
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        for rest in partitions(k - first, first):
            yield (first,) + rest


def num_standard(lam) -> int:
    """Hook length formula."""
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= part - j - 1 + conj[j] - i
    return math.factorial(sum(lam)) // hooks


def schur_dim(lam, d: int) -> int:
    """Hook content formula for the dimension of the GL_d irreducible."""
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    num, den = 1, 1
    for i, part in enumerate(lam):
        for j in range(part):
            num *= d + j - i
            den *= part - j - 1 + conj[j] - i
    return num // den


def moebius(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def witt(d: int, k: int) -> int:
    """Number of Lyndon words of length k on d letters."""
    return sum(moebius(k // e) * d**e for e in range(1, k + 1) if k % e == 0) // k


def class_size(lam) -> int:
    """Number of permutations of cycle type lam."""
    z = 1
    for part, count in ((p, lam.count(p)) for p in set(lam)):
        z *= part**count * math.factorial(count)
    return math.factorial(sum(lam)) // z
