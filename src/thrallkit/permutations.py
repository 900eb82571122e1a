"""Permutations of {1..k} in 0-based one-line notation.

A permutation is a tuple ``p`` with ``p[i]`` the (0-based) image of position
``i``.  Composition follows ``(p * q)(i) = p(q(i))``, so ``compose(p, q)``
applies ``q`` first.  Cycle notation in serialized output is 1-based to
match the usual "(12)", "(132)" style.
"""

from __future__ import annotations

import itertools

Perm = tuple[int, ...]


def compose(p: Perm, q: Perm) -> Perm:
    if len(p) != len(q):
        raise ValueError("size mismatch")
    return tuple(p[q[i]] for i in range(len(q)))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _cycles(p: Perm) -> list[list[int]]:
    """Every cycle of ``p``, fixed points included, each from its minimum."""
    seen = [False] * len(p)
    cycles = []
    for i in range(len(p)):
        cycle, j = [], i
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = p[j]
        if cycle:
            cycles.append(cycle)
    return cycles


def sign(p: Perm) -> int:
    return (-1) ** (len(p) - len(_cycles(p)))


def all_permutations(k: int) -> list[Perm]:
    return list(itertools.permutations(range(k)))


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle type as a partition (weakly decreasing, fixed points included)."""
    return tuple(sorted(map(len, _cycles(p)), reverse=True))


def to_cycles(p: Perm) -> list[list[int]]:
    """Nontrivial cycles with 1-based entries, each starting at its minimum."""
    return [[x + 1 for x in cycle] for cycle in _cycles(p) if len(cycle) > 1]


def from_cycles(cycles, k: int) -> Perm:
    """Build a permutation of {1..k} from 1-based cycles."""
    p = list(range(k))
    touched: set[int] = set()
    for cyc in cycles:
        for x in cyc:
            if not 1 <= x <= k:
                raise ValueError(f"cycle entry {x} outside 1..{k}")
            if x - 1 in touched:
                raise ValueError(f"entry {x} appears in two cycles")
            touched.add(x - 1)
        for i, x in enumerate(cyc):
            p[x - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(p)
