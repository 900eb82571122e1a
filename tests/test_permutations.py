"""Cycle-based permutation helpers against brute force, for every k <= 6."""

import itertools

import pytest

from thrallkit.permutations import cycle_type, from_cycles, sign, to_cycles


def _inversions(p):
    return sum(1 for i, j in itertools.combinations(range(len(p)), 2) if p[i] > p[j])


@pytest.mark.parametrize("k", range(7))
def test_cycle_helpers_match_brute_force(k):
    for p in itertools.permutations(range(k)):
        assert sign(p) == (-1) ** _inversions(p)
        lengths = cycle_type(p)
        assert sum(lengths) == k
        assert list(lengths) == sorted(lengths, reverse=True)
        cycles = to_cycles(p)
        assert all(len(c) > 1 and c[0] == min(c) for c in cycles)
        assert sorted(len(c) for c in cycles) == sorted(n for n in lengths if n > 1)
        assert from_cycles(to_cycles(p), k) == p
