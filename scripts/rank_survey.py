"""Seeded survey of the symmetry/rank-one equivalence and the line criteria.

Samples truncated Lie elements and polygonal paths, recording how often each
side of the equivalences fires; discrepancies are printed, none are
expected, and any of them makes the script exit with status 1.

Usage: python scripts/rank_survey.py [--samples 40] [--seed 3]
"""

import argparse
import sys
from fractions import Fraction
from random import Random

from thrallkit.free_lie import phi_k, random_lie_element
from thrallkit.rank_variety import fls_check, is_rank_one
from thrallkit.shuffle_sig import PiecewiseLinearPath, signature
from thrallkit.tensors import is_symmetric


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--samples", type=int, default=40)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    rng = Random(args.seed)

    symmetric = rank_one = disagreements = 0
    for _ in range(args.samples):
        d, k = rng.choice(((2, 3), (2, 4), (3, 3)))
        level = phi_k(random_lie_element(d, k, rng), k)
        if level.is_zero():
            continue
        s = is_symmetric(level)
        r = bool(is_rank_one(level))
        symmetric += s
        rank_one += r
        if s != r:
            disagreements += 1
            print("DISAGREEMENT:", level.nonzero_terms())
    print(
        f"exponential levels: {symmetric} symmetric, {rank_one} rank one, "
        f"{disagreements} disagreements"
    )

    segments = others = inconsistent = 0
    for _ in range(args.samples):
        points = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(4)]
        path = PiecewiseLinearPath.from_lists(points)
        if signature(path, 1).level(1).is_zero():
            continue
        report = fls_check(path, 4)
        if not report.consistent:
            inconsistent += 1
            print("INCONSISTENT:", points)
        elif report.is_segment:
            segments += 1
        else:
            others += 1
    print(
        f"paths: {segments} segment-equivalent, {others} genuinely bent, "
        f"{inconsistent} inconsistent criteria"
    )
    return 1 if disagreements or inconsistent else 0


if __name__ == "__main__":
    sys.exit(main())
