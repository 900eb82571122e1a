"""Compute the planar degree-4 invariants and evaluate them on sample paths.

The normalized (2,2)-graded invariant is the shuffle square of the area
functional, so on genuine signatures it evaluates to the squared area; the
(3,1)-graded one is an independent invariant.  Both are
evaluated here on a few explicit polygonal paths, together with a random
volume-preserving change of coordinates to exhibit the invariance.  The
script exits with status 1 if beta22 differs from the squared area or an
invariant changes under the map.

Usage: python scripts/invariants_demo.py [--seed 7]
"""

import argparse
import sys
from fractions import Fraction
from random import Random

from thrallkit.invariants import path_invariants, random_unimodular_matrix
from thrallkit.shuffle_sig import PiecewiseLinearPath, levy_area, signature

PATHS = {
    "staircase": [[0, 0], [1, 0], [1, 1]],
    "zigzag": [[0, 0], [2, 1], [1, 3], [4, 4]],
    "segment": [[0, 0], [3, 2]],
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    rng = Random(args.seed)

    table = path_invariants(2, 2)
    beta22 = table[(2, 2)][0]
    beta31 = table[(3, 1)][0]
    print("invariant in grade (2,2):", {"".join(map(str, w)): str(c) for w, c in sorted(beta22.terms.items())})
    print("invariant in grade (3,1):", {"".join(map(str, w)): str(c) for w, c in sorted(beta31.terms.items())})
    print()

    g = random_unimodular_matrix(2, rng)
    print("sample volume-preserving map:", [[str(x) for x in row] for row in g])
    print()
    failed = False
    for name, points in PATHS.items():
        path = PiecewiseLinearPath.from_lists(points)
        sig = signature(path, 4)
        area = levy_area(sig)
        v22 = beta22.evaluate(sig)
        v31 = beta31.evaluate(sig)
        moved = PiecewiseLinearPath.from_lists(
            [[sum(g[i][j] * Fraction(p[j]) for j in range(2)) for i in range(2)] for p in path.points]
        )
        moved_sig = signature(moved, 4)
        print(f"{name:<10} area={area}  beta22={v22}  (= area^2: {v22 == area * area})  beta31={v31}")
        moved22, moved31 = beta22.evaluate(moved_sig), beta31.evaluate(moved_sig)
        print(f"{'':<10} after the map: beta22={moved22}  beta31={moved31}")
        if v22 != area * area or (moved22, moved31) != (v22, v31):
            failed = True
            print(f"FAILED: {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
