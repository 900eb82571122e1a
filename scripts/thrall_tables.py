"""Print graded dimension and multiplicity tables for a range of degrees.

Usage: python scripts/thrall_tables.py [--max-k 6] [--d 3]
"""

import argparse

from thrallkit.symfun import thrall_coefficients
from thrallkit.words import lie_dim, num_standard, partitions, schur_dim, w_module_dim


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-k", type=int, default=6)
    parser.add_argument("--d", type=int, default=3)
    args = parser.parse_args()

    print(f"graded Lie dimensions, d = {args.d}:")
    print("  " + "  ".join(f"k={k}: {lie_dim(args.d, k)}" for k in range(1, args.max_k + 1)))
    print()
    for k in range(1, args.max_k + 1):
        print(f"degree {k}  (module dim | multiplicity table, d = {args.d})")
        for lam in partitions(k):
            coeffs = thrall_coefficients(lam)
            cells = ", ".join(
                f"{mu}:{a}" for mu, a in sorted(coeffs.items(), reverse=True)
            )
            dim = w_module_dim(lam, args.d)
            print(f"  {str(lam):<18} dim {dim:>4}   {cells}")
        total = sum(w_module_dim(lam, args.d) for lam in partitions(k))
        check = sum(
            num_standard(mu) * schur_dim(mu, args.d) for mu in partitions(k)
        )
        print(f"  total {total} = {args.d}^{k} = {check}")
        print()


if __name__ == "__main__":
    main()
