#!/usr/bin/env python3
"""Walk through the three equilateral-set constructions.

Builds one instance of each construction in E^a (+)_1 E^b, prints the
coordinates for the small cases, and verifies that all pairwise mixed-norm
distances equal 1.
"""

import numpy as np

from equisum import construct, mixed_distance, verify_equilateral

np.set_printoptions(precision=4, suppress=True)


def show(a, b, print_points=False):
    result = construct(a, b)
    ps = result.point_set
    report = verify_equilateral(ps)
    print(f"\n=== E^{a} (+)_1 E^{b}:  {len(ps)} points, target distance {ps.lam} ===")
    print(f"route: {ps.provenance}" + ("  (components swapped)" if ps.swapped else ""))
    if result.zeta is not None:
        print(f"offset zeta = {result.zeta:.6f}")
    if print_points:
        for i, (x, y) in enumerate(zip(ps.X, ps.Y)):
            print(f"  p{i}: x={x}  y={y}")
    print(
        f"verified: {report.passed}   pairs={report.n_pairs}   "
        f"max |distance - 1| = {report.max_abs_deviation:.2e}"
    )
    return ps


def distance_table(ps):
    n = len(ps)
    print("pairwise distances:")
    for i in range(n):
        row = " ".join(
            f"{mixed_distance((ps.X[i], ps.Y[i]), (ps.X[j], ps.Y[j])):.4f}" if i != j else "  .   "
            for j in range(n)
        )
        print(f"  {row}")


def main():
    print("A one-dimensional first factor: simplex plus an offset point.")
    ps = show(1, 3, print_points=True)
    distance_table(ps)

    print("\nEqual factors: cross-polytope paired with a small simplex, plus apex.")
    show(3, 3, print_points=True)

    print("\nThe block construction (beta in the main range).")
    show(5, 8)

    print("\nSwapped orientation is handled transparently.")
    show(7, 3)

    print("\nLarger instance, still exactly a+b+1 points.")
    show(20, 26)


if __name__ == "__main__":
    main()
