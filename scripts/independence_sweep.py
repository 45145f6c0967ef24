#!/usr/bin/env python3
"""Sweep the four set families and report any pair of elements generating
the same field.  Exits 1 if a collision shows up anywhere."""

import argparse
import sys
import time

from algseeds.families import SetSpec, build_set
from algseeds.fields import independence_report


def sweep(specs, label: str) -> tuple[int, int]:
    t0 = time.perf_counter()
    pairs = collisions = 0
    for spec in specs:
        rep = independence_report(build_set(spec))
        pairs += rep.pairs_checked
        collisions += len(rep.collisions)
        for col in rep.collisions:
            i, j = col.i, col.j
            print(f"  collision in {spec.family}{spec.params}: "
                  f"elements {i} and {j}, coeffs {col.certificate.coeffs}")
    dt = time.perf_counter() - t0
    print(f"{label}: {pairs} pairs, {collisions} collisions, {dt:.1f}s")
    return pairs, collisions


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quad-bound", type=int, default=200,
                    help="largest |n| for the quadratic families")
    ap.add_argument("--cubic-bound", type=int, default=60,
                    help="largest |n| for the cubic families, m in {0,-1,-2,-3}")
    args = ap.parse_args()
    qb, cb = args.quad_bound, args.cubic_bound

    total = 0
    total += sweep((SetSpec("2r", (n,))
                    for n in [*range(1, qb + 1), *range(-3, -qb - 1, -1)]),
                   "2r")[1]
    total += sweep((SetSpec("2i", (n,)) for n in range(1, qb + 1)), "2i")[1]
    total += sweep((SetSpec("3ntr", (m, n))
                    for m, n_min in ((0, 1), (-1, 2), (-2, 3), (-3, 4))
                    for n in range(n_min, cb + 1)),
                   "3ntr")[1]
    total += sweep((SetSpec("3tr", (m, n))
                    for m in (0, -1, -2, -3)
                    for n in range(-m - 3, -cb - 1, -1)),
                   "3tr")[1]
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
