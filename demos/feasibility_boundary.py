#!/usr/bin/env python3
"""Map where the block construction works.

Sweeps every pair 2 <= a <= 30, a < b below the lemma threshold a^2 + a,
decides the feasibility inequality with certified exact arithmetic, and
prints the complete list of failing pairs with their certified margins.
The first failures appear at a = 28.
"""

import sys
import time

from equisum import run_sweep


def main():
    t0 = time.perf_counter()
    report = run_sweep(2, 30)
    elapsed = time.perf_counter() - t0

    # the time goes to stderr, so that stdout is the same on every run
    print(f"scanned in {elapsed:.2f}s", file=sys.stderr)
    print(f"scanned {len(report.records)} pairs (conclusive: {report.conclusive})")
    print(f"lemma certificates spot-checked for a in "
          f"[{report.config['a_min']}, {report.config['a_max']}]: "
          f"{len(report.lemma_certified)} ok")

    failing = {(r.a, r.b): r for r in report.records
               if r.verdict == "InequalityFails"}
    print(f"\nfailing pairs ({len(failing)}):")
    print(f"{'a':>4} {'b':>4} {'c':>3} {'alpha':>6} {'beta':>5}   certified margin in")
    for (a, b), rec in sorted(failing.items()):
        print(f"{a:>4} {b:>4} {rec.c:>3} {rec.alpha:>6} {rec.beta:>5}   "
              f"[{rec.margin_lo[:15]}..., {rec.margin_hi[:15]}...]")

    by_a = {}
    for a, b in failing:
        by_a.setdefault(a, []).append(b)
    print("\nsummary:")
    for a in sorted(by_a):
        bs = sorted(by_a[a])
        print(f"  a = {a}: b in [{bs[0]}, {bs[-1]}] ({len(bs)} values)")
    clean = [rec.a for rec in report.records if rec.a <= 27 and rec.verdict == "InequalityFails"]
    print(f"  a <= 27: no failures ({'confirmed' if not clean else 'VIOLATED'})")


if __name__ == "__main__":
    main()
