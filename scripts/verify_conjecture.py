#!/usr/bin/env python3
"""Exhaustive maximizer verification for the Sombor indices, as a table.

For every (n, nu) with 4 <= n <= N_MAX and 0 <= nu <= n-2, search all
connected isomorphism classes with n vertices and n-1+nu edges and print
whether the cell confirms the theorem: ``extremal_search`` decides that
h_graph(n, nu) is the unique maximizer of the chosen index and that its
value matches the closed form.  Cells with nu >= 5 are tallied
separately (the range of the original uniqueness conjecture).  For the
same rows as CSV, use ``somborkit verify-extremal --output``.

Usage:
    python scripts/verify_conjecture.py [--n-max 8] [--index both] [--workers K]
"""

import argparse
import sys
import time

from somborkit.enumeration import extremal_search


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=8, choices=range(4, 10))
    ap.add_argument("--index", choices=["so", "sored", "both"], default="both")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()
    if args.workers < 1:
        ap.error("--workers must be >= 1")

    indices = ["so", "sored"] if args.index == "both" else [args.index]
    total = failures = conjecture_cells = conjecture_ok = 0

    print("=" * 77)
    print("  EXHAUSTIVE MAXIMIZER VERIFICATION (connected universes, isomorph-free)")
    print("=" * 77)
    print(
        f"  {'index':>5} {'n':>3} {'nu':>3} {'m':>3} {'classes':>8} "
        f"{'max value':>14} {'gap':>12} {'unique':>7} {'confirms_h':>10}"
    )
    print("  " + "-" * 73)

    t0 = time.time()
    for index in indices:
        for n in range(4, args.n_max + 1):
            for nu in range(0, n - 1):
                rep = extremal_search(n, nu, index, workers=args.workers)
                total += 1
                failures += not rep.confirms_h
                if nu >= 5:
                    conjecture_cells += 1
                    conjecture_ok += rep.confirms_h
                print(
                    f"  {index:>5} {n:>3} {nu:>3} {n - 1 + nu:>3} {rep.universe_size:>8} "
                    f"{rep.max_value:>14.6f} {rep.runner_up_gap:>12.6f} "
                    f"{'yes' if rep.unique else 'NO':>7} {'yes' if rep.confirms_h else 'NO':>10}"
                )

    print("  " + "-" * 73)
    print(f"  {total} cells checked in {time.time() - t0:.1f}s; failures: {failures}")
    print(
        f"  theorem range (0 <= nu <= n-2): {total - failures}/{total} ok;"
        f" conjecture range (nu >= 5): {conjecture_ok}/{conjecture_cells} ok"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
