#!/usr/bin/env python3
"""Exhaustive maximizer verification for the Sombor indices.

For every (n, nu) with 4 <= n <= N_MAX and 0 <= nu <= n-2, search all
connected isomorphism classes with n vertices and n-1+nu edges and check
that the hub family h_graph(n, nu) is the unique maximizer of the chosen
index, that its value matches the closed form, and that every maximizer
has a dominating vertex.  Cells with nu >= 5 are tallied separately
(the range of the original uniqueness conjecture).

Usage:
    python scripts/verify_conjecture.py [--n-max 8] [--index both]
                                        [--workers K] [--csv out.csv]
"""

import argparse
import sys
import time

from somborkit.enumeration import canonical_form, extremal_search
from somborkit.families import h_graph, max_reduced_sombor_value, max_sombor_value
from somborkit.graphs import encode_graph6

CLOSED_FORM = {"so": max_sombor_value, "sored": max_reduced_sombor_value}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=8, choices=range(4, 10))
    ap.add_argument("--index", choices=["so", "sored", "both"], default="both")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--csv", default=None, help="also write rows to this CSV file")
    args = ap.parse_args()

    indices = ["so", "sored"] if args.index == "both" else [args.index]
    rows = []
    failures = 0
    conjecture_cells = 0
    conjecture_ok = 0

    print("=" * 94)
    print("  EXHAUSTIVE MAXIMIZER VERIFICATION (connected universes, isomorph-free)")
    print("=" * 94)
    print(
        f"  {'index':>5} {'n':>3} {'nu':>3} {'m':>3} {'classes':>8} "
        f"{'max value':>14} {'closed form':>14} {'gap':>12} {'unique':>7} {'is_h':>5} {'Δ=n-1':>6}"
    )
    print("  " + "-" * 90)

    t0 = time.time()
    for index in indices:
        for n in range(4, args.n_max + 1):
            for nu in range(0, n - 1):
                rep = extremal_search(n, nu, index, workers=args.workers)
                expected = CLOSED_FORM[index](n, nu)
                is_h = all(
                    canonical_form(g) == canonical_form(h_graph(n, nu))
                    for g in rep.maximizers
                )
                dom = rep.max_degree_all_maximizers == n - 1
                ok = (
                    rep.unique
                    and is_h
                    and dom
                    and rep.runner_up_gap > 1e-6
                    and abs(rep.max_value - expected) <= 1e-9 * expected
                )
                if nu >= 5:
                    conjecture_cells += 1
                    conjecture_ok += ok
                if not ok:
                    failures += 1
                print(
                    f"  {index:>5} {n:>3} {nu:>3} {n - 1 + nu:>3} {rep.universe_size:>8} "
                    f"{rep.max_value:>14.6f} {expected:>14.6f} {rep.runner_up_gap:>12.6f} "
                    f"{'yes' if rep.unique else 'NO':>7} {'yes' if is_h else 'NO':>5} "
                    f"{'yes' if dom else 'NO':>6}"
                )
                rows.append(
                    (
                        index,
                        n,
                        nu,
                        rep.universe_size,
                        rep.max_value,
                        rep.unique,
                        rep.runner_up_gap,
                        ";".join(encode_graph6(g) for g in rep.maximizers),
                    )
                )

    total = len(rows)
    print("  " + "-" * 90)
    print(f"  {total} cells checked in {time.time() - t0:.1f}s; failures: {failures}")
    print(
        f"  theorem range (0 <= nu <= n-2): {total - failures}/{total} ok;"
        f" conjecture range (nu >= 5): {conjecture_ok}/{conjecture_cells} ok"
    )

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("index,n,nu,universe_size,max_value,unique,gap,maximizer_graph6\n")
            for row in rows:
                fh.write(
                    ",".join(
                        f"{v:.12g}"
                        if isinstance(v, float)
                        else ("true" if v is True else "false" if v is False else str(v))
                        for v in row
                    )
                    + "\n"
                )
        print(f"  rows written to {args.csv}")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
