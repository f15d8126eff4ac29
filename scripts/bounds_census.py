#!/usr/bin/env python3
"""Bound verification and equality censuses over small-graph universes.

Runs every bound check over exhaustive isomorph-free universes and prints,
per bound, the tallies plus the census of equality graphs.  The degree-sum
bound has known in-hypothesis counterexamples (hub-plus-clique graphs);
they are listed explicitly rather than hidden.

Usage:
    python scripts/bounds_census.py [--n-max 7]
"""

import argparse
import sys
import time
from collections import defaultdict

from somborkit.bounds import BOUND_GROUPS, run_suite
from somborkit.enumeration import all_graphs, connected_graphs
from somborkit.graphs import parse_graph6, degree_sequence


def universe(n_max, connected_only):
    build = connected_graphs if connected_only else all_graphs
    out = []
    for n in range(1, n_max + 1):
        for m in range(0, n * (n - 1) // 2 + 1):
            out.extend(build(n, m))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=7, choices=range(3, 8))
    args = ap.parse_args()

    t0 = time.time()
    print("=" * 86)
    print(f"  BOUND CENSUS, all isomorphism classes up to n = {args.n_max}")
    print("=" * 86)

    connected = universe(args.n_max, True)
    full_n_max = min(args.n_max, 6)
    everything = universe(full_n_max, False)
    print(
        f"  universes: {len(connected)} connected classes (n<={args.n_max}),"
        f" {len(everything)} total classes (n<={full_n_max})"
    )

    jobs = [
        ("connected universe", connected, list(BOUND_GROUPS)),
        ("full universe (disconnected included)", everything,
         ["so-shifted-upper", "so-red-upper", "epsilon-identities", "zagreb-sandwich"]),
    ]
    exit_code = 0
    for label, graphs, bounds in jobs:
        reports, summary = run_suite(graphs, bounds)
        print(f"\n  --- {label}: {summary.reports} reports on {summary.graphs} graphs ---")
        by_bound = defaultdict(lambda: [0, 0, 0, 0])  # holds, equality, vacuous, violations
        equality_census = defaultdict(list)
        for r in reports:
            row = by_bound[r.bound_id]
            row[0] += r.holds and not r.vacuous
            row[1] += r.equality
            row[2] += r.vacuous
            row[3] += r.violation
            if r.equality and r.bound_id not in ("epsilon1-identity", "epsilon2-identity"):
                equality_census[r.bound_id].append(r.graph6)
        print(f"  {'bound':<22} {'holds':>6} {'equal':>6} {'vacuous':>8} {'violations':>11}")
        for bound_id in sorted(by_bound):
            h, e, v, bad = by_bound[bound_id]
            print(f"  {bound_id:<22} {h:>6} {e:>6} {v:>8} {bad:>11}")
            if bad:
                exit_code = 1
                for r in reports:
                    if r.bound_id == bound_id and r.violation:
                        g = parse_graph6(r.graph6)
                        print(
                            f"      COUNTEREXAMPLE {r.graph6}: degrees "
                            f"{degree_sequence(g)}, slack {r.slack:.6f}"
                        )
        for bound_id, graphs6 in sorted(equality_census.items()):
            shown = " ".join(graphs6[:12]) + (" ..." if len(graphs6) > 12 else "")
            print(f"      equality census for {bound_id}: {len(graphs6)} graphs: {shown}")
        if summary.anomalies:
            print(f"      anomalies: {[r.graph6 for r in summary.anomalies]}")
            exit_code = 1

    print(f"\n  done in {time.time() - t0:.1f}s")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
