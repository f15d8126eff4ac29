"""Command-line front end.

Subcommands:
    compute          indices for graph6 lines (stdin or file) -> CSV
    construct        emit a named family instance as graph6
    enumerate        isomorph-free universes as graph6 or CSV
    verify-extremal  brute-force maximizer reports over (n, nu) ranges
    verify-bounds    bound checks over a universe or input file

Output is deterministic: identical invocations produce byte-identical
output regardless of --workers.  Exit status is 0 only when no violation,
anomaly, parse error, or cap breach occurred.

Input is read one line at a time: ``verify-bounds --input`` parses and
checks each graph before reading the next, and prints its report (or, on
a malformed line, only the error) at the end.  ``enumerate`` checks every
requested level first and then writes each line as its level is built.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator

from .bounds import BOUND_GROUPS, GraphRecord, run_suite
from .enumeration import (
    AmbiguousMaximumError,
    all_graphs,
    canonical_form,
    check_scope,
    connected_graphs,
    extremal_search,
)
from .families import FamilySpec, h_graph
from .graphs import (
    Graph,
    Graph6Error,
    edge_stats,
    encode_graph6,
    graph6_header,
    parse_graph6,
)
from .indices import first_zagreb, reduced_sombor, sombor, sombor_shifted


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _csv_line(values) -> str:
    return ",".join(_fmt(v) for v in values)


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _read_lines(path: str) -> Iterator[str]:
    """The lines of a file, or of stdin for "-", read one at a time.

    Each line read is split again with ``str.splitlines``, so the lines
    (and line numbers) are those of ``read().splitlines()``.
    """
    if path == "-":
        for raw in sys.stdin:
            yield from raw.splitlines()
        return
    with open(path) as fh:
        for raw in fh:
            yield from raw.splitlines()


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    a = int(lo)
    b = int(hi) if sep else a
    if b < a:
        raise ValueError(f"empty range {text!r}")
    return a, b


COMPUTE_HEADER = "graph6,n,m,nu,so,so_red,so_shifted,m1"


def _compute_row(g: Graph, g6: str) -> str:
    stats = edge_stats(g)
    nu = g.m - g.n + stats.components
    m1 = float(first_zagreb(stats))
    return _csv_line(
        [g6, g.n, g.m, nu, sombor(stats), reduced_sombor(stats), sombor_shifted(stats), m1]
    )


def cmd_compute(args) -> int:
    lines = _read_lines(args.input)
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            g = parse_graph6(text)
            rows.append(_compute_row(g, text))
        except (Graph6Error, ValueError) as exc:
            print(f"error: line {lineno}: {exc}", file=sys.stderr)
            return 1
    with _open_out(args.output) as out:
        print(COMPUTE_HEADER, file=out)
        for row in rows:
            print(row, file=out)
    return 0


def cmd_construct(args) -> int:
    kind = args.family
    params = args.params
    try:
        if kind == "h_graph":
            if len(params) != 2:
                raise ValueError("h_graph takes: n nu")
            spec = FamilySpec("h_graph", params[0], nu=params[1])
        elif kind == "star_plus_isolated":
            if len(params) != 2:
                raise ValueError("star_plus_isolated takes: m n")
            spec = FamilySpec("star_plus_isolated", params[1], m=params[0])
        else:
            if len(params) != 1:
                raise ValueError(f"{kind} takes: n")
            spec = FamilySpec(kind, params[0])
        g = spec.build()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "usage: construct {path|cycle|star|complete|empty} N"
            " | h_graph N NU | star_plus_isolated M N",
            file=sys.stderr,
        )
        return 2
    with _open_out(args.output) as out:
        print(encode_graph6(g), file=out)
    return 0


def _universe_for(n: int, ms, connected_only: bool, workers: int):
    builder = connected_graphs if connected_only else all_graphs
    for m in ms:
        yield from builder(n, m, workers=workers)


def _m_values(args, n: int) -> list[int]:
    if args.nu is not None:
        lo, hi = _parse_range(args.nu)
        return [n - 1 + nu for nu in range(lo, min(hi, n - 2) + 1)]
    if args.m is not None:
        lo, hi = _parse_range(args.m)
        return list(range(lo, min(hi, n * (n - 1) // 2) + 1))
    return list(range(0, n * (n - 1) // 2 + 1))


def cmd_enumerate(args) -> int:
    n_lo, n_hi = _parse_range(args.n)
    connected_only = args.universe == "connected"
    csv = args.format == "csv"
    # every requested level is checked before the first line is written
    levels = []
    for n in range(n_lo, n_hi + 1):
        ms = _m_values(args, n)
        for m in ms:
            check_scope(n, m)
        if csv and n == 0 and ms and not connected_only:
            raise ValueError("index undefined on the order-0 graph")
        levels.append((n, ms))
    with _open_out(args.output) as out:
        if csv:
            print(COMPUTE_HEADER, file=out)
        for n, ms in levels:
            for g in _universe_for(n, ms, connected_only, args.workers):
                g6 = encode_graph6(g)
                print(_compute_row(g, g6) if csv else g6, file=out)
    return 0


EXTREMAL_HEADER = "n,nu,universe_size,max_value,unique,gap,maximizer_graph6"


def cmd_verify_extremal(args) -> int:
    n_lo, n_hi = _parse_range(args.n)
    failures = 0
    rows = []
    for n in range(n_lo, n_hi + 1):
        if args.nu is not None:
            nu_lo, nu_hi = _parse_range(args.nu)
        else:
            nu_lo, nu_hi = 0, n - 2
        for nu in range(nu_lo, min(nu_hi, n - 2) + 1):
            try:
                report = extremal_search(n, nu, args.index, workers=args.workers)
            except AmbiguousMaximumError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            expected = canonical_form(h_graph(n, nu))
            is_h = all(canonical_form(g) == expected for g in report.maximizers)
            if not report.unique or not is_h:
                failures += 1
            rows.append(
                _csv_line(
                    [
                        n,
                        nu,
                        report.universe_size,
                        report.max_value,
                        report.unique,
                        report.runner_up_gap,
                        ";".join(encode_graph6(g) for g in report.maximizers),
                    ]
                )
            )
    with _open_out(args.output) as out:
        print(EXTREMAL_HEADER, file=out)
        for row in rows:
            print(row, file=out)
    if failures:
        print(f"error: {failures} cell(s) without a unique h_graph maximizer", file=sys.stderr)
        return 1
    return 0


def _input_records(path: str) -> Iterator[GraphRecord]:
    """One record per non-blank graph6 line, parsed as it is read.  The
    record keeps the line's text, with a long size header shortened when
    n <= 62, as ``encode_graph6`` would write it.  A malformed line raises
    ``Graph6Error`` naming its line number."""
    for lineno, raw in enumerate(_read_lines(path), start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            g = parse_graph6(text)
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc}") from None
        if text[0] == "~" and g.n <= 62:
            text = graph6_header(g.n) + text[4:]
        yield GraphRecord(g, text)


BOUNDS_HEADER = "bound_id,graph6,lhs,rhs,slack,holds,equality,class_match,vacuous"
SUMMARY_HEADER = "graphs,reports,holds,equality,vacuous,violations,anomalies"


def cmd_verify_bounds(args) -> int:
    if args.bounds == ["all"]:
        selection = None
    else:
        selection = args.bounds
        unknown = [b for b in selection if b not in BOUND_GROUPS]
        if unknown:
            print(
                f"error: unknown bound id(s) {unknown}; known: {sorted(BOUND_GROUPS)}",
                file=sys.stderr,
            )
            return 2
    if args.input is not None:
        graphs = _input_records(args.input)
    elif args.n is None:
        print("error: need --input or --n with --universe", file=sys.stderr)
        return 2
    else:
        n_lo, n_hi = _parse_range(args.n)
        connected_only = args.universe == "connected"
        graphs = (
            g
            for n in range(n_lo, n_hi + 1)
            for g in _universe_for(n, _m_values(args, n), connected_only, args.workers)
        )
    try:
        reports, summary = run_suite(graphs, selection)
    except Graph6Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with _open_out(args.output) as out:
        print(BOUNDS_HEADER, file=out)
        for r in reports:
            print(
                _csv_line(
                    [
                        r.bound_id,
                        r.graph6,
                        r.lhs,
                        r.rhs,
                        r.slack,
                        r.holds,
                        r.equality,
                        r.equality_class_match,
                        r.vacuous,
                    ]
                ),
                file=out,
            )
        print("", file=out)
        print(SUMMARY_HEADER, file=out)
        print(
            _csv_line(
                [
                    summary.graphs,
                    summary.reports,
                    summary.holds,
                    summary.equality,
                    summary.vacuous,
                    len(summary.violations),
                    len(summary.anomalies),
                ]
            ),
            file=out,
        )
    if not summary.ok:
        print(
            f"error: {len(summary.violations)} violation(s),"
            f" {len(summary.anomalies)} anomaly(ies)",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="somborkit",
        description="Sombor-family graph indices, extremal families, and exhaustive verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="indices for graph6 input lines")
    p.add_argument("--input", default="-", help="graph6 lines file or - for stdin")
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("construct", help="emit a named family as graph6")
    p.add_argument(
        "family",
        choices=["path", "cycle", "star", "complete", "empty", "h_graph", "star_plus_isolated"],
    )
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("enumerate", help="isomorph-free graph universes")
    p.add_argument("--n", required=True, help="order or range A..B")
    p.add_argument("--m", default=None, help="edge count or range A..B")
    p.add_argument("--nu", default=None, help="cyclomatic number or range A..B")
    p.add_argument("--universe", choices=["connected", "all"], default="connected")
    p.add_argument("--format", choices=["graph6", "csv"], default="graph6")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify-extremal", help="brute-force maximizer verification")
    p.add_argument("--n", required=True, help="order or range A..B")
    p.add_argument("--nu", default=None, help="cyclomatic number or range A..B (default full)")
    p.add_argument("--index", choices=["so", "sored"], default="so")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_verify_extremal)

    p = sub.add_parser("verify-bounds", help="bound checks over a universe or file")
    p.add_argument("--input", default=None, help="graph6 lines file or - for stdin")
    p.add_argument("--n", default=None, help="order or range A..B (generated universe)")
    p.add_argument("--m", default=None, help="edge count or range A..B")
    p.add_argument("--nu", default=None, help="cyclomatic number or range A..B")
    p.add_argument("--universe", choices=["connected", "all"], default="connected")
    p.add_argument("--bounds", nargs="+", default=["all"], help="bound ids or 'all'")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_verify_bounds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
