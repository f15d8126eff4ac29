"""Command-line front end.

Subcommands:
    compute          indices for graph6 lines (stdin or file) -> CSV
    construct        emit a named family instance as graph6
    enumerate        isomorph-free universes as graph6
    verify-extremal  brute-force maximizer reports over (n, nu) ranges
    verify-bounds    bound checks for graph6 lines (stdin or file)

Output is deterministic: identical invocations produce byte-identical
output regardless of --workers.  Exit status is 0 only when no violation,
anomaly, parse error, or cap breach occurred; a file that cannot be
opened prints its error and exits 2.

Every CSV line is built by one typed f-string per row kind.  A
``compute`` or ``verify-bounds`` row is written to a spool, an unnamed
temporary file in TMPDIR, as its graph is read and checked, one graph at
a time, so that memory does not grow with the input.  Only once the
whole input has been checked is the spool copied to the output; a
malformed line prints only its error, and ``--output FILE`` is then not
created.  ``enumerate`` and ``verify-extremal`` check every requested
level before building any, and refuse a request that selects none.
Past that check nothing in them can fail, so they write to the output
directly: ``enumerate`` a level's graph6 lines in one write as soon as
the level is built, and ``verify-extremal`` a cell's row as soon as the
cell is decided, the header with the first row.  A generated universe
reaches ``compute`` and ``verify-bounds`` through a pipe
(``somborkit enumerate --n 1..7 | somborkit verify-bounds``).
``verify-extremal`` prints the verdict ``extremal_search`` gives each
cell and builds no verdict of its own.
When the reader of stdout goes away, the CLI joins its pool workers and
ends on SIGPIPE, quietly, like any filter.

At load time this module imports only ``graphs``, ``families`` and
``indices``; each command imports the layer it runs when it runs, so a
start-up pays only for what the command uses:

    construct                   neither layer
    compute, verify-bounds      ``bounds``
    enumerate, verify-extremal  ``enumeration`` (with the process pool's
                                ``concurrent.futures.process`` and
                                ``multiprocessing``)
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import signal
import sys
import tempfile
from contextlib import nullcontext
from typing import IO, TYPE_CHECKING, Iterator

from .families import FAMILIES
from .graphs import GRAPH6_MAX_N, Graph6Error, encode_graph6, graph6_header, parse_graph6
from .indices import INDEX_FUNCTIONS, _defined

if TYPE_CHECKING:
    from .bounds import BoundReport, GraphRecord
    from .enumeration import ExtremalReport

# The one name of a heavier layer that callers look up on this module:
# ``perfbench/spans.py``'s tracer reads ``cli.all_graphs``.  The commands
# import their layers when they run; ``__getattr__`` resolves the name
# from its layer on access, so ``cli.all_graphs is enumeration.all_graphs``.
_LAYER_OF = {"all_graphs": "enumeration"}


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{layer}"), name)


# CSV fields: floats as {:.12g}, booleans as _BOOL[flag], other values as str()
_BOOL = ("false", "true")


def _open_output(path: str):
    return nullcontext(sys.stdout) if path == "-" else open(path, "w")


def _spool() -> IO[str]:
    """An unnamed temporary file (in TMPDIR) that holds a command's CSV
    lines, each ending in a newline, until the whole run has been checked."""
    return tempfile.TemporaryFile("w+")


def _write_spooled(path: str, spool: IO[str]) -> None:
    """Copy the spooled lines, in blocks, to a file, or to stdout for "-"."""
    spool.seek(0)
    with _open_output(path) as out:
        shutil.copyfileobj(spool, out)


def _read_lines(path: str) -> Iterator[str]:
    """The lines of a file, or of stdin for "-", read one at a time.

    Each line read is split again with ``str.splitlines``, so the lines
    (and line numbers) are those of ``read().splitlines()``.
    """
    with nullcontext(sys.stdin) if path == "-" else open(path) as fh:
        for raw in fh:
            yield from raw.splitlines()


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise ValueError(f"expected A or A..B, got {text!r}") from None
    if b < a:
        raise ValueError(f"empty range {text!r}")
    return a, b


COMPUTE_HEADER = "graph6,n,m,nu,so,so_red,so_shifted,m1"


def _compute_row(rec: GraphRecord) -> str:
    """A graph's CSV row, newline included: the record's text, n, m, nu and
    four index values (m1, an int, is written as a float).  The record must
    have order n >= 1."""
    return (
        f"{rec.graph6},{rec.n},{rec.m},{rec.stats.nu},{rec.so:.12g},{rec.so_red:.12g},"
        f"{rec.so_shifted:.12g},{float(rec.m1):.12g}\n"
    )


def cmd_compute(args) -> int:
    with _spool() as spool:
        print(COMPUTE_HEADER, file=spool)
        for lineno, rec in _input_records(args.input):
            try:
                _defined(rec.stats)
            except ValueError as exc:  # the indices are undefined on the order-0 graph
                print(f"error: line {lineno}: {exc}", file=sys.stderr)
                return 1
            spool.write(_compute_row(rec))
        _write_spooled(args.output, spool)
    return 0


def _construct_usage() -> str:
    """One usage form per parameter list, kinds sharing one in braces."""
    kinds_of: dict[tuple[str, ...], list[str]] = {}
    for kind, (_, names) in FAMILIES.items():
        kinds_of.setdefault(names, []).append(kind)
    forms = []
    for names, kinds in kinds_of.items():
        head = kinds[0] if len(kinds) == 1 else "{" + "|".join(kinds) + "}"
        forms.append(" ".join([head, *(name.upper() for name in names)]))
    return "usage: construct " + " | ".join(forms)


def cmd_construct(args) -> int:
    builder, names = FAMILIES[args.family]
    try:
        if len(args.params) != len(names):
            raise ValueError(f"{args.family} takes: {' '.join(names)}")
        n = args.params[names.index("n")]
        if n > GRAPH6_MAX_N:  # refused before a graph of n^2 bits is built
            raise ValueError(f"graph6 encoding supported for n <= {GRAPH6_MAX_N}, got n={n}")
        g = builder(*args.params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_construct_usage(), file=sys.stderr)
        return 2
    with _open_output(args.output) as out:
        print(encode_graph6(g), file=out)
    return 0


def _m_values(args, n: int, cells: bool) -> list[int]:
    """The edge counts selected at order n: m = n-1+nu for each nu of
    ``--nu`` (of 0..n-2 if ``cells`` and ``--nu`` is not given), else each
    m of ``--m``, else every m."""
    if cells or args.nu is not None:
        lo, hi = (0, n - 2) if args.nu is None else _parse_range(args.nu)
        if lo < 0:
            raise ValueError(f"--nu must be >= 0, got {args.nu}")
        return [n - 1 + nu for nu in range(lo, min(hi, n - 2) + 1)]
    if args.m is not None:
        lo, hi = _parse_range(args.m)
        return list(range(lo, min(hi, n * (n - 1) // 2) + 1))
    return list(range(0, n * (n - 1) // 2 + 1))


def _levels(args, cells: bool = False) -> list[tuple[int, list[int]]]:
    """(n, edge counts) for each requested order, or for each order's
    (n, nu) cells if ``cells``; every level is checked before any is built,
    and a request that selects none is refused."""
    from . import enumeration

    n_lo, n_hi = _parse_range(args.n)
    levels = [(n, _m_values(args, n, cells)) for n in range(n_lo, n_hi + 1)]
    if not any(ms for _, ms in levels):
        if cells or args.nu is not None:
            raise ValueError("no (n, nu) cell with 0 <= nu <= n-2 in the requested range")
        raise ValueError("no (n, m) level with 0 <= m <= n(n-1)/2 in the requested range")
    for n, ms in levels:
        for m in ms:
            enumeration.check_scope(n, m)
    return levels


def cmd_enumerate(args) -> int:
    from . import enumeration

    levels = _levels(args)
    if args.universe == "connected":
        builder = enumeration.connected_graphs
    else:
        builder = enumeration.all_graphs
    with _open_output(args.output) as out:
        for n, ms in levels:
            for m in ms:
                graphs = builder(n, m, workers=args.workers)
                out.write("".join(encode_graph6(g) + "\n" for g in graphs))
    return 0


EXTREMAL_HEADER = "n,nu,universe_size,max_value,unique,gap,maximizer_graph6"


def _extremal_row(r: ExtremalReport) -> str:
    """A cell's CSV row, newline included; the gap of a cell with one graph is inf."""
    maximizers = ";".join(map(encode_graph6, r.maximizers))
    return (
        f"{r.n},{r.nu},{r.universe_size},{r.max_value:.12g},{_BOOL[r.unique]},"
        f"{r.runner_up_gap:.12g},{maximizers}\n"
    )


def cmd_verify_extremal(args) -> int:
    from . import enumeration

    cells = [(n, m - n + 1) for n, ms in _levels(args, cells=True) for m in ms]
    failures = 0
    # as in enumerate, nothing is written before the first cell is decided
    head = EXTREMAL_HEADER + "\n"
    with _open_output(args.output) as out:
        for n, nu in cells:
            report = enumeration.extremal_search(n, nu, args.index, workers=args.workers)
            out.write(head + _extremal_row(report))
            head = ""
            failures += not report.confirms_h
    if failures:
        print(
            f"error: {failures} cell(s) do not confirm h_graph(n, nu) as the unique maximizer",
            file=sys.stderr,
        )
        return 1
    return 0


def _input_records(path: str) -> Iterator[tuple[int, GraphRecord]]:
    """(line number, record) per non-blank graph6 line, parsed as it is
    read.  The record keeps the line's text, with a long size header
    shortened when n <= 62, as ``encode_graph6`` would write it.  A
    malformed line raises ``Graph6Error`` naming its line number."""
    from . import bounds

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
        yield lineno, bounds.GraphRecord(g, text)


BOUNDS_HEADER = "bound_id,graph6,lhs,rhs,slack,holds,equality,class_match,vacuous"
SUMMARY_HEADER = "graphs,reports,holds,equality,vacuous,violations,anomalies"


def _report_row(r: BoundReport) -> str:
    """A report's CSV row, newline included: its fields, in order (lhs,
    rhs and slack are floats)."""
    return (
        f"{r.bound_id},{r.graph6},{r.lhs:.12g},{r.rhs:.12g},{r.slack:.12g},{_BOOL[r.holds]},"
        f"{_BOOL[r.equality]},{_BOOL[r.equality_class_match]},{_BOOL[r.vacuous]}\n"
    )


def cmd_verify_bounds(args) -> int:
    from . import bounds

    selection = None if args.bounds == ["all"] else args.bounds
    graphs = (rec for _, rec in _input_records(args.input))
    with _spool() as spool:
        print(BOUNDS_HEADER, file=spool)
        summary = bounds.run_suite(
            graphs, selection, lambda reports: spool.writelines(map(_report_row, reports))
        )
        spool.write(  # a blank line, the summary header and its tallies
            f"\n{SUMMARY_HEADER}\n{summary.graphs},{summary.reports},{summary.holds},"
            f"{summary.equality},{summary.vacuous},{summary.violations},{summary.anomalies}\n"
        )
        _write_spooled(args.output, spool)
    if not summary.ok:
        print(
            f"error: {summary.violations} violation(s), {summary.anomalies} anomaly(ies)",
            file=sys.stderr,
        )
        return 1
    return 0


NU_HELP = (
    "A or A..B: selects m = n-1+nu edges with nu <= n-2; nu is the cyclomatic"
    " number only on connected graphs"
)


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
    p.add_argument("family", choices=list(FAMILIES))
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("enumerate", help="isomorph-free graph universes")
    p.add_argument("--n", required=True, help="order or range A..B")
    levels = p.add_mutually_exclusive_group()
    levels.add_argument("--m", default=None, help="edge count or range A..B")
    levels.add_argument("--nu", default=None, help=NU_HELP)
    p.add_argument("--universe", choices=["connected", "all"], default="connected")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify-extremal", help="brute-force maximizer verification")
    p.add_argument("--n", required=True, help="order or range A..B")
    p.add_argument("--nu", default=None, help=NU_HELP + "; default: all, 0..n-2 per order")
    p.add_argument("--index", choices=list(INDEX_FUNCTIONS), default="so")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_verify_extremal, m=None)

    p = sub.add_parser("verify-bounds", help="bound checks for graph6 input lines")
    p.add_argument("--input", default="-", help="graph6 lines file or - for stdin")
    p.add_argument("--bounds", nargs="+", default=["all"], help="bound groups or 'all'")
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
    except Graph6Error as exc:  # a malformed input line, named in the message
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader of stdout went away: ``entry`` ends the process
        raise
    except (ValueError, OSError) as exc:  # a bad argument, or a file that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script hook
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout went away: join the pool workers, which would
        # otherwise wait for work forever, then stop quietly, like any filter;
        # a run that never loaded the generation layer has no pool
        enumeration = sys.modules.get(f"{__package__}.enumeration")
        if enumeration is not None:
            enumeration.shutdown_pools()
        if hasattr(signal, "SIGPIPE"):
            signal.signal(signal.SIGPIPE, signal.SIG_DFL)
            signal.raise_signal(signal.SIGPIPE)
        raise
    sys.exit(status)


if __name__ == "__main__":
    entry()
