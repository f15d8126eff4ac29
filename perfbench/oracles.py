"""Correctness oracles for the benchmark's workloads.

Each ``check_*`` function takes the CLI's standard output and exit status
and returns a list of problems; an empty list means the output is correct.
The checks use networkx and published counts, not somborkit's own
canonical form, so a defect in generation cannot vouch for itself.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, namedtuple

import networkx as nx

# OEIS A008406, row 8: graphs on 8 vertices by edge count 0..28.  The row
# sums to 12,346 (A000088).
A008406_ROW8 = (
    1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980, 1312, 1557, 1646,
    1557, 1312, 980, 663, 402, 221, 115, 56, 24, 11, 5, 2, 1, 1,
)  # fmt: skip

# Connected graphs with n vertices and n-1+nu edges for n = 4..9, nu = 0..2:
# trees (A000055), unicyclic (A001429) and bicyclic (A001435) graphs.
SPARSE_CONNECTED_CLASSES = {
    (n, nu): count
    for nu, row in enumerate(
        ((2, 3, 6, 11, 23, 47), (2, 5, 13, 33, 89, 240), (1, 5, 19, 67, 236, 797))
    )
    for n, count in zip(range(4, 10), row)
}

EXTREMAL_HEADER = "n,nu,universe_size,max_value,unique,gap,maximizer_graph6"
BOUNDS_HEADER = "bound_id,graph6,lhs,rhs,slack,holds,equality,class_match,vacuous"
Report = namedtuple("Report", BOUNDS_HEADER.split(","))
REPORT_FLAGS = ("holds", "equality", "class_match", "vacuous")
SUMMARY_HEADER = "graphs,reports,holds,equality,vacuous,violations,anomalies"

# Report ids emitted per graph by the full bound suite.
BOUND_IDS = frozenset(
    {
        "so-shifted-upper",
        "so-red-upper",
        "tree-so-red-upper",
        "degree-sum-upper",
        "epsilon1-identity",
        "epsilon2-identity",
        "so-lower",
        "so-red-lower",
        "zagreb-so-upper",
        "zagreb-so-lower",
        "zagreb-so-red-upper",
        "zagreb-so-red-lower",
    }
)
# Bounds with a proven equality class: numeric equality outside it is an
# anomaly.
CHARACTERIZED_BOUNDS = BOUND_IDS - {"epsilon1-identity", "epsilon2-identity", "zagreb-so-upper"}
# The degree-sum bound is refuted (K4 plus a pendant vertex), so its
# violations are known.  The lower bounds are attained by every graph of
# maximum degree <= 2 without a K2 component, which on disconnected inputs
# is more than the paths and cycles the class check accepts.
KNOWN_VIOLATION = "degree-sum-upper"
KNOWN_ANOMALIES = frozenset({"so-lower", "so-red-lower"})

REL_TOL = 1e-9


def parse_graph6(line: str) -> nx.Graph:
    """networkx's graph6 reader; raises ValueError on malformed text."""
    try:
        return nx.from_graph6_bytes(line.encode("ascii"))
    except nx.NetworkXError as exc:
        raise ValueError(str(exc)) from exc


def _invariant(g: nx.Graph) -> tuple:
    deg = dict(g.degree())
    tri = nx.triangles(g)
    return tuple(sorted((deg[v], tri[v], tuple(sorted(deg[u] for u in g[v]))) for v in g))


def check_enumeration(out: str, code: int, n: int, level_counts) -> list[str]:
    """Every line is a graph on n vertices, the count per edge level matches
    ``level_counts``, and no two lines are isomorphic."""
    problems = [] if code == 0 else [f"exit status {code}, expected 0"]
    graphs = []
    for lineno, line in enumerate(out.splitlines(), start=1):
        try:
            g = parse_graph6(line)
        except ValueError as exc:
            problems.append(f"line {lineno}: not graph6 ({exc})")
            continue
        if g.number_of_nodes() != n:
            problems.append(f"line {lineno}: {g.number_of_nodes()} vertices, expected {n}")
            continue
        graphs.append((lineno, g))
    levels = Counter(g.number_of_edges() for _, g in graphs)
    for m, want in enumerate(level_counts):
        if levels[m] != want:
            problems.append(f"{levels[m]} classes with {m} edges, expected {want}")
    buckets = defaultdict(list)
    for lineno, g in graphs:
        buckets[_invariant(g)].append((lineno, g))
    for bucket in buckets.values():
        for i, (lineno, g) in enumerate(bucket):
            for earlier, h in bucket[:i]:
                if nx.is_isomorphic(g, h):
                    problems.append(f"line {lineno} is isomorphic to line {earlier}")
    return problems


def h_graph(n: int, nu: int) -> nx.Graph:
    """Star on n vertices plus nu edges from leaf 1 to leaves 2..nu+1."""
    g = nx.star_graph(n - 1)
    g.add_edges_from((1, i) for i in range(2, nu + 2))
    return g


def sombor(g: nx.Graph) -> float:
    return sum(math.hypot(g.degree(u), g.degree(v)) for u, v in g.edges())


def check_extremal(out: str, code: int, cells: dict[tuple[int, int], int]) -> list[str]:
    """One row per expected (n, nu) cell with the known universe size and a
    unique maximizer that is isomorphic to h_graph(n, nu) and attains the
    closed-form maximum ``max_sombor_value``."""
    from somborkit.families import max_sombor_value

    problems = [] if code == 0 else [f"exit status {code}, expected 0"]
    lines = out.splitlines()
    if not lines or lines[0] != EXTREMAL_HEADER:
        return problems + ["missing extremal header"]
    seen = set()
    for row in lines[1:]:
        fields = row.split(",")
        if len(fields) != 7:
            problems.append(f"malformed row {row!r}")
            continue
        try:
            n, nu, size = map(int, fields[:3])
            value = float(fields[3])
        except ValueError:
            problems.append(f"malformed row {row!r}")
            continue
        if (n, nu) not in cells or (n, nu) in seen:
            problems.append(f"unexpected or repeated cell n={n}, nu={nu}")
            continue
        seen.add((n, nu))
        if size != cells[n, nu]:
            problems.append(f"n={n}, nu={nu}: universe {size}, expected {cells[n, nu]}")
        maximizers = fields[6].split(";")
        if fields[4] != "true" or len(maximizers) != 1:
            problems.append(f"n={n}, nu={nu}: maximizer not unique")
            continue
        try:
            g = parse_graph6(maximizers[0])
        except ValueError as exc:
            problems.append(f"n={n}, nu={nu}: maximizer not graph6 ({exc})")
            continue
        if not nx.is_isomorphic(g, h_graph(n, nu)):
            problems.append(f"n={n}, nu={nu}: maximizer {maximizers[0]} is not h_graph")
        for label, want in (("max_sombor_value", max_sombor_value(n, nu)), ("sombor", sombor(g))):
            if not math.isclose(value, want, rel_tol=REL_TOL):
                problems.append(f"n={n}, nu={nu}: max_value {value} != {label} {want}")
    problems += [f"missing cell n={n}, nu={nu}" for n, nu in sorted(cells.keys() - seen)]
    return problems


def in_known_anomaly_class(g6: str) -> bool:
    """Maximum degree at most 2 and no component that is a single edge."""
    try:
        g = parse_graph6(g6)
    except ValueError:
        return False
    return all(d <= 2 for _, d in g.degree()) and not any(
        len(c) == 2 for c in nx.connected_components(g)
    )


def check_bounds(out: str, code: int, inputs: list[str]) -> list[str]:
    """The report lines cover every input graph with the full bound suite,
    in input order; the summary line matches them; every violation is the
    refuted degree-sum bound and every anomaly a lower bound on a graph of
    the known equality class; the exit status is 1 exactly when something
    was flagged."""
    body, _, tail = out.partition("\n\n")
    lines = body.split("\n")
    if lines[0] != BOUNDS_HEADER or tail.splitlines()[:1] != [SUMMARY_HEADER]:
        return ["report or summary header missing"]
    rows = [line.split(",") for line in lines[1:]]
    problems = [f"malformed report {row!r}" for row in rows if len(row) != len(Report._fields)]
    if problems:
        return problems
    reports = [Report(*row) for row in rows]
    reports = [r._replace(**{k: getattr(r, k) == "true" for k in REPORT_FLAGS}) for r in reports]
    per_graph = len(BOUND_IDS)
    if len(reports) != per_graph * len(inputs):
        problems.append(f"{len(reports)} reports for {len(inputs)} graphs")
    for i, g6 in enumerate(inputs):
        chunk = reports[per_graph * i : per_graph * (i + 1)]
        if {r.graph6 for r in chunk} != {g6} or {r.bound_id for r in chunk} != BOUND_IDS:
            problems.append(f"input {i + 1} ({g6}) lacks its {per_graph} reports")
    live = [r for r in reports if not r.vacuous]
    violations = [r for r in live if not r.holds]
    anomalies = [
        r for r in live if r.equality and r.bound_id in CHARACTERIZED_BOUNDS and not r.class_match
    ]
    tally = [
        len(inputs),
        len(reports),
        sum(r.holds for r in live),
        sum(r.equality for r in reports),
        len(reports) - len(live),
        len(violations),
        len(anomalies),
    ]
    summary = tail.splitlines()[1:2]
    if summary != [",".join(map(str, tally))]:
        problems.append(f"summary {summary} does not match the reports {tally}")
    problems += [
        f"violation of {r.bound_id} on {r.graph6}"
        for r in violations
        if r.bound_id != KNOWN_VIOLATION
    ]
    problems += [
        f"anomaly of {r.bound_id} on {r.graph6} outside the known class"
        for r in anomalies
        if r.bound_id not in KNOWN_ANOMALIES or not in_known_anomaly_class(r.graph6)
    ]
    want = 1 if violations or anomalies else 0
    if code != want:
        problems.append(f"exit status {code}, expected {want}")
    return problems
