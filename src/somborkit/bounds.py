"""Checks for every proven bound and identity, on arbitrary graphs.

Every bound here, and every equality class, depends only on n, m, the
component count and the histogram of endpoint-degree pairs, which fixes
the degrees.  So each graph is profiled once: a
``GraphRecord`` holds its ``EdgeStats`` (one ``edge_stats`` call), its
graph6 text (the text it was read from, or encoded once for a generated
graph) and the four index values, each evaluated from the profile at
most once and only if a selected bound reads it.  Every check reads that
record; ``run_suite`` takes graphs or records, builds a record per graph
as it goes, checks every selected bound on it and hands the graph's
reports to a sink before reading the next graph, and the public
``check_*`` functions also accept a plain ``Graph`` and build the record
themselves.  Index values are ``math.fsum`` sums over the histogram, so
a report does not depend on how the graph's vertices are labeled.

Each checked statement is one ``Bound`` row of the ``BOUNDS`` table, under
its group name: its id, sides, sense, vacuity predicate and equality class.
``Bound.check`` is the one place a bound is judged and its BoundReport
built; ``BOUND_GROUPS`` and ``CHARACTERIZED_BOUNDS`` are read off the table.

Slack is oriented so that ``slack >= 0`` is the uniform holds-test:
rhs - lhs for upper bounds, lhs - rhs for lower bounds.  Equality
detection is two-stage: numeric (lhs and rhs tie under
``indices._is_tie``, |slack| <= 1e-9 * max(1, |rhs|)) and then
structural, by the ``families`` test of the proven class.  A numeric
equality also counts as holding for an upper or lower bound and as
failing for a strict one.
A numeric equality without the structural match is an anomaly and is
never silently accepted.  An identity compares exact integers: it holds
only at slack 0 and has no equality class.

Hypothesis notes.  The lower bounds assume no isolated edges (no K2
component); isolated vertices are permitted, so equality cases such as a
path plus an isolated vertex, or a disjoint union of cycles, are flagged
as anomalies on disconnected universes -- their edge structure attains the
bound but the graph is not a path or a cycle.  Censuses therefore run on
connected universes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Literal

from .families import (
    all_edges_join_equal_degrees,
    every_edge_has_leaf_endpoint,
    is_cycle_graph,
    is_h_graph,
    is_path_graph,
    is_star_plus_isolated,
)
from .graphs import EdgeStats, Graph, edge_stats, encode_graph6
from .indices import _is_tie, first_zagreb, reduced_sombor, sombor, sombor_shifted

SO_LOWER_COEFF = (2 * math.sqrt(2) - math.sqrt(5)) / 3
SO_RED_LOWER_COEFF = math.sqrt(2) - 1


class GraphRecord:
    """What every bound reads about one graph, computed once.

    ``graph6`` is the text g was read from, in standard form (short size
    header for n <= 62); it is encoded from g when not given.  The index
    values are computed on first use, so a bound selection that reads
    none of them never evaluates them.
    """

    def __init__(self, g: Graph, graph6: str | None = None) -> None:
        self.graph = g
        self.stats = edge_stats(g)
        self.graph6 = encode_graph6(g) if graph6 is None else graph6

    @cached_property
    def so(self) -> float:
        return sombor(self.stats)

    @cached_property
    def so_red(self) -> float:
        return reduced_sombor(self.stats)

    @cached_property
    def so_shifted(self) -> float:
        return sombor_shifted(self.stats)

    @cached_property
    def m1(self) -> int:
        return first_zagreb(self.stats)

    @cached_property
    def edge_degree_counts(self) -> dict[int, int]:
        return self.stats.edge_degree_counts


def _record(g: Graph | GraphRecord) -> GraphRecord:
    return g if isinstance(g, GraphRecord) else GraphRecord(g)


@dataclass(frozen=True, slots=True)
class BoundReport:
    bound_id: str
    graph6: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    equality: bool
    equality_class_match: bool
    vacuous: bool

    @property
    def violation(self) -> bool:
        return not self.vacuous and not self.holds

    @property
    def anomaly(self) -> bool:
        """Numeric equality on a characterized bound without the structural
        match."""
        return (
            not self.vacuous
            and self.equality
            and self.bound_id in CHARACTERIZED_BOUNDS
            and not self.equality_class_match
        )


@dataclass(frozen=True, slots=True)
class Bound:
    """One checked statement: ``lhs <= rhs`` (``upper``), ``lhs >= rhs``
    (``lower``), ``lhs < rhs`` (``strict``) or the exact integer equation
    ``lhs == rhs`` (``identity``).  Float sides that tie under
    ``indices._is_tie`` are an equality: an upper or lower bound holds
    there and a strict one does not.

    ``sides`` returns (lhs, rhs) from a record, ``vacuous`` tells whether
    the graph is outside the hypothesis, and ``equality_class`` tests the
    record's ``EdgeStats`` for the proven equality class, or is None.
    """

    id: str
    sides: Callable[[GraphRecord], tuple[float, float]]
    sense: Literal["upper", "lower", "strict", "identity"]
    vacuous: Callable[[GraphRecord], bool]
    equality_class: Callable[[EdgeStats], bool] | None = None

    def check(self, rec: GraphRecord) -> BoundReport:
        """Judge the bound on one graph.  A vacuous report keeps its real
        sides and slack, but the order-0 graph, outside every hypothesis and
        with no index defined, reads 0, 0, 0 and its sides are never called."""
        if rec.graph.n:
            lhs, rhs = self.sides(rec)
            vacuous = self.vacuous(rec)
        else:
            lhs = rhs = 0
            vacuous = True
        if self.sense == "identity":
            slack = rhs - lhs
            holds = equality = slack == 0
        else:
            # Integer sides such as m(m-1) become floats: exact below 2**53, and
            # written as the integer would be below 1e12 (graphs under 10**6 edges).
            lhs, rhs = float(lhs), float(rhs)
            slack = lhs - rhs if self.sense == "lower" else rhs - lhs
            equality = _is_tie(lhs, rhs)
            holds = slack > 0 and not equality if self.sense == "strict" else slack >= 0 or equality
        equality = equality and not vacuous
        match = equality and self.equality_class is not None and self.equality_class(rec.stats)
        return BoundReport(
            bound_id=self.id,
            graph6=rec.graph6,
            lhs=float(lhs),
            rhs=float(rhs),
            slack=float(slack),
            holds=holds or vacuous,
            equality=equality,
            equality_class_match=bool(match),
            vacuous=vacuous,
        )


# group name -> its rows, in the order the group reports them
BOUNDS: dict[str, tuple[Bound, ...]] = {}
# group name -> its public check, as a callable returning the group's reports
BOUND_GROUPS: dict[str, Callable[[Graph | GraphRecord], list[BoundReport]]] = {}


def _group(name: str, *rows: Bound) -> Callable[[Callable], Callable]:
    """Enter ``rows`` in the table as group ``name``; the decorated check goes
    into BOUND_GROUPS, wrapped to return a list if it returns one report."""

    def enter(check: Callable) -> Callable:
        BOUNDS[name] = rows
        BOUND_GROUPS[name] = check if len(rows) > 1 else lambda g: [check(g)]
        return check

    return enter


def _never(r: GraphRecord) -> bool:
    return False


def _has_isolated_edge(r: GraphRecord) -> bool:
    return r.stats.isolated_edges > 0


def _edgeless(r: GraphRecord) -> bool:
    return r.graph.m == 0


def _nu(r: GraphRecord) -> int:
    return r.graph.m - r.graph.n + r.stats.components


@_group("so-shifted-upper", Bound(
    "so-shifted-upper",
    lambda r: (r.so_shifted, r.graph.m * math.sqrt((r.graph.m + 1) ** 2 + 4)),
    "upper", _never, is_star_plus_isolated,
))
def check_so_shifted_upper(g: Graph | GraphRecord) -> BoundReport:
    """sombor_shifted(G) <= m*sqrt((m+1)^2 + 4); equality exactly on a star
    with m edges plus isolated vertices."""
    return BOUNDS["so-shifted-upper"][0].check(_record(g))


@_group("so-red-upper", Bound(
    "so-red-upper", lambda r: (r.so_red, r.graph.m * (r.graph.m - 1)),
    "upper", _never, is_star_plus_isolated,
))
def check_so_red_upper(g: Graph | GraphRecord) -> BoundReport:
    """reduced_sombor(G) <= m(m-1); equality exactly on a star with m edges
    plus isolated vertices."""
    return BOUNDS["so-red-upper"][0].check(_record(g))


def _is_star(s: EdgeStats) -> bool:
    return s.components == 1 and is_star_plus_isolated(s)


def _not_a_tree(r: GraphRecord) -> bool:
    return r.stats.components != 1 or r.graph.m != r.graph.n - 1


@_group("tree-so-red-upper", Bound(
    "tree-so-red-upper", lambda r: (r.so_red, (r.graph.n - 1) * (r.graph.n - 2)),
    "upper", _not_a_tree, _is_star,
))
def check_tree_corollary(g: Graph | GraphRecord) -> BoundReport:
    """On trees: reduced_sombor(T) <= (n-1)(n-2), equality iff T is a star."""
    return BOUNDS["tree-so-red-upper"][0].check(_record(g))


def _degree_sum_sides(r: GraphRecord) -> tuple[float, float]:
    n = r.graph.n
    deg = r.stats.degrees
    nu = _nu(r)
    hub = deg.index(max(deg))
    a = n - 1
    lhs = math.fsum(math.hypot(a, d) for v, d in enumerate(deg) if v != hub)
    rhs = (
        (n - nu - 2) * math.sqrt(a * a + 1)
        + nu * math.sqrt(a * a + 4)
        + math.sqrt(a * a + (nu + 1) ** 2)
    )
    return lhs, rhs


def _outside_degree_sum_hypothesis(r: GraphRecord) -> bool:
    n = r.graph.n
    return max(r.stats.degrees) != n - 1 or not 0 <= _nu(r) <= n - 2


@_group("degree-sum-upper", Bound(
    "degree-sum-upper", _degree_sum_sides, "upper", _outside_degree_sum_hypothesis, is_h_graph,
))
def check_degree_sum_bound(g: Graph | GraphRecord) -> BoundReport:
    """For graphs with a dominating vertex and cyclomatic number nu <= n-2:
    the sum of sqrt((n-1)^2 + d(v)^2) over the other vertices is at most
    (n-nu-2)sqrt((n-1)^2+1) + nu*sqrt((n-1)^2+4) + sqrt((n-1)^2+(nu+1)^2),
    with equality iff the graph is h_graph(n, nu)."""
    return BOUNDS["degree-sum-upper"][0].check(_record(g))


def _epsilon1_sides(r: GraphRecord) -> tuple[int, int]:
    counts = r.edge_degree_counts
    high_sum_2 = sum(c * (i - 2) for i, c in counts.items() if i >= 3)
    return counts.get(1, 0), 4 * r.graph.m - r.m1 + high_sum_2


def _epsilon2_sides(r: GraphRecord) -> tuple[int, int]:
    counts = r.edge_degree_counts
    high_sum_1 = sum(c * (i - 1) for i, c in counts.items() if i >= 3)
    return counts.get(2, 0), r.m1 - 3 * r.graph.m - high_sum_1


@_group(
    "epsilon-identities",
    Bound("epsilon1-identity", _epsilon1_sides, "identity", _has_isolated_edge),
    Bound("epsilon2-identity", _epsilon2_sides, "identity", _has_isolated_edge),
)
def check_epsilon_identities(g: Graph | GraphRecord) -> list[BoundReport]:
    """Exact integer identities for the counts of edge-degree-1 and
    edge-degree-2 edges, valid whenever there is no isolated edge:

        e1 = 4m - M1 + sum_{i>=3} e_i (i-2)
        e2 = M1 - 3m - sum_{i>=3} e_i (i-1)
    """
    rec = _record(g)
    return [b.check(rec) for b in BOUNDS["epsilon-identities"]]


def _is_path_or_cycle(s: EdgeStats) -> bool:
    return is_path_graph(s) or is_cycle_graph(s)


@_group("so-lower", Bound(
    "so-lower",
    lambda r: (r.so, SO_LOWER_COEFF * (3 * r.m1 - 4 * r.graph.m + 2 * math.sqrt(10) * r.graph.m)),
    "lower", _has_isolated_edge, _is_path_or_cycle,
))
def check_so_lower_bound(g: Graph | GraphRecord) -> BoundReport:
    """For graphs without isolated edges:
    sombor(G) >= (1/3)(2*sqrt2 - sqrt5)(3*M1 - 4m + 2*sqrt10*m),
    with equality iff G is a path or a cycle."""
    return BOUNDS["so-lower"][0].check(_record(g))


@_group("so-red-lower", Bound(
    "so-red-lower",
    lambda r: (r.so_red, SO_RED_LOWER_COEFF * (r.m1 - 2 * r.graph.m + math.sqrt(2) * r.graph.m)),
    "lower", _has_isolated_edge, _is_path_or_cycle,
))
def check_so_red_lower_bound(g: Graph | GraphRecord) -> BoundReport:
    """For graphs without isolated edges:
    reduced_sombor(G) >= (sqrt2 - 1)(M1 - 2m + sqrt2*m),
    with equality iff G is a path or a cycle."""
    return BOUNDS["so-red-lower"][0].check(_record(g))


@_group(
    "zagreb-sandwich",
    Bound("zagreb-so-upper", lambda r: (r.so, r.m1), "strict", _edgeless),
    Bound(
        "zagreb-so-lower", lambda r: (r.so, r.m1 / math.sqrt(2)),
        "lower", _edgeless, all_edges_join_equal_degrees,
    ),
    Bound(
        "zagreb-so-red-upper", lambda r: (r.so_red, r.m1 - 2 * r.graph.m),
        "upper", _edgeless, every_edge_has_leaf_endpoint,
    ),
    Bound(
        "zagreb-so-red-lower", lambda r: (r.so_red, (r.m1 - 2 * r.graph.m) / math.sqrt(2)),
        "lower", _edgeless, all_edges_join_equal_degrees,
    ),
)
def check_zagreb_sandwich(g: Graph | GraphRecord) -> list[BoundReport]:
    """The four first-Zagreb comparisons, vacuous on edgeless graphs:

        M1 > SO               (strict; per-edge margin at least 2 - sqrt2)
        SO >= M1 / sqrt2      (equality iff every edge joins equal degrees)
        SO_red <= M1 - 2m     (equality iff every edge has a leaf endpoint)
        SO_red >= (M1-2m)/sqrt2  (equality iff every edge joins equal degrees)
    """
    rec = _record(g)
    return [b.check(rec) for b in BOUNDS["zagreb-sandwich"]]


# bound_ids whose equality case has a proven structural characterization
CHARACTERIZED_BOUNDS = frozenset(
    b.id for rows in BOUNDS.values() for b in rows if b.equality_class is not None
)


@dataclass(frozen=True, slots=True)
class SuiteSummary:
    graphs: int
    reports: int
    holds: int
    equality: int
    vacuous: int
    violations: tuple[BoundReport, ...]
    anomalies: tuple[BoundReport, ...]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.anomalies


def run_suite(
    graphs: Iterable[Graph | GraphRecord],
    bounds: Iterable[str] | None = None,
    sink: Callable[[list[BoundReport]], object] | None = None,
) -> SuiteSummary:
    """Evaluate the selected bound groups on every graph.

    ``graphs`` may be a lazy iterable of graphs or records; it is read
    once, one graph at a time.  ``bounds`` is a list of group names (the
    keys of BOUNDS), each checked once in the order first named; None
    means all of them.
    Each graph's reports (one per row of the selected groups, in group
    order) are passed to ``sink`` before the next graph is read, and then
    dropped: the returned summary keeps only the tallies and the violation
    and anomaly reports, so memory grows with the flagged reports alone.
    """
    if bounds is None:
        selected = list(BOUNDS)
    else:
        selected = list(dict.fromkeys(bounds))
        unknown = [b for b in selected if b not in BOUNDS]
        if unknown:
            raise ValueError(f"unknown bound group(s) {unknown}; known: {sorted(BOUNDS)}")
    rows = [b for name in selected for b in BOUNDS[name]]
    n_graphs = n_reports = holds = equality = vacuous = 0
    violations: list[BoundReport] = []
    anomalies: list[BoundReport] = []
    for g in graphs:
        n_graphs += 1
        rec = _record(g)
        reports = [b.check(rec) for b in rows]
        n_reports += len(reports)
        for r in reports:
            holds += r.holds and not r.vacuous
            equality += r.equality
            vacuous += r.vacuous
            if r.violation:
                violations.append(r)
            if r.anomaly:
                anomalies.append(r)
        if sink is not None:
            sink(reports)
    return SuiteSummary(
        graphs=n_graphs,
        reports=n_reports,
        holds=holds,
        equality=equality,
        vacuous=vacuous,
        violations=tuple(violations),
        anomalies=tuple(anomalies),
    )
