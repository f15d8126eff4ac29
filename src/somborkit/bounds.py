"""Checks for every proven bound and identity, on arbitrary graphs.

Every bound here depends only on n, m, the component count and the
histogram of endpoint-degree pairs.  So each graph is profiled once: a
``GraphRecord`` holds its ``EdgeStats`` (one ``edge_stats`` call), its
graph6 text (the text it was read from, or encoded once for a generated
graph) and the four index values, each evaluated from the profile at
most once and only if a selected bound reads it.  Every check reads that
record; ``run_suite`` takes graphs or records, builds a record per graph
as it goes, passes it to every selected group and hands the graph's
reports to a sink before reading the next graph, and the public
``check_*`` functions also accept a plain ``Graph`` and build the record
themselves.  Index values are ``math.fsum`` sums over the histogram, so
a report does not depend on how the graph's vertices are labeled.

Each check produces a BoundReport.  Slack is oriented so that
``slack >= -tolerance`` is the uniform holds-test: rhs - lhs for upper
bounds, lhs - rhs for lower bounds.  Equality detection is two-stage:
numeric (|slack| within 1e-9 of scale) and then structural, against the
family proven to be the equality class.  A numeric equality without the
structural match is an anomaly and is never silently accepted.

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
from typing import Callable, Iterable

from .families import (
    all_edges_join_equal_degrees,
    every_edge_has_leaf_endpoint,
    is_cycle_graph,
    is_h_graph,
    is_path_graph,
    is_star_plus_isolated,
)
from .graphs import Graph, edge_stats, encode_graph6, is_connected
from .indices import first_zagreb, reduced_sombor, sombor, sombor_shifted

EQUALITY_TOL = 1e-9
STRICT_MARGIN = 1e-9

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


def _report(
    bound_id: str,
    rec: GraphRecord,
    lhs: float,
    rhs: float,
    *,
    lower: bool = False,
    strict: bool = False,
    vacuous: bool = False,
    class_predicate: Callable[[Graph], bool] | None = None,
) -> BoundReport:
    # Integer sides such as m(m-1) become floats: exact below 2**53, and
    # written as the integer would be below 1e12 (graphs under 10**6 edges).
    lhs, rhs = float(lhs), float(rhs)
    slack = lhs - rhs if lower else rhs - lhs
    equality = not vacuous and abs(slack) <= EQUALITY_TOL * max(1.0, abs(rhs))
    if vacuous:
        holds = True
    elif strict:
        holds = slack > STRICT_MARGIN
    else:
        holds = slack >= -EQUALITY_TOL * max(1.0, abs(rhs))
    match = bool(equality and class_predicate is not None and class_predicate(rec.graph))
    return BoundReport(
        bound_id=bound_id,
        graph6=rec.graph6,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        holds=holds,
        equality=equality,
        equality_class_match=match,
        vacuous=vacuous,
    )


def check_so_shifted_upper(g: Graph | GraphRecord) -> BoundReport:
    """sombor_shifted(G) <= m*sqrt((m+1)^2 + 4); equality exactly on a star
    with m edges plus isolated vertices."""
    rec = _record(g)
    m = rec.graph.m
    return _report(
        "so-shifted-upper",
        rec,
        rec.so_shifted,
        m * math.sqrt((m + 1) ** 2 + 4),
        class_predicate=is_star_plus_isolated,
    )


def check_so_red_upper(g: Graph | GraphRecord) -> BoundReport:
    """reduced_sombor(G) <= m(m-1); equality exactly on a star with m edges
    plus isolated vertices."""
    rec = _record(g)
    m = rec.graph.m
    return _report(
        "so-red-upper",
        rec,
        rec.so_red,
        m * (m - 1),
        class_predicate=is_star_plus_isolated,
    )


def _is_star(g: Graph) -> bool:
    return is_connected(g) and is_star_plus_isolated(g)


def check_tree_corollary(g: Graph | GraphRecord) -> BoundReport:
    """On trees: reduced_sombor(T) <= (n-1)(n-2), equality iff T is a star."""
    rec = _record(g)
    n = rec.graph.n
    is_tree = rec.stats.components == 1 and rec.graph.m == n - 1
    return _report(
        "tree-so-red-upper",
        rec,
        rec.so_red,
        (n - 1) * (n - 2),
        vacuous=not is_tree,
        class_predicate=_is_star,
    )


def check_degree_sum_bound(g: Graph | GraphRecord) -> BoundReport:
    """For graphs with a dominating vertex and cyclomatic number nu <= n-2:
    the sum of sqrt((n-1)^2 + d(v)^2) over the other vertices is at most
    (n-nu-2)sqrt((n-1)^2+1) + nu*sqrt((n-1)^2+4) + sqrt((n-1)^2+(nu+1)^2),
    with equality iff the graph is h_graph(n, nu)."""
    rec = _record(g)
    n = rec.graph.n
    deg = rec.stats.degrees
    nu = rec.graph.m - n + rec.stats.components
    dominating = n >= 1 and max(deg) == n - 1
    in_hypothesis = dominating and 0 <= nu <= n - 2
    hub = deg.index(max(deg)) if n >= 1 else 0
    a = n - 1
    lhs = math.fsum(math.hypot(a, d) for v, d in enumerate(deg) if v != hub)
    rhs = (
        (n - nu - 2) * math.sqrt(a * a + 1)
        + nu * math.sqrt(a * a + 4)
        + math.sqrt(a * a + (nu + 1) ** 2)
    )
    return _report(
        "degree-sum-upper",
        rec,
        lhs,
        rhs,
        vacuous=not in_hypothesis,
        class_predicate=is_h_graph,
    )


def check_epsilon_identities(g: Graph | GraphRecord) -> list[BoundReport]:
    """Exact integer identities for the counts of edge-degree-1 and
    edge-degree-2 edges, valid whenever there is no isolated edge:

        e1 = 4m - M1 + sum_{i>=3} e_i (i-2)
        e2 = M1 - 3m - sum_{i>=3} e_i (i-1)
    """
    rec = _record(g)
    vacuous = rec.stats.isolated_edges > 0
    m = rec.graph.m
    m1 = rec.m1
    counts = rec.stats.edge_degree_counts
    e1 = counts.get(1, 0)
    e2 = counts.get(2, 0)
    high_sum_2 = sum(c * (i - 2) for i, c in counts.items() if i >= 3)
    high_sum_1 = sum(c * (i - 1) for i, c in counts.items() if i >= 3)
    reports = []
    for bound_id, lhs, rhs in (
        ("epsilon1-identity", e1, 4 * m - m1 + high_sum_2),
        ("epsilon2-identity", e2, m1 - 3 * m - high_sum_1),
    ):
        slack = rhs - lhs
        holds = vacuous or slack == 0
        reports.append(
            BoundReport(
                bound_id=bound_id,
                graph6=rec.graph6,
                lhs=float(lhs),
                rhs=float(rhs),
                slack=float(slack),
                holds=holds,
                equality=not vacuous and slack == 0,
                equality_class_match=False,
                vacuous=vacuous,
            )
        )
    return reports


def _is_path_or_cycle(g: Graph) -> bool:
    return is_path_graph(g) or is_cycle_graph(g)


def check_so_lower_bound(g: Graph | GraphRecord) -> BoundReport:
    """For graphs without isolated edges:
    sombor(G) >= (1/3)(2*sqrt2 - sqrt5)(3*M1 - 4m + 2*sqrt10*m),
    with equality iff G is a path or a cycle."""
    rec = _record(g)
    m = rec.graph.m
    rhs = SO_LOWER_COEFF * (3 * rec.m1 - 4 * m + 2 * math.sqrt(10) * m)
    return _report(
        "so-lower",
        rec,
        rec.so,
        rhs,
        lower=True,
        vacuous=rec.stats.isolated_edges > 0,
        class_predicate=_is_path_or_cycle,
    )


def check_so_red_lower_bound(g: Graph | GraphRecord) -> BoundReport:
    """For graphs without isolated edges:
    reduced_sombor(G) >= (sqrt2 - 1)(M1 - 2m + sqrt2*m),
    with equality iff G is a path or a cycle."""
    rec = _record(g)
    m = rec.graph.m
    rhs = SO_RED_LOWER_COEFF * (rec.m1 - 2 * m + math.sqrt(2) * m)
    return _report(
        "so-red-lower",
        rec,
        rec.so_red,
        rhs,
        lower=True,
        vacuous=rec.stats.isolated_edges > 0,
        class_predicate=_is_path_or_cycle,
    )


def check_zagreb_sandwich(g: Graph | GraphRecord) -> list[BoundReport]:
    """The four first-Zagreb comparisons, vacuous on edgeless graphs:

        M1 > SO               (strict; per-edge margin at least 2 - sqrt2)
        SO >= M1 / sqrt2      (equality iff every edge joins equal degrees)
        SO_red <= M1 - 2m     (equality iff every edge has a leaf endpoint)
        SO_red >= (M1-2m)/sqrt2  (equality iff every edge joins equal degrees)
    """
    rec = _record(g)
    vacuous = rec.graph.m == 0
    m1 = float(rec.m1)
    so = rec.so
    so_red = rec.so_red
    reduced_cap = m1 - 2 * rec.graph.m
    return [
        _report("zagreb-so-upper", rec, so, m1, strict=True, vacuous=vacuous),
        _report(
            "zagreb-so-lower",
            rec,
            so,
            m1 / math.sqrt(2),
            lower=True,
            vacuous=vacuous,
            class_predicate=all_edges_join_equal_degrees,
        ),
        _report(
            "zagreb-so-red-upper",
            rec,
            so_red,
            reduced_cap,
            vacuous=vacuous,
            class_predicate=every_edge_has_leaf_endpoint,
        ),
        _report(
            "zagreb-so-red-lower",
            rec,
            so_red,
            reduced_cap / math.sqrt(2),
            lower=True,
            vacuous=vacuous,
            class_predicate=all_edges_join_equal_degrees,
        ),
    ]


BOUND_GROUPS: dict[str, Callable[[GraphRecord], list[BoundReport]]] = {
    "so-shifted-upper": lambda rec: [check_so_shifted_upper(rec)],
    "so-red-upper": lambda rec: [check_so_red_upper(rec)],
    "tree-so-red-upper": lambda rec: [check_tree_corollary(rec)],
    "degree-sum-upper": lambda rec: [check_degree_sum_bound(rec)],
    "epsilon-identities": check_epsilon_identities,
    "so-lower": lambda rec: [check_so_lower_bound(rec)],
    "so-red-lower": lambda rec: [check_so_red_lower_bound(rec)],
    "zagreb-sandwich": check_zagreb_sandwich,
}

# the bound_ids each group emits, in order
GROUP_BOUND_IDS: dict[str, tuple[str, ...]] = {name: (name,) for name in BOUND_GROUPS} | {
    "epsilon-identities": ("epsilon1-identity", "epsilon2-identity"),
    "zagreb-sandwich": (
        "zagreb-so-upper",
        "zagreb-so-lower",
        "zagreb-so-red-upper",
        "zagreb-so-red-lower",
    ),
}

# bound_ids whose equality case has a proven structural characterization
CHARACTERIZED_BOUNDS = frozenset(
    {
        "so-shifted-upper",
        "so-red-upper",
        "tree-so-red-upper",
        "degree-sum-upper",
        "so-lower",
        "so-red-lower",
        "zagreb-so-lower",
        "zagreb-so-red-upper",
        "zagreb-so-red-lower",
    }
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
    once, one graph at a time.  ``bounds`` is a list of BOUND_GROUPS
    keys; None means all of them.
    Each graph's reports (one per emitted bound, in group order) are
    passed to ``sink`` before the next graph is read, and then dropped:
    the returned summary keeps only the tallies and the violation and
    anomaly reports, so memory grows with the flagged reports alone.
    The order-0 graph is outside every bound's hypothesis and the indices
    are undefined on it, so its reports are vacuous with lhs, rhs and
    slack 0, and no index is evaluated.
    """
    if bounds is None:
        selected = list(BOUND_GROUPS)
    else:
        selected = list(bounds)
        unknown = [b for b in selected if b not in BOUND_GROUPS]
        if unknown:
            raise ValueError(
                f"unknown bound id(s) {unknown}; known: {sorted(BOUND_GROUPS)}"
            )
    n_graphs = n_reports = holds = equality = vacuous = 0
    violations: list[BoundReport] = []
    anomalies: list[BoundReport] = []
    for g in graphs:
        n_graphs += 1
        rec = _record(g)
        reports: list[BoundReport] = []
        for name in selected:
            if rec.graph.n:
                reports.extend(BOUND_GROUPS[name](rec))
                continue
            reports.extend(
                BoundReport(
                    bound_id=bound_id,
                    graph6=rec.graph6,
                    lhs=0.0,
                    rhs=0.0,
                    slack=0.0,
                    holds=True,
                    equality=False,
                    equality_class_match=False,
                    vacuous=True,
                )
                for bound_id in GROUP_BOUND_IDS[name]
            )
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
