"""Checks for every proven bound and identity, on arbitrary graphs.

Every bound here, and every equality class, depends only on n, m, the
component count and the histogram of endpoint-degree pairs, which fixes
the degrees.  So each graph is profiled once: a ``GraphRecord`` holds
its n and m, its ``EdgeStats`` (one ``edge_stats`` call), its graph6 text
(the text it was read from, or encoded once for a generated graph) and
the four index values, each evaluated once from the profile when the
record is built.  Every check reads that record: the public
``check_*`` functions take a record, and ``run_suite`` takes records,
checks every selected bound on each and hands the graph's reports to a
sink before reading the next record.  Index values are ``math.fsum``
sums over the histogram, so a report does not depend on how the graph's
vertices are labeled.

Each checked statement is one ``Bound`` row of the ``BOUNDS`` table, under
its group name: its id, sides, sense, vacuity predicate and equality class.
``Bound.check`` is the one place a bound is judged and its BoundReport
built; ``BOUND_GROUPS`` is read off the table.  A report holds only the
nine CSV columns of its row, so ``run_suite``, which has the row in hand,
decides both verdicts below from each (row, report) pair.

Slack is oriented so that ``slack >= 0`` is the uniform holds-test:
rhs - lhs for upper bounds, lhs - rhs for lower bounds.  Equality
detection is two-stage: numeric (lhs and rhs tie under
``indices._is_tie``, |slack| <= 1e-9 * max(1, |rhs|)) and then
structural, by the row's equality class, a rule on the profile.  A
numeric equality also counts as holding for an upper or lower bound and
as failing for a strict one.  A report that does not hold is a
violation; a vacuous report is written as holding, so it never is one.
A numeric equality without the structural match, on a row that has an
equality class, is an anomaly and is never silently accepted; a vacuous
report has no equality, so it never is one either.  An identity compares
exact integers: it holds only at slack 0 and has no equality class.

Eight rows are per-edge rows: the two identities, the two M1 lower bounds
and the four Zagreb rows.  Their slack is a sum over edges of one term
g(a, b) of the endpoint degrees, so such a row holds on every graph iff
g >= 0 on every pair its hypothesis admits, and its equality graphs are
those whose pairs all lie in the zero set {g = 0}.  Each row's ``check_*``
docstring proves this, and its equality class is a rule on the pairs.
The global upper rows use the ``families`` tests ``is_star_plus_isolated``
and ``is_h_graph``.  Of them, ``so-shifted-upper``, ``so-red-upper`` and
``tree-so-red-upper`` are proved in their docstrings for every graph,
from a + b <= m + 1 on every edge, and ``degree-sum-upper`` is refuted
in its docstring.  So every row is a theorem or a refuted statement.

Hypothesis notes.  The lower bounds assume no isolated edges (no K2
component); isolated vertices are permitted.  Their equality graphs are
then exactly those with maximum degree at most 2, but the class reported
as a match is the connected part, a path or a cycle.  So a disconnected
equality graph, such as a path plus an isolated vertex or a disjoint
union of cycles, is flagged as an anomaly, and censuses run on connected
universes.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Literal, NamedTuple

from .families import hub_edge_sum, is_h_graph, is_star_plus_isolated
from .graphs import EdgeStats, Graph, edge_stats, encode_graph6
from .indices import _is_tie, first_zagreb, reduced_sombor, sombor, sombor_shifted

SO_LOWER_COEFF = (2 * math.sqrt(2) - math.sqrt(5)) / 3
SO_RED_LOWER_COEFF = math.sqrt(2) - 1


class GraphRecord:
    """What every bound reads about one graph, computed once.

    ``n`` and ``m`` are the graph's order and size, ``stats`` its profile
    and ``graph6`` the text g was read from, in standard form (short size
    header for n <= 62); it is encoded from g when not given.  ``so``,
    ``so_red``, ``so_shifted`` and ``m1`` are the four index values,
    evaluated from the profile here; the order-0 graph has none, since no
    index is defined on it.
    """

    def __init__(self, g: Graph, graph6: str | None = None) -> None:
        self.n = g.n
        self.m = g.m
        self.stats = s = edge_stats(g)
        self.graph6 = encode_graph6(g) if graph6 is None else graph6
        if g.n:
            self.so: float = sombor(s)
            self.so_red: float = reduced_sombor(s)
            self.so_shifted: float = sombor_shifted(s)
            self.m1: int = first_zagreb(s)


class BoundReport(NamedTuple):
    bound_id: str
    graph6: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    equality: bool
    equality_class_match: bool
    vacuous: bool


class Bound(NamedTuple):
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
        if rec.n:
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
BOUND_GROUPS: dict[str, Callable[[GraphRecord], list[BoundReport]]] = {}


def _group(name: str, *rows: Bound) -> Callable[[Callable], Callable]:
    """Enter ``rows`` in the table as group ``name``; the decorated check goes
    into BOUND_GROUPS, wrapped to return a list if it returns one report."""

    def enter(check: Callable) -> Callable:
        BOUNDS[name] = rows
        BOUND_GROUPS[name] = check if len(rows) > 1 else lambda rec: [check(rec)]
        return check

    return enter


def _never(r: GraphRecord) -> bool:
    return False


def _has_isolated_edge(r: GraphRecord) -> bool:
    return (1, 1) in r.stats.endpoint_degree_counts


def _edgeless(r: GraphRecord) -> bool:
    return r.m == 0


@_group("so-shifted-upper", Bound(
    "so-shifted-upper",
    lambda r: (r.so_shifted, r.m * math.sqrt((r.m + 1) ** 2 + 4)),
    "upper", _never, is_star_plus_isolated,
))
def check_so_shifted_upper(rec: GraphRecord) -> BoundReport:
    """sombor_shifted(G) <= m*sqrt((m+1)^2 + 4); equality exactly on a star
    with m edges plus isolated vertices.

    Proof.  Let 1 <= a <= b be the endpoint degrees of an edge.  As in
    ``check_so_red_upper``, the edge meets each of the other m - 1 edges
    at most once, so a + b <= m + 1.  Hence

        (a+1)^2 + (b+1)^2 = 4 + (a + b)^2 - 2(a-1)(b-1) <= 4 + (m+1)^2.

    The step drops 2(a-1)(b-1) >= 0, tight iff a = 1, and uses
    a + b <= m + 1, tight iff a + b = m + 1; so the term
    sqrt((a+1)^2 + (b+1)^2) reaches sqrt((m+1)^2 + 4) iff the pair is
    (1, m).  Summed over the m edges, this is the row, with equality iff
    every pair is (1, m), which is ``is_star_plus_isolated``.  An edgeless
    graph has 0 = 0 and no pair."""
    return BOUNDS["so-shifted-upper"][0].check(rec)


@_group("so-red-upper", Bound(
    "so-red-upper", lambda r: (r.so_red, r.m * (r.m - 1)),
    "upper", _never, is_star_plus_isolated,
))
def check_so_red_upper(rec: GraphRecord) -> BoundReport:
    """reduced_sombor(G) <= m(m-1); equality exactly on a star with m edges
    plus isolated vertices.

    Proof.  Let a <= b be the endpoint degrees of an edge uv.  The other
    edges at u and the other edges at v are a - 1 and b - 1 distinct
    edges of the other m - 1, since an edge at both is uv itself; so
    a + b <= m + 1.  Hence

        sqrt((a-1)^2 + (b-1)^2) <= (a - 1) + (b - 1) <= m - 1.

    The first step compares squares, which differ by 2(a-1)(b-1) >= 0,
    and is tight iff a = 1; the second is tight iff a + b = m + 1.  Summed
    over the m edges, SO_red <= m(m-1), with equality iff every pair is
    (1, m): every edge joins a leaf to a vertex of degree m, which is
    ``is_star_plus_isolated``.  An edgeless graph has 0 = 0 and no pair."""
    return BOUNDS["so-red-upper"][0].check(rec)


def _not_a_tree(r: GraphRecord) -> bool:
    return r.stats.components != 1 or r.m != r.n - 1


@_group("tree-so-red-upper", Bound(
    "tree-so-red-upper", lambda r: (r.so_red, (r.n - 1) * (r.n - 2)),
    "upper", _not_a_tree, is_star_plus_isolated,
))
def check_tree_corollary(rec: GraphRecord) -> BoundReport:
    """On trees: reduced_sombor(T) <= (n-1)(n-2), equality iff T is a star.
    The row is vacuous off trees, and a tree is a star iff every edge joins
    degrees 1 and m.

    Proof.  A tree has m = n - 1 edges, so this is ``check_so_red_upper``'s
    bound m(m-1) at m = n - 1, with its proof: each edge's term
    sqrt((a-1)^2 + (b-1)^2) is at most (a - 1) + (b - 1) <= m - 1, because
    the edge meets each of the other m - 1 edges at most once, so
    a + b <= m + 1.  Equality holds iff every pair is (1, m)."""
    return BOUNDS["tree-so-red-upper"][0].check(rec)


def _degree_sum_sides(r: GraphRecord) -> tuple[float, float]:
    # one term per vertex but one of greatest degree, the hub, whose term is
    # the greatest; fsum rounds the exact sum once, whatever the term order
    terms = [math.hypot(r.n - 1, d) for d, c in r.stats.degree_counts.items() for _ in range(c)]
    terms.remove(max(terms))
    return math.fsum(terms), hub_edge_sum(r.n, r.stats.nu)


def _outside_degree_sum_hypothesis(r: GraphRecord) -> bool:
    return max(r.stats.degree_counts) != r.n - 1 or not 0 <= r.stats.nu <= r.n - 2


@_group("degree-sum-upper", Bound(
    "degree-sum-upper", _degree_sum_sides, "upper", _outside_degree_sum_hypothesis, is_h_graph,
))
def check_degree_sum_bound(rec: GraphRecord) -> BoundReport:
    """For graphs with a dominating vertex and cyclomatic number nu <= n-2:
    the sum of sqrt((n-1)^2 + d(v)^2) over the other vertices is at most
    (n-nu-2)sqrt((n-1)^2+1) + nu*sqrt((n-1)^2+4) + sqrt((n-1)^2+(nu+1)^2),
    with equality iff the graph is h_graph(n, nu).

    The statement fails at every order n >= 5.  The degrees
    (n-1, 3, 3, 3, 1^(n-4)), a hub plus a triangle, have nu = 3 and exceed
    the bound by E(a), with a = n-1:

        E(a) = 3 sqrt(a^2+9) + sqrt(a^2+1) - 3 sqrt(a^2+4) - sqrt(a^2+16).

    For x >= 0, 1 + x/2 - x^2/8 <= sqrt(1+x) <= 1 + x/2 - x^2/8 + x^3/16,
    since the third derivative of sqrt(1+x) is positive and the fourth
    negative.  Write sqrt(a^2+k) = a sqrt(1 + k/a^2) and bound the two
    positive terms from below and the two negative ones from above.  The
    a terms cancel, and so do the 1/a terms, because 3*9 + 1 = 3*4 + 16;
    what remains is

        E(a) >= 15/(2a^3) - 268/a^5 = (15a^2 - 536)/(2a^5),

    which is positive for a >= 6.  E(4) = 0.0498 (``DJ{``) and
    E(5) = 0.0333 are positive too."""
    return BOUNDS["degree-sum-upper"][0].check(rec)


# an edge whose endpoint degrees are i and j has edge degree k = i + j - 2
def _epsilon1_sides(r: GraphRecord) -> tuple[int, int]:
    pairs = r.stats.endpoint_degree_counts.items()
    e1 = sum(c for (i, j), c in pairs if i + j == 3)
    high_sum_2 = sum(c * (i + j - 4) for (i, j), c in pairs if i + j >= 5)
    return e1, 4 * r.m - r.m1 + high_sum_2


def _epsilon2_sides(r: GraphRecord) -> tuple[int, int]:
    pairs = r.stats.endpoint_degree_counts.items()
    e2 = sum(c for (i, j), c in pairs if i + j == 4)
    high_sum_1 = sum(c * (i + j - 3) for (i, j), c in pairs if i + j >= 5)
    return e2, r.m1 - 3 * r.m - high_sum_1


@_group(
    "epsilon-identities",
    Bound("epsilon1-identity", _epsilon1_sides, "identity", _has_isolated_edge),
    Bound("epsilon2-identity", _epsilon2_sides, "identity", _has_isolated_edge),
)
def check_epsilon_identities(rec: GraphRecord) -> list[BoundReport]:
    """Exact integer identities for the counts e_k of edges of edge degree
    k = a + b - 2 (a and b the endpoint degrees), read off the pair
    histogram, valid whenever there is no isolated edge:

        e1 = 4m - M1 + sum_{i>=3} e_i (i-2)
        e2 = M1 - 3m - sum_{i>=3} e_i (i-1)

    Proof.  Both sides are sums over edges of a term in the edge's degree
    k.  Per edge, rhs - lhs is 2 - k + [k >= 3](k - 2) - [k = 1] for e1 and
    k - 1 - [k >= 3](k - 1) - [k = 2] for e2.  Both are 0 for every k >= 1.
    At k = 0, the pair (1, 1) of an isolated edge, they are 2 and -1."""
    return [b.check(rec) for b in BOUNDS["epsilon-identities"]]


# the endpoint-degree pairs on which both lower bounds are tight
_LOWER_ZERO_PAIRS = frozenset({(1, 2), (2, 2)})


def _path_or_cycle(s: EdgeStats) -> bool:
    """Connected, with every edge in ``_LOWER_ZERO_PAIRS``: a path on at
    least 3 vertices, a cycle, or K1."""
    return s.components == 1 and s.endpoint_degree_counts.keys() <= _LOWER_ZERO_PAIRS


@_group("so-lower", Bound(
    "so-lower",
    lambda r: (r.so, SO_LOWER_COEFF * (3 * r.m1 - 4 * r.m + 2 * math.sqrt(10) * r.m)),
    "lower", _has_isolated_edge, _path_or_cycle,
))
def check_so_lower_bound(rec: GraphRecord) -> BoundReport:
    """For graphs without isolated edges:
    sombor(G) >= (1/3)(2*sqrt2 - sqrt5)(3*M1 - 4m + 2*sqrt10*m),
    with equality iff every edge joins degrees (1, 2) or (2, 2), that is
    iff every component is a path on at least 3 vertices, a cycle or a
    single vertex.  The class reported as a match is the connected one, a
    path or a cycle; a disconnected equality graph is an anomaly.

    Proof.  With c = (2 sqrt2 - sqrt5)/3, the slack is the sum over edges of
    g(a, b), where a <= b are the edge's endpoint degrees:

        g(a, b) = sqrt(a^2 + b^2) - c(3(a + b) - 4 + 2 sqrt10).

    Since sqrt(a^2 + b^2) >= (a + b)/sqrt2, and
    4(1/sqrt2 - 3c) = c(2 sqrt10 - 4) = 4 sqrt5 - 6 sqrt2 > 0,

        g(a, b) >= (1/sqrt2 - 3c)(a + b - 4),

    which is positive when a + b >= 5.  Of the pairs with a + b <= 4,
    (1, 2) and (2, 2) give 0 exactly, since c(5 + 2 sqrt10) = sqrt5 and
    c(8 + 2 sqrt10) = 2 sqrt2, and (1, 3) gives sqrt10 - 2 sqrt2 > 0.  The
    last, (1, 1), gives 3 sqrt2 - 2 sqrt5 < 0; it is an isolated edge,
    which the hypothesis excludes."""
    return BOUNDS["so-lower"][0].check(rec)


@_group("so-red-lower", Bound(
    "so-red-lower",
    lambda r: (r.so_red, SO_RED_LOWER_COEFF * (r.m1 - 2 * r.m + math.sqrt(2) * r.m)),
    "lower", _has_isolated_edge, _path_or_cycle,
))
def check_so_red_lower_bound(rec: GraphRecord) -> BoundReport:
    """For graphs without isolated edges:
    reduced_sombor(G) >= (sqrt2 - 1)(M1 - 2m + sqrt2*m),
    with the equality graphs and the reported class of
    ``check_so_lower_bound``.

    Proof.  The slack is the sum over edges of

        g(a, b) = sqrt((a-1)^2 + (b-1)^2) - (sqrt2 - 1)(a + b - 2 + sqrt2)
                >= (a + b - 2)/sqrt2 - (sqrt2 - 1)(a + b - 2 + sqrt2)
                 = (1 - 1/sqrt2)(a + b - 4),

    which is positive when a + b >= 5.  The pairs (1, 2) and (2, 2) give 0,
    (1, 3) gives 2 - sqrt2, and (1, 1) gives -(2 - sqrt2): that is why
    isolated edges are excluded."""
    return BOUNDS["so-red-lower"][0].check(rec)


def _equal_degree_ends(s: EdgeStats) -> bool:
    return all(i == j for i, j in s.endpoint_degree_counts)


def _leaf_end(s: EdgeStats) -> bool:
    # each pair (i, j) has i <= j
    return all(i == 1 for i, _ in s.endpoint_degree_counts)


@_group(
    "zagreb-sandwich",
    Bound("zagreb-so-upper", lambda r: (r.so, r.m1), "strict", _edgeless),
    Bound(
        "zagreb-so-lower", lambda r: (r.so, r.m1 / math.sqrt(2)),
        "lower", _edgeless, _equal_degree_ends,
    ),
    Bound(
        "zagreb-so-red-upper", lambda r: (r.so_red, r.m1 - 2 * r.m),
        "upper", _edgeless, _leaf_end,
    ),
    Bound(
        "zagreb-so-red-lower", lambda r: (r.so_red, (r.m1 - 2 * r.m) / math.sqrt(2)),
        "lower", _edgeless, _equal_degree_ends,
    ),
)
def check_zagreb_sandwich(rec: GraphRecord) -> list[BoundReport]:
    """The four first-Zagreb comparisons, vacuous on edgeless graphs:

        M1 > SO               (strict; per-edge margin at least 2 - sqrt2)
        SO >= M1 / sqrt2      (equality iff every edge joins equal degrees)
        SO_red <= M1 - 2m     (equality iff every edge has a leaf endpoint)
        SO_red >= (M1-2m)/sqrt2  (equality iff every edge joins equal degrees)

    Proof.  Each slack is a sum over edges of a term in the endpoint
    degrees a <= b.  For x, y >= 0, comparing squares gives

        sqrt(x^2 + y^2) >= (x + y)/sqrt2, with equality iff x = y,
        sqrt(x^2 + y^2) <= x + y, with equality iff xy = 0.

    The first, at (a, b) and at (a - 1, b - 1), proves the two lower rows,
    with equality iff a = b.  The second at (a - 1, b - 1) proves the
    reduced upper row, with equality iff a = 1.  For the strict row,

        a + b - sqrt(a^2 + b^2) = 2ab/(a + b + sqrt(a^2 + b^2)) >= 2 - sqrt2,

    since the left side grows with a and with b (its partial derivatives
    are 1 - a/sqrt(a^2 + b^2) > 0 and 1 - b/sqrt(a^2 + b^2) > 0) and is
    2 - sqrt2 at (1, 1)."""
    return [b.check(rec) for b in BOUNDS["zagreb-sandwich"]]


class SuiteSummary(NamedTuple):
    """The tallies of a suite run; each counts reports, except ``graphs``.
    ``violations`` and ``anomalies`` are decided by ``run_suite`` from each
    report and the row that judged it."""

    graphs: int
    reports: int
    holds: int
    equality: int
    vacuous: int
    violations: int
    anomalies: int

    @property
    def ok(self) -> bool:
        return not self.violations and not self.anomalies


def run_suite(
    records: Iterable[GraphRecord],
    bounds: Iterable[str] | None = None,
    sink: Callable[[list[BoundReport]], object] | None = None,
) -> SuiteSummary:
    """Evaluate the selected bound groups on every graph.

    ``records`` may be a lazy iterable; it is read once, one record at a
    time.  ``bounds`` is a list of group names (the keys of BOUNDS), each
    checked once in the order first named; None means all of them.
    Each graph's reports (one per row of the selected groups, in group
    order) are passed to ``sink`` before the next record is read, and then
    dropped: the returned summary keeps only the tallies, so memory does
    not grow with the input.  Each report is tallied with the row that
    judged it: a violation if it does not hold, an anomaly if it is a
    numeric equality without the structural match on a row that has an
    equality class.
    """
    if bounds is None:
        selected = list(BOUNDS)
    else:
        selected = list(dict.fromkeys(bounds))
        unknown = [b for b in selected if b not in BOUNDS]
        if unknown:
            raise ValueError(f"unknown bound group(s) {unknown}; known: {sorted(BOUNDS)}")
    rows = [b for name in selected for b in BOUNDS[name]]
    n_graphs = holds = equality = vacuous = violations = anomalies = 0
    for rec in records:
        n_graphs += 1
        reports = [b.check(rec) for b in rows]
        for b, r in zip(rows, reports):
            holds += r.holds and not r.vacuous
            equality += r.equality
            vacuous += r.vacuous
            violations += not r.holds
            anomalies += r.equality and not r.equality_class_match and bool(b.equality_class)
        if sink is not None:
            sink(reports)
    return SuiteSummary(
        graphs=n_graphs,
        reports=n_graphs * len(rows),
        holds=holds,
        equality=equality,
        vacuous=vacuous,
        violations=violations,
        anomalies=anomalies,
    )
