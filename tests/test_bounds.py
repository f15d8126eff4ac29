import decimal
import math
import random
import tracemalloc
from collections import Counter

import pytest

from somborkit import bounds, cli, enumeration, indices
from somborkit.bounds import (
    BOUND_GROUPS,
    GraphRecord,
    SuiteSummary,
    check_degree_sum_bound,
    check_epsilon_identities,
    check_so_lower_bound,
    check_so_red_lower_bound,
    check_so_red_upper,
    check_so_shifted_upper,
    check_tree_corollary,
    check_zagreb_sandwich,
    run_suite,
)
from somborkit.families import (
    cycle,
    empty_graph,
    h_graph,
    is_h_graph,
    is_star_plus_isolated,
    path,
    star,
    star_plus_isolated,
)
from somborkit.graphs import (
    component_count,
    edge_stats,
    encode_graph6,
    graph_from_edges,
    parse_graph6,
)

from conftest import count_calls, degree_sequence, degrees, is_cycle_graph, is_path_graph

K2 = graph_from_edges(2, [(0, 1)])

# the rows with a proven equality class, written out apart from the table
CHARACTERIZED = {
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


def anomaly(r):
    """A numeric equality outside the proven class of a characterized row."""
    return r.equality and not r.equality_class_match and r.bound_id in CHARACTERIZED


def test_so_shifted_upper():
    r = check_so_shifted_upper(GraphRecord(star_plus_isolated(3, 5)))
    assert r.holds and r.equality and r.equality_class_match
    assert r.rhs == pytest.approx(3 * math.sqrt(20), rel=1e-12)
    r = check_so_shifted_upper(GraphRecord(path(4)))
    assert r.holds and not r.equality
    assert r.lhs == pytest.approx(2 * math.sqrt(13) + math.sqrt(18), rel=1e-12)
    r = check_so_shifted_upper(GraphRecord(empty_graph(3)))
    assert r.equality and r.equality_class_match and r.lhs == 0 == r.rhs


def test_so_red_upper():
    r = check_so_red_upper(GraphRecord(star(6)))
    assert r.equality and r.equality_class_match and r.rhs == 20
    r = check_so_red_upper(GraphRecord(cycle(4)))
    assert r.holds and not r.equality
    assert r.lhs == pytest.approx(4 * math.sqrt(2), rel=1e-12) and r.rhs == 12
    r = check_so_red_upper(GraphRecord(K2))
    assert r.equality and r.equality_class_match and r.rhs == 0


def test_tree_corollary():
    r = check_tree_corollary(GraphRecord(star(7)))
    assert r.equality and r.equality_class_match and r.rhs == 30
    r = check_tree_corollary(GraphRecord(path(5)))
    assert r.holds and not r.equality
    assert r.lhs == pytest.approx(2 + 2 * math.sqrt(2), rel=1e-12)
    assert check_tree_corollary(GraphRecord(K2)).equality
    assert check_tree_corollary(GraphRecord(cycle(5))).vacuous
    assert check_tree_corollary(GraphRecord(star_plus_isolated(2, 4))).vacuous  # disconnected


def test_degree_sum_bound():
    r = check_degree_sum_bound(GraphRecord(h_graph(6, 3)))
    assert r.holds and r.equality and r.equality_class_match
    # hub plus two disjoint extra edges: strict
    g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
    r = check_degree_sum_bound(GraphRecord(g))
    assert r.holds and not r.equality
    assert r.lhs == pytest.approx(4 * math.sqrt(20), rel=1e-12)
    assert r.rhs == pytest.approx(math.sqrt(17) + 2 * math.sqrt(20) + 5, rel=1e-12)
    r = check_degree_sum_bound(GraphRecord(star(6)))
    assert r.equality and r.equality_class_match
    assert check_degree_sum_bound(GraphRecord(path(4))).vacuous  # no dominating vertex
    assert check_degree_sum_bound(GraphRecord(graph_from_edges(1, []))).vacuous


def test_degree_sum_known_counterexamples():
    """The majorization argument behind this bound fails on a handful of
    hub-plus-clique graphs; the checker reports them honestly instead of
    pretending the bound holds.  Verified by hand for K4 plus a pendant:
    lhs = 15 + sqrt(17) exceeds rhs = 3*sqrt(20) + sqrt(32)."""
    k4_pendant = parse_graph6("DJ{")
    r = check_degree_sum_bound(GraphRecord(k4_pendant))
    assert not r.vacuous and not r.holds
    assert r.lhs == pytest.approx(15 + math.sqrt(17), rel=1e-12)
    assert r.rhs == pytest.approx(3 * math.sqrt(20) + math.sqrt(32), rel=1e-12)
    assert r.slack == pytest.approx(r.rhs - r.lhs, rel=1e-12) and r.slack < 0

    hub_triangle = parse_graph6("E@Nw")
    assert not check_degree_sum_bound(GraphRecord(hub_triangle)).holds


def _is_graphical(seq: tuple[int, ...]) -> bool:
    """Erdos-Gallai test of a non-increasing sequence with an even sum."""
    return all(
        sum(seq[:k]) <= k * (k - 1) + sum(min(d, k) for d in seq[k:])
        for k in range(1, len(seq) + 1)
    )


def _non_increasing(length: int, top: int, budget: int):
    """Non-increasing tuples of ``length`` values in 1..top summing to at
    most ``budget``."""
    if length == 0:
        yield ()
        return
    for d in range(min(top, budget - length + 1), 0, -1):
        for rest in _non_increasing(length - 1, d, budget - d):
            yield (d, *rest)


def _havel_hakimi(seq: tuple[int, ...]):
    """A graph with the graphical degree sequence ``seq``: each step joins
    a vertex of the greatest remaining degree d to the d other vertices of
    the greatest remaining degrees."""
    left = list(seq)
    edges = []
    while any(left):
        u = max(range(len(left)), key=left.__getitem__)
        d, left[u] = left[u], 0
        rest = sorted((v for v in range(len(left)) if left[v]), key=left.__getitem__, reverse=True)
        for v in rest[:d]:
            left[v] -= 1
            edges.append((u, v))
    return graph_from_edges(len(seq), edges)


def test_degree_sum_lemma_fails_on_one_sequence_per_order():
    """The degree-sum bound reads only the degree sequence, so every
    graphical sequence with a dominating vertex and 0 <= nu <= n-2 is
    judged by the shipped row, on one graph that realizes it (Havel-Hakimi).
    For 4 <= n <= 12 (1,132 sequences) the only violation is
    (n-1, 3, 3, 3, 1^(n-4)) at nu = 3, the hub plus a triangle, from
    n = 5 on; its excess falls from 0.0498 (``DJ{``) to 0.0049."""
    row = bounds.BOUNDS["degree-sum-upper"][0]
    judged = 0
    violations = []
    for n in range(4, 13):
        # nu = m - n + 1 <= n - 2 caps the degree sum at 2(2n - 3)
        for rest in _non_increasing(n - 1, n - 1, 2 * (2 * n - 3) - (n - 1)):
            seq = (n - 1, *rest)
            if sum(seq) % 2 or not _is_graphical(seq):
                continue
            g = _havel_hakimi(seq)
            assert degree_sequence(g) == seq
            r = row.check(GraphRecord(g))
            assert not r.vacuous
            judged += 1
            if not r.holds:
                violations.append((seq, g.m - n + 1))
    assert judged == 1132
    assert violations == [((n - 1, 3, 3, 3) + (1,) * (n - 4), 3) for n in range(5, 13)]


def test_degree_sum_excess_meets_its_proved_lower_bound():
    """``check_degree_sum_bound``'s docstring proves that the hub plus a
    triangle exceeds the bound at every order n = a + 1 >= 5, by
    E(a) >= 15/(2a^3) - 268/a^5.  At 50 digits, E(a) is positive and meets
    that lower bound for a = 4..2000."""
    with decimal.localcontext(decimal.Context(prec=50)):
        for a in map(decimal.Decimal, range(4, 2001)):
            root = lambda k: (a * a + k).sqrt()  # noqa: E731
            excess = 3 * root(9) + root(1) - 3 * root(4) - root(16)
            assert excess > 0 and excess >= 15 / (2 * a**3) - 268 / a**5, a


def test_epsilon_identities():
    r1, r2 = check_epsilon_identities(GraphRecord(path(4)))
    assert r1.holds and r1.lhs == 2 and r1.rhs == 2
    assert r2.holds and r2.lhs == 1 and r2.rhs == 1
    r1, r2 = check_epsilon_identities(GraphRecord(cycle(6)))
    assert (r1.lhs, r2.lhs) == (0, 6) and r1.holds and r2.holds
    r1, r2 = check_epsilon_identities(GraphRecord(star(5)))
    assert (r1.lhs, r2.lhs) == (0, 0) and r1.holds and r2.holds
    r1, r2 = check_epsilon_identities(GraphRecord(K2))
    assert r1.vacuous and r2.vacuous


def test_so_lower_bound():
    r = check_so_lower_bound(GraphRecord(path(3)))
    assert r.equality and r.equality_class_match
    assert r.rhs == pytest.approx(2 * math.sqrt(5), rel=1e-12)
    r = check_so_lower_bound(GraphRecord(cycle(6)))
    assert r.equality and r.equality_class_match
    assert r.rhs == pytest.approx(12 * math.sqrt(2), rel=1e-12)
    r = check_so_lower_bound(GraphRecord(star(5)))
    assert r.holds and not r.equality
    assert check_so_lower_bound(GraphRecord(K2)).vacuous  # isolated edge


def test_so_red_lower_bound():
    r = check_so_red_lower_bound(GraphRecord(cycle(6)))
    assert r.equality and r.equality_class_match
    assert r.rhs == pytest.approx(6 * math.sqrt(2), rel=1e-12)
    r = check_so_red_lower_bound(GraphRecord(path(5)))
    assert r.equality and r.equality_class_match
    r = check_so_red_lower_bound(GraphRecord(star(4)))
    assert r.holds and not r.equality


def test_lower_bound_anomalies_on_disconnected_equality_cases():
    """A path plus an isolated vertex, or a union of cycles, attains the
    lower bound without being a path or cycle; the reports flag these as
    anomalies rather than silently accepting the equality."""
    p3_k1 = GraphRecord(graph_from_edges(4, [(0, 1), (1, 2)]))
    r = check_so_lower_bound(p3_k1)
    assert r.equality and not r.equality_class_match and anomaly(r)
    two_c3 = GraphRecord(graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
    r = check_so_lower_bound(two_c3)
    assert r.equality and anomaly(r)
    r = check_so_red_lower_bound(two_c3)
    assert r.equality and anomaly(r)


def test_anomalies_are_exactly_the_disconnected_lower_bound_equality_graphs(full_universe):
    """Over all 1,252 classes with n <= 7, the suite's anomalies are exactly
    so-lower and so-red-lower on the disconnected graphs with maximum degree
    at most 2 and no K2 component, edgeless ones included: 36 each."""
    graphs = [g for n in range(1, 8) for g in full_universe[n]]
    reports, summary = suite(graphs)

    def attains_lower_bounds(g):
        deg = degrees(g)
        return all(d <= 2 for d in deg) and all(deg[u] + deg[v] > 2 for u, v in g.edges())

    expected = {
        (bound_id, encode_graph6(g))
        for g in graphs
        if component_count(g) > 1 and attains_lower_bounds(g)
        for bound_id in ("so-lower", "so-red-lower")
    }
    assert len(graphs) == 1252 and len(expected) == 72
    assert summary.anomalies == 72
    assert {(r.bound_id, r.graph6) for r in reports if anomaly(r)} == expected


def test_zagreb_sandwich():
    by_id = {r.bound_id: r for r in check_zagreb_sandwich(GraphRecord(cycle(5)))}
    assert all(r.holds for r in by_id.values())
    assert by_id["zagreb-so-lower"].equality and by_id["zagreb-so-lower"].equality_class_match
    assert by_id["zagreb-so-red-lower"].equality
    assert not by_id["zagreb-so-upper"].equality

    by_id = {r.bound_id: r for r in check_zagreb_sandwich(GraphRecord(star(4)))}
    assert all(r.holds for r in by_id.values())
    assert by_id["zagreb-so-upper"].lhs == pytest.approx(3 * math.sqrt(10), rel=1e-12)
    assert by_id["zagreb-so-upper"].rhs == 12
    # every star edge touches a leaf: the reduced cap is met exactly
    assert by_id["zagreb-so-red-upper"].equality
    assert by_id["zagreb-so-red-upper"].equality_class_match

    assert all(r.vacuous for r in check_zagreb_sandwich(GraphRecord(empty_graph(3))))
    by_id = {r.bound_id: r for r in check_zagreb_sandwich(GraphRecord(K2))}
    assert all(r.holds for r in by_id.values())
    assert by_id["zagreb-so-red-upper"].equality  # 0 = 0 on a lone edge


def _per_edge_terms():
    """Each float per-edge row's term g(a, b) as a Decimal in the current
    context, with its zero set and the pairs its hypothesis excludes, as
    proved in the rows' docstrings."""
    d = decimal.Decimal
    r2, r5, r10 = d(2).sqrt(), d(5).sqrt(), d(10).sqrt()
    c = (2 * r2 - r5) / 3

    def hyp(x, y):
        return d(x * x + y * y).sqrt()

    def lower_zero(a, b):
        return (a, b) in ((1, 2), (2, 2))

    return {
        "so-lower": (
            lambda a, b: hyp(a, b) - c * (3 * (a + b) - 4 + 2 * r10), lower_zero, {(1, 1)},
        ),
        "so-red-lower": (
            lambda a, b: hyp(a - 1, b - 1) - (r2 - 1) * (a + b - 2 + r2), lower_zero, {(1, 1)},
        ),
        "zagreb-so-upper": (lambda a, b: a + b - hyp(a, b), lambda a, b: False, set()),
        "zagreb-so-lower": (lambda a, b: hyp(a, b) - (a + b) / r2, lambda a, b: a == b, set()),
        "zagreb-so-red-upper": (
            lambda a, b: a + b - 2 - hyp(a - 1, b - 1), lambda a, b: a == 1, set(),
        ),
        "zagreb-so-red-lower": (
            lambda a, b: hyp(a - 1, b - 1) - (a + b - 2) / r2, lambda a, b: a == b, set(),
        ),
    }


def _identity_terms(a, b):
    """rhs - lhs of the two epsilon identities on an edge whose endpoints
    have degrees a and b."""
    k = a + b - 2
    return (
        2 - k + (k - 2) * (k >= 3) - (k == 1),
        k - 1 - (k - 1) * (k >= 3) - (k == 2),
    )


def test_per_edge_rows_are_proved_at_50_digits():
    """The proofs in the per-edge rows' docstrings, pair by pair: for
    1 <= a <= b <= 200 at 50 digits, each float row's term is positive off
    its zero set and its excluded pairs and vanishes on the zero set, where
    it is negative on an excluded pair; each identity's term vanishes on
    every pair but (1, 1).  The terms sum to the rows' own slack."""
    with decimal.localcontext(decimal.Context(prec=50)):
        terms = _per_edge_terms()
        eps = decimal.Decimal("1e-45")
        for bound_id, (g, zero, excluded) in terms.items():
            for b in range(1, 201):
                for a in range(1, b + 1):
                    value = g(a, b)
                    if (a, b) in excluded:
                        assert value < -eps, (bound_id, a, b)
                    elif zero(a, b):
                        assert abs(value) < eps, (bound_id, a, b)
                    else:
                        assert value > eps, (bound_id, a, b)
    for b in range(1, 201):
        for a in range(1, b + 1):
            assert _identity_terms(a, b) == ((2, -1) if (a, b) == (1, 1) else (0, 0))

    rows = {b.id: b for group in bounds.BOUNDS.values() for b in group}
    zagreb_ids = {b.id for b in bounds.BOUNDS["zagreb-sandwich"]}
    assert set(terms) == {"so-lower", "so-red-lower"} | zagreb_ids
    for g in (path(6), cycle(5), star(5), h_graph(7, 3), parse_graph6("DJ{")):
        rec = GraphRecord(g)
        pairs = rec.stats.endpoint_degree_counts.items()
        for bound_id, (term, _, _) in terms.items():
            r = rows[bound_id].check(rec)
            slack = math.fsum(c * float(term(a, b)) for (a, b), c in pairs)
            assert math.isclose(r.slack, slack, rel_tol=1e-12, abs_tol=1e-9), (bound_id, g)
        for k, bound_id in enumerate(("epsilon1-identity", "epsilon2-identity")):
            slack = sum(c * _identity_terms(a, b)[k] for (a, b), c in pairs)
            assert rows[bound_id].check(rec).slack == slack, (bound_id, g)


def test_reduced_upper_rows_are_proved_in_integers():
    """The proofs in ``check_so_red_upper``'s and
    ``check_so_shifted_upper``'s docstrings, pair by pair, in exact
    integers: for every m <= 300 and every pair 1 <= a <= b with
    a + b <= m + 1, sqrt((a-1)^2 + (b-1)^2) <= (a-1) + (b-1), compared
    squared and tight iff a = 1, and (a-1) + (b-1) <= m - 1, tight iff
    a + b = m + 1; so the term reaches m - 1 only at (1, m).  And
    (a+1)^2 + (b+1)^2 = 4 + (a+b)^2 - 2(a-1)(b-1) <= 4 + (m+1)^2, with
    equality only at (1, m)."""
    for m in range(1, 301):
        for a in range(1, (m + 1) // 2 + 1):
            x = a - 1
            for b in range(a, m + 2 - a):
                y = b - 1
                first = (x + y) ** 2 - (x * x + y * y)
                second = m - 1 - (x + y)
                assert first >= 0 and (first == 0) == (a == 1), (m, a, b)
                assert second >= 0 and (second == 0) == (a + b == m + 1), (m, a, b)
                assert (x * x + y * y == (m - 1) ** 2) == ((a, b) == (1, m)), (m, a, b)
                shifted = (a + 1) ** 2 + (b + 1) ** 2
                assert shifted == 4 + (a + b) ** 2 - 2 * x * y, (m, a, b)
                cap = 4 + (m + 1) ** 2
                assert shifted <= cap and (shifted == cap) == ((a, b) == (1, m)), (m, a, b)


def test_an_edge_meets_each_other_edge_at_most_once():
    """a + b <= m + 1 on every edge of every class with n <= 8, the fact
    the proofs of the shifted and the two reduced upper rows rest on.
    Every edge attains it exactly on a star plus isolated vertices, with
    pairs (1, m), and on a triangle plus isolated vertices, with pairs
    (2, 2) at m = 3."""
    tight = 0
    for n in range(1, 9):
        for m in range(n * (n - 1) // 2 + 1):
            star_like = (m,) + (1,) * m + (0,) * (n - m - 1)
            triangle = (2, 2, 2) + (0,) * (n - 3)
            for g in enumeration.all_graphs(n, m):
                sums = [a + b for a, b in edge_stats(g).endpoint_degree_counts]
                assert all(t <= m + 1 for t in sums), encode_graph6(g)
                expected = degree_sequence(g) in (star_like, triangle)
                assert all(t == m + 1 for t in sums) == expected, encode_graph6(g)
                tight += expected
    assert tight == sum(range(1, 9)) + 6  # a star per m < n, a triangle per n >= 3


def suite(graphs, bounds=None):
    """``run_suite`` on a record per graph, with every report its sink
    receives collected."""
    reports = []
    summary = run_suite(map(GraphRecord, graphs), bounds, reports.extend)
    return reports, summary


def test_run_suite_connected_5(connected_universe):
    reports, summary = suite(connected_universe[5])
    assert summary.graphs == len(connected_universe[5])
    assert not summary.anomalies
    # the only failing reports are the known degree-sum counterexamples
    violations = [r for r in reports if not r.holds]
    assert summary.violations == len(violations)
    assert all(r.bound_id == "degree-sum-upper" for r in violations)
    assert {r.graph6 for r in violations} == {"D~_"}
    k4_pendant = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    assert enumeration.canonical_form(parse_graph6("D~_")) == enumeration.canonical_form(k4_pendant)


def test_run_suite_excluding_degree_sum_is_clean(connected_universe):
    bounds = [b for b in BOUND_GROUPS if b != "degree-sum-upper"]
    for n in range(1, 7):
        _, summary = suite(connected_universe[n], bounds)
        assert summary.ok, (n, summary.violations, summary.anomalies)


def test_run_suite_empty_and_unknown():
    reports, summary = suite([])
    assert reports == [] and summary.graphs == 0 and summary.ok
    with pytest.raises(ValueError):
        run_suite([GraphRecord(K2)], ["no-such-bound"])


def test_run_suite_checks_each_selected_group_once():
    """A group named twice is checked once, at its first place."""
    graphs = [parse_graph6("D}_"), path(4)]
    once, once_summary = suite(graphs, ["so-lower", "zagreb-sandwich"])
    twice, twice_summary = suite(graphs, ["so-lower", "zagreb-sandwich", "so-lower"])
    assert twice == once and twice_summary == once_summary
    assert once_summary.reports == 2 * 5


def test_run_suite_order_zero_needs_no_index():
    """The indices are undefined on the order-0 graph, so every bound is
    vacuous on it and no index is evaluated: one all-zero report per
    bound id, with the ids and order the groups emit on K1."""
    g0 = graph_from_edges(0, [])
    reports, summary = suite([g0], ["degree-sum-upper"])
    assert [r.vacuous for r in reports] == [True] and summary.ok
    reports, summary = suite([g0])
    k1_reports, _ = suite([graph_from_edges(1, [])])
    assert [r.bound_id for r in reports] == [r.bound_id for r in k1_reports]
    assert len(reports) == 12 and summary.ok and summary.vacuous == 12
    assert all(
        r.vacuous and r.holds and (r.lhs, r.rhs, r.slack) == (0.0, 0.0, 0.0) for r in reports
    )


def test_bound_table_keeps_the_groups_and_ids_in_order():
    groups = {
        "so-shifted-upper": ("so-shifted-upper",),
        "so-red-upper": ("so-red-upper",),
        "tree-so-red-upper": ("tree-so-red-upper",),
        "degree-sum-upper": ("degree-sum-upper",),
        "epsilon-identities": ("epsilon1-identity", "epsilon2-identity"),
        "so-lower": ("so-lower",),
        "so-red-lower": ("so-red-lower",),
        "zagreb-sandwich": (
            "zagreb-so-upper",
            "zagreb-so-lower",
            "zagreb-so-red-upper",
            "zagreb-so-red-lower",
        ),
    }
    table = {name: tuple(b.id for b in rows) for name, rows in bounds.BOUNDS.items()}
    assert list(table.items()) == list(groups.items())
    assert list(BOUND_GROUPS) == list(groups)
    assert sum(map(len, table.values())) == 12
    rec = GraphRecord(h_graph(6, 2))
    for name, ids in groups.items():
        assert tuple(r.bound_id for r in BOUND_GROUPS[name](rec)) == ids


def test_characterized_bounds_are_the_rows_with_an_equality_class():
    assert CHARACTERIZED == {
        b.id for rows in bounds.BOUNDS.values() for b in rows if b.equality_class is not None
    }


def test_bound_sides_are_never_called_on_the_order_zero_graph():
    def undefined(rec):
        raise AssertionError("called on the order-0 graph")

    row = bounds.Bound("probe", undefined, "upper", undefined, undefined)
    r = row.check(GraphRecord(graph_from_edges(0, [])))
    assert (r.bound_id, r.graph6, r.lhs, r.rhs, r.slack) == ("probe", "?", 0.0, 0.0, 0.0)
    assert r.vacuous and r.holds and not r.equality and not r.equality_class_match


def test_identity_holds_only_at_zero_slack():
    rec = GraphRecord(path(4))

    def check(sense, lhs, rhs):
        return bounds.Bound("probe", lambda _: (lhs, rhs), sense, lambda _: False).check(rec)

    for lhs, rhs in ((3, 4), (4, 3)):
        r = check("identity", lhs, rhs)
        assert not r.holds and not r.equality and r.slack == rhs - lhs
    assert check("identity", 4, 4).holds and check("identity", 4, 4).equality
    assert check("upper", 3, 4).holds


def test_a_float_tie_is_an_equality_for_every_sense():
    """Sides 5e-7 apart at rhs = 1000 tie (1e-9 relative): an upper or
    lower bound holds there with equality, and a strict one fails."""
    rec = GraphRecord(path(3))

    def check(sense, lhs, rhs):
        return bounds.Bound("t", lambda _: (lhs, rhs), sense, lambda _: False).check(rec)

    r = check("strict", 1000 - 5e-7, 1000.0)
    assert (r.holds, r.equality) == (False, True)
    assert check("strict", 1000 - 2e-6, 1000.0).holds
    assert not check("strict", 1000 - 2e-6, 1000.0).equality
    for sense, lhs in (("upper", 1000 + 5e-7), ("lower", 1000 - 5e-7)):
        r = check(sense, lhs, 1000.0)
        assert r.holds and r.equality and r.slack < 0
    for sense, lhs in (("upper", 1000 + 2e-6), ("lower", 1000 - 2e-6)):
        assert not check(sense, lhs, 1000.0).holds


def test_run_suite_summary_tallies_the_reports_it_hands_on(connected_universe, full_universe):
    """The summary keeps only the tallies, and they are those of the
    reports the sink received."""
    flagged = Counter()
    for graphs in (connected_universe[7], full_universe[6]):
        reports, summary = suite(graphs)
        assert summary == SuiteSummary(
            graphs=len(graphs),
            reports=len(reports),
            holds=sum(r.holds and not r.vacuous for r in reports),
            equality=sum(r.equality for r in reports),
            vacuous=sum(r.vacuous for r in reports),
            violations=sum(not r.holds for r in reports),
            anomalies=sum(map(anomaly, reports)),
        )
        flagged.update(violations=summary.violations, anomalies=summary.anomalies)
    assert flagged["violations"] and flagged["anomalies"]


def test_run_suite_hands_each_graph_to_the_sink_before_reading_the_next():
    sample = [path(5), cycle(6), star(4), h_graph(7, 3), graph_from_edges(0, [])]
    read = []

    def feed():
        for g in sample:
            read.append(g)
            yield GraphRecord(g)

    handed = []
    summary = run_suite(
        feed(), sink=lambda reports: handed.append((len(read), [r.graph6 for r in reports]))
    )
    assert handed == [(k + 1, [encode_graph6(g)] * 12) for k, g in enumerate(sample)]
    assert summary.graphs == len(sample) and summary.reports == 12 * len(sample)


def test_run_suite_memory_does_not_grow_with_its_input():
    """Reports are dropped once the sink has them: the traced peak over
    3,000 records stays within 1.5 times the peak over 300.  The graphs
    have more than 20 vertices, so that CPython's bounded free lists of
    small tuples, which fill up as a run goes on, do not enter the peak."""
    rng = random.Random(3000)
    pool = []
    for _ in range(60):
        n = rng.randint(21, 30)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, n))}
        pool.append(graph_from_edges(n, edges))

    def peak(count):
        records = (GraphRecord(pool[i % len(pool)]) for i in range(count))
        tracemalloc.start()
        try:
            run_suite(records)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(3000) < 1.5 * peak(300)


def test_equality_census_upper_bounds(full_universe):
    """Equality graphs of the two global upper bounds across all classes
    with at most 6 vertices are exactly the star-plus-isolated ones."""
    for n in range(1, 7):
        for g in full_universe[n]:
            rec = GraphRecord(g)
            expected = is_star_plus_isolated(rec.stats)
            for check in (check_so_shifted_upper, check_so_red_upper):
                r = check(rec)
                assert r.holds
                assert r.equality == expected, (r.bound_id, r.graph6)
                if r.equality:
                    assert r.equality_class_match


def test_equality_census_lower_bounds(connected_universe):
    """Across connected classes with 3..6 vertices the lower-bound equality
    graphs are exactly the paths and cycles."""
    for n in range(3, 7):
        for g in connected_universe[n]:
            rec = GraphRecord(g)
            expected = is_path_graph(rec.stats) or is_cycle_graph(rec.stats)
            for check in (check_so_lower_bound, check_so_red_lower_bound):
                r = check(rec)
                if r.vacuous:
                    assert n == 2  # only K2 is out of hypothesis when connected
                    continue
                assert r.holds
                assert r.equality == expected, (r.bound_id, r.graph6)


def test_run_suite_profiles_and_encodes_each_graph_once(monkeypatch):
    """Each graph is encoded and profiled once, and each of the four indices
    is evaluated once on its profile, never on the order-0 graph."""
    sample = [
        empty_graph(0), K2, path(5), cycle(6), star(4), h_graph(6, 2), empty_graph(3),
        parse_graph6("DJ{"),
    ]
    encoded = count_calls(monkeypatch, "encode_graph6")
    profiled = count_calls(monkeypatch, "edge_stats")
    indexed = {}
    for name in ("sombor", "reduced_sombor", "sombor_shifted", "first_zagreb"):

        def spy(s, index=getattr(bounds, name), seen=indexed.setdefault(name, [])):
            seen.append(s)
            return index(s)

        monkeypatch.setattr(bounds, name, spy)
    reports, summary = suite(sample)
    assert summary.reports == 12 * len(sample)
    assert [args[0] for args in encoded] == sample
    assert [args[0] for args in profiled] == sample
    profiles = [edge_stats(g) for g in sample[1:]]
    assert indexed == dict.fromkeys(indexed, profiles)


def test_verify_bounds_input_streams_and_never_encodes(monkeypatch, capsys):
    """Each input line is read, parsed and profiled before the next one is
    read, and the report reuses the input text instead of encoding it."""
    lines = [encode_graph6(g) for g in (path(5), cycle(6), star(4), h_graph(7, 3))]
    read = []

    def feed():
        for line in lines:
            read.append(line)
            yield line + "\n"

    monkeypatch.setattr("sys.stdin", feed())
    encoded = count_calls(monkeypatch, "encode_graph6")
    profiled = count_calls(monkeypatch, "edge_stats")
    lines_read_when_profiled = []
    counted_edge_stats = bounds.edge_stats

    def spy(g):
        lines_read_when_profiled.append(len(read))
        return counted_edge_stats(g)

    monkeypatch.setattr(bounds, "edge_stats", spy)
    assert cli.main(["verify-bounds", "--input", "-"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert encoded == []
    assert [args[0] for args in profiled] == [parse_graph6(line) for line in lines]
    assert lines_read_when_profiled == [1, 2, 3, 4]
    assert [row.split(",")[1] for row in out[1:-3:12]] == lines


def _random_graph(rng: random.Random, kind: int):
    """A seeded random graph on 10..40 vertices: G(n, p), G(n, p) with a
    dominating vertex, a random tree, or a sparse graph with K2 parts."""
    n = rng.randint(10, 40)
    if kind == 2:
        return graph_from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])
    p = rng.uniform(0.01, 0.08) if kind == 3 else rng.uniform(0.05, 0.6)
    edges = {(u, v) for v in range(n) for u in range(v) if rng.random() < p}
    if kind == 1:
        edges |= {(0, v) for v in range(1, n)}
    return graph_from_edges(n, edges)


def _reference_reports(g) -> list[tuple]:
    """The whole suite for one graph from per-edge sums, as
    (bound_id, lhs, rhs, lower, strict, vacuous, in the equality class)."""
    n, m = g.n, g.m
    deg = degrees(g)
    edges = list(g.edges())
    so = sum(math.hypot(deg[u], deg[v]) for u, v in edges)
    so_red = sum(math.hypot(deg[u] - 1, deg[v] - 1) for u, v in edges)
    so_shifted = sum(math.hypot(deg[u] + 1, deg[v] + 1) for u, v in edges)
    m1 = sum(deg[u] + deg[v] for u, v in edges)
    by_edge_degree = Counter(deg[u] + deg[v] - 2 for u, v in edges)
    no_k2 = by_edge_degree[0] == 0
    components = component_count(g)
    nu = m - n + components
    a = n - 1
    hub = deg.index(max(deg))
    high_2 = sum(c * (k - 2) for k, c in by_edge_degree.items() if k >= 3)
    high_1 = sum(c * (k - 1) for k, c in by_edge_degree.items() if k >= 3)
    cap = m1 - 2 * m
    stats = edge_stats(g)
    star = is_star_plus_isolated(stats)
    path_or_cycle = is_path_graph(stats) or is_cycle_graph(stats)
    equal_ends = all(deg[u] == deg[v] for u, v in edges)
    leaf_end = all(1 in (deg[u], deg[v]) for u, v in edges)
    return [
        ("so-shifted-upper", so_shifted, m * math.sqrt((m + 1) ** 2 + 4), 0, 0, 0, star),
        ("so-red-upper", so_red, m * (m - 1), 0, 0, 0, star),
        ("tree-so-red-upper", so_red, (n - 1) * (n - 2), 0, 0,
         not (components == 1 and m == n - 1), star),
        ("degree-sum-upper", sum(math.hypot(a, deg[v]) for v in range(n) if v != hub),
         (n - nu - 2) * math.sqrt(a * a + 1) + nu * math.sqrt(a * a + 4)
         + math.sqrt(a * a + (nu + 1) ** 2), 0, 0, not (max(deg) == a and nu <= n - 2),
         is_h_graph(stats)),
        ("epsilon1-identity", by_edge_degree[1], 4 * m - m1 + high_2, 0, 0, not no_k2, False),
        ("epsilon2-identity", by_edge_degree[2], m1 - 3 * m - high_1, 0, 0, not no_k2, False),
        ("so-lower", so, bounds.SO_LOWER_COEFF * (3 * m1 - 4 * m + 2 * math.sqrt(10) * m),
         1, 0, not no_k2, path_or_cycle),
        ("so-red-lower", so_red, bounds.SO_RED_LOWER_COEFF * (m1 - 2 * m + math.sqrt(2) * m),
         1, 0, not no_k2, path_or_cycle),
        ("zagreb-so-upper", so, m1, 0, 1, m == 0, False),
        ("zagreb-so-lower", so, m1 / math.sqrt(2), 1, 0, m == 0, equal_ends),
        ("zagreb-so-red-upper", so_red, cap, 0, 0, m == 0, leaf_end),
        ("zagreb-so-red-lower", so_red, cap / math.sqrt(2), 1, 0, m == 0, equal_ends),
    ]  # fmt: skip


def test_run_suite_matches_per_edge_reference():
    """On seeded random graphs the histogram engine reproduces per-edge
    sums to 1e-12 relative, and every flag is the one the per-edge values
    give under the same tolerances."""
    rng = random.Random(20210)
    sample = [_random_graph(rng, i % 4) for i in range(48)]
    reports, _ = suite(sample)
    assert len(reports) == 12 * len(sample)
    live = Counter()
    for i, g in enumerate(sample):
        for r, (bound_id, lhs, rhs, lower, strict, vacuous, in_class) in zip(
            reports[12 * i : 12 * i + 12], _reference_reports(g)
        ):
            assert r.bound_id == bound_id
            assert math.isclose(r.lhs, lhs, rel_tol=1e-12), (bound_id, r.lhs, lhs)
            assert math.isclose(r.rhs, rhs, rel_tol=1e-12), (bound_id, r.rhs, rhs)
            scale = indices._TIE_TOL * max(1.0, abs(rhs))
            slack = lhs - rhs if lower else rhs - lhs
            if bound_id.startswith("epsilon"):
                equality = not vacuous and slack == 0
                holds = vacuous or equality
            else:
                equality = not vacuous and abs(slack) <= scale
                holds = vacuous or (slack > scale if strict else slack >= -scale)
            match = equality and in_class
            flags = (r.holds, r.equality, r.equality_class_match, r.vacuous)
            assert flags == (holds, equality, match, bool(vacuous)), (bound_id, r.graph6)
            live[bound_id] += not vacuous
    assert set(live) == {r.bound_id for r in reports} and all(live.values())
