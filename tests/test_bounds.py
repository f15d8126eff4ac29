import math
import random
import tracemalloc
from collections import Counter

import pytest

from somborkit import bounds, cli, enumeration, families, graphs, indices
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
    all_edges_join_equal_degrees,
    cycle,
    empty_graph,
    every_edge_has_leaf_endpoint,
    h_graph,
    is_cycle_graph,
    is_h_graph,
    is_path_graph,
    is_star_plus_isolated,
    path,
    star,
    star_plus_isolated,
)
from somborkit.graphs import component_count, encode_graph6, graph_from_edges, parse_graph6

K2 = graph_from_edges(2, [(0, 1)])


def test_so_shifted_upper():
    r = check_so_shifted_upper(star_plus_isolated(3, 5))
    assert r.holds and r.equality and r.equality_class_match
    assert r.rhs == pytest.approx(3 * math.sqrt(20), rel=1e-12)
    r = check_so_shifted_upper(path(4))
    assert r.holds and not r.equality
    assert r.lhs == pytest.approx(2 * math.sqrt(13) + math.sqrt(18), rel=1e-12)
    r = check_so_shifted_upper(empty_graph(3))
    assert r.equality and r.equality_class_match and r.lhs == 0 == r.rhs


def test_so_red_upper():
    r = check_so_red_upper(star(6))
    assert r.equality and r.equality_class_match and r.rhs == 20
    r = check_so_red_upper(cycle(4))
    assert r.holds and not r.equality
    assert r.lhs == pytest.approx(4 * math.sqrt(2), rel=1e-12) and r.rhs == 12
    r = check_so_red_upper(K2)
    assert r.equality and r.equality_class_match and r.rhs == 0


def test_tree_corollary():
    r = check_tree_corollary(star(7))
    assert r.equality and r.equality_class_match and r.rhs == 30
    r = check_tree_corollary(path(5))
    assert r.holds and not r.equality
    assert r.lhs == pytest.approx(2 + 2 * math.sqrt(2), rel=1e-12)
    assert check_tree_corollary(K2).equality
    assert check_tree_corollary(cycle(5)).vacuous
    assert check_tree_corollary(star_plus_isolated(2, 4)).vacuous  # disconnected


def test_degree_sum_bound():
    r = check_degree_sum_bound(h_graph(6, 3))
    assert r.holds and r.equality and r.equality_class_match
    # hub plus two disjoint extra edges: strict
    g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
    r = check_degree_sum_bound(g)
    assert r.holds and not r.equality
    assert r.lhs == pytest.approx(4 * math.sqrt(20), rel=1e-12)
    assert r.rhs == pytest.approx(math.sqrt(17) + 2 * math.sqrt(20) + 5, rel=1e-12)
    r = check_degree_sum_bound(star(6))
    assert r.equality and r.equality_class_match
    assert check_degree_sum_bound(path(4)).vacuous  # no dominating vertex
    assert check_degree_sum_bound(graph_from_edges(1, [])).vacuous


def test_degree_sum_known_counterexamples():
    """The majorization argument behind this bound fails on a handful of
    hub-plus-clique graphs; the checker reports them honestly instead of
    pretending the bound holds.  Verified by hand for K4 plus a pendant:
    lhs = 15 + sqrt(17) exceeds rhs = 3*sqrt(20) + sqrt(32)."""
    k4_pendant = parse_graph6("DJ{")
    r = check_degree_sum_bound(k4_pendant)
    assert not r.vacuous and not r.holds
    assert r.lhs == pytest.approx(15 + math.sqrt(17), rel=1e-12)
    assert r.rhs == pytest.approx(3 * math.sqrt(20) + math.sqrt(32), rel=1e-12)
    assert r.slack == pytest.approx(r.rhs - r.lhs, rel=1e-12) and r.slack < 0

    hub_triangle = parse_graph6("E@Nw")
    assert not check_degree_sum_bound(hub_triangle).holds


def test_epsilon_identities():
    r1, r2 = check_epsilon_identities(path(4))
    assert r1.holds and r1.lhs == 2 and r1.rhs == 2
    assert r2.holds and r2.lhs == 1 and r2.rhs == 1
    r1, r2 = check_epsilon_identities(cycle(6))
    assert (r1.lhs, r2.lhs) == (0, 6) and r1.holds and r2.holds
    r1, r2 = check_epsilon_identities(star(5))
    assert (r1.lhs, r2.lhs) == (0, 0) and r1.holds and r2.holds
    r1, r2 = check_epsilon_identities(K2)
    assert r1.vacuous and r2.vacuous


def test_so_lower_bound():
    r = check_so_lower_bound(path(3))
    assert r.equality and r.equality_class_match
    assert r.rhs == pytest.approx(2 * math.sqrt(5), rel=1e-12)
    r = check_so_lower_bound(cycle(6))
    assert r.equality and r.equality_class_match
    assert r.rhs == pytest.approx(12 * math.sqrt(2), rel=1e-12)
    r = check_so_lower_bound(star(5))
    assert r.holds and not r.equality
    assert check_so_lower_bound(K2).vacuous  # isolated edge


def test_so_red_lower_bound():
    r = check_so_red_lower_bound(cycle(6))
    assert r.equality and r.equality_class_match
    assert r.rhs == pytest.approx(6 * math.sqrt(2), rel=1e-12)
    r = check_so_red_lower_bound(path(5))
    assert r.equality and r.equality_class_match
    r = check_so_red_lower_bound(star(4))
    assert r.holds and not r.equality


def test_lower_bound_anomalies_on_disconnected_equality_cases():
    """A path plus an isolated vertex, or a union of cycles, attains the
    lower bound without being a path or cycle; the reports flag these as
    anomalies rather than silently accepting the equality."""
    p3_k1 = graph_from_edges(4, [(0, 1), (1, 2)])
    r = check_so_lower_bound(p3_k1)
    assert r.equality and not r.equality_class_match and r.anomaly
    two_c3 = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    r = check_so_lower_bound(two_c3)
    assert r.equality and r.anomaly
    r = check_so_red_lower_bound(two_c3)
    assert r.equality and r.anomaly


def test_zagreb_sandwich():
    by_id = {r.bound_id: r for r in check_zagreb_sandwich(cycle(5))}
    assert all(r.holds for r in by_id.values())
    assert by_id["zagreb-so-lower"].equality and by_id["zagreb-so-lower"].equality_class_match
    assert by_id["zagreb-so-red-lower"].equality
    assert not by_id["zagreb-so-upper"].equality

    by_id = {r.bound_id: r for r in check_zagreb_sandwich(star(4))}
    assert all(r.holds for r in by_id.values())
    assert by_id["zagreb-so-upper"].lhs == pytest.approx(3 * math.sqrt(10), rel=1e-12)
    assert by_id["zagreb-so-upper"].rhs == 12
    # every star edge touches a leaf: the reduced cap is met exactly
    assert by_id["zagreb-so-red-upper"].equality
    assert by_id["zagreb-so-red-upper"].equality_class_match

    assert all(r.vacuous for r in check_zagreb_sandwich(empty_graph(3)))
    by_id = {r.bound_id: r for r in check_zagreb_sandwich(K2)}
    assert all(r.holds for r in by_id.values())
    assert by_id["zagreb-so-red-upper"].equality  # 0 = 0 on a lone edge


def suite(graphs, bounds=None):
    """``run_suite`` with every report its sink receives collected."""
    reports = []
    summary = run_suite(graphs, bounds, reports.extend)
    return reports, summary


def test_run_suite_connected_5(connected_universe):
    reports, summary = suite(connected_universe[5])
    assert summary.graphs == len(connected_universe[5])
    assert not summary.anomalies
    # the only failing reports are the known degree-sum counterexamples
    assert all(r.bound_id == "degree-sum-upper" for r in summary.violations)
    assert {r.graph6 for r in summary.violations} == {"DJ{"}


def test_run_suite_excluding_degree_sum_is_clean(connected_universe):
    bounds = [b for b in BOUND_GROUPS if b != "degree-sum-upper"]
    for n in range(1, 7):
        _, summary = suite(connected_universe[n], bounds)
        assert summary.ok, (n, summary.violations, summary.anomalies)


def test_run_suite_empty_and_unknown():
    reports, summary = suite([])
    assert reports == [] and summary.graphs == 0 and summary.ok
    with pytest.raises(ValueError):
        run_suite([K2], ["no-such-bound"])


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
    g = h_graph(6, 2)
    for name, ids in groups.items():
        assert tuple(r.bound_id for r in BOUND_GROUPS[name](g)) == ids


def test_characterized_bounds_are_the_rows_with_an_equality_class():
    assert bounds.CHARACTERIZED_BOUNDS == {
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
        assert not r.holds and r.violation and not r.equality and r.slack == rhs - lhs
    assert check("identity", 4, 4).holds and check("identity", 4, 4).equality
    assert check("upper", 3, 4).holds


def test_a_float_tie_is_an_equality_for_every_sense():
    """Sides 5e-7 apart at rhs = 1000 tie (1e-9 relative): an upper or
    lower bound holds there with equality, and a strict one fails."""
    rec = GraphRecord(path(3))

    def check(sense, lhs, rhs):
        return bounds.Bound("t", lambda _: (lhs, rhs), sense, lambda _: False).check(rec)

    r = check("strict", 1000 - 5e-7, 1000.0)
    assert (r.holds, r.equality, r.violation) == (False, True, True)
    assert check("strict", 1000 - 2e-6, 1000.0).holds
    assert not check("strict", 1000 - 2e-6, 1000.0).equality
    for sense, lhs in (("upper", 1000 + 5e-7), ("lower", 1000 - 5e-7)):
        r = check(sense, lhs, 1000.0)
        assert r.holds and r.equality and r.slack < 0
    for sense, lhs in (("upper", 1000 + 2e-6), ("lower", 1000 - 2e-6)):
        assert not check(sense, lhs, 1000.0).holds


def test_run_suite_summary_tallies_the_reports_it_hands_on(connected_universe, full_universe):
    """The summary keeps only the tallies and the violation and anomaly
    reports, and they are those of the reports the sink received."""
    flagged = Counter()
    for graphs in (connected_universe[7], full_universe[6]):
        reports, summary = suite(graphs)
        assert summary == SuiteSummary(
            graphs=len(graphs),
            reports=len(reports),
            holds=sum(r.holds and not r.vacuous for r in reports),
            equality=sum(r.equality for r in reports),
            vacuous=sum(r.vacuous for r in reports),
            violations=tuple(r for r in reports if r.violation),
            anomalies=tuple(r for r in reports if r.anomaly),
        )
        flagged.update(violations=len(summary.violations), anomalies=len(summary.anomalies))
    assert flagged["violations"] and flagged["anomalies"]


def test_run_suite_hands_each_graph_to_the_sink_before_reading_the_next():
    sample = [path(5), cycle(6), star(4), h_graph(7, 3), graph_from_edges(0, [])]
    read = []

    def feed():
        for g in sample:
            read.append(g)
            yield g

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
            expected = is_star_plus_isolated(g)
            for check in (check_so_shifted_upper, check_so_red_upper):
                r = check(g)
                assert r.holds
                assert r.equality == expected, (r.bound_id, r.graph6)
                if r.equality:
                    assert r.equality_class_match


def test_equality_census_lower_bounds(connected_universe):
    """Across connected classes with 3..6 vertices the lower-bound equality
    graphs are exactly the paths and cycles."""
    for n in range(3, 7):
        for g in connected_universe[n]:
            expected = is_path_graph(g) or is_cycle_graph(g)
            for check in (check_so_lower_bound, check_so_red_lower_bound):
                r = check(g)
                if r.vacuous:
                    assert n == 2  # only K2 is out of hypothesis when connected
                    continue
                assert r.holds
                assert r.equality == expected, (r.bound_id, r.graph6)


def count_calls(monkeypatch, name: str) -> list:
    """Record every call of the graphs function ``name``, wherever the
    package looks it up."""
    calls = []
    original = getattr(graphs, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (bounds, cli, enumeration, families, graphs, indices):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_run_suite_profiles_and_encodes_each_graph_once(monkeypatch):
    sample = [K2, path(5), cycle(6), star(4), h_graph(6, 2), empty_graph(3), parse_graph6("DJ{")]
    encoded = count_calls(monkeypatch, "encode_graph6")
    profiled = count_calls(monkeypatch, "edge_stats")
    reports, summary = suite(sample)
    assert summary.reports == 12 * len(sample)
    assert [args[0] for args in encoded] == sample
    assert [args[0] for args in profiled] == sample


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
    (bound_id, lhs, rhs, lower, strict, vacuous, class predicate)."""
    n, m = g.n, g.m
    deg = g.degrees()
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
    path_or_cycle = lambda h: is_path_graph(h) or is_cycle_graph(h)  # noqa: E731
    return [
        ("so-shifted-upper", so_shifted, m * math.sqrt((m + 1) ** 2 + 4), 0, 0, 0,
         is_star_plus_isolated),
        ("so-red-upper", so_red, m * (m - 1), 0, 0, 0, is_star_plus_isolated),
        ("tree-so-red-upper", so_red, (n - 1) * (n - 2), 0, 0,
         not (components == 1 and m == n - 1), is_star_plus_isolated),
        ("degree-sum-upper", sum(math.hypot(a, deg[v]) for v in range(n) if v != hub),
         (n - nu - 2) * math.sqrt(a * a + 1) + nu * math.sqrt(a * a + 4)
         + math.sqrt(a * a + (nu + 1) ** 2), 0, 0, not (max(deg) == a and nu <= n - 2),
         is_h_graph),
        ("epsilon1-identity", by_edge_degree[1], 4 * m - m1 + high_2, 0, 0, not no_k2, None),
        ("epsilon2-identity", by_edge_degree[2], m1 - 3 * m - high_1, 0, 0, not no_k2, None),
        ("so-lower", so, bounds.SO_LOWER_COEFF * (3 * m1 - 4 * m + 2 * math.sqrt(10) * m),
         1, 0, not no_k2, path_or_cycle),
        ("so-red-lower", so_red, bounds.SO_RED_LOWER_COEFF * (m1 - 2 * m + math.sqrt(2) * m),
         1, 0, not no_k2, path_or_cycle),
        ("zagreb-so-upper", so, m1, 0, 1, m == 0, None),
        ("zagreb-so-lower", so, m1 / math.sqrt(2), 1, 0, m == 0, all_edges_join_equal_degrees),
        ("zagreb-so-red-upper", so_red, cap, 0, 0, m == 0, every_edge_has_leaf_endpoint),
        ("zagreb-so-red-lower", so_red, cap / math.sqrt(2), 1, 0, m == 0,
         all_edges_join_equal_degrees),
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
        for r, (bound_id, lhs, rhs, lower, strict, vacuous, predicate) in zip(
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
            match = bool(equality and predicate is not None and predicate(g))
            flags = (r.holds, r.equality, r.equality_class_match, r.vacuous)
            assert flags == (holds, equality, match, bool(vacuous)), (bound_id, r.graph6)
            live[bound_id] += not vacuous
    assert set(live) == {r.bound_id for r in reports} and all(live.values())
