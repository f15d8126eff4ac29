import decimal
import functools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somborkit.enumeration import connected_graphs
from somborkit.families import complete, cycle, h_graph, path, star, star_plus_isolated
from somborkit.graphs import EdgeStats, edge_stats, encode_graph6, graph_from_edges
from somborkit.indices import (
    edge_sum,
    first_zagreb,
    reduced_sombor,
    sombor,
    sombor_shifted,
)

from conftest import degrees, delete_vertex, graphs_strategy, relabel

K2 = graph_from_edges(2, [(0, 1)])


def test_sombor_values():
    assert sombor(edge_stats(cycle(7))) == pytest.approx(7 * 2 * math.sqrt(2), rel=1e-12)
    assert sombor(edge_stats(star(4))) == pytest.approx(3 * math.sqrt(10), rel=1e-12)
    # six edges of h_graph(5, 2), enumerated by hand:
    # (4,3) (4,2) (4,2) (4,1) (3,2) (3,2)
    expected = math.sqrt(17) + 2 * math.sqrt(20) + 5 + 2 * math.sqrt(13)
    assert sombor(edge_stats(h_graph(5, 2))) == pytest.approx(expected, rel=1e-12)


def test_reduced_sombor_values():
    assert reduced_sombor(edge_stats(K2)) == 0.0
    assert reduced_sombor(edge_stats(star(6))) == pytest.approx(5 * 4, rel=1e-12)
    expected = 3 + 2 * math.sqrt(10) + 2 * math.sqrt(5) + math.sqrt(13)
    assert reduced_sombor(edge_stats(h_graph(5, 2))) == pytest.approx(expected, rel=1e-12)


def test_sombor_shifted_values():
    assert sombor_shifted(edge_stats(K2)) == pytest.approx(math.sqrt(8), rel=1e-12)
    # star with 2 edges plus an isolated vertex attains m*sqrt((m+1)^2+4)
    s = edge_stats(star_plus_isolated(2, 4))
    assert sombor_shifted(s) == pytest.approx(2 * math.sqrt(13), rel=1e-12)
    assert sombor_shifted(s) == pytest.approx(s.m * math.sqrt((s.m + 1) ** 2 + 4), rel=1e-12)
    # P4 edges (1,2),(2,2),(2,1) shift to (2,3),(3,3),(3,2)
    expected = 2 * math.sqrt(13) + math.sqrt(18)
    assert sombor_shifted(edge_stats(path(4))) == pytest.approx(expected, rel=1e-12)


def test_first_zagreb_values():
    assert first_zagreb(edge_stats(path(4))) == 10
    assert first_zagreb(edge_stats(cycle(9))) == 36
    assert first_zagreb(edge_stats(complete(5))) == 5 * 16
    assert isinstance(first_zagreb(edge_stats(path(4))), int)


def test_edge_sum_engine():
    """``edge_sum(s, k)``, for each shift the indices use, is bit for bit
    the ``fsum`` of c * hypot(i + k, j + k) over a pair histogram counted
    here from the edges.  The plain per-edge ``fsum`` of
    hypot(d(u) + k, d(v) + k) can differ in the last bit, since each
    product c * hypot rounds once; it stays within 1e-15, relative."""
    rng = random.Random(32)
    for _ in range(50):
        n = rng.randint(1, 30)
        p = rng.uniform(0.05, 0.9)
        g = graph_from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
        s, deg = edge_stats(g), degrees(g)
        pairs = Counter(tuple(sorted((deg[u], deg[v]))) for u, v in g.edges())
        for k in (-1, 0, 1):
            value = edge_sum(s, k)
            expected = math.fsum(c * math.hypot(i + k, j + k) for (i, j), c in pairs.items())
            assert value == expected, (encode_graph6(g), k)
            per_edge = math.fsum(math.hypot(deg[u] + k, deg[v] + k) for u, v in g.edges())
            assert value == pytest.approx(per_edge, rel=1e-15, abs=0), (encode_graph6(g), k)


def test_sombor_family_is_label_invariant():
    """Relabeled copies give bit-identical values, not merely close ones.
    A per-edge float sum adds the same terms in a label-dependent order;
    the first case is one whose Sombor value moves in the last digit."""
    cases = [
        (
            graph_from_edges(
                8, [(1, 2), (0, 3), (0, 4), (1, 4), (0, 5), (4, 5), (2, 6), (3, 6), (4, 6), (0, 7)]
            ),
            [3, 0, 6, 5, 2, 1, 4, 7],
        )
    ]
    rng = random.Random(2021)
    for _ in range(100):
        n = rng.randint(5, 30)
        p = rng.uniform(0.1, 0.9)
        g = graph_from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
        perm = list(range(n))
        rng.shuffle(perm)
        cases.append((g, perm))
    for g, perm in cases:
        h = relabel(g, perm)
        for fn in (sombor, reduced_sombor, sombor_shifted):
            assert fn(edge_stats(h)) == fn(edge_stats(g)), (fn.__name__, g.n, perm)


def test_indices_accept_a_profile():
    # the profile of the star K1,3, written out: no graph is needed
    stats = EdgeStats({(1, 3): 3}, (3, 1, 1, 1), 1)
    assert stats == edge_stats(star(4))
    values = [fn(stats) for fn in (sombor, reduced_sombor, sombor_shifted, first_zagreb)]
    assert values == [3 * math.hypot(1, 3), 6.0, 3 * math.hypot(2, 4), 12]


def test_indices_reject_order_zero():
    s0 = edge_stats(graph_from_edges(0, []))
    for fn in (sombor, reduced_sombor, sombor_shifted, first_zagreb):
        with pytest.raises(ValueError):
            fn(s0)
    with pytest.raises(ValueError):
        edge_sum(s0, 0)


@given(graphs_strategy())
def test_zero_iff_edgeless(g):
    for fn in (sombor, sombor_shifted, first_zagreb):
        assert (fn(edge_stats(g)) == 0) == (g.m == 0)
    # reduced Sombor vanishes exactly when every edge joins two leaves
    deg = degrees(g)
    all_leaf_edges = all(deg[u] == 1 and deg[v] == 1 for u, v in g.edges())
    assert (reduced_sombor(edge_stats(g)) == 0) == all_leaf_edges


@given(graphs_strategy())
def test_first_zagreb_both_formulas_agree(g):
    deg = degrees(g)
    assert first_zagreb(edge_stats(g)) == sum(d * d for d in deg)
    assert first_zagreb(edge_stats(g)) == sum(deg[u] + deg[v] for u, v in g.edges())


@given(graphs_strategy(min_n=2), st.data())
@settings(max_examples=100)
def test_edge_addition_strictly_increases(g, data):
    non_edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.rows[u] >> v & 1
    ]
    if not non_edges:
        return
    u, v = data.draw(st.sampled_from(non_edges))
    bigger = graph_from_edges(g.n, list(g.edges()) + [(u, v)])
    assert sombor(edge_stats(bigger)) > sombor(edge_stats(g))
    assert first_zagreb(edge_stats(bigger)) > first_zagreb(edge_stats(g))


@given(graphs_strategy(min_n=1))
@settings(max_examples=150)
def test_zagreb_sandwich(g):
    if g.m == 0:
        return
    s = edge_stats(g)
    m1 = first_zagreb(s)
    so = sombor(s)
    assert m1 > so + 1e-9
    assert so >= m1 / math.sqrt(2) - 1e-9 * m1
    so_red = reduced_sombor(s)
    cap = m1 - 2 * g.m
    assert so_red <= cap + 1e-9 * max(1, cap)
    assert so_red >= cap / math.sqrt(2) - 1e-9 * max(1, cap)
    deg = degrees(g)
    if any(deg[u] >= 2 and deg[v] >= 2 for u, v in g.edges()):
        assert cap - so_red > 1e-9


def test_reduced_cap_equality_on_stars():
    # every edge of a star has a leaf endpoint, so the reduced index
    # meets M1 - 2m exactly (the strict form fails here)
    s = edge_stats(star(4))
    assert reduced_sombor(s) == pytest.approx(first_zagreb(s) - 2 * s.m, rel=1e-12)


@given(graphs_strategy(min_n=2, max_n=7))
@settings(max_examples=100)
def test_hub_decomposition(g):
    deg = degrees(g)
    if max(deg) != g.n - 1:
        return
    hub = deg.index(g.n - 1)
    hub_part = sum(math.hypot(g.n - 1, deg[v]) for v in range(g.n) if v != hub)
    total = hub_part + sombor_shifted(edge_stats(delete_vertex(g, hub)))
    assert sombor(edge_stats(g)) == pytest.approx(total, rel=1e-9)


def test_sombor_values_meet_the_tie_rule_error_bound():
    """``indices._is_tie``'s docstring proves that a computed Sombor value
    lies within e = (1 + 2^-52)(1 + 2^-53)^2 - 1 < 4.5e-16 of its exact
    value, relative.  At 50 digits, each of the three Sombor indices meets
    that bound on every connected class with n <= 8."""
    d = decimal.Decimal
    shift = {sombor: 0, reduced_sombor: -1, sombor_shifted: 1}
    with decimal.localcontext(decimal.Context(prec=50)):
        e = (1 + d(2) ** -52) * (1 + d(2) ** -53) ** 2 - 1
        assert e < d("4.5e-16")
        root = functools.cache(lambda k: d(k).sqrt())
        classes = 0
        for n in range(1, 9):
            for m in range(n * (n - 1) // 2 + 1):
                for s in map(edge_stats, connected_graphs(n, m)):
                    classes += 1
                    pairs = s.endpoint_degree_counts.items()
                    for index, k in shift.items():
                        exact = sum(c * root((i + k) ** 2 + (j + k) ** 2) for (i, j), c in pairs)
                        assert abs(d(index(s)) - exact) <= e * exact, (n, m, index.__name__)
    assert classes == 1 + 1 + 2 + 6 + 21 + 112 + 853 + 11_117
