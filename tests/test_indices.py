import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somborkit.families import complete, cycle, h_graph, path, star, star_plus_isolated
from somborkit.graphs import edge_stats, graph_from_edges
from somborkit.indices import (
    edge_sum,
    first_zagreb,
    reduced_sombor,
    sombor,
    sombor_shifted,
)

from conftest import delete_vertex, graphs_strategy, relabel

K2 = graph_from_edges(2, [(0, 1)])


def test_sombor_values():
    assert sombor(cycle(7)) == pytest.approx(7 * 2 * math.sqrt(2), rel=1e-12)
    assert sombor(star(4)) == pytest.approx(3 * math.sqrt(10), rel=1e-12)
    # six edges of h_graph(5, 2), enumerated by hand:
    # (4,3) (4,2) (4,2) (4,1) (3,2) (3,2)
    expected = math.sqrt(17) + 2 * math.sqrt(20) + 5 + 2 * math.sqrt(13)
    assert sombor(h_graph(5, 2)) == pytest.approx(expected, rel=1e-12)


def test_reduced_sombor_values():
    assert reduced_sombor(K2) == 0.0
    assert reduced_sombor(star(6)) == pytest.approx(5 * 4, rel=1e-12)
    expected = 3 + 2 * math.sqrt(10) + 2 * math.sqrt(5) + math.sqrt(13)
    assert reduced_sombor(h_graph(5, 2)) == pytest.approx(expected, rel=1e-12)


def test_sombor_shifted_values():
    assert sombor_shifted(K2) == pytest.approx(math.sqrt(8), rel=1e-12)
    # star with 2 edges plus an isolated vertex attains m*sqrt((m+1)^2+4)
    g = star_plus_isolated(2, 4)
    assert sombor_shifted(g) == pytest.approx(2 * math.sqrt(13), rel=1e-12)
    assert sombor_shifted(g) == pytest.approx(g.m * math.sqrt((g.m + 1) ** 2 + 4), rel=1e-12)
    # P4 edges (1,2),(2,2),(2,1) shift to (2,3),(3,3),(3,2)
    assert sombor_shifted(path(4)) == pytest.approx(2 * math.sqrt(13) + math.sqrt(18), rel=1e-12)


def test_first_zagreb_values():
    assert first_zagreb(path(4)) == 10
    assert first_zagreb(cycle(9)) == 36
    assert first_zagreb(complete(5)) == 5 * 16
    assert isinstance(first_zagreb(path(4)), int)


def test_edge_sum_engine():
    g = h_graph(6, 3)
    assert edge_sum(g, math.hypot) == pytest.approx(sombor(g), rel=1e-15)
    assert edge_sum(path(4), lambda a, b: a + b) == 10
    assert edge_sum(g, lambda a, b: 1) == g.m


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
            assert fn(h) == fn(g), (fn.__name__, g.n, perm)


def test_indices_accept_a_profile():
    g = h_graph(7, 3)
    stats = edge_stats(g)
    for fn in (sombor, reduced_sombor, sombor_shifted, first_zagreb):
        assert fn(stats) == fn(g)
    assert edge_sum(stats, math.hypot) == sombor(g)


def test_indices_reject_order_zero():
    g0 = graph_from_edges(0, [])
    for fn in (sombor, reduced_sombor, sombor_shifted, first_zagreb):
        with pytest.raises(ValueError):
            fn(g0)
    with pytest.raises(ValueError):
        edge_sum(g0, math.hypot)


@given(graphs_strategy())
def test_zero_iff_edgeless(g):
    for fn in (sombor, sombor_shifted, first_zagreb):
        assert (fn(g) == 0) == (g.m == 0)
    # reduced Sombor vanishes exactly when every edge joins two leaves
    deg = g.degrees()
    all_leaf_edges = all(deg[u] == 1 and deg[v] == 1 for u, v in g.edges())
    assert (reduced_sombor(g) == 0) == all_leaf_edges


@given(graphs_strategy())
def test_first_zagreb_both_formulas_agree(g):
    deg = g.degrees()
    assert first_zagreb(g) == sum(d * d for d in deg)
    assert first_zagreb(g) == sum(deg[u] + deg[v] for u, v in g.edges())


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
    assert sombor(bigger) > sombor(g)
    assert first_zagreb(bigger) > first_zagreb(g)


@given(graphs_strategy(min_n=1))
@settings(max_examples=150)
def test_zagreb_sandwich(g):
    if g.m == 0:
        return
    m1 = first_zagreb(g)
    so = sombor(g)
    assert m1 > so + 1e-9
    assert so >= m1 / math.sqrt(2) - 1e-9 * m1
    so_red = reduced_sombor(g)
    cap = m1 - 2 * g.m
    assert so_red <= cap + 1e-9 * max(1, cap)
    assert so_red >= cap / math.sqrt(2) - 1e-9 * max(1, cap)
    deg = g.degrees()
    if any(deg[u] >= 2 and deg[v] >= 2 for u, v in g.edges()):
        assert cap - so_red > 1e-9


def test_reduced_cap_equality_on_stars():
    # every edge of a star has a leaf endpoint, so the reduced index
    # meets M1 - 2m exactly (the strict form fails here)
    g = star(4)
    assert reduced_sombor(g) == pytest.approx(first_zagreb(g) - 2 * g.m, rel=1e-12)


@given(graphs_strategy(min_n=2, max_n=7))
@settings(max_examples=100)
def test_hub_decomposition(g):
    deg = g.degrees()
    if max(deg) != g.n - 1:
        return
    hub = deg.index(g.n - 1)
    hub_part = sum(math.hypot(g.n - 1, deg[v]) for v in range(g.n) if v != hub)
    total = hub_part + sombor_shifted(delete_vertex(g, hub))
    assert sombor(g) == pytest.approx(total, rel=1e-9)
