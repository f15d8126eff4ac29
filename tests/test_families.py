import math

import pytest

from somborkit.bounds import BOUNDS
from somborkit.enumeration import all_graphs, canonical_form
from somborkit.families import (
    complete,
    cycle,
    empty_graph,
    h_degree_sequence,
    h_graph,
    is_h_graph,
    is_star_plus_isolated,
    max_reduced_sombor_value,
    max_sombor_value,
    path,
    star,
    star_plus_isolated,
)
from somborkit.graphs import (
    edge_stats,
    graph_from_edges,
    is_connected,
    parse_graph6,
)
from somborkit.indices import reduced_sombor, sombor

from conftest import (
    cyclomatic_number,
    degree_sequence,
    degrees,
    delete_vertex,
    is_cycle_graph,
    is_path_graph,
    is_regular,
)

# the equality classes the bound rows decide from their degree pairs
ROW_CLASS = {b.id: b.equality_class for rows in BOUNDS.values() for b in rows}
path_or_cycle_pairs = ROW_CLASS["so-lower"]
equal_degree_ends = ROW_CLASS["zagreb-so-lower"]
leaf_end = ROW_CLASS["zagreb-so-red-upper"]


def test_h_graph_structure():
    g = h_graph(5, 2)
    assert degree_sequence(g) == (4, 3, 2, 2, 1) and g.m == 6
    assert canonical_form(h_graph(6, 0)) == canonical_form(star(6))
    assert degree_sequence(h_graph(4, 2)) == (3, 3, 2, 2)
    assert h_graph(2, 0).m == 1  # K2 is admitted


@pytest.mark.parametrize("n", range(2, 9))
def test_h_graph_invariants(n):
    for nu in range(0, n - 1):
        g = h_graph(n, nu)
        assert is_connected(g)
        assert g.m == n - 1 + nu
        assert cyclomatic_number(g) == nu
        expected = (n - 1, nu + 1) + (2,) * nu + (1,) * (n - nu - 2)
        assert degree_sequence(g) == expected


def test_h_degree_sequence():
    assert h_degree_sequence(5, 2) == (4, 3, 2, 2, 1)
    assert h_degree_sequence(4, 0) == (3, 1, 1, 1)
    assert h_degree_sequence(6, 4) == (5, 5, 2, 2, 2, 2)
    for n in range(2, 12):
        for nu in range(0, n - 1):
            seq = h_degree_sequence(n, nu)
            assert len(seq) == n and sum(seq) == 2 * (n - 1 + nu)
            assert all(seq[i] >= seq[i + 1] for i in range(n - 1))
    with pytest.raises(ValueError):
        h_degree_sequence(4, 3)


def test_h_graph_range_errors():
    with pytest.raises(ValueError):
        h_graph(4, 3)
    with pytest.raises(ValueError):
        h_graph(1, 0)
    with pytest.raises(ValueError):
        h_graph(5, -1)


def test_small_constructions():
    assert sorted(degrees(star_plus_isolated(3, 6)), reverse=True) == [3, 1, 1, 1, 0, 0]
    c5 = cycle(5)
    assert is_connected(c5) and cyclomatic_number(c5) == 1 and degree_sequence(c5) == (2,) * 5
    assert degree_sequence(path(2)) == (1, 1)
    assert empty_graph(3).m == 0
    assert complete(4).m == 6
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        star_plus_isolated(5, 5)


def test_closed_forms_at_5_2():
    assert max_sombor_value(5, 2) == pytest.approx(
        math.sqrt(17) + 2 * math.sqrt(20) + 5 + 2 * math.sqrt(13), rel=1e-12
    )
    assert max_reduced_sombor_value(5, 2) == pytest.approx(
        3 + 2 * math.sqrt(10) + 2 * math.sqrt(5) + math.sqrt(13), rel=1e-12
    )


def test_closed_forms_reduce_to_star_at_nu_0():
    for n in (2, 3, 7, 41):
        a = n - 1
        assert max_sombor_value(n, 0) == pytest.approx(a * math.sqrt(a * a + 1), rel=1e-12)
        assert max_reduced_sombor_value(n, 0) == pytest.approx((n - 1) * (n - 2), abs=1e-9)


def test_closed_form_instances():
    # (7,5): 0*sqrt(37) + 5*sqrt(40) + sqrt(72) + 5*sqrt(40)
    assert max_sombor_value(7, 5) == pytest.approx(10 * math.sqrt(40) + 6 * math.sqrt(2), rel=1e-12)
    # (6,3): 1*4 + 3*sqrt(17) + 3*sqrt(10) + 5
    assert max_reduced_sombor_value(6, 3) == pytest.approx(
        9 + 3 * math.sqrt(17) + 3 * math.sqrt(10), rel=1e-12
    )


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 40, 97, 200])
def test_closed_forms_match_edge_sums(n):
    for nu in range(0, n - 1):
        s = edge_stats(h_graph(n, nu))
        so = sombor(s)
        so_red = reduced_sombor(s)
        assert abs(so - max_sombor_value(n, nu)) <= 1e-9 * so
        assert abs(so_red - max_reduced_sombor_value(n, nu)) <= 1e-9 * max(1.0, so_red)


def test_membership_predicates():
    assert is_path_graph(edge_stats(path(6))) and is_path_graph(edge_stats(path(1)))
    assert not is_path_graph(edge_stats(star(4)))
    assert not is_path_graph(edge_stats(cycle(4)))
    assert is_cycle_graph(edge_stats(cycle(3))) and not is_cycle_graph(edge_stats(path(3)))

    assert is_star_plus_isolated(edge_stats(star_plus_isolated(3, 7)))
    assert is_star_plus_isolated(edge_stats(empty_graph(4)))
    assert is_star_plus_isolated(edge_stats(graph_from_edges(2, [(0, 1)])))
    assert is_star_plus_isolated(edge_stats(path(3)))  # P3 = star with 2 edges
    assert not is_star_plus_isolated(edge_stats(path(4)))
    assert not is_star_plus_isolated(edge_stats(cycle(3)))

    assert is_h_graph(edge_stats(h_graph(7, 4))) and is_h_graph(edge_stats(star(5)))
    assert is_h_graph(edge_stats(complete(3)))
    assert not is_h_graph(edge_stats(path(4)))
    assert not is_h_graph(edge_stats(star_plus_isolated(2, 5)))  # disconnected
    # right edge count for nu = 1, but degrees (2,2,2,2), not (3,2,2,1)
    assert not is_h_graph(edge_stats(cycle(4)))
    # K4 plus a pendant vertex: a dominating vertex, nu = 3, but degrees
    # (4,3,3,3,1), not (4,4,2,2,2)
    assert not is_h_graph(edge_stats(parse_graph6("DJ{")))

    assert is_regular(edge_stats(cycle(8))) and is_regular(edge_stats(complete(4)))
    assert not is_regular(edge_stats(path(3)))
    assert equal_degree_ends(edge_stats(cycle(5)))
    k3_k2 = edge_stats(graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]))
    assert equal_degree_ends(k3_k2) and not is_regular(k3_k2)
    assert leaf_end(edge_stats(star(9)))
    assert not leaf_end(edge_stats(path(4)))


# -- structural references: each family decided by walking the graph ---------


def _ref_path(g):
    return g.n >= 1 and g.m == g.n - 1 and is_connected(g) and all(d <= 2 for d in degrees(g))


def _ref_cycle(g):
    return g.n >= 3 and g.m == g.n and is_connected(g) and all(d == 2 for d in degrees(g))


def _ref_star_plus_isolated(g):
    if g.m == 0:
        return True
    deg = degrees(g)
    for hub in range(g.n):
        if deg[hub] == g.m:
            return all(
                deg[v] == (1 if g.rows[hub] >> v & 1 else 0) for v in range(g.n) if v != hub
            )
    return False


def _ref_h_graph(g):
    """A dominating vertex whose deletion leaves a star with nu edges plus
    isolated vertices."""
    nu = g.m - (g.n - 1)
    if g.n < 2 or not is_connected(g) or not 0 <= nu <= g.n - 2:
        return False
    deg = degrees(g)
    return any(
        deg[v] == g.n - 1 and _ref_star_plus_isolated(delete_vertex(g, v)) for v in range(g.n)
    )


def _ref_path_or_cycle_but_k2(g):
    return (_ref_path(g) and g.n != 2) or _ref_cycle(g)


def _ref_regular(g):
    deg = degrees(g)
    return g.n > 0 and all(d == deg[0] for d in deg)


def _ref_equal_degrees(g):
    deg = degrees(g)
    return all(deg[u] == deg[v] for u, v in g.edges())


def _ref_leaf_endpoint(g):
    deg = degrees(g)
    return all(deg[u] == 1 or deg[v] == 1 for u, v in g.edges())


PREDICATES = [
    (is_path_graph, _ref_path),
    (is_cycle_graph, _ref_cycle),
    (is_star_plus_isolated, _ref_star_plus_isolated),
    (is_h_graph, _ref_h_graph),
    (is_regular, _ref_regular),
    (path_or_cycle_pairs, _ref_path_or_cycle_but_k2),
    (equal_degree_ends, _ref_equal_degrees),
    (leaf_end, _ref_leaf_endpoint),
]


def _levels(n):
    return [(m, all_graphs(n, m)) for m in range(n * (n - 1) // 2 + 1)]


@pytest.mark.parametrize("n", range(9))
def test_profile_tests_match_the_structural_references(n):
    """On every class of order n, each family test and each bound row's
    pair rule gives on the graph's EdgeStats the answer of the structural
    reference."""
    hits = [0] * len(PREDICATES)
    for _, level in _levels(n):
        for g in level:
            stats = edge_stats(g)
            for k, (predicate, reference) in enumerate(PREDICATES):
                expected = reference(g)
                assert predicate(stats) == expected, (predicate.__name__, g.rows)
                hits[k] += expected
    # from C3 on, every family has members
    assert all(hits) or n < 3


@pytest.mark.parametrize("n", range(9))
def test_h_degree_sequence_has_exactly_one_realization(n):
    """For each nu, a class of order n has the degree sequence of
    h_graph(n, nu) iff it is isomorphic to h_graph(n, nu)."""
    for m, level in _levels(n):
        nu = m - n + 1
        if not 0 <= nu <= n - 2:
            continue
        h_form = canonical_form(h_graph(n, nu))
        for g in level:
            assert (degree_sequence(g) == h_degree_sequence(n, nu)) == (
                canonical_form(g) == h_form
            ), (n, nu)
