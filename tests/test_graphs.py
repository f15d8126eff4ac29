import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somborkit.families import complete, cycle, h_graph, path, star, star_plus_isolated
from somborkit.graphs import (
    Graph6Error,
    component_count,
    edge_stats,
    encode_graph6,
    graph6_header,
    graph_from_edges,
    is_connected,
    parse_graph6,
)

from conftest import (
    cyclomatic_number,
    degree_sequence,
    degrees,
    delete_vertex,
    graph_from_mask,
    graphs_strategy,
    max_degree,
    to_nx,
)


def test_graph_from_edges_path():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert (g.n, g.m) == (3, 2)
    assert degree_sequence(g) == (2, 1, 1)


def test_graph_from_edges_trivial_and_complete():
    assert graph_from_edges(1, []).m == 0
    k4 = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert k4.m == 6 and degree_sequence(k4) == (3, 3, 3, 3)


def test_graph_from_edges_duplicates_collapse():
    g = graph_from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_graph_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        graph_from_edges(2, [(-1, 0)])


def test_degree_sequence_examples():
    assert degree_sequence(h_graph(5, 2)) == (4, 3, 2, 2, 1)
    assert degree_sequence(cycle(6)) == (2,) * 6
    assert degree_sequence(graph_from_edges(1, [])) == (0,)


@given(graphs_strategy())
def test_handshake(g):
    assert sum(degrees(g)) == 2 * g.m


def test_connectivity():
    assert is_connected(path(4))
    two_k2 = graph_from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(two_k2)
    assert component_count(two_k2) == 2
    assert is_connected(star(6))
    empty0 = graph_from_edges(0, [])
    assert not is_connected(empty0)
    assert component_count(empty0) == 0


def test_cyclomatic_number():
    assert cyclomatic_number(path(7)) == 0
    assert cyclomatic_number(star(5)) == 0
    assert cyclomatic_number(cycle(5)) == 1
    for n, nu in [(5, 2), (7, 5), (4, 0)]:
        assert cyclomatic_number(h_graph(n, nu)) == nu
    # disconnected: 2K2 has nu = 2 - 4 + 2 = 0
    assert cyclomatic_number(graph_from_edges(4, [(0, 1), (2, 3)])) == 0


@given(graphs_strategy())
def test_cyclomatic_nonnegative_and_connected_formula(g):
    nu = cyclomatic_number(g)
    assert nu >= 0
    if is_connected(g):
        assert nu == g.m - g.n + 1


def test_edge_stats_path4():
    stats = edge_stats(path(4))
    assert stats.endpoint_degree_counts == {(1, 2): 2, (2, 2): 1}


def test_edge_stats_cycle_and_k2_and_star():
    assert edge_stats(cycle(5)).endpoint_degree_counts == {(2, 2): 5}
    k2 = graph_from_edges(2, [(0, 1)])
    assert edge_stats(k2).endpoint_degree_counts == {(1, 1): 1}
    assert edge_stats(star(5)).endpoint_degree_counts == {(1, 4): 4}


@given(graphs_strategy())
def test_edge_stats_invariants(g):
    stats = edge_stats(g)
    assert sum(stats.endpoint_degree_counts.values()) == g.m
    assert 0 not in stats.endpoint_degree_counts.values()
    # the one edge pass agrees with an adjacency-matrix scan
    deg = degrees(g)
    pairs = Counter(
        (min(deg[u], deg[v]), max(deg[u], deg[v]))
        for v in range(g.n)
        for u in range(v)
        if g.rows[u] >> v & 1
    )
    assert stats.endpoint_degree_counts == pairs
    _check_degree_counts(stats, deg)
    assert (stats.n, stats.m) == (g.n, g.m)
    assert stats.components == component_count(g)


def _check_degree_counts(stats, deg):
    """``degree_counts`` counts the degrees ``deg``, holds no zero count (a
    plain dict with one would not equal a Counter, so ``is_h_graph`` would
    reject H) and agrees with the histogram: the pair ends at degree k,
    each pair's count added once per end of degree k, are k times the
    count of degree k."""
    assert stats.degree_counts == Counter(deg)
    assert 0 not in stats.degree_counts.values()
    ends = Counter()
    for (i, j), c in stats.endpoint_degree_counts.items():
        ends[i] += c
        ends[j] += c
    assert set(ends) <= set(stats.degree_counts)
    assert all(ends[k] == k * c for k, c in stats.degree_counts.items())


def test_max_degree():
    assert max_degree(star(8)) == 7
    assert max_degree(cycle(9)) == 2
    assert max_degree(h_graph(7, 3)) == 6
    with pytest.raises(ValueError):
        max_degree(graph_from_edges(0, []))


def test_delete_vertex():
    s5_minus_hub = delete_vertex(star(5), 0)
    assert s5_minus_hub.n == 4 and s5_minus_hub.m == 0
    # deleting the hub of h_graph leaves a star plus isolated vertices,
    # label-identically under the fixed construction order
    got = delete_vertex(h_graph(6, 2), 0)
    assert got == star_plus_isolated(2, 5)
    p2 = delete_vertex(path(3), 2)
    assert degree_sequence(p2) == (1, 1)
    with pytest.raises(ValueError):
        delete_vertex(path(3), 3)


@given(graphs_strategy(min_n=2), st.data())
def test_delete_vertex_degree_bookkeeping(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    h = delete_vertex(g, v)
    assert h.n == g.n - 1 and h.m == g.m - g.rows[v].bit_count()
    for w in range(g.n):
        if w == v:
            continue
        w_new = w if w < v else w - 1
        assert h.rows[w_new].bit_count() == g.rows[w].bit_count() - (g.rows[w] >> v & 1)


# -- graph6 ------------------------------------------------------------------


def test_graph6_known_strings():
    g = parse_graph6("D?{")
    assert g.n == 5 and degree_sequence(g) == (4, 1, 1, 1, 1)
    assert encode_graph6(g) == "D?{"
    assert parse_graph6("@").n == 1 and parse_graph6("@").m == 0
    assert parse_graph6("?").n == 0


def test_graph6_encode_path3():
    text = encode_graph6(path(3))
    assert len(text) == 2  # header byte + one body byte for 3 bits
    assert degree_sequence(parse_graph6(text)) == (2, 1, 1)
    # independent reader agrees
    gn = nx.from_graph6_bytes(text.encode())
    assert sorted(gn.edges()) == sorted(path(3).edges())


@given(graphs_strategy())
@settings(max_examples=150)
def test_graph6_round_trip_and_nx_cross_check(g):
    text = encode_graph6(g)
    back = parse_graph6(text)
    assert back.rows == g.rows
    gn = nx.from_graph6_bytes(text.encode())
    assert gn.number_of_nodes() == g.n
    assert sorted(gn.edges()) == sorted(g.edges())
    # our parser agrees with the independent encoder
    theirs = nx.to_graph6_bytes(to_nx(g), header=False).strip().decode()
    assert parse_graph6(theirs).rows == g.rows


@given(graphs_strategy(min_n=8, max_n=10))
@settings(max_examples=60)
def test_graph6_round_trip_mid_sizes(g):
    assert parse_graph6(encode_graph6(g)).rows == g.rows


def test_graph6_long_header_n63():
    g = graph_from_mask(63, 0)
    text = encode_graph6(g)
    assert text.startswith("~")
    assert parse_graph6(text).n == 63


def test_graph6_malformed():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("B\x1f")  # character below the graph6 range
    with pytest.raises(Graph6Error):
        parse_graph6("D?{?")  # trailing garbage
    with pytest.raises(Graph6Error):
        parse_graph6("D?")  # truncated body
    with pytest.raises(Graph6Error):
        parse_graph6("BF")  # padding bits set beyond the triangle ('F' = 000111)
    with pytest.raises(Graph6Error):
        parse_graph6("~??")  # truncated long-form header


def test_graph6_malformed_messages():
    cases = {
        "": "empty graph6 string",
        "B\x1f": "body length 0 does not match n=3 (expected 1 bytes)",
        "D?{?": "body length 3 does not match n=5 (expected 2 bytes)",
        "D?": "body length 1 does not match n=5 (expected 2 bytes)",
        "BF": "padding bits beyond the upper triangle are set",
        "~??": "truncated long-form size header",
        "C?\x80": "character '\\x80' outside graph6 range",
        "D?{ \x7f{": "character ' ' outside graph6 range",
        "~??~": "body length 0 does not match n=63 (expected 326 bytes)",
        "~?A?": "n=128 exceeds supported maximum 64",
    }
    for text, message in cases.items():
        with pytest.raises(Graph6Error) as info:
            parse_graph6(text)
        assert str(info.value) == message, text


def _reference_parse(text: str) -> tuple[int, tuple[int, ...]]:
    """Per-bit graph6 decoder for well-formed input: (n, rows)."""
    vals = [ord(ch) - 63 for ch in text]
    if vals[0] == 63:
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    rows = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if body[i // 6] >> (5 - i % 6) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            i += 1
    return n, tuple(rows)


def _reference_encode(g) -> str:
    """Per-bit graph6 encoder: the body bits column by column, six to a
    character."""
    bits = [g.rows[v] >> u & 1 for v in range(g.n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[i : i + 6])), 2)) for i in range(0, len(bits), 6)
    )
    return graph6_header(g.n) + body


def _both_headers(g) -> list[str]:
    """g in graph6 with the short size header (n <= 62) and the long one."""
    text = encode_graph6(g)
    body = text[len(graph6_header(g.n)) :]
    long_form = "~" + "".join(chr((g.n >> s & 63) + 63) for s in (12, 6, 0)) + body
    return [text, long_form] if g.n <= 62 else [long_form]


def _random_graph(rng: random.Random, n: int, p: float):
    return graph_from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])


def _check_parse(g) -> None:
    forms = _both_headers(g)
    assert forms[0] == _reference_encode(g)
    for text in forms:
        got = parse_graph6(text)
        assert (got.n, got.rows) == _reference_parse(text) == (g.n, g.rows), text
        assert got.m == g.m
    assert forms[0].startswith("~") == (g.n > 62)


def test_parse_graph6_matches_reference_decoder_exhaustively():
    """Every labeled graph with n <= 6, every isomorphism class at n = 7
    and seeded random labeled graphs at n = 7, both header forms."""
    for n in range(7):
        for mask in range(1 << (n * (n - 1) // 2)):
            _check_parse(graph_from_mask(n, mask))
    from somborkit.enumeration import all_graphs

    for m in range(22):
        for g in all_graphs(7, m):
            _check_parse(g)
    rng = random.Random(7)
    for _ in range(2000):
        _check_parse(graph_from_mask(7, rng.getrandbits(21)))


def test_parse_graph6_matches_reference_decoder_on_random_graphs():
    rng = random.Random(20260)
    for n in range(8, 65):
        for _ in range(4):
            p = rng.random()
            _check_parse(_random_graph(rng, n, p))
        _check_parse(complete(n))
        _check_parse(graph_from_edges(n, []))


def _reference_profile(g):
    """Endpoint-degree pairs, degrees and components, edge by edge."""
    deg = [0] * g.n
    edges = [(u, v) for v in range(g.n) for u in range(v) if g.rows[u] >> v & 1]
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    pairs = Counter((min(deg[u], deg[v]), max(deg[u], deg[v])) for u, v in edges)
    return dict(pairs), tuple(deg), nx.number_connected_components(to_nx(g))


def test_edge_stats_matches_per_edge_reference():
    rng = random.Random(4242)
    cases = [graph_from_edges(0, []), graph_from_edges(1, []), graph_from_edges(5, [])]
    cases += [graph_from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)]) for k in (1, 3)]
    cases += [complete(n) for n in range(2, 65)]
    cases.append(graph_from_edges(9, [(0, 1), (2, 3), (3, 4), (4, 2)]))  # K2, K3, isolated
    for _ in range(150):
        n = rng.randint(2, 64)
        cases.append(_random_graph(rng, n, rng.choice([0.02, 0.1, 0.3, 0.6, 0.95])))
    for g in cases:
        stats = edge_stats(g)
        pairs, deg, components = _reference_profile(g)
        assert stats.endpoint_degree_counts == pairs
        _check_degree_counts(stats, deg)
        assert stats.components == components
        assert (stats.n, stats.m) == (g.n, g.m)
