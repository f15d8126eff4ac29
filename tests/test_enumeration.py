import math
import os
import random
import sys
import threading
import warnings
from concurrent.futures.process import BrokenProcessPool
from itertools import combinations, permutations
from math import factorial

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somborkit import enumeration
from somborkit.enumeration import (
    all_graphs,
    canonical_form,
    connected_graphs,
    extremal_search,
)
from somborkit.families import complete, cycle, h_graph, max_sombor_value, path, star
from somborkit.graphs import (
    Graph,
    _graph6_from_body,
    encode_graph6,
    graph_from_edges,
    is_connected,
)

from conftest import (
    aut_count,
    count_calls,
    degrees,
    graph_from_mask,
    graphs_strategy,
    labeled_connected_count,
    labeled_graph_count,
    relabel,
    term_sum,
    to_nx,
)

P4 = path(4)
S4 = star(4)


def _complement(g):
    full = (1 << g.n) - 1
    rows = tuple(full ^ r ^ 1 << v for v, r in enumerate(g.rows))
    return Graph(g.n, rows, g.n * (g.n - 1) // 2 - g.m)


def test_canonical_invariance_all_perms_of_p4():
    forms = {canonical_form(relabel(P4, p)) for p in permutations(range(4))}
    assert len(forms) == 1


def test_canonical_distinguishes():
    assert canonical_form(P4) != canonical_form(S4)
    assert canonical_form(P4) != canonical_form(cycle(4))
    assert enumeration._graph_of_key(*canonical_form(P4)).m == 3


@given(graphs_strategy(max_n=7), st.data())
@settings(max_examples=150, deadline=None)
def test_canonical_invariance_property(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    assert canonical_form(g) == canonical_form(relabel(g, list(perm)))


@given(graphs_strategy(max_n=6), graphs_strategy(max_n=6))
@settings(max_examples=150, deadline=None)
def test_canonical_matches_networkx_isomorphism(g1, g2):
    ours = canonical_form(g1) == canonical_form(g2)
    theirs = nx.is_isomorphic(to_nx(g1), to_nx(g2))
    assert ours == theirs


def test_canonical_round_trip():
    for g in all_graphs(5, 5):
        form = canonical_form(g)
        assert canonical_form(enumeration._graph_of_key(*form)) == form


def test_canonical_cap():
    with pytest.raises(ValueError):
        canonical_form(graph_from_edges(11, []))


def test_known_class_counts():
    assert len(connected_graphs(3, 2)) == 1
    assert len(connected_graphs(4, 3)) == 2  # P4 and S4
    assert len(all_graphs(4, 3)) == 3  # plus K3 + K1
    assert len(connected_graphs(5, 4)) == 3  # the three trees on 5 vertices
    assert len(all_graphs(2, 0)) == 1
    assert len(all_graphs(4, 1)) == 1
    assert sum(len(connected_graphs(5, m)) for m in range(11)) == 21


def test_classes_4_3_membership():
    forms = {canonical_form(g) for g in all_graphs(4, 3)}
    k3_k1 = graph_from_edges(4, [(0, 1), (1, 2), (0, 2)])
    assert forms == {canonical_form(P4), canonical_form(S4), canonical_form(k3_k1)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_labeled_brute_force_oracle(n):
    """Dedup all 2^C(n,2) labeled graphs and compare classes per edge count."""
    slots = n * (n - 1) // 2
    by_m: dict[int, set] = {}
    connected_by_m: dict[int, set] = {}
    for mask in range(1 << slots):
        g = graph_from_mask(n, mask)
        form = canonical_form(g)
        by_m.setdefault(g.m, set()).add(form)
        if is_connected(g):
            connected_by_m.setdefault(g.m, set()).add(form)
    for m in range(slots + 1):
        assert {canonical_form(g) for g in all_graphs(n, m)} == by_m.get(m, set())
        assert {canonical_form(g) for g in connected_graphs(n, m)} == connected_by_m.get(
            m, set()
        )


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_orbit_counting_identity(n):
    """Sum of n!/|Aut| over the classes must equal the labeled counts;
    this catches both missing classes and duplicated (isomorphic) ones.
    The automorphism counter is an independent backtracking oracle."""
    nfact = factorial(n)
    for m in range(n * (n - 1) // 2 + 1):
        classes = all_graphs(n, m)
        total = sum(nfact // aut_count(g) for g in classes)
        assert total == labeled_graph_count(n, m), (n, m)
        connected_total = sum(
            nfact // aut_count(g) for g in classes if is_connected(g)
        )
        assert connected_total == labeled_connected_count(n, m), (n, m)


@pytest.mark.parametrize("m", [7, 13, 15, 21])
def test_orbit_counting_identity_n8(m):
    """Same identity at the lightest and heaviest 8-vertex levels the
    extremal sweep depends on, and at two levels flipped from lower ones.
    The connected count at m = 7 doubles as a check of the recurrence
    oracle itself: it must equal Cayley's 8^6."""
    classes = all_graphs(8, m)
    nfact = factorial(8)
    assert sum(nfact // aut_count(g) for g in classes) == labeled_graph_count(8, m)
    connected_total = sum(nfact // aut_count(g) for g in classes if is_connected(g))
    assert connected_total == labeled_connected_count(8, m)
    if m == 7:
        assert connected_total == 8**6


def test_generation_prunes_canonical_calls(monkeypatch):
    """The edge-rank filter, the twin-orbit rule and the flipped upper
    levels keep the full n = 8 sweep far below the 172,844
    canonicalizations of growing every one-edge extension (13,989 when
    written, 13,963 before the flips, 8,613 with them, 8,639 with the
    trees grown from smaller trees), and an upper level builds only the
    chain of all graphs, keyed (n, m, False), of its complement and is not
    cached."""
    enumeration._level_cache.clear()
    all_graphs(8, 27)
    assert set(enumeration._level_cache) == {(8, 0, False), (8, 1, False)}

    calls = 0
    canonical_key = enumeration._canonical_key

    def counted(n, rows):
        nonlocal calls
        calls += 1
        return canonical_key(n, rows)

    monkeypatch.setattr(enumeration, "_canonical_key", counted)
    enumeration._level_cache.clear()
    for m in range(29):
        all_graphs(8, m)
    assert calls < 9_000


def test_connected_chain_matches_the_filter():
    """Grown from connected parents (and trees from smaller trees), each
    connected level below the middle is the connected part of the full
    level, in the same order."""
    for n, ms in [*((n, range(n * (n - 1) // 2 + 1)) for n in range(9)), (9, range(12))]:
        enumeration._level_cache.clear()
        for m in ms:
            chain = connected_graphs(n, m)
            assert chain == [g for g in all_graphs(n, m) if is_connected(g)], (n, m)
    assert connected_graphs(0, 0) == []
    assert connected_graphs(1, 0) == [Graph(1, (0,), 0)]
    assert connected_graphs(2, 0) == []
    assert connected_graphs(2, 1) == [complete(2)]


def test_tree_counts_match_a000055(monkeypatch):
    """Grown leaf by leaf, past the generation cap of the public
    functions, the trees of orders 1..12 number A000055's terms, and each
    key has n - 1 edges and is connected.  Growing all of them takes 3,502
    canonicalizations (10,604 for order 12 alone from two-component
    forests)."""
    calls = 0
    canonical_key = enumeration._canonical_key

    def counted(n, rows):
        nonlocal calls
        calls += 1
        return canonical_key(n, rows)

    monkeypatch.setattr(enumeration, "_canonical_key", counted)
    enumeration._level_cache.clear()
    a000055 = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
    for n, count in enumerate(a000055, start=1):
        keys = enumeration._chain(n, n - 1, True)
        assert len(keys) == count, n
        for key in keys:
            g = enumeration._graph_of_key(n, key)
            assert g.m == n - 1 and is_connected(g), (n, key)
    assert calls < 4_000


def test_sparse_cells_read_the_all_chain_only_for_upper_cells(monkeypatch):
    """The sparse extremal cells (nu <= 2) grow from trees and connected
    parents: far fewer canonicalizations than filtering full levels
    (5,840 before the connected chain, 2,721 when written, 2,712 while
    trees grew from two-component forests, 2,183 from smaller trees).  The
    chain of all graphs, keyed (n, m, False), is built only for the
    levels whose flips give an upper cell (2m > C(n,2), only n = 4, 5),
    and upper levels are not cached."""
    calls = 0
    canonical_key = enumeration._canonical_key

    def counted(n, rows):
        nonlocal calls
        calls += 1
        return canonical_key(n, rows)

    monkeypatch.setattr(enumeration, "_canonical_key", counted)
    enumeration._level_cache.clear()
    for n in range(4, 10):
        for nu in range(3):
            connected_graphs(n, n - 1 + nu)
    assert calls < 2_400
    cells = [(n, n - 1 + nu) for n in range(4, 10) for nu in range(3)]
    flipped = {(n, n * (n - 1) // 2 - m) for n, m in cells if 2 * m > n * (n - 1) // 2}
    assert {n for n, _ in flipped} == {4, 5}
    for n, m, connected in enumeration._level_cache:
        if not connected:
            assert any(order == n and m <= lower for order, lower in flipped), (n, m)


def _unfiltered_levels(n):
    """Canonical keys of every level of order n, each level grown from the
    one below by canonicalizing every one-edge extension of every class:
    no edge filter, no orbit pruning and no complements."""
    levels = [{canonical_form(Graph(n, (0,) * n, 0))[1]}]
    for m in range(1, n * (n - 1) // 2 + 1):
        level = set()
        for key in levels[-1]:
            rows = enumeration._rows_from_key(n, key)
            for u in range(n):
                for v in range(u + 1, n):
                    if not rows[u] >> v & 1:
                        grown = list(rows)
                        grown[u] |= 1 << v
                        grown[v] |= 1 << u
                        level.add(canonical_form(Graph(n, tuple(grown), m))[1])
        levels.append(level)
    return levels


@pytest.mark.parametrize("n", range(8))
def test_generation_loses_no_class(n):
    """Every level with n <= 7 equals the unfiltered growth."""
    for m, level in enumerate(_unfiltered_levels(n)):
        assert enumeration._level(n, m) == tuple(sorted(level)), (n, m)


def _twins(rows, a, b):
    return rows[a] & ~(1 << b) == rows[b] & ~(1 << a)


def _reference_children(n, rows, cyclic):
    """Adjacency rows of the children that an edge chain keeps of one
    parent, from the rule itself: one non-edge uv per orbit of twin swaps
    (no twin of u below u, none of v below v but u), and uv ranked first by
    (degree sum, triangle count, sum of the endpoints' neighbour degrees)
    among all child edges, or among the child's non-bridges when
    ``cyclic``."""
    edges = [(x, y) for x, y in combinations(range(n), 2) if rows[x] >> y & 1]
    kept = []
    for u, v in combinations(range(n), 2):
        if rows[u] >> v & 1:
            continue
        if any(_twins(rows, u, w) for w in range(u)) or any(
            _twins(rows, v, w) for w in range(v) if w != u
        ):
            continue
        child = graph_from_edges(n, [*edges, (u, v)])
        deg = degrees(child)
        nbrs = [[w for w in range(n) if child.rows[x] >> w & 1] for x in range(n)]

        def rank(x, y):
            return (
                deg[x] + deg[y],
                len(set(nbrs[x]) & set(nbrs[y])),
                sum(deg[w] for w in nbrs[x] + nbrs[y]),
            )

        def is_bridge(e):
            return not is_connected(graph_from_edges(n, [f for f in edges if f != e] + [(u, v)]))

        counted = [e for e in edges if not (cyclic and is_bridge(e))]
        if all(rank(*e) <= rank(u, v) for e in counted):
            kept.append(child.rows)
    return sorted(kept)


def _reference_trees(n, rows):
    """Adjacency rows of the trees of order n grown from one tree of order
    n - 1: a leaf, vertex n - 1, at each vertex that has no smaller twin."""
    edges = [(x, y) for x, y in combinations(range(n - 1), 2) if rows[x] >> y & 1]
    grown = [
        graph_from_edges(n, [*edges, (u, n - 1)]).rows
        for u in range(n - 1)
        if not any(_twins(rows, u, w) for w in range(u))
    ]
    return sorted(grown)


def test_child_filter_matches_its_definition(monkeypatch):
    """For every parent of every level of the two edge chains with n <= 7,
    and of the n = 8 levels with m <= 9, the children handed to the
    canonical form are those of the reference rule: the chain of all
    graphs grows all (n, m - 1), the connected chain (m >= n) connected
    (n, m - 1).  So are the trees grown from every tree of order <= 8."""
    handed = []
    canonical_key = enumeration._canonical_key

    def recorded(n, rows):
        handed.append(rows)
        return canonical_key(n, rows)

    monkeypatch.setattr(enumeration, "_canonical_key", recorded)
    levels = [(n, m) for n in range(8) for m in range(1, n * (n - 1) // 4 + 1)]
    for n, m in levels + [(8, m) for m in range(1, 10)]:
        for cyclic in (False, True):
            if cyclic and m < n:
                continue
            for key in enumeration._chain(n, m - 1, cyclic):
                rows = enumeration._rows_from_key(n, key)
                handed.clear()
                enumeration._children_of_chunk((n, (key,), cyclic))
                assert sorted(handed) == _reference_children(n, rows, cyclic), (n, m, cyclic, key)
    for n in range(2, 10):
        for key in enumeration._chain(n - 1, n - 2, True):
            rows = enumeration._rows_from_key(n - 1, key)
            handed.clear()
            enumeration._trees_of_chunk((n, (key,)))
            assert sorted(handed) == _reference_trees(n, rows), (n, key)


def _reference_canonical_bits(n, rows):
    """The row-bits tuple (b_1, ..., b_{n-1}) minimal over the orders that
    list the cells of the stable neighbour-degree refinement in color
    order: refinement to a stable partition (no discrete shortcut), then
    the prefix-pruned backtrack, skipping twins of tried candidates."""
    if n <= 1:
        return ()
    colors = [rows[v].bit_count() for v in range(n)]
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[w] for w in range(n) if rows[v] >> w & 1)))
            for v in range(n)
        ]
        palette = {k: i for i, k in enumerate(sorted(set(keys)))}
        refined = [palette[k] for k in keys]
        if len(palette) == len(set(colors)):
            break
        colors = refined
    twins = [
        sum(1 << w for w in range(n) if rows[v] & ~(1 << w) == rows[w] & ~(1 << v))
        for v in range(n)
    ]
    pos_color = sorted(colors)
    best = [None] * (n - 1)
    placed = []

    def extend(p):
        if p == n:
            return
        cands = sorted(
            (sum((rows[v] >> placed[j] & 1) << (p - 1 - j) for j in range(p)), v)
            for v in range(n)
            if colors[v] == pos_color[p] and v not in placed
        )
        tried = 0
        for b, v in cands:
            if p and best[p - 1] is not None and b > best[p - 1]:
                break
            if tried >> v & 1:
                continue
            if p and (best[p - 1] is None or b < best[p - 1]):
                best[p - 1 :] = [b] + [None] * (n - 1 - p)
            placed.append(v)
            extend(p + 1)
            placed.pop()
            tried |= twins[v]

    extend(0)
    return tuple(best)


def _pack(bits):
    key = 0
    for p, b in enumerate(bits, start=1):
        key = key << p | b
    return key


def test_canonical_form_matches_reference():
    """Every class with n <= 7, and seeded relabelings of a sample of the
    n = 8 and n = 9 classes, partitions discrete or not: the packed key is
    the reference tuple's concatenation at or below the middle level, and
    above it the flip of the complement's, and both sort alike."""
    rng = random.Random(20261018)
    cases = [g for n in range(8) for m in range(n * (n - 1) // 2 + 1) for g in all_graphs(n, m)]
    for n, levels in ((8, range(29)), (9, range(13))):
        for m in levels:
            classes = all_graphs(n, m)
            for g in rng.sample(classes, min(len(classes), 40)):
                perm = list(range(n))
                rng.shuffle(perm)
                cases.append(relabel(g, perm))
    discrete = 0
    by_order = {}
    for g in cases:
        key = canonical_form(g)[1]
        slots = g.n * (g.n - 1) // 2
        if 2 * g.m <= slots:
            bits = _reference_canonical_bits(g.n, g.rows)
            assert key == _pack(bits)
        else:
            co_bits = _reference_canonical_bits(g.n, _complement(g).rows)
            assert key == (1 << slots) - 1 ^ _pack(co_bits)
            # the rows of g in the complement's canonical order
            bits = tuple((1 << p) - 1 ^ b for p, b in enumerate(co_bits, start=1))
        by_order.setdefault(g.n, []).append((bits, key))
        discrete += g.n > 1 and max(enumeration._wl_partition(g.n, g.rows)) == g.n - 1
    assert discrete > 300 and len(cases) - discrete > 300, (discrete, len(cases))
    for n, pairs in by_order.items():
        keys = [key for _, key in sorted(pairs)]
        assert keys == sorted(keys), n


def test_graph6_of_a_key_is_the_encoded_graph():
    """A canonical key is the graph6 body of its graph, for every class
    with n <= 8."""
    for n in range(9):
        for m in range(n * (n - 1) // 2 + 1):
            for key in enumeration._level(n, m):
                graph = enumeration._graph_of_key(n, key)
                assert _graph6_from_body(n, key) == encode_graph6(graph)


def _backtrack_nodes(g):
    """Calls of the canonical-form backtrack's ``extend`` closure on g."""
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "extend":
            nodes += 1

    sys.setprofile(profile)
    try:
        canonical_form(g)
    finally:
        sys.setprofile(None)
    return nodes


def test_twin_pruning_bounds_backtrack_nodes():
    """Swapping two twins is an automorphism, so the backtrack tries one
    vertex per twin class at each position.  The star and the complete
    graph are one root-to-leaf path (without pruning: 149,921 and 109,601
    nodes).  K3,3 takes one path per side, because swapping the sides is
    not a twin transposition (211 nodes without pruning)."""
    k33 = graph_from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    assert _backtrack_nodes(star(9)) <= 9 + 1
    assert _backtrack_nodes(complete(8)) <= 8 + 1
    assert _backtrack_nodes(k33) <= 2 * 6 + 1


def _threshold_graph(n, dominating):
    """Vertex v > 0 joins every earlier vertex iff bit v - 1 of ``dominating``
    is set, and none otherwise."""
    return graph_from_edges(
        n, [(u, v) for v in range(1, n) if dominating >> (v - 1) & 1 for u in range(v)]
    )


def test_canonical_forms_of_threshold_graphs():
    """The 2^7 threshold graphs on 8 vertices are pairwise non-isomorphic
    and built from twins alone."""
    rng = random.Random(8)
    forms = set()
    for dominating in range(1 << 7):
        g = _threshold_graph(8, dominating)
        form = canonical_form(g)
        perm = list(range(8))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == form
        forms.add(form)
    assert len(forms) == 128


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _complete_multipartite(parts):
    side = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(side)
    return graph_from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
    )


@pytest.mark.parametrize("n", [9, 10])
def test_canonical_forms_of_complete_multipartite_graphs(n):
    """One graph per partition of n, each part a class of false twins."""
    rng = random.Random(n)
    graphs = [_complete_multipartite(parts) for parts in _partitions(n)]
    shuffled = []
    for g in graphs:
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled.append(relabel(g, perm))
    for g in graphs:
        for h in shuffled:
            ours = canonical_form(g) == canonical_form(h)
            assert ours == nx.is_isomorphic(to_nx(g), to_nx(h))


# OEIS A008406, row 9: graphs on 9 unlabeled vertices by edge count
A008406_ROW_9 = [1, 1, 2, 5, 11, 25, 63, 148, 345, 771, 1637, 3252, 5995, 10120, 15615]
A008406_ROW_9 += [21933, 27987, 32403, 34040]
A008406_ROW_9 += A008406_ROW_9[-2::-1]


def test_class_counts_n9_match_oeis():
    """The sparse levels, and the dense ones flipped from them."""
    levels = [*range(13), *range(24, 37)]
    assert [len(all_graphs(9, m)) for m in levels] == [A008406_ROW_9[m] for m in levels]


# OEIS A008406, row 8: graphs on 8 unlabeled vertices by edge count
A008406_ROW_8 = [1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980, 1312, 1557, 1646]
A008406_ROW_8 += A008406_ROW_8[-2::-1]


def test_class_counts_n8_match_oeis():
    assert [len(all_graphs(8, m)) for m in range(29)] == A008406_ROW_8


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_canonical_invariance_at_search_scale(data):
    n = data.draw(st.integers(8, 9))
    m_cap = 10 if n == 9 else 13
    m = data.draw(st.integers(0, m_cap))
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.permutations(slots))[:m]
    g = graph_from_edges(n, chosen)
    perm = data.draw(st.permutations(range(n)))
    assert canonical_form(g) == canonical_form(relabel(g, list(perm)))


def test_deterministic_order_and_workers():
    base = [canonical_form(g) for g in all_graphs(6, 7)]
    assert base == sorted(base)
    # a fresh worker pool must reproduce the exact same level
    enumeration._level_cache.clear()
    with_workers = [canonical_form(g) for g in all_graphs(6, 7, workers=2)]
    assert with_workers == base


def test_upper_levels_are_flipped_lower_levels(monkeypatch):
    """Every upper level (2m > C(n,2)) with n <= 8 is the reversed flip of
    level C(n,2) - m, built with no canonical form and no pool, even with
    two workers."""
    lower = {}
    for n in range(9):
        slots = n * (n - 1) // 2
        for m in range(slots // 2 + 1, slots + 1):
            lower[n, m] = enumeration._level(n, slots - m)
    calls = 0
    canonical_key = enumeration._canonical_key

    def counted(n, rows):
        nonlocal calls
        calls += 1
        return canonical_key(n, rows)

    def no_pool(workers):
        raise AssertionError("a pool was asked for")

    monkeypatch.setattr(enumeration, "_canonical_key", counted)
    monkeypatch.setattr(enumeration, "_pool", no_pool)
    for (n, m), keys in lower.items():
        full = (1 << n * (n - 1) // 2) - 1
        assert enumeration._level(n, m, workers=2) == tuple(full ^ k for k in reversed(keys))
    assert calls == 0


def test_canonical_form_of_an_upper_graph_flips_its_complement():
    """On every upper class with n <= 8, and on a seeded relabeling of
    each, the key is the flip of the complement's key."""
    rng = random.Random(20261019)
    for n in range(9):
        slots = n * (n - 1) // 2
        for m in range(slots // 2 + 1, slots + 1):
            for g in all_graphs(n, m):
                perm = list(range(n))
                rng.shuffle(perm)
                for h in (g, relabel(g, perm)):
                    co = _complement(h)
                    assert 2 * co.m <= slots
                    assert canonical_form(h)[1] == (1 << slots) - 1 ^ canonical_form(co)[1]


def test_connected_chain_through_the_pool_matches_serial(monkeypatch):
    """Trees (from smaller trees: the 11 of order 7, above the pool
    threshold of 8 parents for two workers), unicyclic and bicyclic levels
    of n = 8 are grown in the worker pool, with the serial result."""
    serial = connected_graphs(8, 9)
    pooled_with = []
    pool = enumeration._pool

    def spy(size):
        pooled_with.append(size)
        return pool(size)

    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(enumeration, "_pool", spy)
    kept = {m: enumeration._level_cache.pop((8, m, True)) for m in (7, 8, 9)}
    try:
        assert connected_graphs(8, 9, workers=2) == serial
    finally:
        enumeration._level_cache.update({(8, m, True): keys for m, keys in kept.items()})
    assert pooled_with == [2, 2, 2]


def test_pool_size_is_capped_at_the_cpu_count(monkeypatch):
    """A forked pool starts all of its workers at the first task, so a
    pool for 1,000 workers holds one per CPU, and a level is cut into four
    chunks per worker of that pool.  Every request of the same capped size
    shares one pool, and any request of more than one worker pools, even
    on one CPU.  A fake executor records its size and chunks and runs them
    in this process: no worker starts."""
    sizes, chunk_lengths = [], []

    class FakeExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, chunks):
            chunk_lengths.append([len(chunk[1]) for chunk in chunks])
            return map(fn, chunks)

        def shutdown(self, cancel_futures):
            pass

    def map_chunks(keys, workers):
        parts = enumeration._map_chunks(lambda args: len(args[1]), 9, tuple(range(keys)), workers)
        assert sum(parts) == keys
        return parts

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(enumeration, "_pools", {})
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    map_chunks(4_001, 1_000)
    map_chunks(4_001, 3)
    assert sizes == [3] and list(enumeration._pools) == [3]
    assert chunk_lengths == [[334] * 11 + [327]] * 2
    assert map_chunks(12, 1_000) == [12]  # four keys per pool worker: one call here
    map_chunks(13, 1_000)
    assert chunk_lengths[-1] == [2] * 6 + [1]
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: None)
    map_chunks(5, 2)
    assert sizes == [3, 1] and chunk_lengths[-1] == [2, 2, 1]
    assert map_chunks(5, 1) == [5] and len(sizes) == 2


def test_a_pool_of_another_size_replaces_the_last(monkeypatch):
    """The process holds one pool at a time: a request of another size
    shuts the last pool down and joins its workers before it forks, so no
    fork runs beside another pool's threads (Python 3.12 and later warn of
    such a fork as "multi-threaded").  Trees, unicyclic and bicyclic
    levels of n = 8 are grown in a real pool of two workers, then again in
    one of three."""
    serial = connected_graphs(8, 9)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 4)
    levels = [(8, m, True) for m in (7, 8, 9)]
    kept = {key: enumeration._level_cache.pop(key) for key in levels}
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert connected_graphs(8, 9, workers=2) == serial
            pool = enumeration._pools[2]
            for key in levels:
                del enumeration._level_cache[key]
            assert connected_graphs(8, 9, workers=3) == serial
    finally:
        enumeration._level_cache.update(kept)
    assert not [w for w in caught if "multi-threaded" in str(w.message)]
    assert list(enumeration._pools) == [3]
    with pytest.raises(RuntimeError):
        pool.submit(int)


def _exit_on_key_7(args):
    """A chunk function whose worker dies on the chunk that holds key 7."""
    _, chunk = args
    if 7 in chunk:
        os._exit(1)
    return chunk


def test_a_broken_pool_is_joined_before_the_next_one_forks(monkeypatch):
    """When a worker dies, the broken pool is shut down and its threads
    joined before ``BrokenProcessPool`` reaches the caller, so the next
    call forks a fresh pool beside no other pool's threads.  The executor
    records each pool whose shutdown has returned."""
    joined = []

    class Executor(enumeration.ProcessPoolExecutor):
        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            joined.append(self)

    enumeration.shutdown_pools()
    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", Executor)
    monkeypatch.setattr(enumeration, "_pools", {})
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    threads = threading.active_count()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(BrokenProcessPool):
                enumeration._map_chunks(_exit_on_key_7, 9, tuple(range(20)), 2)
            assert enumeration._pools == {} and len(joined) == 1
            assert threading.active_count() == threads
            chunks = enumeration._map_chunks(_exit_on_key_7, 9, tuple(range(8, 28)), 2)
            assert [k for chunk in chunks for k in chunk] == list(range(8, 28))
            assert list(enumeration._pools) == [2]
        assert not [w for w in caught if "multi-threaded" in str(w.message)]
    finally:
        enumeration.shutdown_pools()


def test_extremal_search_5_2():
    report = extremal_search(5, 2, "so")
    assert report.unique and report.universe_size == 5
    assert canonical_form(report.maximizers[0]) == canonical_form(h_graph(5, 2))
    assert report.max_value == pytest.approx(max_sombor_value(5, 2), rel=1e-12)
    assert report.runner_up_gap > 1e-6
    assert max(degrees(report.maximizers[0])) == 4


@pytest.mark.parametrize("n", range(4, 8))
def test_star_maximizes_among_trees(n):
    report = extremal_search(n, 0, "so")
    assert report.unique
    assert canonical_form(report.maximizers[0]) == canonical_form(star(n))


def test_extremal_search_reduced_7_5():
    report = extremal_search(7, 5, "sored")
    assert report.unique
    assert canonical_form(report.maximizers[0]) == canonical_form(h_graph(7, 5))


def _register_term(monkeypatch, name, term):
    """Enter the symmetric edge term ``term`` as the index ``name`` for
    one test."""
    monkeypatch.setitem(enumeration.INDEX_FUNCTIONS, name, lambda s: term_sum(s, term))


def test_extremal_search_constant_term_ties(monkeypatch):
    # with the constant edge term every connected class scores m, so the
    # search must refuse to call any single graph the winner
    _register_term(monkeypatch, "one", lambda a, b: 1.0)
    report = extremal_search(5, 1, "one")
    assert not report.unique
    assert report.universe_size == len(report.maximizers) == 5
    assert report.runner_up_gap == math.inf


@pytest.mark.parametrize("bump, unique", [(3e-7, True), (3e-10, False)], ids=["unique", "tie"])
def test_extremal_search_decides_hairline_gaps_by_the_tie_rule(bump, unique, monkeypatch):
    """The (4, 0) universe is {P4, S4}, worth 3 and 3 + 3 * bump under a
    term that adds ``bump`` on the edges joining degrees 1 and 3.  A gap
    of 9e-7 is wider than the tie tolerance (1e-9 relative, 3e-9 here), so
    S4 is the unique maximizer; a gap of 9e-10 is a tie, so the cell has
    no unique maximizer and does not confirm h_graph."""

    def term(a, b):
        return 1.0 + (bump if {a, b} == {1, 3} else 0.0)

    _register_term(monkeypatch, "hairline", term)
    report = extremal_search(4, 0, "hairline")
    assert report.unique is report.confirms_h is unique
    if unique:
        assert report.runner_up_gap == pytest.approx(9e-7, rel=1e-6)
        assert canonical_form(report.maximizers[0]) == canonical_form(star(4))
    else:
        assert report.runner_up_gap == math.inf and len(report.maximizers) == 2


def test_extremal_search_decides_the_cell(monkeypatch):
    """``confirms_h`` needs a unique maximizer, and ``is_h_graph`` must
    accept it."""
    assert extremal_search(6, 2, "so").confirms_h
    assert extremal_search(6, 2, "sored").confirms_h
    _register_term(monkeypatch, "hypot", math.hypot)
    assert extremal_search(6, 2, "hypot").confirms_h

    # -SO is maximized by the path alone among trees: unique, but not h_graph
    _register_term(monkeypatch, "minus_so", lambda a, b: -math.hypot(a, b))
    report = extremal_search(5, 0, "minus_so")
    assert report.unique and not report.confirms_h
    assert canonical_form(report.maximizers[0]) == canonical_form(path(5))

    # a constant term ties every class: no unique maximizer
    _register_term(monkeypatch, "one", lambda a, b: 1.0)
    assert not extremal_search(5, 1, "one").confirms_h


def test_extremal_search_profiles_each_class_once(monkeypatch):
    """The search evaluates the index and decides the maximizer from one
    profile per class: ``edge_stats`` runs once on each graph of the cell,
    wherever the package looks it up."""
    profiled = count_calls(monkeypatch, "edge_stats")
    report = extremal_search(7, 2, "so")
    assert report.confirms_h
    assert len(profiled) == report.universe_size
    assert [args[0] for args in profiled] == connected_graphs(7, 8)


def test_scope_caps():
    with pytest.raises(ValueError):
        all_graphs(10, 3)
    with pytest.raises(ValueError):
        all_graphs(10, 36)
    with pytest.raises(ValueError):
        connected_graphs(4, 9)
    with pytest.raises(ValueError):
        extremal_search(10, 3)
    with pytest.raises(ValueError):
        extremal_search(5, 4)
    with pytest.raises(ValueError):
        extremal_search(5, 2, "zagreb")
    # n = 9 is within scope
    assert extremal_search(9, 0, "so").unique


def test_canonical_forms_are_ordered_types():
    forms = sorted(canonical_form(g) for g in all_graphs(4, 3))
    assert type(forms[0]) is tuple and forms[0] == (4, forms[0][1])
    assert forms[0] < forms[-1]
