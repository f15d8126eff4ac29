"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the package's canonical-form and
generation code paths: automorphism counts come from a plain
degree-constrained backtrack over vertex bijections, labeled graph
counts from binomials and the component-of-vertex-1 recurrence, and
isomorphism ground truth from networkx.  The graph helpers that only
tests need (degrees, degree sequence, maximum degree, cyclomatic number,
vertex deletion, and the path, cycle and regularity tests) live here too,
not in the package, with a counter of the calls of a ``graphs`` function
and ``module_env``, the environment under which a subprocess runs this
source tree.
So does ``max_reduced_sombor_value``, the closed form of SO_red(h_graph),
against which the tests check the computed maximum, and ``term_sum``,
which sums any edge term over a profile for the tests that rank graphs
by an index of their own.
"""

from __future__ import annotations

import math
import os
import sys
from functools import lru_cache
from itertools import combinations
from math import comb
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import strategies as st

import somborkit
from somborkit import graphs
from somborkit.graphs import EdgeStats, Graph, edge_stats, graph_from_edges


def degrees(g: Graph) -> list[int]:
    """The degree of each vertex, in vertex order."""
    return [r.bit_count() for r in g.rows]


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """Vertex degrees sorted non-increasingly; sums to 2m."""
    return tuple(sorted(degrees(g), reverse=True))


def max_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("max_degree undefined on the empty graph")
    return max(degrees(g))


def cyclomatic_number(g: Graph) -> int:
    """Number of independent cycles: m - n + (number of components)."""
    return edge_stats(g).nu


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove vertex v; labels above v shift down by one."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    low = (1 << v) - 1
    rows = tuple(
        (g.rows[u] & low) | ((g.rows[u] >> (v + 1)) << v)
        for u in range(g.n)
        if u != v
    )
    return Graph(g.n - 1, rows, g.m - g.rows[v].bit_count())


def is_path_graph(s: EdgeStats) -> bool:
    return s.components == 1 and s.m == s.n - 1 and all(d <= 2 for d in s.degrees)


def is_cycle_graph(s: EdgeStats) -> bool:
    """Connected and 2-regular, which forces n >= 3 and m == n."""
    return s.components == 1 and all(d == 2 for d in s.degrees)


def is_regular(s: EdgeStats) -> bool:
    return len(set(s.degrees)) == 1


def max_reduced_sombor_value(n: int, nu: int) -> float:
    """Closed form for reduced_sombor(h_graph(n, nu)): the maximum reduced
    Sombor index over connected graphs with n vertices and cyclomatic
    number nu."""
    if n < 2 or not 0 <= nu <= n - 2:
        raise ValueError(f"need n >= 2 and 0 <= nu <= n-2, got n={n}, nu={nu}")
    b = n - 2
    return (
        (n - nu - 2) * b
        + nu * math.sqrt(b * b + 1)
        + nu * math.sqrt(nu * nu + 1)
        + math.sqrt(b * b + nu * nu)
    )


def term_sum(s: EdgeStats, term) -> float:
    """The fsum of c * term(i, j) over the endpoint-degree pair histogram
    of ``s``: the index whose edge term is the symmetric ``term``."""
    return math.fsum(c * term(i, j) for (i, j), c in s.endpoint_degree_counts.items())


def module_env() -> dict:
    """The environment under which ``python -m somborkit`` imports this
    source tree."""
    src = str(Path(somborkit.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def count_calls(monkeypatch, name: str) -> list:
    """Record the arguments of every call of the graphs function ``name``,
    wherever a loaded package module looks it up."""
    calls = []
    original = getattr(graphs, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "somborkit" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def edge_slots(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def graph_from_mask(n: int, mask: int) -> Graph:
    slots = edge_slots(n)
    return graph_from_edges(n, [slots[i] for i in range(len(slots)) if mask >> i & 1])


@st.composite
def graphs_strategy(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_mask(n, mask)


def relabel(g: Graph, perm) -> Graph:
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def to_nx(g: Graph) -> nx.Graph:
    gn = nx.Graph()
    gn.add_nodes_from(range(g.n))
    gn.add_edges_from(g.edges())
    return gn


def aut_count(g: Graph) -> int:
    """Automorphism count by degree-constrained backtracking (independent
    of the package's canonical labeling)."""
    n, rows = g.n, g.rows
    deg = degrees(g)
    candidates = [[w for w in range(n) if deg[w] == deg[v]] for v in range(n)]
    assigned = [0] * n
    used = [False] * n
    count = 0

    def rec(v: int) -> None:
        nonlocal count
        if v == n:
            count += 1
            return
        for w in candidates[v]:
            if used[w]:
                continue
            if all((rows[v] >> u & 1) == (rows[w] >> assigned[u] & 1) for u in range(v)):
                used[w] = True
                assigned[v] = w
                rec(v + 1)
                used[w] = False

    rec(0)
    return count


@lru_cache(maxsize=None)
def labeled_graph_count(n: int, m: int) -> int:
    return comb(comb(n, 2), m)


@lru_cache(maxsize=None)
def labeled_connected_count(n: int, m: int) -> int:
    """Labeled connected (n, m)-graphs via the component-of-vertex-1
    recurrence on labeled totals."""
    if n == 0:
        return 0
    if n == 1:
        return 1 if m == 0 else 0
    total = labeled_graph_count(n, m)
    for k in range(1, n):
        for j in range(m + 1):
            ck = labeled_connected_count(k, j)
            if ck:
                total -= comb(n - 1, k - 1) * ck * labeled_graph_count(n - k, m - j)
    return total


@pytest.fixture(scope="session")
def connected_universe():
    """All connected isomorphism classes keyed by n, for n <= 7."""
    from somborkit.enumeration import connected_graphs

    def build(n: int) -> list[Graph]:
        out = []
        for m in range(0, n * (n - 1) // 2 + 1):
            out.extend(connected_graphs(n, m))
        return out

    return {n: build(n) for n in range(1, 8)}


@pytest.fixture(scope="session")
def full_universe():
    """All isomorphism classes (disconnected included) keyed by n, n <= 7."""
    from somborkit.enumeration import all_graphs

    def build(n: int) -> list[Graph]:
        out = []
        for m in range(0, n * (n - 1) // 2 + 1):
            out.extend(all_graphs(n, m))
        return out

    return {n: build(n) for n in range(1, 8)}
