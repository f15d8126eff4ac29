"""Named graph families, h_graph's Sombor terms, and membership tests.

The central family is ``h_graph(n, nu)``: a star on n vertices plus nu
extra edges from one fixed leaf to nu other leaves.  Among all connected
graphs with n vertices and cyclomatic number nu (0 <= nu <= n-2) it
maximizes both the Sombor and the reduced Sombor index.  The extremal
search confirms a cell by ``is_h_graph`` alone, which reads no index
value.  ``hub_edge_sum``, the Sombor terms of h_graph's hub edges, is the
right side of ``bounds``' degree-sum row, and ``max_sombor_value`` adds to
it the terms of the fixed leaf's nu extra edges.

The two membership tests, ``is_star_plus_isolated`` and ``is_h_graph``,
are the ones the bound rows and the extremal search call.  Each takes a
profile, the ``EdgeStats`` of ``graphs.edge_stats``, and decides from it
alone, with no edge walk or search.  The other bound rows' equality
classes are rules on the endpoint-degree pairs and live in ``bounds``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable

from .graphs import EdgeStats, Graph, graph_from_edges


def empty_graph(n: int) -> Graph:
    return graph_from_edges(n, [])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """Star on n vertices: hub 0 joined to 1..n-1."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    return graph_from_edges(n, [(0, i) for i in range(1, n)])


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("complete needs n >= 0")
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_plus_isolated(m: int, n: int) -> Graph:
    """Star with m edges (hub 0, leaves 1..m) plus n-m-1 isolated vertices."""
    if not 0 <= m <= n - 1:
        raise ValueError(f"star_plus_isolated needs 0 <= m <= n-1, got m={m}, n={n}")
    return graph_from_edges(n, [(0, i) for i in range(1, m + 1)])


def h_graph(n: int, nu: int) -> Graph:
    """Star on n vertices plus nu edges from one fixed leaf to nu other leaves.

    Labels: 0 = hub, 1 = the fixed leaf, 2..nu+1 = the leaves joined to it,
    the rest stay leaves.  The result is connected with n-1+nu edges,
    cyclomatic number nu, and degree sequence
    (n-1, nu+1, 2 repeated nu times, 1 repeated n-nu-2 times).
    """
    if n < 2:
        raise ValueError(f"h_graph needs n >= 2, got n={n}")
    if not 0 <= nu <= n - 2:
        raise ValueError(f"h_graph needs 0 <= nu <= n-2, got nu={nu}, n={n}")
    edges = [(0, i) for i in range(1, n)]
    edges += [(1, i) for i in range(2, nu + 2)]
    return graph_from_edges(n, edges)


def hub_edge_sum(n: int, nu: int) -> float:
    """The sum of sqrt((n-1)^2 + d^2) over the degrees d of h_graph(n, nu)
    other than the hub's: the Sombor terms of the hub's n-1 edges.  It is
    the right side of ``bounds``' degree-sum row, which evaluates it off
    its hypothesis too, so the arguments are not checked."""
    a = n - 1
    return (
        (n - nu - 2) * math.sqrt(a * a + 1)
        + nu * math.sqrt(a * a + 4)
        + math.sqrt(a * a + (nu + 1) ** 2)
    )


def max_sombor_value(n: int, nu: int) -> float:
    """Closed form for sombor(h_graph(n, nu)): the maximum Sombor index
    over connected graphs with n vertices and cyclomatic number nu.  No
    command calls it; ``perfbench/oracles.py`` imports it as the extremal
    oracle's closed form, which is why it stays in the package."""
    if n < 2 or not 0 <= nu <= n - 2:
        raise ValueError(f"need n >= 2 and 0 <= nu <= n-2, got n={n}, nu={nu}")
    return hub_edge_sum(n, nu) + nu * math.sqrt((nu + 1) ** 2 + 4)


# each kind's builder and its parameter names, in the order the builder
# (and the ``construct`` command) takes them
FAMILIES: dict[str, tuple[Callable[..., Graph], tuple[str, ...]]] = {
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "star": (star, ("n",)),
    "complete": (complete, ("n",)),
    "empty": (empty_graph, ("n",)),
    "h_graph": (h_graph, ("n", "nu")),
    "star_plus_isolated": (star_plus_isolated, ("m", "n")),
}


# -- membership tests, decided from the degree profile ----------------------


def is_star_plus_isolated(s: EdgeStats) -> bool:
    """True iff the graph is a star with m edges plus isolated vertices:
    every edge joins degrees 1 and m.  Two vertices of degree m >= 2 would
    need 2m edges, so at most one is the hub.  Edgeless graphs qualify (the
    star part degenerates to one vertex)."""
    star_pair = (1, s.m)
    return all(pair == star_pair for pair in s.endpoint_degree_counts)


def h_degree_sequence(n: int, nu: int) -> tuple[int, ...]:
    """Degree sequence of h_graph(n, nu): (n-1, nu+1, 2^nu, 1^(n-nu-2))."""
    if not 0 <= nu <= n - 2:
        raise ValueError(f"need 0 <= nu <= n-2, got nu={nu}, n={n}")
    return (n - 1, nu + 1) + (2,) * nu + (1,) * (n - nu - 2)


def is_h_graph(s: EdgeStats) -> bool:
    """True iff the graph is h_graph(n, nu) for nu = m - (n-1): iff its
    degree counts are those of ``h_degree_sequence(n, nu)``.

    That sequence has exactly one realization.  A vertex of degree n-1 is
    adjacent to every other vertex; deleting it leaves the degrees
    (nu, 1^nu, 0^(n-nu-2)).  For nu >= 2 the vertex of degree nu can only
    be adjacent to the nu vertices of degree 1, which it then saturates;
    for nu <= 1 the rest is one edge or none.  Either way the rest is a
    star with nu edges plus isolated vertices, so the graph is
    h_graph(n, nu), which is also connected.
    """
    nu = s.m - s.n + 1
    if not 0 <= nu <= s.n - 2:
        return False
    return s.degree_counts == Counter(h_degree_sequence(s.n, nu))
