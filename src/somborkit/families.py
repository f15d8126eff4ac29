"""Named graph families, their closed-form index values, and membership tests.

The central family is ``h_graph(n, nu)``: a star on n vertices plus nu
extra edges from one fixed leaf to nu other leaves.  Among all connected
graphs with n vertices and cyclomatic number nu (0 <= nu <= n-2) it
maximizes both the Sombor and the reduced Sombor index, and
``max_sombor_value`` / ``max_reduced_sombor_value`` give those maxima in
closed form.
"""

from __future__ import annotations

import math
from typing import Callable

from .graphs import Graph, delete_vertex, graph_from_edges, is_connected


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


def max_sombor_value(n: int, nu: int) -> float:
    """Closed form for sombor(h_graph(n, nu)): the maximum Sombor index
    over connected graphs with n vertices and cyclomatic number nu."""
    if n < 2 or not 0 <= nu <= n - 2:
        raise ValueError(f"need n >= 2 and 0 <= nu <= n-2, got n={n}, nu={nu}")
    a = n - 1
    return (
        (n - nu - 2) * math.sqrt(a * a + 1)
        + nu * math.sqrt(a * a + 4)
        + math.sqrt(a * a + (nu + 1) ** 2)
        + nu * math.sqrt((nu + 1) ** 2 + 4)
    )


def max_reduced_sombor_value(n: int, nu: int) -> float:
    """Closed form for reduced_sombor(h_graph(n, nu)); maximum as above."""
    if n < 2 or not 0 <= nu <= n - 2:
        raise ValueError(f"need n >= 2 and 0 <= nu <= n-2, got n={n}, nu={nu}")
    b = n - 2
    return (
        (n - nu - 2) * b
        + nu * math.sqrt(b * b + 1)
        + nu * math.sqrt(nu * nu + 1)
        + math.sqrt(b * b + nu * nu)
    )


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


# -- structural membership tests (no isomorphism search needed) -------------


def is_path_graph(g: Graph) -> bool:
    return (
        g.n >= 1
        and g.m == g.n - 1
        and is_connected(g)
        and all(d <= 2 for d in g.degrees())
    )


def is_cycle_graph(g: Graph) -> bool:
    return g.n >= 3 and g.m == g.n and is_connected(g) and all(d == 2 for d in g.degrees())


def is_star_plus_isolated(g: Graph) -> bool:
    """True iff g is a star with m edges plus isolated vertices.

    Edgeless graphs qualify (the star part degenerates to one vertex).
    """
    if g.m == 0:
        return True
    deg = g.degrees()
    for hub in range(g.n):
        if deg[hub] == g.m:
            others = g.rows[hub]
            return all(
                deg[v] == (1 if others >> v & 1 else 0)
                for v in range(g.n)
                if v != hub
            )
    return False


def is_h_graph(g: Graph) -> bool:
    """True iff g is h_graph(n, nu) for nu = m - (n-1).

    Characterization: some vertex of full degree n-1 whose deletion leaves
    a star with nu edges plus isolated vertices.
    """
    if g.n < 2 or not is_connected(g):
        return False
    nu = g.m - (g.n - 1)
    if not 0 <= nu <= g.n - 2:
        return False
    deg = g.degrees()
    if max(deg) != g.n - 1:
        return False
    return any(
        deg[v] == g.n - 1 and is_star_plus_isolated(delete_vertex(g, v))
        for v in range(g.n)
    )


def is_regular(g: Graph) -> bool:
    if g.n == 0:
        return False
    deg = g.degrees()
    return all(d == deg[0] for d in deg)


def all_edges_join_equal_degrees(g: Graph) -> bool:
    """True iff every edge joins two vertices of the same degree
    (equivalently: every component is regular)."""
    deg = g.degrees()
    return all(deg[u] == deg[v] for u, v in g.edges())


def every_edge_has_leaf_endpoint(g: Graph) -> bool:
    """True iff every edge has an endpoint of degree 1."""
    deg = g.degrees()
    return all(deg[u] == 1 or deg[v] == 1 for u, v in g.edges())
