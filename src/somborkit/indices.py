"""Degree-based graph indices: Sombor family and first Zagreb.

Every index here is a function of the degree profile alone, so each one
reads the ``EdgeStats`` of ``graphs.edge_stats`` -- built in one pass over
the edges -- and never walks the edges itself.  Each function takes a
graph or its profile; a caller that needs several indices builds the
profile once and passes it to each.

The three Sombor indices are one shifted hypot summed over the histogram
of endpoint-degree pairs {i, j}:

    sombor          sqrt(i^2 + j^2)
    reduced_sombor  sqrt((i-1)^2 + (j-1)^2)
    sombor_shifted  sqrt((i+1)^2 + (j+1)^2)

``edge_sum`` is the same engine for any symmetric degree term, and the
hook for searching over arbitrary terms.  Sums are taken with
``math.fsum``, which rounds the exact sum once; the result depends only on
the histogram, so isomorphic graphs get bit-identical values whatever
their vertex labels.  ``first_zagreb`` is the exact integer sum of
squared degrees (equal to the sum of endpoint-degree sums over edges).
"""

from __future__ import annotations

import math
from typing import Callable

from .graphs import EdgeStats, Graph, edge_stats


def _profile(g: Graph | EdgeStats) -> EdgeStats:
    if g.n < 1:
        raise ValueError("index undefined on the order-0 graph")
    return g if isinstance(g, EdgeStats) else edge_stats(g)


def edge_sum(g: Graph | EdgeStats, term: Callable[[int, int], float]) -> float:
    """Sum term(deg u, deg v) over the edges of g.

    ``term`` must be symmetric in its two arguments; it is evaluated once
    per distinct endpoint-degree pair.
    """
    pairs = _profile(g).endpoint_degree_counts.items()
    return math.fsum(c * term(i, j) for (i, j), c in pairs)


def _shifted_hypot_sum(g: Graph | EdgeStats, shift: int) -> float:
    pairs = _profile(g).endpoint_degree_counts.items()
    return math.fsum(c * math.hypot(i + shift, j + shift) for (i, j), c in pairs)


def sombor(g: Graph | EdgeStats) -> float:
    return _shifted_hypot_sum(g, 0)


def reduced_sombor(g: Graph | EdgeStats) -> float:
    return _shifted_hypot_sum(g, -1)


def sombor_shifted(g: Graph | EdgeStats) -> float:
    return _shifted_hypot_sum(g, 1)


def first_zagreb(g: Graph | EdgeStats) -> int:
    """Sum of squared vertex degrees, computed exactly in integers."""
    return sum(d * d for d in _profile(g).degrees)
