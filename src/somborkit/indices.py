"""Degree-based graph indices: Sombor family and first Zagreb.

Every index here is a function of the degree profile alone, so each one
takes the ``EdgeStats`` of ``graphs.edge_stats`` -- built in one pass over
the edges -- and never walks the edges itself.  A caller that needs
several indices builds the profile once and passes it to each.

``edge_sum`` is the one engine: it sums a symmetric edge term over the
histogram of endpoint-degree pairs {i, j}.  The three Sombor indices are
``edge_sum`` with their own term:

    sombor          sqrt(i^2 + j^2)
    reduced_sombor  sqrt((i-1)^2 + (j-1)^2)
    sombor_shifted  sqrt((i+1)^2 + (j+1)^2)

The shifted terms stay private: every public function here takes a
profile, which ``perfbench/spans.py`` relies on when it wraps them.
Sums are taken with ``math.fsum``, which rounds the exact sum once; the
result depends only on the histogram, so isomorphic graphs get
bit-identical values whatever their vertex labels.  ``first_zagreb`` is
the exact integer sum of squared degrees (equal to the sum of
endpoint-degree sums over edges).

``INDEX_FUNCTIONS`` names the two indices the extremal search and
``verify-extremal --index`` take: ``so`` and ``sored``.

``_is_tie`` is the one rule by which a float comparison of index values
counts as a tie: the extremal search uses it for maximizer ties, and
``bounds.Bound.check`` for equality of a bound's sides.  Its docstring
proves it sound for the Sombor indices.
"""

from __future__ import annotations

import math
from typing import Callable

from .graphs import EdgeStats

_TIE_TOL = 1e-9


def _is_tie(a: float, b: float) -> bool:
    """Whether a and b differ by at most ``_TIE_TOL`` relative to b (absolute
    when |b| < 1).

    For the Sombor indices this rule is sound, so the extremal search needs
    no second one.  Every term of their sums is c * hypot(x, y), with
    integers x, y and an edge count c >= 1.  Since Python 3.10, the oldest
    that ``pyproject.toml`` admits, ``math.hypot`` errs by under 1 ulp, a
    relative 2^-52.  The product rounds once, by at most 2^-53, and
    ``math.fsum`` rounds the exact sum of the non-negative terms once, by
    at most 2^-53.  So a computed value v of exact value v* has
    |v - v*| <= e * v*, with e = (1 + 2^-52)(1 + 2^-53)^2 - 1 < 4.5e-16,
    which ``_TIE_TOL`` exceeds more than 10^6 times.  Let M be the greatest
    computed value in a cell and X* the exact maximum; M and the computed
    value of every exact maximizer lie within e * X* of X*.

    - No true tie is missed: every exact maximizer ties M, as the two
      differ by at most 2e * X* < 1e-9 * M.
    - ``unique`` is never claimed falsely.  A value v that does not tie M
      has M - v > 1e-9 * M > e * (M + v), so v* < M*, the exact value of
      the graph computed as M.  When only that graph ties M, it is the
      one exact maximizer.
    - The only possible error is to call a difference under 1e-9 relative
      a tie.  The cell then has no unique maximizer, does not confirm
      h_graph, and fails visibly (exit 1).

    The error bound covers nothing else: a term that a test registers
    under a name, and the sides of a bound, are judged by the rule
    without it.
    """
    return abs(a - b) <= _TIE_TOL * max(1.0, abs(b))


def _defined(s: EdgeStats) -> EdgeStats:
    if s.n < 1:
        raise ValueError("index undefined on the order-0 graph")
    return s


def edge_sum(s: EdgeStats, term: Callable[[int, int], float]) -> float:
    """Sum term(deg u, deg v) over the edges of the profiled graph.

    ``term`` must be symmetric in its two arguments; it is evaluated once
    per distinct endpoint-degree pair.
    """
    pairs = _defined(s).endpoint_degree_counts.items()
    return math.fsum(c * term(i, j) for (i, j), c in pairs)


def _reduced_term(i: int, j: int) -> float:
    return math.hypot(i - 1, j - 1)


def _shifted_term(i: int, j: int) -> float:
    return math.hypot(i + 1, j + 1)


def sombor(s: EdgeStats) -> float:
    return edge_sum(s, math.hypot)


def reduced_sombor(s: EdgeStats) -> float:
    return edge_sum(s, _reduced_term)


def sombor_shifted(s: EdgeStats) -> float:
    return edge_sum(s, _shifted_term)


INDEX_FUNCTIONS: dict[str, Callable[[EdgeStats], float]] = {
    "so": sombor,
    "sored": reduced_sombor,
}


def first_zagreb(s: EdgeStats) -> int:
    """Sum of squared vertex degrees, computed exactly in integers."""
    return sum(d * d for d in _defined(s).degrees)
