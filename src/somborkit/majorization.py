"""Majorization order on fixed-sum sequences and the Karamata comparison.

For non-increasing sequences c, d of equal length and equal sum, c is
majorized by d when every prefix sum of c is at most the matching prefix
sum of d.  Majorization is a partial order: ``compare`` returns a four-way
relation with incomparability as a first-class outcome.  For comparable
non-equal pairs the majorization is automatically strict (equal prefix
sums at every index would force equal sequences), which is what the
strict Karamata conclusion needs.

Prefix sums are compared exactly (only the total-sum precondition gets a
1e-12 tolerance).  Integer sequences are always safe; real-valued input
should be exactly representable (e.g. dyadic rationals), otherwise
rounding noise in tied prefixes can read as incomparability.

The claim that the degree sequence of ``h_graph(n, nu)``
(``families.h_degree_sequence``) majorizes the degree sequence of every
connected graph with n vertices and cyclomatic number nu is refuted: K4
plus a pendant vertex (graph6 ``DJ{``, degrees (4,3,3,3,1)) is
incomparable with (4,4,2,2,2).  The strict-xfail acceptance criterion 8
and the README record this.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

SUM_TOL = 1e-12
KARAMATA_TOL = 1e-9


class Relation(enum.Enum):
    EQUAL = "equal"
    MAJORIZED = "majorized"  # first sequence below the second
    MAJORIZES = "majorizes"  # first sequence above the second
    INCOMPARABLE = "incomparable"


def _check_non_increasing(seq: Sequence[float], name: str) -> None:
    for i in range(len(seq) - 1):
        if seq[i] < seq[i + 1]:
            raise ValueError(f"{name} is not non-increasing at position {i}")


def compare(c: Sequence[float], d: Sequence[float]) -> Relation:
    """Majorization relation between two non-increasing, equal-sum sequences.

    Sums must agree exactly for integer sequences and within 1e-12
    absolute otherwise.
    """
    if len(c) != len(d):
        raise ValueError(f"length mismatch: {len(c)} vs {len(d)}")
    _check_non_increasing(c, "first sequence")
    _check_non_increasing(d, "second sequence")
    sc, sd = sum(c), sum(d)
    exact = all(isinstance(x, int) for x in c) and all(isinstance(x, int) for x in d)
    if (sc != sd) if exact else abs(sc - sd) > SUM_TOL:
        raise ValueError(f"sum mismatch: {sc} vs {sd}")
    if tuple(c) == tuple(d):
        return Relation.EQUAL
    below = above = True
    pc = pd = 0
    for k in range(len(c) - 1):
        pc += c[k]
        pd += d[k]
        if pc > pd:
            below = False
        if pc < pd:
            above = False
    if below:
        return Relation.MAJORIZED
    if above:
        return Relation.MAJORIZES
    return Relation.INCOMPARABLE


@dataclass(frozen=True, slots=True)
class KaramataReport:
    relation: Relation
    sum_first: float
    sum_second: float
    holds: bool  # sum_first <= sum_second + tolerance
    strict: bool  # strict conclusion applies (strictly convex f, unequal sequences)


def karamata_compare(
    c: Sequence[float],
    d: Sequence[float],
    f: Callable[[float], float],
    strictly_convex: bool = False,
) -> KaramataReport:
    """Compare sum f(c_i) against sum f(d_i) for convex f, given c below d.

    Requires ``compare(c, d)`` to be EQUAL or MAJORIZED; anything else is a
    precondition violation.
    """
    relation = compare(c, d)
    if relation not in (Relation.EQUAL, Relation.MAJORIZED):
        raise ValueError(f"first sequence is not majorized by the second ({relation.value})")
    sum_first = sum(f(x) for x in c)
    sum_second = sum(f(x) for x in d)
    return KaramataReport(
        relation=relation,
        sum_first=sum_first,
        sum_second=sum_second,
        holds=sum_first <= sum_second + KARAMATA_TOL,
        strict=strictly_convex and relation is Relation.MAJORIZED,
    )


def hypotenuse_term(a: float) -> Callable[[float], float]:
    """x -> sqrt(a^2 + x^2); strictly convex on the whole line for a != 0."""
    return lambda x: math.hypot(a, x)
