import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorization import Relation, compare, hypotenuse_term, karamata_compare

from somborkit.families import h_degree_sequence


def test_compare_basic():
    assert compare([2, 2, 1], [3, 1, 1]) is Relation.MAJORIZED
    assert compare([3, 1, 1], [3, 1, 1]) is Relation.EQUAL
    assert compare([3, 1, 1], [2, 2, 1]) is Relation.MAJORIZES
    # prefix sums 3 <= 4 but 6 > 5
    assert compare([3, 3, 0, 0], [4, 1, 1, 0]) is Relation.INCOMPARABLE
    # integer prefix sums stay exact past 2**53, where floats merge them
    assert compare([2**53 + 1, 0], [2**53, 1]) is Relation.MAJORIZES


def test_compare_errors():
    with pytest.raises(ValueError):
        compare([2, 1], [1, 1, 1])
    with pytest.raises(ValueError):
        compare([2, 2], [3, 0])  # sums 4 vs 3
    with pytest.raises(ValueError):
        compare([1, 2, 1], [2, 1, 1])  # not sorted


def test_compare_float_sum_tolerance():
    a = [0.3, 0.3, 0.4 - 1e-13]
    b = [0.5, 0.3, 0.2]
    assert compare(sorted(a, reverse=True), b) is Relation.MAJORIZED


def test_karamata_basic():
    rep = karamata_compare([2, 2, 1], [3, 1, 1], lambda x: x * x, strictly_convex=True)
    assert rep.sum_first == 9 and rep.sum_second == 11
    assert rep.holds and rep.strict
    rep = karamata_compare([3, 1, 1], [3, 1, 1], math.exp, strictly_convex=True)
    assert rep.relation is Relation.EQUAL and rep.holds and not rep.strict
    with pytest.raises(ValueError):
        karamata_compare([3, 1, 1], [2, 2, 1], lambda x: x * x)
    with pytest.raises(ValueError):
        karamata_compare([3, 3, 0, 0], [4, 1, 1, 0], lambda x: x * x)


def test_karamata_degree_sum_instance():
    # non-hub degrees of the (7, 3) hub-plus-perfect-matching graph vs the
    # majorizing tail (4, 2, 2, 2, 1, 1); f(x) = sqrt(36 + x^2)
    c = [2] * 6
    d = [4, 2, 2, 2, 1, 1]
    f = hypotenuse_term(6)
    rep = karamata_compare(c, d, f, strictly_convex=True)
    assert rep.holds and rep.strict
    assert rep.sum_first == pytest.approx(6 * math.sqrt(40), rel=1e-12)
    assert rep.sum_second == pytest.approx(
        math.sqrt(52) + 3 * math.sqrt(40) + 2 * math.sqrt(37), rel=1e-12
    )
    assert rep.sum_first < rep.sum_second


def test_known_lemma_counterexample():
    # K4 plus a pendant vertex: connected, dominating vertex, cyclomatic
    # number 3, yet its degree sequence is NOT below the h_graph sequence
    # (prefix sums 13 > 12 at k=4).  See notes on the degree-sum bound.
    assert compare([4, 3, 3, 3, 1], list(h_degree_sequence(5, 3))) is Relation.INCOMPARABLE


def _robin_hood_pair(rng: random.Random, length: int, transfers: int):
    # dyadic values (multiples of 1/64) keep every prefix sum exact in
    # binary64, so the majorization guarantee holds with no float slop
    base = sorted((rng.randint(0, 640) / 64 for _ in range(length)), reverse=True)
    result = list(base)
    for _ in range(transfers):
        i, j = sorted(rng.sample(range(length), 2))
        delta = rng.randint(7, 64) / 64
        result[i] += delta  # larger entry gains what the smaller loses
        result[j] -= delta
        result.sort(reverse=True)
    return base, result


def test_robin_hood_transfers_randomized():
    rng = random.Random(20240811)
    functions = [
        ("square", lambda x: x * x),
        ("exp", math.exp),
        ("hyp5", hypotenuse_term(5)),
    ]
    for _ in range(300):
        base, moved = _robin_hood_pair(rng, rng.randint(3, 9), rng.randint(1, 4))
        rel = compare(base, moved)
        assert rel in (Relation.EQUAL, Relation.MAJORIZED)
        for _, f in functions:
            rep = karamata_compare(base, moved, f, strictly_convex=True)
            assert rep.holds
            if rep.strict:
                assert rep.sum_first < rep.sum_second


@given(
    st.lists(st.integers(0, 30), min_size=2, max_size=8),
    st.data(),
)
@settings(max_examples=200)
def test_transfer_majorizes_property(values, data):
    base = sorted(values, reverse=True)
    i = data.draw(st.integers(0, len(base) - 2))
    j = data.draw(st.integers(i + 1, len(base) - 1))
    delta = data.draw(st.integers(1, 5))
    moved = list(base)
    moved[i] += delta
    moved[j] -= delta
    moved.sort(reverse=True)
    # moving mass to a larger entry pushes the sequence up in the order;
    # sums stay equal so the pair is always comparable
    assert compare(moved, base) in (Relation.EQUAL, Relation.MAJORIZES)


def test_partial_order_spot_checks():
    a, b, c = [4, 2, 2], [3, 3, 2], [4, 3, 1]
    assert compare(a, a) is Relation.EQUAL
    assert compare(b, a) is Relation.MAJORIZED
    assert compare(a, c) is Relation.MAJORIZED
    # transitivity instance: b <= a and a <= c gives b <= c
    assert compare(b, c) is Relation.MAJORIZED
