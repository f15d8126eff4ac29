"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Criterion 8 is expected to fail: the degree-sequence
majorization claim it checks has concrete counterexamples (see
test_criterion_8 and the bounds-module notes); the test asserts the claim
as stated and is marked strict-xfail so the failure stays visible without
masking regressions elsewhere.
"""

import math
import random

import pytest

from somborkit.bounds import (
    GraphRecord,
    check_epsilon_identities,
    check_so_lower_bound,
    check_so_red_lower_bound,
    check_so_red_upper,
    check_so_shifted_upper,
)
from somborkit.enumeration import canonical_form, extremal_search
from somborkit.families import (
    h_degree_sequence,
    h_graph,
    is_star_plus_isolated,
    max_sombor_value,
    path,
)
from somborkit.graphs import edge_stats, encode_graph6, parse_graph6
from somborkit.indices import first_zagreb, reduced_sombor, sombor, sombor_shifted

from conftest import (
    degree_sequence,
    degrees,
    delete_vertex,
    is_cycle_graph,
    is_path_graph,
    is_regular,
    max_degree,
    max_reduced_sombor_value,
)
from majorization import Relation, compare, hypotenuse_term, karamata_compare


def _emit(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")


@pytest.fixture(scope="module")
def extremal_reports():
    """Brute-force reports for both indices over 4 <= n <= 8, all nu."""
    reports = {}
    for n in range(4, 9):
        for nu in range(0, n - 1):
            for index in ("so", "sored"):
                reports[(n, nu, index)] = extremal_search(n, nu, index)
    return reports


def test_criterion_1_unique_h_maximizer(extremal_reports):
    closed_form = {"so": max_sombor_value, "sored": max_reduced_sombor_value}
    failures = []
    conjecture_cells = theorem_cells = 0
    for (n, nu, index), rep in sorted(extremal_reports.items()):
        expected = canonical_form(h_graph(n, nu))
        ok = (
            rep.unique
            and canonical_form(rep.maximizers[0]) == expected
            and rep.runner_up_gap > 1e-6
            and abs(rep.max_value - closed_form[index](n, nu)) <= 1e-9 * rep.max_value
        )
        theorem_cells += 1
        if nu >= 5:
            conjecture_cells += 1
        if not ok:
            failures.append((n, nu, index, rep.unique, rep.runner_up_gap))
    ok = not failures
    _emit(
        1,
        ok,
        f"unique h_graph maximizer for SO and SO_red on all {theorem_cells} cells "
        f"(4<=n<=8, 0<=nu<=n-2), of which {conjecture_cells} in the conjecture "
        f"range nu>=5; failures: {failures}",
    )
    assert ok, failures


def test_criterion_2_closed_form_agreement():
    worst = 0.0
    cells = 0
    for n in range(2, 201):
        for nu in range(0, n - 1):
            s = edge_stats(h_graph(n, nu))
            so = sombor(s)
            so_red = reduced_sombor(s)
            rel_so = abs(so - max_sombor_value(n, nu)) / so
            rel_red = abs(so_red - max_reduced_sombor_value(n, nu)) / max(1.0, so_red)
            worst = max(worst, rel_so, rel_red)
            cells += 1
    ok = worst <= 1e-9
    _emit(2, ok, f"closed forms match edge sums on {cells} cells, worst rel err {worst:.2e}")
    assert ok


def test_criterion_3_maximizers_have_dominating_vertex(extremal_reports):
    bad = [
        key
        for key, rep in extremal_reports.items()
        if min(max_degree(g) for g in rep.maximizers) != key[0] - 1
    ]
    ok = not bad
    _emit(3, ok, f"every maximizer has max degree n-1; exceptions: {bad}")
    assert ok, bad


def test_criterion_4_upper_bound_equality_census(full_universe):
    violations = []
    census_errors = []
    graphs = 0
    for n in range(1, 7):
        for g in full_universe[n]:
            graphs += 1
            rec = GraphRecord(g)
            expected = is_star_plus_isolated(rec.stats)
            for check in (check_so_shifted_upper, check_so_red_upper):
                r = check(rec)
                if not r.holds:
                    violations.append((r.bound_id, r.graph6))
                if r.equality != expected or (r.equality and not r.equality_class_match):
                    census_errors.append((r.bound_id, r.graph6))
    ok = not violations and not census_errors
    _emit(
        4,
        ok,
        f"SO-shifted and SO-red upper bounds on all {graphs} classes with n<=6 "
        f"(disconnected included): {len(violations)} violations, equality census "
        f"errors: {census_errors}",
    )
    assert ok, (violations, census_errors)


def test_criterion_5_lower_bounds(connected_universe):
    violations = []
    census_errors = []
    checked = 0
    for n in range(3, 8):
        for g in connected_universe[n]:
            rec = GraphRecord(g)
            if (1, 1) in rec.stats.endpoint_degree_counts:  # an isolated edge
                continue
            checked += 1
            expected = is_path_graph(rec.stats) or is_cycle_graph(rec.stats)
            for check in (check_so_lower_bound, check_so_red_lower_bound):
                r = check(rec)
                if not r.holds:
                    violations.append((r.bound_id, r.graph6))
                if r.equality != expected or (r.equality and not r.equality_class_match):
                    census_errors.append((r.bound_id, r.graph6))
    p3 = check_so_lower_bound(GraphRecord(path(3)))
    spot = (
        abs(p3.lhs - 2 * math.sqrt(5)) <= 1e-9
        and abs(p3.rhs - 2 * math.sqrt(5)) <= 1e-9
    )
    ok = not violations and not census_errors and spot
    _emit(
        5,
        ok,
        f"both M1-based lower bounds on {checked} connected isolated-edge-free "
        f"classes (3<=n<=7): {len(violations)} violations, census errors "
        f"{census_errors}, SO(P3)=rhs(P3)=2*sqrt(5) spot check "
        f"{'ok' if spot else 'FAILED'}",
    )
    assert ok, (violations, census_errors, spot)


def test_criterion_6_epsilon_identities(full_universe):
    failures = []
    checked = 0
    for n in range(1, 8):
        for g in full_universe[n]:
            rec = GraphRecord(g)
            if (1, 1) in rec.stats.endpoint_degree_counts:  # an isolated edge
                continue
            checked += 1
            for r in check_epsilon_identities(rec):
                if not (r.holds and r.slack == 0):
                    failures.append((r.bound_id, r.graph6))
    ok = not failures
    _emit(
        6,
        ok,
        f"edge-degree count identities exact on {checked} isolated-edge-free "
        f"classes with n<=7; failures: {failures}",
    )
    assert ok, failures


def test_criterion_7_zagreb_sandwich(full_universe, connected_universe):
    violations = []
    checked = 0
    for n in range(1, 8):
        for g in full_universe[n]:
            if g.m == 0:
                continue
            checked += 1
            s = edge_stats(g)
            m1 = first_zagreb(s)
            so = sombor(s)
            if not (m1 > so + 1e-9 and so >= m1 / math.sqrt(2) - 1e-9 * m1):
                violations.append(encode_graph6(g))
    census_errors = []
    for n in range(1, 8):
        for g in connected_universe[n]:
            if g.m == 0:
                continue
            s = edge_stats(g)
            equality = abs(sombor(s) - first_zagreb(s) / math.sqrt(2)) <= 1e-9 * first_zagreb(s)
            if equality != is_regular(s):
                census_errors.append(encode_graph6(g))
    ok = not violations and not census_errors
    _emit(
        7,
        ok,
        f"M1 > SO >= M1/sqrt2 on {checked} classes with m>=1, n<=7; right-side "
        f"equality exactly on regular graphs among connected classes; "
        f"violations {violations}, census errors {census_errors}",
    )
    assert ok, (violations, census_errors)


@pytest.mark.xfail(
    strict=True,
    reason="the degree-sequence majorization claim is false as stated: "
    "K4 plus a pendant (DJ{, n=5, nu=3) has degree sequence (4,3,3,3,1) "
    "which is incomparable with (4,4,2,2,2); twelve more such "
    "hub-plus-clique graphs exist for n<=7 (see README.md, section \"Bound checks\")",
)
def test_criterion_8_degree_sequence_majorization(connected_universe):
    failures = []
    checked = 0
    for n in range(2, 8):
        for g in connected_universe[n]:
            nu = g.m - n + 1
            if nu > n - 2 or max_degree(g) != n - 1:
                continue
            checked += 1
            rel = compare(list(degree_sequence(g)), list(h_degree_sequence(n, nu)))
            if rel not in (Relation.EQUAL, Relation.MAJORIZED):
                failures.append((n, nu, encode_graph6(g)))
    ok = not failures
    _emit(
        8,
        ok,
        f"degree sequences below the h_graph sequence on {checked} connected "
        f"dominated classes (n<=7, nu<=n-2); counterexamples: {failures}",
    )
    assert ok, failures


def test_criterion_9_karamata_randomized():
    rng = random.Random(987654321)
    functions = [
        lambda x: x * x,
        math.exp,
        hypotenuse_term(4),
    ]
    violations = 0
    strict_checked = 0
    for _ in range(1000):
        length = rng.randint(3, 10)
        # dyadic entries keep prefix sums exact (see majorization notes)
        base = sorted((rng.randint(0, 512) / 64 for _ in range(length)), reverse=True)
        moved = list(base)
        for _ in range(rng.randint(1, 5)):
            i, j = sorted(rng.sample(range(length), 2))
            delta = rng.randint(8, 96) / 64
            moved[i] += delta
            moved[j] -= delta
            moved.sort(reverse=True)
        if compare(base, moved) not in (Relation.EQUAL, Relation.MAJORIZED):
            violations += 1
            continue
        for f in functions:
            rep = karamata_compare(base, moved, f, strictly_convex=True)
            if not rep.holds:
                violations += 1
            if rep.strict:
                strict_checked += 1
                if not rep.sum_first < rep.sum_second:
                    violations += 1
    ok = violations == 0 and strict_checked > 0
    _emit(
        9,
        ok,
        f"1000 mass-transfer pairs x 3 convex functions: {violations} violations, "
        f"{strict_checked} strict comparisons all strict",
    )
    assert ok


def test_criterion_10_hub_decomposition(full_universe):
    failures = []
    checked = 0
    for n in range(2, 8):
        for g in full_universe[n]:
            deg = degrees(g)
            if max(deg) != n - 1:
                continue
            checked += 1
            hub = deg.index(n - 1)
            total = sum(math.hypot(n - 1, deg[v]) for v in range(n) if v != hub)
            total += sombor_shifted(edge_stats(delete_vertex(g, hub)))
            so = sombor(edge_stats(g))
            if abs(so - total) > 1e-9 * so:
                failures.append(encode_graph6(g))
    ok = not failures
    _emit(
        10,
        ok,
        f"SO splits into the hub sum plus shifted SO of the rest on {checked} "
        f"dominated classes n<=7; failures: {failures}",
    )
    assert ok, failures


def test_criterion_11_graph6_round_trip(full_universe):
    failures = []
    count = 0
    for n in range(1, 8):
        for g in full_universe[n]:
            count += 1
            text = encode_graph6(g)
            back = parse_graph6(text)
            if back.rows != g.rows or encode_graph6(back) != text:
                failures.append(text)
    ok = not failures
    _emit(11, ok, f"byte-identical graph6 round trip on all {count} classes n<=7")
    assert ok, failures
