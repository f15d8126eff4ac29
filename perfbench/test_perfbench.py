"""Tests of the benchmark itself: every oracle accepts real output and flags
a planted defect, the tracer wraps names where they are looked up, and the
benchmark refuses to run without the package sources.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import oracles
import spans
import workloads

workloads.import_package()

from somborkit.cli import main as cli_main  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
# OEIS A008406, row 5: graphs on 5 vertices by edge count.
A008406_ROW5 = (1, 1, 2, 4, 6, 6, 6, 4, 2, 1, 1)


def cli_output(capsys, argv) -> tuple[str, int]:
    code = cli_main(argv)
    return capsys.readouterr().out, code


def relabeled_graph6(line: str) -> str:
    """graph6 of an isomorphic copy whose text differs from ``line``."""
    g = oracles.parse_graph6(line)
    for perm in itertools.permutations(range(g.number_of_nodes())):
        h = nx.empty_graph(g.number_of_nodes())
        h.add_edges_from((perm[u], perm[v]) for u, v in g.edges())
        text = nx.to_graph6_bytes(h, header=False).decode().strip()
        if text != line:
            return text
    raise ValueError(f"{line} has no relabeling with other text")


@pytest.fixture
def enum_n5(capsys):
    out, code = cli_output(capsys, ["enumerate", "--n", "5", "--universe", "all"])
    assert code == 0
    return out.splitlines()


def test_enumeration_oracle_accepts_real_output(enum_n5):
    assert oracles.check_enumeration("\n".join(enum_n5), 0, 5, A008406_ROW5) == []


def test_enumeration_oracle_flags_dropped_class(enum_n5):
    dropped = enum_n5[:7] + enum_n5[8:]
    m = oracles.parse_graph6(enum_n5[7]).number_of_edges()
    problems = oracles.check_enumeration("\n".join(dropped), 0, 5, A008406_ROW5)
    assert problems == [f"{A008406_ROW5[m] - 1} classes with {m} edges, expected {A008406_ROW5[m]}"]


def test_enumeration_oracle_flags_duplicated_isomorphic_class(enum_n5):
    # Lines 3 and 4 hold the two classes with 2 edges; replacing one with a
    # relabeled copy of the other keeps every level count right.
    a, b = enum_n5[2], enum_n5[3]
    assert {oracles.parse_graph6(x).number_of_edges() for x in (a, b)} == {2}
    copy = relabeled_graph6(a)
    planted = enum_n5[:3] + [copy] + enum_n5[4:]
    problems = oracles.check_enumeration("\n".join(planted), 0, 5, A008406_ROW5)
    assert problems == ["line 4 is isomorphic to line 3"]


def test_enumeration_oracle_flags_wrong_order_and_garbage(enum_n5):
    problems = oracles.check_enumeration("\n".join(enum_n5 + ["E???", "!!"]), 0, 5, A008406_ROW5)
    assert any("6 vertices" in p for p in problems)
    assert any("not graph6" in p for p in problems)


@pytest.fixture
def extremal_small(capsys):
    out, code = cli_output(
        capsys, ["verify-extremal", "--n", "4..6", "--nu", "0..2", "--index", "so"]
    )
    assert code == 0
    cells = {k: v for k, v in oracles.SPARSE_CONNECTED_CLASSES.items() if k[0] <= 6}
    return out, cells


def test_extremal_oracle_accepts_real_output(extremal_small):
    out, cells = extremal_small
    assert oracles.check_extremal(out, 0, cells) == []


def test_extremal_oracle_flags_wrong_maximizer(extremal_small):
    out, cells = extremal_small
    path6 = workloads.encode_graph6(6, [(i, i + 1) for i in range(5)])
    lines = out.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("6,0,"))
    lines[row] = lines[row].rsplit(",", 1)[0] + "," + path6
    problems = oracles.check_extremal("\n".join(lines), 0, cells)
    assert f"n=6, nu=0: maximizer {path6} is not h_graph" in problems
    assert any(p.startswith("n=6, nu=0: max_value") and "!= sombor" in p for p in problems)


def test_extremal_oracle_flags_missing_cell_and_exit(extremal_small):
    out, cells = extremal_small
    lines = out.splitlines()
    problems = oracles.check_extremal("\n".join(lines[:-1]), 1, cells)
    assert problems == ["exit status 1, expected 0", "missing cell n=6, nu=2"]


@pytest.fixture
def bounds_run(tmp_path, capsys):
    two_triangles = workloads.encode_graph6(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    inputs = ["DJ{", two_triangles] + workloads.bounds_input(seed=3, count=4)
    path = tmp_path / "in.g6"
    path.write_text("\n".join(inputs) + "\n")
    out, code = cli_output(capsys, ["verify-bounds", "--input", str(path)])
    return out, code, inputs


def test_bounds_oracle_accepts_known_violation_and_anomalies(bounds_run):
    out, code, inputs = bounds_run
    summary = out.splitlines()[-1].split(",")
    assert code == 1 and summary[5] == "1" and int(summary[6]) >= 2
    assert oracles.check_bounds(out, code, inputs) == []


def test_bounds_oracle_flags_anomaly_outside_known_class(bounds_run):
    out, code, inputs = bounds_run
    lines = out.splitlines()
    target = next(
        i for i, line in enumerate(lines) if line.startswith(f"zagreb-so-lower,{inputs[2]},")
    )
    fields = lines[target].split(",")
    assert fields[6] == "false" and fields[8] == "false"
    fields[6] = "true"
    lines[target] = ",".join(fields)
    summary = [int(x) for x in lines[-1].split(",")]
    summary[3] += 1  # equality
    summary[6] += 1  # anomalies
    lines[-1] = ",".join(map(str, summary))
    problems = oracles.check_bounds("\n".join(lines) + "\n", code, inputs)
    assert problems == [f"anomaly of zagreb-so-lower on {inputs[2]} outside the known class"]


def test_bounds_oracle_flags_dropped_report_and_stale_summary(bounds_run):
    out, code, inputs = bounds_run
    lines = out.splitlines()
    del lines[5]
    problems = oracles.check_bounds("\n".join(lines) + "\n", code, inputs)
    assert any("reports for" in p for p in problems)
    assert any(p.startswith("summary") for p in problems)


def test_bounds_input_is_seeded_graph6():
    lines = workloads.bounds_input(seed=7, count=40)
    assert lines == workloads.bounds_input(seed=7, count=40)
    assert lines != workloads.bounds_input(seed=8, count=40)
    for line in lines:
        g = oracles.parse_graph6(line)
        assert workloads.BOUNDS_MIN_N <= g.number_of_nodes() <= workloads.BOUNDS_MAX_N
        assert nx.to_graph6_bytes(g, header=False).decode().strip() == line


def test_layer_metrics_self_times():
    spans_ = [
        ["cli.main", -1, 0.0, 10.0, None],
        ["enumeration.extremal_search", 0, 1.0, 9.0, None],
        ["enumeration.connected_graphs", 1, 1.0, 5.0, (5, 6, 5)],
        ["enumeration.all_graphs", 2, 1.5, 4.5, (5, 6, 9)],
        ["indices.sombor", 1, 5.0, 6.0, 4],
        ["graphs.max_degree", 1, 6.0, 7.0, None],
        ["graphs.encode_graph6", 0, 9.0, 9.5, None],
    ]
    m = spans.layer_metrics(spans_, items=5)
    assert m["enumeration.gen_s"] == 4.0
    assert m["enumeration.gen_upper_half_s"] == 4.0  # 6 > C(5, 2) / 2
    assert m["enumeration.classes_per_gen_s"] == 5 / 4
    assert m["enumeration.extremal_search.self_s"] == 2.0
    assert m["indices.edges_per_s"] == 4.0
    assert m["graphs.encode_graph6.calls_per_graph"] == 1 / 5
    assert m["cli.self_s"] == 10.0 - 8.0 - 0.5


TRACE_SCRIPT = """
import io, json, sys
import spans, workloads
workloads.import_package()
from somborkit import bounds, cli, enumeration
originals = (enumeration.all_graphs, bounds.encode_graph6, bounds.sombor)
tracer = spans.Tracer()
tracer.install()
wrapped = [
    cli.all_graphs, bounds.encode_graph6, bounds.sombor,
    *enumeration.INDEX_FUNCTIONS.values(), bounds.BOUND_GROUPS["zagreb-sandwich"],
]
sys.stdout, out = io.StringIO(), sys.stdout
code = cli.main(["enumerate", "--n", "6", "--universe", "all", "--workers", "2"])
sys.stdout = out
metrics = spans.layer_metrics(tracer.spans, items=156)
print(json.dumps({
    "code": code,
    "wrapped": all(hasattr(f, "__wrapped__") for f in wrapped),
    "unwrapped": [f.__wrapped__ for f in wrapped[:3]] == list(originals),
    "pools": tracer.pools_created,
    "metrics": metrics,
}))
"""


def test_tracer_wraps_names_where_they_are_looked_up():
    env = {**os.environ, "PYTHONPATH": f"{BENCH_DIR}{os.pathsep}{workloads.SRC}"}
    done = subprocess.run(
        [sys.executable, "-c", TRACE_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["code"] == 0 and result["wrapped"] and result["unwrapped"]
    assert result["pools"] > 0
    metrics = result["metrics"]
    assert metrics["graphs.encode_graph6.calls_per_graph"] == 1.0
    assert metrics["enumeration.gen_s"] > metrics["enumeration.gen_upper_half_s"] > 0


def test_run_fails_without_package_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum-all-n8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
