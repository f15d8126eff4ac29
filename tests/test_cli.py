import argparse
import ast
import io
import math
import os
import re
import signal
import subprocess
import sys
import time
from operator import attrgetter
from pathlib import Path

import networkx as nx
import pytest
from conftest import degrees, module_env, to_nx

import somborkit
from somborkit import cli, enumeration
from somborkit.bounds import BOUNDS, BoundReport, GraphRecord, run_suite
from somborkit.cli import build_parser, main
from somborkit.enumeration import canonical_form
from somborkit.families import FAMILIES, h_graph, path, star
from somborkit.graphs import encode_graph6, graph_from_edges, parse_graph6
from somborkit.indices import first_zagreb, reduced_sombor, sombor, sombor_shifted


K4_PENDANT = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def pipe(capsys, monkeypatch):
    """``pipe(argv, ...)`` runs each argv through ``main``, with the stdout
    of the call before it as its stdin, like a shell pipeline under
    ``set -o pipefail``: it returns the last nonzero status, the last
    call's stdout and every call's stderr, in order."""

    def run_pipe(*argvs):
        rc, out, err = 0, "", ""
        for argv in argvs:
            monkeypatch.setattr("sys.stdin", io.StringIO(out))
            code, out, more = run(capsys, argv)
            rc, err = code or rc, err + more
        return rc, out, err

    return run_pipe


def test_compute_single_line(tmp_path, capsys):
    src = tmp_path / "in.g6"
    src.write_text("D?{\n")
    rc, out, err = run(capsys, ["compute", "--input", str(src)])
    assert rc == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "graph6,n,m,nu,so,so_red,so_shifted,m1"
    fields = lines[1].split(",")
    assert fields[0] == "D?{" and fields[1] == "5" and fields[2] == "4" and fields[3] == "0"
    assert float(fields[4]) == pytest.approx(4 * math.sqrt(17), rel=1e-10)
    assert float(fields[7]) == 20.0


def test_compute_empty_input(tmp_path, capsys):
    src = tmp_path / "empty.g6"
    src.write_text("")
    rc, out, err = run(capsys, ["compute", "--input", str(src)])
    assert rc == 0
    assert out.strip() == "graph6,n,m,nu,so,so_red,so_shifted,m1"


def test_compute_malformed_line_reports_position(tmp_path, capsys):
    src = tmp_path / "bad.g6"
    src.write_text("D?{\nCs\nD?\n")
    rc, out, err = run(capsys, ["compute", "--input", str(src)])
    assert rc != 0 and out == ""
    assert "line 3" in err


@pytest.mark.parametrize(
    "command, last_line, error",
    [
        ("compute", "D?", "line 4: body length 1 does not match n=5 (expected 2 bytes)"),
        ("compute", "?", "line 4: index undefined on the order-0 graph"),
        ("verify-bounds", "D?", "line 4: body length 1 does not match n=5 (expected 2 bytes)"),
    ],
)
def test_a_late_bad_line_creates_no_output_file(command, last_line, error, tmp_path, capsys):
    """Rows are spooled until the whole input has been checked, so a bad
    last line leaves no partial report behind."""
    src = tmp_path / "in.g6"
    src.write_text(f"D?{{\nBW\nCs\n{last_line}\n")
    dest = tmp_path / "out.csv"
    rc, out, err = run(capsys, [command, "--input", str(src), "--output", str(dest)])
    assert (rc, out, err) == (1, "", f"error: {error}\n")
    assert not dest.exists()


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["construct", "path", "3", "--output", "{}/x.g6"], "x.g6"),
        (["compute", "--input", "{}/in.g6"], "in.g6"),
        (["verify-bounds", "--input", "-", "--output", "{}/x.csv"], "x.csv"),
    ],
)
def test_a_file_that_cannot_be_opened_exits_2(argv, missing, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("D?{\n"))
    nowhere = tmp_path / "no-such-dir"
    rc, out, err = run(capsys, [arg.format(nowhere) for arg in argv])
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(nowhere / missing) in err and "Traceback" not in err


def test_construct(capsys):
    rc, out, _ = run(capsys, ["construct", "h_graph", "5", "2"])
    assert rc == 0
    assert out.strip() == encode_graph6(h_graph(5, 2))
    assert parse_graph6(out.strip()).m == 6

    rc, out, _ = run(capsys, ["construct", "star", "4"])
    assert rc == 0 and out.strip() == encode_graph6(star(4))

    rc, out, _ = run(capsys, ["construct", "star_plus_isolated", "3", "6"])
    assert rc == 0 and degrees(parse_graph6(out.strip())).count(0) == 2


def test_construct_range_error(capsys):
    rc, out, err = run(capsys, ["construct", "h_graph", "4", "7"])
    assert rc != 0 and "usage" in err


CONSTRUCT_USAGE = (
    "usage: construct {path|cycle|star|complete|empty} N"
    " | h_graph N NU | star_plus_isolated M N\n"
)


@pytest.mark.parametrize("kind", list(FAMILIES))
def test_construct_builds_every_family_with_its_arity(kind, capsys):
    builder, names = FAMILIES[kind]
    params = [{"n": 6, "nu": 2, "m": 3}[name] for name in names]
    rc, out, err = run(capsys, ["construct", kind, *map(str, params)])
    assert (rc, out, err) == (0, encode_graph6(builder(*params)) + "\n", "")
    for wrong in (params[:-1], params + [1]):
        rc, out, err = run(capsys, ["construct", kind, *map(str, wrong)])
        assert rc == 2 and out == ""
        assert err == f"error: {kind} takes: {' '.join(names)}\n" + CONSTRUCT_USAGE


@pytest.mark.parametrize("kind", list(FAMILIES))
def test_construct_refuses_an_order_graph6_cannot_hold_before_building(kind, monkeypatch, capsys):
    """An order above ``GRAPH6_MAX_N`` is refused with the usage line, and
    the builder, whose graph would take n^2 bits, is never called."""
    names = FAMILIES[kind][1]
    calls = []
    monkeypatch.setitem(FAMILIES, kind, (lambda *params: calls.append(params), names))
    params = [{"n": 3000, "nu": 2, "m": 3}[name] for name in names]
    rc, out, err = run(capsys, ["construct", kind, *map(str, params)])
    assert (rc, out, calls) == (2, "", [])
    assert err == "error: graph6 encoding supported for n <= 64, got n=3000\n" + CONSTRUCT_USAGE


def test_level_options_are_exclusive(capsys):
    """--m and --nu both select edge levels; giving both is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "4", "--m", "5", "--nu", "0"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "not allowed with argument" in captured.err


def test_enumerate(capsys, pipe):
    rc, out, _ = run(capsys, ["enumerate", "--n", "4", "--m", "3", "--universe", "all"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(parse_graph6(line).m == 3 for line in lines)

    rc, out, _ = pipe(
        ["enumerate", "--n", "4", "--nu", "0", "--universe", "connected"],
        ["compute"],
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("graph6,") and len(lines) == 3  # header + 2 trees


def test_verify_extremal_ok(capsys):
    rc, out, err = run(capsys, ["verify-extremal", "--n", "4..5", "--index", "so"])
    assert rc == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "n,nu,universe_size,max_value,unique,gap,maximizer_graph6"
    assert len(lines) == 1 + 3 + 4  # nu ranges 0..2 and 0..3
    assert all(",true," in line for line in lines[1:])
    # the maximum, h_graph's SO, appears at 12 significant digits
    row_5_2 = [line for line in lines[1:] if line.startswith("5,2,")][0]
    assert row_5_2.split(",")[3] == "25.2784800865"


def test_verify_extremal_full_sweep_to_7(capsys):
    rc, out, err = run(capsys, ["verify-extremal", "--n", "4..7", "--index", "so"])
    assert rc == 0, err
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 3 + 4 + 5 + 6
    assert all(",true," in row for row in rows)


def test_verify_extremal_defaults_to_every_cell_of_each_order(capsys):
    """Without ``--nu``, each order n gets its cells nu = 0..n-2, which for
    n = 4..9 is what ``--nu 0..7`` selects."""
    rc, out, err = run(capsys, ["verify-extremal", "--n", "4..9", "--workers", "2"])
    assert (rc, err) == (0, "")
    assert len(out.splitlines()) == 1 + sum(range(3, 9))
    assert run(capsys, ["verify-extremal", "--n", "4..9", "--nu", "0..7", "--workers", "2"]) == (
        0, out, ""
    )


def test_verify_extremal_fails_a_wrong_maximizer(monkeypatch, capsys):
    """Under -SO as ``so``, h_graph maximizes only the cell (4, 2), whose
    one class it is; every other cell of the 9 fails, and the command
    still writes every row."""
    argv = ["verify-extremal", "--n", "4..6", "--nu", "0..2", "--index", "so"]
    assert run(capsys, argv)[::2] == (0, "")
    monkeypatch.setitem(enumeration.INDEX_FUNCTIONS, "so", lambda s: -sombor(s))
    rc, out, err = run(capsys, argv)
    assert rc == 1 and len(out.splitlines()) == 1 + 9
    assert err == "error: 8 cell(s) do not confirm h_graph(n, nu) as the unique maximizer\n"


@pytest.mark.parametrize("cells", [["--n", "4", "--nu", "5"], ["--n", "4..9", "--nu", "8"]])
def test_verify_extremal_refuses_an_empty_range(cells, tmp_path, capsys):
    dest = tmp_path / "out.csv"
    rc, out, err = run(capsys, ["verify-extremal", *cells, "--output", str(dest)])
    assert rc == 2 and out == "" and not dest.exists()
    assert err == "error: no (n, nu) cell with 0 <= nu <= n-2 in the requested range\n"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["enumerate", "--n", "5", "--m", "20"], "no (n, m) level with 0 <= m <= n(n-1)/2"),
        (["enumerate", "--n", "0..1", "--nu", "0"], "no (n, nu) cell with 0 <= nu <= n-2"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_a_request_that_selects_no_level_is_refused(argv, error, tmp_path, capsys):
    dest = tmp_path / "out.txt"
    rc, out, err = run(capsys, [*argv, "--output", str(dest)])
    assert rc == 2 and out == "" and not dest.exists()
    assert err == f"error: {error} in the requested range\n"


def test_the_order_zero_level_is_a_level(capsys):
    """``--n 0`` selects the level (0, 0); its connected universe is empty."""
    assert run(capsys, ["enumerate", "--n", "0", "--universe", "connected"]) == (0, "", "")


@pytest.mark.parametrize("index", ["so", "sored"])
def test_verify_extremal_confirms_conjecture_cells(index, capsys):
    """The nu >= 5 cells (the range of the original uniqueness conjecture)
    each have h_graph(n, nu) as their unique maximizer."""
    argv = ["verify-extremal", "--n", "7..8", "--nu", "5..6", "--index", index]
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(int(row[0]), int(row[1])) for row in rows] == [(7, 5), (8, 5), (8, 6)]
    for n, nu, _, _, unique, _, maximizer in rows:
        assert unique == "true"
        assert canonical_form(parse_graph6(maximizer)) == canonical_form(h_graph(int(n), int(nu)))


@pytest.mark.parametrize("cells", [["--n", "8..10"], ["--n", "8..10", "--nu", "0..4"]])
def test_verify_extremal_checks_every_cell_before_building(cells, monkeypatch, capsys):
    def build(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(enumeration, "_level", build)
    rc, out, err = run(capsys, ["verify-extremal", *cells])
    assert (rc, out, err) == (2, "", "error: generation capped at n <= 9, got n=10\n")


def test_verify_extremal_cap(capsys):
    rc, out, err = run(capsys, ["verify-extremal", "--n", "12"])
    assert rc == 2 and "capped" in err


def test_verify_extremal_deterministic_across_workers(capsys):
    from somborkit import enumeration

    rc1, out1, _ = run(capsys, ["verify-extremal", "--n", "6", "--index", "sored"])
    enumeration._level_cache.clear()
    rc2, out2, _ = run(
        capsys, ["verify-extremal", "--n", "6", "--index", "sored", "--workers", "2"]
    )
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_bounds_universe(pipe):
    rc, out, err = pipe(
        ["enumerate", "--n", "5", "--universe", "connected"],
        ["verify-bounds", "--bounds", "zagreb-sandwich"],
    )
    assert rc == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "bound_id,graph6,lhs,rhs,slack,holds,equality,class_match,vacuous"
    # summary block at the end
    assert lines[-2] == "graphs,reports,holds,equality,vacuous,violations,anomalies"
    assert lines[-1].endswith(",0,0")


def test_verify_bounds_flags_known_degree_sum_failures(pipe):
    rc, out, err = pipe(
        ["enumerate", "--n", "5", "--universe", "connected"],
        ["verify-bounds", "--bounds", "degree-sum-upper"],
    )
    assert rc == 1
    assert "violation" in err
    assert any(line.startswith("degree-sum-upper,D~_,") for line in out.splitlines())
    assert canonical_form(parse_graph6("D~_")) == canonical_form(K4_PENDANT)


def test_verify_bounds_from_file(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    src.write_text("D?{\nBW\n")
    rc, out, err = run(capsys, ["verify-bounds", "--input", str(src), "--bounds", "so-red-upper"])
    assert rc == 0, err
    rows = [line for line in out.splitlines() if line.startswith("so-red-upper,")]
    assert len(rows) == 2


def test_verify_bounds_reports_the_order_zero_graph(monkeypatch, capsys, pipe):
    """The order-0 graph gets 12 vacuous all-zero reports instead of
    aborting the run, from a generated universe and from input alike;
    the exit status then reflects the other graphs.  `compute` still
    rejects the line."""
    order_zero = ["?,0,0,0,true,false,false,true"] * 12
    rc, out, err = pipe(["enumerate", "--n", "0..1", "--universe", "all"], ["verify-bounds"])
    assert rc == 0, err
    lines = out.splitlines()
    assert [line.split(",", 1)[1] for line in lines[1:13]] == order_zero
    assert lines[-1] == "2,24,7,7,17,0,0"

    monkeypatch.setattr("sys.stdin", io.StringIO("?\nDJ{\n"))
    rc, out, err = run(capsys, ["verify-bounds", "--input", "-"])
    assert rc == 1 and "1 violation(s)" in err
    lines = out.splitlines()
    assert [line.split(",", 1)[1] for line in lines[1:13]] == order_zero
    assert any(line.startswith("degree-sum-upper,DJ{,") for line in lines)

    monkeypatch.setattr("sys.stdin", io.StringIO("?\n"))
    rc, out, err = run(capsys, ["compute", "--input", "-"])
    assert rc == 1 and "line 1" in err and "order-0" in err


def test_verify_bounds_parse_error_names_the_line_and_prints_no_report(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    src.write_text("D?{\n\nBW\nD?\nDJ{\n")
    rc, out, err = run(capsys, ["verify-bounds", "--input", str(src)])
    assert rc == 1 and out == ""
    assert err == "error: line 4: body length 1 does not match n=5 (expected 2 bytes)\n"


def test_verify_bounds_prints_long_headers_in_short_form(monkeypatch, capsys):
    g = graph_from_edges(12, [(0, 1), (1, 2), (5, 11)])
    short = encode_graph6(g)
    long_form = "~??" + chr(12 + 63) + short[1:]
    big = graph_from_edges(63, [(0, 62)])
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{long_form}\n  {encode_graph6(big)}\n"))
    rc, out, err = run(capsys, ["verify-bounds", "--input", "-", "--bounds", "so-red-upper"])
    assert rc == 0, err
    rows = out.splitlines()[1:3]
    assert [row.split(",")[1] for row in rows] == [short, encode_graph6(big)]
    assert encode_graph6(big).startswith("~")


@pytest.mark.parametrize("module", ["somborkit", "somborkit.cli"])
def test_runs_as_a_module(module):
    """``python -m somborkit`` and ``python -m somborkit.cli`` run the CLI."""

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            env=module_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )

    done = run_module("enumerate", "--n", "3", "--universe", "all")
    assert (done.returncode, done.stdout, done.stderr) == (0, "B?\nBG\nBo\nBw\n", "")
    assert canonical_form(parse_graph6("Bo")) == canonical_form(path(3))
    done = run_module("enumerate", "--n", "11")
    assert done.returncode == 2 and done.stdout == "" and "capped" in done.stderr


def test_imports_only_the_standard_library():
    """The package is pure stdlib: importing every one of its modules,
    without site-packages, loads no other top-level module.  Its records
    are named tuples, so ``dataclasses`` is not loaded either.  Dunder
    names such as ``__mp_main__`` come from the runtime."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import somborkit, somborkit.bounds, somborkit.cli, somborkit.enumeration\n"
        "import somborkit.families, somborkit.graphs, somborkit.indices\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(name for name in new if name != 'somborkit'"
        " and not name.startswith('__')"
        " and (name not in sys.stdlib_module_names or name == 'dataclasses'))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=module_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "\n", "")


def test_bare_import_loads_no_submodule():
    """The package root re-exports nothing: importing ``somborkit`` alone
    loads no ``somborkit.*`` module."""
    probe = (
        "import sys\n"
        "import somborkit\n"
        "print(sorted(name for name in sys.modules if name.startswith('somborkit')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=module_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "['somborkit']\n", "")


# the layers and the pool modules whose loading each command decides, and
# the class-generation modules that no command loads
WATCHED = (
    "somborkit.bounds", "somborkit.enumeration", "concurrent.futures.process", "multiprocessing",
    "dataclasses", "inspect",
)
GENERATION = {"somborkit.enumeration", "concurrent.futures.process", "multiprocessing"}


# each command, with its arguments and the WATCHED modules it loads
COMMANDS = {
    "construct": (["construct", "path", "3"], set()),
    "compute": (["compute", "--input", "{}"], {"somborkit.bounds"}),
    "verify-bounds": (["verify-bounds", "--input", "{}"], {"somborkit.bounds"}),
    "enumerate": (["enumerate", "--n", "5"], GENERATION),
    "verify-extremal": (["verify-extremal", "--n", "5"], GENERATION),
}


def _run_command(argv, tmp_path, report: str) -> subprocess.CompletedProcess:
    """Run one CLI command in a fresh process, ``{}`` in argv standing for
    a two-line graph6 file, and print its exit status and then the Python
    expression ``report``, evaluated after the command."""
    src = tmp_path / "in.g6"
    src.write_text("D?{\nBW\n")
    probe = (
        "import sys\n"
        "from somborkit.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(code, {report})\n"
    )
    argv = [arg.format(src) for arg in argv] + ["--output", str(tmp_path / "out")]
    return subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=module_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("argv, loaded", COMMANDS.values(), ids=COMMANDS)
def test_each_command_loads_only_the_layers_it_runs(argv, loaded, tmp_path):
    """A CLI process imports ``bounds`` only for the commands that check
    input lines, and the generation layer, with the process pool's
    modules, only for the commands that generate graphs.  No command
    loads ``dataclasses`` or ``inspect``."""
    report = f"sorted(name for name in {WATCHED!r} if name in sys.modules)"
    done = _run_command(argv, tmp_path, report)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"0 {sorted(loaded)}\n", "")


def test_every_module_is_run_by_some_command(tmp_path):
    """The package holds what the CLI runs: the commands above load, between
    them, every module of ``src/somborkit``.  ``__main__`` is left out;
    ``test_runs_as_a_module`` runs it."""
    package = Path(somborkit.__file__).parent
    modules = {
        "somborkit" if file.stem == "__init__" else f"somborkit.{file.stem}"
        for file in package.glob("*.py")
        if file.stem != "__main__"
    }
    report = "*(name for name in sys.modules if name.partition('.')[0] == 'somborkit')"
    loaded = set()
    for argv, _ in COMMANDS.values():
        done = _run_command(argv, tmp_path, report)
        code, *names = done.stdout.split()
        assert (done.returncode, code, done.stderr) == (0, "0", ""), argv
        loaded.update(names)
    assert loaded == modules


def test_every_private_name_is_used_in_the_package():
    """Each module-level private name of ``src/somborkit`` (a leading
    underscore, dunders aside) is loaded somewhere in the package outside
    its own definition, so a helper whose work has moved elsewhere cannot
    stay behind without a caller."""
    defined = {}  # private name -> the top-level statement defining it
    loads = []  # (name loaded, the top-level statement holding the load)
    for file in sorted(Path(somborkit.__file__).parent.glob("*.py")):
        for stmt in ast.parse(file.read_text(), str(file)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)]
            else:
                names = []
            defined.update((name, stmt) for name in names if name[0] == "_" and name[-2:] != "__")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loads.append((node.id, stmt))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loads.append((node.attr, stmt))
    unused = [
        name
        for name, where in defined.items()
        if not any(loaded == name and stmt is not where for loaded, stmt in loads)
    ]
    assert len(defined) > 10 and unused == []


def test_the_layer_names_resolve_on_access():
    """``cli`` binds no name of ``bounds`` or ``enumeration`` at import
    time; ``cli.all_graphs`` is looked up in its layer on access, and any
    other name, such as ``run_suite``, raises ``AttributeError``."""
    assert cli.all_graphs is enumeration.all_graphs
    for name in ("run_suite", "no_such_name"):
        assert not hasattr(cli, name)


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
@pytest.mark.parametrize(
    "argv",
    [
        # construct and compute end in a process that never loaded the generation layer
        pytest.param(["construct", "path", "3"], id="construct"),
        pytest.param(["compute", "--input", "{}"], id="compute"),
        pytest.param(["enumerate", "--n", "7", "--universe", "all"], id="enumerate"),
        pytest.param(["verify-bounds", "--input", "{}"], id="verify-bounds"),
        # the first line written comes after a level built in the pool
        pytest.param(
            ["enumerate", "--n", "8", "--m", "10", "--universe", "all", "--workers", "2"],
            id="enumerate-workers",
        ),
        pytest.param(["verify-extremal", "--n", "8", "--workers", "2"], id="verify-extremal-workers"),
    ],
)
def test_a_closed_stdout_stops_the_cli_quietly(argv, tmp_path):
    """Like any filter, the CLI ends on SIGPIPE when the reader of its
    output has gone (``somborkit enumerate ... | head -1``): no traceback,
    and not exit 1, which means a violation or a bad input line.  It
    leaves no process behind: forked pool workers would otherwise wait
    for work forever, as orphans.  Unbuffered, the CLI writes each line as
    it prints it, so the write that fails comes while the pool is up."""
    src = tmp_path / "in.g6"
    src.write_text("D?{\nBW\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.Popen(
            [sys.executable, "-m", "somborkit", *(arg.format(src) for arg in argv)],
            env={**module_env(), "PYTHONUNBUFFERED": "1"},
            stdout=write_end,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
    finally:
        os.close(write_end)
    try:
        _, err = child.communicate(timeout=60)
        assert (child.returncode, err) == (-signal.SIGPIPE, b"")
        for _ in range(50):
            try:
                os.killpg(child.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        else:
            pytest.fail("a process of the CLI's group outlived it by 5 s")
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def test_enumerate_checks_every_level_before_writing(tmp_path, capsys, pipe):
    rc, out, err = run(capsys, ["enumerate", "--n", "8..10"])
    assert rc == 2 and out == "" and "capped at n <= 9" in err
    dest = tmp_path / "out.g6"
    rc, out, err = run(capsys, ["enumerate", "--n", "3..10", "--output", str(dest)])
    assert rc == 2 and not dest.exists()
    # the CSV row of the order-0 graph needs indices, which are undefined
    rc, out, err = pipe(["enumerate", "--n", "0..3", "--universe", "all"], ["compute"])
    assert rc == 1 and out == "" and "order-0" in err
    rc, out, err = pipe(["enumerate", "--n", "0..2"], ["compute"])
    assert rc == 0 and out.splitlines()[0].startswith("graph6,") and len(out.splitlines()) == 3


def test_verify_bounds_checks_every_level_before_building(monkeypatch, pipe):
    """A refused ``enumerate`` builds no level and writes nothing, so the
    pipe fails under pipefail, although ``verify-bounds`` on empty input
    prints the all-zero summary and exits 0."""

    def build(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(enumeration, "_level", build)
    rc, out, err = pipe(["enumerate", "--n", "3..10"], ["verify-bounds"])
    assert (rc, err) == (2, "error: generation capped at n <= 9, got n=10\n")
    assert out.splitlines()[-2:] == [
        "graphs,reports,holds,equality,vacuous,violations,anomalies",
        "0,0,0,0,0,0,0",
    ]


def test_verify_bounds_connected_census(pipe):
    """Every bound over the 996 connected classes with 1 <= n <= 7: the
    only violations are the three known degree-sum counterexamples."""
    rc, out, err = pipe(["enumerate", "--n", "1..7"], ["verify-bounds"])
    assert (rc, err) == (1, "error: 3 violation(s), 0 anomaly(ies)\n")
    lines = out.splitlines()
    assert lines[-1] == "996,11952,10034,2090,1915,3,0"
    reports = [line.split(",") for line in lines[1 : lines.index("")]]
    violations = [(r[0], r[1]) for r in reports if r[5] == "false"]
    assert violations == [("degree-sum-upper", g6) for g6 in ("D~_", "E~a?", "F?C^w")]
    assert canonical_form(parse_graph6("D~_")) == canonical_form(K4_PENDANT)
    # a hub joined to every vertex of a triangle and of K2-bar
    hub_triangle = graph_from_edges(
        6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3)]
    )
    assert canonical_form(parse_graph6("E~a?")) == canonical_form(hub_triangle)


def _reference_field(value) -> str:
    """A CSV field as a generic writer gives it, whatever its type."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _reference_line(values) -> str:
    return ",".join(map(_reference_field, values)) + "\n"


# reference for the typed report row: the fields, in order, through the generic writer
_report_columns = attrgetter(*BoundReport._fields)


def _reference_row(r: BoundReport) -> str:
    return _reference_line(_report_columns(r))


def test_report_row_matches_the_generic_writer(connected_universe):
    """The typed row of every report of ``enumerate --n 1..7 |
    verify-bounds`` and of the order-0 graph is what the generic writer
    gives.  Sides that were ints before ``Bound.check`` made them floats,
    such as m(m-1), are written as the ints were, up to 12 digits."""
    reports = []
    universe = [g for n in range(1, 8) for g in connected_universe[n]]
    run_suite(map(GraphRecord, [*universe, graph_from_edges(0, [])]), list(BOUNDS), reports.extend)
    assert len(reports) == 11952 + 12
    integral = 0
    for r in reports:
        assert cli._report_row(r) == _reference_row(r)
        if r.bound_id in ("so-red-upper", "tree-so-red-upper"):
            integral += 1
            assert cli._report_row(r) == _reference_row(r._replace(rhs=int(r.rhs)))
    assert integral == 2 * len(universe) + 2
    for m in (10**6, 10**6 - 1):  # m(m-1) = 999,999,000,000 < 1e12
        lhs = 0.5 * m * (m - 1)
        r = BoundReport(
            "so-red-upper", "?", lhs, float(m * (m - 1)), lhs, True, False, False, False
        )
        assert cli._report_row(r) == _reference_row(r._replace(rhs=m * (m - 1)))


def test_compute_row_matches_the_generic_writer(full_universe):
    """The typed ``compute`` row of every class with 1 <= n <= 7 is what
    the generic writer gives its fields (m1 as a float)."""
    for n, universe in full_universe.items():
        for g in universe:
            rec = GraphRecord(g)
            nu = g.m - g.n + nx.number_connected_components(to_nx(g))
            s = rec.stats
            values = [rec.graph6, n, g.m, nu, sombor(s), reduced_sombor(s), sombor_shifted(s)]
            assert cli._compute_row(rec) == _reference_line([*values, float(first_zagreb(s))])


@pytest.mark.parametrize("index", ["so", "sored"])
def test_verify_extremal_rows_match_the_generic_writer(index, capsys):
    """Every ``verify-extremal`` row of the cells with n <= 8 is what the
    generic writer gives the cell's report.  A cell of one graph, such as
    each n = 2 and n = 3 cell, has gap inf."""
    rc, out, err = run(capsys, ["verify-extremal", "--n", "2..8", "--index", index])
    assert (rc, err) == (0, "")
    cells = [(n, nu) for n in range(2, 9) for nu in range(n - 1)]
    reports = [enumeration.extremal_search(n, nu, index) for n, nu in cells]
    expected = [cli.EXTREMAL_HEADER + "\n"] + [
        _reference_line(
            [r.n, r.nu, r.universe_size, r.max_value, r.unique, r.runner_up_gap]
            + [";".join(map(encode_graph6, r.maximizers))]
        )
        for r in reports
    ]
    assert out.splitlines(keepends=True) == expected
    assert [r.runner_up_gap for r in reports[:3]] == [math.inf] * 3
    assert all((r.runner_up_gap == math.inf) == (r.universe_size == 1) for r in reports)


def test_verify_extremal_writes_each_row_before_the_next_search(monkeypatch, capsys):
    """A cell's row reaches the output before the next cell is searched,
    the header with the first row, and the rows are those of a plain run."""
    argv = ["verify-extremal", "--n", "4..5"]
    rc, expected, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    search = enumeration.extremal_search
    written = []  # the output written since the previous search, at each search

    def spy(n, nu, *args, **kwargs):
        written.append(capsys.readouterr().out)
        return search(n, nu, *args, **kwargs)

    monkeypatch.setattr(enumeration, "extremal_search", spy)
    rc, rest, err = run(capsys, argv)
    lines = expected.splitlines(keepends=True)
    assert len(lines) == 8  # the header and the cells (4, 0..2) and (5, 0..3)
    assert written == ["", lines[0] + lines[1], *lines[2:-1]]
    assert (rc, rest, err) == (0, lines[-1], "")


def test_verify_bounds_checks_a_repeated_group_once(pipe):
    """``--bounds so-lower so-lower`` writes what ``--bounds so-lower`` does."""
    once = pipe(["construct", "h_graph", "5", "2"], ["verify-bounds", "--bounds", "so-lower"])
    twice = pipe(
        ["construct", "h_graph", "5", "2"], ["verify-bounds", "--bounds", "so-lower", "so-lower"]
    )
    assert twice == once
    assert once[0] == 0 and once[1].splitlines()[-1] == "1,1,1,0,0,0,0"


def test_verify_bounds_full_universe_census(pipe):
    """The four bounds proven on every graph, disconnected ones included,
    hold with no anomaly on all 208 classes with 1 <= n <= 6."""
    bounds = ["so-shifted-upper", "so-red-upper", "epsilon-identities", "zagreb-sandwich"]
    rc, out, err = pipe(
        ["enumerate", "--n", "1..6", "--universe", "all"],
        ["verify-bounds", "--bounds", *bounds],
    )
    assert (rc, err) == (0, "")
    assert out.splitlines()[-2:] == [
        "graphs,reports,holds,equality,vacuous,violations,anomalies",
        "208,1664,1602,509,62,0,0",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--n", "5", "--nu=-1", "--universe", "all"],
        ["verify-extremal", "--n", "5", "--nu=-1"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_nu_is_refused(argv, capsys):
    """--nu selects m = n-1+nu edges; a negative value would select levels
    whose graphs do not have that cyclomatic number."""
    assert run(capsys, argv) == (2, "", "error: --nu must be >= 0, got -1\n")


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--n", "4"], ["verify-extremal", "--n", "4"]],
    ids=lambda argv: argv[0],
)
def test_workers_must_be_positive(argv, capsys):
    assert run(capsys, [*argv, "--workers", "0"]) == (2, "", "error: --workers must be >= 1\n")


@pytest.mark.parametrize("bad", ["3..x", "2..", "..3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--n", "{}"],
        ["enumerate", "--n", "4", "--m", "{}"],
        ["enumerate", "--n", "4", "--nu", "{}"],
        ["verify-extremal", "--n", "{}"],
        ["verify-extremal", "--n", "4", "--nu", "{}"],
    ],
    ids=lambda argv: " ".join(argv[0:1] + argv[-2:-1]),
)
def test_a_malformed_range_is_refused(argv, bad, capsys):
    argv = [arg.format(bad) for arg in argv]
    assert run(capsys, argv) == (2, "", f"error: expected A or A..B, got {bad!r}\n")


def test_verify_bounds_unknown_bound(pipe):
    rc, out, err = pipe(["enumerate", "--n", "4"], ["verify-bounds", "--bounds", "sombor-magic"])
    assert rc == 2 and "unknown bound" in err
    # --bounds takes group names; the report's bound_id column names rows
    rc, out, err = pipe(["enumerate", "--n", "4"], ["verify-bounds", "--bounds", "zagreb-so-upper"])
    assert (rc, out) == (2, "")
    assert err == f"error: unknown bound group(s) ['zagreb-so-upper']; known: {sorted(BOUNDS)}\n"


def _readme_usage() -> dict[str, set[str]]:
    """The --options of each subcommand in README's usage block."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    options: dict[str, set[str]] = {}
    for line in block.strip().splitlines():
        if line.startswith("somborkit "):
            command = options.setdefault(line.split()[1], set())
        command.update(re.findall(r"--[a-z-]+", line))
    return options


def test_readme_usage_lists_every_option():
    subcommands = next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    parser_options = {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in subcommands.items()
    }
    assert _readme_usage() == parser_options


def test_output_to_file(tmp_path, capsys):
    dest = tmp_path / "out.csv"
    rc, _, _ = run(capsys, ["construct", "cycle", "5", "--output", str(dest)])
    assert rc == 0
    assert parse_graph6(dest.read_text().strip()).m == 5
