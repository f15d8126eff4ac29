"""Golden outputs of the command line, byte for byte.

This module is the one place where a CLI output is pinned.  Each entry
holds the argv, the recipe of its stdin, the exit status, the last line of
stdout when that line is the run's summary, the whole stderr, and the
sha256 of the whole stdout.  A recipe is ``()``, no input;
``("somborkit", *argv)``, the stdout of that CLI run; or
``("bounds_input", seed)``, the seeded graph6 stream of the benchmark's
``bounds-large-random`` workload (``perfbench/workloads.py``).  Every run
here is a subprocess, as a user runs the command, and ``_check`` compares
it with its entry.

There are two tables:

- ``GOLDEN``, the runs that take about a second or less; tier-1 checks
  each one.
- ``GOLDEN_CI``, the slow runs: full n = 9 (about 10 s on 2 cores), the
  extremal cells to n = 9 (about 4 s per run) and the n = 9 bound
  censuses (about 40 s each, generation included).

Run as a script (``python tests/test_golden_outputs.py``), the module
checks every entry of both tables, prints one line per entry, and exits 1
on any mismatch.  CI runs it so.

A change that moves an output edits its entry here, so the diff names
every output that moved.
"""

from __future__ import annotations

import functools
import hashlib
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest

from conftest import module_env

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class Golden(NamedTuple):
    name: str
    argv: tuple[str, ...]
    stdin: tuple[str, ...]
    status: int
    summary: str | None
    stderr: str
    sha256: str


GOLDEN = (
    # every bound on the classes with 1 <= n <= 7: the 3 degree-sum
    # violations, and on all classes the 72 disconnected lower-bound anomalies
    Golden(
        "census-connected",
        ("verify-bounds",),
        ("somborkit", "enumerate", "--n", "1..7", "--universe", "connected"),
        1,
        "996,11952,10034,2090,1915,3,0",
        "error: 3 violation(s), 0 anomaly(ies)\n",
        "55803c517f78d2aeaa937054406a8b1220af07f3657cdd0767c861da78bc1644",
    ),
    Golden(
        "census-all",
        ("verify-bounds",),
        ("somborkit", "enumerate", "--n", "1..7", "--universe", "all"),
        1,
        "1252,15024,12362,2731,2659,3,72",
        "error: 3 violation(s), 72 anomaly(ies)\n",
        "cbcd3def102f0e3ef94abe9fa7e93da4997137bb24919ffe6e6356a7fe5b6cb9",
    ),
    # README's fourth recipe: four groups on all 208 classes with 1 <= n <= 6
    Golden(
        "selection",
        (
            "verify-bounds", "--bounds",
            "so-shifted-upper", "so-red-upper", "epsilon-identities", "zagreb-sandwich",
        ),
        ("somborkit", "enumerate", "--n", "1..6", "--universe", "all"),
        0,
        "208,1664,1602,509,62,0,0",
        "",
        "5bf6047c59fa92a600d30ca3e6ec808ad82d2ac09337e2ef2892cc949132ecf2",
    ),
    # the benchmark's 1,500 graphs of orders 10..64, with 20 disconnected
    # lower-bound anomalies
    Golden(
        "compute-benchmark-input",
        ("compute",),
        ("bounds_input", "1"),
        0,
        None,
        "",
        "4f214b4eee676f565d232616a7adc9322ad8bc5d9388f7c5c23536d173b5a3e2",
    ),
    Golden(
        "verify-bounds-benchmark-input",
        ("verify-bounds",),
        ("bounds_input", "1"),
        1,
        "1500,18000,14560,2850,3440,0,20",
        "error: 0 violation(s), 20 anomaly(ies)\n",
        "9b2758a6963a08f718766b9895b77d21b8dfae4af90655eca8987476a23a560f",
    ),
    # all 12,346 classes of order 8
    Golden(
        "enumerate-n8",
        ("enumerate", "--n", "8", "--universe", "all"),
        (),
        0,
        None,
        "",
        "a20ff81b3bf2e6120b0a6a861eef89dcba4b112b8f614854049ec2496198db66",
    ),
)

GOLDEN_CI = (
    # all 274,668 classes of order 9
    Golden(
        "enumerate-n9",
        ("enumerate", "--n", "9", "--universe", "all", "--workers", "2"),
        (),
        0,
        None,
        "",
        "3dc3d40ee8ccafd021f59f782b9dbd9dbfc3c430375fc4de37c904f78f20b35b",
    ),
    # every (n, nu) cell with 4 <= n <= 9 for both indices
    Golden(
        "extremal-so",
        ("verify-extremal", "--n", "4..9", "--index", "so", "--workers", "2"),
        (),
        0,
        None,
        "",
        "88fb4dd3267c060cf619dcb6bcd4b173043fa2f1ca97915dfb361793a4dbbe92",
    ),
    Golden(
        "extremal-sored",
        ("verify-extremal", "--n", "4..9", "--index", "sored", "--workers", "2"),
        (),
        0,
        None,
        "",
        "1e2317a4e5bb0116c6e903136d5c83d75898b017312bcd4f4a707b1907ef4dbd",
    ),
    # the so cells with more workers than CPUs: the pool is capped at one
    # worker per CPU and the output must not change
    Golden(
        "extremal-so-workers-1000",
        ("verify-extremal", "--n", "4..9", "--index", "so", "--workers", "1000"),
        (),
        0,
        None,
        "",
        "88fb4dd3267c060cf619dcb6bcd4b173043fa2f1ca97915dfb361793a4dbbe92",
    ),
    # every bound on the classes of order 9: 1 degree-sum violation, and on
    # all classes 78 anomalies
    Golden(
        "census-connected-n9",
        ("verify-bounds",),
        ("somborkit", "enumerate", "--n", "9", "--universe", "connected", "--workers", "2"),
        1,
        "261080,3132960,2611061,522220,521898,1,0",
        "error: 1 violation(s), 0 anomaly(ies)\n",
        "6e29a1e5588a1e75a29b13f5e26b43711d4f4506dbed138f17bcea9e1779b12b",
    ),
    Golden(
        "census-all-n9",
        ("verify-bounds",),
        ("somborkit", "enumerate", "--n", "9", "--universe", "all", "--workers", "2"),
        1,
        "274668,3296016,2742761,547582,553254,1,78",
        "error: 1 violation(s), 78 anomaly(ies)\n",
        "f60b9eec6389dd7b83aac663dd357c48a0ce8670f7dfc0126fc69179382b29bd",
    ),
)


def _run(argv, stdin: bytes = b"", cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], input=stdin, capture_output=True, env=module_env(), cwd=cwd,
        timeout=120,
    )


@functools.cache
def _stdin(recipe: tuple[str, ...]) -> bytes:
    if not recipe:
        return b""
    kind, *args = recipe
    if kind == "somborkit":
        done = _run(["-m", "somborkit", *args])
    else:
        assert kind == "bounds_input", recipe
        script = "import sys, workloads; print('\\n'.join(workloads.bounds_input(int(sys.argv[1]))))"
        done = _run(["-c", script, *args], cwd=PERFBENCH)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def _check(golden: Golden) -> list[str]:
    """Run ``golden`` and return one problem per field that does not match,
    each naming the entry and the field; empty when the run matches."""
    done = _run(["-m", "somborkit", *golden.argv], _stdin(golden.stdin))
    out = done.stdout
    found = {
        "status": done.returncode,
        "stderr": done.stderr.decode(),
        "sha256": hashlib.sha256(out).hexdigest(),
    }
    if golden.summary is not None:
        # the last line alone: decoding a census's 250 MB of stdout to split
        # it would build about 1 GB of strings
        found["summary"] = out[out.rfind(b"\n", 0, -1) + 1:].decode().rstrip("\n")
    return [
        f"{golden.name}: {field} {value!r}, pinned {getattr(golden, field)!r}"
        for field, value in found.items()
        if value != getattr(golden, field)
    ]


@pytest.mark.parametrize("golden", GOLDEN, ids=[g.name for g in GOLDEN])
def test_golden_output(golden):
    assert _check(golden) == []


def test_check_names_each_mismatched_field():
    """A pin that does not match the run is reported by entry and field, so
    the script exits 1 on it."""
    selection = next(g for g in GOLDEN if g.name == "selection")
    for field, value in [("sha256", "0" * 64), ("status", 1), ("stderr", "error: x\n")]:
        problems = _check(selection._replace(**{field: value}))
        assert len(problems) == 1 and problems[0].startswith(f"selection: {field} ")


def main() -> int:
    failed = 0
    for golden in GOLDEN + GOLDEN_CI:
        start = time.perf_counter()
        problems = _check(golden)
        seconds = time.perf_counter() - start
        print(f"{'FAIL' if problems else 'ok':4}  {seconds:5.1f} s  {golden.name}", flush=True)
        for problem in problems:
            print(f"      {problem}", flush=True)
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
