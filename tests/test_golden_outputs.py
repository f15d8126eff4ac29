"""Golden outputs of the command line, byte for byte.

``GOLDEN`` is the one table of pinned CLI runs that tier-1 checks.  Each
entry holds the argv, the recipe of its stdin, the exit status, the last
line of stdout when that line is the run's summary, and the sha256 of the
whole stdout.  A recipe is either ``("somborkit", *argv)``, the stdout of
that CLI run, or ``("bounds_input", seed)``, the seeded graph6 stream of
the benchmark's ``bounds-large-random`` workload
(``perfbench/workloads.py``).  Every run here is a subprocess, as a user
runs the command.  The full n = 9 pins take minutes and stay in CI.

A change that moves an output edits its entry here, so the diff names
every output that moved.
"""

from __future__ import annotations

import functools
import hashlib
import subprocess
import sys
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
        "55803c517f78d2aeaa937054406a8b1220af07f3657cdd0767c861da78bc1644",
    ),
    Golden(
        "census-all",
        ("verify-bounds",),
        ("somborkit", "enumerate", "--n", "1..7", "--universe", "all"),
        1,
        "1252,15024,12362,2731,2659,3,72",
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
        "4f214b4eee676f565d232616a7adc9322ad8bc5d9388f7c5c23536d173b5a3e2",
    ),
    Golden(
        "verify-bounds-benchmark-input",
        ("verify-bounds",),
        ("bounds_input", "1"),
        1,
        "1500,18000,14560,2850,3440,0,20",
        "9b2758a6963a08f718766b9895b77d21b8dfae4af90655eca8987476a23a560f",
    ),
)


def _run(argv, stdin: bytes = b"", cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], input=stdin, capture_output=True, env=module_env(), cwd=cwd,
        timeout=120,
    )


@functools.cache
def _stdin(recipe: tuple[str, ...]) -> bytes:
    kind, *args = recipe
    if kind == "somborkit":
        done = _run(["-m", "somborkit", *args])
    else:
        assert kind == "bounds_input", recipe
        script = "import sys, workloads; print('\\n'.join(workloads.bounds_input(int(sys.argv[1]))))"
        done = _run(["-c", script, *args], cwd=PERFBENCH)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("golden", GOLDEN, ids=[g.name for g in GOLDEN])
def test_golden_output(golden):
    done = _run(["-m", "somborkit", *golden.argv], _stdin(golden.stdin))
    assert done.returncode == golden.status, done.stderr.decode()
    if golden.summary is not None:
        assert done.stdout.decode().splitlines()[-1] == golden.summary
    assert hashlib.sha256(done.stdout).hexdigest() == golden.sha256
