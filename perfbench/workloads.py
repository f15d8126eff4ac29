"""The benchmark's workloads, their seeded inputs, and the checkout they run.

Three workloads run the ``somborkit`` command line, each stressing other
layers of the package:

``enum-all-n8``
    Every isomorphism class on 8 vertices (``enumerate --universe all``),
    built level by level from a cold cache.  All 29 edge levels are
    generated, half of them above the middle level, and no index or bound
    runs.  One process: the plain generation baseline.
``extremal-sparse-n9``
    ``verify-extremal`` over n = 4..9 and nu = 0..2 with two workers: 1,599
    sparse connected classes (trees, unicyclic and bicyclic graphs) with
    large automorphism groups.  The only workload on the process-pool path.
``bounds-large-random``
    ``verify-bounds`` on a graph6 stream drawn from the seed, with orders
    above the generation cap.  No generation at all: graph6 parsing, index
    evaluation, the bound suite and CSV output.

The first two are exhaustive, so the seed does not change their input; it
only picks the relabelings of the canonical-form probe.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "somborkit"


class MissingSourceError(RuntimeError):
    """The checkout does not hold the somborkit sources."""


def require_source() -> None:
    if not (PACKAGE_DIR / "cli.py").is_file():
        raise MissingSourceError(f"somborkit sources not found under {SRC}")


def import_package():
    """Import somborkit from this checkout's ``src`` and nowhere else."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import somborkit

    if Path(somborkit.__file__).resolve().parent != PACKAGE_DIR:
        raise MissingSourceError(f"somborkit imported from {somborkit.__file__}, not {SRC}")
    return somborkit


# --- seeded graph6 input for bounds-large-random ---------------------------

BOUNDS_GRAPHS = 1500
BOUNDS_MIN_N = 10
BOUNDS_MAX_N = 64
BOUNDS_MIN_P = 0.02
BOUNDS_MAX_P = 0.6


def encode_graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """Standard graph6 for n <= 64 (long size header above 62)."""
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        u, v = min(u, v), max(u, v)
        bits[v * (v - 1) // 2 + u] = 1
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[i : i + 6])), 2)) for i in range(0, len(bits), 6)
    )
    return head + body


def bounds_input(seed: int, count: int = BOUNDS_GRAPHS) -> list[str]:
    """``count`` random graphs as graph6 lines, a pure function of ``seed``.

    Order n is uniform on 10..64 and edge probability p uniform on
    0.02..0.6, each drawn by stratified sampling (one draw per 1/count
    slice) with a random pairing and a random order.  The marginals stay
    uniform, but the total work barely changes from seed to seed, so
    run-to-run spread measures the program and not the input size.
    """
    rng = random.Random(seed)
    span_n = BOUNDS_MAX_N - BOUNDS_MIN_N + 1
    orders = [BOUNDS_MIN_N + int((i + rng.random()) * span_n / count) for i in range(count)]
    probs = [
        BOUNDS_MIN_P + (BOUNDS_MAX_P - BOUNDS_MIN_P) * (i + rng.random()) / count
        for i in range(count)
    ]
    rng.shuffle(orders)
    rng.shuffle(probs)
    lines = []
    for n, p in zip(orders, probs):
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
        lines.append(encode_graph6(n, edges))
    return lines


# --- workload table ---------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One CLI invocation with its input, item count and output oracle.

    ``items`` counts what the run works through (classes emitted, universe
    graphs searched, input graphs checked); ``check`` takes the output
    text, the exit status and the input lines and returns problems found.
    """

    name: str
    argv: tuple[str, ...]
    items: Callable[[list[str] | None], int]
    check: Callable[[str, int, list[str] | None], list[str]]
    make_input: Callable[[int], list[str]] | None = None
    # Time canonical_form on a seeded relabeling of every output line.
    canonical_probe: bool = False
    # Runs once per benchmark run, untimed; its output must be byte-identical.
    same_output_argv: tuple[str, ...] | None = None


EXTREMAL_ARGV = ("verify-extremal", "--n", "4..9", "--nu", "0..2", "--index", "so")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="enum-all-n8",
            argv=("enumerate", "--n", "8", "--universe", "all", "--workers", "1"),
            items=lambda _: sum(oracles.A008406_ROW8),
            check=lambda out, code, _: oracles.check_enumeration(
                out, code, 8, oracles.A008406_ROW8
            ),
            canonical_probe=True,
        ),
        Workload(
            name="extremal-sparse-n9",
            argv=EXTREMAL_ARGV + ("--workers", "2"),
            items=lambda _: sum(oracles.SPARSE_CONNECTED_CLASSES.values()),
            check=lambda out, code, _: oracles.check_extremal(
                out, code, oracles.SPARSE_CONNECTED_CLASSES
            ),
            same_output_argv=EXTREMAL_ARGV + ("--workers", "1"),
        ),
        Workload(
            name="bounds-large-random",
            argv=("verify-bounds", "--input", "-"),
            items=len,
            check=oracles.check_bounds,
            make_input=bounds_input,
        ),
    )
}
