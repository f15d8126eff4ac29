"""somborkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` each run of the workload is a fresh ``somborkit``
process, repeated until ``--seconds`` of run time have passed; the
end-to-end metrics are medians over those runs.  ``setup_s`` is the median
time of a trivial CLI call (``construct path 1``) to start and exit.  With
``--trace 1`` the workload runs in process instead, alternately without and
with spans around every layer (see ``spans.py``), giving the per-layer
metrics and ``trace_overhead_frac``.

Every output is checked by the workload's oracle (``oracles.py``); items
whose check fails count in ``failed``.  The last line of standard output is
the JSON result; the lines before it give the run context and each metric
by name and unit.  The benchmark runs the sources under ``src/`` of the
checkout it sits in and exits with status 2 if they are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import ROOT, SRC, WORKLOADS, MissingSourceError, Workload, import_package

BENCH_DIR = Path(__file__).resolve().parent
# The CLI's entry point, reporting the process's peak RSS (VmHWM) on fd 3 at
# exit.  ru_maxrss from wait4 cannot serve: exec keeps the high-water mark of
# the memory the child was spawned from, which is the benchmark's own.
CLI = (
    "import atexit, os\n"
    "atexit.register(lambda: os.write(3, open('/proc/self/status', 'rb').read()))\n"
    "from somborkit.cli import entry\n"
    "entry()"
)
SETUP_ARGV = ("construct", "path", "1")
SETUP_OUTPUT = b"@\n"
SETUP_REPEATS = 11
# A workload's run must end within 180 s; children still running this long
# after it started are killed and the run fails.
DEADLINE_S = 170.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float | None
    exit: int
    output: bytes


class Runner:
    """Starts child processes in a scratch directory inside the checkout and
    measures each one's wall time, CPU time (its own and its reaped
    children's, so pool workers count) and, for CLI runs, peak RSS."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def run(self, argv, stdin: Path | None = None) -> ChildRun:
        out, err, status_file = (self.workdir / name for name in ("stdout", "stderr", "status"))
        create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, str(stdin or os.devnull), os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out), create, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), create, 0o644),
            (os.POSIX_SPAWN_OPEN, 3, str(status_file), create, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, *argv], self.env, file_actions=actions, setpgroup=0
        )
        try:
            pidfd = os.pidfd_open(pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], self.deadline - time.monotonic())
            finally:
                os.close(pidfd)
            if not ready:
                raise TimeoutError(f"{' '.join(argv)} still running at the deadline")
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            _kill_group(pid)
            raise
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        if code not in (0, 1):
            sys.stderr.write(err.read_text(errors="replace")[-2000:])
        status_lines = status_file.read_text().splitlines()
        hwm = [line.split()[1] for line in status_lines if line.startswith("VmHWM:")]
        return ChildRun(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=int(hwm[-1]) / 1024 if hwm else None,
            exit=code,
            output=out.read_bytes(),
        )

    def cli(self, argv, stdin: Path | None = None) -> ChildRun:
        return self.run(("-c", CLI, *argv), stdin)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass


class Tally:
    """Items attempted and failed; an output is checked once per distinct
    (bytes, exit status) and later identical outputs inherit the verdict."""

    def __init__(self, workload: Workload, inputs: list[str] | None) -> None:
        self.workload = workload
        self.inputs = inputs
        self.items = workload.items(inputs)
        self.attempted = 0
        self.failed = 0
        self._verdicts: dict[tuple[str, int], int] = {}

    def check_output(self, output: bytes, code: int) -> None:
        key = (hashlib.sha256(output).hexdigest(), code)
        if key not in self._verdicts:
            problems = self.workload.check(output.decode("ascii", "replace"), code, self.inputs)
            for problem in problems[:10]:
                print(f"# {self.workload.name}: {problem}", file=sys.stderr)
            self._verdicts[key] = min(len(problems), self.items)
        self.count(self.items, self._verdicts[key])

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def _same_output_check(runner: Runner, tally: Tally, reference: bytes, stdin) -> None:
    """Untimed rerun with other settings (``--workers 1``); the output must
    not change."""
    argv = tally.workload.same_output_argv
    if argv is not None:
        other = runner.cli(argv, stdin)
        tally.count(1, int(other.output != reference or other.exit != 0))


def end_to_end(runner: Runner, tally: Tally, stdin, seconds: float) -> tuple[dict, int]:
    """End-to-end metrics and the number of timed CLI runs behind them."""
    setup = [runner.cli(SETUP_ARGV) for _ in range(SETUP_REPEATS)]
    tally.count(len(setup), sum(r.output != SETUP_OUTPUT or r.exit != 0 for r in setup))
    runs: list[ChildRun] = []
    while not runs or sum(r.wall_s for r in runs) < seconds:
        run = runner.cli(tally.workload.argv, stdin)
        tally.check_output(run.output, run.exit)
        runs.append(run)
    _same_output_check(runner, tally, runs[0].output, stdin)
    wall = statistics.median(r.wall_s for r in runs)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "items_per_s": tally.items / wall,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "setup_s": statistics.median(r.wall_s for r in setup),
    }
    return metrics, len(runs)


def traced(runner: Runner, tally: Tally, stdin, seconds: float, seed: int) -> tuple[dict, int]:
    """Pairs of in-process runs, untraced and traced, alternating which goes
    first; returns the per-layer metrics and the number of pairs.  The
    traced output must equal the untraced one byte for byte."""
    workload = tally.workload
    results: dict[bool, list[dict]] = {False: [], True: []}
    outputs: dict[bool, bytes] = {}
    elapsed = 0.0
    while not results[True] or elapsed < seconds:
        order = (False, True) if len(results[True]) % 2 == 0 else (True, False)
        for trace in order:
            result_path = runner.workdir / "result.json"
            argv = [
                str(BENCH_DIR / "spans.py"),
                f"--workload={workload.name}",
                f"--input={stdin or os.devnull}",
                f"--output={runner.workdir / 'inproc.out'}",
                f"--result={result_path}",
                f"--trace={int(trace)}",
                f"--items={tally.items}",
            ]
            if workload.canonical_probe and not trace:
                argv.append(f"--probe-seed={seed}")
            run = runner.run(argv)
            if run.exit != 0:
                raise RuntimeError(f"in-process run of {workload.name} exited {run.exit}")
            result = json.loads(result_path.read_text())
            results[trace].append(result)
            outputs[trace] = (runner.workdir / "inproc.out").read_bytes()
            elapsed += run.wall_s
        tally.check_output(outputs[False], results[False][-1]["exit"])
        tally.count(1, int(outputs[True] != outputs[False]))
    _same_output_check(runner, tally, outputs[False], stdin)
    layers = results[True]
    metrics = {
        name: statistics.median(r["layers"][name] for r in layers) for name in layers[0]["layers"]
    }
    probes = [r["probe"] for r in results[False] if "probe" in r]
    for probe in probes:
        tally.count(probe["probed"], probe["mismatches"])
    metrics["enumeration.canonical_form.probe_us"] = (
        statistics.median(p["probe_us"] for p in probes) if probes else 0.0
    )
    metrics["cli.output_bytes"] = len(outputs[False])
    metrics["trace_overhead_frac"] = (
        statistics.median(r["main_s"] for r in layers)
        / statistics.median(r["main_s"] for r in results[False])
        - 1
    )
    return metrics, len(layers)


def run_context(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "somborkit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }


def bench_one(workload: Workload, args) -> dict:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        runner = Runner(workdir, time.monotonic() + DEADLINE_S)
        inputs = stdin = None
        if workload.make_input is not None:
            inputs = workload.make_input(args.seed)
            stdin = workdir / "input.g6"
            stdin.write_text("".join(line + "\n" for line in inputs))
        tally = Tally(workload, inputs)
        if args.trace:
            metrics, samples = traced(runner, tally, stdin, args.seconds, args.seed)
        else:
            metrics, samples = end_to_end(runner, tally, stdin, args.seconds)
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    print(f"{workload.name}  medians over {samples} {'traced' if args.trace else 'CLI'} run(s)")
    for name, value in metrics.items():
        print(f"{workload.name}  {name:<40} {value:.6g} {UNITS[name]}")
    if not args.trace:
        print(
            f"{workload.name}  {'failed_frac':<40} {tally.failed / tally.attempted:.6g} ratio"
            f" ({tally.failed}/{tally.attempted})"
        )
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        import_package()  # the oracles use its closed forms
    except MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    print("context " + json.dumps({**run_context(args.seed), "workload": args.workload}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(json.dumps(bench_one(WORKLOADS[name], args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
