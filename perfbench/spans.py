"""Per-layer tracing of one in-process CLI run, and the canonical-form probe.

The layers are the somborkit modules ``graphs``, ``indices``, ``families``,
``enumeration``, ``bounds`` and ``cli`` (``majorization`` is on no CLI path).
A span is recorded around every call into a module's public functions.  The
package binds many of these names at import time (``cli.all_graphs``,
``bounds.encode_graph6``, the values of ``enumeration.INDEX_FUNCTIONS`` and
``bounds.BOUND_GROUPS``), so each wrapper is installed at every place the
function is looked up: the globals of every package module and the values of
module-level dicts.  The executor class ``enumeration`` uses is replaced by a
subclass that counts pools.

Spans stay in memory as ``[name, parent, start, end, info]`` and are reduced
to the per-layer metrics when the run ends.

Run as a script, this file is the child process of a traced benchmark run:

    python3 perfbench/spans.py --workload NAME --input PATH --output PATH \\
        --result PATH --trace 0|1 --items N [--probe-seed N]

It runs the workload's CLI call in process, timing ``cli.main`` alone, and
writes a JSON result.  ``--trace 1`` records spans; ``--items`` is the
workload's item count for the per-graph ratios; ``--probe-seed`` times
``canonical_form`` on a seeded relabeling of every output line afterwards.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import importlib
import inspect
import json
import random
import sys
from time import perf_counter

LAYERS = ("graphs", "indices", "families", "enumeration", "bounds", "cli")
GENERATORS = frozenset({"enumeration.all_graphs", "enumeration.connected_graphs"})
SEARCH = "enumeration.extremal_search"
RUN_SUITE = "bounds.run_suite"


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pools_created = 0
        self._stack: list[int] = []

    def wrap(self, fn, name: str, info=None):
        """``fn`` with a span named ``name``; ``info(args, kwargs, result)``
        annotates the span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if info is not None:
                record[4] = info(args, kwargs, result)
            return result

        return traced

    def count_pools(self, executor: type) -> type:
        tracer = self

        class CountedExecutor(executor):
            def __init__(self, *args, **kwargs):
                tracer.pools_created += 1
                super().__init__(*args, **kwargs)

        return CountedExecutor

    def install(self) -> None:
        """Wrap every public function of the layer modules where it is
        looked up.  somborkit must already be importable."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"somborkit.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and attr[0] != "_":
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self.wrap(obj, name, _annotator(name, obj))
        for modname, module in list(sys.modules.items()):
            if modname != "somborkit" and not modname.startswith("somborkit."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in wrappers:
                            obj[key] = wrappers[value]
        enumeration = sys.modules["somborkit.enumeration"]
        for attr, obj in list(vars(enumeration).items()):
            if isinstance(obj, type) and issubclass(obj, concurrent.futures.Executor):
                setattr(enumeration, attr, self.count_pools(obj))


def _annotator(name: str, fn):
    """What a span of ``name`` records besides its times: (n, m, classes
    returned) for generation, the edge count of the argument for indices."""
    if name in GENERATORS:
        signature = inspect.signature(fn)

        def level(args, kwargs, result):
            bound = signature.bind(*args, **kwargs).arguments
            return (bound["n"], bound["m"], len(result))

        return level
    if name.startswith("indices."):
        return lambda args, kwargs, result: args[0].m
    return None


def layer_metrics(spans: list[list], items: int) -> dict[str, float]:
    """Reduce spans to the per-layer metrics.  ``items`` is the workload's
    item count (classes, universe graphs or input graphs)."""
    names = [s[0] for s in spans]
    layer = [name.split(".", 1)[0] for name in names]
    dur = [s[3] - s[2] for s in spans]
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[1] >= 0:
            children[s[1]].append(i)

    def outermost(pred) -> list[int]:
        """Spans matching pred with no matching ancestor (parents precede
        their children in the list)."""
        under = [False] * len(spans)
        found = []
        for i, s in enumerate(spans):
            p = s[1]
            under[i] = p >= 0 and (under[p] or pred(p))
            if pred(i) and not under[i]:
                found.append(i)
        return found

    def named(name: str) -> list[int]:
        return [i for i, n in enumerate(names) if n == name]

    def own_layer_time(i: int) -> float:
        """Duration minus the time covered by nested spans of other layers."""
        return dur[i] - sum(foreign(c, layer[i]) for c in children[i])

    def foreign(i: int, home: str) -> float:
        if layer[i] != home:
            return dur[i]
        return sum(foreign(c, home) for c in children[i])

    def total(idx) -> float:
        return sum(dur[i] for i in idx)

    gen = outermost(lambda i: names[i] in GENERATORS)
    gen_s = total(gen)
    classes = sum(spans[i][4][2] for i in gen)
    search = named(SEARCH)
    encode = named("graphs.encode_graph6")
    stats = named("graphs.edge_stats")
    indices = outermost(lambda i: layer[i] == "indices")
    indices_s = total(indices)
    return {
        "enumeration.gen_s": gen_s,
        "enumeration.gen_upper_half_s": total(
            i for i in gen if 4 * spans[i][4][1] > spans[i][4][0] * (spans[i][4][0] - 1)
        ),
        "enumeration.level_max_s": max((dur[i] for i in gen), default=0.0),
        "enumeration.classes_per_gen_s": classes / gen_s if gen_s else 0.0,
        "enumeration.extremal_search.self_s": sum(
            dur[i] - total(children[i]) for i in search
        ),
        "enumeration.extremal_cell_max_s": max((dur[i] for i in search), default=0.0),
        "graphs.encode_graph6.calls_per_graph": len(encode) / items,
        "graphs.encode_graph6.s": total(encode),
        "graphs.parse_graph6.s": total(named("graphs.parse_graph6")),
        "graphs.edge_stats.calls_per_graph": len(stats) / items,
        "graphs.edge_stats.s": total(stats),
        "indices.evals_per_graph": len(indices) / items,
        "indices.s": indices_s,
        "indices.edges_per_s": sum(spans[i][4] for i in indices) / indices_s if indices_s else 0.0,
        "families.s": total(outermost(lambda i: layer[i] == "families")),
        "bounds.run_suite.self_s": sum(own_layer_time(i) for i in outermost(
            lambda i: names[i] == RUN_SUITE
        )),
        "cli.self_s": sum(own_layer_time(i) for i in outermost(lambda i: layer[i] == "cli")),
    }


def canonical_probe(lines: list[str], seed: int) -> dict[str, float]:
    """Mean ``canonical_form`` time on a seeded relabeling of every graph,
    and how many relabeled forms differ from the original's form."""
    from somborkit.enumeration import canonical_form
    from somborkit.graphs import graph_from_edges, parse_graph6

    rng = random.Random(seed)
    cases = []
    for line in lines:
        g = parse_graph6(line)
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        cases.append((canonical_form(g), relabeled))
    start = perf_counter()
    forms = [canonical_form(h) for _, h in cases]
    elapsed = perf_counter() - start
    return {
        "probe_us": elapsed / len(cases) * 1e6,
        "probed": len(cases),
        "mismatches": sum(form != base for form, (base, _) in zip(forms, cases)),
    }


def run_in_process(argv, input_path, output_path, traced: bool, items: int, probe_seed):
    """One in-process CLI run; returns its exit status, the time spent in
    ``cli.main`` and, when traced, the per-layer metrics."""
    from workloads import import_package

    import_package()
    tracer = Tracer()
    if traced:
        tracer.install()
    cli = importlib.import_module("somborkit.cli")
    saved = sys.stdin, sys.stdout
    with open(input_path) as stdin, open(output_path, "w") as stdout:
        sys.stdin, sys.stdout = stdin, stdout
        try:
            start = perf_counter()
            code = cli.main(list(argv))
            main_s = perf_counter() - start
        finally:
            sys.stdin, sys.stdout = saved
    result = {"exit": code, "main_s": main_s}
    if traced:
        result["layers"] = layer_metrics(tracer.spans, items)
        result["layers"]["enumeration.pools_created"] = tracer.pools_created
    if probe_seed is not None:
        with open(output_path) as fh:
            result["probe"] = canonical_probe(fh.read().split(), probe_seed)
    return result


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--items", type=int, required=True)
    parser.add_argument("--probe-seed", type=int, default=None)
    args = parser.parse_args()
    result = run_in_process(
        WORKLOADS[args.workload].argv,
        args.input,
        args.output,
        bool(args.trace),
        args.items,
        args.probe_seed,
    )
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
