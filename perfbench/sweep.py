"""One timed sweep of one benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per repetition, so the in-process
simulation memo, the scaling baselines memo and the peak RSS all start
empty.  The script imports the program, builds the sweep (``setup_s``), runs
it through the public experiment entry points (``sweep_s``), checks every
row against the committed digests in ``reference.json``, and prints one JSON
object as its last line.  With ``--trace 1`` the sweep runs under
:class:`tracer.Tracer` and the per-layer metrics are added.

    python3 perfbench/sweep.py --workload scaling-warm --seed 0 --trace 0

``REPRO_CACHE_DIR`` must point at a private cache root: the result cache is
off, but the ``simblocks`` signature store always writes there.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List, Tuple  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402

#: Three workloads, not more: on a shared host a run needs about ten
#: repetitions to be steady, and the run budget allows that for three.  Each
#: layer is stressed by at least one of them (README.md, "Workloads").
WORKLOADS = ("fig13-cold", "scaling-warm", "autotune")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Output tiles traced per fig13 kernel.  Full traces cost 3-39 s per layer
#: (30 trials), too much for several repetitions per run; 64 tiles keep four
#: dense / eight sparse output blocks per kernel, so the fast path still
#: skips steady-state blocks, and the headline speed-ups match full traces.
FIG13_MAX_OUTPUT_TILES = 64

#: The layer samples a seed picks from.  Host cost of each layer's 30-trial
#: fig13 sweep at ``FIG13_MAX_OUTPUT_TILES``, rescaled by the yardstick
#: (medians of 6 fresh-process runs, interleaved, on a 2-vCPU x86
#: container): BERT-L1 1.75 s, BERT-L2 1.67 s, ResNet50-L2 1.07 s, BERT-L3
#: 1.02 s, ResNet50-L5 0.41 s, ResNet50-L3 0.34 s.  Each sample takes one
#: layer of each pair, and only the five of the eight combinations whose
#: totals lie within 3.07-3.16 s are kept, so samples differ in shape but
#: not in cost: the seed must not move ``sweep_s``.  Layers matching no
#: other layer's cost (ResNet50-L1/L4/L6, GPT-*) are never sampled.
FIG13_SAMPLES = (
    ("BERT-L1", "BERT-L3", "ResNet50-L3"),
    ("BERT-L1", "ResNet50-L2", "ResNet50-L3"),
    ("BERT-L2", "BERT-L3", "ResNet50-L5"),
    ("BERT-L2", "ResNet50-L2", "ResNet50-L3"),
    ("BERT-L2", "ResNet50-L2", "ResNet50-L5"),
)

#: The scaling subset: both machines, two topologies, a spread of core
#: counts and two partition strategies (24 trials).
SCALING_WORKLOADS = ("gemm-compute", "gemm-membound")
SCALING_CORES = (1, 8, 32)
SCALING_STRATEGIES = ("row-block", "2d-cyclic")
SCALING_TOPOLOGIES = ("flat", "dual-socket")

#: The autotune subset: the smoke workload over cores 1 and 2.
AUTOTUNE_OPTIONS = {
    "workload_names": ["sparse-2:4"],
    "cores": [1, 2],
    "topologies": ["flat", "dual-socket"],
}

#: Per-layer metrics each workload must exercise (> 0) or bypass (== 0).  A
#: wrap that misses a binding site reads 0, so this catches it.
COVERAGE: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "fig13-cold": (
        ("kernels.builds", "sim.runs", "runner.trials"),
        ("kernels.shard_s", "memo.keys", "store.gets", "topology.calls", "planner.candidates"),
    ),
    "scaling-warm": (
        (
            "kernels.builds", "kernels.shard_s", "memo.keys", "store.hits",
            "multicore.cores", "topology.calls", "runner.trials",
        ),
        ("sim.runs", "store.puts", "planner.candidates"),
    ),
    "autotune": (
        (
            "kernels.builds", "kernels.shard_s", "planner.candidates", "planner.statics_s",
            "memo.keys", "sim.runs", "store.puts", "topology.calls", "runner.trials",
        ),
        ("store.hits",),
    ),
}


def fig13_layers(seed: int) -> List[str]:
    """The seeded fig13 layer sample: one of ``FIG13_SAMPLES``."""
    return list(random.Random(seed).choice(FIG13_SAMPLES))


def fig13_pool() -> List[str]:
    """Every layer a sample can contain."""
    return sorted({name for sample in FIG13_SAMPLES for name in sample})


def reference_family(workload: str) -> str:
    """The ``reference.json`` section a workload's rows are checked against."""
    return workload.split("-")[0]


def row_digest(row: Dict[str, Any]) -> str:
    from repro.experiments.spec import canonical_json

    return hashlib.sha256(canonical_json(row).encode("utf-8")).hexdigest()


def fig13_row_key(row: Dict[str, Any]) -> str:
    return f"{row['layer']}|{row['pattern']}|{row['engine']}"


def build_sweep(workload: str, layers: List[str]) -> Callable[[], Any]:
    """Construct the workload's sweep; calling the result runs it."""
    from repro.experiments.runner import run_experiment, run_named

    run = {"jobs": 1, "cache": False, "on_failure": "report"}
    if workload == "fig13-cold":
        from repro.experiments.figures import figure13_spec

        spec = figure13_spec(layers=layers, max_output_tiles=FIG13_MAX_OUTPUT_TILES)
        return lambda: run_experiment(spec, **run)
    if workload.startswith("scaling"):
        from repro.experiments.figures import scaling_spec

        machines = [
            entry
            for entry in scaling_spec().axes["workload"]
            if entry["name"] in SCALING_WORKLOADS
        ]
        options = {
            "workloads": machines,
            "cores": list(SCALING_CORES),
            "strategies": list(SCALING_STRATEGIES),
            "topologies": list(SCALING_TOPOLOGIES),
        }
        return lambda: run_named("scaling", options, **run)
    if workload == "autotune":
        return lambda: run_named("autotune", dict(AUTOTUNE_OPTIONS), **run)
    raise ValueError(f"unknown workload {workload!r}")


def check_rows(workload: str, rows: List[Dict[str, Any]], layers: List[str]) -> Tuple[int, int]:
    """(rows expected, rows missing, surplus or differing from the reference)."""
    reference = json.loads(REFERENCE_PATH.read_text())[reference_family(workload)]
    if workload == "fig13-cold":
        got = {fig13_row_key(row): row_digest(row) for row in rows}
        expected = {key: want for key, want in reference.items() if key.split("|")[0] in layers}
        failed = sum(got.get(key) != want for key, want in expected.items())
        return len(expected), failed + len(got.keys() - expected.keys())
    got = [row_digest(row) for row in rows]
    failed = sum(row != want for row, want in zip(got, reference))
    return len(reference), failed + abs(len(got) - len(reference))


def paper_gap(table: Any) -> float:
    """Mean over 4:4/2:4/1:4 of |measured headline speed-up / paper - 1|."""
    from repro.experiments.figures import (
        HEADLINE_BASELINE,
        HEADLINE_PAPER_VALUES,
        HEADLINE_TARGET,
    )

    gaps = []
    for pattern in ("4:4", "2:4", "1:4"):
        measured = table.geomean_speedup(
            "core_cycles_scaled",
            pivot_column="engine",
            baseline=HEADLINE_BASELINE,
            target=HEADLINE_TARGET,
            group_by=("layer",),
            where={"pattern": pattern},
        )
        gaps.append(abs(measured / HEADLINE_PAPER_VALUES[pattern] - 1.0))
    return sum(gaps) / len(gaps)


def coverage_errors(workload: str, layers: Dict[str, float]) -> List[str]:
    exercised, bypassed = COVERAGE[workload]
    errors = [f"{name} is 0 but {workload} exercises it" for name in exercised if not layers[name] > 0]
    errors += [f"{name} is {layers[name]} but {workload} bypasses it" for name in bypassed if layers[name] != 0]
    return errors


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reference",
        action="store_true",
        help="print the row digests of the workload (fig13: the whole layer pool)",
    )
    args = parser.parse_args()

    layers = fig13_pool() if args.reference else fig13_layers(args.seed)
    sweep = build_sweep(args.workload, layers)
    tracer = Tracer() if args.trace else None
    setup_s = time.perf_counter() - STARTED

    with tracer.installed() if tracer else contextlib.nullcontext():
        started = time.perf_counter()
        table = sweep()
        sweep_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.reference:
        digests: Any = (
            {fig13_row_key(row): row_digest(row) for row in table.rows}
            if args.workload == "fig13-cold"
            else [row_digest(row) for row in table.rows]
        )
        print(json.dumps({reference_family(args.workload): digests}))
        return

    expected, failed = check_rows(args.workload, table.rows, layers)
    result: Dict[str, Any] = {
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": expected,
        "failed": failed,
        "paper_gap": paper_gap(table) if args.workload == "fig13-cold" else 0.0,
    }
    if tracer is not None:
        metrics = layer_metrics(tracer, sweep_s)
        result["layers"] = metrics
        result["coverage_errors"] = coverage_errors(args.workload, metrics)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
