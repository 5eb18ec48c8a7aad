"""Simulator throughput benchmark (``python -m repro bench``).

Measures trace-op throughput of the cycle-approximate simulator's exact and
fast paths on representative kernel workloads, plus the multi-core path with
and without block-signature memoization, and cross-checks that all paths
agree on cycle counts.  It also times the stages in front of them: a cold
build of each single-core kernel, and a cold ``shard_kernel`` and cold memo
keys of each multi-core one, in trace rows per second.  The CLI writes the
measurements to ``BENCH_simulator.json`` in the repository root so the
performance trajectory of the hottest path in the repository is tracked from
PR to PR (the file is committed, CI uploads it as an artifact, and ``repro
bench --check`` fails when throughput regresses more than 30% against the
committed baseline).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..core.engine import EngineConfig
from ..cpu.columnar import ColumnarTrace
from ..cpu.multicore import clear_simulation_memo, simulate_multicore, simulation_cache_key
from ..cpu.params import default_machine
from ..cpu.simulator import CycleApproximateSimulator
from ..errors import ConfigurationError
from ..kernels.gemm import build_dense_gemm_kernel
from ..kernels.memo import clear_build_memo
from ..kernels.program import KernelProgram
from ..kernels.sharding import shard_kernel
from ..kernels.spgemm import build_spgemm_kernel
from ..kernels.spmm import build_spmm_kernel
from ..types import GemmShape, SparsityPattern
from .runtime import resolve_engine

#: Schema version of the emitted JSON payload.
#: v2: multicore memoization rows, per-workload ``trace_ops_per_sec``, and
#: the repo-root default output path.
#: v3: per-workload fast-path coverage (``fast_blocks_stepped`` /
#: ``fast_blocks_skipped`` / ``fast_coverage``) and absolute speedup floors
#: enforced by ``--check``.
#: v4: same fields, new meaning of the timed repeats: they reuse one trace
#: object, whose derived views (signature ids, oracle script, memo-key
#: hashes, footprints, materialised ops) are built once and kept, so fast and
#: multicore rows time a warm trace — the per-engine / per-topology cost
#: inside a sweep, not the one-off view build.
#: v5: build throughput — ``build_rows_per_sec`` (cold kernel build, per
#: single-core workload) and ``shard_rows_per_sec`` (cold ``shard_kernel``,
#: per multi-core workload), both gated by ``--check``; ``build_seconds``
#: is now the best of the cold repeats.
#: v6: ``key_seconds`` / ``key_rows_per_sec`` (memo keys of every shard on
#: fresh traces with no derived views, per multi-core workload), gated.
BENCH_SCHEMA_VERSION = 6

def _default_bench_path() -> str:
    """The repo-root payload path, regardless of the CLI's CWD.

    With a src-layout checkout (editable install / ``PYTHONPATH=src``) the
    repository root is three levels above this module
    (``src/repro/analysis`` -> repo root), recognisable by its
    ``pyproject.toml``.  For a plain site-packages install there is no repo
    root to anchor to, so the CWD is used.
    """
    root = Path(__file__).resolve().parents[3]
    if (root / "pyproject.toml").exists():
        return str(root / "BENCH_simulator.json")
    return "BENCH_simulator.json"


#: Default output file (resolved once at import).
DEFAULT_BENCH_PATH = _default_bench_path()

#: Throughput-regression gate of ``repro bench --check``.
REGRESSION_THRESHOLD = 0.30

#: Repeats of a cold build / shard / key timing: each takes milliseconds, so
#: the minimum of many repeats is what keeps ``--check`` steady across runs.
BUILD_REPEATS = 20

#: The throughput fields ``--check`` gates, per suite.
GATED_METRICS = (
    ("workloads", "fast_ops_per_sec"),
    ("workloads", "build_rows_per_sec"),
    ("multicore_workloads", "memo_ops_per_sec"),
    ("multicore_workloads", "shard_rows_per_sec"),
    ("multicore_workloads", "key_rows_per_sec"),
)

#: Absolute fast-vs-exact speedup floors ``--check`` enforces per workload,
#: independent of the committed baseline.  These encode the structural
#: guarantees of the fast path — the SpGEMM kernel's padded layouts and
#: issue-aligned blocks must keep the steady-state detector locked (≥ 8x
#: means nearly all of its 128 blocks were skipped, not stepped), so a change
#: that silently knocks the kernel out of the fast path fails the gate even
#: if wall-clock throughput only regresses gradually.
SPEEDUP_FLOORS: Dict[str, float] = {
    "spgemm-2:4-256x256x1024": 8.0,
}


@dataclass(frozen=True)
class BenchWorkload:
    """One single-core benchmark point: a kernel plus the engine that runs it."""

    name: str
    shape: GemmShape
    pattern: SparsityPattern
    engine_name: str
    kind: str = "auto"

    def build(self) -> KernelProgram:
        """Generate the untruncated kernel trace for this workload."""
        if self.kind == "spgemm":
            return build_spgemm_kernel(self.shape, self.pattern)
        if self.pattern is SparsityPattern.DENSE_4_4:
            return build_dense_gemm_kernel(self.shape)
        return build_spmm_kernel(self.shape, self.pattern)

    def engine(self) -> EngineConfig:
        """Resolve the engine configuration."""
        return resolve_engine(self.engine_name)


@dataclass(frozen=True)
class MulticoreBenchWorkload:
    """One multi-core benchmark point: a sharded kernel under the arbiter.

    ``topology`` names a :data:`repro.cpu.params.TOPOLOGY_PRESETS` entry to
    arbitrate under (None = the ``flat`` preset).
    """

    name: str
    kind: str
    shape: GemmShape
    pattern: SparsityPattern
    engine_name: str
    cores: int
    strategy: str
    topology: Optional[str] = None

    def engine(self) -> EngineConfig:
        return resolve_engine(self.engine_name)

    def resolve_topology(self):
        if self.topology is None:
            return None
        from ..cpu.params import get_topology

        return get_topology(self.topology)


#: The single-core benchmark workloads: a long dense K-loop kernel (the
#: Figure 13 hot path), a structured-sparse kernel with output forwarding, a
#: sparse x sparse kernel (stream-merge feed overhead), and the quick-suite
#: dense point so ``--quick --check`` compares like against like.
DEFAULT_WORKLOADS = (
    BenchWorkload(
        name="dense-512x512x1024",
        shape=GemmShape(512, 512, 1024),
        pattern=SparsityPattern.DENSE_4_4,
        engine_name="VEGETA-D-1-2",
    ),
    BenchWorkload(
        name="spmm-2:4-512x512x1024",
        shape=GemmShape(512, 512, 1024),
        pattern=SparsityPattern.SPARSE_2_4,
        engine_name="VEGETA-S-16-2+OF",
    ),
    BenchWorkload(
        name="spgemm-2:4-256x256x1024",
        shape=GemmShape(256, 256, 1024),
        pattern=SparsityPattern.SPARSE_2_4,
        engine_name="VEGETA-S-16-2+OF+SPGEMM",
        kind="spgemm",
    ),
    BenchWorkload(
        name="dense-256x256x512",
        shape=GemmShape(256, 256, 512),
        pattern=SparsityPattern.DENSE_4_4,
        engine_name="VEGETA-D-1-2",
    ),
)

#: The multi-core workloads: the scaling sweep's hot shapes, sharded.
DEFAULT_MULTICORE_WORKLOADS = (
    MulticoreBenchWorkload(
        name="mc-gemm-16x-row-block",
        kind="gemm",
        shape=GemmShape(256, 256, 1024),
        pattern=SparsityPattern.DENSE_4_4,
        engine_name="VEGETA-S-16-2+OF+SPGEMM",
        cores=16,
        strategy="row-block",
    ),
    MulticoreBenchWorkload(
        name="mc-spmm-2:4-8x-column-block",
        kind="spmm",
        shape=GemmShape(256, 256, 1024),
        pattern=SparsityPattern.SPARSE_2_4,
        engine_name="VEGETA-S-16-2+OF+SPGEMM",
        cores=8,
        strategy="column-block",
    ),
    MulticoreBenchWorkload(
        name="mc-spgemm-2:4-16x-2d-cyclic",
        kind="spgemm",
        shape=GemmShape(256, 256, 1024),
        pattern=SparsityPattern.SPARSE_2_4,
        engine_name="VEGETA-S-16-2+OF+SPGEMM",
        cores=16,
        strategy="2d-cyclic",
    ),
    MulticoreBenchWorkload(
        name="mc-gemm-8x-row-block-512",
        kind="gemm",
        shape=GemmShape(256, 256, 512),
        pattern=SparsityPattern.DENSE_4_4,
        engine_name="VEGETA-S-16-2+OF+SPGEMM",
        cores=8,
        strategy="row-block",
    ),
    # The rack-scale point: 128 cores (2 block-grid cells each) placed on
    # the dual-socket topology, domain-aligned 2D-cyclic partition.  This is
    # the regime block memoization exists for — 128 private simulations
    # collapse into a handful of signature classes.
    MulticoreBenchWorkload(
        name="mc-gemm-128x-dual-socket",
        kind="gemm",
        shape=GemmShape(512, 512, 512),
        pattern=SparsityPattern.DENSE_4_4,
        engine_name="VEGETA-S-16-2+OF+SPGEMM",
        cores=128,
        strategy="2d-cyclic",
        topology="dual-socket",
    ),
)

#: Scaled-down workloads for smoke runs — strict subsets of the default
#: suites (matched by name, pinned by tests), so ``--quick --check`` can
#: compare by name against the committed full-suite baseline.
QUICK_WORKLOADS = tuple(
    workload for workload in DEFAULT_WORKLOADS if workload.name == "dense-256x256x512"
)
QUICK_MULTICORE_WORKLOADS = tuple(
    workload
    for workload in DEFAULT_MULTICORE_WORKLOADS
    if workload.name == "mc-gemm-8x-row-block-512"
)


def select_workloads(
    names: Sequence[str],
    workloads: Sequence[BenchWorkload],
    multicore_workloads: Sequence[MulticoreBenchWorkload],
) -> tuple:
    """Restrict both benchmark suites to the given workload names.

    Backs ``repro bench --workload``: each requested name must match a
    workload in one of the suites (single-core and multi-core names share a
    namespace), and the suite order is preserved so a filtered run measures
    the same rows a full run would.
    """
    known = {workload.name for workload in workloads} | {
        workload.name for workload in multicore_workloads
    }
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ConfigurationError(
            f"unknown workload(s) {', '.join(sorted(unknown))}; "
            f"available: {', '.join(sorted(known))}"
        )
    wanted = set(names)
    return (
        tuple(workload for workload in workloads if workload.name in wanted),
        tuple(
            workload
            for workload in multicore_workloads
            if workload.name in wanted
        ),
    )


def parse_shape(text: str) -> GemmShape:
    """Parse an ``MxNxK`` shape argument."""
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ConfigurationError(f"expected a shape like 512x512x1024, got {text!r}")
    try:
        m, n, k = (int(part) for part in parts)
    except ValueError as error:
        raise ConfigurationError(f"invalid shape {text!r}: {error}") from error
    return GemmShape(m=m, n=n, k=k)


def _geomean(values: Sequence[float]) -> float:
    from ..experiments.results import geomean

    return geomean(list(values))


@contextlib.contextmanager
def _quiesced_gc():
    """Keep the cyclic garbage collector out of timed regions.

    The smaller workloads finish a fast-path run in single-digit
    milliseconds, so one generation-2 collection landing inside the timed
    window (its phase depends on how many objects the surrounding process
    has allocated) distorts a measurement by an order of magnitude.  Collect
    up front, time with the collector disabled, and restore it afterwards.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _best_time(run, min_seconds: float = 0.2, max_repeats: int = 5):
    """Time ``run()`` and return ``(result, seconds)`` robustly.

    Short measurements are repeated (up to ``max_repeats`` or until one took
    at least ``min_seconds``) and the *minimum* elapsed time is kept: the
    simulator is deterministic, so the fastest observation is the one least
    disturbed by OS scheduling, and a single descheduling blip cannot turn a
    millisecond-scale measurement into a phantom 10x regression.  Long runs
    are measured once — their relative jitter is negligible.
    """
    best = None
    result = None
    for _ in range(max_repeats):
        with _quiesced_gc():
            started = time.perf_counter()
            result = run()
            elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
        if elapsed >= min_seconds:
            break
    return result, best


def _cold(build):
    """``build`` with the build memo and block templates cleared first."""

    def run():
        clear_build_memo()
        return build()

    return run


def benchmark_workload(workload: BenchWorkload) -> Dict[str, Any]:
    """Measure one workload: a cold build, then exact and fast runs over its trace."""
    program, build_seconds = _best_time(_cold(workload.build), max_repeats=BUILD_REPEATS)
    trace = program.trace
    engine = workload.engine()
    simulator = CycleApproximateSimulator(engine=engine)

    exact, exact_seconds = _best_time(lambda: simulator.run(trace, mode="exact"))

    # One untimed warm-up run builds the trace's derived views (signature
    # ids, signature ops, oracle script); the timed runs reuse them, as
    # every engine after the first does on a shared trace in a sweep.
    simulator.run(trace)
    fast, fast_seconds = _best_time(lambda: simulator.run(trace))

    cycle_error = abs(fast.core_cycles - exact.core_cycles) / max(exact.core_cycles, 1)
    return {
        "name": workload.name,
        "shape": [workload.shape.m, workload.shape.n, workload.shape.k],
        "pattern": workload.pattern.value,
        "engine": workload.engine_name,
        "trace_ops": len(trace),
        "build_seconds": build_seconds,
        "build_rows_per_sec": len(trace) / build_seconds,
        "exact_seconds": exact_seconds,
        "exact_ops_per_sec": len(trace) / exact_seconds,
        "exact_core_cycles": exact.core_cycles,
        "fast_seconds": fast_seconds,
        "fast_ops_per_sec": len(trace) / fast_seconds,
        "trace_ops_per_sec": len(trace) / fast_seconds,
        "fast_core_cycles": fast.core_cycles,
        "speedup": exact_seconds / fast_seconds,
        "cycle_error": cycle_error,
        "fast_blocks_stepped": fast.fast_blocks_stepped,
        "fast_blocks_skipped": fast.fast_blocks_skipped,
        "fast_coverage": fast.fast_path_coverage,
    }


def benchmark_multicore_workload(workload: MulticoreBenchWorkload) -> Dict[str, Any]:
    """Measure one sharded workload with and without block memoization.

    Trace-op throughput counts every core's ops over the wall-clock of the
    whole ``simulate_multicore`` call — the memoized path does not step the
    replayed cores at all, which is exactly the effect being measured.  The
    memoized and unmemoized makespans are cross-checked for bit-equality.
    "Cold" means an empty simulation memo: the per-core traces keep their
    memo keys, footprints and oracle scripts across repeats, as a sweep's
    topology axis reuses them.  The key stage is timed apart: every shard is
    keyed on a fresh trace over the same columns, with no derived views.
    """
    engine = workload.engine()
    topology = workload.resolve_topology()
    sharded, build_seconds = _best_time(
        _cold(
            lambda: shard_kernel(
                workload.kind,
                workload.shape,
                workload.pattern,
                workload.cores,
                workload.strategy,
                topology=topology,
            )
        ),
        max_repeats=BUILD_REPEATS,
    )
    trace_ops = sum(len(program.trace) for program in sharded.programs)

    def key_cold():
        machine = default_machine()
        for program in sharded.programs:
            trace = program.trace
            fresh = ColumnarTrace(
                trace.columns, trace.labels, trace.geometry, trace.block_starts
            )
            simulation_cache_key(dataclasses.replace(program, trace=fresh), machine, engine, "fast")

    _, key_seconds = _best_time(key_cold, max_repeats=BUILD_REPEATS)

    def run_nomemo():
        clear_simulation_memo()
        return simulate_multicore(
            sharded.programs, engine=engine, topology=topology, memo=False
        )

    def run_memo_cold():
        clear_simulation_memo()
        return simulate_multicore(
            sharded.programs, engine=engine, topology=topology, memo=True
        )

    nomemo, nomemo_seconds = _best_time(run_nomemo)
    memo, memo_seconds = _best_time(run_memo_cold)
    _, memo_warm_seconds = _best_time(
        lambda: simulate_multicore(
            sharded.programs, engine=engine, topology=topology, memo=True
        )
    )
    clear_simulation_memo()

    return {
        "name": workload.name,
        "kind": workload.kind,
        "shape": [workload.shape.m, workload.shape.n, workload.shape.k],
        "pattern": workload.pattern.value,
        "engine": workload.engine_name,
        "cores": workload.cores,
        "strategy": workload.strategy,
        "topology": workload.topology,
        "trace_ops": trace_ops,
        "build_seconds": build_seconds,
        "shard_rows_per_sec": trace_ops / build_seconds,
        "key_seconds": key_seconds,
        "key_rows_per_sec": trace_ops / key_seconds,
        "nomemo_seconds": nomemo_seconds,
        "nomemo_ops_per_sec": trace_ops / nomemo_seconds,
        "memo_seconds": memo_seconds,
        "memo_ops_per_sec": trace_ops / memo_seconds,
        "trace_ops_per_sec": trace_ops / memo_seconds,
        "memo_warm_seconds": memo_warm_seconds,
        "memo_warm_ops_per_sec": trace_ops / memo_warm_seconds,
        "memo_speedup": nomemo_seconds / memo_seconds,
        "makespan_cycles": memo.core_cycles,
        "makespan_cycles_per_sec": memo.core_cycles / memo_seconds,
        "cycle_match": memo.core_cycles == nomemo.core_cycles,
    }


def benchmark_simulator(
    workloads: Optional[Sequence[BenchWorkload]] = None,
    multicore_workloads: Optional[Sequence[MulticoreBenchWorkload]] = None,
) -> Dict[str, Any]:
    """Run the simulator benchmark suite and return the JSON-ready payload."""
    chosen = list(workloads) if workloads is not None else list(DEFAULT_WORKLOADS)
    chosen_multicore = (
        list(multicore_workloads)
        if multicore_workloads is not None
        else list(DEFAULT_MULTICORE_WORKLOADS)
    )
    rows: List[Dict[str, Any]] = [benchmark_workload(workload) for workload in chosen]
    multicore_rows: List[Dict[str, Any]] = [
        benchmark_multicore_workload(workload) for workload in chosen_multicore
    ]
    speedups = [row["speedup"] for row in rows]
    payload: Dict[str, Any] = {
        "schema": BENCH_SCHEMA_VERSION,
        "python": platform.python_version(),
        "workloads": rows,
        "exact_ops_per_sec": _geomean([row["exact_ops_per_sec"] for row in rows]),
        "fast_ops_per_sec": _geomean([row["fast_ops_per_sec"] for row in rows]),
        "build_rows_per_sec": _geomean([row["build_rows_per_sec"] for row in rows]),
        "speedup_geomean": _geomean(speedups),
        "speedup_min": min(speedups),
        "max_cycle_error": max(row["cycle_error"] for row in rows),
    }
    if multicore_rows:
        payload["multicore_workloads"] = multicore_rows
        payload["multicore_nomemo_ops_per_sec"] = _geomean(
            [row["nomemo_ops_per_sec"] for row in multicore_rows]
        )
        payload["multicore_memo_ops_per_sec"] = _geomean(
            [row["memo_ops_per_sec"] for row in multicore_rows]
        )
        payload["multicore_shard_rows_per_sec"] = _geomean(
            [row["shard_rows_per_sec"] for row in multicore_rows]
        )
        payload["multicore_key_rows_per_sec"] = _geomean(
            [row["key_rows_per_sec"] for row in multicore_rows]
        )
        payload["multicore_memo_speedup_geomean"] = _geomean(
            [row["memo_speedup"] for row in multicore_rows]
        )
        payload["multicore_makespan_cycles_per_sec"] = _geomean(
            [row["makespan_cycles_per_sec"] for row in multicore_rows]
        )
        payload["multicore_cycle_match"] = all(
            row["cycle_match"] for row in multicore_rows
        )
    return payload


def compare_benchmarks(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = REGRESSION_THRESHOLD,
) -> List[str]:
    """Per-workload throughput regressions of ``current`` vs ``baseline``.

    Workloads are matched by name across both the single-core and multi-core
    suites (so a ``--quick`` run checks against a committed full-suite
    baseline); a regression is a drop of more than ``threshold`` in one of
    the :data:`GATED_METRICS` (simulated ops or built rows per second),
    or a fast-vs-exact speedup below that workload's absolute floor in
    :data:`SPEEDUP_FLOORS`.  Returns human-readable regression descriptions
    (empty = pass).
    """
    regressions: List[str] = []

    def check(name: str, metric: str, now: float, then: float) -> None:
        if then > 0 and now < then * (1.0 - threshold):
            regressions.append(
                f"{name}: {metric} {now:,.0f}/s vs baseline {then:,.0f}/s "
                f"({now / then - 1.0:+.0%})"
            )

    for suite, metric in GATED_METRICS:
        baseline_rows = {row["name"]: row for row in baseline.get(suite, [])}
        for row in current.get(suite, []):
            reference = baseline_rows.get(row["name"])
            if reference is not None and metric in reference:
                check(row["name"], metric, row[metric], reference[metric])
    for row in current.get("workloads", []):
        floor = SPEEDUP_FLOORS.get(row["name"])
        if floor is not None and row.get("speedup", 0.0) < floor:
            regressions.append(
                f"{row['name']}: fast-path speedup {row['speedup']:.1f}x below "
                f"the {floor:.0f}x floor (stepped "
                f"{row.get('fast_blocks_stepped', '?')} blocks, skipped "
                f"{row.get('fast_blocks_skipped', '?')})"
            )
    return regressions


def load_benchmark(path: str) -> Dict[str, Any]:
    """Read a benchmark payload written by :func:`write_benchmark`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{path} does not hold a benchmark payload")
    return payload


def write_benchmark(payload: Dict[str, Any], path: str = DEFAULT_BENCH_PATH) -> None:
    """Write the benchmark payload as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
