"""``python -m repro`` — run the paper's experiments from the command line.

Subcommands::

    python -m repro list                       # registered experiments
    python -m repro run fig13 --jobs 4         # run a sweep (cached)
    python -m repro dump fig13 --format csv    # run + emit machine-readable
    python -m repro plan                       # best mapping per workload
    python -m repro bench                      # simulator throughput benchmark
    python -m repro chaos scaling --smoke      # fault-injected resilience check
    python -m repro cache info                 # cache statistics + integrity
    python -m repro cache clear                # drop every cached result

``run``/``dump`` accept ``--jobs`` (or the ``REPRO_JOBS`` environment
variable) for the multiprocessing backend, ``--no-cache`` /
``--cache-dir`` (or ``REPRO_CACHE_DIR``) for the result cache and the
``simblocks`` store, ``--max-layers`` / ``--max-output-tiles`` / ``--seed``
/ ``--smoke`` to scale the sweep down (each experiment rejects the sweep
flags it does not read), and the resilience knobs ``--max-retries`` / ``--trial-timeout`` /
``--resume`` (see EXPERIMENTS.md's "Resilience" section).  ``bench``
measures the trace-op throughput of the simulator's exact and fast paths
and writes ``BENCH_simulator.json`` so the performance trajectory is
tracked per commit.  ``chaos`` proves a sweep survives a seeded fault
schedule byte-identically.  See EXPERIMENTS.md for the full tour.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from .errors import ConfigurationError, ExperimentFailure, ReproError
from .experiments.cache import ResultCache
from .experiments.registry import list_experiments
from .experiments.results import ResultTable, format_table
from .experiments.runner import run_named


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the VEGETA (HPCA 2023) evaluation experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the registered experiments")

    subparsers.add_parser(
        "engines",
        help="list the engine catalog with tile-geometry and timing-class columns",
    )

    subparsers.add_parser(
        "topologies",
        help="list the shared-memory topology presets with per-level "
        "capacity/bandwidth columns",
    )

    for command, help_text, default_format in (
        ("run", "run an experiment and print its result table", "table"),
        ("dump", "run an experiment and emit a machine-readable table", "json"),
    ):
        sub = subparsers.add_parser(command, help=help_text)
        sub.add_argument("experiment", help="experiment name (see 'list')")
        sub.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker processes (<=0 = all cores; default: $REPRO_JOBS or 1)",
        )
        sub.add_argument(
            "--no-cache",
            action="store_true",
            help="bypass the on-disk result cache entirely",
        )
        sub.add_argument(
            "--cache-dir",
            default=None,
            help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
        )
        sub.add_argument(
            "--max-layers",
            type=int,
            default=None,
            help="restrict the sweep to the first N Table IV layers",
        )
        sub.add_argument(
            "--max-output-tiles",
            type=int,
            default=None,
            help="output tiles traced per simulation before scaling",
        )
        sub.add_argument(
            "--seed", type=int, default=None, help="generator seed for sampled sweeps"
        )
        sub.add_argument(
            "--smoke",
            action="store_true",
            help="restrict the sweep to its smallest smoke configuration "
            "(spgemm, scaling, backends and autotune; the other experiments "
            "reject it)",
        )
        sub.add_argument(
            "--max-retries",
            type=int,
            default=None,
            help="retries per trial after a transient failure "
            "(default: $REPRO_MAX_RETRIES or 0)",
        )
        sub.add_argument(
            "--trial-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock deadline per trial attempt; hung trials are "
            "killed and retried (default: $REPRO_TRIAL_TIMEOUT or none)",
        )
        sub.add_argument(
            "--resume",
            action="store_true",
            help="resume an interrupted sweep from its checkpoints: rows "
            "persisted before the crash are served from the cache and only "
            "the missing trials re-run (requires the cache)",
        )
        sub.add_argument(
            "--topology",
            action="append",
            default=None,
            metavar="NAME",
            help="restrict the sweep's topology axis to this preset "
            "(repeatable; see 'topologies'; scaling/autotune only)",
        )
        sub.add_argument(
            "--cores",
            default=None,
            metavar="N[,N...]",
            help="restrict the sweep's core-count axis "
            "(comma-separated list; scaling/autotune only)",
        )
        sub.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default=default_format,
            help=f"output format (default: {default_format})",
        )
        sub.add_argument(
            "--out", default=None, help="write the table to a file instead of stdout"
        )

    plan = subparsers.add_parser(
        "plan",
        help="search the mapping space and print the best mapping per workload",
    )
    plan.add_argument(
        "--workload",
        action="append",
        default=None,
        metavar="NAME",
        help="plan only the named autotune workload (repeatable)",
    )
    plan.add_argument(
        "--smoke",
        action="store_true",
        help="restrict the search to the smoke workload/axis configuration",
    )
    plan.add_argument(
        "--topology",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict the topology axis to this preset (repeatable)",
    )
    plan.add_argument(
        "--cores",
        default=None,
        metavar="N[,N...]",
        help="restrict the core-count axis (comma-separated list)",
    )
    plan.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (<=0 = all cores; default: $REPRO_JOBS or 1)",
    )
    plan.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache entirely",
    )
    plan.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )

    cache = subparsers.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("action", choices=("info", "clear"))
    cache.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )

    chaos = subparsers.add_parser(
        "chaos",
        help="run an experiment clean, faulted, and interrupted+resumed in "
        "hermetic cache roots and verify the tables are byte-identical",
    )
    chaos.add_argument("experiment", help="experiment name (see 'list')")
    chaos.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fault-schedule seed (default 0); identical seeds give "
        "identical chaos runs",
    )
    chaos.add_argument(
        "--smoke",
        action="store_true",
        help="run the experiment's smoke configuration",
    )
    chaos.add_argument(
        "--max-layers",
        type=int,
        default=None,
        help="restrict the sweep to the first N Table IV layers",
    )
    chaos.add_argument(
        "--max-output-tiles",
        type=int,
        default=None,
        help="output tiles traced per simulation before scaling",
    )
    chaos.add_argument(
        "--spec",
        default=None,
        metavar="FAULTSPEC",
        help="override the derived fault schedule (REPRO_FAULTS grammar)",
    )
    chaos.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the clean/faulted legs (default 2)",
    )
    chaos.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="retry budget for the faulted leg (default 2)",
    )
    chaos.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline per trial attempt in every leg",
    )

    bench = subparsers.add_parser(
        "bench", help="measure simulator trace-op throughput (fast vs exact)"
    )
    bench.add_argument(
        "--out",
        default=None,
        help="write the JSON payload to this file (default: BENCH_simulator.json)",
    )
    bench.add_argument(
        "--shape",
        default=None,
        help="benchmark a single dense GEMM of this MxNxK shape instead of the suite",
    )
    bench.add_argument(
        "--engine",
        default="VEGETA-D-1-2",
        help="engine for --shape runs (default: VEGETA-D-1-2)",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="run the scaled-down smoke workload set",
    )
    bench.add_argument(
        "--workload",
        action="append",
        default=None,
        metavar="NAME",
        help=(
            "benchmark only the named workload (repeatable; matches both the "
            "single-core and multi-core suites by name)"
        ),
    )
    bench.add_argument(
        "--check",
        nargs="?",
        const="",
        default=None,
        metavar="BASELINE",
        help=(
            "compare against a committed baseline payload (default: the "
            "repo-root BENCH_simulator.json) and fail on >30%% throughput "
            "regression"
        ),
    )
    return parser


def _parse_cores(text: str) -> List[int]:
    """Validate a ``--cores`` comma list: positive, unique, non-empty.

    Bad values fail here with the offending entry named, instead of blowing
    up deep inside ``partition_grid`` (or silently sweeping a duplicated
    core count twice).
    """
    cores: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = int(part)
        except ValueError:
            raise ConfigurationError(
                f"--cores expects a comma-separated integer list, "
                f"got {part!r} in {text!r}"
            ) from None
        if value <= 0:
            raise ConfigurationError(
                f"--cores values must be positive core counts, got {value}"
            )
        if value in cores:
            raise ConfigurationError(f"--cores values must be unique, got {value} twice")
        cores.append(value)
    if not cores:
        raise ConfigurationError(
            f"--cores expects at least one core count, got {text!r}"
        )
    return cores


def _experiment_options(args: argparse.Namespace) -> Dict[str, Any]:
    options: Dict[str, Any] = {}
    if getattr(args, "max_layers", None) is not None:
        options["max_layers"] = args.max_layers
    if getattr(args, "max_output_tiles", None) is not None:
        options["max_output_tiles"] = args.max_output_tiles
    if getattr(args, "seed", None) is not None:
        options["seed"] = args.seed
    if getattr(args, "smoke", False):
        options["smoke"] = True
    if getattr(args, "topology", None):
        options["topologies"] = list(args.topology)
    if getattr(args, "cores", None):
        options["cores"] = _parse_cores(args.cores)
    return options


#: Sweep options the CLI forwards: option key -> (flag, what reading it takes).
_SWEEP_FLAGS = {
    "max_layers": ("max-layers", "a layer axis"),
    "max_output_tiles": ("max-output-tiles", "truncated traces"),
    "seed": ("seed", "a seeded generator"),
    "smoke": ("smoke", "a smoke configuration"),
    "topologies": ("topology", "a topology axis"),
    "cores": ("cores", "a core-count axis"),
}


def _check_sweep_options(experiment_name: str, options: Dict[str, Any]) -> None:
    """Reject sweep flags the experiment's build or reduce step does not read.

    Each registration lists the flags it reads in ``cli_options``.  Any other
    flag used to be forwarded and silently ignored, which ran a sweep the
    user did not ask for.
    """
    from .experiments.registry import get_experiment

    experiment = get_experiment(experiment_name)
    for option, (flag, reader) in _SWEEP_FLAGS.items():
        if option in options and flag not in experiment.cli_options:
            supported = ", ".join(
                entry.name for entry in list_experiments() if flag in entry.cli_options
            )
            raise ConfigurationError(
                f"--{flag} is only valid for experiments with {reader} "
                f"({supported}), not {experiment_name!r}"
            )


def _render(table: ResultTable, output_format: str) -> str:
    if output_format == "json":
        return table.to_json(indent=2)
    if output_format == "csv":
        return table.to_csv()
    return table.to_text()


def _command_list() -> int:
    rows = [
        (experiment.name, experiment.description) for experiment in list_experiments()
    ]
    print(format_table("experiments", ("name", "description"), rows))
    return 0


def _command_engines() -> int:
    from .core.engine import catalog

    columns = (
        "name",
        "geometry",
        "tile",
        "treg B",
        "mreg B",
        "MACs",
        "PEs",
        "issue",
        "timing",
        "sparsity",
        "prior work",
    )
    rows = []
    # EngineTiming -> the first catalog engine with it: engines of equal
    # timing simulate a shared kernel identically.
    first_with_timing = {}
    for engine in catalog().values():
        info = engine.describe()
        first = first_with_timing.setdefault(engine.timing, engine.name)
        rows.append(
            (
                info["name"],
                info["geometry"],
                f"{info['tile_rows']}x{info['tile_row_bytes']}B",
                info["tile_reg_bytes"],
                info["metadata_reg_bytes"],
                info["total_macs"],
                f"{info['nrows']}x{info['ncols']}",
                info["issue_interval"],
                first if first != engine.name else "-",
                ",".join(info["supported_sparsity"]),
                info["prior_work"],
            )
        )
    print(format_table("engine catalog", columns, rows))
    return 0


def _command_topologies() -> int:
    from .cpu.params import TOPOLOGY_PRESETS

    def describe_capacity(capacity: Optional[int]) -> str:
        if capacity is None:
            return "-"
        if capacity % (1024 * 1024) == 0:
            return f"{capacity // (1024 * 1024)} MB"
        return f"{capacity // 1024} KB"

    def describe_bandwidth(node) -> str:
        if node.bandwidth_gbps is not None:
            return f"{node.bandwidth_gbps:g} GB/s"
        if node.bytes_per_cycle is not None:
            return f"{node.bytes_per_cycle:g} B/cyc"
        # Mirrors the machine's effective DRAM line rate (see cpu.topology).
        return f"{node.bandwidth_scale:g}x DRAM"

    columns = ("preset", "node", "level", "capacity", "bandwidth", "cores")
    rows = []
    for preset_name, factory in TOPOLOGY_PRESETS.items():
        topology = factory()
        for path, node in topology.walk():
            rows.append(
                (
                    preset_name,
                    path,
                    node.level,
                    describe_capacity(node.capacity_bytes),
                    describe_bandwidth(node),
                    node.cores if node.cores else node.total_cores,
                )
            )
    print(format_table("topology presets", columns, rows))
    return 0


def _command_run(args: argparse.Namespace) -> int:
    options = _experiment_options(args)
    _check_sweep_options(args.experiment, options)
    table = run_named(
        args.experiment,
        options,
        jobs=args.jobs,
        cache=not args.no_cache,
        cache_root=args.cache_dir,
        max_retries=args.max_retries,
        trial_timeout=args.trial_timeout,
        resume=args.resume,
    )
    rendered = _render(table, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
            if not rendered.endswith("\n"):
                handle.write("\n")
        print(f"wrote {len(table)} rows to {args.out}", file=sys.stderr)
    else:
        print(rendered)
    meta = table.meta
    extras = ""
    if meta.get("retried"):
        extras += f", {meta['retried']} retried"
    if meta.get("checkpoint_errors"):
        extras += f", {meta['checkpoint_errors']} checkpoint writes failed"
    print(
        f"{meta.get('experiment', args.experiment)}: {meta.get('trials', len(table))} trials "
        f"({meta.get('cached', 0)} cached, {meta.get('executed', 0)} executed{extras}) "
        f"in {meta.get('seconds', 0.0):.2f}s",
        file=sys.stderr,
    )
    return 0


def _command_plan(args: argparse.Namespace) -> int:
    """Run the autotune search and print the best mapping per workload."""
    from .experiments.registry import get_experiment
    from .experiments.runner import run_experiment

    options = _experiment_options(args)
    if args.workload:
        options["workload_names"] = list(args.workload)
    spec = get_experiment("autotune").build(options)
    table = run_experiment(
        spec, jobs=args.jobs, cache=not args.no_cache, cache_root=args.cache_dir
    )
    columns = (
        "workload",
        "pattern",
        "engine",
        "kernel",
        "cores",
        "strategy",
        "topology",
        "cycles",
        "traffic MB",
        "imbalance",
        "frontier",
        "prune",
    )
    rows = []
    for row in table.rows:
        rows.append(
            (
                row["workload"],
                row["pattern"],
                row["best_engine"],
                row["best_kernel"],
                row["best_cores"],
                row["best_strategy"],
                row["best_topology"],
                row["best_cycles"],
                f"{row['best_traffic_bytes'] / 1e6:.1f}"
                if row["best_traffic_bytes"] is not None
                else None,
                f"{row['best_load_imbalance']:.2f}"
                if row["best_load_imbalance"] is not None
                else None,
                row["frontier_size"],
                f"{row['prune_ratio']:.1f}x ({row['simulated']}/{row['space_size']})",
            )
        )
    print(format_table("best mapping per workload", columns, rows))
    meta = table.meta
    print(
        f"autotune: {meta.get('trials', len(table))} workloads "
        f"({meta.get('cached', 0)} cached, {meta.get('executed', 0)} searched) "
        f"in {meta.get('seconds', 0.0):.2f}s",
        file=sys.stderr,
    )
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from .analysis.bench import (
        DEFAULT_BENCH_PATH,
        DEFAULT_MULTICORE_WORKLOADS,
        DEFAULT_WORKLOADS,
        QUICK_MULTICORE_WORKLOADS,
        QUICK_WORKLOADS,
        BenchWorkload,
        benchmark_simulator,
        compare_benchmarks,
        load_benchmark,
        parse_shape,
        select_workloads,
        write_benchmark,
    )
    from .types import SparsityPattern

    multicore_workloads = None
    full_suite = args.shape is None and not args.quick and not args.workload
    if args.shape is not None:
        if args.workload:
            raise ConfigurationError("--shape and --workload are mutually exclusive")
        shape = parse_shape(args.shape)
        workloads = (
            BenchWorkload(
                # The engine is part of the name so `--check` can never match
                # this row against a committed default-engine measurement of
                # the same shape.
                name=f"dense-{shape.m}x{shape.n}x{shape.k}-{args.engine}",
                shape=shape,
                pattern=SparsityPattern.DENSE_4_4,
                engine_name=args.engine,
            ),
        )
        multicore_workloads = ()
    elif args.quick:
        workloads = QUICK_WORKLOADS
        multicore_workloads = QUICK_MULTICORE_WORKLOADS
    else:
        workloads = DEFAULT_WORKLOADS
    if args.workload:
        workloads, multicore_workloads = select_workloads(
            args.workload,
            workloads,
            multicore_workloads
            if multicore_workloads is not None
            else DEFAULT_MULTICORE_WORKLOADS,
        )

    baseline = None
    if args.check is not None:
        # Read (and validate) the baseline before the benchmark runs, so a
        # missing baseline fails fast and the write below cannot shadow it.
        baseline_path = args.check or DEFAULT_BENCH_PATH
        baseline = load_benchmark(baseline_path)

    payload = benchmark_simulator(workloads, multicore_workloads)
    rows = [
        (
            row["name"],
            row["trace_ops"],
            f"{row['exact_ops_per_sec']:,.0f}",
            f"{row['fast_ops_per_sec']:,.0f}",
            f"{row['speedup']:.1f}x",
            f"{row['cycle_error']:.2e}",
            f"{row['build_rows_per_sec']:,.0f}",
        )
        for row in payload["workloads"]
    ]
    print(
        format_table(
            "simulator trace-op throughput",
            (
                "workload", "ops", "exact ops/s", "fast ops/s", "speedup", "cycle err",
                "build rows/s",
            ),
            rows,
        )
    )
    print(
        f"geomean speedup: {payload['speedup_geomean']:.1f}x "
        f"(min {payload['speedup_min']:.1f}x, "
        f"max cycle error {payload['max_cycle_error']:.2e})"
    )
    if payload.get("multicore_workloads"):
        multicore_rows = [
            (
                row["name"],
                f"{row['cores']}",
                row["strategy"],
                f"{row['nomemo_ops_per_sec']:,.0f}",
                f"{row['memo_ops_per_sec']:,.0f}",
                f"{row['memo_speedup']:.1f}x",
                "yes" if row["cycle_match"] else "NO",
                f"{row['shard_rows_per_sec']:,.0f}",
                f"{row['key_rows_per_sec']:,.0f}",
            )
            for row in payload["multicore_workloads"]
        ]
        print(
            format_table(
                "multi-core trace-op throughput (block memoization)",
                (
                    "workload", "cores", "strategy", "no-memo ops/s", "memo ops/s",
                    "speedup", "cycles match", "shard rows/s", "key rows/s",
                ),
                multicore_rows,
            )
        )
        print(
            f"multicore geomean memo speedup: "
            f"{payload['multicore_memo_speedup_geomean']:.1f}x"
        )
    regressions = []
    if baseline is not None:
        regressions = compare_benchmarks(payload, baseline)
    # Only a full-suite run may update the committed repo-root baseline by
    # default; --quick / --shape subsets need an explicit --out so they can
    # never silently replace it with a partial payload, and a failed --check
    # never overwrites the baseline it just regressed against.
    out = args.out if args.out is not None else (DEFAULT_BENCH_PATH if full_suite else None)
    if out is not None and (args.out is not None or not regressions):
        write_benchmark(payload, out)
        print(f"wrote {out}", file=sys.stderr)
    else:
        print("payload not written (pass --out to keep it)", file=sys.stderr)
    if regressions:
        print(f"throughput regressions vs {baseline_path}:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    if baseline is not None:
        print(f"no throughput regression vs {baseline_path}", file=sys.stderr)
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    stats = cache.stats()
    print(f"cache root:  {stats['root']}")
    print(f"entries:     {stats['entries']}")
    print(f"total bytes: {stats['bytes']}")
    for experiment, count in sorted(stats["experiments"].items()):
        print(f"  {experiment}: {count}")
    integrity = cache.verify()
    print(
        f"integrity:   {integrity['verified']} verified, "
        f"{integrity['quarantined']} quarantined now, "
        f"{integrity['quarantine_files']} in quarantine"
    )
    for namespace, counts in sorted(integrity["namespaces"].items()):
        label = "simulation block store" if namespace == "simblocks" else "results"
        print(
            f"  {namespace} ({label}): {counts['verified']} verified, "
            f"{counts['quarantined']} quarantined"
        )
    return 0


def _command_chaos(args: argparse.Namespace) -> int:
    from .experiments.results import format_table as _format_table
    from .faults.chaos import DEFAULT_JOBS, DEFAULT_MAX_RETRIES, run_chaos

    options = {}
    if args.smoke:
        options["smoke"] = True
    if args.max_layers is not None:
        options["max_layers"] = args.max_layers
    if args.max_output_tiles is not None:
        options["max_output_tiles"] = args.max_output_tiles
    _check_sweep_options(args.experiment, options)
    report = run_chaos(
        args.experiment,
        options,
        seed=args.seed,
        jobs=args.jobs if args.jobs is not None else DEFAULT_JOBS,
        max_retries=(
            args.max_retries if args.max_retries is not None else DEFAULT_MAX_RETRIES
        ),
        trial_timeout=args.trial_timeout,
        fault_spec=args.spec,
    )
    print(f"fault spec:     {report['fault_spec']}")
    print(f"interrupt spec: {report['interrupt_spec']}")
    rows = [
        (
            leg["leg"],
            leg.get("rows", ""),
            "yes" if leg.get("identical") else "NO",
            leg.get("cached", ""),
            leg.get("retried", ""),
            leg.get("checkpointed", ""),
        )
        for leg in report["legs"]
    ]
    print(
        _format_table(
            f"chaos: {report['experiment']} ({report['trials']} trials, "
            f"seed {report['seed']})",
            ("leg", "rows", "identical", "cached", "retried", "checkpointed"),
            rows,
        )
    )
    for failure in report["failures"]:
        print(f"chaos failure: {failure}", file=sys.stderr)
    if report["ok"]:
        print(
            "chaos: every leg reassembled the clean table byte-for-byte",
            file=sys.stderr,
        )
        return 0
    print("chaos: FAULTED TABLES DIVERGED (see report above)", file=sys.stderr)
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _command_list()
        if args.command == "engines":
            return _command_engines()
        if args.command == "topologies":
            return _command_topologies()
        if args.command in ("run", "dump"):
            return _command_run(args)
        if args.command == "plan":
            return _command_plan(args)
        if args.command == "bench":
            return _command_bench(args)
        if args.command == "cache":
            return _command_cache(args)
        if args.command == "chaos":
            return _command_chaos(args)
    except ExperimentFailure as error:
        # Permanent trial failures: the report names each offender, and the
        # completed rows are already checkpointed for a --resume.
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
