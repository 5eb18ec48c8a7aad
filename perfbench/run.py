"""End-to-end sweep benchmark of the VEGETA reproduction.

    python3 perfbench/run.py --workload fig13-cold --seed 0 --seconds 36 --trace 0

Repeats one workload's sweep for ``--seconds`` seconds, each repetition in a
fresh interpreter (``sweep.py``) with its own temporary cache root under
``.perfbench-tmp/``, and prints the mean ``sweep_s`` and the median of
every other metric.  Times are rescaled by the yardstick probes run around
each repetition (``yardstick.py``), so the host's slow phases cancel.  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  README.md defines
every workload and metric.

``--write-reference`` regenerates ``reference.json``, the committed per-row
digests every run checks its tables against.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from sweep import REFERENCE_PATH, WORKLOADS, fig13_layers  # noqa: E402
from yardstick import NOMINAL_PROBE_S, Yardstick  # noqa: E402

#: Knobs of the program that change what a sweep does or how it runs.  They
#: are removed from the sweeps' environment and reported, never inherited.
NORMALIZED_ENV = (
    "REPRO_JOBS",
    "REPRO_NO_MEMO",
    "REPRO_FAULTS",
    "REPRO_MAX_SUPER_PERIOD",
    "REPRO_MAX_RETRIES",
    "REPRO_TRIAL_TIMEOUT",
    "REPRO_CACHE_DIR",
)

#: Repetitions per run at least, whatever ``--seconds`` says (per kind —
#: untraced and traced — with ``--trace 1``).
MIN_REPS = {0: 3, 1: 2}

#: Seconds one sweep process may take before the run is abandoned.
SWEEP_TIMEOUT_S = 120


def sweep_env(inherited: Dict[str, str]) -> Dict[str, str]:
    env = {key: value for key, value in inherited.items() if key not in NORMALIZED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_sweep(env: Dict[str, str], cache_root: Path, *arguments: str) -> Dict[str, Any]:
    """Run ``sweep.py`` with a private cache root; its last stdout line."""
    cache_root.mkdir(parents=True, exist_ok=True)
    completed = subprocess.run(
        [sys.executable, str(HERE / "sweep.py"), *arguments],
        env=dict(env, REPRO_CACHE_DIR=str(cache_root)),
        cwd=str(cache_root),
        capture_output=True,
        text=True,
        timeout=SWEEP_TIMEOUT_S,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"sweep {' '.join(arguments)} exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def measure(args: argparse.Namespace, env: Dict[str, str], scratch: Path) -> List[Dict[str, Any]]:
    """Run repetitions until ``--seconds`` have passed; one result per rep.

    Every result carries ``probe_s``, the mean of the yardstick probes right
    before and right after it; ``setup_s`` and ``sweep_s`` stay raw seconds.
    """
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    yardstick = Yardstick()
    probe_s = yardstick.probe()
    primed = scratch / "primed"
    prime: Dict[str, float] = {}
    results = []
    if args.workload == "scaling-warm":
        # Prime once per run, then copy the primed store into each rep's
        # fresh root: the rep reads a full store with an empty memo.
        started = time.perf_counter()
        result = run_sweep(env, primed, *common, "--trace", "0")
        prime = {"seconds": time.perf_counter() - started}
        after = yardstick.probe()
        prime["probe_s"] = (probe_s + after) / 2
        probe_s = after
        results.append(dict(result, role="prime"))

    kinds = [0] if args.trace == 0 else [0, 1]
    started = time.perf_counter()
    count = 0
    while True:
        traced = kinds[count % len(kinds)]
        root = scratch / f"rep{count}"
        copy_s = 0.0
        if prime:
            copy_started = time.perf_counter()
            shutil.copytree(primed, root)
            copy_s = time.perf_counter() - copy_started
        result = run_sweep(env, root, *common, "--trace", str(traced))
        shutil.rmtree(root)
        after = yardstick.probe()
        result.update(role="traced" if traced else "untraced", probe_s=(probe_s + after) / 2)
        probe_s = after
        result["setup_s"] += copy_s
        result["prime"] = prime
        results.append(result)
        count += 1
        done = count >= MIN_REPS[args.trace] * len(kinds) and count % len(kinds) == 0
        if done and time.perf_counter() - started >= args.seconds:
            return results


def at_nominal(seconds: float, probe_s: float) -> float:
    """``seconds`` rescaled to a host on which the yardstick probe takes
    ``NOMINAL_PROBE_S``: the host's slow phases slow both and cancel."""
    return seconds / probe_s * NOMINAL_PROBE_S


def sweep_seconds(results: List[Dict[str, Any]]) -> float:
    # The mean, not the median: once rescaled, the repetitions' noise is
    # about symmetric, and over ten seeds per workload the mean of a run's
    # repetitions spread 20-25% less than their median did.
    return statistics.mean(at_nominal(r["sweep_s"], r["probe_s"]) for r in results)


def setup_seconds(result: Dict[str, Any]) -> float:
    """A rep's set-up plus, on ``scaling-warm``, the run's priming sweep."""
    prime = result["prime"]
    primed = at_nominal(prime["seconds"], prime["probe_s"]) if prime else 0.0
    return at_nominal(result["setup_s"], result["probe_s"]) + primed


def summarize(args: argparse.Namespace, results: List[Dict[str, Any]]) -> Dict[str, Any]:
    untraced = [result for result in results if result["role"] == "untraced"]
    traced = [result for result in results if result["role"] == "traced"]
    correct = True
    if args.trace == 0:
        metrics = {
            "sweep_s": (sweep_seconds(untraced), "s"),
            "setup_s": (statistics.median(setup_seconds(r) for r in untraced), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        }
    else:
        units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        units = {entry["name"]: entry["unit"] for entry in units}
        metrics = {
            name: (statistics.median(r["layers"][name] for r in traced), units[name])
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead"] = (
            sweep_seconds(traced) / sweep_seconds(untraced),
            units["trace.overhead"],
        )
        metrics["fidelity.paper_gap"] = (traced[0]["paper_gap"], units["fidelity.paper_gap"])
        for result in traced:
            for error in result["coverage_errors"]:
                print(f"  coverage: {error}")
                correct = False
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def report(args: argparse.Namespace, results, summary, dropped: Dict[str, str]) -> None:
    """Human-readable lines before the JSON result."""
    reps = sum(1 for result in results if result["role"] != "prime")
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} reps={reps}")
    if args.workload == "fig13-cold":
        print(f"  layer sample (seed {args.seed}): {', '.join(fig13_layers(args.seed))}")
    else:
        print("  deterministic workload: the seed does not change its inputs")
    for name, value in dropped.items():
        print(f"  env: removed inherited {name}={value!r} from the sweeps")
    for role in ("untraced", "traced"):
        reps = [r for r in results if r["role"] == role]
        if reps:
            for key, label in (("sweep_s", "raw sweep seconds"), ("probe_s", "yardstick probe seconds")):
                values = " ".join(f"{r[key]:.3f}" for r in reps)
                print(f"  {role} {label} per repetition: {values}")
    for name, metric in summary["metrics"].items():
        print(f"  {name:24s} {metric['value']:.6g} {metric['unit']}")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"  {'error_rate':24s} {failed / attempted:.6g} ({failed} of {attempted} rows failed or differ from reference.json)")
    if args.workload == "fig13-cold":
        print(
            f"  {'paper_gap':24s} {results[-1]['paper_gap']:.6g} "
            "(simulated; over this layer sample, not the paper's 12-layer headline)"
        )


def write_reference(env: Dict[str, str], scratch: Path) -> None:
    reference: Dict[str, Any] = {}
    # The reference sweeps run without priming, so scaling-warm gives the
    # scaling rows from an empty store, as users get them on a first run.
    for workload in WORKLOADS:
        root = scratch / workload
        reference.update(run_sweep(env, root, "--workload", workload, "--reference"))
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=WORKLOADS[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    env = sweep_env(dict(os.environ))
    dropped = {name: os.environ[name] for name in NORMALIZED_ENV if name in os.environ}
    base = ROOT / ".perfbench-tmp"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=base))
    try:
        if args.write_reference:
            write_reference(env, scratch)
            return
        results = measure(args, env, scratch)
        summary = summarize(args, results)
        report(args, results, summary, dropped)
        print(json.dumps(summary))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    main()
