"""Per-layer spans and counters, recorded by wrapping the program from outside.

The benchmark does not edit the program to trace it.  :class:`Tracer`
replaces public functions of each layer with timing wrappers, at *every*
module attribute that is bound to the original function object (several
modules bind their callees at import, e.g. ``planner.autotune.shard_kernel``
or ``cpu.multicore.resolve_traffic``), and puts every original back when the
``installed()`` block ends.  Methods are wrapped on their class.

Each wrapper records one span: inclusive seconds, call count, and self time
(the span minus the time of traced spans it encloses).  Hooks on some spans
read counts off arguments and results — trace rows built, ops simulated,
fast blocks skipped, store hits, planner candidates — so ratios are counted
where the work happens.  Wrappers return the original results untouched:
a traced sweep's table must be byte-identical to an untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Hook signature: (tracer, parent span name, args, kwargs, result, seconds).
Hook = Callable[["Tracer", Optional[str], tuple, dict, Any, float], None]


class Tracer:
    """In-memory span totals, self times, call counts and counters."""

    def __init__(self) -> None:
        self._stack: List[List[Any]] = []
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.trial_seconds: List[float] = []
        self.build_keys: set = set()
        self._restore: List[Tuple[Any, str, Any]] = []

    def wrap(self, name: str, function: Callable, hook: Optional[Hook] = None) -> Callable:
        """A wrapper recording one ``name`` span per call of ``function``."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += elapsed
            if hook is not None:
                hook(self, parent, args, kwargs, result, elapsed)
            return result

        return traced

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self, module_name: str, attribute: str, make: Callable[[Callable], Callable]) -> None:
        """Bind ``make(original)`` wherever ``module.attribute`` is bound.

        ``attribute`` may be ``"Class.method"``: the method is then replaced
        on its class only.
        """
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".", 1)
            owner = getattr(module, class_name)
            self._patch(owner, method, make(getattr(owner, method)))
            return
        original = getattr(module, attribute)
        replacement = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, key, replacement)

    def uninstall(self) -> None:
        """Put every original binding back, newest first."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every traced layer for the duration of the block."""
        # A module imported while the wraps are live would bind a wrapper at
        # import and keep it after uninstall, so load every binder first.
        for module_name in PRELOADED_MODULES:
            importlib.import_module(module_name)
        try:
            for module_name, attribute, span, hook in TRACED_FUNCTIONS:
                self.install(
                    module_name,
                    attribute,
                    lambda original, span=span, hook=hook: self.wrap(span, original, hook),
                )
            self.install(
                "repro.experiments.registry",
                "get_trial_runner",
                lambda lookup: functools.wraps(lookup)(
                    lambda name: self.wrap("runner.trial", lookup(name), _trial_hook)
                ),
            )
            yield self
        finally:
            self.uninstall()


# -- hooks: counts read off arguments and results ---------------------------------


def _argument(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs.get(name)


def _build_hook(tracer: Tracer, parent, args, kwargs, program, seconds) -> None:
    tracer.counters["kernels.rows"] += len(program.trace)
    tracer.build_keys.add(repr((args, sorted(kwargs.items()))))


def _sim_hook(tracer: Tracer, parent, args, kwargs, result, seconds) -> None:
    tracer.counters["sim.ops"] += len(_argument(args, kwargs, 1, "trace"))
    tracer.counters["sim.stepped"] += result.fast_blocks_stepped
    tracer.counters["sim.skipped"] += result.fast_blocks_skipped
    if parent == "multicore":
        tracer.counters["memo.simulated"] += 1


def _multicore_hook(tracer: Tracer, parent, args, kwargs, result, seconds) -> None:
    programs = _argument(args, kwargs, 0, "programs")
    tracer.counters["multicore.cores"] += len(programs)


def _cached_program_hook(tracer: Tracer, parent, args, kwargs, result, seconds) -> None:
    tracer.counters["multicore.cores"] += 1


def _store_get_hook(tracer: Tracer, parent, args, kwargs, payload, seconds) -> None:
    if payload is not None:
        tracer.counters["store.hits"] += 1


def _planner_hook(tracer: Tracer, parent, args, kwargs, plan, seconds) -> None:
    tracer.counters["planner.candidates"] += len(plan.outcomes)
    tracer.counters["planner.simulated"] += plan.simulated


def _trial_hook(tracer: Tracer, parent, args, kwargs, row, seconds) -> None:
    tracer.trial_seconds.append(seconds)


#: Every module that binds a traced function at import.
PRELOADED_MODULES = (
    "repro",
    "repro.analysis.runtime",
    "repro.experiments.executor",
    "repro.experiments.figures",
    "repro.kernels.sharding",
    "repro.planner.autotune",
    "repro.planner.experiment",
)

#: (module, attribute, span name, hook).  Module-level functions are replaced
#: at every binding site; "Class.method" entries on their class.
TRACED_FUNCTIONS: Tuple[Tuple[str, str, str, Optional[Hook]], ...] = (
    ("repro.kernels.gemm", "build_dense_gemm_kernel", "kernels.build", _build_hook),
    ("repro.kernels.spmm", "build_spmm_kernel", "kernels.build", _build_hook),
    ("repro.kernels.spgemm", "build_spgemm_kernel", "kernels.build", _build_hook),
    ("repro.kernels.sharding", "shard_kernel", "kernels.shard", None),
    ("repro.cpu.multicore", "simulation_cache_key", "memo.key", None),
    ("repro.cpu.multicore", "simulate_multicore", "multicore", _multicore_hook),
    ("repro.cpu.multicore", "simulate_program_cached", "multicore", _cached_program_hook),
    ("repro.cpu.simulator", "CycleApproximateSimulator.run", "sim.run", _sim_hook),
    ("repro.cpu.topology", "resolve_traffic", "topology.traffic", None),
    ("repro.cpu.topology", "arbitrate_topology", "topology.arbitrate", None),
    ("repro.experiments.cache", "SimulationBlockStore.get", "store.get", _store_get_hook),
    ("repro.experiments.cache", "SimulationBlockStore.put", "store.put", None),
    ("repro.planner.prefilter", "mapping_statics", "planner.statics", None),
    ("repro.planner.autotune", "autotune_workload", "planner.search", _planner_hook),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def layer_metrics(tracer: Tracer, sweep_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced sweep, keyed by metric name."""
    build_s = tracer.inclusive["kernels.build"]
    builds = tracer.calls["kernels.build"]
    sim_s = tracer.inclusive["sim.run"]
    stepped = tracer.counters["sim.stepped"]
    skipped = tracer.counters["sim.skipped"]
    trials_ms = [seconds * 1e3 for seconds in tracer.trial_seconds]
    return {
        "kernels.build_s": build_s,
        "kernels.builds": builds,
        "kernels.distinct_ratio": _ratio(len(tracer.build_keys), builds),
        "kernels.rows_per_s": _ratio(tracer.counters["kernels.rows"], build_s),
        "kernels.shard_s": tracer.self_time["kernels.shard"],
        "memo.key_s": tracer.inclusive["memo.key"],
        "memo.keys": tracer.calls["memo.key"],
        "memo.simulated_ratio": _ratio(
            tracer.counters["memo.simulated"], tracer.counters["multicore.cores"]
        ),
        "sim.run_s": sim_s,
        "sim.runs": tracer.calls["sim.run"],
        "sim.ops": tracer.counters["sim.ops"],
        "sim.ops_per_s": _ratio(tracer.counters["sim.ops"], sim_s),
        "sim.skip_ratio": _ratio(skipped, stepped + skipped),
        "store.gets": tracer.calls["store.get"],
        "store.hits": tracer.counters["store.hits"],
        "store.puts": tracer.calls["store.put"],
        "store.get_s": tracer.inclusive["store.get"],
        "store.put_s": tracer.inclusive["store.put"],
        "multicore.self_s": tracer.self_time["multicore"],
        "multicore.cores": tracer.counters["multicore.cores"],
        "topology.traffic_s": tracer.inclusive["topology.traffic"],
        "topology.arbitrate_s": tracer.inclusive["topology.arbitrate"],
        "topology.calls": tracer.calls["topology.traffic"] + tracer.calls["topology.arbitrate"],
        "planner.statics_s": tracer.inclusive["planner.statics"],
        "planner.candidates": tracer.counters["planner.candidates"],
        "planner.simulated_ratio": _ratio(
            tracer.counters["planner.simulated"], tracer.counters["planner.candidates"]
        ),
        "runner.trials": tracer.calls["runner.trial"],
        "runner.trial_p50_ms": statistics.median(trials_ms) if trials_ms else 0.0,
        "runner.trial_p90_ms": _percentile(trials_ms, 0.9),
        "runner.overhead_s": sweep_s - tracer.inclusive["runner.trial"],
    }
