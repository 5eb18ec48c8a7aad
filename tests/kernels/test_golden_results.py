"""Pinned simulation results for every golden kernel.

``test_golden_traces.py`` pins what the builders emit; this file pins what
the simulator makes of it.  Each golden kernel runs on its engine under
three configurations, and the sha256 of the serialized result
(:func:`repro.cpu.multicore.result_to_payload`: cycles, engine makespan and
busy cycles, counters, instruction mix and fast-path block accounting) must
match ``tests/golden/simulation-results.json``:

* the default machine in ``"fast"`` mode (the oracle path),
* the default machine in ``"exact"`` mode (the per-op reference loop),
* :func:`~repro.cpu.params.memory_bound_machine` in ``"fast"`` mode (the
  profile path: no ideal L2 prefetch).

fast == exact compares the simulator with itself; these digests compare it
with the values it produced before, so a rewrite of the stepping core that
shifts every path alike still fails here.  fast == exact also only compares
two models while ``"exact"`` steps the tag-array
:class:`~repro.cpu.memory.MemorySystem` rather than the oracle's script, which
``test_exact_mode_steps_the_tag_arrays`` pins.

The same digests pin that the simulator reads an engine only through its
``EngineTiming`` (and its name), and fresh simulations pin that engines of
equal timing simulate every golden kernel alike.

Refreshing after an *intentional* timing-model change (which also bumps
``SIMULATOR_MODEL_VERSION``)::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/kernels/test_golden_results.py
"""

import hashlib
import json
import os

import pytest

from repro.analysis.runtime import resolve_engine
from repro.core.engine import catalog
from repro.cpu.columnar import ColumnarTrace
from repro.cpu.memory import MemorySystem, RequestScript, ScriptedMemory
from repro.cpu.multicore import result_to_payload
from repro.cpu.params import default_machine, memory_bound_machine
from repro.cpu.simulator import CycleApproximateSimulator, SimulatorState
from test_golden_traces import GOLDEN_DIR, GOLDEN_KERNELS

RESULTS_PATH = GOLDEN_DIR / "simulation-results.json"

#: Golden kernel -> engine it runs on (None: the vector baseline, no engine).
KERNEL_ENGINES = {
    "gemm-optimized": "VEGETA-D-1-2",
    "gemm-listing1": "VEGETA-D-1-1",
    "spmm-2of4": "VEGETA-S-2-2",
    "spmm-1of4": "VEGETA-S-16-2+OF",
    "spgemm-2of4": "VEGETA-S-16-2+SPGEMM",
    "spgemm-1of4": "VEGETA-S-4-2+OF+SPGEMM",
    "spmm-rowwise": "VEGETA-S-16-2",
    "vector-gemm": None,
    "gemm-amx": "amx",
    "gemm-sme": "sme",
}

#: Configuration name -> (machine factory, simulation mode).
CONFIGS = {
    "default-fast": (default_machine, "fast"),
    "default-exact": (default_machine, "exact"),
    "membound-fast": (memory_bound_machine, "fast"),
}


class TimingOnlyEngine:
    """A stand-in engine that exposes only ``timing`` and ``name``.

    Reading any other attribute fails the test, so a simulation that runs
    to its pinned digest on it read the engine through its timing alone.
    """

    def __init__(self, engine) -> None:
        object.__setattr__(self, "_exposed", {"timing": engine.timing, "name": engine.name})

    def __getattribute__(self, attribute: str):
        exposed = object.__getattribute__(self, "_exposed")
        if attribute not in exposed:
            raise AssertionError(f"the simulator read engine.{attribute}")
        return exposed[attribute]


def simulate(kernel: str, machine, mode: str, wrap=lambda engine: engine):
    """Run golden ``kernel`` on its engine, passed through ``wrap``."""
    program = GOLDEN_KERNELS[kernel]()
    name = KERNEL_ENGINES[kernel]
    engine = wrap(resolve_engine(name)) if name is not None else None
    return CycleApproximateSimulator(machine=machine, engine=engine).run(
        program.trace, mode=mode
    )


def result_digest(kernel: str, config: str, wrap=lambda engine: engine) -> str:
    """sha256 of the serialized result of ``kernel`` under ``config``."""
    machine, mode = CONFIGS[config]
    result = simulate(kernel, machine(), mode, wrap)
    payload = json.dumps(result_to_payload(result), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _pinned() -> dict:
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        table = {
            kernel: {config: result_digest(kernel, config) for config in CONFIGS}
            for kernel in sorted(GOLDEN_KERNELS)
        }
        RESULTS_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return json.loads(RESULTS_PATH.read_text(encoding="utf-8"))


def test_every_golden_kernel_is_pinned():
    assert set(KERNEL_ENGINES) == set(GOLDEN_KERNELS)
    table = _pinned()
    assert set(table) == set(GOLDEN_KERNELS)
    for kernel, digests in table.items():
        assert set(digests) == set(CONFIGS), kernel


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("kernel", sorted(GOLDEN_KERNELS))
def test_result_matches_pinned_digest(kernel, config):
    assert result_digest(kernel, config) == _pinned()[kernel][config], (
        f"{kernel} on {KERNEL_ENGINES[kernel]} ({config}) no longer simulates "
        "to its pinned result; if the timing model changed on purpose, bump "
        "SIMULATOR_MODEL_VERSION and refresh with REPRO_UPDATE_GOLDEN=1"
    )


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("kernel", sorted(GOLDEN_KERNELS))
def test_simulator_reads_the_engine_only_through_its_timing(kernel, config):
    assert result_digest(kernel, config, TimingOnlyEngine) == _pinned()[kernel][config]


def _engine_variants():
    """The catalog and STC-like, each with its +OF / +SPGEMM variants."""
    engines = []
    for base in [*catalog(), "STC-like"]:
        engine = resolve_engine(base)
        engines += [engine, engine.with_output_forwarding()]
        if engine.sparse:
            engines += [engine.with_spgemm(), engine.with_output_forwarding().with_spgemm()]
    return engines


def _timing_classes():
    """Engines grouped by timing: the classes with at least two engines."""
    classes = {}
    for engine in _engine_variants():
        classes.setdefault(engine.timing, []).append(engine)
    return [engines for engines in classes.values() if len(engines) > 1]


@pytest.mark.parametrize("mode", ["fast", "exact"])
@pytest.mark.parametrize("kernel", sorted(GOLDEN_KERNELS))
def test_engines_of_equal_timing_simulate_alike(kernel, mode):
    # A fresh simulation per engine (run keeps nothing): equal timing alone
    # must give equal results, whatever else the engines differ in.
    trace = GOLDEN_KERNELS[kernel]().trace
    spgemm = any(name.startswith("TILE_SPGEMM") for name in trace.summarize().by_opcode)
    compared = 0
    for engines in _timing_classes():
        runnable = [engine for engine in engines if engine.spgemm or not spgemm]
        payloads = [
            result_to_payload(CycleApproximateSimulator(engine=engine).run(trace, mode=mode))
            for engine in runnable
        ]
        for engine, payload in zip(runnable[1:], payloads[1:]):
            assert payload == payloads[0], f"{engine.name} differs from {runnable[0].name}"
            compared += 1
    assert compared > 0


@pytest.fixture
def simulator_paths(monkeypatch):
    """Counts oracle-script constructions and L1 replays, and the state memories."""
    seen = {"RequestScript": 0, "ScriptedMemory": 0, "l1_outcome_bits": 0, "memory": []}

    def counted(cls, name, attribute="__init__"):
        original = getattr(cls, attribute)

        def wrapper(self, *args, **kwargs):
            seen[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, attribute, wrapper)

    counted(RequestScript, "RequestScript")
    counted(ScriptedMemory, "ScriptedMemory")
    counted(ColumnarTrace, "l1_outcome_bits", "l1_outcome_bits")
    state_init = SimulatorState.__init__

    def recording_init(self, *args, **kwargs):
        state_init(self, *args, **kwargs)
        seen["memory"].append(type(self.memory))

    monkeypatch.setattr(SimulatorState, "__init__", recording_init)
    return seen


@pytest.mark.parametrize("machine", [default_machine, memory_bound_machine])
def test_exact_mode_steps_the_tag_arrays(machine, simulator_paths):
    # fast == exact checks compare two models only while exact mode steps
    # the LRU tag arrays; routing it through the oracle's script would make
    # them compare the script with itself.
    for kernel in sorted(GOLDEN_KERNELS):
        simulate(kernel, machine(), "exact")
    assert simulator_paths["RequestScript"] == 0
    assert simulator_paths["ScriptedMemory"] == 0
    assert simulator_paths["l1_outcome_bits"] == 0
    assert simulator_paths["memory"] == [MemorySystem] * len(GOLDEN_KERNELS)


def test_path_probes_see_the_oracle(simulator_paths):
    # The probes above are live: the oracle path trips every one of them.
    simulate("gemm-optimized", default_machine(), "fast")
    assert simulator_paths["RequestScript"] == 1
    assert simulator_paths["ScriptedMemory"] == 1
    assert simulator_paths["l1_outcome_bits"] == 1
    assert simulator_paths["memory"] == [ScriptedMemory]
