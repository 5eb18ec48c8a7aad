"""Pinned simulation keys for the golden kernels and a set of shards.

The persistent ``simblocks`` store is addressed by
:func:`repro.cpu.multicore.simulation_cache_key`.  A change to how a key is
derived can leave every result table identical and still orphan every
stored payload, so the keys themselves are pinned here against
``tests/golden/simulation-keys.json``:

* every golden kernel on its engine, under the default machine and under
  :func:`~repro.cpu.params.memory_bound_machine` (where the L2 replay is
  part of the key), in ``"fast"`` mode;
* every shard of a dense and a 2:4 SPMM 256×256×512 kernel at 8 cores,
  ``row-block`` and ``2d-cyclic``, on the scaling sweep's engine under the
  same two machines.

Refreshing after an *intentional* key change (which also bumps
``SIMULATION_KEY_SCHEMA`` or ``SIMULATOR_MODEL_VERSION``)::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/kernels/test_golden_keys.py
"""

import json
import os

import pytest

from repro.analysis.runtime import resolve_engine
from repro.cpu.multicore import simulation_cache_key
from repro.cpu.params import default_machine, memory_bound_machine
from repro.kernels.sharding import shard_kernel
from repro.types import GemmShape, SparsityPattern
from test_golden_results import KERNEL_ENGINES
from test_golden_traces import GOLDEN_DIR, GOLDEN_KERNELS

KEYS_PATH = GOLDEN_DIR / "simulation-keys.json"

MACHINES = {"default": default_machine, "membound": memory_bound_machine}

SHARD_ENGINE = "VEGETA-S-16-2+OF+SPGEMM"
SHARD_SHAPE = GemmShape(256, 256, 512)
SHARD_CORES = 8

#: Sharded kernel name -> (builder kind, pattern, strategy).
SHARDED_KERNELS = {
    f"{name}-{strategy}": (kind, pattern, strategy)
    for name, kind, pattern in (
        ("gemm", "gemm", SparsityPattern.DENSE_4_4),
        ("spmm-2of4", "spmm", SparsityPattern.SPARSE_2_4),
    )
    for strategy in ("row-block", "2d-cyclic")
}


def golden_kernel_keys(kernel: str) -> dict:
    """Fast-mode key of ``kernel`` on its engine, per machine."""
    program = GOLDEN_KERNELS[kernel]()
    name = KERNEL_ENGINES[kernel]
    engine = resolve_engine(name) if name is not None else None
    return {
        machine: simulation_cache_key(program, factory(), engine, "fast")
        for machine, factory in MACHINES.items()
    }


def shard_keys(sharded: str) -> dict:
    """Fast-mode key of every shard of ``sharded``, in core order, per machine."""
    kind, pattern, strategy = SHARDED_KERNELS[sharded]
    programs = shard_kernel(kind, SHARD_SHAPE, pattern, SHARD_CORES, strategy).programs
    engine = resolve_engine(SHARD_ENGINE)
    return {
        machine: [
            simulation_cache_key(program, factory(), engine, "fast")
            for program in programs
        ]
        for machine, factory in MACHINES.items()
    }


def _pinned() -> dict:
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        table = {
            "kernels": {kernel: golden_kernel_keys(kernel) for kernel in sorted(GOLDEN_KERNELS)},
            "shards": {sharded: shard_keys(sharded) for sharded in sorted(SHARDED_KERNELS)},
        }
        KEYS_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return json.loads(KEYS_PATH.read_text(encoding="utf-8"))


def test_every_key_is_pinned():
    table = _pinned()
    assert set(table["kernels"]) == set(GOLDEN_KERNELS)
    assert set(table["shards"]) == set(SHARDED_KERNELS)
    for keys in table["kernels"].values():
        assert set(keys) == set(MACHINES)
    for keys in table["shards"].values():
        assert set(keys) == set(MACHINES)
        assert all(len(per_core) == SHARD_CORES for per_core in keys.values())


@pytest.mark.parametrize("kernel", sorted(GOLDEN_KERNELS))
def test_golden_kernel_keys_are_unchanged(kernel):
    assert golden_kernel_keys(kernel) == _pinned()["kernels"][kernel], (
        f"{kernel}: simulation keys changed; every stored simblocks payload "
        "would be orphaned. If the key derivation changed on purpose, bump "
        "SIMULATION_KEY_SCHEMA and refresh with REPRO_UPDATE_GOLDEN=1"
    )


@pytest.mark.parametrize("sharded", sorted(SHARDED_KERNELS))
def test_shard_keys_are_unchanged(sharded):
    assert shard_keys(sharded) == _pinned()["shards"][sharded], (
        f"{sharded}: shard simulation keys changed; if on purpose, bump "
        "SIMULATION_KEY_SCHEMA and refresh with REPRO_UPDATE_GOLDEN=1"
    )
