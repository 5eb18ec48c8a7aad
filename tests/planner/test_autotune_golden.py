"""Pinned autotune rows.

``test_autotune.py`` checks the search's soundness; this file pins every
value.  A reduced ``autotune`` sweep (all four workloads: dense, SPMM and
SpGEMM kernels, the foreign geometries and the memory-bound machine's
bandwidth term, over 1-4 cores on the flat and dual-socket topologies) runs
uncached, and the sha256 of each row's canonical JSON must match
``tests/golden/autotune-rows.json``, keyed by
``workload|engine|kernel|cores|strategy|topology``.

Refreshing after an *intentional* change to the planner or the simulator
(which also bumps ``AUTOTUNE_SPEC_VERSION`` or ``SIMULATOR_MODEL_VERSION``)::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/planner/test_autotune_golden.py
"""

import hashlib
import json
import os
from pathlib import Path

from repro.experiments.runner import run_named
from repro.experiments.spec import canonical_json

ROWS_PATH = Path(__file__).resolve().parent.parent / "golden" / "autotune-rows.json"

OPTIONS = {"cores": [1, 2, 3, 4], "topologies": ["flat", "dual-socket"]}

KEY_COLUMNS = ("workload", "engine", "kernel", "cores", "strategy", "topology")


def row_digests() -> dict:
    """sha256 of each row of the reduced sweep, keyed by its mapping."""
    table = run_named("autotune", dict(OPTIONS), jobs=1, cache=False)
    digests = {
        "|".join(str(row[column]) for column in KEY_COLUMNS): hashlib.sha256(
            canonical_json(row).encode("utf-8")
        ).hexdigest()
        for row in table.rows
    }
    assert len(digests) == len(table.rows), "two rows share a mapping key"
    return digests


def test_every_autotune_row_matches_its_pinned_digest():
    digests = row_digests()
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        ROWS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    pinned = json.loads(ROWS_PATH.read_text(encoding="utf-8"))
    assert sorted(digests) == sorted(pinned)
    changed = sorted(key for key in pinned if digests[key] != pinned[key])
    assert not changed, (
        f"{len(changed)} autotune rows changed, first {changed[:3]}; if the "
        "planner or the simulator changed on purpose, bump its version and "
        "refresh with REPRO_UPDATE_GOLDEN=1"
    )
