"""Pinned Figure 15 rows.

``test_granularity.py`` checks orderings and bands; this file pins every
value.  A reduced Figure 15 sweep (every sparsity degree x every Table IV
layer, each weight matrix capped at 2**15 elements) runs uncached, and the
sha256 of each row's canonical JSON must match ``tests/golden/fig15-rows.json``,
keyed by ``degree|layer``.

Refreshing after an *intentional* change to the granularity model (which also
bumps ``FIG15_SPEC_VERSION``)::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/analysis/test_fig15_golden.py
"""

import hashlib
import json
import os
from pathlib import Path

from repro.experiments.figures import figure15_spec
from repro.experiments.runner import run_experiment
from repro.experiments.spec import canonical_json
from repro.workloads import FIGURE15_SPARSITY_DEGREES

ROWS_PATH = Path(__file__).resolve().parent.parent / "golden" / "fig15-rows.json"


def row_digests() -> dict:
    """sha256 of each row of the reduced sweep, keyed by ``degree|layer``."""
    spec = figure15_spec(FIGURE15_SPARSITY_DEGREES, max_weight_elements=1 << 15)
    return {
        f"{row['degree']}|{row['layer']}": hashlib.sha256(
            canonical_json(row).encode("utf-8")
        ).hexdigest()
        for row in run_experiment(spec, cache=False)
    }


def test_every_fig15_row_matches_its_pinned_digest():
    digests = row_digests()
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        ROWS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    pinned = json.loads(ROWS_PATH.read_text(encoding="utf-8"))
    assert sorted(digests) == sorted(pinned)
    changed = sorted(key for key in pinned if digests[key] != pinned[key])
    assert not changed, (
        f"{len(changed)} Figure 15 rows changed, first {changed[:3]}; if the "
        "granularity model changed on purpose, bump FIG15_SPEC_VERSION and "
        "refresh with REPRO_UPDATE_GOLDEN=1"
    )
