"""Prior-work baselines and the Table I sparsity-granularity support matrix.

Two kinds of baselines appear in the paper:

* **matrix-engine design points** that map directly onto Table III
  configurations (RASA-SM is VEGETA-D-1-1, RASA-DM VEGETA-D-1-2, Intel TMUL
  VEGETA-D-16-1); they live in the engine catalog
  (:func:`repro.core.engine.get_engine`, with the NVIDIA STC-like engine as
  :func:`repro.core.engine.stc_like_engine`), and
* **granularity classes** used in the Figure 15 comparison (STA, S2TA,
  SIGMA), which we summarise through the Table I support matrix here and the
  analytical granularity model of :mod:`repro.analysis.granularity`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List

from ..types import SparsityGranularity


@dataclass(frozen=True)
class GranularitySupport:
    """One row of Table I: which sparsity granularities a design supports."""

    name: str
    supported: FrozenSet[SparsityGranularity]
    notes: str = ""

    def supports(self, granularity: SparsityGranularity) -> bool:
        """True if the design handles the given granularity."""
        return granularity in self.supported


#: Table I of the paper.  S2TA's tile-wise support is an extension the paper
#: grants it for the comparison ("they do not claim they support tile-wise,
#: but it can be extended").
TABLE_I: Dict[str, GranularitySupport] = {
    "NVIDIA STC": GranularitySupport(
        name="NVIDIA STC",
        supported=frozenset({SparsityGranularity.NETWORK_WISE}),
        notes="2:4 only, fixed for the whole network",
    ),
    "STA": GranularitySupport(
        name="STA",
        supported=frozenset(
            {SparsityGranularity.NETWORK_WISE, SparsityGranularity.LAYER_WISE}
        ),
        notes="density-bound block sparsity per layer",
    ),
    "S2TA": GranularitySupport(
        name="S2TA",
        supported=frozenset(
            {
                SparsityGranularity.NETWORK_WISE,
                SparsityGranularity.LAYER_WISE,
                SparsityGranularity.TILE_WISE,
            }
        ),
        notes="tile-wise granted as a natural extension",
    ),
    "VEGETA": GranularitySupport(
        name="VEGETA",
        supported=frozenset(
            {
                SparsityGranularity.NETWORK_WISE,
                SparsityGranularity.LAYER_WISE,
                SparsityGranularity.TILE_WISE,
                SparsityGranularity.ROW_WISE,
            }
        ),
        notes="this work",
    ),
}


def table1() -> List[GranularitySupport]:
    """Table I rows in paper order."""
    return [TABLE_I[name] for name in ("NVIDIA STC", "STA", "S2TA", "VEGETA")]
