"""Axis values of the evaluation sweeps.

The evaluation section varies three axes: the DNN layer (Table IV), the
structured sparsity pattern applied to the weights (4:4 / 2:4 / 1:4), and —
for the unstructured study of Figure 15 — the sparsity degree (60 %..95 %).
The registered experiments (:mod:`repro.experiments.figures`) expand these
values into their trials.
"""

from __future__ import annotations

from typing import Tuple

from ..types import SparsityPattern

#: The structured sparsity patterns evaluated in Figure 13.
FIGURE13_PATTERNS: Tuple[SparsityPattern, ...] = (
    SparsityPattern.DENSE_4_4,
    SparsityPattern.SPARSE_2_4,
    SparsityPattern.SPARSE_1_4,
)

#: The sparsity degrees swept in Figure 15 (percent).
FIGURE15_SPARSITY_DEGREES: Tuple[float, ...] = (0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)

#: Operand patterns swept by the SpGEMM (sparse x sparse) experiment.
SPGEMM_SWEEP_PATTERNS: Tuple[SparsityPattern, ...] = (
    SparsityPattern.SPARSE_2_4,
    SparsityPattern.SPARSE_1_4,
)

#: Core counts swept by the multi-core ``scaling`` experiment.  The tail of
#: the sweep (32–128) exercises the rack-scale topology presets (a
#: dual-socket or chiplet machine with 128 core slots); block-signature
#: memoization is what keeps 128 simulated cores tractable.
SCALING_CORES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

#: Core counts of the ``scaling --smoke`` configuration (the CI sentinel:
#: one single-core invariant point plus the contended 8-core point).
SCALING_SMOKE_CORES: Tuple[int, ...] = (1, 8)
