"""Structural model of VEGETA matrix engines (Section V, Table III).

A VEGETA engine is a 2-D array of ``Nrows x Ncols`` processing elements
(PEs).  Each PE groups ``alpha`` processing units (PUs) that share westward
inputs (the broadcast factor), and each PU contains ``beta`` MAC units that
cooperate on one output element (the reduction factor).  All configurations
studied in the paper keep the total MAC count at 512 (matching a 32x16
baseline systolic array), so the engines trade latency, area and frequency
rather than peak throughput:

* ``Nrows = 32 / beta`` because 32 effectual MACs feed every output element,
* ``Ncols = 512 / (Nrows * alpha * beta)``.

Sparse engines (VEGETA-S) add a 4:1 input-selector mux and a metadata buffer
per MAC and receive whole input *blocks* (4 elements) instead of single
elements, which is what lets them skip zero weights for 1:4 / 2:4 / 4:4 and
row-wise N:4 tiles.

The eight named configurations of Table III are exposed through
:func:`catalog` / :func:`get_engine`; custom configurations can be built
directly with :class:`EngineConfig`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet

from ..errors import ConfigurationError
from ..types import BLOCK_SIZE_M, DEFAULT_GEOMETRY, SparsityPattern, TileGeometry

#: Total MAC units in every engine studied in the paper (32 x 16 baseline).
TOTAL_MAC_UNITS = 512

#: All N:4 patterns a fully flexible VEGETA-S engine supports.
ALL_NM_PATTERNS: FrozenSet[SparsityPattern] = frozenset(
    {
        SparsityPattern.DENSE_4_4,
        SparsityPattern.SPARSE_2_4,
        SparsityPattern.SPARSE_1_4,
    }
)

#: The only pattern a dense engine can execute natively.
DENSE_ONLY: FrozenSet[SparsityPattern] = frozenset({SparsityPattern.DENSE_4_4})

#: Metadata block-pair intersections the SpGEMM stream-merge unit resolves
#: per cycle.  The dual-operand feeder must align A's and B's 2-bit position
#: streams (the SparseZipper stream-merge idea) before the columns enter the
#: array, which costs extra Feed-First cycles proportional to the number of
#: 4-wide blocks covered by the instruction.
SPGEMM_MERGE_BLOCKS_PER_CYCLE = 4


def spgemm_merge_overhead(occupied_blocks: int) -> int:
    """Feed-First cycles the stream-merge unit spends on ``occupied_blocks``.

    The merge unit only has to align block pairs in which at least one
    operand carries non-zeros on both sides; all-zero block pairs are skipped
    by the occupancy pre-scan.  Kernel builders that see the actual operand
    data call this with the per-instruction metadata-intersection count to
    stamp a data-dependent ``feed_overhead`` on each SPGEMM instruction;
    :meth:`EngineTiming.spgemm_feed_overhead` uses it with the worst-case
    block count when no data is available.
    """
    if occupied_blocks <= 0:
        return 0
    return -(-occupied_blocks // SPGEMM_MERGE_BLOCKS_PER_CYCLE)


#: Feature suffixes of an engine name (output forwarding, SpGEMM), in the
#: order :meth:`EngineConfig.with_output_forwarding` and
#: :meth:`EngineConfig.with_spgemm` append them.
FEATURE_SUFFIXES = ("+OF", "+SPGEMM")


@dataclass(frozen=True)
class EngineTiming:
    """Exactly the engine quantities the simulator reads.

    :class:`~repro.core.pipeline.MatrixEnginePipeline` and
    :class:`~repro.cpu.simulator.SimulatorState` read an engine only through
    :attr:`EngineConfig.timing` (and its name, for the SpGEMM error
    message), so two engines with equal timing simulate every trace to the
    same result.  :func:`repro.cpu.simulator.simulate_shared` keys shared
    simulations by it.  Each field copies the :class:`EngineConfig`
    property of the same name.

    ``sparse`` is left out: the simulator reads only ``sparse and spgemm``,
    and ``spgemm`` implies ``sparse``.  The name, alpha, beta, supported
    patterns, prior work and geometry are left out too: beyond the fields
    below they reach a simulation only through the kernel trace a caller
    builds for the engine.
    """

    weight_load_latency: int
    feed_first_latency: int
    feed_second_latency: int
    drain_latency: int
    reduction_latency: int
    output_ready_latency: int
    output_forwarding: bool
    busy_cycles_per_instruction: int
    spgemm: bool

    def spgemm_feed_overhead(self, effective_k: int) -> int:
        """Extra Feed-First cycles of one SPGEMM instruction.

        The stream-merge unit intersects A's and B's positional metadata one
        block pair at a time, :data:`SPGEMM_MERGE_BLOCKS_PER_CYCLE` pairs per
        cycle, before the merged columns can stream into the array.  An
        instruction covering ``effective_k`` reduction elements spans
        ``effective_k / 4`` blocks, so the overhead grows with the pattern's
        compression ratio (4 cycles for 2:4 / K=64, 8 for 1:4 / K=128).
        """
        if not self.spgemm:
            raise ConfigurationError(
                "the engine does not implement SpGEMM stream merging"
            )
        return spgemm_merge_overhead(effective_k // BLOCK_SIZE_M)


@dataclass(frozen=True)
class EngineConfig:
    """One matrix-engine design point.

    Attributes
    ----------
    name:
        Display name, e.g. ``"VEGETA-S-2-2"``.
    sparse:
        True for VEGETA-S engines (sparsity-aware SPEs), False for VEGETA-D.
    alpha:
        Broadcast factor — PUs per PE sharing westward inputs.
    beta:
        Reduction factor — MAC units per PU cooperating on one output.
    total_macs:
        Total MAC units (512 for every paper configuration).
    supported_patterns:
        The N:4 patterns the engine can execute natively.  Dense engines
        support only 4:4; the STC-like baseline restricts a sparse engine to
        {4:4, 2:4}.
    output_forwarding:
        Whether the engine implements the output-forwarding bypass of
        Section V-C (resolves accumulator dependences early).
    spgemm:
        Whether the engine implements the dual-operand metadata intersection
        needed by the ``TILE_SPGEMM_U/V`` instructions (sparse x sparse).
        Requires a sparse engine; the intersection adds Feed-First latency
        (see :meth:`EngineTiming.spgemm_feed_overhead`).
    prior_work:
        The prior-work design this configuration models, if any (Table III).
    geometry:
        The tile geometry the engine executes
        (:class:`~repro.types.TileGeometry`); register sizes, feed lengths
        and MAC accounting all derive from it.  Defaults to the paper's
        Table II design point.
    """

    name: str
    sparse: bool
    alpha: int
    beta: int
    total_macs: int = TOTAL_MAC_UNITS
    supported_patterns: FrozenSet[SparsityPattern] = field(default=None)  # type: ignore[assignment]
    output_forwarding: bool = False
    spgemm: bool = False
    prior_work: str = ""
    geometry: TileGeometry = DEFAULT_GEOMETRY

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigurationError(
                f"alpha/beta must be positive, got alpha={self.alpha}, beta={self.beta}"
            )
        macs_per_output = self.geometry.macs_per_output_element
        if macs_per_output % self.beta != 0:
            raise ConfigurationError(
                f"beta={self.beta} must divide the {macs_per_output} "
                "effectual MACs per output element"
            )
        nrows = macs_per_output // self.beta
        per_column_macs = nrows * self.alpha * self.beta
        if self.total_macs % per_column_macs != 0:
            raise ConfigurationError(
                f"total_macs={self.total_macs} is not a whole number of PE columns "
                f"({per_column_macs} MACs per column)"
            )
        if self.supported_patterns is None:
            patterns = ALL_NM_PATTERNS if self.sparse else DENSE_ONLY
            object.__setattr__(self, "supported_patterns", patterns)
        else:
            object.__setattr__(
                self, "supported_patterns", frozenset(self.supported_patterns)
            )
        if SparsityPattern.DENSE_4_4 not in self.supported_patterns:
            raise ConfigurationError("every engine must at least run dense 4:4 tiles")
        if not self.sparse and self.supported_patterns != DENSE_ONLY:
            raise ConfigurationError(
                "a dense engine cannot claim support for sparse patterns"
            )
        if self.sparse and not self.geometry.supports_metadata:
            raise ConfigurationError(
                f"a sparse engine needs metadata registers; geometry "
                f"{self.geometry.name!r} has none"
            )
        if self.spgemm and not self.sparse:
            raise ConfigurationError(
                "SpGEMM support requires a sparse engine (metadata muxes)"
            )

    # -- structural derivations --------------------------------------------------

    @property
    def nrows(self) -> int:
        """Rows of PEs: effectual MACs per output element divided by beta."""
        return self.geometry.macs_per_output_element // self.beta

    @property
    def ncols(self) -> int:
        """Columns of PEs such that the total MAC budget is met."""
        return self.total_macs // (self.nrows * self.alpha * self.beta)

    @property
    def macs_per_pe(self) -> int:
        """MAC units per PE (alpha x beta), as listed in Table III."""
        return self.alpha * self.beta

    @property
    def num_pes(self) -> int:
        """Total number of PEs in the array."""
        return self.nrows * self.ncols

    @property
    def inputs_per_pe(self) -> int:
        """Input elements received per PE per cycle (Table III).

        Sparse PEs receive ``beta`` whole blocks of M elements so the
        input-selector muxes can pick the operand matching each non-zero
        weight; dense PEs receive ``beta`` individual elements.
        """
        return self.beta * (BLOCK_SIZE_M if self.sparse else 1)

    @property
    def reduction_latency(self) -> int:
        """Pipeline depth of the adder tree below each PU column (log2 beta)."""
        return int(math.log2(self.beta)) if self.beta > 1 else 0

    @property
    def drain_latency(self) -> int:
        """Cycles of the DR stage (Table III's "Drain Latency" column)."""
        return max(self.ncols, self.reduction_latency + 1)

    @property
    def weight_load_latency(self) -> int:
        """Cycles of the WL stage: one row of stationary weights per cycle."""
        return self.nrows

    @property
    def feed_first_latency(self) -> int:
        """Cycles of the FF stage: the Tn columns of the input tile."""
        return self.geometry.fp32_cols

    @property
    def busy_cycles_per_instruction(self) -> int:
        """Cycles the MAC array is fully busy per dense tile instruction.

        One instruction performs ``geometry.macs_per_tile_instruction`` MACs
        on ``total_macs`` units; for every paper configuration (8192 MACs on
        512 units) this is 16 cycles — exactly the Feed-First length, because
        each fed input column keeps the whole array busy for one cycle.
        """
        return max(1, self.geometry.macs_per_tile_instruction // self.total_macs)

    @property
    def feed_second_latency(self) -> int:
        """Cycles of the FS stage: the skew across the remaining PE rows."""
        return self.nrows - 1

    @property
    def issue_interval(self) -> int:
        """Minimum cycles between pipelined independent tile instructions.

        No two in-flight instructions may occupy the same stage (Section
        V-C), so the initiation interval is the longest stage latency: 16
        cycles for the balanced beta=2 designs, but 32 for the beta=1 designs
        whose weight-load stage spans all 32 PE rows — the stage mismatch
        that makes RASA-SM the slowest point in Figure 13.
        """
        return max(
            self.weight_load_latency,
            self.feed_first_latency,
            self.feed_second_latency,
            self.drain_latency,
        )

    @property
    def instruction_latency(self) -> int:
        """Unpipelined latency of one tile instruction (WL + FF + FS + DR + red.)."""
        return (
            self.weight_load_latency
            + self.feed_first_latency
            + self.feed_second_latency
            + self.drain_latency
            + self.reduction_latency
        )

    @property
    def output_ready_latency(self) -> int:
        """Cycles from reading a C element to its updated value being written.

        Section V-C: every output element is produced ``Nrows + log2(beta)``
        cycles after it is fed, and the write-back order matches the read
        order, so with output forwarding a dependent instruction can start
        reading C ``2 * Nrows + log2(beta)`` cycles after this one began its
        feed stage.
        """
        return 2 * self.nrows + self.reduction_latency

    # -- the simulator's view ------------------------------------------------------

    @functools.cached_property
    def timing(self) -> EngineTiming:
        """What the simulator reads of this engine (:class:`EngineTiming`).

        Engines with equal timing give equal simulations of a shared trace.
        Among the Figure 13 engines, VEGETA-D-1-2, STC-like and VEGETA-S-1-2
        share one timing, and so do VEGETA-S-8-2 and VEGETA-S-16-2 (both
        drain in max(ncols, log2 beta + 1) = 2 cycles).  Derived once per
        configuration: every simulation state and pipeline reads it.
        """
        return EngineTiming(
            weight_load_latency=self.weight_load_latency,
            feed_first_latency=self.feed_first_latency,
            feed_second_latency=self.feed_second_latency,
            drain_latency=self.drain_latency,
            reduction_latency=self.reduction_latency,
            output_ready_latency=self.output_ready_latency,
            output_forwarding=self.output_forwarding,
            busy_cycles_per_instruction=self.busy_cycles_per_instruction,
            spgemm=self.spgemm,
        )

    # -- capability queries ----------------------------------------------------------

    @property
    def supports_rowwise(self) -> bool:
        """True if the engine executes ``TILE_SPMM_R`` (needs full N:4 support)."""
        return self.sparse and ALL_NM_PATTERNS <= self.supported_patterns

    def executable_pattern(self, pattern: SparsityPattern) -> SparsityPattern:
        """The pattern the engine actually runs for a tile pruned to ``pattern``.

        A dense engine runs every tile as 4:4 (it cannot skip zeros); the
        STC-like engine runs 1:4 tiles as 2:4.  This models the "same
        performance for 2:4 and 1:4" behaviour of Figure 13's dense and STC
        bars.
        """
        if pattern is SparsityPattern.ROW_WISE:
            raise ConfigurationError(
                "use supports_rowwise / the row-wise mapping for row-wise tiles"
            )
        if pattern in self.supported_patterns:
            return pattern
        if (
            pattern is SparsityPattern.SPARSE_1_4
            and SparsityPattern.SPARSE_2_4 in self.supported_patterns
        ):
            return SparsityPattern.SPARSE_2_4
        return SparsityPattern.DENSE_4_4

    def with_output_forwarding(self, enabled: bool = True) -> "EngineConfig":
        """A copy of this configuration with output forwarding toggled."""
        return self._with_features(enabled, self.spgemm)

    def with_spgemm(self, enabled: bool = True) -> "EngineConfig":
        """A copy of this configuration with SpGEMM stream merging toggled."""
        return self._with_features(self.output_forwarding, enabled)

    def _with_features(self, output_forwarding: bool, spgemm: bool) -> "EngineConfig":
        """A copy with both features set, named after the enabled ones.

        The name drops every feature suffix and re-appends the enabled ones
        in :data:`FEATURE_SUFFIXES` order, the order
        :func:`repro.analysis.runtime.resolve_engine` applies them in, so
        one engine has one name whichever way its features were toggled
        (engine equality includes the name).
        """
        name = self.name
        while name.endswith(FEATURE_SUFFIXES):
            name = name.rsplit("+", 1)[0]
        name += ("+OF" if output_forwarding else "") + ("+SPGEMM" if spgemm else "")
        return dataclasses.replace(
            self, name=name, output_forwarding=output_forwarding, spgemm=spgemm
        )

    def describe(self) -> Dict[str, object]:
        """Table III row for this engine, extended with its tile geometry.

        Used by the design-space benchmark and the ``repro engines`` CLI.
        """
        row: Dict[str, object] = {
            "name": self.name,
            "nrows": self.nrows,
            "ncols": self.ncols,
            "total_macs": self.total_macs,
            "macs_per_pe": self.macs_per_pe,
            "inputs_per_pe": self.inputs_per_pe,
            "broadcast_factor": self.alpha,
            "drain_latency": self.drain_latency,
            "issue_interval": self.issue_interval,
            "supported_sparsity": sorted(
                pattern.value for pattern in self.supported_patterns
            ),
            "prior_work": self.prior_work,
        }
        row.update(self.geometry.describe())
        return row


# ---------------------------------------------------------------------------
# Named configurations of Table III, plus flexible-ISA backends.
# ---------------------------------------------------------------------------

#: Intel-AMX-like tile geometry: the same 16 x 64 B tile image as VEGETA
#: (real AMX tmm registers are 16 rows x 64 B) but no structured-sparsity
#: metadata registers — AMX has no N:M support.
AMX_GEOMETRY = TileGeometry(
    name="amx",
    rows=16,
    row_bytes=64,
    metadata_reg_bytes=0,
    num_tile_regs=8,
    num_metadata_regs=0,
)

#: Arm-SME-like tile geometry at a streaming vector length of 1024 bits:
#: tiles are SVL/32 x SVL/8 bytes = 32 rows x 128 B (4 KB ZA tile slices),
#: i.e. 32x32 FP32 / 32x64 BF16 — geometry scales with the vector length
#: rather than being fixed by the ISA.  No structured-sparsity metadata.
SME_GEOMETRY = TileGeometry(
    name="sme",
    rows=32,
    row_bytes=128,
    metadata_reg_bytes=0,
    num_tile_regs=8,
    num_metadata_regs=0,
)


def _build_catalog() -> Dict[str, EngineConfig]:
    configs = [
        EngineConfig(
            name="VEGETA-D-1-1",
            sparse=False,
            alpha=1,
            beta=1,
            prior_work="Conventional SA / RASA-SM",
        ),
        EngineConfig(
            name="VEGETA-D-1-2",
            sparse=False,
            alpha=1,
            beta=2,
            prior_work="RASA-DM",
        ),
        EngineConfig(
            name="VEGETA-D-16-1",
            sparse=False,
            alpha=16,
            beta=1,
            prior_work="Intel TMUL-inspired unit",
        ),
        EngineConfig(
            name="VEGETA-S-1-2",
            sparse=True,
            alpha=1,
            beta=2,
            prior_work="New design",
        ),
        EngineConfig(
            name="VEGETA-S-2-2",
            sparse=True,
            alpha=2,
            beta=2,
            prior_work="New design",
        ),
        EngineConfig(
            name="VEGETA-S-4-2",
            sparse=True,
            alpha=4,
            beta=2,
            prior_work="New design",
        ),
        EngineConfig(
            name="VEGETA-S-8-2",
            sparse=True,
            alpha=8,
            beta=2,
            prior_work="New design",
        ),
        EngineConfig(
            name="VEGETA-S-16-2",
            sparse=True,
            alpha=16,
            beta=2,
            prior_work="New design",
        ),
        # Flexible-ISA backends: dense engines with their own tile geometry,
        # modelled next to the VEGETA design points in the same simulator.
        EngineConfig(
            name="AMX-like",
            sparse=False,
            alpha=16,
            beta=1,
            prior_work="Intel AMX TMUL",
            geometry=AMX_GEOMETRY,
        ),
        EngineConfig(
            name="SME-like",
            sparse=False,
            alpha=1,
            beta=2,
            # The outer-product array scales with the vector length: one MAC
            # per (row, BF16 column) pair keeps the whole 32x32 FP32 tile
            # fed at one input column per cycle (rows x bf16_cols = 2048).
            total_macs=SME_GEOMETRY.rows * SME_GEOMETRY.bf16_cols,
            prior_work="Arm SME (SVL=1024b)",
            geometry=SME_GEOMETRY,
        ),
    ]
    return {config.name: config for config in configs}


_CATALOG = _build_catalog()


def catalog() -> Dict[str, EngineConfig]:
    """All Table III engine configurations keyed by name."""
    return dict(_CATALOG)


def get_engine(name: str) -> EngineConfig:
    """Look up a Table III configuration by name (case-insensitive)."""
    key = name.upper().replace("_", "-")
    for candidate, config in _CATALOG.items():
        if candidate.upper() == key:
            return config
    raise ConfigurationError(
        f"unknown engine {name!r}; known engines: {', '.join(sorted(_CATALOG))}"
    )


def stc_like_engine() -> EngineConfig:
    """The NVIDIA Sparse-Tensor-Core-like baseline.

    Section VI-A models STC as VEGETA-S-1-2 restricted to 2:4 support only,
    which we express by trimming the supported pattern set.
    """
    return EngineConfig(
        name="STC-like",
        sparse=True,
        alpha=1,
        beta=2,
        supported_patterns=frozenset(
            {SparsityPattern.DENSE_4_4, SparsityPattern.SPARSE_2_4}
        ),
        prior_work="NVIDIA STC-like config",
    )
