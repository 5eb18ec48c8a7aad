"""Functional (timing-free) execution of VEGETA instructions.

The paper validates its kernels with a Pin-based emulator that implements
the semantics of every instruction in Table II; this module plays that role.
:class:`FunctionalMachine` executes instruction sequences against a
:class:`~repro.core.memory_image.ByteMemory` and a
:class:`~repro.core.registers.TileRegisterFile`, producing numerically
correct results (BF16-rounded inputs, FP32 accumulation) that the test suite
compares against numpy reference GEMMs.

Data layout conventions (matching Section IV-B and Listing 1):

* an **A tile** (stationary, possibly sparse) lives in a treg as 16 rows of
  32 BF16 stored values; sparse tiles additionally use the mreg with the same
  index for their 2-bit positional metadata;
* a **B tile** (streamed, dense) is stored *transposed*: logical column ``j``
  of B occupies logical row ``j`` of the register, so a treg/ureg/vreg holds
  B^T with shape 16 x (32 / 64 / 128);
* a **C tile** (accumulator) is 16 x 16 FP32 in a treg
  (R x 16 in a ureg for ``TILE_SPMM_R``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from ..sparse import metadata as sparse_metadata
from ..types import (
    BLOCK_SIZE_M,
    DEFAULT_GEOMETRY,
    DType,
    SparsityPattern,
    TileGeometry,
)
from .isa import Instruction, Opcode
from .memory_image import ByteMemory
from .registers import RegisterRef, TileRegisterFile, mreg


@dataclass
class ExecutionStats:
    """Counts collected while functionally executing a kernel."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    compute: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0
    effectual_macs: int = 0
    by_opcode: Dict[str, int] = field(default_factory=dict)

    def record(self, instruction: Instruction, macs: int = 0) -> None:
        """Account for one executed instruction."""
        self.instructions += 1
        opcode = instruction.opcode
        self.by_opcode[opcode.value] = self.by_opcode.get(opcode.value, 0) + 1
        if opcode.is_load:
            self.loads += 1
            self.bytes_loaded += instruction.memory.nbytes
        elif opcode.is_store:
            self.stores += 1
            self.bytes_stored += instruction.memory.nbytes
        else:
            self.compute += 1
            self.effectual_macs += macs


class FunctionalMachine:
    """Executes VEGETA instruction sequences with correct arithmetic.

    ``geometry`` selects the backend's tile geometry; the default reproduces
    the paper's Table II design point exactly, while e.g. the SME-like
    geometry executes 32x32 FP32 tiles through the same instruction set.
    """

    def __init__(
        self,
        memory: Optional[ByteMemory] = None,
        geometry: TileGeometry = DEFAULT_GEOMETRY,
    ) -> None:
        self.memory = memory if memory is not None else ByteMemory()
        self.geometry = geometry
        self.registers = TileRegisterFile(geometry)
        self.stats = ExecutionStats()
        #: Address each treg was last loaded from (for row-wise metadata lookup).
        self._treg_load_address: Dict[int, int] = {}
        #: Row-wise pattern descriptors registered by kernels, keyed by the
        #: memory address of the compressed A tile they describe.
        self._rowwise_patterns: Dict[int, Tuple[SparsityPattern, ...]] = {}

    # -- kernel-facing configuration -------------------------------------------

    def register_rowwise_patterns(
        self, address: int, patterns: Sequence[SparsityPattern]
    ) -> None:
        """Associate per-row N:4 patterns with a compressed A tile in memory.

        ``TILE_SPMM_R`` needs to know each row's pattern (the paper stores it
        as up to 8 extra metadata bytes); kernels register it here when they
        lay the tile out in memory.
        """
        self._rowwise_patterns[address] = tuple(patterns)

    # -- execution ---------------------------------------------------------------

    def execute(self, instructions: Iterable[Instruction]) -> ExecutionStats:
        """Execute a sequence of instructions, returning accumulated stats."""
        for instruction in instructions:
            self.step(instruction)
        return self.stats

    def step(self, instruction: Instruction) -> None:
        """Execute a single instruction."""
        opcode = instruction.opcode
        if opcode.is_load:
            self._execute_load(instruction)
            self.stats.record(instruction)
        elif opcode.is_store:
            self._execute_store(instruction)
            self.stats.record(instruction)
        elif opcode is Opcode.TILE_GEMM:
            macs = self._execute_gemm(instruction)
            self.stats.record(instruction, macs)
        elif opcode is Opcode.TILE_SPMM_U:
            macs = self._execute_spmm_fixed(instruction, SparsityPattern.SPARSE_2_4)
            self.stats.record(instruction, macs)
        elif opcode is Opcode.TILE_SPMM_V:
            macs = self._execute_spmm_fixed(instruction, SparsityPattern.SPARSE_1_4)
            self.stats.record(instruction, macs)
        elif opcode is Opcode.TILE_SPMM_R:
            macs = self._execute_spmm_rowwise(instruction)
            self.stats.record(instruction, macs)
        elif opcode is Opcode.TILE_SPGEMM_U:
            macs = self._execute_spgemm(instruction, SparsityPattern.SPARSE_2_4)
            self.stats.record(instruction, macs)
        elif opcode is Opcode.TILE_SPGEMM_V:
            macs = self._execute_spgemm(instruction, SparsityPattern.SPARSE_1_4)
            self.stats.record(instruction, macs)
        else:  # pragma: no cover - unreachable with a closed opcode set
            raise ExecutionError(f"unsupported opcode {opcode!r}")

    # -- loads / stores -----------------------------------------------------------

    def _execute_load(self, instruction: Instruction) -> None:
        data = self.memory.read(instruction.memory.address, instruction.memory.nbytes)
        self.registers.write_bytes(instruction.dst, data)
        if instruction.dst.kind == "treg":
            self._treg_load_address[instruction.dst.index] = instruction.memory.address
        elif instruction.dst.kind in ("ureg", "vreg"):
            for offset, index in enumerate(instruction.dst.backing_tregs()):
                self._treg_load_address[index] = (
                    instruction.memory.address
                    + offset * self.geometry.tile_reg_bytes
                )

    def _execute_store(self, instruction: Instruction) -> None:
        data = self.registers.read_bytes(instruction.src_a)
        self.memory.write(instruction.memory.address, data)

    # -- dense GEMM ----------------------------------------------------------------

    def _read_accumulator(self, ref: RegisterRef, rows: int) -> np.ndarray:
        matrix = self.registers.read_matrix(ref, DType.FP32)
        return matrix[:rows]

    def _write_accumulator(self, ref: RegisterRef, value: np.ndarray) -> None:
        full = self.registers.read_matrix(ref, DType.FP32)
        full[: value.shape[0]] = value
        self.registers.write_matrix(ref, full, DType.FP32)

    def _execute_gemm(self, instruction: Instruction) -> int:
        a = self.registers.read_matrix(instruction.src_a, DType.BF16)  # rows x bf16_cols
        b_t = self.registers.read_matrix(instruction.src_b, DType.BF16)  # B^T, same shape
        c = self._read_accumulator(instruction.dst, self.geometry.rows)  # rows x fp32_cols
        update = a @ b_t.T
        self._write_accumulator(instruction.dst, c + update.astype(np.float32))
        return a.shape[0] * b_t.shape[0] * a.shape[1]

    # -- fixed-pattern SPMM ----------------------------------------------------------

    def _expand_sparse_a(
        self, a_ref: RegisterRef, pattern: SparsityPattern
    ) -> np.ndarray:
        """Decompress the sparse A operand to its effective dense form.

        One vectorised scatter: stored column ``block * n + slot`` lands in
        effective column ``block * 4 + metadata_index``.  Zero stored values
        are masked out (they carry no metadata guarantee), matching the
        scalar reference loop element for element.
        """
        stored = self.registers.read_matrix(a_ref, DType.BF16)  # rows x bf16_cols
        metadata_bytes = self.registers.read_bytes(mreg(a_ref.index))
        indices = sparse_metadata.unpack_indices(
            metadata_bytes, self.geometry.rows, self.geometry.bf16_cols
        )
        effective_cols = self.geometry.bf16_cols * pattern.compression_ratio
        dense = np.zeros((self.geometry.rows, effective_cols), dtype=np.float32)
        n = pattern.n
        used = (effective_cols // BLOCK_SIZE_M) * n  # stored columns per row
        values = stored[:, :used]
        targets = (
            (np.arange(used, dtype=np.int64) // n) * BLOCK_SIZE_M
            + indices[:, :used].astype(np.int64)
        )
        mask = values != 0.0
        rows = np.broadcast_to(
            np.arange(self.geometry.rows, dtype=np.int64)[:, None], values.shape
        )
        dense[rows[mask], targets[mask]] = values[mask]
        return dense

    def _execute_spmm_fixed(
        self, instruction: Instruction, pattern: SparsityPattern
    ) -> int:
        effective_a = self._expand_sparse_a(instruction.src_a, pattern)
        k_effective = effective_a.shape[1]
        # B is stored transposed: fp32_cols logical rows of k_effective BF16 values.
        b_bytes = self.registers.read_bytes(instruction.src_b)
        raw = np.frombuffer(b_bytes, dtype=np.uint16).astype(np.uint32) << 16
        b_t = raw.view(np.float32).reshape(self.geometry.fp32_cols, k_effective)
        c = self._read_accumulator(instruction.dst, self.geometry.rows)
        update = effective_a @ b_t.T
        self._write_accumulator(instruction.dst, c + update.astype(np.float32))
        # Effectual MACs: one per stored non-zero per output column.
        return self.geometry.macs_per_tile_instruction

    # -- SpGEMM (sparse x sparse) --------------------------------------------------------

    def _execute_spgemm(
        self, instruction: Instruction, pattern: SparsityPattern
    ) -> int:
        """Execute ``TILE_SPGEMM_U/V``: both operands N:4 compressed.

        A is expanded exactly as for SPMM; B — stored transposed, each
        register row holding one logical B column compressed along K — is
        expanded with the same decompression using the mreg of the B treg.
        The hardware intersects the two metadata streams instead of
        expanding, but the arithmetic is identical.
        """
        effective_a = self._expand_sparse_a(instruction.src_a, pattern)
        effective_b_t = self._expand_sparse_a(instruction.src_b, pattern)
        c = self._read_accumulator(instruction.dst, self.geometry.rows)
        update = effective_a @ effective_b_t.T
        self._write_accumulator(instruction.dst, c + update.astype(np.float32))
        # Effectual MACs: one per (A non-zero, B non-zero) pair sharing a K
        # position — what survives the metadata intersection.
        return int(
            ((effective_a != 0.0).astype(np.int64)
             @ (effective_b_t != 0.0).astype(np.int64).T).sum()
        )

    # -- row-wise SPMM -------------------------------------------------------------------

    def _execute_spmm_rowwise(self, instruction: Instruction) -> int:
        a_ref = instruction.src_a
        load_address = self._treg_load_address.get(a_ref.index)
        if load_address is None or load_address not in self._rowwise_patterns:
            raise ExecutionError(
                "TILE_SPMM_R requires row-wise pattern metadata registered for "
                "the address the A tile was loaded from"
            )
        patterns = self._rowwise_patterns[load_address]
        stored_flat = self.registers.read_matrix(a_ref, DType.BF16).reshape(-1)
        metadata_bytes = self.registers.read_bytes(mreg(a_ref.index))
        indices_flat = sparse_metadata.unpack_indices(
            metadata_bytes, self.geometry.rows, self.geometry.bf16_cols
        ).reshape(-1)
        # 64 for the default geometry, per Section IV-B.
        effective_cols = BLOCK_SIZE_M * self.geometry.fp32_cols
        rows = len(patterns)
        if not 1 <= rows <= 2 * self.geometry.rows:
            raise ExecutionError(
                f"TILE_SPMM_R supports 1..{2 * self.geometry.rows} rows, got {rows}"
            )
        dense_a = np.zeros((rows, effective_cols), dtype=np.float32)
        # Vectorised scatter over the packed per-row regions: row ``r`` owns
        # stored slots ``[starts[r], starts[r] + blocks * n_r)``; slot ``k``
        # of that region lands in effective column ``(k // n_r) * 4 + index``.
        blocks = effective_cols // BLOCK_SIZE_M
        row_n = np.array([pattern.n for pattern in patterns], dtype=np.int64)
        stored_per_row = blocks * row_n
        ends = np.cumsum(stored_per_row)
        if ends[-1] > stored_flat.size:
            raise ExecutionError(
                "row-wise A tile overflows the 512 stored values of a treg"
            )
        cursor = int(ends[-1])
        row_of = np.repeat(np.arange(rows, dtype=np.int64), stored_per_row)
        local = np.arange(cursor, dtype=np.int64) - np.repeat(
            ends - stored_per_row, stored_per_row
        )
        targets = (local // row_n[row_of]) * BLOCK_SIZE_M + indices_flat[
            :cursor
        ].astype(np.int64)
        values = stored_flat[:cursor]
        mask = values != 0.0
        dense_a[row_of[mask], targets[mask]] = values[mask]
        # B: 64 x 16, stored transposed in a ureg as 16 x 64.
        b_bytes = self.registers.read_bytes(instruction.src_b)
        raw = np.frombuffer(b_bytes, dtype=np.uint16).astype(np.uint32) << 16
        b_t = raw.view(np.float32).reshape(self.geometry.fp32_cols, effective_cols)
        # C: rows x fp32_cols FP32, packed row-major in the destination ureg.
        c_full = self.registers.read_matrix(instruction.dst, DType.FP32)
        c = c_full.reshape(-1, self.geometry.fp32_cols)[:rows]
        update = dense_a @ b_t.T
        c_new = c + update.astype(np.float32)
        flat = c_full.reshape(-1, self.geometry.fp32_cols)
        flat[:rows] = c_new
        self.registers.write_matrix(
            instruction.dst, flat.reshape(c_full.shape), DType.FP32
        )
        return cursor * self.geometry.fp32_cols
