"""A flat byte-addressable memory image for the functional model.

The functional executor and the kernel generators need a common notion of
"memory": a place where dense matrices, compressed tiles and metadata live at
concrete byte addresses, so that TILE_LOAD/STORE instructions can move 64-byte
rows around exactly the way the hardware would.  :class:`ByteMemory` is a
sparse, page-backed byte array; the module-level helpers convert matrices to
and from the BF16/FP32 byte layouts used by the tile registers.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import ExecutionError
from ..types import DType, bf16_round

#: Size of a backing page.  4 KiB matches a typical OS page and keeps the
#: dictionary small for the multi-megabyte images large GEMMs need.
PAGE_BYTES = 4096


class ByteMemory:
    """Sparse byte-addressable memory backed by 4 KiB pages.

    Reads from untouched memory return zero bytes, mirroring a zero-filled
    allocation; this keeps kernel images small because output (C) buffers do
    not need to be materialised before the first accumulation.
    """

    def __init__(self) -> None:
        self._pages: Dict[int, np.ndarray] = {}

    def _page(self, number: int, create: bool) -> np.ndarray:
        page = self._pages.get(number)
        if page is None:
            if not create:
                return np.zeros(PAGE_BYTES, dtype=np.uint8)
            page = np.zeros(PAGE_BYTES, dtype=np.uint8)
            self._pages[number] = page
        return page

    def read(self, address: int, nbytes: int) -> bytes:
        """Read ``nbytes`` starting at ``address``."""
        if address < 0 or nbytes < 0:
            raise ExecutionError(
                f"invalid memory read at {address:#x} of {nbytes} bytes"
            )
        chunks = []
        remaining = nbytes
        cursor = address
        while remaining > 0:
            page_number, offset = divmod(cursor, PAGE_BYTES)
            take = min(remaining, PAGE_BYTES - offset)
            page = self._page(page_number, create=False)
            chunks.append(page[offset : offset + take].tobytes())
            cursor += take
            remaining -= take
        return b"".join(chunks)

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` starting at ``address``."""
        if address < 0:
            raise ExecutionError(f"invalid memory write at {address:#x}")
        cursor = address
        view = memoryview(data)
        while view:
            page_number, offset = divmod(cursor, PAGE_BYTES)
            take = min(len(view), PAGE_BYTES - offset)
            page = self._page(page_number, create=True)
            page[offset : offset + take] = np.frombuffer(view[:take], dtype=np.uint8)
            cursor += take
            view = view[take:]

    # -- typed matrix helpers --------------------------------------------------

    def write_matrix(self, address: int, matrix: np.ndarray, dtype: DType) -> None:
        """Store a row-major matrix at ``address`` in the given element type."""
        matrix = np.asarray(matrix, dtype=np.float32)
        if dtype is DType.FP32:
            self.write(address, matrix.astype(np.float32).tobytes())
        else:
            rounded = bf16_round(matrix)
            narrow = (rounded.view(np.uint32) >> 16).astype(np.uint16)
            self.write(address, narrow.tobytes())

    def read_matrix(
        self, address: int, rows: int, cols: int, dtype: DType
    ) -> np.ndarray:
        """Load a row-major ``rows x cols`` matrix stored at ``address``."""
        nbytes = rows * cols * dtype.nbytes
        raw = np.frombuffer(self.read(address, nbytes), dtype=np.uint8)
        if dtype is DType.FP32:
            return raw.view(np.float32).reshape(rows, cols).copy()
        widened = raw.view(np.uint16).astype(np.uint32) << 16
        return widened.view(np.float32).reshape(rows, cols).copy()
