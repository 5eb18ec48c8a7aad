"""A fixed probe of the host's current speed that never touches the program.

On a shared host, other tenants slow every process down in phases that last
from seconds to minutes and make a sweep take up to 1.6x its undisturbed
time.  ``run.py`` runs :meth:`Yardstick.probe` right before and right after
each sweep repetition and divides the repetition's times by the mean of the
two probes, so a phase that slows both cancels out.  Multiplying by
``NOMINAL_PROBE_S`` turns the quotient back into seconds: the time the
repetition would have taken on a host where the probe takes that long.

The probe mixes the kinds of work a sweep does: interpreter-bound loops,
dictionary lookups over a working set larger than the private caches, NumPy
sorts of a few MB, many small NumPy calls, and short-lived allocations.
Each kind alone tracks the host's phases less well than their sum.
"""

from __future__ import annotations

import random
import time

import numpy as np

#: Seconds one probe takes on an undisturbed 2-vCPU x86 container (the
#: fastest of 20 probes).  A constant, so it rescales every run alike; it is
#: not re-measured, or it would carry the host's noise into every result.
NOMINAL_PROBE_S = 0.30

_DICT_ENTRIES = 300_000
_ARRAY_ENTRIES = 200_000


class Yardstick:
    """The probe's inputs, built once per run so that probes time only work."""

    def __init__(self) -> None:
        keys = [index * 2654435761 % (1 << 32) for index in range(_DICT_ENTRIES)]
        self._table = dict(zip(keys, range(_DICT_ENTRIES)))
        random.Random(0).shuffle(keys)
        self._keys = keys
        self._array = np.arange(_ARRAY_ENTRIES, dtype=np.int64)
        self._small = np.arange(64)

    def probe(self) -> float:
        """Seconds the fixed probe work takes now."""
        started = time.perf_counter()
        total = 0
        for index in range(300_000):
            total += (index * 7) ^ (total & 1023)
        for key in self._keys:
            total += self._table[key]
        for offset in range(30):
            np.sort((self._array * 7919 + offset) % 100003)
        for offset in range(15_000):
            shifted = self._small + offset
            total += int(shifted[shifted > 10].sum())
        kept = []
        for index in range(100_000):
            kept.append((index, str(index), [index]))
            if len(kept) > 5000:
                kept = []
        return time.perf_counter() - started
