"""Content-addressed on-disk result cache with crash-consistent entries.

Every trial result is stored as one small JSON file whose name is the SHA-256
of (cache schema version, simulator model version, experiment name, spec
version, trial parameters) — see
:meth:`repro.experiments.spec.ExperimentSpec.cache_key`.  Because the key
covers every input that can change a result, there is no explicit
invalidation: changing a parameter or any of the versions simply addresses
different entries, and stale entries are garbage that ``repro cache clear``
removes.

Crash consistency: every write goes through one atomic
write-temp-then-rename path (:func:`atomic_write_json`), and every entry is
an envelope ``{"sha256": <hex>, "row": {...}}`` whose checksum covers the
canonical JSON of the row.  Reads verify the checksum; an entry that fails
to parse or verify — truncated by a crash, bit-flipped by the disk, or
corrupted by the fault-injection harness — is *quarantined* (moved under
``<root>/_quarantine/`` with a ``.bad`` suffix) and reported as a miss, so
one poisoned file costs one recomputation instead of a crash or a
permanently wedged key.  ``repro cache info`` reports verified vs
quarantined counts per namespace.

The cache root defaults to ``.repro-cache`` under the current working
directory and can be redirected with the ``REPRO_CACHE_DIR`` environment
variable (or per-call with ``cache_root`` / ``--cache-dir``, which the
``simblocks`` store of the sweep's trials follows too).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..faults import hooks as fault_hooks
from .spec import canonical_json

#: Per-process monotonic counter making concurrent temp files unique: two
#: threads of one process share a PID, so a PID-only suffix lets their
#: write-to-temp phases clobber each other mid-write.
_TEMP_COUNTER = itertools.count()

#: Environment variable overriding the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Directory (under the cache root) receiving quarantined corrupt entries.
QUARANTINE_DIR = "_quarantine"


def default_cache_root() -> Path:
    """The cache root honoring the ``REPRO_CACHE_DIR`` override."""
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


def row_checksum(row: Dict[str, Any]) -> str:
    """SHA-256 of the row's canonical JSON — the entry integrity checksum."""
    return hashlib.sha256(canonical_json(row).encode("utf-8")).hexdigest()


def atomic_write_json(path: Path, payload: Any) -> None:
    """The single atomic publish path: write a temp file, then rename.

    The temp name combines the PID with a per-call counter so concurrent
    writers of the same path — other processes *and* other threads of this
    process — never share a temp file; ``os.replace`` is the one atomic
    publish step, so readers observe either the old entry or the complete
    new one, never a torn write.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_suffix(f".{os.getpid()}.{next(_TEMP_COUNTER)}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(temp, path)
    except BaseException:
        try:
            temp.unlink()
        except OSError:
            pass
        raise


class NullCache:
    """A cache that stores nothing (``--no-cache`` / ``cache=False``)."""

    def get(self, experiment: str, key: str) -> Optional[Dict[str, Any]]:
        return None

    def put(self, experiment: str, key: str, row: Dict[str, Any]) -> None:
        return None

    def clear(self) -> int:
        return 0


class ResultCache:
    """Filesystem-backed content-addressed cache of trial result rows."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_cache_root()

    def path_for(self, experiment: str, key: str) -> Path:
        """Entry path; sharded by key prefix to keep directories small."""
        return self.root / experiment / key[:2] / f"{key}.json"

    def _read_verified(self, path: Path) -> Optional[Dict[str, Any]]:
        """Parse and checksum-verify one entry; None on any corruption.

        Valid entries are ``{"sha256": ..., "row": {...}}`` envelopes whose
        checksum matches the row's canonical JSON.  Anything else — invalid
        JSON, a non-envelope object (e.g. a pre-envelope legacy entry), or a
        checksum mismatch — is corrupt.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except ValueError:
            return None
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("row"), dict)
            or entry.get("sha256") != row_checksum(entry["row"])
        ):
            return None
        return entry["row"]

    def get(self, experiment: str, key: str) -> Optional[Dict[str, Any]]:
        """The cached row for a key, or None on miss or corruption.

        A corrupt entry (truncated write, bit rot, checksum mismatch) is
        quarantined before reporting the miss: left in place it would be
        re-read and re-missed on every future run without ever being
        overwritten, because :meth:`put` only runs after a miss whose result
        the next ``get`` would again fail to read.  Quarantining (instead of
        unlinking) preserves the evidence for post-mortems; ``repro cache
        clear`` drops the quarantine with the rest of the root.
        """
        path = self.path_for(experiment, key)
        try:
            row = self._read_verified(path)
        except OSError:
            return None
        if row is None:
            self._quarantine(path)
            return None
        return row

    def _quarantine(self, path: Path) -> None:
        """Best-effort move of a poisoned entry into the quarantine dir.

        Racy by design: a concurrent process may have already replaced the
        corrupt file with a fresh valid entry, in which case this move drops
        that entry and the trial is simply recomputed on the next run —
        wasted work, never corruption, and cheaper than cross-process
        locking.  The destination name gets a PID + counter suffix so
        repeated corruption of one key never collides.
        """
        target = (
            self.root
            / QUARANTINE_DIR
            / f"{path.stem}.{os.getpid()}.{next(_TEMP_COUNTER)}.bad"
        )
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def put(self, experiment: str, key: str, row: Dict[str, Any]) -> None:
        """Atomically persist one row inside a checksummed envelope."""
        fault_hooks.on_store_write(experiment, key)
        path = self.path_for(experiment, key)
        atomic_write_json(path, {"sha256": row_checksum(row), "row": row})
        fault_hooks.on_store_written(path, experiment, key)

    def clear(self) -> int:
        """Remove every entry; returns the number of entries removed."""
        removed = sum(1 for _ in self.root.rglob("*.json"))
        if self.root.exists():
            shutil.rmtree(self.root)
        return removed

    def stats(self) -> Dict[str, Any]:
        """Entry count, total size, and per-experiment breakdown."""
        entries = 0
        total_bytes = 0
        experiments: Dict[str, int] = {}
        if self.root.exists():
            for path in self.root.rglob("*.json"):
                entries += 1
                total_bytes += path.stat().st_size
                experiment = path.relative_to(self.root).parts[0]
                experiments[experiment] = experiments.get(experiment, 0) + 1
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "experiments": experiments,
        }

    def verify(self) -> Dict[str, Any]:
        """Checksum-verify every entry, quarantining the corrupt ones.

        Returns overall and per-namespace ``verified`` / ``quarantined``
        counts plus the total number of files sitting in the quarantine
        directory (including ones from earlier runs).
        """
        verified = 0
        quarantined = 0
        namespaces: Dict[str, Dict[str, int]] = {}
        if self.root.exists():
            for path in sorted(self.root.rglob("*.json")):
                experiment = path.relative_to(self.root).parts[0]
                counts = namespaces.setdefault(
                    experiment, {"verified": 0, "quarantined": 0}
                )
                try:
                    row = self._read_verified(path)
                except OSError:
                    row = None
                if row is None:
                    self._quarantine(path)
                    quarantined += 1
                    counts["quarantined"] += 1
                else:
                    verified += 1
                    counts["verified"] += 1
        quarantine_root = self.root / QUARANTINE_DIR
        quarantine_files = (
            sum(1 for _ in quarantine_root.rglob("*.bad"))
            if quarantine_root.exists()
            else 0
        )
        return {
            "verified": verified,
            "quarantined": quarantined,
            "namespaces": namespaces,
            "quarantine_files": quarantine_files,
        }


def resolve_cache(
    cache: Union[bool, None, NullCache, ResultCache] = True,
    cache_root: Optional[Union[str, Path]] = None,
) -> Union[NullCache, ResultCache]:
    """Normalize the user-facing ``cache`` argument to a cache object."""
    if cache is True:
        return ResultCache(cache_root)
    if cache in (False, None):
        return NullCache()
    return cache


class SimulationBlockStore:
    """Signature-keyed persistent store for per-core simulation payloads.

    Adapts the content-addressed experiments cache to the duck-typed
    ``get(key)`` / ``put(key, payload)`` interface
    :func:`repro.cpu.multicore.simulate_cores` expects.  Keys are the
    full simulation keys of :func:`repro.cpu.multicore.simulation_cache_key`
    — content-derived and process-independent — so per-core results recur
    for free across trials, sweeps, worker processes and runs.  The
    ``scaling`` and ``autotune`` experiments share this one namespace:
    either sweep warms the store for the other.

    The store is a pure performance cache, so both directions degrade
    rather than fail: reads heal corrupt/truncated entries (quarantine +
    miss, through :meth:`ResultCache.get`) and writes swallow ``OSError``
    (full disk, read-only root, injected write faults) — a lost entry costs
    one re-simulation, never a wrong result or a dead sweep.
    """

    _NAMESPACE = "simblocks"

    def __init__(self, cache: Union[NullCache, ResultCache]) -> None:
        self._cache = cache

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return self._cache.get(self._NAMESPACE, key)

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        try:
            self._cache.put(self._NAMESPACE, key, payload)
        except OSError:
            pass


def simulation_block_store() -> SimulationBlockStore:
    """The persistent block store under the running sweep's cache root.

    The root is the ``cache_root`` (``--cache-dir``) of the
    :func:`~repro.experiments.runner.run_experiment` call that runs the
    trial, in its own process or in a worker (the call sets
    ``REPRO_CACHE_DIR`` to it around its trials), then ``REPRO_CACHE_DIR``,
    then ``.repro-cache``.  With memoization disabled the simulation path
    computes no keys, so the store is never read or written.
    """
    return SimulationBlockStore(ResultCache())

