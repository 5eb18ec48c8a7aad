"""Declarative experiment specifications.

An :class:`ExperimentSpec` describes a sweep as the cross product of named
*axes* (layers, sparsity patterns, engine configurations, densities, ...)
plus a set of *fixed* parameters shared by every point.  Expanding the spec
yields an ordered list of :class:`Trial` objects — plain, JSON-serializable
parameter dictionaries — which the executor layer runs and the result cache
keys.  Keeping trials declarative is what makes the rest of the subsystem
composable:

* executors can ship trials to worker processes (everything pickles),
* the cache can derive a stable content address from the parameters alone,
* result ordering is deterministic regardless of execution order, because
  every trial carries its index in the expansion.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..cpu.simulator import SIMULATOR_MODEL_VERSION
from ..errors import ConfigurationError

#: Bump to invalidate every cached result at once (schema-level changes).
#: v2: the simulator's prefetch-into-L2 model became an ideal-prefetch flag
#: set and empty traces pinned to zero cycles, so every simulated row from
#: schema v1 is stale.  ``max_output_tiles`` (and every other trial
#: parameter) is part of each key, so truncated and untruncated runs of the
#: same sweep address different entries.
#: v3: entries became checksummed ``{"sha256", "row"}`` envelopes (the
#: crash-consistency layer); bumping the schema means pre-envelope entries
#: are simply never addressed, instead of each being read once, failing
#: verification, and landing in the quarantine.
CACHE_SCHEMA_VERSION = "3"


def canonical_json(value: Any) -> str:
    """Serialize a value to canonical (sorted, compact) JSON.

    Used both for cache keys and for validating that spec parameters are
    plain data; anything that does not survive this round trip cannot be
    shipped to worker processes or hashed stably.
    """
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"experiment parameters must be JSON-serializable: {error}"
        ) from error


@dataclass(frozen=True)
class Trial:
    """One point of an experiment sweep.

    ``index`` is the trial's position in the spec's deterministic expansion
    order; results are always reassembled in index order, so parallel
    execution cannot reorder a :class:`~repro.experiments.results.ResultTable`.
    """

    experiment: str
    index: int
    params: Mapping[str, Any] = field(default_factory=dict)

    def canonical(self) -> str:
        """Canonical JSON of the trial's identity (excluding the index)."""
        return canonical_json({"experiment": self.experiment, "params": dict(self.params)})


@dataclass
class ExperimentSpec:
    """A sweep expressed as axes x fixed parameters.

    Attributes
    ----------
    name:
        Name of the registered trial runner that executes each point (see
        :mod:`repro.experiments.registry`).
    version:
        Spec version string, folded into every cache key; bump it whenever
        the runner's semantics change so stale cached rows are ignored.
    axes:
        Ordered mapping of axis name to the sequence of values it takes.
        Expansion is the cross product with the *last* axis varying fastest
        (``itertools.product`` order).
    fixed:
        Parameters shared by every trial.
    columns:
        Preferred column order for the resulting table; leading columns of
        every result row.  Optional — inferred from the first row if empty.
    """

    name: str
    version: str
    axes: Mapping[str, Sequence[Any]]
    fixed: Mapping[str, Any] = field(default_factory=dict)
    columns: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("an experiment spec needs a runner name")
        if not self.axes:
            raise ConfigurationError(f"{self.name}: at least one axis is required")
        overlap = set(self.axes) & set(self.fixed)
        if overlap:
            raise ConfigurationError(
                f"{self.name}: axes and fixed parameters overlap: {sorted(overlap)}"
            )
        for axis, values in self.axes.items():
            if not list(values):
                raise ConfigurationError(f"{self.name}: axis {axis!r} is empty")
        # Fail fast if any parameter cannot be hashed/pickled as plain data.
        canonical_json({"axes": {k: list(v) for k, v in self.axes.items()},
                        "fixed": dict(self.fixed)})

    @property
    def num_trials(self) -> int:
        """Number of points in the cross product."""
        count = 1
        for values in self.axes.values():
            count *= len(list(values))
        return count

    def trials(self) -> List[Trial]:
        """Expand the cross product into an ordered trial list."""
        names = list(self.axes)
        value_lists = [list(self.axes[name]) for name in names]
        trials: List[Trial] = []
        for index, combo in enumerate(itertools.product(*value_lists)):
            params: Dict[str, Any] = dict(self.fixed)
            params.update(zip(names, combo))
            trials.append(Trial(experiment=self.name, index=index, params=params))
        return trials

    def cache_key(self, trial: Trial) -> str:
        """Stable content address of one trial's result.

        The key covers the cache schema version, the simulator model
        version, the spec name/version and the full parameter set — and
        nothing else — so identical parameters hit the same entry no matter
        which code path produced them.  One model bump invalidates these
        rows and the ``simblocks`` store at once.
        """
        payload = canonical_json(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "model": SIMULATOR_MODEL_VERSION,
                "experiment": self.name,
                "version": self.version,
                "params": dict(trial.params),
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
