"""The experiment runner: cache lookup, execution, table assembly.

``run_experiment`` is the single entry point every sweep in the repository
goes through: it expands the spec, satisfies what it can from the
content-addressed cache, fans the misses out over the chosen executor, and
reassembles everything in spec order.

Resilience contract: fresh rows are *checkpointed* to the result cache as
they complete (not only at the end), so a crash, SIGINT, or permanent trial
failure loses at most the in-flight trials — a re-run (``--resume``) serves
the checkpointed rows from the cache, re-executes only the missing trials,
and reassembles a byte-identical table.  Trials that fail permanently after
retries surface as structured :class:`~repro.experiments.executor.TrialFailure`
records: ``on_failure="raise"`` (the default) raises
:class:`~repro.errors.ExperimentFailure` naming every offender, while
``on_failure="report"`` returns the partial table with the failures recorded
in ``table.meta["failures"]``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..errors import ConfigurationError, ExperimentFailure
from .cache import CACHE_DIR_ENV, NullCache, ResultCache, resolve_cache
from .executor import TrialFailure, environment, make_executor, resolve_retry_policy
from .registry import get_experiment
from .results import ResultTable
from .spec import ExperimentSpec


def _failure_report(name: str, failures: List[TrialFailure], total: int) -> str:
    lines = "\n".join(f"  {failure.describe()}" for failure in failures)
    return (
        f"{name}: {len(failures)}/{total} trial(s) failed permanently after "
        f"retries:\n{lines}\n"
        f"completed rows are checkpointed in the result cache; re-run "
        f"(optionally with --resume) to execute only the missing trials"
    )


def run_experiment(
    spec: ExperimentSpec,
    *,
    jobs: Optional[int] = None,
    cache: Union[bool, None, NullCache, ResultCache] = True,
    cache_root: Optional[Union[str, Path]] = None,
    max_retries: Optional[int] = None,
    trial_timeout: Optional[float] = None,
    backoff_base: Optional[float] = None,
    resume: bool = False,
    on_failure: str = "raise",
) -> ResultTable:
    """Run every trial of a spec and return the assembled :class:`ResultTable`.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` defers to ``REPRO_JOBS`` (default 1,
        i.e. serial), ``<= 0`` means all cores.
    cache:
        ``True`` (default) uses the on-disk result cache, ``False``/``None``
        disables it, and an explicit cache object is used as-is.
    cache_root:
        Cache directory override when ``cache`` is ``True``.  Every trial
        this call runs, serially or in a worker, opens the ``simblocks``
        store under it too, whatever ``cache`` says; ``None`` leaves the
        store at ``REPRO_CACHE_DIR`` or ``.repro-cache``.
    max_retries / trial_timeout / backoff_base:
        Per-trial retry budget, wall-clock deadline and backoff scale;
        ``None`` defers to ``REPRO_MAX_RETRIES`` / ``REPRO_TRIAL_TIMEOUT``
        (defaults: no retries, no deadline).
    resume:
        Assert that this run may pick up a previous run's checkpoints; it
        requires the cache (checkpoints live there), and is otherwise the
        ordinary cached path — every run checkpoints as it goes.
    on_failure:
        ``"raise"`` (default) raises :class:`ExperimentFailure` naming every
        permanently-failed trial; ``"report"`` returns the partial table
        with failures in ``meta["failures"]``.

    The returned table's ``meta`` dict records ``trials`` / ``cached`` /
    ``executed`` / ``failed`` / ``retried`` counts and the wall-clock
    ``seconds``.
    """
    if on_failure not in ("raise", "report"):
        raise ConfigurationError(
            f"on_failure must be 'raise' or 'report', got {on_failure!r}"
        )
    started = time.perf_counter()
    cache_obj = resolve_cache(cache, cache_root)
    if resume and isinstance(cache_obj, NullCache):
        raise ConfigurationError(
            "--resume needs the result cache (checkpoints live there); "
            "drop --no-cache or point --cache-dir at the interrupted run's cache"
        )
    policy = resolve_retry_policy(max_retries, trial_timeout, backoff_base)
    trials = spec.trials()
    rows: List[Optional[Dict[str, Any]]] = [None] * len(trials)
    pending = []
    keys: Dict[int, str] = {}
    for trial in trials:
        key = spec.cache_key(trial)
        keys[trial.index] = key
        cached_row = cache_obj.get(spec.name, key)
        if cached_row is not None:
            rows[trial.index] = cached_row
        else:
            pending.append((trial.index, dict(trial.params)))

    failures: List[TrialFailure] = []
    retried = 0
    checkpoint_errors = 0
    if pending:
        executor = make_executor(jobs)
        # The trials open their simblocks store under cache_root, also in
        # workers.  Stream outcomes and checkpoint each fresh row
        # immediately: an interrupt or crash after this point loses only
        # in-flight trials.
        store = {} if cache_root is None else {CACHE_DIR_ENV: str(cache_root)}
        with environment(**store):
            for index, outcome in executor.stream(spec.name, pending, policy):
                if "failure" in outcome:
                    failures.append(TrialFailure(**outcome["failure"]))
                    continue
                row = outcome["row"]
                if outcome.get("attempts", 1) > 1:
                    retried += 1
                try:
                    cache_obj.put(spec.name, keys[index], row)
                except OSError:
                    # A failed checkpoint write must not abort the sweep: the
                    # row lives on in memory and is simply recomputed next run.
                    checkpoint_errors += 1
                rows[index] = row

    if failures and on_failure == "raise":
        raise ExperimentFailure(
            _failure_report(spec.name, failures, len(trials)), failures=failures
        )
    failed_indices = {failure.index for failure in failures}
    missing = [
        index
        for index, row in enumerate(rows)
        if row is None and index not in failed_indices
    ]
    if missing:
        raise ConfigurationError(
            f"{spec.name}: executor returned no result for trials {missing[:5]}"
        )
    table_rows = [row for row in rows if row is not None]
    columns = spec.columns or (tuple(table_rows[0].keys()) if table_rows else ())
    table = ResultTable(columns, table_rows)
    table.meta = {
        "experiment": spec.name,
        "trials": len(trials),
        "cached": len(trials) - len(pending),
        "executed": len(pending) - len(failures),
        "failed": len(failures),
        "failures": [failure.as_dict() for failure in failures],
        "retried": retried,
        "checkpoint_errors": checkpoint_errors,
        "seconds": time.perf_counter() - started,
    }
    return table


def run_named(
    name: str,
    options: Optional[Dict[str, Any]] = None,
    *,
    jobs: Optional[int] = None,
    cache: Union[bool, None, NullCache, ResultCache] = True,
    cache_root: Optional[Union[str, Path]] = None,
    max_retries: Optional[int] = None,
    trial_timeout: Optional[float] = None,
    backoff_base: Optional[float] = None,
    resume: bool = False,
    on_failure: str = "raise",
) -> ResultTable:
    """Run a registered experiment by name, applying its reduce step if any."""
    options = dict(options or {})
    # Expose the execution knobs to spec factories / reduce steps that need
    # to launch nested sweeps (e.g. the headline's unstructured component).
    options.setdefault("jobs", jobs)
    options.setdefault("cache", cache)
    options.setdefault("cache_root", cache_root)
    experiment = get_experiment(name)
    spec = experiment.build(options)
    table = run_experiment(
        spec,
        jobs=jobs,
        cache=cache,
        cache_root=cache_root,
        max_retries=max_retries,
        trial_timeout=trial_timeout,
        backoff_base=backoff_base,
        resume=resume,
        on_failure=on_failure,
    )
    if experiment.reduce is not None:
        if table.meta.get("failed"):
            # A reduce step's contract assumes the full sweep (group joins,
            # normalizations); on a partial table we return the raw rows
            # with the failures in meta instead of reducing garbage.
            return table
        meta = table.meta
        table = experiment.reduce(table, options)
        table.meta = {**meta, **table.meta, "experiment": name}
    return table
