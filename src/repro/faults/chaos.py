"""The chaos harness: prove a sweep survives an injected fault schedule.

``repro chaos <experiment>`` runs one experiment three ways in hermetic
temporary cache roots and diffs the serialized tables:

1. **clean** — no faults, the reference table;
2. **faulted** — a seeded schedule of transient trial errors, one worker
   kill, probabilistic store-entry corruption and failed writes, executed
   with retries on the parallel backend; the table must be byte-identical
   to the clean one;
3. **interrupted + resumed** — a serial run cut down by an injected
   ``KeyboardInterrupt`` mid-sweep, then resumed (faults off, as after a
   real crash) from its checkpoints; the reassembled table must again be
   byte-identical, with the pre-interrupt rows served from the cache.

Everything is derived deterministically from ``--seed``: the fault spec,
the trial indices chosen to fail, the backoff jitter.  Identical seeds give
identical chaos runs.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..errors import ExperimentFailure
from .plan import FAULTS_ENV

#: Retry budget the faulted leg runs with; covers the injected transient
#: errors (which fire on attempt 0 only) with one attempt to spare.
DEFAULT_MAX_RETRIES = 2

#: Worker processes for the clean and faulted legs (exercises pool
#: re-dispatch); the interrupted leg runs serially so the injected
#: KeyboardInterrupt propagates in-process.
DEFAULT_JOBS = 2


def _pick_trials(seed: int, num_trials: int, count: int) -> List[int]:
    """Deterministically pick ``count`` distinct trial indices."""
    ranked = sorted(
        range(num_trials),
        key=lambda index: hashlib.sha256(f"{seed}|pick|{index}".encode()).digest(),
    )
    return sorted(ranked[: min(count, num_trials)])


def default_fault_spec(seed: int, num_trials: int) -> str:
    """The standard chaos schedule for a sweep of ``num_trials`` trials.

    Two transient trial errors, one worker kill, a 50% chance of corruption
    and a 25% chance of a failed write per store entry — every decision
    seeded, so the schedule is a pure function of (seed, sweep size).
    """
    picks = _pick_trials(seed, num_trials, 3)
    errors = picks[:2] or [0]
    kill = picks[2] if len(picks) > 2 else picks[0]
    error_list = "/".join(str(index) for index in errors)
    return (
        f"seed={seed};"
        f"trial-error:trials={error_list};"
        f"worker-kill:trials={kill};"
        f"corrupt-entry:p=0.5;"
        f"write-fail:p=0.25"
    )


def interrupt_fault_spec(seed: int, num_trials: int) -> str:
    """A schedule that interrupts the sweep roughly mid-flight."""
    return f"seed={seed};interrupt:trials={num_trials // 2}"


def run_chaos(
    experiment: str,
    options: Optional[Dict[str, Any]] = None,
    *,
    seed: int = 0,
    jobs: int = DEFAULT_JOBS,
    max_retries: int = DEFAULT_MAX_RETRIES,
    trial_timeout: Optional[float] = None,
    fault_spec: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the three chaos legs and report byte-identity per leg.

    Returns a report dict: ``ok`` (every leg byte-identical), ``legs`` (one
    entry per leg with rows/identity/cache counts), ``fault_spec`` /
    ``interrupt_spec`` (the schedules used), and ``failures`` (loud
    failure reports, if a leg failed permanently instead of recovering).
    """
    from ..experiments.executor import environment
    from ..experiments.registry import get_experiment
    from ..experiments.runner import run_named

    options = dict(options or {})
    spec_obj = get_experiment(experiment).build(dict(options))
    num_trials = spec_obj.num_trials
    chosen_spec = fault_spec or default_fault_spec(seed, num_trials)
    interrupt_spec = interrupt_fault_spec(seed, num_trials)
    # Retries must cover the transient schedule, and backoff sleeps are
    # pointless for injected faults — keep the chaos run fast.
    backoff = 0.0

    legs: List[Dict[str, Any]] = []
    failures: List[str] = []
    ok = True
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        tmp_path = Path(tmp)

        # Each leg's simulation-block store lives under the leg's own cache
        # root, so the chaos run neither reads nor pollutes the ambient
        # .repro-cache, and the faulted leg's corrupt-entry/write-fail rules
        # also exercise the block store's degrade-don't-fail paths.
        def run_leg(name, cache_root, faults, leg_jobs, resume=False):
            with environment(**{FAULTS_ENV: faults}):
                return run_named(
                    experiment,
                    dict(options),
                    jobs=leg_jobs,
                    cache_root=str(cache_root),
                    max_retries=max_retries,
                    trial_timeout=trial_timeout,
                    backoff_base=backoff,
                    resume=resume,
                )

        clean = run_leg("clean", tmp_path / "clean", None, jobs)
        reference = clean.to_json()
        legs.append(
            {
                "leg": "clean",
                "rows": len(clean),
                "identical": True,
                "cached": clean.meta.get("cached", 0),
                "retried": clean.meta.get("retried", 0),
            }
        )

        try:
            faulted = run_leg("faulted", tmp_path / "faulted", chosen_spec, jobs)
        except ExperimentFailure as error:
            ok = False
            failures.append(f"faulted leg failed permanently:\n{error}")
            legs.append({"leg": "faulted", "rows": 0, "identical": False})
        else:
            identical = faulted.to_json() == reference
            ok = ok and identical
            legs.append(
                {
                    "leg": "faulted",
                    "rows": len(faulted),
                    "identical": identical,
                    "cached": faulted.meta.get("cached", 0),
                    "retried": faulted.meta.get("retried", 0),
                }
            )

        resume_root = tmp_path / "resume"
        interrupted = False
        checkpointed = 0
        try:
            run_leg("interrupted", resume_root, interrupt_spec, 1)
        except KeyboardInterrupt:
            interrupted = True
            # Count the experiment's row checkpoints, not the leg's store.
            checkpoints = resume_root / spec_obj.name
            checkpointed = sum(
                1 for _ in checkpoints.rglob("*.json")
            ) if checkpoints.exists() else 0
        # Resume with faults off — the semantics of a crash: the schedule
        # died with the interrupted process; only the checkpoints remain.
        resumed = run_leg("resumed", resume_root, None, 1, resume=True)
        identical = resumed.to_json() == reference
        ok = ok and identical
        if num_trials > 1 and not interrupted:
            ok = False
            failures.append(
                "interrupt leg completed without interrupting "
                f"(spec {interrupt_spec!r})"
            )
        legs.append(
            {
                "leg": "interrupted+resumed",
                "rows": len(resumed),
                "identical": identical,
                "interrupted": interrupted,
                "checkpointed": checkpointed,
                "cached": resumed.meta.get("cached", 0),
            }
        )

    return {
        "ok": ok,
        "experiment": experiment,
        "trials": num_trials,
        "seed": seed,
        "fault_spec": chosen_spec,
        "interrupt_spec": interrupt_spec,
        "legs": legs,
        "failures": failures,
    }
