"""Execution backends: serial and multiprocessing fan-out with fault isolation.

Both backends stream ``(index, outcome)`` pairs as trials complete, where an
outcome is either ``{"row": ..., "attempts": n}`` or ``{"failure": {...}}``
— a raising trial produces a structured :class:`TrialFailure` record instead
of poisoning its chunk, and the runner reassembles successful rows in index
order, so results stay deterministic and byte-identical regardless of
backend, worker timing, or which transient faults were retried away.

Resilience layers, outermost first:

* **pool re-dispatch** — a killed or crashed worker breaks the process pool;
  its unfinished chunks are re-submitted to a fresh pool (bounded by
  :data:`MAX_DISPATCH_ATTEMPTS`), then split into single-trial chunks so a
  deterministic crasher is isolated and surfaced as a ``TrialFailure``
  instead of taking down the sweep;
* **per-trial retries** — inside each worker, a raising trial retries up to
  ``RetryPolicy.max_retries`` times with exponential, deterministically
  jittered backoff;
* **per-trial deadlines** — ``RetryPolicy.trial_timeout`` arms a SIGALRM
  wall-clock guard around each attempt, turning hangs into retryable
  :class:`~repro.errors.TrialTimeout` failures (POSIX main thread only; the
  guard degrades to "no deadline" elsewhere).

The parallel backend ships each chunk to a worker process as plain data —
the worker resolves the trial-runner function by name from the registry,
which the ``fork`` start method inherits and the ``spawn`` method re-imports.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, TrialTimeout
from ..faults.hooks import on_trial_attempt
from .registry import get_trial_runner

#: Environment variable setting the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Environment variable setting the default per-trial retry budget.
MAX_RETRIES_ENV = "REPRO_MAX_RETRIES"

#: Environment variable setting the default per-trial wall-clock deadline.
TRIAL_TIMEOUT_ENV = "REPRO_TRIAL_TIMEOUT"

#: Chunks created per worker; >1 lets fast workers steal remaining chunks.
CHUNKS_PER_JOB = 4

#: Pool dispatches one chunk may consume (0-based attempts 0..N) before it
#: is split into single-trial chunks to isolate a deterministic crasher.
MAX_DISPATCH_ATTEMPTS = 2

IndexedParams = Tuple[int, Dict[str, Any]]
IndexedOutcome = Tuple[int, Dict[str, Any]]


@contextmanager
def environment(**overrides: Optional[str]) -> Iterator[None]:
    """Set (or, for ``None``, unset) environment variables until exit.

    Worker processes started inside inherit the overrides.  The previous
    values come back on exit, also when the body raises or is interrupted.
    """
    saved = {name: os.environ.get(name) for name in overrides}
    try:
        for name, value in overrides.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve the worker count: explicit argument, then ``REPRO_JOBS``, then 1.

    Zero or negative values mean "all cores".
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ConfigurationError(
                f"{JOBS_ENV} must be an integer, got {env!r}"
            ) from None
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class RetryPolicy:
    """Per-trial fault-handling knobs, shipped to workers as plain data."""

    #: Retries after the first attempt (0 = fail on the first exception).
    max_retries: int = 0
    #: Wall-clock seconds one attempt may take (None = no deadline).
    trial_timeout: Optional[float] = None
    #: First backoff sleep in seconds; doubles per retry with seeded jitter.
    backoff_base: float = 0.05


def resolve_retry_policy(
    max_retries: Optional[int] = None,
    trial_timeout: Optional[float] = None,
    backoff_base: Optional[float] = None,
) -> RetryPolicy:
    """Build a :class:`RetryPolicy` from arguments, then environment, then
    defaults (``REPRO_MAX_RETRIES`` / ``REPRO_TRIAL_TIMEOUT``)."""
    if max_retries is None:
        env = os.environ.get(MAX_RETRIES_ENV, "").strip()
        if env:
            try:
                max_retries = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"{MAX_RETRIES_ENV} must be an integer, got {env!r}"
                ) from None
    if max_retries is None:
        max_retries = 0
    if max_retries < 0:
        raise ConfigurationError(f"max retries must be >= 0, got {max_retries}")
    if trial_timeout is None:
        env = os.environ.get(TRIAL_TIMEOUT_ENV, "").strip()
        if env:
            try:
                trial_timeout = float(env)
            except ValueError:
                raise ConfigurationError(
                    f"{TRIAL_TIMEOUT_ENV} must be a number of seconds, got {env!r}"
                ) from None
    if trial_timeout is not None and trial_timeout <= 0:
        raise ConfigurationError(
            f"trial timeout must be positive seconds, got {trial_timeout}"
        )
    policy = RetryPolicy(max_retries=max_retries, trial_timeout=trial_timeout)
    if backoff_base is not None:
        if backoff_base < 0:
            raise ConfigurationError(
                f"backoff base must be >= 0 seconds, got {backoff_base}"
            )
        policy = RetryPolicy(
            max_retries=max_retries,
            trial_timeout=trial_timeout,
            backoff_base=backoff_base,
        )
    return policy


@dataclass(frozen=True)
class TrialFailure:
    """Structured record of one trial that failed permanently."""

    index: int
    params: Dict[str, Any] = field(default_factory=dict)
    error_type: str = "Exception"
    message: str = ""
    attempts: int = 1

    def describe(self) -> str:
        return (
            f"trial {self.index} [{self.error_type} after "
            f"{self.attempts} attempt{'s' if self.attempts != 1 else ''}]: "
            f"{self.message} — params: {self.params}"
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "params": dict(self.params),
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }


def _failure_outcome(failure: TrialFailure) -> Dict[str, Any]:
    return {"failure": failure.as_dict(), "attempts": failure.attempts}


@contextmanager
def _deadline(seconds: Optional[float], index: int):
    """Arm a SIGALRM wall-clock guard around one trial attempt.

    Only enforceable on POSIX main threads (``signal`` rules); elsewhere the
    attempt runs unguarded — a documented degradation, never an error.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        raise TrialTimeout(f"trial {index} exceeded its {seconds:g}s deadline")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _backoff_seconds(policy: RetryPolicy, index: int, attempt: int) -> float:
    """Exponential backoff with deterministic jitter in [0.5x, 1.5x).

    The jitter draw hashes (trial index, attempt) so concurrent retries
    de-synchronize, yet every re-run sleeps identically — chaos runs stay
    reproducible down to their timing structure.
    """
    digest = hashlib.sha256(f"backoff|{index}|{attempt}".encode()).digest()
    jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2.0**64
    return policy.backoff_base * (2.0**attempt) * jitter


def _run_trial_guarded(
    function,
    index: int,
    params: Dict[str, Any],
    policy: RetryPolicy,
    *,
    in_worker: bool = False,
    dispatch_attempt: int = 0,
) -> IndexedOutcome:
    """Run one trial under the retry/deadline/fault-injection envelope.

    Catches ``Exception`` (including injected faults and deadline expiries)
    — never ``KeyboardInterrupt``/``SystemExit``, which must propagate so an
    interrupted sweep stops after its last checkpoint.
    """
    for attempt in range(policy.max_retries + 1):
        try:
            with _deadline(policy.trial_timeout, index):
                on_trial_attempt(
                    index, attempt, dispatch_attempt, in_worker=in_worker
                )
                row = function(dict(params))
            return index, {"row": row, "attempts": attempt + 1}
        except Exception as error:
            if attempt < policy.max_retries:
                delay = _backoff_seconds(policy, index, attempt)
                if delay > 0:
                    time.sleep(delay)
                continue
            return index, _failure_outcome(
                TrialFailure(
                    index=index,
                    params=dict(params),
                    error_type=type(error).__name__,
                    message=str(error),
                    attempts=attempt + 1,
                )
            )
    raise AssertionError("unreachable")  # pragma: no cover


class SerialExecutor:
    """Run every trial in-process, in order."""

    def stream(
        self,
        runner_name: str,
        trials: Sequence[IndexedParams],
        policy: Optional[RetryPolicy] = None,
    ) -> Iterator[IndexedOutcome]:
        policy = policy or RetryPolicy()
        function = get_trial_runner(runner_name)
        for index, params in trials:
            yield _run_trial_guarded(
                function, index, params, policy, in_worker=False
            )


@dataclass(frozen=True)
class _Chunk:
    """One unit of pool dispatch: a trial slice plus its dispatch generation."""

    trials: Tuple[IndexedParams, ...]
    attempt: int = 0


def _execute_chunk(
    payload: Tuple[str, Tuple[IndexedParams, ...], int, RetryPolicy]
) -> List[IndexedOutcome]:
    """Worker entry point: run one chunk of trials (must stay picklable)."""
    runner_name, chunk, dispatch_attempt, policy = payload
    function = get_trial_runner(runner_name)
    return [
        _run_trial_guarded(
            function,
            index,
            params,
            policy,
            in_worker=True,
            dispatch_attempt=dispatch_attempt,
        )
        for index, params in chunk
    ]


class MultiprocessExecutor:
    """Fan trials out across worker processes in contiguous chunks.

    Worker death (kill -9, segfault, injected ``worker-kill``) breaks the
    whole :class:`~concurrent.futures.ProcessPoolExecutor`; completed chunks
    keep their results and every unfinished chunk is re-dispatched to a
    fresh pool with its attempt counter bumped.  A chunk that exhausts
    :data:`MAX_DISPATCH_ATTEMPTS` is split into single-trial chunks, each
    granted one isolated dispatch, so the one trial that deterministically
    crashes its worker is named in a :class:`TrialFailure` while every other
    trial in its chunk still completes.
    """

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def _context(self):
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork (e.g. Windows)
            return multiprocessing.get_context()

    def stream(
        self,
        runner_name: str,
        trials: Sequence[IndexedParams],
        policy: Optional[RetryPolicy] = None,
    ) -> Iterator[IndexedOutcome]:
        policy = policy or RetryPolicy()
        if self.jobs == 1 or len(trials) <= 1:
            yield from SerialExecutor().stream(runner_name, trials, policy)
            return
        chunk_size = max(1, math.ceil(len(trials) / (self.jobs * CHUNKS_PER_JOB)))
        queue: List[_Chunk] = [
            _Chunk(tuple(trials[start : start + chunk_size]))
            for start in range(0, len(trials), chunk_size)
        ]
        context = self._context()
        while queue:
            batch, queue = queue, []
            workers = min(self.jobs, len(batch))
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
            try:
                futures = {}
                for chunk in batch:
                    try:
                        future = pool.submit(
                            _execute_chunk,
                            (runner_name, chunk.trials, chunk.attempt, policy),
                        )
                    except BrokenExecutor:
                        # Pool already broke mid-submission: everything not
                        # yet submitted goes straight to the next round.
                        terminal = _requeue(chunk, queue, "worker pool broke")
                        if terminal is not None:
                            yield terminal
                        continue
                    futures[future] = chunk
                for future in as_completed(futures):
                    chunk = futures[future]
                    try:
                        outcomes = future.result()
                    except BrokenExecutor as error:
                        terminal = _requeue(chunk, queue, error)
                        if terminal is not None:
                            yield terminal
                        continue
                    except Exception as error:
                        # Chunk-level infrastructure failure (e.g. the
                        # worker died mid-pickle): isolate like a kill.
                        terminal = _requeue(chunk, queue, error)
                        if terminal is not None:
                            yield terminal
                        continue
                    for outcome in outcomes:
                        yield outcome
            except BaseException:
                # Interrupt or consumer abandonment: do not wait for (or
                # re-dispatch) stragglers — completed rows were streamed.
                pool.shutdown(wait=False, cancel_futures=True)
                raise
            else:
                pool.shutdown(wait=True)


def _requeue(
    chunk: _Chunk, queue: List[_Chunk], error: Any
) -> Optional[IndexedOutcome]:
    """Schedule a failed dispatch: retry, split, or surface the failure.

    Returns None after re-queueing (bumped attempt, or split into
    single-trial chunks once the budget is spent); returns a terminal
    ``TrialFailure`` outcome only for a lone trial whose isolated dispatches
    are all exhausted — that one trial is the crasher, named and attributed.
    """
    attempt = chunk.attempt + 1
    if attempt <= MAX_DISPATCH_ATTEMPTS:
        queue.append(_Chunk(chunk.trials, attempt))
        return None
    if len(chunk.trials) > 1:
        # Isolate the crasher: one more dispatch each, alone.
        for trial in chunk.trials:
            queue.append(_Chunk((trial,), MAX_DISPATCH_ATTEMPTS))
        return None
    index, params = chunk.trials[0]
    return index, _failure_outcome(
        TrialFailure(
            index=index,
            params=dict(params),
            error_type="WorkerCrash",
            message=(
                f"worker process died {attempt} time(s) running this "
                f"trial ({error})"
            ),
            attempts=attempt,
        )
    )


def make_executor(jobs: Optional[int] = None):
    """Build the right backend for a resolved job count."""
    count = resolve_jobs(jobs)
    if count <= 1:
        return SerialExecutor()
    return MultiprocessExecutor(count)
