"""Injection sites: the executor/runner/cache call these at fault points.

Each hook is a no-op unless ``REPRO_FAULTS`` holds a spec whose rules fire
for the given token (see :mod:`repro.faults.plan`).  The hooks are placed on
the hot paths of the experiments subsystem, so the inactive case is a single
environment lookup.
"""

from __future__ import annotations

import os
import signal
import time

from ..errors import InjectedFault
from .plan import active_plan


def on_trial_attempt(
    index: int,
    attempt: int,
    dispatch_attempt: int = 0,
    *,
    in_worker: bool = False,
) -> None:
    """Trial-site faults, called at the top of every guarded trial attempt.

    ``attempt`` is the in-process retry attempt (drives ``trial-error`` /
    ``trial-hang`` / ``interrupt``); ``dispatch_attempt`` is the chunk's
    pool-dispatch generation (drives ``worker-kill``, which resets the retry
    counter by killing the process).  Kills only fire with
    ``in_worker=True`` — a serial in-process executor must never SIGKILL the
    caller.
    """
    plan = active_plan()
    if plan is None:
        return
    if in_worker and plan.fires("worker-kill", index, dispatch_attempt):
        os.kill(os.getpid(), signal.SIGKILL)
    if plan.fires("interrupt", index, attempt):
        raise KeyboardInterrupt(f"injected interrupt at trial {index}")
    rule = plan.fires("trial-hang", index, attempt)
    if rule:
        time.sleep(rule.seconds)
    if plan.fires("trial-error", index, attempt):
        raise InjectedFault(
            f"injected trial error at trial {index} (attempt {attempt})"
        )


def _store_token(experiment: str, key: str) -> str:
    return f"{experiment}/{key}"


def on_store_write(experiment: str, key: str) -> None:
    """``write-fail``: raise OSError before the store writes an entry."""
    plan = active_plan()
    if plan and plan.fires("write-fail", _store_token(experiment, key)):
        raise OSError(f"injected write failure for {experiment}/{key[:12]}…")


def on_store_written(path, experiment: str, key: str) -> None:
    """``corrupt-entry``: truncate a just-published entry at half length."""
    plan = active_plan()
    if plan and plan.fires("corrupt-entry", _store_token(experiment, key)):
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
