"""Registries of trial runners and named experiments.

Two layers of registration:

* **trial runners** — functions ``params dict -> row dict`` that execute one
  trial.  Executors look runners up *by name*, which is what lets worker
  processes receive nothing but plain data.
* **experiments** — user-facing named sweeps (``fig13``, ``roofline``, ...)
  pairing a spec factory with an optional reduce step, surfaced by the
  ``python -m repro`` CLI.

Built-in figure experiments live in :mod:`repro.experiments.figures` and are
registered lazily on first lookup to keep import-time dependencies
one-directional (``figures`` imports the analysis layer, never the reverse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from .spec import ExperimentSpec

TrialRunner = Callable[[Dict[str, Any]], Dict[str, Any]]

_TRIAL_RUNNERS: Dict[str, TrialRunner] = {}
_EXPERIMENTS: Dict[str, "Experiment"] = {}
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        from . import figures  # noqa: F401 — registers the built-in experiments
        from ..planner import experiment  # noqa: F401 — registers ``autotune``


def trial_runner(name: str) -> Callable[[TrialRunner], TrialRunner]:
    """Register a function that executes one trial of ``name`` experiments."""

    def decorator(function: TrialRunner) -> TrialRunner:
        _TRIAL_RUNNERS[name] = function
        return function

    return decorator


def get_trial_runner(name: str) -> TrialRunner:
    """Look a trial runner up by name (loads built-ins on first use)."""
    _ensure_builtins()
    try:
        return _TRIAL_RUNNERS[name]
    except KeyError:
        raise ConfigurationError(
            f"no trial runner registered for {name!r}; "
            f"known: {', '.join(sorted(_TRIAL_RUNNERS))}"
        ) from None


@dataclass(frozen=True)
class Experiment:
    """A named, CLI-runnable experiment."""

    name: str
    description: str
    build: Callable[[Dict[str, Any]], ExperimentSpec]
    #: Optional post-processing of the raw trial table (e.g. the headline
    #: speed-up summary); receives the table and the options dict.
    reduce: Optional[Callable[..., Any]] = None
    #: Sweep CLI flags (without ``--``) its build or reduce step reads:
    #: ``"max-layers"``, ``"max-output-tiles"``, ``"seed"``, ``"smoke"``,
    #: ``"topology"``, ``"cores"``.  The CLI rejects every other sweep flag
    #: for this experiment instead of silently running a sweep it ignored.
    cli_options: Tuple[str, ...] = ()


def register_experiment(
    name: str,
    description: str,
    *,
    reduce: Optional[Callable[..., Any]] = None,
    cli_options: Tuple[str, ...] = (),
) -> Callable[[Callable[[Dict[str, Any]], ExperimentSpec]], Callable[[Dict[str, Any]], ExperimentSpec]]:
    """Register a spec factory as a named experiment."""

    def decorator(build: Callable[[Dict[str, Any]], ExperimentSpec]):
        _EXPERIMENTS[name] = Experiment(
            name=name,
            description=description,
            build=build,
            reduce=reduce,
            cli_options=cli_options,
        )
        return build

    return decorator


def get_experiment(name: str) -> Experiment:
    """Look a named experiment up (loads built-ins on first use)."""
    _ensure_builtins()
    try:
        return _EXPERIMENTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(_EXPERIMENTS))}"
        ) from None


def list_experiments() -> List[Experiment]:
    """Every registered experiment, sorted by name."""
    _ensure_builtins()
    return [_EXPERIMENTS[name] for name in sorted(_EXPERIMENTS)]
