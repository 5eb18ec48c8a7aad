"""Fixtures shared by both tier-1 suites, ``tests/`` and ``benchmarks/``."""

import pytest

from repro.experiments.cache import CACHE_DIR_ENV


@pytest.fixture(autouse=True)
def _hermetic_result_cache(tmp_path_factory, monkeypatch):
    """Point the experiment result cache at a per-session temp directory.

    Every test must exercise the live simulator and analysis code: a
    persistent ``.repro-cache`` would keep serving rows an older checkout
    computed, because cache keys cover parameters and versions, not code.
    The ``simblocks`` store lives under the same root, so it is covered
    too.  A session-scoped directory still deduplicates identical sweeps
    *within* a run, and a test run leaves no cache in the checkout.
    """
    monkeypatch.setenv(
        CACHE_DIR_ENV, str(tmp_path_factory.getbasetemp() / "repro-cache")
    )
