"""Shared fixtures for the repro test suite.

The hermetic result-cache fixture both tier-1 suites use lives in the
repository's root ``conftest.py``.
"""

import numpy as np
import pytest


@pytest.fixture
def rng():
    """A deterministic random generator for test data."""
    return np.random.default_rng(1234)
