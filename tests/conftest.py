"""Shared fixtures for the test suite; importable helpers live in ``helpers.py``."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests that sample their own inputs."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(20260816)))
