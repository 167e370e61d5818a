"""Shared fixtures and helpers.

`model_checks` keeps one `gradcheck.model_check` result per (config fields, seed,
eps) for the whole session, so the tests that check the same miniature model
finite-difference it once between them. `traced` measures what a call allocates.
"""

import tracemalloc
from dataclasses import astuple

import pytest

from lganet.gradcheck import DEFAULT_EPS, MINI_CONFIG, model_check
from lganet.model import ModelConfig


def traced(fn):
    """``fn()`` under tracemalloc -> (bytes still held when it returns, peak bytes, its
    result), both counted from the start of the call."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
        return held, peak, out
    finally:
        tracemalloc.stop()


class ModelChecks:
    """`model_check` with its results kept per config, seed and eps."""

    def __init__(self):
        self._results = {}

    @staticmethod
    def _key(config, seed, eps):
        return astuple(config or ModelConfig.create(**MINI_CONFIG)), seed, eps

    def record(self, err, config=None, seed=0, eps=DEFAULT_EPS):
        """Keep a result computed elsewhere, as a test that times the check does."""
        self._results[self._key(config, seed, eps)] = err

    def __call__(self, config=None, seed=0, eps=DEFAULT_EPS):
        key = self._key(config, seed, eps)
        if key not in self._results:
            self._results[key] = model_check(config, seed, eps)
        return self._results[key]


@pytest.fixture(scope="session")
def model_checks():
    return ModelChecks()
