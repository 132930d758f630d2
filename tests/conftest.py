"""Shared test configuration."""

import os

import pytest
from hypothesis import settings

import atomphoton

# Property tests are reproducible: examples come from a fixed derivation, no
# example database is read or written, and slow examples are not failures.
settings.register_profile("atomphoton", derandomize=True, database=None, deadline=None)
settings.load_profile("atomphoton")


@pytest.fixture(scope="session")
def package_env():
    """os.environ with this checkout's package first on PYTHONPATH, for every
    fresh interpreter a test starts."""
    path = [os.path.dirname(os.path.dirname(atomphoton.__file__)), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
