"""Shared test configuration."""

from hypothesis import settings

# Property tests are reproducible: examples come from a fixed derivation, no
# example database is read or written, and slow examples are not failures.
settings.register_profile("atomphoton", derandomize=True, database=None, deadline=None)
settings.load_profile("atomphoton")
