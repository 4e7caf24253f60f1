"""Hypothesis runs one fixed set of examples per test, with no example
database, so the same code passes or fails the same tests on every run."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
