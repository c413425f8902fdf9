"""Shared test settings: property-based tests run a fixed set of
examples, with no per-example deadline, so the suite is deterministic
and free of timing flakes."""

from hypothesis import settings

settings.register_profile("wmqkd", derandomize=True, deadline=None, database=None)
settings.load_profile("wmqkd")
