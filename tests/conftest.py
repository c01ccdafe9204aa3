"""Test-suite settings shared by every test module."""

from hypothesis import settings

# The same examples on every run, with no per-example time limit: a timing
# deadline flakes on a loaded machine and says nothing about correctness.
# Each test's own ``max_examples`` still applies.
settings.register_profile("braidcryst", derandomize=True, deadline=None)
settings.load_profile("braidcryst")
