"""Shared test settings.

Every property test runs under one hypothesis profile, ``lorentzlab``,
loaded here as the default: derandomized, so a run draws the same
examples every time and a failure reproduces, and without a deadline,
since one example may run whole trajectories.  A test sets only its own
example count, ``@settings(max_examples=...)``.
"""

from hypothesis import settings

settings.register_profile("lorentzlab", derandomize=True, deadline=None)
settings.load_profile("lorentzlab")
