"""Shared pytest set-up.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so two runs of the suite on the same code see the same examples.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
