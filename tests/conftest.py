"""Test-suite settings: Hypothesis draws the same examples on every host
and keeps no example database, so two runs of the suite are comparable."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
