"""Shared hypothesis set-up: every property runs the same examples on
every run, with no per-example deadline, so the suite stays
deterministic and unaffected by host speed."""

from hypothesis import settings

settings.register_profile("dfao", derandomize=True, deadline=None)
settings.load_profile("dfao")
