"""One Hypothesis profile for every run: the same examples each time, no replay database."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
