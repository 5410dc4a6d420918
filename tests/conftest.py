"""One Hypothesis profile for every property test: the same examples on
every run, no example database written, no per-example deadline.  Tests
set only their example counts and health-check suppressions."""

from hypothesis import settings

settings.register_profile("distqc", derandomize=True, database=None, deadline=None)
settings.load_profile("distqc")
