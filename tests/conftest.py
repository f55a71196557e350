from hypothesis import settings

# Tier-1 is deterministic: every @given test replays the same examples on
# every run, with no example database and no per-example deadline.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
