"""One hypothesis profile for the whole suite: examples are derandomized,
so every run draws the same ones, with no deadline and no example
database.  Tests set only their own `max_examples` and health checks."""
from hypothesis import settings

settings.register_profile("suite", derandomize=True, deadline=None, database=None)
settings.load_profile("suite")
