import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # one deterministic, offline profile: the same examples on every run
    settings.register_profile("assph", derandomize=True, database=None,
                              max_examples=120, deadline=None)
    settings.load_profile("assph")
