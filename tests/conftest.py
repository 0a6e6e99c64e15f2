import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# property tests draw from a fixed seed, like the numpy-seeded tests
settings.register_profile("latflow", deadline=None, derandomize=True)
settings.load_profile("latflow")
