import tempfile

from hypothesis import configuration, settings

# Every run draws the same examples and keeps no example database on disk.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# Hypothesis also caches the constants it reads from the tested source, at
# collection time; a temporary directory, removed at exit, keeps that cache
# out of the tree.
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_STORAGE.name)
