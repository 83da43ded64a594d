"""Suite-wide test settings: one Hypothesis profile for every property test."""

from hypothesis import settings

# Fixed examples, so a run is reproducible; no per-example deadline, since
# timings on a loaded host are noisy; no example database in the working tree.
settings.register_profile("gmrfinfo", deadline=None, derandomize=True, database=None)
settings.load_profile("gmrfinfo")
