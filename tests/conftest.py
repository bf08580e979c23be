"""Suite-wide test settings.

Hypothesis runs with ``derandomize=True``: each property test draws the same
examples on every run, so a pass or failure repeats instead of depending on
a lucky draw. Explicit ``@example`` cases pin known regressions on top.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
