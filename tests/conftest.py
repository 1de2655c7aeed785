"""One Hypothesis profile for every run: the same examples each time, no replay database.

On a failing example Hypothesis's pytest plugin imports
``hypothesis.extra._patching``, whose ``libcst`` import raises a
``DeprecationWarning``; with ``filterwarnings = ["error"]`` that warning
would abort the whole run at the first failing property test.  It is imported
here once, with that warning ignored, so a failing property test fails alone.
"""

import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst there is no patch module and no warning
        pass

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
