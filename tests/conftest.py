"""One Hypothesis profile for every run, and a fixture that starts a new interpreter.

Every run draws the same examples and keeps no replay database.

On a failing example Hypothesis's pytest plugin imports
``hypothesis.extra._patching``, whose ``libcst`` import raises a
``DeprecationWarning``; with ``filterwarnings = ["error"]`` that warning
would abort the whole run at the first failing property test.  It is imported
here once, with that warning ignored, so a failing property test fails alone.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst there is no patch module and no warning
        pass

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def fresh_python():
    """Run ``python *args`` in a new interpreter that imports parshin from where this one does.

    In one pytest process every parshin module is already imported, so only
    a new interpreter shows what a command loads and whether an import made
    inside a function body resolves.
    """
    import parshin

    path = [str(Path(parshin.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120, env=env)

    return run
