"""The test configuration lets a run go on past a failing property test."""

import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING_THEN_PLAIN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_later_plain_test():
    pass
'''


def test_a_failing_property_test_leaves_later_tests_running(tmp_path):
    # the suite's own conftest and settings (filterwarnings = ["error"])
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_pair.py").write_text(FAILING_THEN_PLAIN)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(TESTS.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path / "test_pair.py")],
        capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
