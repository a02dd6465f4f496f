"""The repository's pytest settings: a failing hypothesis test is reported
as one failure, and the tests after it still run; a bare `python -m
pytest` finds the package under src."""
import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x > 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # to report a failing example hypothesis imports libcst, whose import of
    # mypy_extensions warns; under filterwarnings = error that warning ended
    # the run with INTERNALERROR before test_passes was reported
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), done.stdout[-2000:]
    assert done.returncode == 1


def test_bare_pytest_imports_the_package():
    # conftest imports segsolve, which only the pythonpath setting puts on
    # sys.path when PYTHONPATH does not
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q", "--collect-only",
         "tests/test_line_ledger.py"],
        cwd=PYPROJECT.parent, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
