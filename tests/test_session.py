"""The test session itself: a failing property test must not hide the tests after it."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import kvcompactor

_TESTS = Path(__file__).parent

_FAILING_PROPERTY_THEN_PLAIN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_plain_runs():
    pass
'''


def test_failing_property_test_leaves_the_session_running(tmp_path):
    # this suite's conftest.py and pyproject.toml warning filters, around one failing @given test and one after it
    shutil.copy(_TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_property_session.py").write_text(_FAILING_PROPERTY_THEN_PLAIN)
    src = str(Path(kvcompactor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(_TESTS.parent / "pyproject.toml")]
    cmd += ["--rootdir", str(tmp_path), str(tmp_path / "test_property_session.py")]
    run = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True)
    report = run.stdout + run.stderr
    assert "INTERNALERROR" not in report, report
    assert "1 failed, 1 passed" in run.stdout, report
    assert "Falsifying example" in run.stdout, report
