"""The repository's pytest configuration reports a failing property test by name, and a
property module passes when it runs alone."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''\
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_always_fails(n):
    assert n != n
'''


def test_failing_hypothesis_test_is_named(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_prop.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout
    assert any(line.startswith("FAILED tests/test_prop.py::test_always_fails")
               for line in proc.stdout.splitlines()), proc.stdout


def test_schedule_module_passes_alone():
    # derandomized Hypothesis draws mix in the literals of every loaded module, so a module
    # run alone draws other examples than it does in the full suite
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "tests/test_schedule.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr
