"""The suite's own pytest settings: a failing property test still reports its example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_five(x):
    assert x < 5
'''


def test_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    report = run.stdout + run.stderr
    assert "Falsifying example" in report and "INTERNALERROR" not in report, report
    assert run.returncode == 1, report
