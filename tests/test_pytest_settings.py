"""The suite's pytest settings, checked by running pytest on a probe test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_prints_its_falsifying_example(tmp_path):
    # Hypothesis reports a failure through libcst, which raises a
    # DeprecationWarning; the warning filters must not turn that into an
    # INTERNALERROR that hides the example.
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers())\n"
        "def test_always_fails(x):\n"
        "    assert x != x\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
