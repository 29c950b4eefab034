"""Smoke test: every script under demos/ runs to completion; demo 03 prints
the ranking it printed when its golden file was written."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"
GOLDEN = Path(__file__).resolve().parent / "data"


def _run_demo(tmp_path, script):
    # Run a copy, so the knowledge base demo 01 writes next to its data
    # lands in tmp_path rather than in the checkout.
    demos = shutil.copytree(
        DEMOS, tmp_path / "demos", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, str(demos / script)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, script):
    _run_demo(tmp_path, script)


def test_demo_03_stdout_is_golden(tmp_path):
    proc = _run_demo(tmp_path, "03_query_to_ranking.py")
    assert proc.stdout.encode() == (GOLDEN / "demo_03.out").read_bytes()
