"""Smoke test: every script under demos/ runs to completion."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, script):
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
