"""Every demo script runs to completion against the package under test."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    res = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path, timeout=600,
    )
    assert res.returncode == 0, res.stderr
