"""Every demo script runs to completion against the package under test, and
the well-roundedness demo prints its table byte for byte."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# stdout of the seeded demos, byte for byte
PRINTED = {
    "wellroundedness": (
        "    T     eps     ratio    stderr\n"
        "    8   0.100    0.2242    0.0119\n"
        "    8   0.050    0.1017    0.0064\n"
        "   32   0.100    0.1788    0.0137\n"
        "   32   0.050    0.0855    0.0051\n"
    ),
}


def test_demos_are_found():
    assert len(DEMOS) >= 7
    assert set(PRINTED) <= {demo.stem for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    res = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path, timeout=600,
    )
    assert res.returncode == 0, res.stderr
    if demo.stem in PRINTED:
        assert res.stdout == PRINTED[demo.stem]
