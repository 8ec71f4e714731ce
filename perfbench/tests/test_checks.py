"""Every check of the benchmark must fail when fed one wrong value, and
every workload must pass its checks at a tiny size.

    python3 -m pytest perfbench/tests
"""

import csv
import io
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calibration
import checks
import oracles
import workloads
from tracing import LAYER_METRICS, RunTotals, Tracer, layer_metrics

from qfsectors.enumeration import count_ball, count_ball_grid


def test_box_scan_matches_the_known_small_ball():
    # 308 forms with max |entry| < 1.5, as the project's acceptance suite states
    assert oracles.max_ball_forms(1.5).shape[0] == 308
    assert oracles.max_ball_forms(4.5).shape[0] == count_ball(3, 4.5)


def test_exact_frobenius_oracle_sees_the_boundary_forms():
    t = math.sqrt(5)
    assert oracles.frobenius_ball_count(t) == count_ball(3, t, "frobenius") == 116
    assert oracles.frobenius_ball_count(6.3) == count_ball(3, 6.3, "frobenius")
    assert oracles.frobenius_sphere_count(5) == 48
    # the per-grid filter of the program drops the forms with norm^2 = 5;
    # once that is mended the boundary operation passes on its own
    fails = checks.boundary_counts(count_ball_grid(3, [t], "frobenius"), [116], [48])
    assert fails and all(isinstance(f, checks.KnownFault) for f in fails)


def test_boundary_check_excuses_only_the_known_fault():
    assert checks.boundary_counts([116, 9], [116, 9], [48, 0]) == []
    known = checks.boundary_counts([68, 9], [116, 9], [48, 0])
    assert len(known) == 1 and isinstance(known[0], checks.KnownFault)
    for got in ([67, 9], [69, 9], [116, 10], [68, 8], [68]):
        fails = checks.boundary_counts(got, [116, 9], [48, 0])
        assert any(not isinstance(f, checks.KnownFault) for f in fails), got


def test_exact_tie_test():
    tri = np.array([[1, 0, 0, 1, 0, 1], [0, 1, 0, 0, 0, 1], [2, 1, 0, 1, 0, 1]])
    assert list(oracles.tied(tri)) == [True, True, False]


def test_count_checks_fail_on_one_wrong_value():
    assert checks.equal(100, 100, "x") == []
    assert checks.equal(101, 100, "x")
    assert checks.strictly_increasing([1, 2, 3], "x") == []
    assert checks.strictly_increasing([1, 2, 2], "x")
    assert checks.nondecreasing([1, 2, 2], "x") == []
    assert checks.nondecreasing([1, 3, 2], "x")
    assert checks.at_most([1, 2], [1, 2], "x") == []
    assert checks.at_most([1, 3], [1, 2], "x")
    assert checks.slope_near(3.2, 3.0, "x") == []
    assert checks.slope_near(3.31, 3.0, "x")
    assert checks.slope_near(float("nan"), 3.0, "x")
    assert checks.within_band(10, 10, 2, "x") == []
    assert checks.within_band(12, 10, 2, "x") == []
    assert checks.within_band(13, 10, 2, "x")
    assert checks.within_band(9, 10, 2, "x")
    assert checks.identical(b"a", b"a", "x") == []
    assert checks.identical(b"a", b"b", "x")
    assert checks.identical(None, b"b", "x")


def test_partition_and_frame_checks_fail_on_one_wrong_value():
    assert checks.partition([5, 5], [2, 2], 12) == []
    assert checks.partition([5, 6], [2, 2], 12)
    assert checks.partition([5, 4], [2, 3], 12)
    full, cap, anticap = [(9, 1), (20, 2)], [(4, 1), (8, 2)], [(5, 1), (12, 2)]
    assert checks.frames_complement(full, cap, anticap) == []
    assert checks.frames_complement(full, cap, [(5, 1), (13, 2)])
    assert checks.frames_complement(full, cap, [(5, 1), (12, 3)])


def test_round_trip_check_fails_above_tolerance():
    assert checks.round_trip(1e-12, 1e-12) == []
    assert checks.round_trip(2e-9, 1e-12)
    assert checks.round_trip(1e-12, 2e-8)
    assert checks.round_trip(float("nan"), 1e-12)


def _cells(near_fine=80.0, far_fine=2.0, near_coarse=0.35, far_coarse=0.33, deep_fine=2.1):
    return [
        {"c": 0.01, "depth": 1.5, "fine": [near_fine, 0.3, near_fine], "coarse": [near_coarse, 0.3]},
        {"c": 0.01, "depth": 4.5, "fine": [near_fine, 0.3, near_fine], "coarse": [near_coarse, 0.3]},
        {"c": 0.5, "depth": 1.5, "fine": [far_fine, 0.3, far_fine], "coarse": [far_coarse, 0.3]},
        {"c": 0.5, "depth": 4.5, "fine": [deep_fine, 0.3, deep_fine], "coarse": [far_coarse, 0.3]},
    ]


def test_sweep_check_fails_on_one_wrong_value():
    assert checks.sweep(_cells(), 0.01, 0.5) == []
    assert checks.sweep(_cells(near_fine=9.0), 0.01, 0.5)  # blow-up 4.3x
    assert checks.sweep(_cells(near_coarse=0.7), 0.01, 0.5)  # coarse 2.1x
    assert checks.sweep(_cells(deep_fine=7.0), 0.01, 0.5)  # depth spread 3.5x
    empty = _cells()
    empty[2]["fine"] = [None, None, None]
    assert checks.sweep(empty, 0.01, 0.5)
    near_empty = _cells()
    for cell in near_empty[:2]:
        cell["coarse"] = [None, None]
    assert checks.sweep(near_empty, 0.01, 0.5)
    assert checks.sweep(_cells(far_fine=math.inf), 0.01, 0.5)


def test_volume_checks_fail_on_one_wrong_value():
    assert checks.agree(10.0, 10.5, 0.1, "x") == []
    assert checks.agree(10.0, 10.7, 0.1, "x")
    assert checks.bracket(5.0, 8.0, 20.0, 0.1, "x") == []
    assert checks.bracket(5.0, 4.5, 20.0, 0.1, "x") == []
    assert checks.bracket(5.0, 4.3, 20.0, 0.1, "x")
    assert checks.bracket(5.0, 20.7, 20.0, 0.1, "x")
    assert checks.conclusive(0.1, False) == []
    assert checks.conclusive(0.1, True)
    assert checks.conclusive(math.inf, False)


# ------------------------------------------------------------ tiny workloads


def _bump(data: bytes, row: int, col: int, delta: float) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode())))
    value = float(rows[row + 1][col]) + delta
    rows[row + 1][col] = str(int(value)) if value.is_integer() else repr(value)
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue().encode()


def _ops(wl):
    return [op for segment in wl.round() for op in segment]


def _tiny(name, tmp_path):
    cli = workloads.Cli(str(tmp_path))
    wl = workloads.WORKLOADS[name](5, workloads.TINY_SIZES[name], cli)
    return wl, _ops(wl), _ops(wl)


def _failed_kinds(wl, ops, first):
    return {op.kind for op, fails in zip(ops, wl.check(ops, first)) if fails}


def test_ball_scan_tiny(tmp_path):
    wl, first, again = _tiny("ball-scan", tmp_path)
    assert _failed_kinds(wl, first, first) == set()
    assert _failed_kinds(wl, again, first) == set()
    # checked against itself, so only the checks of the values can fail
    again[0].output = _bump(again[0].output, 0, 1, 1)  # ball count off by one
    assert "count-ball" in _failed_kinds(wl, again, again)
    assert "sign-sector" in _failed_kinds(wl, again, again)  # partition audit
    assert "count-ball" in _failed_kinds(wl, again, first)  # rerun differs


def _only_known_faults(fails):
    return all(isinstance(f, checks.KnownFault) for f in fails)


def test_sector_frames_tiny(tmp_path):
    wl, first, again = _tiny("sector-frames", tmp_path)
    per_op = wl.check(first, first)
    assert [op.kind for op, fails in zip(first, per_op) if fails] == ["boundary"]
    assert _only_known_faults(per_op[-1])
    anticap = list(again)
    anticap[2] = workloads.Op("anticap", 0.0, _bump(again[2].output, 1, 1, 1))  # off by one
    assert "anticap" in _failed_kinds(wl, anticap, anticap)
    # a boundary count off by one more than the known fault, the count at
    # the top T off by one, or a rerun that differs are not excused
    for row in (0, len(wl.boundary_grid) - 1):
        wrong = list(again)
        wrong[4] = workloads.Op("boundary", 0.0, _bump(again[4].output, row, 1, -1))
        assert not _only_known_faults(wl.check(wrong, wrong)[4]), row
    assert not _only_known_faults(wl.check(again, first[:4] + [wrong[4]])[4])
    errored = list(again)
    errored[4] = workloads.Op("boundary", 0.0, error="exit 1")
    assert not _only_known_faults(wl.check(errored, first)[4])


def test_wavefront_sweep_tiny(tmp_path):
    wl, first, again = _tiny("wavefront-sweep", tmp_path)
    assert _failed_kinds(wl, first, first) == set()
    again[1].output = (2e-9, again[1].output[1])  # reconstruction error above 1e-9
    assert _failed_kinds(wl, again, first) == {"kah"}


def test_volume_tiny(tmp_path):
    wl, first, again = _tiny("volume", tmp_path)
    assert _failed_kinds(wl, first, first) == set()
    mc = workloads.parse_csv(again[1].output)
    top = mc[wl.mc_grid.index(3.0 * wl.grid[0])]
    again[2].output = _bump(again[2].output, 0, 1, top[1] * 1.5)  # above its bracket
    assert _failed_kinds(wl, again, again) == {"mc-max"}


def test_traced_round_reports_every_layer(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        cli = workloads.Cli(str(tmp_path), tracer)
        workloads.warm_up(cli)
        wl = workloads.WORKLOADS["sector-frames"](5, workloads.TINY_SIZES["sector-frames"], cli)
        tracer.run = "round-1"
        _ops(wl)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, ["round-1"])
    assert set(metrics) == set(LAYER_METRICS)
    assert metrics["sector.membership_calls"]["value"] > 0
    assert metrics["enumeration.forms"]["value"] > 0
    # cartan is idle in this workload: its figures come from the warm-up calls
    warm = RunTotals(tracer, "setup").calls["cartan.kah_decompose"]
    assert metrics["cartan.kah_calls"]["value"] == warm > 0
    assert all(s[2] >= s[1] for s in tracer.spans)
    from qfsectors import cli as cli_module, sector
    assert cli_module.main.__name__ == "main" and not hasattr(cli_module.main, "__wrapped__")
    assert not hasattr(sector.count_sector, "__wrapped__")


def test_failing_calls_become_failed_operations(tmp_path, monkeypatch):
    from qfsectors import cli as cli_module

    def boom(*args):
        raise RuntimeError("broken")

    op = workloads.library_call("x", boom)
    assert op.error and op.output is None
    cli = workloads.Cli(str(tmp_path))
    op = cli.run("x", ["volume", "--signature", "2,1"], "bad")  # no --T-grid: argparse exits
    assert op.error.startswith("exit 2") and op.output is None
    monkeypatch.setattr(cli_module, "main", boom)
    op = cli.run("x", ["volume"], "raises")
    assert "RuntimeError: broken" in op.error and op.output is None


def test_scaled_time_follows_the_program_not_the_machine():
    def segments():
        yield [workloads.Op("a", 0.5)]
        yield [workloads.Op("b", 0.25), workloads.Op("b", 0.25)]

    ops, scaled, kernels = calibration.play(segments(), ("array", "linalg"))
    assert [op.kind for op in ops] == ["a", "b", "b"] and len(kernels) == 3
    assert scaled > 0
    ref = calibration.REFERENCE_S["linalg"]
    assert calibration.scale(2.0, ref, ref, ("linalg",)) == pytest.approx(2.0)
    # on a machine at half speed the kernel takes twice as long: the scaled
    # time of a segment that also took twice as long is unchanged
    assert calibration.scale(4.0, 2 * ref, 2 * ref, ("linalg",)) == pytest.approx(2.0)


def test_run_fails_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parents[1]
    shutil.copytree(bench, tmp_path / bench.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / bench.name / "run.py"), "--workload", "ball-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
