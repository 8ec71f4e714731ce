"""Every command line the benchmark's workloads pass still parses.

The workloads are built at their tiny sizes with a stand-in for their
CLI runner that records each argv instead of running it; the warm-up
and one round of every workload are collected, and each recorded
command line goes through the real parser.  No CLI command runs.
"""

from pathlib import Path

import pytest

from qfsectors import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


def test_every_benchmark_command_line_parses(workloads):
    class RecordingCli:
        def __init__(self):
            self.argvs = []

        def run(self, kind, argv, stem):
            self.argvs.append(list(argv))
            return workloads.Op(kind, 0.0)

    recorder = RecordingCli()
    workloads.warm_up(recorder)
    for name, workload in workloads.WORKLOADS.items():
        before = len(recorder.argvs)
        for _ in workload(1, workloads.TINY_SIZES[name], recorder).round():
            pass
        assert len(recorder.argvs) > before, f"{name} passed no command line"
    commands = {argv[0] for argv in recorder.argvs}
    assert {"count-ball", "count-sector", "wavefront", "volume"} <= commands
    parser = cli._build_parser()
    for argv in recorder.argvs:
        try:
            parser.parse_args(cli._bind_sign_lists(argv + ["--out", "x.csv"]))
        except SystemExit:
            pytest.fail(f"the parser rejects a benchmark command line: {argv}")
