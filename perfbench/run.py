#!/usr/bin/env python3
"""qfsectors benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It imports qfsectors from the
checkout's src/, makes the workload's inputs from the seed, warms every
layer once, then repeats the workload's round of operations until S
seconds have passed and checks every output.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics untraced, the per-layer metrics with --trace 1).
Run records and spans go to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "QFSECTORS_THREADS")


def import_program():
    """qfsectors from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "qfsectors" / "__init__.py").is_file():
        sys.exit(f"error: no qfsectors package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import qfsectors

    if Path(qfsectors.__file__).resolve().parent != (src / "qfsectors").resolve():
        sys.exit(f"error: imported qfsectors from {qfsectors.__file__}, not from {src}")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def measure_setup(args) -> tuple[float, float]:
    """Median time of fresh processes that import and warm up: scaled
    to the reference speed, and raw."""
    import calibration

    parts = ("array", "linalg")
    raw, scaled = [], []
    before = calibration.kernel_s(parts)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, check=True, timeout=120,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        raw.append(time.perf_counter() - t0)
        after = calibration.kernel_s(parts)
        scaled.append(calibration.scale(raw[-1], before, after, parts))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    import calibration
    import checks
    import workloads
    from tracing import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        cli = workloads.Cli(workdir, tracer)
        workload = workloads.WORKLOADS[args.workload](
            args.seed, workloads.FULL_SIZES[args.workload], cli)
        workloads.warm_up(cli)
        if args.setup_only:
            return 0

        rounds, scaled, kernels = [], [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            if tracer is not None:
                tracer.run = f"round-{len(rounds) + 1}"
            ops, round_scaled, round_kernels = calibration.play(workload.round(),
                                                                workload.kernels)
            rounds.append(ops)
            scaled.append(round_scaled)
            kernels.append(round_kernels)
        if tracer is not None:
            tracer.run = "after"
            tracer.uninstall()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall = [sum(op.elapsed for op in ops) for ops in rounds]

        correct, failed, problems = True, 0, []
        for ops in rounds:
            try:
                per_op = workload.check(ops, rounds[0])
            except Exception as exc:  # output the checks cannot read
                per_op = [[f"checks raised {type(exc).__name__}: {exc}"]] * len(ops)
            for fails in per_op:
                if fails:
                    failed += 1
                    correct = correct and all(isinstance(f, checks.KnownFault) for f in fails)
                    problems += fails
        attempted = sum(len(ops) for ops in rounds)

        raw = {"raw_wall_s": {"value": statistics.median(wall), "unit": "s"}}
        if tracer is None:
            setup_scaled, setup_raw = measure_setup(args)
            raw["raw_setup_s"] = {"value": setup_raw, "unit": "s"}
            metrics = {
                "setup_s": {"value": setup_scaled, "unit": "s"},
                "wall_s": {"value": statistics.median(scaled), "unit": "s"},
                "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            }
        else:
            metrics = layer_metrics(tracer, [f"round-{i + 1}" for i in range(len(rounds))])
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans)

        # the rates read the outputs, so none when an operation errored
        rates = {} if any(op.error for ops in rounds for op in ops) else {
            k: {"value": v, "unit": u} for k, (v, u) in workload.rates(rounds).items()}
        record = {
            "workload": args.workload,
            "trace": args.trace,
            "environment": environment(args.seed),
            "inputs": workload.describe(),
            "rounds": len(rounds),
            "round_wall_s": wall,
            "round_scaled_s": scaled,
            "kernel_s": kernels,
            "workload_rates": rates,
            "raw_times": raw,
            "problems": sorted(set(problems)),
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(record, indent=2) + "\n")

        print(f"# environment {json.dumps(record['environment'])}")
        print(f"# {args.workload}: {len(rounds)} rounds of {len(rounds[0])} operations"
              + ("; traced" if tracer else ""))
        for key, m in {**rates, **raw, **metrics}.items():
            print(f"# {key} = {m['value']:.6g} {m['unit']}")
        for problem in sorted(set(problems)):
            print(f"# failed check: {problem}")
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
