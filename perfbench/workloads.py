"""The four workloads: inputs made from the seed, one round of
operations, and the checks of every output.

An operation is one qfsectors CLI command, run in-process through
qfsectors.cli.main and writing into the run's temporary directory, or
one library call where the CLI has no command for it.  Only the call
itself is timed.  A run repeats the same round until its time is up,
so every round attempts the same operations on the same inputs, and
every rerun of a command must reproduce the first round's CSV byte for
byte.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

import checks
import oracles

_clock = time.perf_counter


@dataclass
class Op:
    kind: str
    elapsed: float
    output: object = None  # raw output; None when the call failed
    error: str | None = None


class Cli:
    """Runs qfsectors.cli.main(argv) in-process; outputs go to workdir."""

    def __init__(self, workdir: str, tracer=None) -> None:
        self.workdir = workdir
        self.tracer = tracer

    def run(self, kind: str, argv: list[str], stem: str) -> Op:
        from qfsectors import cli

        out = os.path.join(self.workdir, stem + ".csv")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = _clock()
            try:
                code = cli.main(argv + ["--out", out])
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
            except Exception as exc:
                code = f"{type(exc).__name__}: {exc}"
            elapsed = _clock() - t0
        if code != 0:
            return Op(kind, elapsed, error=f"exit {code}: {sink.getvalue().strip()}")
        with open(out, "rb") as fh:
            data = fh.read()
        if self.tracer is not None:
            written = [out, out + ".manifest.json", os.path.splitext(out)[0] + ".fit.json"]
            self.tracer.add("cli.bytes_written",
                            sum(os.path.getsize(p) for p in written if os.path.exists(p)))
        return Op(kind, elapsed, data)


def library_call(kind: str, fn) -> Op:
    """Times fn(); fn returns (result, post) where post() builds the
    output outside the timed region."""
    t0 = _clock()
    try:
        result, post = fn()
    except Exception as exc:
        return Op(kind, _clock() - t0, error=f"{type(exc).__name__}: {exc}")
    elapsed = _clock() - t0
    return Op(kind, elapsed, post(result))


def parse_csv(data: bytes) -> list[list[float | None]]:
    rows = list(csv.reader(io.StringIO(data.decode())))[1:]
    return [[float(x) if x != "" else None for x in row] for row in rows]


def _grid_text(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def warm_up(cli: Cli) -> None:
    """One small call into every layer, so no round pays a first call."""
    from qfsectors import cartan, volume

    ops = [
        cli.run("warm", ["count-ball", "--T-grid", "2.5", "--threads", "1"], "warm-ball"),
        cli.run("warm", ["count-sector", "--blocks", "1,1,1", "--signs", "+,+,-",
                         "--frame", "cap:0,0,1:0.7", "--T-grid", "2.5", "--threads", "1"],
                "warm-sector"),
        cli.run("warm", ["wavefront", "--signature", "2,1", "--c-grid", "0.5",
                         "--depth-grid", "1.5", "--samples", "1", "--seed", "1"], "warm-sweep"),
        cli.run("warm", ["volume", "--signature", "2,1", "--T-grid", "4"], "warm-quad"),
        cli.run("warm", ["volume", "--signature", "2,1", "--T-grid", "4", "--method", "mc",
                         "--norm", "max", "--samples", "200", "--seed", "1"], "warm-mc"),
    ]
    for op in ops:
        if op.error:
            raise RuntimeError(f"warm-up call failed: {op.error}")
    g = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    cartan.reconstruct(cartan.kah_decompose(g, (2, 1)))
    volume.wellroundedness_ratio(volume.context_pq(3, 2, 1), 0.05, 8.0, seed=1, samples=200)


class Workload:
    name = ""
    stream = 0  # keeps the seeded inputs of different workloads apart
    kernels = ("array", "linalg")  # calibration kernels matching the work

    def __init__(self, seed: int, size, cli: Cli) -> None:
        self.size = size
        self.cli = cli
        self.rng = np.random.default_rng([seed, self.stream])

    def round(self):
        """One round, yielded as segments (lists of ops).  Each segment
        runs when the generator is advanced, so the caller can measure
        the machine between segments."""
        raise NotImplementedError

    def check(self, ops: list[Op], first: list[Op]) -> list[list[str]]:
        """Failures of each op of one round; first is the first round."""
        raise NotImplementedError

    def rates(self, rounds: list[list[Op]]) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


def _kind_s(rounds, kind) -> float:
    """Median over rounds of the time spent in operations of one kind."""
    return statistics.median(sum(op.elapsed for op in ops if op.kind == kind) for ops in rounds)


def _series(op: Op, col: int = 1) -> list[float]:
    return [row[col] for row in parse_csv(op.output)]


def _bytes_check(op: Op, first: Op) -> list[str]:
    return checks.identical(first.output, op.output, op.kind)


# ------------------------------------------------------------------ ball-scan


# smallest entry bound, checked by box scan; the eight sign-sector scans
# run at it, so it is fixed to keep the work the same on every seed
SMALL_BOUND = 4


@dataclass(frozen=True)
class BallScanSize:
    top: int = 12  # entry bound at the top threshold
    middle: tuple[int, ...] = (5, 6, 7, 8, 9, 10, 11)
    n_middle: int = 3


class BallScan(Workload):
    """count-ball and a full-frame (+,+,-) count-sector over one max-norm
    T grid, plus the eight sign sectors at the smallest T."""

    name = "ball-scan"
    stream = 1
    SIGNS = [(a, b, c) for a in "+-" for b in "+-" for c in "+-"]

    def __init__(self, seed, size, cli):
        super().__init__(seed, size, cli)
        bounds = [SMALL_BOUND]
        bounds += sorted(int(b) for b in self.rng.choice(size.middle, size.n_middle, replace=False))
        bounds.append(size.top)
        self.grid = [b + 0.5 for b in bounds]
        self.oracle_small = None

    def describe(self):
        return {"T_grid": self.grid}

    def round(self):
        g = _grid_text(self.grid)
        yield [self.cli.run("count-ball", ["count-ball", "--T-grid", g, "--norm", "max",
                                           "--threads", "1"], "ball")]
        yield [self.cli.run("count-sector", ["count-sector", "--blocks", "1,1,1",
                                             "--signs", "+,+,-", "--T-grid", g,
                                             "--threads", "1"], "sector")]
        t0 = _grid_text(self.grid[:1])
        yield [self.cli.run("sign-sector", [
            "count-sector", "--blocks", "1,1,1", "--signs=" + ",".join(signs),
            "--T-grid", t0, "--threads", "1"], f"sign-{i}") for i, signs in enumerate(self.SIGNS)]

    def check(self, ops, first):
        if self.oracle_small is None:
            self.oracle_small = int(oracles.max_ball_forms(self.grid[0]).shape[0])
        fails = [[f"{op.kind}: {op.error}"] if op.error else _bytes_check(op, f)
                 for op, f in zip(ops, first)]
        ball_op, sector_op, signs = ops[0], ops[1], ops[2:]
        if not ball_op.error:
            ball = _series(ball_op)
            fails[0] += checks.strictly_increasing(ball, "ball counts")
            fails[0] += checks.equal(int(ball[0]), self.oracle_small, "ball count vs box scan")
            fails[0] += checks.slope_near(oracles.loglog_slope(self.grid, ball), 3.0,
                                          "ball growth exponent")
            if not sector_op.error:
                fails[1] += checks.at_most(_series(sector_op), ball, "sector <= ball")
            if not any(op.error for op in signs):
                fails[-1] += checks.partition(
                    [int(_series(op)[0]) for op in signs],
                    [int(_series(op, 2)[0]) for op in signs],
                    int(ball[0]),
                )
        return fails

    def rates(self, rounds):
        forms = _series(rounds[0][0])[-1]
        return {
            "ball_forms_per_s": (forms / _kind_s(rounds, "count-ball"), "forms/s"),
            "sector_forms_per_s": (forms / _kind_s(rounds, "count-sector"), "forms/s"),
        }


# -------------------------------------------------------------- sector-frames


@dataclass(frozen=True)
class SectorFramesSize:
    top: int = 6  # entry bound of the framed max-norm scans
    small: tuple[int, ...] = (3, 4)
    middle: tuple[int, ...] = (5,)
    window_ranges: tuple[tuple[float, float], ...] = ((5.0, 6.0), (8.0, 10.0), (11.0, 13.0))
    window_top: float = 14.0
    boundary_k: tuple[int, ...] = (5, 13, 28, 50)


class SectorFrames(Workload):
    """(+,+,-) under the full frame, a cap and its anticap; the windowed
    (1,2) frobenius sector; frobenius ball counts at T = sqrt(k)."""

    name = "sector-frames"
    stream = 2

    def __init__(self, seed, size, cli):
        super().__init__(seed, size, cli)
        rng = self.rng
        bounds = [int(rng.choice(size.small)), int(rng.choice(size.middle)), size.top]
        self.grid = [b + 0.5 for b in bounds]
        axis = rng.standard_normal(3)
        self.axis = tuple(float(x) for x in axis / np.linalg.norm(axis))
        self.angle = float(rng.uniform(0.5, 1.0))
        self.window_grid = [float(rng.uniform(lo, hi)) for lo, hi in size.window_ranges]
        self.window_grid.append(size.window_top)
        # the boundary thresholds do not depend on the seed: they hit the
        # known float-threshold fault every run
        self.boundary_grid = [math.sqrt(k) for k in size.boundary_k] + [size.window_top]
        self.oracle = None

    def describe(self):
        return {"T_grid": self.grid, "cap_axis": self.axis, "cap_angle": self.angle,
                "window_T_grid": self.window_grid, "boundary_T_grid": self.boundary_grid}

    def _frame(self, kind):
        return f"{kind}:{_grid_text(self.axis)}:{self.angle!r}"

    def round(self):
        g = _grid_text(self.grid)
        base = ["count-sector", "--blocks", "1,1,1", "--signs", "+,+,-", "--T-grid", g,
                "--threads", "1"]
        yield [self.cli.run("full", base, "full")]
        yield [self.cli.run("cap", base + ["--frame", self._frame("cap")], "cap")]
        yield [self.cli.run("anticap", base + ["--frame", self._frame("anticap")], "anticap")]
        yield [self.cli.run("window", ["count-sector", "--norm", "frobenius", "--blocks", "1,2",
                                       "--signs", "+,1:1", "--window", "0.6",
                                       "--T-grid", _grid_text(self.window_grid),
                                       "--threads", "1"], "window")]
        yield [self.cli.run("boundary", ["count-ball", "--norm", "frobenius",
                                         "--T-grid", _grid_text(self.boundary_grid),
                                         "--threads", "1"], "boundary")]

    def _oracle(self):
        forms = oracles.max_ball_forms(self.grid[0])
        signs = (1, 1, -1)
        fro = oracles.frobenius_ball_forms(self.window_grid[0])
        return {
            "full": oracles.classify(forms, (1, 1, 1), signs),
            "cap": oracles.classify(forms, (1, 1, 1), signs, ("cap", self.axis, self.angle)),
            "anticap": oracles.classify(forms, (1, 1, 1), signs,
                                        ("anticap", self.axis, self.angle)),
            "window": oracles.classify(fro, (1, 2), (1, (1, 1)), window=0.6),
            "boundary": [oracles.frobenius_ball_count(t) for t in self.boundary_grid],
            "sphere": [oracles.frobenius_sphere_count(k) for k in self.size.boundary_k] + [0],
        }

    def check(self, ops, first):
        if self.oracle is None:
            self.oracle = self._oracle()
        fails = [[f"{op.kind}: {op.error}"] if op.error else _bytes_check(op, f)
                 for op, f in zip(ops, first)]
        for i, op in enumerate(ops[:4]):
            if op.error:
                continue
            rows = parse_csv(op.output)
            sure_m, sure_d, amb = self.oracle[op.kind]
            fails[i] += checks.within_band(int(rows[0][1]), sure_m, amb, f"{op.kind} members")
            fails[i] += checks.within_band(int(rows[0][2]), sure_d, amb, f"{op.kind} degenerate")
            fails[i] += checks.nondecreasing([r[1] for r in rows], f"{op.kind} counts")
        full, cap, anticap, window, boundary = ops
        if not (full.error or cap.error or anticap.error):
            fails[2] += checks.frames_complement(
                *([(int(r[1]), int(r[2])) for r in parse_csv(op.output)]
                  for op in (full, cap, anticap)))
        if not boundary.error:
            ball = _series(boundary)
            fails[4] += checks.boundary_counts([int(x) for x in ball], self.oracle["boundary"],
                                               self.oracle["sphere"])
            fails[4] += checks.nondecreasing(ball, "frobenius ball counts")
            if not window.error:
                fails[3] += checks.at_most(_series(window), [ball[-1]] * len(self.window_grid),
                                           "windowed <= frobenius ball")
        return fails

    def rates(self, rounds):
        from qfsectors import enumeration

        forms = enumeration.count_ball(3, self.grid[-1], "max", threads=1)
        per_round = [sum(op.elapsed for op in ops if op.kind in ("full", "cap", "anticap"))
                     for ops in rounds]
        return {"sector_forms_per_s": (3 * forms / statistics.median(per_round), "forms/s")}


# ------------------------------------------------------------ wavefront-sweep


@dataclass(frozen=True)
class WavefrontSize:
    samples: int = 15  # base points per (c, depth) cell
    round_trips: int = 1000


COND_MAX = 1e4  # condition number of the round-trip matrices


J21 = np.diag([1.0, 1.0, -1.0])


def well_conditioned_sl3(rng, n: int) -> list[np.ndarray]:
    out = []
    while len(out) < n:
        g = rng.standard_normal((3, 3))
        det = np.linalg.det(g)
        if abs(det) < 1e-6:
            continue
        g = g / np.cbrt(det)
        if np.linalg.cond(g) < COND_MAX:
            out.append(g)
    return out


class WavefrontSweep(Workload):
    """The stability sweep on a shallow and a deep depth bin at c = 0.01
    and 0.5, plus a batch of k a W h factorization round trips."""

    name = "wavefront-sweep"
    stream = 3
    kernels = ("linalg", "scipy")
    C_GRID = (0.01, 0.5)

    def __init__(self, seed, size, cli):
        super().__init__(seed, size, cli)
        rng = self.rng
        self.depths = [float(rng.uniform(1.0, 2.0)), float(rng.uniform(4.0, 5.0))]
        self.sweep_seed = int(rng.integers(0, 2**31))
        self.matrices = well_conditioned_sl3(rng, size.round_trips)

    def describe(self):
        return {"c_grid": self.C_GRID, "depth_grid": self.depths, "sweep_seed": self.sweep_seed,
                "round_trips": len(self.matrices)}

    def round(self):
        from qfsectors import cartan

        yield [self.cli.run("wavefront", [
            "wavefront", "--signature", "2,1", "--c-grid", _grid_text(self.C_GRID),
            "--depth-grid", _grid_text(self.depths), "--epsilon", "0.001",
            "--samples", str(self.size.samples), "--seed", str(self.sweep_seed), "--wall", "1",
        ], "sweep")]
        ops = []
        for g in self.matrices:
            def call(g=g):
                f = cartan.kah_decompose(g, (2, 1))
                return (f, cartan.reconstruct(f)), lambda res, g=g: (
                    float(np.linalg.norm(res[1] - g) / np.linalg.norm(g)),
                    float(np.linalg.norm(res[0].h @ J21 @ res[0].h.T - J21)),
                )
            ops.append(library_call("kah", call))
        yield ops

    def check(self, ops, first):
        fails = [[f"{op.kind}: {op.error}"] if op.error else [] for op in ops]
        sweep = ops[0]
        if not sweep.error:
            fails[0] += _bytes_check(sweep, first[0])
            cells = [{"c": r[0], "depth": r[1], "fine": r[2:5], "coarse": r[5:7]}
                     for r in parse_csv(sweep.output)]
            fails[0] += checks.sweep(cells, *self.C_GRID)
        for i, op in enumerate(ops[1:], start=1):
            if not op.error:
                fails[i] += checks.round_trip(*op.output)
        return fails

    def rates(self, rounds):
        points = len(self.C_GRID) * len(self.depths) * self.size.samples
        return {
            "sweep_points_per_s": (points / _kind_s(rounds, "wavefront"), "points/s"),
            "kah_per_s": (len(self.matrices) / _kind_s(rounds, "kah"), "1/s"),
        }


# --------------------------------------------------------------------- volume


# one quadrature T is drawn from each range
T_RANGES = ((6.0, 8.0), (9.0, 12.0), (13.0, 17.0), (18.0, 24.0))
# the program calls a well-roundedness ratio inconclusive when its
# jackknife error exceeds 10%; at 25k samples it reached 8.1% over 36
# seeds, and 40k samples scale it by 0.8
WR_SAMPLES = 40_000
WR_T_RANGE = (6.0, 10.0)
WR_EPS = 0.1


@dataclass(frozen=True)
class VolumeSize:
    mc_frobenius_samples: int = 200_000
    mc_max_samples: int = 10_000


class Volume(Workload):
    """Quadrature and two MC volume series for signature (2,1), and one
    well-roundedness ratio."""

    name = "volume"
    stream = 4

    def __init__(self, seed, size, cli):
        from qfsectors import volume

        super().__init__(seed, size, cli)
        rng = self.rng
        self.grid = [float(rng.uniform(lo, hi)) for lo, hi in T_RANGES]
        # the frobenius MC series also covers 3T, the top of the max-norm bracket
        self.mc_grid = sorted(self.grid + [3.0 * t for t in self.grid])
        self.mc_seed = int(rng.integers(0, 2**31))
        self.wr_t = float(rng.uniform(*WR_T_RANGE))
        self.wr_seed = int(rng.integers(0, 2**31))
        self.ctx = volume.context_pq(3, 2, 1)

    def describe(self):
        return {"T_grid": self.grid, "mc_frobenius_T_grid": self.mc_grid, "mc_seed": self.mc_seed,
                "wellrounded_T": self.wr_t, "wellrounded_seed": self.wr_seed}

    def round(self):
        from qfsectors import volume

        base = ["volume", "--signature", "2,1"]
        g = _grid_text(self.grid)
        size = self.size
        yield [self.cli.run("quadrature", base + ["--T-grid", g], "quad")]
        yield [self.cli.run("mc-frobenius", base + [
            "--T-grid", _grid_text(self.mc_grid), "--method", "mc", "--norm", "frobenius",
            "--samples", str(size.mc_frobenius_samples), "--seed", str(self.mc_seed)],
            "mc-frobenius")]
        yield [self.cli.run("mc-max", base + [
            "--T-grid", g, "--method", "mc", "--norm", "max",
            "--samples", str(size.mc_max_samples), "--seed", str(self.mc_seed)], "mc-max")]

        def call():
            res = volume.wellroundedness_ratio(self.ctx, WR_EPS, self.wr_t, seed=self.wr_seed,
                                               samples=WR_SAMPLES)
            return res, lambda r: (r.ratio, r.stderr, r.inconclusive)

        yield [library_call("wellrounded", call)]

    def check(self, ops, first):
        fails = [[f"{op.kind}: {op.error}"] if op.error else [] for op in ops]
        for i in range(3):
            if not ops[i].error:
                fails[i] += _bytes_check(ops[i], first[i])
        quad, mcf, mcm, wr = ops
        if not quad.error:
            q = _series(quad)
            fails[0] += checks.strictly_increasing(q, "quadrature volumes")
            fails[0] += checks.slope_near(oracles.loglog_slope(self.grid, q), 3.0,
                                          "quadrature growth exponent")
        mc = None if mcf.error else parse_csv(mcf.output)
        if mc is not None and not quad.error:
            for t, v in zip(self.grid, _series(quad)):
                _, mean, err = mc[self.mc_grid.index(t)]
                fails[1] += checks.agree(v, mean, err, f"quadrature vs MC at T={t:.4g}")
        if mc is not None and not mcm.error:
            for t, (_, v, e) in zip(self.grid, parse_csv(mcm.output)):
                low = mc[self.mc_grid.index(t)]
                high = mc[self.mc_grid.index(3.0 * t)]
                err = max(low[2], high[2]) + e
                fails[2] += checks.bracket(low[1], v, high[1], err,
                                           f"max-norm volume at T={t:.4g}")
        if not wr.error:
            ratio, _, inconclusive = wr.output
            fails[3] += checks.conclusive(ratio, inconclusive)
            if wr.output != first[3].output:
                fails[3].append("well-roundedness: rerun differs from the first run")
        return fails

    def rates(self, rounds):
        size = self.size
        return {
            "quad_series_s": (_kind_s(rounds, "quadrature"), "s"),
            "mc_samples_per_s": (size.mc_max_samples / _kind_s(rounds, "mc-max"), "samples/s"),
            "wellrounded_samples_per_s": (
                WR_SAMPLES / _kind_s(rounds, "wellrounded"), "samples/s"),
        }


WORKLOADS = {w.name: w for w in (BallScan, SectorFrames, WavefrontSweep, Volume)}
FULL_SIZES = {
    "ball-scan": BallScanSize(),
    "sector-frames": SectorFramesSize(),
    "wavefront-sweep": WavefrontSize(),
    "volume": VolumeSize(),
}
TINY_SIZES = {
    "ball-scan": BallScanSize(top=8, middle=(5, 6, 7), n_middle=2),
    "sector-frames": SectorFramesSize(top=5, small=(2, 3), middle=(4,),
                                      window_ranges=((4.0, 5.0),), window_top=7.0,
                                      boundary_k=(5, 13)),
    "wavefront-sweep": WavefrontSize(samples=2, round_trips=20),
    "volume": VolumeSize(mc_frobenius_samples=50_000, mc_max_samples=1000),
}
