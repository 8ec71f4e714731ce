"""Command-line entry point.

A command computes, writes its files and records them (and its seeds) in
the run's manifest; `main` writes that manifest, once, as
`<first output>.manifest.json` whenever at least one output was recorded:
command line, config digest, seeds, versions, wall clock, a sha256 per
output file that exists, and a partial flag, false only when the command
returned.  CSV numbers are printed with 12 significant digits so reruns
diff clean.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, cartan, enumeration, rootdata, sector, volume, wavefront


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if math.isnan(v):
        return "nan"
    return f"{v:.12g}"


def _round12(obj):
    """Recursively clamp floats to 12 significant digits for JSON output."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# thread-count variables recorded, never set, in every manifest
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "QFSECTORS_THREADS")


class RunManifest:
    """Collects provenance while a command runs, then lands beside its
    first recorded output."""

    def __init__(self, args: argparse.Namespace):
        self.t0 = time.monotonic()
        ns = {k: v for k, v in vars(args).items() if k != "func"}
        self.config = {k: ns[k] for k in sorted(ns)}
        self.command = "qfsectors " + " ".join(map(str, args._argv))
        self.seeds: dict[str, int] = {}
        self.outputs: list[str] = []

    def record(self, path: str) -> str:
        self.outputs.append(path)
        return path

    def write(self, partial: bool) -> None:
        blob = json.dumps(self.config, sort_keys=True, default=str).encode()
        doc = {
            "command": self.command,
            "config_digest": hashlib.blake2b(blob, digest_size=8).hexdigest(),
            "seeds": self.seeds,
            "versions": {
                "qfsectors": __version__,
                "numpy": np.__version__,
                "scipy": __import__("scipy").__version__,
                "python": sys.version.split()[0],
            },
            "wall_clock_s": round(time.monotonic() - self.t0, 3),
            "machine": {
                "cpu_count": os.cpu_count(),
                "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
            },
            "outputs": {p: _sha256(p) for p in self.outputs if os.path.exists(p)},
            "partial": partial,
        }
        with open(self.outputs[0] + ".manifest.json", "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _write_csv(path: str, header: list[str], rows) -> str:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])
    return path


def _write_json(path: str, doc) -> str:
    with open(path, "w") as fh:
        json.dump(_round12(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _parse_signature(text: str) -> tuple[int, int]:
    vals = _parse_ints(text)
    if len(vals) != 2 or min(vals) < 0:
        raise ValueError("signature must be two comma-separated nonnegative integers p,q")
    return vals[0], vals[1]


def _parse_signs(text: str):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok in ("+", "-"):
            out.append(tok)
        elif ":" in tok:
            pp, qq = tok.split(":")
            out.append((int(pp), int(qq)))
        else:
            raise ValueError(f"bad sign token {tok!r}: use +, -, or p:q")
    return out


def _parse_frame(text: str | None):
    if text is None or text == "full":
        return sector.FullFrame()
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("frame must be full, cap:x,..:angle, or anticap:x,..:angle")
    kind, axis_text, angle_text = parts
    axis = tuple(_parse_floats(axis_text))
    angle = float(angle_text)
    if kind == "cap":
        return sector.Cap(axis=axis, angle=angle)
    if kind == "anticap":
        return sector.AntiCap(axis=axis, angle=angle)
    raise ValueError(f"unknown frame kind {kind!r}")


def _read_matrix(spec: str) -> np.ndarray:
    if os.path.exists(spec):
        with open(spec) as fh:
            text = fh.read()
        if spec.endswith(".json"):
            return np.asarray(json.loads(text), dtype=float)
        rows = [
            [float(tok) for tok in line.replace(",", " ").split()]
            for line in text.strip().splitlines()
            if line.strip()
        ]
        return np.asarray(rows)
    rows = [[float(tok) for tok in r.split(",")] for r in spec.split(";")]
    return np.asarray(rows)


def _read_series_csv(path: str) -> tuple[list[float], list[float]]:
    ts, vals = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if len(row) < 2:
                continue
            try:
                t, v = float(row[0]), float(row[1])
            except ValueError:
                continue  # header line
            ts.append(t)
            vals.append(v)
    if not ts:
        raise ValueError(f"no numeric (T, value) rows found in {path}")
    return ts, vals


# ---------------------------------------------------------------- commands


def _cmd_predict_exponent(args, manifest) -> None:
    dims = _parse_ints(args.blocks)
    pair = rootdata.predict_exponent(args.d, dims)
    doc = {"a": str(pair.a), "b": pair.b}
    print(json.dumps(doc, separators=(",", ":")))
    if args.out:
        manifest.record(_write_json(args.out, doc))


def _cmd_kah(args, manifest) -> None:
    mat = _read_matrix(args.matrix)
    p, q = _parse_signature(args.signature)
    factors = cartan.kah_decompose(mat, (p, q))
    doc = {
        "signature": [p, q],
        "k": factors.k.tolist(),
        "a": factors.a.tolist(),
        "w": list(factors.w),
        "h": factors.h.tolist(),
        "margins": list(factors.margins),
        "chamber_depth": factors.chamber_depth,
        "tie": factors.tie,
    }
    print(json.dumps(_round12(doc), separators=(",", ":")))
    if args.out:
        manifest.record(_write_json(args.out, doc))


# the wavefront CSV header, each column read from the SweepCell field of its name
SWEEP_COLUMNS = (
    "c",
    "depth",
    "ratio_k",
    "ratio_a",
    "ratio_h",
    "ratio_coarse_aI",
    "ratio_coarse_frame",
    "crossings",
)


def _cmd_wavefront(args, manifest) -> None:
    p, q = _parse_signature(args.signature)
    manifest.seeds["sweep"] = args.seed
    cells = wavefront.lipschitz_sweep(
        (p, q),
        _parse_floats(args.c_grid),
        _parse_floats(args.depth_grid),
        epsilon=args.epsilon,
        n_per_cell=args.samples,
        seed=args.seed,
        wall=args.wall,
    )
    rows = [[getattr(cell, col) for col in SWEEP_COLUMNS] for cell in cells]
    manifest.record(_write_csv(args.out, list(SWEEP_COLUMNS), rows))


def _tri_labels(d: int) -> list[str]:
    return [f"q{i + 1}{j + 1}" for i, j in enumeration.triangle_indices(d)]


def _cmd_enumerate(args, manifest) -> None:
    header = _tri_labels(args.d) + ["det", "norm"]
    with open(args.out, "w", newline="") as fh:
        manifest.record(args.out)
        w = csv.writer(fh)
        w.writerow(header)
        for tri, det, norms in enumeration.iter_form_batches(
            args.d, args.T, args.norm, args.threads
        ):
            for row, dv, nv in zip(tri, det, norms):
                w.writerow([str(int(x)) for x in row] + [str(int(dv)), _fmt(nv)])


def _cmd_count_ball(args, manifest) -> None:
    grid = _parse_floats(args.t_grid)
    counts = enumeration.count_ball_grid(args.d, grid, args.norm, args.threads)
    manifest.record(_write_csv(args.out, ["T", "count"], list(zip(grid, counts))))


def _cmd_count_sector(args, manifest) -> None:
    spec = sector.make_spec(
        _parse_ints(args.blocks),
        _parse_signs(args.signs),
        frame=_parse_frame(args.frame),
        norm=args.norm,
        block_window=args.window,
    )
    series = sector.count_sector(_parse_floats(args.t_grid), spec, threads=args.threads)
    rows = list(zip(series.t_grid, series.values, series.degenerate))
    manifest.record(_write_csv(args.out, ["T", "count", "degenerate"], rows))
    fit_doc = _fit_report(series)
    fit_path = os.path.splitext(args.out)[0] + ".fit.json"
    manifest.record(_write_json(fit_path, fit_doc))
    print(json.dumps(_round12(fit_doc), separators=(",", ":")))


def _fit_report(series: sector.CountSeries) -> dict:
    if series.fit_a is None:
        return {"spec_digest": series.spec_digest, "error": "insufficient data"}
    return {
        "spec_digest": series.spec_digest,
        "a": series.fit_a,
        "b_fixed": series.fit_b_fixed,
        "c": series.fit_c,
        "residuals": list(series.residuals),
    }


def _cmd_volume(args, manifest) -> None:
    p, q = _parse_signature(args.signature)
    signs = (1,) * p + (-1,) * q
    if args.signs:
        tokens = _parse_signs(args.signs)
        if len(tokens) != p + q or tokens.count("+") != p or tokens.count("-") != q:
            raise ValueError("--signs must have p pluses and q minuses")
        signs = tuple(1 if s == "+" else -1 for s in tokens)
    joined = _parse_ints(args.I) if args.I else []
    ctx = volume.context_for(signs, joined)
    if args.seed is not None:
        manifest.seeds["volume"] = args.seed
    series = volume.volume_series(
        ctx,
        _parse_floats(args.t_grid),
        method=args.method,
        frame=_parse_frame(args.frame),
        norm=args.norm,
        samples=int(float(args.samples)),
        seed=args.seed,
    )
    err = series.stderr if series.stderr is not None else [None] * len(series.t_grid)
    rows = list(zip(series.t_grid, series.values, err))
    manifest.record(_write_csv(args.out, ["T", "volume", "stderr"], rows))
    fit_path = os.path.splitext(args.out)[0] + ".fit.json"
    manifest.record(_write_json(fit_path, _fit_report(series)))


def _cmd_fit(args, manifest) -> None:
    ts, vals = _read_series_csv(getattr(args, "in"))
    res = sector.fit_exponent((ts, vals), b_fixed=args.b)
    doc = {
        "a": res.a,
        "c": res.c,
        "r2": res.r2,
        "b_fixed": res.b_fixed,
        "a_free": res.a_free,
        "b_free": res.b_free,
        "residuals": list(res.residuals),
    }
    print(json.dumps(_round12(doc), separators=(",", ":")))
    if args.out:
        manifest.record(_write_json(args.out, doc))


def _tail_slope(ts, vals) -> float | None:
    pos = [(t, v) for t, v in zip(ts, vals) if v > 0]
    if len(pos) < 2:
        return None
    (t0, v0), (t1, v1) = pos[-2], pos[-1]
    if t1 == t0:
        return None
    return (math.log(v1) - math.log(v0)) / (math.log(t1) - math.log(t0))


def _series_summary(name: str, ts, vals) -> dict:
    out = {"series": name, "tail_slope": _tail_slope(ts, vals)}
    try:
        out["fit_a"] = sector.fit_exponent((ts, vals)).a
    except ValueError:
        out["fit_a"] = None
    return out


def _cmd_report(args, manifest) -> None:
    counts = _read_series_csv(args.counts)
    volumes = _read_series_csv(args.volumes)
    rows = [
        _series_summary("counts", *counts),
        _series_summary("volumes", *volumes),
    ]
    diff = {
        "tail_slope": (
            abs(rows[0]["tail_slope"] - rows[1]["tail_slope"])
            if None not in (rows[0]["tail_slope"], rows[1]["tail_slope"])
            else None
        ),
        "fit_a": (
            abs(rows[0]["fit_a"] - rows[1]["fit_a"])
            if None not in (rows[0]["fit_a"], rows[1]["fit_a"])
            else None
        ),
    }
    doc = {"rows": rows, "difference": diff}
    print(f"{'series':<10}{'tail_slope':>14}{'fit_a':>14}")
    for r in rows:
        print(f"{r['series']:<10}{_fmt(r['tail_slope']):>14}{_fmt(r['fit_a']):>14}")
    print(f"{'diff':<10}{_fmt(diff['tail_slope']):>14}{_fmt(diff['fit_a']):>14}")
    if args.out:
        manifest.record(_write_json(args.out, doc))
    if args.svg:
        manifest.record(_write_svg(args.svg, counts, volumes))


def _write_svg(path: str, counts, volumes) -> str:
    """Minimal log-log plot: two polylines on shared axes, no deps."""
    width, height, pad = 560, 400, 52
    series = [("counts", counts, "#1f77b4"), ("volumes", volumes, "#d62728")]
    pts = [
        (math.log10(t), math.log10(v))
        for _, (ts, vs), _ in series
        for t, v in zip(ts, vs)
        if v > 0 and t > 0
    ]
    if not pts:
        raise ValueError("nothing positive to plot")
    xs, ys = zip(*pts)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    x1 += (x1 - x0 or 1) * 0.05
    y1 += (y1 - y0 or 1) * 0.05

    def sx(x):
        return pad + (x - x0) / (x1 - x0 or 1) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0 or 1) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width / 2}" y="{height - 12}" font-size="12" text-anchor="middle">log10 T</text>',
        f'<text x="14" y="{height / 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2})">log10 value</text>',
    ]
    for label, (ts, vs), color in series:
        path_pts = " ".join(
            f"{sx(math.log10(t)):.2f},{sy(math.log10(v)):.2f}"
            for t, v in zip(ts, vs)
            if v > 0
        )
        if path_pts:
            parts.append(
                f'<polyline points="{path_pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
    for i, (label, _, color) in enumerate(series):
        yy = pad + 16 * i
        parts.append(f'<rect x="{width - pad - 110}" y="{yy - 9}" width="12" height="3" fill="{color}"/>')
        parts.append(f'<text x="{width - pad - 92}" y="{yy - 4}" font-size="12">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


# ----------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qfsectors",
        description="Unimodular quadratic forms: enumeration, spectral sectors, "
        "Cartan factorization, wavefront probes, and sector volumes.",
    )
    top.add_argument("--version", action="version", version=f"qfsectors {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("predict-exponent", help="exact growth exponent for a block pattern")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--blocks", required=True, help="comma list of block dims, e.g. 1,1,1")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_predict_exponent)

    sp = sub.add_parser("kah", help="generalized Cartan factorization of one matrix")
    sp.add_argument("--matrix", required=True, help="file path or inline rows a,b;c,d")
    sp.add_argument("--signature", required=True, help="p,q")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_kah)

    sp = sub.add_parser("wavefront", help="factor-stability sweep over (c, depth) cells")
    sp.add_argument("--signature", required=True, help="p,q")
    sp.add_argument("--c-grid", dest="c_grid", required=True)
    sp.add_argument("--depth-grid", dest="depth_grid", required=True)
    sp.add_argument("--epsilon", type=float, default=1e-3)
    sp.add_argument("--samples", type=int, default=100, help="base points per cell")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--wall", type=int, default=None, help="pinned wall index (1-based)")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_wavefront)

    sp = sub.add_parser("enumerate", help="list unimodular forms in a norm ball")
    sp.add_argument("--d", type=int, default=3, choices=(2, 3, 4))
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--norm", default="max", choices=enumeration.NORMS)
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("count-ball", help="ball counts over a threshold grid")
    sp.add_argument("--d", type=int, default=3, choices=(2, 3, 4))
    sp.add_argument("--T-grid", dest="t_grid", required=True)
    sp.add_argument("--norm", default="max", choices=enumeration.NORMS)
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_count_ball)

    sp = sub.add_parser("count-sector", help="sector counts + fit over a threshold grid")
    sp.add_argument("--blocks", required=True, help="comma list of block dims; d is their sum")
    sp.add_argument("--signs", required=True, help="per block: +, -, or p:q")
    sp.add_argument("--frame", default=None, help="full | cap:x,..:angle | anticap:x,..:angle")
    sp.add_argument("--norm", default="max", choices=enumeration.NORMS)
    sp.add_argument("--window", type=float, default=None, help="within-block log spread bound")
    sp.add_argument("--T-grid", dest="t_grid", required=True)
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_count_sector)

    sp = sub.add_parser("volume", help="sector volume series (quadrature or MC)")
    sp.add_argument("--signature", required=True, help="p,q")
    sp.add_argument("--signs", default=None, help="diagonal sign pattern, e.g. +,+,-")
    sp.add_argument("--I", default="", help="joined wall indices, comma list or empty")
    sp.add_argument("--T-grid", dest="t_grid", required=True)
    sp.add_argument("--method", default="quadrature", choices=("quadrature", "mc", "monte-carlo"))
    sp.add_argument("--samples", default="200000")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--frame", default=None)
    sp.add_argument("--norm", default="frobenius", choices=enumeration.NORMS)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_volume)

    sp = sub.add_parser("fit", help="exponent fit of a (T, value) CSV series")
    sp.add_argument("--in", dest="in", required=True)
    sp.add_argument("--b", type=int, default=1)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("report", help="compare a count series with a volume series")
    sp.add_argument("--counts", required=True)
    sp.add_argument("--volumes", required=True)
    sp.add_argument("--svg", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_report)

    return top


def _bind_sign_lists(argv: list[str]) -> list[str]:
    """argparse takes a value starting with '-' for an option, so a sign
    list such as "--signs -,+,+" is bound here as "--signs=-,+,+"."""
    out = []
    for tok in argv:
        if out and out[-1] == "--signs" and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"--signs={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(_bind_sign_lists(argv))
    args._argv = argv
    manifest, done = RunManifest(args), False
    try:
        try:
            args.func(args, manifest)
            done = True
        finally:
            if manifest.outputs:
                manifest.write(partial=not done)
        return 0
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
