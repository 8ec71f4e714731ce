"""End-to-end command line coverage: stdout contracts, artifacts, manifests."""

import csv
import gc
import hashlib
import importlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import child_env
from qfsectors import cartan, enumeration, sector, volume
from qfsectors.cli import main

SUBCOMMANDS = ("predict-exponent", "kah", "wavefront", "enumerate",
               "count-ball", "count-sector", "volume", "fit", "report")


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ------------------------------------------------------------------ stdout


def test_predict_exponent_stdout_is_stable(capsys):
    code, out, _ = run(capsys, "predict-exponent", "--d", "3", "--blocks", "1,1,1")
    assert code == 0
    assert out == '{"a":"3","b":1}\n'
    code, out, _ = run(capsys, "predict-exponent", "--d", "3", "--blocks", "1,2")
    assert code == 0
    assert out == '{"a":"3/2","b":1}\n'


def test_kah_stdout_reconstructs(capsys):
    """The README's kah run reconstructs g, and its stdout is pinned byte
    for byte."""
    code, out, _ = run(
        capsys, "kah", "--matrix", "2,1,0;1,1,0;0,0,1", "--signature", "2,1"
    )
    assert code == 0
    assert out == (
        '{"signature":[2,1],"k":[[0.850650808352,0.0,0.525731112119],'
        '[0.525731112119,0.0,-0.850650808352],[0.0,1.0,-0.0]],'
        '"a":[2.61803398875,1.0,0.38196601125],"w":[1,-1,1],'
        '"h":[[0.850650808352,0.525731112119,0.0],[-0.525731112119,0.850650808352,0.0],'
        '[0.0,0.0,1.0]],"margins":[0.962423650119,0.962423650119],'
        '"chamber_depth":1.36107257875,"tie":false}\n'
    )
    doc = json.loads(out)
    assert doc["signature"] == [2, 1]
    k = np.asarray(doc["k"])
    a = np.asarray(doc["a"])
    h = np.asarray(doc["h"])
    wmat = cartan.weyl_matrix(tuple(doc["w"]), (2, 1))
    g = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.linalg.norm(k @ np.diag(a) @ wmat @ h - g) < 1e-9
    assert doc["tie"] is False
    assert doc["chamber_depth"] > 0
    assert len(doc["margins"]) == 2


def test_kah_closes_its_matrix_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("2 1 0\n1 1 0\n0 0 1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, out, _ = run(capsys, "kah", "--matrix", str(path), "--signature", "2,1")
        gc.collect()
    assert code == 0
    assert out == run(capsys, "kah", "--matrix", "2,1,0;1,1,0;0,0,1", "--signature", "2,1")[1]
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_fit_recovers_cubic(tmp_path, capsys):
    path = tmp_path / "counts.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["T", "count"])
        for t in (2.0, 4.0, 8.0, 16.0, 32.0):
            w.writerow([t, 5.0 * t**3])
    code, out, _ = run(capsys, "fit", "--in", str(path), "--b", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == pytest.approx(3.0, abs=1e-9)
    assert doc["c"] == pytest.approx(5.0, rel=1e-9)
    assert doc["b_fixed"] == 1
    # compact separators: re-encoding reproduces the line byte for byte
    assert out.strip() == json.dumps(doc, separators=(",", ":"))
    for b in ("0", "-2"):
        code, out, err = run(capsys, "fit", "--in", str(path), "--b", b)
        assert (code, out) == (1, "")
        assert err.startswith("error: b_fixed must be at least 1")


@pytest.mark.parametrize("value", ("nan", "inf"))
def test_fit_rejects_a_point_that_is_not_finite(tmp_path, capfd, value):
    """A nan or inf row used to reach LAPACK, which printed DLASCL lines
    before the CLI reported an SVD that did not converge."""
    path = tmp_path / "counts.csv"
    path.write_text("T,count\n2,40\n4,320\n8," + value + "\n16,20480\n32,163840\n")
    code = main(["fit", "--in", str(path)])
    out, err = capfd.readouterr()
    assert (code, out) == (1, "")
    assert err == f"error: non-finite (T, value) points: [(8.0, {value})]\n"


# ----------------------------------------------------------------- artifacts


def test_enumerate_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "forms.csv"
    code, _, _ = run(capsys, "enumerate", "--T", "1.5", "--out", str(out))
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["q11", "q12", "q13", "q22", "q23", "q33", "det", "norm"]
    assert len(rows) == enumeration.count_ball(3, 1.5)
    assert all(r[6] in ("1", "-1") for r in rows)
    man = json.loads((tmp_path / "forms.csv.manifest.json").read_text())
    assert man["command"].startswith("qfsectors enumerate")
    assert len(man["config_digest"]) == 16
    assert man["partial"] is False
    assert set(man["versions"]) == {"qfsectors", "numpy", "scipy", "python"}
    assert man["wall_clock_s"] >= 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert man["outputs"][str(out)] == digest


def test_manifest_records_the_machine(tmp_path, capsys, monkeypatch):
    """The manifest reads the core count and the thread variables; an
    unset variable reads "unset", and the run changes none of them."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    before = dict(os.environ)
    out = tmp_path / "forms.csv"
    code, _, _ = run(capsys, "enumerate", "--T", "1.5", "--out", str(out))
    assert code == 0
    assert dict(os.environ) == before
    man = json.loads((tmp_path / "forms.csv.manifest.json").read_text())
    assert man["machine"]["cpu_count"] == os.cpu_count()
    threads = man["machine"]["threads"]
    assert set(threads) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "QFSECTORS_THREADS"}
    assert threads["OPENBLAS_NUM_THREADS"] == "1"
    assert threads["OMP_NUM_THREADS"] == "unset"


# sha256 of enumerate's CSV, as the whole-box lexicographic traversal wrote it
ENUMERATE_DIGESTS = {
    ("--T", "10"): "56a4ebe2c02e90c4c4fa141f3fe7c44ad27821c4ef87812d34ee0bcf9ce95e1f",
    ("--d", "4", "--T", "2.5", "--norm", "frobenius"):
        "e7b01e8d99e470c6127be5df67216238f464658ba12d5cff2db1a5e29bbcde5b",
    ("--d", "2", "--T", "9.5"): "cfb4668c127b416ef3759436891cc5d54095f17e1be3eedf679376837459ca5c",
}


def test_enumerate_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "enumerate", "--T", "2.0", "--out", str(a))
    run(capsys, "enumerate", "--T", "2.0", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    for args, digest in ENUMERATE_DIGESTS.items():
        run(capsys, "enumerate", *args, "--out", str(a))
        assert hashlib.sha256(a.read_bytes()).hexdigest() == digest, args


def test_enumerate_marks_partial_runs(tmp_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise KeyboardInterrupt
        yield

    monkeypatch.setattr(enumeration, "iter_form_batches", boom)
    out = tmp_path / "forms.csv"
    with pytest.raises(KeyboardInterrupt):
        main(["enumerate", "--T", "1.5", "--out", str(out)])
    man = json.loads((tmp_path / "forms.csv.manifest.json").read_text())
    assert man["partial"] is True


@pytest.mark.parametrize("argv", [
    ["count-sector", "--blocks", "1,1,1", "--signs", "+,+,-", "--T-grid", "2,3"],
    ["volume", "--signature", "2,1", "--T-grid", "6,10"],
])
def test_unwritable_fit_file_leaves_a_partial_manifest(tmp_path, capsys, argv):
    """A run that dies after writing its CSV still explains that CSV."""
    out = tmp_path / "series.csv"
    (tmp_path / "series.fit.json").mkdir()
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 1
    assert err.startswith("error:")
    man = json.loads((tmp_path / "series.csv.manifest.json").read_text())
    assert man["partial"] is True
    assert man["outputs"] == {str(out): hashlib.sha256(out.read_bytes()).hexdigest()}


def test_enumerate_into_a_missing_directory_names_the_csv(tmp_path, capsys):
    out = tmp_path / "missing" / "forms.csv"
    code, _, err = run(capsys, "enumerate", "--T", "1.5", "--out", str(out))
    assert code == 1
    assert err.startswith("error:")
    assert str(out) in err
    assert "manifest" not in err


@pytest.mark.parametrize("argv", [
    ["predict-exponent", "--d", "3", "--blocks", "1,1,1"],
    ["kah", "--matrix", "2,1,0;1,1,0;0,0,1", "--signature", "2,1"],
    ["fit", "--in", "series.csv"],
])
def test_stdout_only_runs_write_no_manifest(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with open("series.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["T", "value"]] + [[t, 2.0 * t**3] for t in (2, 3, 4, 5)])
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]


def test_count_ball_grid(tmp_path, capsys):
    out = tmp_path / "ball.csv"
    code, _, _ = run(capsys, "count-ball", "--T-grid", "1.5,2", "--out", str(out))
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["T", "count"]
    assert int(rows[0][1]) == 308
    assert int(rows[1][1]) == enumeration.count_ball(3, 2.0)


def test_count_sector_artifacts(tmp_path, capsys):
    out = tmp_path / "sector.csv"
    code, stdout, _ = run(
        capsys,
        "count-sector",
        "--blocks", "1,1,1",
        "--signs", "+,+,-",
        "--T-grid", "2,3",
        "--out", str(out),
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["T", "count", "degenerate"]
    assert len(rows) == 2
    assert int(rows[0][1]) <= int(rows[1][1])
    fit_doc = json.loads((tmp_path / "sector.fit.json").read_text())
    assert fit_doc["error"] == "insufficient data"  # two points cannot pin a slope
    line = json.loads(stdout)
    assert line == fit_doc


def test_count_sector_takes_d_from_the_blocks(tmp_path, capsys):
    out = tmp_path / "sector4.csv"
    code, _, _ = run(capsys, "count-sector", "--blocks", "1,1,1,1", "--signs", "+,+,-,-",
                     "--T-grid", "2", "--out", str(out))
    assert code == 0
    want = sector.count_sector([2.0], sector.make_spec((1, 1, 1, 1), ["+", "+", "-", "-"]))
    assert want.manifest["d"] == 4
    _, rows = read_csv(out)
    assert rows == [["2", f"{want.values[0]:.12g}", str(want.degenerate[0])]]
    # d is no option of its own, so it cannot disagree with the blocks
    with pytest.raises(SystemExit) as exc:
        main(["count-sector", "--d", "4", "--blocks", "1,1,1", "--signs", "+,+,-",
              "--T-grid", "2", "--out", str(out)])
    assert exc.value.code == 2


def test_count_sector_help_has_no_d_or_tie_tolerance(capsys):
    with pytest.raises(SystemExit):
        main(["count-sector", "--help"])
    text = capsys.readouterr().out
    assert "--blocks" in text
    assert "--d " not in text and "--d\n" not in text and "--tie-tol" not in text


@pytest.mark.parametrize("cmd", (["count-ball"], ["count-sector", "--blocks", "1,1,1",
                                                  "--signs", "+,+,-"]))
def test_empty_t_grid_is_an_error(tmp_path, capsys, cmd):
    out = tmp_path / "empty.csv"
    code, _, err = run(capsys, *cmd, "--T-grid", "", "--out", str(out))
    assert code == 1
    assert err == "error: T grid must be nonempty and increasing\n"


@pytest.mark.parametrize("grid", ("3,nan", "6,inf", "-inf,6"))
@pytest.mark.parametrize("cmd", (["count-ball"],
                                 ["count-sector", "--blocks", "1,1,1", "--signs", "+,+,-"],
                                 ["volume", "--signature", "2,1"]))
def test_non_finite_t_grid_is_an_error(tmp_path, capsys, cmd, grid):
    out = tmp_path / "bad.csv"
    code, _, err = run(capsys, *cmd, f"--T-grid={grid}", "--out", str(out))
    assert code == 1
    assert err == "error: T grid values must be finite\n"


@pytest.mark.parametrize("t", ("nan", "inf"))
def test_enumerate_rejects_a_t_that_is_not_finite(tmp_path, capsys, t):
    out = tmp_path / "bad.csv"
    code, _, err = run(capsys, "enumerate", "--T", t, "--out", str(out))
    assert code == 1
    assert err == "error: T grid values must be finite\n"


@pytest.mark.parametrize("window", ("nan", "0", "-1"))
def test_count_sector_rejects_a_window_that_is_not_positive(tmp_path, capsys, window):
    out = tmp_path / "window.csv"
    code, _, err = run(capsys, "count-sector", "--blocks", "1,2", "--signs", "+,1:1",
                       "--norm", "frobenius", "--window", window, "--T-grid", "8",
                       "--out", str(out))
    assert code == 1
    assert err == "error: block window must be positive when given\n"
    assert not out.exists()


def test_negative_signature_is_an_error(tmp_path, capsys):
    out = tmp_path / "neg.csv"
    code, _, err = run(capsys, "volume", "--signature=-1,3", "--T-grid", "6,8", "--out", str(out))
    assert code == 1
    assert err == "error: signature must be two comma-separated nonnegative integers p,q\n"
    assert not out.exists()


@pytest.mark.parametrize("samples", ("0", "1"))
def test_monte_carlo_volume_needs_two_samples(tmp_path, capsys, samples):
    out = tmp_path / "mc.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "volume", "--signature", "2,1", "--T-grid", "6,8",
                           "--method", "mc", "--samples", samples, "--seed", "3",
                           "--out", str(out))
    assert code == 1
    assert err == "error: monte-carlo needs at least 2 samples\n"
    assert not out.exists()


@pytest.mark.parametrize("samples", ("2.5", "1e300"))
def test_volume_samples_must_be_an_integer(tmp_path, capsys, samples):
    """--samples 2.5 used to run 2 samples and exit 0, and 1e300 failed
    past the C long; argparse now rejects both, before any output."""
    out = tmp_path / "mc.csv"
    with pytest.raises(SystemExit) as exc:
        main(["volume", "--signature", "2,1", "--T-grid", "4,5", "--method", "mc",
              "--samples", samples, "--seed", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ("quadrature", "mc"))
def test_volume_rejects_a_threshold_that_is_not_positive(tmp_path, capsys, method):
    out = tmp_path / "vol.csv"
    code, _, err = run(capsys, "volume", "--signature", "2,1", "--T-grid", "0,4",
                       "--method", method, "--samples", "300", "--seed", "1", "--out", str(out))
    assert code == 1
    assert err == "error: need a finite t > 0\n"
    assert not out.exists()


@pytest.mark.parametrize("signs", [",".join(p) for p in itertools.product("+-", repeat=3)])
def test_sign_lists_work_as_separate_values(tmp_path, capsys, signs):
    """A sign list after a space, even one starting with '-', is the value
    of --signs: the run matches the --signs=... spelling byte for byte."""
    signature = f"{signs.count('+')},{signs.count('-')}"
    for cmd, extra in (
        ("count-sector", ["--blocks", "1,1,1", "--T-grid", "2,3"]),
        ("volume", ["--signature", signature, "--T-grid", "6,10"]),
    ):
        spaced, joined = tmp_path / f"{cmd}-a.csv", tmp_path / f"{cmd}-b.csv"
        assert run(capsys, cmd, "--signs", signs, *extra, "--out", str(spaced))[0] == 0
        assert run(capsys, cmd, f"--signs={signs}", *extra, "--out", str(joined))[0] == 0
        assert spaced.read_bytes() == joined.read_bytes()
    spec = sector.make_spec((1, 1, 1), signs.split(","))
    _, rows = read_csv(tmp_path / "count-sector-a.csv")
    assert [float(r[1]) for r in rows] == list(sector.count_sector([2, 3], spec).values)
    man = json.loads((tmp_path / "count-sector-a.csv.manifest.json").read_text())
    assert f"--signs {signs} " in man["command"]


def test_volume_quadrature_and_mc(tmp_path, capsys):
    out = tmp_path / "vol.csv"
    code, _, _ = run(
        capsys,
        "volume",
        "--signature", "2,1",
        "--T-grid", "6,8.5,12,17,24",
        "--out", str(out),
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["T", "volume", "stderr"]
    assert all(r[2] == "" for r in rows)
    fit_doc = json.loads((tmp_path / "vol.fit.json").read_text())
    assert 2.5 < fit_doc["a"] < 3.5

    mc1, mc2 = tmp_path / "mc1.csv", tmp_path / "mc2.csv"
    for path in (mc1, mc2):
        code, _, _ = run(
            capsys,
            "volume",
            "--signature", "2,1",
            "--signs", "+,-,+",
            "--T-grid", "6,10",
            "--method", "mc",
            "--samples", "20000",
            "--seed", "9",
            "--out", str(path),
        )
        assert code == 0
    assert mc1.read_bytes() == mc2.read_bytes()
    _, rows = read_csv(mc1)
    assert all(float(r[2]) > 0 for r in rows)


def test_volume_error_paths(tmp_path, capsys):
    out = tmp_path / "vol.csv"
    code, _, err = run(
        capsys, "volume", "--signature", "2,1", "--T-grid", "6,10",
        "--method", "mc", "--out", str(out),
    )
    assert code == 1
    assert err.startswith("error:")
    for signs in ("+,-", "+,-,-", "+,+,1:1"):
        code, _, err = run(
            capsys, "volume", "--signature", "2,1", "--signs", signs, "--T-grid", "6,10",
            "--out", str(out),
        )
        assert code == 1
        assert "p pluses and q minuses" in err
    assert not out.exists()


def test_volume_takes_d_from_the_signature(tmp_path, capsys):
    out = tmp_path / "vol4.csv"
    code, _, _ = run(
        capsys, "volume", "--signature", "3,1", "--T-grid", "6,10",
        "--method", "mc", "--samples", "5000", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    want = volume.volume_series(
        volume.context_pq(4, 3, 1), [6.0, 10.0], method="monte-carlo", samples=5000, seed=3
    )
    _, rows = read_csv(out)
    assert [float(r[1]) for r in rows] == pytest.approx(want.values, rel=1e-11)
    assert all(v > 0 for v in want.values)


def test_wavefront_csv_contract(tmp_path, capsys):
    out = tmp_path / "wave.csv"
    code, _, _ = run(
        capsys,
        "wavefront",
        "--signature", "2,1",
        "--c-grid", "0.5",
        "--depth-grid", "1.0",
        "--samples", "4",
        "--seed", "5",
        "--out", str(out),
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == [
        "c", "depth", "ratio_k", "ratio_a", "ratio_h",
        "ratio_coarse_aI", "ratio_coarse_frame", "crossings",
    ]
    assert len(rows) == 1
    man = json.loads((tmp_path / "wave.csv.manifest.json").read_text())
    assert man["seeds"] == {"sweep": 5}


def test_wavefront_rejects_negative_c_or_depth(tmp_path, capsys):
    """A negative, NaN or infinite grid value is one error line, exit 1,
    and no artifact; NaN and inf used to end in an SVD failure."""
    out = tmp_path / "w.csv"
    for grids in (
        ["--c-grid=-0.5", "--depth-grid", "2"], ["--c-grid", "0.5", "--depth-grid=-2"],
        ["--c-grid", "nan", "--depth-grid", "2"], ["--c-grid", "0.5", "--depth-grid", "inf"],
    ):
        code, _, err = run(
            capsys, "wavefront", "--signature", "2,1", *grids, "--samples", "2",
            "--seed", "1", "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error:") and "nonnegative" in err
        assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_wavefront_rejects_no_base_points(tmp_path, capsys, samples):
    """--samples below 1 used to exit 0 with an empty cell."""
    out = tmp_path / "w.csv"
    code, _, err = run(
        capsys, "wavefront", "--signature", "2,1", "--c-grid", "0.5", "--depth-grid", "2",
        "--samples", samples, "--seed", "1", "--out", str(out),
    )
    assert code == 1
    assert err.startswith("error:") and "at least 1" in err and err.count("\n") == 1
    assert not out.exists()


def test_wavefront_requires_seed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "wavefront", "--signature", "2,1", "--c-grid", "0.5",
            "--depth-grid", "1.0", "--out", str(tmp_path / "w.csv"),
        ])
    assert exc.value.code == 2


def test_report_table_and_artifacts(tmp_path, capsys):
    counts, volumes = tmp_path / "c.csv", tmp_path / "v.csv"
    for path, scale in ((counts, 4.0), (volumes, 3.8)):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["T", "value"])
            for t in (2.0, 4.0, 8.0, 16.0):
                w.writerow([t, scale * t**3])
    out_json = tmp_path / "report.json"
    svg = tmp_path / "report.svg"
    code, out, _ = run(
        capsys,
        "report",
        "--counts", str(counts),
        "--volumes", str(volumes),
        "--out", str(out_json),
        "--svg", str(svg),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["series", "tail_slope", "fit_a"]
    assert lines[1].startswith("counts")
    assert lines[2].startswith("volumes")
    assert lines[3].startswith("diff")
    doc = json.loads(out_json.read_text())
    assert doc["difference"]["fit_a"] == pytest.approx(0.0, abs=1e-9)
    assert doc["rows"][0]["tail_slope"] == pytest.approx(3.0, abs=1e-9)
    assert svg.read_text().startswith("<svg")


def test_report_svg_alone_keeps_the_counts_manifest(tmp_path, capsys):
    """Without --out, report anchors its manifest at the svg, so the
    count-sector run's manifest next to the counts stays its own."""
    counts, volumes, svg = tmp_path / "counts.csv", tmp_path / "v.csv", tmp_path / "plot.svg"
    assert run(capsys, "count-sector", "--blocks", "1,1,1", "--signs", "+,+,-",
               "--T-grid", "2,3,4,5", "--out", str(counts))[0] == 0
    with open(volumes, "w", newline="") as fh:
        csv.writer(fh).writerows([["T", "value"]] + [[t, 3.8 * t**3] for t in (2, 3, 4, 5)])
    code, _, _ = run(capsys, "report", "--counts", str(counts), "--volumes", str(volumes),
                     "--svg", str(svg))
    assert code == 0
    kept = json.loads((tmp_path / "counts.csv.manifest.json").read_text())
    assert kept["command"].startswith("qfsectors count-sector ")
    own = json.loads((tmp_path / "plot.svg.manifest.json").read_text())
    assert own["command"].startswith("qfsectors report ")


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _assert_top_level_help(res):
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: qfsectors")
    for name in SUBCOMMANDS:
        assert name in res.stdout


def test_console_script_help():
    # The [project.scripts] entry is checked from the checkout, run the way the
    # installed wrapper runs it, so no installed binary is needed.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("qfsectors") == "qfsectors.cli:main"
    module, func = scripts["qfsectors"].split(":")
    assert callable(getattr(importlib.import_module(module), func))

    env = child_env()
    wrapper = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'qfsectors'; sys.exit({func}())"
    )
    res = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True, text=True, env=env,
    )
    _assert_top_level_help(res)

    res = subprocess.run(
        [sys.executable, "-m", "qfsectors.cli", "predict-exponent",
         "--d", "3", "--blocks", "1,1,1"],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == '{"a":"3","b":1}\n'


@pytest.mark.skipif(
    shutil.which("qfsectors") is None, reason="qfsectors console script not installed"
)
def test_installed_console_script_help():
    res = subprocess.run(
        [shutil.which("qfsectors"), "--help"],
        capture_output=True, text=True, env=child_env(),
    )
    _assert_top_level_help(res)
