"""Spans around the program's layer boundaries, recorded from outside it.

Tracer.install() replaces each traced function under the name its
caller looks it up by (a module global, or an attribute of the module
the caller imported), so the program runs unchanged but every call
through that name opens a span.  A span is (name, start, end, parent,
run): parent is the index of the enclosing span or -1, and run is the
label the benchmark set before the call ("setup", "round-1", ...).
Spans stay in memory until write() is called at the end of a run.

Hot, cheap calls (DensityContext.blocks, log_coords and derive_rng)
only bump a counter, so tracing does not multiply their cost.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import types
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.run = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.run])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def add(self, name: str, n: int = 1) -> None:
        self.counts[(self.run, name)] += n

    def wrap(self, name: str, fn, on_result=None):
        """fn under a span; on_result(tracer, result) records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn, on_item=None):
        """A generator function whose every next() is one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.add(name + ".calls")
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                if on_item is not None:
                    on_item(self, item)
                yield item

        return traced

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------ patching

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        from qfsectors import cartan, cli, enumeration, sampling, sector, volume, wavefront

        def batch_rows(tr, item):
            tr.add("enumeration.forms", int(item[0].shape[0]))

        iter_batches = self.wrap_generator(
            "enumeration.iter_form_batches", enumeration.iter_form_batches, batch_rows
        )
        self.patch(enumeration, "iter_form_batches", iter_batches)

        def eig_rows(tr, result):
            tr.add("jacobi.eigvals_batch_rows", int(result.shape[0]))

        self.patch(sector, "sym3_eigvals_batch",
                   self.wrap("sector.sym3_eigvals_batch", sector.sym3_eigvals_batch, eig_rows))
        self.patch(sector, "jacobi_eigh", self.wrap("sector.jacobi_eigh", sector.jacobi_eigh))
        self.patch(sector, "sector_membership",
                   self.wrap("sector.sector_membership", sector.sector_membership))

        def verdicts(tr, result):
            member, degenerate = result
            tr.add("sector.forms_classified", int(member.shape[0]))
            tr.add("sector.members", int(member.sum()))
            tr.add("sector.degenerate", int(degenerate.sum()))

        classify = self.wrap("sector._classify_batch", sector._classify_batch, verdicts)
        self.patch(sector, "_classify_batch", classify)
        self.patch(volume, "_classify_batch", classify)
        self.patch(sector, "count_sector", self.wrap("sector.count_sector", sector.count_sector))

        kah = self.wrap("cartan.kah_decompose", cartan.kah_decompose)
        self.patch(cartan, "kah_decompose", kah)
        self.patch(wavefront, "kah_decompose", kah)
        self.patch(cartan, "reconstruct", self.wrap("cartan.reconstruct", cartan.reconstruct))

        def probed(tr, report):
            tr.add("wavefront.directions", report.samples)
            tr.add("wavefront.crossings", report.crossings)

        self.patch(wavefront, "fine_probe",
                   self.wrap("wavefront.fine_probe", wavefront.fine_probe, probed))
        self.patch(wavefront, "coarse_probe",
                   self.wrap("wavefront.coarse_probe", wavefront.coarse_probe))
        self.patch(wavefront, "group_distance",
                   self.wrap("wavefront.group_distance", wavefront.group_distance))
        self.patch(wavefront, "lipschitz_sweep",
                   self.wrap("wavefront.lipschitz_sweep", wavefront.lipschitz_sweep))
        # wavefront reaches logm and expm as scipy.linalg.<name>; give it a
        # scipy whose linalg traces those two and forwards everything else
        real_linalg = wavefront.scipy.linalg
        linalg = types.SimpleNamespace(
            logm=self.wrap("scipy.linalg.logm", real_linalg.logm),
            expm=self.wrap("scipy.linalg.expm", real_linalg.expm),
            subspace_angles=real_linalg.subspace_angles,
        )
        self.patch(wavefront, "scipy", types.SimpleNamespace(linalg=linalg))

        rotation = self.wrap("sampling.random_rotation", sampling.random_rotation)
        self.patch(sampling, "random_rotation", rotation)
        self.patch(volume, "random_rotation", rotation)
        derive = self.counter("sampling.derive_rng_calls", sampling.derive_rng)
        self.patch(sampling, "derive_rng", derive)
        self.patch(volume, "derive_rng", derive)

        ctx = volume.DensityContext
        self.patch(ctx, "blocks", property(self.counter("volume.blocks_builds", ctx.blocks.fget)))
        self.patch(ctx, "log_coords", self.counter("volume.log_coords_calls", ctx.log_coords))
        self.patch(volume, "_nested_quadrature",
                   self.wrap("volume._nested_quadrature", volume._nested_quadrature))
        self.patch(volume, "_mc_series", self.wrap("volume._mc_series", volume._mc_series))
        self.patch(volume, "wellroundedness_ratio",
                   self.wrap("volume.wellroundedness_ratio", volume.wellroundedness_ratio))

        self.patch(cli, "main", self.wrap("cli.main", cli.main))

    # ------------------------------------------------------------- output

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class RunTotals:
    """Per-name totals of the spans and counters of one run label."""

    def __init__(self, tracer: Tracer, run: str) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_total: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        child_time: dict[int, float] = defaultdict(float)
        mine = [i for i, s in enumerate(tracer.spans) if s[4] == run]
        for i in mine:
            name, start, end, parent, _ = tracer.spans[i]
            child_time[parent] += end - start
        for i in mine:
            name, start, end, _, _ = tracer.spans[i]
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_total[name] += end - start - child_time[i]
            self.durations[name].append(end - start)
        self.counts = {k[1]: v for k, v in tracer.counts.items() if k[0] == run}

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile_us(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e6
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1] * 1e6


_WAVEFRONT_OWN = (
    "wavefront.lipschitz_sweep",
    "wavefront.fine_probe",
    "wavefront.coarse_probe",
    "wavefront.group_distance",
)

# name -> (unit, the span or counter names it reads, value from RunTotals)
LAYER_METRICS = {
    "enumeration.scans": ("count", ["enumeration.iter_form_batches.calls"],
                          lambda r: r.count("enumeration.iter_form_batches.calls")),
    "enumeration.batches": ("count", ["enumeration.iter_form_batches"],
                            lambda r: r.calls["enumeration.iter_form_batches"]),
    "enumeration.forms": ("count", ["enumeration.forms"], lambda r: r.count("enumeration.forms")),
    "enumeration.busy_s": ("s", ["enumeration.iter_form_batches"],
                           lambda r: r.total["enumeration.iter_form_batches"]),
    "enumeration.forms_per_busy_s": (
        "forms/s", ["enumeration.iter_form_batches"],
        lambda r: _ratio(r.count("enumeration.forms"), r.total["enumeration.iter_form_batches"])),
    "jacobi.eigvals_batch_rows": ("count", ["jacobi.eigvals_batch_rows"],
                                  lambda r: r.count("jacobi.eigvals_batch_rows")),
    "jacobi.eigvals_batch_s": ("s", ["sector.sym3_eigvals_batch"],
                               lambda r: r.total["sector.sym3_eigvals_batch"]),
    "jacobi.eigh_calls": ("count", ["sector.jacobi_eigh"], lambda r: r.calls["sector.jacobi_eigh"]),
    "jacobi.eigh_s": ("s", ["sector.jacobi_eigh"], lambda r: r.total["sector.jacobi_eigh"]),
    "jacobi.eigh_per_classified_form": (
        "ratio", ["sector.jacobi_eigh", "sector.forms_classified"],
        lambda r: _ratio(r.calls["sector.jacobi_eigh"], r.count("sector.forms_classified"))),
    "sector.forms_classified": ("count", ["sector.forms_classified"],
                                lambda r: r.count("sector.forms_classified")),
    "sector.members": ("count", ["sector.forms_classified"], lambda r: r.count("sector.members")),
    "sector.degenerate": ("count", ["sector.forms_classified"],
                          lambda r: r.count("sector.degenerate")),
    "sector.count_sector_s": ("s", ["sector.count_sector"], lambda r: r.total["sector.count_sector"]),
    "sector.classify_self_s": ("s", ["sector._classify_batch"],
                               lambda r: r.self_total["sector._classify_batch"]),
    "sector.membership_calls": ("count", ["sector.sector_membership"],
                                lambda r: r.calls["sector.sector_membership"]),
    "sector.membership_s": ("s", ["sector.sector_membership"],
                            lambda r: r.total["sector.sector_membership"]),
    "cartan.kah_calls": ("count", ["cartan.kah_decompose"], lambda r: r.calls["cartan.kah_decompose"]),
    "cartan.kah_s": ("s", ["cartan.kah_decompose"], lambda r: r.total["cartan.kah_decompose"]),
    "cartan.kah_median_us": ("us", ["cartan.kah_decompose"],
                             lambda r: _quantile_us(r.durations["cartan.kah_decompose"], 0.5)),
    "cartan.kah_p99_us": ("us", ["cartan.kah_decompose"],
                          lambda r: _quantile_us(r.durations["cartan.kah_decompose"], 0.99)),
    "cartan.reconstruct_s": ("s", ["cartan.reconstruct"], lambda r: r.total["cartan.reconstruct"]),
    "wavefront.fine_probe_s": ("s", ["wavefront.fine_probe"], lambda r: r.total["wavefront.fine_probe"]),
    "wavefront.coarse_probe_s": ("s", ["wavefront.coarse_probe"],
                                 lambda r: r.total["wavefront.coarse_probe"]),
    "wavefront.self_s": ("s", list(_WAVEFRONT_OWN),
                         lambda r: sum(r.self_total[n] for n in _WAVEFRONT_OWN)),
    "wavefront.group_distance_calls": ("count", ["wavefront.group_distance"],
                                       lambda r: r.calls["wavefront.group_distance"]),
    "wavefront.group_distance_s": ("s", ["wavefront.group_distance"],
                                   lambda r: r.total["wavefront.group_distance"]),
    "wavefront.logm_calls": ("count", ["scipy.linalg.logm"], lambda r: r.calls["scipy.linalg.logm"]),
    "wavefront.logm_s": ("s", ["scipy.linalg.logm"], lambda r: r.total["scipy.linalg.logm"]),
    "wavefront.expm_calls": ("count", ["scipy.linalg.expm"], lambda r: r.calls["scipy.linalg.expm"]),
    "wavefront.expm_s": ("s", ["scipy.linalg.expm"], lambda r: r.total["scipy.linalg.expm"]),
    "wavefront.directions": ("count", ["wavefront.directions"],
                             lambda r: r.count("wavefront.directions")),
    "wavefront.crossings": ("count", ["wavefront.directions"],
                            lambda r: r.count("wavefront.crossings")),
    "wavefront.kept_per_direction": (
        "ratio", ["wavefront.directions"],
        lambda r: _ratio(r.count("wavefront.directions") - r.count("wavefront.crossings"),
                         r.count("wavefront.directions"))),
    "sampling.random_rotation_calls": ("count", ["sampling.random_rotation"],
                                       lambda r: r.calls["sampling.random_rotation"]),
    "sampling.random_rotation_s": ("s", ["sampling.random_rotation"],
                                   lambda r: r.total["sampling.random_rotation"]),
    "sampling.derive_rng_calls": ("count", ["sampling.derive_rng_calls"],
                                  lambda r: r.count("sampling.derive_rng_calls")),
    "volume.quadrature_s": ("s", ["volume._nested_quadrature"],
                            lambda r: r.total["volume._nested_quadrature"]),
    "volume.blocks_builds": ("count", ["volume.blocks_builds"],
                             lambda r: r.count("volume.blocks_builds")),
    "volume.log_coords_calls": ("count", ["volume.log_coords_calls"],
                                lambda r: r.count("volume.log_coords_calls")),
    "volume.mc_s": ("s", ["volume._mc_series"], lambda r: r.total["volume._mc_series"]),
    "volume.wellrounded_s": ("s", ["volume.wellroundedness_ratio"],
                             lambda r: r.total["volume.wellroundedness_ratio"]),
    "cli.main_s": ("s", ["cli.main"], lambda r: r.total["cli.main"]),
    "cli.self_s": ("s", ["cli.main"], lambda r: r.self_total["cli.main"]),
    "cli.bytes_written": ("bytes", ["cli.bytes_written"], lambda r: r.count("cli.bytes_written")),
}


def _seen(totals: RunTotals, sources: list[str]) -> bool:
    return any(totals.calls.get(s) or totals.counts.get(s) for s in sources)


def layer_metrics(tracer: Tracer, rounds: list[str]) -> dict[str, dict]:
    """Median per round of every layer metric (the lower middle value,
    so each figure is one round's measurement).

    A layer that no round reaches reports its set-up warm-up call
    instead, so its figures show that call's cost rather than a zero.
    """
    per_round = [RunTotals(tracer, r) for r in rounds]
    setup = RunTotals(tracer, "setup")
    out = {}
    for name, (unit, sources, value) in LAYER_METRICS.items():
        if any(_seen(t, sources) for t in per_round):
            v = statistics.median_low(value(t) for t in per_round)
        else:
            v = value(setup)
        out[name] = {"value": v, "unit": unit}
    return out
