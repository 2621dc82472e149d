"""Span tracing around the package's layer calls, installed from outside.

``Tracer.install`` replaces each traced callable with a wrapper that records
a span: name, start, end, parent span, sweep id and a size (oracle cells,
bytes written, CSV rows). Functions are replaced in every ``omegance`` module
that imported them by name, methods on their class. Parents come from a
per-thread stack; a call made on a worker thread with an empty stack belongs
to the open sweep span. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import threading
import time
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    sweep: int
    size: int


def _cells(args, kwargs) -> int:
    return args[1].size  # (self, z, ...)


def _file_bytes(args, kwargs) -> int:
    return os.path.getsize(args[0])


def _csv_rows(args, kwargs) -> int:
    return len(args[2] if len(args) > 2 else kwargs["rows"])


# (span name, module, attribute, size of one call)
LAYERS = (
    ("oracles", "omegance.oracles", "GaussianMixture.epsilon_predict", _cells),
    ("oracles", "omegance.oracles", "GaussianMixture.velocity_predict", _cells),
    ("samplers.step", "omegance.samplers", "ddim_step", None),
    ("samplers.step", "omegance.samplers", "euler_step", None),
    ("samplers.step", "omegance.samplers", "flow_step", None),
    ("samplers.run_sampler", "omegance.samplers", "run_sampler", None),
    ("omega.resolve_field", "omegance.omega", "OmegaControl.resolve_field", None),
    ("analysis.radial_spectrum", "omegance.analysis", "radial_spectrum", None),
    ("analysis.band_energy", "omegance.analysis", "band_energy", None),
    ("formats.write_snapshot", "omegance.formats", "write_snapshot", _file_bytes),
    ("formats.write_csv", "omegance.formats", "write_csv", _csv_rows),
    ("config.load_config", "omegance.config", "load_config", None),
    ("schedules.make_schedule", "omegance.config", "ExperimentConfig.make_schedule", None),
)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []  # None while a span is open
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._sweep_span: int | None = None
        self._sweep = -1

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self) -> tuple[int, int | None]:
        stack = self._stack()
        parent = stack[-1] if stack else self._sweep_span
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append(index)
        return index, parent

    def _close(self, index: int, name: str, start: float, parent, size: int) -> None:
        self._stack().pop()
        self.spans[index] = Span(name, start, time.perf_counter(), parent, self._sweep, size)

    def wrap(self, name: str, fn, size=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(index, name, start, parent, 0)
                raise
            tracer._close(index, name, start, parent, size(args, kwargs) if size else 0)
            return result

        return traced

    def sweep(self, sweep_id: int, fn):
        """Run fn() inside a ``cli.sweep`` span; calls inside it carry sweep_id."""
        self._sweep = sweep_id
        index, _ = self._open()
        self._sweep_span = index
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(index, "cli.sweep", start, None, 0)
            self._sweep_span = None

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        packages = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "omegance"]
        for name, module, attr, size in LAYERS:
            owner = sys.modules[module]
            *classes, leaf = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, leaf)
            wrapped = self.wrap(name, original, size)
            if classes:
                self._patch(owner, leaf, wrapped)
                continue
            for mod in packages:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        cli = sys.modules["omegance.cli"]
        run_cells = cli._run_cells

        def traced_run_cells(config, schedule, threads, cell_fn):
            return run_cells(config, schedule, threads, self.wrap("cli.cell", cell_fn))

        self._patch(cli, "_run_cells", traced_run_cells)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **span._asdict()}) + "\n")

    def per_sweep(self, threads: int) -> dict[int, dict[str, float]]:
        """Layer totals of every traced sweep, keyed by sweep id."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)

        def self_time(index: int, span: Span) -> float:
            kids = [(c.start, c.end) for c in children.get(index, ())]
            return (span.end - span.start) - union_length(kids, span.start, span.end)

        sweeps: dict[int, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            totals = sweeps.setdefault(span.sweep, {})
            duration = span.end - span.start
            totals[f"{span.name}.calls"] = totals.get(f"{span.name}.calls", 0) + 1
            totals[f"{span.name}.busy_s"] = totals.get(f"{span.name}.busy_s", 0.0) + duration
            totals[f"{span.name}.size"] = totals.get(f"{span.name}.size", 0) + span.size
            if span.name in ("cli.sweep", "samplers.run_sampler"):
                totals[f"{span.name}.self_s"] = totals.get(f"{span.name}.self_s", 0.0) + self_time(index, span)
        for totals in sweeps.values():
            totals["thread_busy_ratio"] = totals["cli.cell.busy_s"] / (threads * totals["cli.sweep.busy_s"])
        return sweeps


def layer_metrics(sweeps: dict[int, dict[str, float]]) -> dict[str, tuple[float, str]]:
    """Per-sweep medians of the layer totals, as metric name -> (value, unit)."""

    def med(key: str) -> float:
        return statistics.median(s.get(key, 0) for s in sweeps.values())

    oracle_cells = med("oracles.size")
    return {
        "oracles.calls": (med("oracles.calls"), "count"),
        "oracles.busy_s": (med("oracles.busy_s"), "s"),
        "oracles.ns_per_cell": (med("oracles.busy_s") * 1e9 / oracle_cells if oracle_cells else 0.0, "ns"),
        "samplers.step.calls": (med("samplers.step.calls"), "count"),
        "samplers.step.busy_s": (med("samplers.step.busy_s"), "s"),
        "samplers.run_sampler.calls": (med("samplers.run_sampler.calls"), "count"),
        "samplers.run_sampler.self_s": (med("samplers.run_sampler.self_s"), "s"),
        "omega.resolve_field.calls": (med("omega.resolve_field.calls"), "count"),
        "omega.resolve_field.busy_s": (med("omega.resolve_field.busy_s"), "s"),
        "analysis.radial_spectrum.calls": (med("analysis.radial_spectrum.calls"), "count"),
        "analysis.radial_spectrum.busy_s": (med("analysis.radial_spectrum.busy_s"), "s"),
        "analysis.band_energy.busy_s": (med("analysis.band_energy.busy_s"), "s"),
        "formats.write_snapshot.calls": (med("formats.write_snapshot.calls"), "count"),
        "formats.write_snapshot.busy_s": (med("formats.write_snapshot.busy_s"), "s"),
        "formats.snapshot_bytes": (med("formats.write_snapshot.size"), "bytes"),
        "formats.write_csv.calls": (med("formats.write_csv.calls"), "count"),
        "formats.write_csv.busy_s": (med("formats.write_csv.busy_s"), "s"),
        "formats.csv_rows": (med("formats.write_csv.size"), "count"),
        "cli.sweep_s": (med("cli.sweep.busy_s"), "s"),
        "cli.sweep_self_s": (med("cli.sweep.self_s"), "s"),
        "cli.thread_busy_ratio": (med("thread_busy_ratio"), "ratio"),
        "config.load_config.busy_s": (med("config.load_config.busy_s"), "s"),
        "schedules.make_schedule.busy_s": (med("schedules.make_schedule.busy_s"), "s"),
    }
