"""Spans and counters recorded from outside the package.

Nothing under ``src/`` knows it is being measured. The benchmark swaps
module attributes for thin wrappers while a pass runs and puts the
originals back afterwards. A wrapper either records a span (name, start,
end, parent span, run id) or only counts calls. Spans stay in memory in
flat arrays; per-layer metrics are computed from them when the run ends.

A layer's self time is the duration of its spans minus the time their
child spans cover. Calls are single-threaded and properly nested, so the
children of a span never overlap one another.
"""

from __future__ import annotations

import contextlib
import os
import time
from array import array
from collections import Counter
from typing import Any, Callable

import numpy as np

# Cells whose reconstructed effort is below this are at the analyst's
# floor; it is the effort_floor every workload uses.
EFFORT_FLOOR = 1e-6


class Tracer:
    """Span recorder for one timed pass (one run id)."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``, then its counting hook."""
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        self.start.append(t0)
        try:
            out = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
        hook = HOOKS.get(name)
        if hook is not None:
            hook(self.counts, args, kwargs, out)
        return out

    def count(self, key: str) -> None:
        self.counts[key] += 1

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total duration, total self time)."""
        n = len(self.start)
        if n == 0:
            return {}
        names = np.frombuffer(self.name, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        tot = np.bincount(names, weights=dur, minlength=k)
        slf = np.bincount(names, weights=self_t, minlength=k)
        return {
            nm: (int(calls[i]), float(tot[i]), float(slf[i])) for i, nm in enumerate(self.names)
        }

    def spans(self) -> dict[str, list]:
        """Columnar copy of every span, for writing out."""
        return {
            "name": [self.names[i] for i in self.name],
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "run": list(self.run),
        }


class NullTracer:
    """Stand-in for untraced passes: calls straight through."""

    @staticmethod
    def call(name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)


# Counting hooks run after a span ends, with the call's arguments and result.


def _after_run_study(c: Counter, args, kwargs, ds) -> None:
    c["trips"] += ds.n_trips
    c["trip_steps"] += sum(len(t.tracks[0]) - 1 for t in ds.trips)
    n_enc = len(ds.encounters())
    c["encounters"] += n_enc
    c["truncated_trips"] += ds.n_trips - n_enc


def _tracks_arg(args, kwargs):
    return args[0] if args else kwargs["tracks"]


def _after_path_integral(c: Counter, args, kwargs, out) -> None:
    tracks = _tracks_arg(args, kwargs)
    tracks = [tracks] if hasattr(tracks, "positions") else tracks
    c["positions"] += sum(len(t) for t in tracks)


def _after_overlap(c: Counter, args, kwargs, out) -> None:
    tracks = _tracks_arg(args, kwargs)
    c["sync_steps"] += max((len(t) for t in tracks), default=0)


def _after_trip_grouped(c: Counter, args, kwargs, field) -> None:
    c["effort_cells"] += field.values.size
    c["floor_cells"] += int(np.count_nonzero(field.values < EFFORT_FLOOR))


def _after_fit(c: Counter, args, kwargs, fit) -> None:
    c["fits"] += 1
    c["iterations"] += fit.iterations
    c["converged"] += bool(fit.converged)


def _after_exceedance(c: Counter, args, kwargs, emap) -> None:
    c["draws"] += emap.n_samples


def _after_write(c: Counter, args, kwargs, out) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    c["bytes"] += os.path.getsize(path)


HOOKS: dict[str, Callable] = {
    "encounters.run_study": _after_run_study,
    "effort.path_integral": _after_path_integral,
    "effort.overlap": _after_overlap,
    "effort.trip_grouped": _after_trip_grouped,
    "inference.fit": _after_fit,
    "analysis.exceedance": _after_exceedance,
    "raster_io.csv_write": _after_write,
    "raster_io.asc_write": _after_write,
}


def _span_probes(pkg) -> list[tuple[Any, str, str]]:
    """(owner, attribute, span name) for every wrapped module attribute.

    Attributes are patched where the caller looks them up: ``experiment``
    imported ``run_study`` by name, so its copy is the one replaced.
    """
    ex, enc, eff, mio = pkg.experiment, pkg.encounters, pkg.effort, pkg.model_io
    return [
        (ex, "run_replicate", "experiment.replicate"),
        (ex, "run_study", "encounters.run_study"),
        (ex, "trip_grouped_effort", "effort.trip_grouped"),
        (ex, "fit_mle", "inference.fit"),
        (ex, "predict_intensity", "inference.predict"),
        (ex, "analytic_ud", "movement.analytic_ud"),
        (ex, "normalize_ud", "analysis.normalize_ud"),
        (ex, "mspe", "analysis.mspe"),
        (enc, "step_positions", "movement.step_positions"),
        (enc, "sample_initial", "movement.sample_initial"),
        (eff, "path_integral_effort", "effort.path_integral"),
        (eff, "overlap_corrected_effort", "effort.overlap"),
        (mio, "read_raster_csv", "raster_io.csv_read"),
    ]


def _count_probes(pkg) -> list[tuple[Any, str, str]]:
    return [
        (pkg.inference._Design, "loglik_grad", "grad_evals"),
        (pkg.inference, "cells_of", "cells_of_calls"),
    ]


@contextlib.contextmanager
def patched(owner: Any, attr: str, make: Callable[[Callable], Callable]):
    """Replace ``owner.attr`` by ``make(original)`` for the block's duration."""
    orig = getattr(owner, attr)
    setattr(owner, attr, make(orig))
    try:
        yield
    finally:
        setattr(owner, attr, orig)


def instrumented(pkg, tracer: Tracer) -> contextlib.ExitStack:
    """Install every span and count probe; close the stack to remove them."""
    stack = contextlib.ExitStack()
    for owner, attr, name in _span_probes(pkg):

        def make(orig, name=name):
            def span_wrapper(*args, **kwargs):
                return tracer.call(name, orig, *args, **kwargs)

            return span_wrapper

        stack.enter_context(patched(owner, attr, make))
    for owner, attr, key in _count_probes(pkg):

        def make(orig, key=key):
            def count_wrapper(*args, **kwargs):
                tracer.count(key)
                return orig(*args, **kwargs)

            return count_wrapper

        stack.enter_context(patched(owner, attr, make))
    return stack


# Per-layer metrics: name -> unit. Every traced run reports all of them;
# a layer that does not run on a workload reports 0.
LAYER_METRICS: dict[str, str] = {
    "encounters.run_study_s": "s",
    "encounters.self_s": "s",
    "encounters.trips": "count",
    "encounters.trip_steps": "count",
    "encounters.trip_steps_per_s": "1/s",
    "encounters.encounters": "count",
    "encounters.truncated_trips": "count",
    "movement.step_positions_calls": "count",
    "movement.step_positions_s": "s",
    "movement.sample_initial_s": "s",
    "movement.analytic_ud_s": "s",
    "movement.self_s": "s",
    "effort.path_integral_s": "s",
    "effort.positions": "count",
    "effort.positions_per_s": "1/s",
    "effort.overlap_s": "s",
    "effort.sync_steps": "count",
    "effort.sync_steps_per_s": "1/s",
    "effort.floor_cells_frac": "fraction",
    "effort.self_s": "s",
    "inference.fit_s": "s",
    "inference.fits": "count",
    "inference.iterations": "count",
    "inference.grad_evals": "count",
    "inference.converged_frac": "fraction",
    "inference.predict_s": "s",
    "inference.self_s": "s",
    "analysis.exceedance_s": "s",
    "analysis.draws": "count",
    "analysis.draws_per_s": "1/s",
    "analysis.normalize_mspe_s": "s",
    "analysis.self_s": "s",
    "raster_io.csv_write_s": "s",
    "raster_io.csv_read_s": "s",
    "raster_io.asc_write_s": "s",
    "raster_io.bytes": "bytes",
    "raster_io.self_s": "s",
    "model_io.read_model_spec_s": "s",
    "model_io.fit_json_s": "s",
    "model_io.self_s": "s",
    "geometry.cells_of_calls": "count",
    "experiment.replicate_s": "s",
    "experiment.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
}


def _rate(num: float, secs: float) -> float:
    return num / secs if secs > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.* is filled in by the caller)."""
    tot = tracer.layer_totals()
    c = tracer.counts

    def dur(name: str) -> float:
        return tot.get(name, (0, 0.0, 0.0))[1]

    def calls(name: str) -> int:
        return tot.get(name, (0, 0.0, 0.0))[0]

    def self_of(layer: str) -> float:
        return sum(v[2] for k, v in tot.items() if k.split(".", 1)[0] == layer)

    m = {
        "encounters.run_study_s": dur("encounters.run_study"),
        "encounters.self_s": self_of("encounters"),
        "encounters.trips": c["trips"],
        "encounters.trip_steps": c["trip_steps"],
        "encounters.trip_steps_per_s": _rate(c["trip_steps"], dur("encounters.run_study")),
        "encounters.encounters": c["encounters"],
        "encounters.truncated_trips": c["truncated_trips"],
        "movement.step_positions_calls": calls("movement.step_positions"),
        "movement.step_positions_s": dur("movement.step_positions"),
        "movement.sample_initial_s": dur("movement.sample_initial"),
        "movement.analytic_ud_s": dur("movement.analytic_ud"),
        "movement.self_s": self_of("movement"),
        "effort.path_integral_s": dur("effort.path_integral"),
        "effort.positions": c["positions"],
        "effort.positions_per_s": _rate(c["positions"], dur("effort.path_integral")),
        "effort.overlap_s": dur("effort.overlap"),
        "effort.sync_steps": c["sync_steps"],
        "effort.sync_steps_per_s": _rate(c["sync_steps"], dur("effort.overlap")),
        "effort.floor_cells_frac": c["floor_cells"] / c["effort_cells"] if c["effort_cells"] else 0.0,
        "effort.self_s": self_of("effort"),
        "inference.fit_s": dur("inference.fit"),
        "inference.fits": c["fits"],
        "inference.iterations": c["iterations"],
        "inference.grad_evals": c["grad_evals"],
        "inference.converged_frac": c["converged"] / c["fits"] if c["fits"] else 0.0,
        "inference.predict_s": dur("inference.predict"),
        "inference.self_s": self_of("inference"),
        "analysis.exceedance_s": dur("analysis.exceedance"),
        "analysis.draws": c["draws"],
        "analysis.draws_per_s": _rate(c["draws"], dur("analysis.exceedance")),
        "analysis.normalize_mspe_s": dur("analysis.normalize_ud") + dur("analysis.mspe"),
        "analysis.self_s": self_of("analysis"),
        "raster_io.csv_write_s": dur("raster_io.csv_write"),
        "raster_io.csv_read_s": dur("raster_io.csv_read"),
        "raster_io.asc_write_s": dur("raster_io.asc_write"),
        "raster_io.bytes": c["bytes"],
        "raster_io.self_s": self_of("raster_io"),
        "model_io.read_model_spec_s": dur("model_io.read_model_spec"),
        "model_io.fit_json_s": dur("model_io.fit_json"),
        "model_io.self_s": self_of("model_io"),
        "geometry.cells_of_calls": c["cells_of_calls"],
        "experiment.replicate_s": dur("experiment.replicate"),
        "experiment.self_s": self_of("experiment"),
    }
    return {k: float(v) for k, v in m.items()}
