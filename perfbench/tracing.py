"""Layer tracing from outside the program.

The tracer wraps public functions of the package's modules at run time (it
edits no file of the package): a wrapped call records a span, and a few
calls only bump a counter because they are too frequent and too short to
time one by one.  Spans are kept in memory and written out when the run ends.

Each span records name, start, end, parent and item id.  A span's self time
is its duration minus the time its child spans cover; calls run in one
thread, so children never overlap each other.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    item: int
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    item: int = 0
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(self.item, name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    def self_time(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"item": s.item, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent}) + "\n")


def _spanned(tracer: Tracer, name: str, fn, on_return=None, on_error=None):
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(tracer.counts, exc)
            raise
        finally:
            tracer.close(index)
        if on_return is not None:
            on_return(tracer.counts, args, result)
        return result
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


# --- per-call bookkeeping -------------------------------------------------------

def _chart_done(counts, _args, chart):
    counts["riccati.calls"] += 1
    counts["riccati.steps"] += len(chart.grid) - 1
    counts["riccati.halted"] += bool(chart.halted)


def _chart_blown(counts, exc):
    partial = getattr(exc, "partial", None)
    if partial is not None:   # a factorization singularity still ends a chart
        counts["riccati.calls"] += 1
        counts["riccati.steps"] += len(partial.grid) - 1
        counts["riccati.singularities"] += 1


def _run_done(counts, _args, traj):
    counts["propagator.samples"] += len(traj.grid)


def _build_done(counts, args, _traj):
    counts["observables.samples"] += len(args[0])


def _ivp_done(counts, _args, sol):
    counts["oracle.nfev"] += int(sol.nfev)


def _csv_done(counts, args, _result):
    counts["cli.rows"] += len(args[1].grid)
    counts["cli.bytes_written"] += Path(args[0]).stat().st_size


def _svg_done(counts, _args, written):
    counts["cli.bytes_written"] += sum(Path(p).stat().st_size for p in written)


# (module, attribute, span name or None for count-only, on_return, on_error)
WRAPS = (
    ("riccati", "mu_rhs", None, None, None),
    ("propagator", "solve_mu", "riccati.solve_mu", _chart_done, _chart_blown),
    ("propagator", "chart_matrix", None, None, None),
    ("propagator", "run", "propagator.run", _run_done, None),
    ("propagator", "trajectory_from_etas", "observables.build", _build_done, None),
    ("propagator", "trajectory_from_rhos", "observables.build", _build_done, None),
    ("oracle", "trajectory_from_etas", "observables.build", _build_done, None),
    ("oracle", "trajectory_from_rhos", "observables.build", _build_done, None),
    ("oracle", "solve_ivp", "oracle.solve_ivp", _ivp_done, None),
    ("cli", "write_csv", "cli.write_csv", _csv_done, None),
    ("cli", "write_svg_panels", "cli.write_svg_panels", _svg_done, None),
    ("cli", "load_run_spec", "config.load", None, None),
    ("fields", "preset", "config.load", None, None),
)

# Counter names of the count-only wraps.
_COUNT_NAMES = {("riccati", "mu_rhs"): "riccati.rhs_evals",
                ("propagator", "chart_matrix"): "propagator.chart_matrix_calls"}

# Metric -> the wraps it is derived from; a metric whose wrap is missing in
# the program under test is reported absent.
_NEEDS = {
    "riccati": {("propagator", "solve_mu")},
    "riccati.rhs": {("propagator", "solve_mu"), ("riccati", "mu_rhs")},
    "propagator": {("propagator", "run"), ("propagator", "solve_mu"),
                   ("propagator", "trajectory_from_etas")},
    "propagator.chart_matrix_calls": {("propagator", "chart_matrix")},
    "observables": {("propagator", "trajectory_from_etas"), ("oracle", "trajectory_from_etas")},
    "oracle": {("oracle", "solve_ivp")},
    "cli": {("cli", "write_csv"), ("cli", "write_svg_panels")},
    "config": {("cli", "load_run_spec"), ("fields", "preset")},
}


class Instrumentation:
    """Installs the wraps on the package modules and removes them again."""

    def __init__(self, modules: dict, tracer: Tracer):
        self.modules = modules
        self.tracer = tracer
        self.missing = {(m, a) for m, a, *_ in WRAPS
                        if m not in modules or not hasattr(modules[m], a)}
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for mod_name, attr, span, on_return, on_error in WRAPS:
            if (mod_name, attr) in self.missing:
                continue
            mod = self.modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            if span is None:
                wrapped = _counted(self.tracer, _COUNT_NAMES[(mod_name, attr)], fn)
            else:
                wrapped = _spanned(self.tracer, span, fn, on_return, on_error)
            setattr(mod, attr, wrapped)
        return self

    def __exit__(self, *_exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, missing: set) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) of one traced pass; layers whose wraps are gone are left out."""
    c = tracer.counts
    busy = tracer.self_time("riccati.solve_mu")
    csv_s = tracer.self_time("cli.write_csv")
    svg_s = tracer.self_time("cli.write_svg_panels")
    prop_s = tracer.self_time("propagator.run")
    build_s = tracer.self_time("observables.build")
    ivp_s = tracer.self_time("oracle.solve_ivp")
    groups = {
        "riccati": {
            "riccati.busy_s": (busy, "s"),
            "riccati.calls": (c["riccati.calls"], "count"),
            "riccati.steps": (c["riccati.steps"], "count"),
            "riccati.singularities": (c["riccati.singularities"], "count"),
            "riccati.halted": (c["riccati.halted"], "count"),
        },
        "riccati.rhs": {
            "riccati.rhs_evals": (c["riccati.rhs_evals"], "count"),
            "riccati.us_per_rhs": (_ratio(busy, c["riccati.rhs_evals"], 1e6), "us"),
            "riccati.rhs_per_step": (_ratio(c["riccati.rhs_evals"], c["riccati.steps"]), "ratio"),
        },
        "propagator": {
            "propagator.self_s": (prop_s, "s"),
            "propagator.us_per_sample": (_ratio(prop_s, c["propagator.samples"], 1e6), "us"),
        },
        "propagator.chart_matrix_calls": {
            "propagator.chart_matrix_calls": (c["propagator.chart_matrix_calls"], "count"),
        },
        "observables": {
            "observables.build_s": (build_s, "s"),
            "observables.us_per_sample": (_ratio(build_s, c["observables.samples"], 1e6), "us"),
        },
        "oracle": {
            "oracle.integrate_s": (ivp_s, "s"),
            "oracle.nfev": (c["oracle.nfev"], "count"),
            "oracle.us_per_rhs": (_ratio(ivp_s, c["oracle.nfev"], 1e6), "us"),
        },
        "cli": {
            "cli.csv_s": (csv_s, "s"),
            "cli.svg_s": (svg_s, "s"),
            "cli.bytes_written": (c["cli.bytes_written"], "B"),
            "cli.us_per_row": (_ratio(csv_s + svg_s, c["cli.rows"], 1e6), "us"),
        },
        "config": {
            "config.busy_s": (tracer.self_time("config.load"), "s"),
        },
    }
    out: dict[str, tuple[float, str]] = {}
    for group, metrics in groups.items():
        if not (_NEEDS[group] & missing):
            out.update(metrics)
    return out


def layer_self_sum(tracer: Tracer) -> float:
    """Self time of the layer spans (all but the per-item roots); it cannot
    exceed the traced wall time unless spans were recorded wrongly."""
    return sum(s.self_s for s in tracer.spans if s.name != "item")
