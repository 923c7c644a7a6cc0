"""Benchmark of the trilevel package: one command, one workload per run.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

Runs the workload's items in-process through ``trilevel.cli.main``, one
after another (a closed loop with one client), with BLAS limited to one
thread.  Every item's CSV output is checked against a tight reference.
Passes over the whole item set repeat until ``--seconds`` is used up; every
item runs at least twice, and at least MIN_ITEM_RUNS items are timed.

The machine this was tuned on is shared: other tenants slowed it by up to
1.9x for seconds to minutes at a time.  So a fixed speed probe runs between
items, and ``wall_s``/``item_s_p50`` report each item's time at the probe's
reference speed, the mean over passes of ``t * PROBE_REF_S / probe``; the
unscaled time is printed alongside.

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0``: end-to-end metrics (``setup_s``, ``wall_s``, ``item_s_p50``,
  ``max_err``, ``peak_rss_mb``);
* ``--trace 1``: per-layer metrics from traced passes, which alternate with
  untraced ones so that the tracing overhead is measured in the same run.

``setup_s`` is the median over SETUP_SAMPLES fresh interpreters, run between
items and spread over the run, of ``import trilevel`` plus the first
preset-table parse, each scaled to the reference speed by a fixed
interpreter workload timed around it in the same interpreter
(``t * SETUP_REF_S / ref``): the numpy speed probe does not follow import
time, this reference does.

Run from the root of a checkout; the package is imported from ``src/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: Fresh interpreters timed for setup_s per run.
SETUP_SAMPLES = 7

#: The setup reference workload's time on the machine the benchmark was tuned
#: on (see PROBE_REF_S): the 10th percentile of 50 readings, which ranged
#: 0.068-0.11 s as other tenants loaded the host, while the import time they
#: bracketed moved with them (correlation 0.93).
SETUP_REF_S = 0.070

#: Every item runs at least twice, and a run times at least this many items,
#: so that item_s_p50 is a median of enough scaled samples (long-horizon, with
#: four items of 1.4-3.5 s, makes four passes).
MIN_ITEM_RUNS = 16

# Timed in a fresh interpreter, given src/ as its argument: importing the
# package and the first parse of the preset table, bracketed by a fixed
# interpreter workload (compiling, unmarshalling and running class bodies,
# as an import does) that does not touch the package.  Prints both times, or
# exits 3 if the package is not the one under src/.
_SETUP_PROBE = """
import gc, marshal, sys, time
from pathlib import Path
src = sys.argv[1]
sys.path.insert(0, src)
REF_SOURCE = "".join(
    "class C%d:\\n    def f(self, x):\\n        return {'a': x, 'b': [x] * 3}\\n    y = %d\\n"
    % (i, i) for i in range(200))

def reference():
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(6):
        exec(marshal.loads(marshal.dumps(compile(REF_SOURCE, "ref", "exec"))), {})
    elapsed = time.perf_counter() - t0
    gc.enable()
    gc.collect()
    return elapsed

before = reference()
t0 = time.perf_counter()
import trilevel
trilevel.preset_names()
elapsed = time.perf_counter() - t0
after = reference()
if not Path(trilevel.__file__).resolve().is_relative_to(Path(src)):
    sys.exit(3)
print(repr(elapsed), repr((before + after) / 2))
"""


def import_package():
    """The package modules from this checkout's src/ (never an installed copy)."""
    sys.path.insert(0, str(SRC))
    try:
        import trilevel
        from trilevel import cli, fields, oracle, propagator, riccati
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import trilevel from {SRC}: {exc}")
    if not Path(trilevel.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: trilevel was imported from {trilevel.__file__}, not from {SRC}")
    return {"cli": cli, "fields": fields, "oracle": oracle,
            "propagator": propagator, "riccati": riccati}


def setup_probe() -> tuple[float, float]:
    """Seconds for ``import trilevel`` plus the first preset-table parse in a
    fresh interpreter, and the mean seconds of the reference workload timed
    just before and after it in the same interpreter."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        sys.exit(f"perfbench: setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
    setup_s, ref_s = map(float, proc.stdout.split())
    return setup_s, ref_s


class SetupSampler:
    """Called after every item; times a fresh interpreter after every
    ``stride``-th one until SETUP_SAMPLES are taken.  The benchmark has
    imported the package already, so its files are in the file cache."""

    def __init__(self, stride: int):
        self.stride = stride
        self.items = 0
        self.samples: list[tuple[float, float]] = []  # (unscaled, scaled) seconds

    def __call__(self):
        self.items += 1
        if self.items % self.stride == 0 and len(self.samples) < SETUP_SAMPLES:
            setup_s, ref_s = setup_probe()
            self.samples.append((setup_s, setup_s * SETUP_REF_S / ref_s))


#: The speed probe's time on an idle core of the machine the benchmark was
#: tuned on (Python 3.11, numpy 2.4, 2 vCPUs at 2.0 GHz): the fast mode of
#: 1500 back-to-back readings, which were 2.1-2.2 ms idle and 3.9-4.3 ms while
#: other tenants loaded the host.
PROBE_REF_S = 2.2e-3

_PROBE_M = np.eye(8, dtype=complex) * 0.5 + 0.01j
_PROBE_V = np.ones(8, dtype=complex)


def speed_probe() -> float:
    """Seconds for a fixed mix of small numpy products and float arithmetic,
    the kind of work the package does per integration step; the median of
    three readings, so that one interrupted reading does not count."""
    readings = []
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            acc = 0.0
            for _ in range(1500):
                x = _PROBE_M @ _PROBE_V
                acc = (acc + abs(x[0]) * 1.0000001) % 7.0
            readings.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(readings)


class Pass:
    """One pass over all items: per-item seconds, errors and failures, and
    the speed probe read before and after every item."""

    def __init__(self):
        self.item_s: list[float] = []
        self.probes: list[float] = []
        self.max_err = 0.0
        self.failures: list[str] = []
        self.digests: dict[str, bytes] = {}  # SHA-256 of each item's CSV

    @property
    def wall_s(self) -> float:
        return sum(self.item_s)


def run_pass(items, refs, cli, tracer=None, after_item=None) -> Pass:
    p = Pass()
    p.probes.append(speed_probe())
    for index, item in enumerate(items):
        item.csv.unlink(missing_ok=True)
        rc = None
        span = None
        if tracer is not None:
            tracer.item = index
            span = tracer.open("item")
        t0 = time.perf_counter()
        try:
            rc = cli.main(item.argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        p.item_s.append(elapsed)
        p.probes.append(speed_probe())
        if after_item is not None:
            after_item()
        if rc != 0:
            p.failures.append(f"{item.name}: exit code {rc}")
            continue
        err, problem = workloads.check_output(item, *refs[item.name])
        if problem:
            p.failures.append(f"{item.name}: {problem}")
        p.max_err = max(p.max_err, err)
        p.digests[item.name] = hashlib.sha256(item.csv.read_bytes()).digest()
    return p


def _pass_loop(seconds: float, step, least: int):
    """Call ``step()`` at least ``least`` times, then until the next call
    would overrun ``seconds`` by more than half of it."""
    t0 = time.perf_counter()
    durations = []
    while True:
        s0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - s0)
        if (len(durations) >= least
                and time.perf_counter() - t0 + statistics.mean(durations) / 2 >= seconds):
            return


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    modules = import_package()

    out = WORK / f"out-{args.workload}-{args.seed}-{os.getpid()}"
    items = workloads.build_items(args.workload, args.seed, modules["fields"], out)
    refs = dict(zip((it.name for it in items),
                    workloads.load_references([it.drive for it in items], WORK / "refs")))

    cli = modules["cli"]
    plain: list[Pass] = []
    traced: list[tuple[Pass, tracing.Tracer, set]] = []

    least = max(2, math.ceil(MIN_ITEM_RUNS / len(items)))
    # Every setup sample falls inside the passes that always run.
    setup = None if args.trace else SetupSampler(max(1, least * len(items) // SETUP_SAMPLES))

    def untraced_step():
        plain.append(run_pass(items, refs, cli, after_item=setup))

    def traced_step():
        untraced_step()
        tracer = tracing.Tracer()
        with tracing.Instrumentation(modules, tracer) as inst:
            traced.append((run_pass(items, refs, cli, tracer), tracer, inst.missing))

    try:
        if args.trace:
            _pass_loop(args.seconds, traced_step, least=1)
        else:
            _pass_loop(args.seconds, untraced_step, least)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    passes = plain + [p for p, _, _ in traced]
    failures = [f for p in passes for f in p.failures]
    problems = sorted(set(failures))
    first = passes[0].digests
    if any(p.digests != first for p in passes[1:] if not p.failures):
        problems.append("CSV bytes differ between passes of the same items")

    if args.trace:
        metrics, trace_problems = _layer_report(args, plain, traced)
        problems += trace_problems
    else:
        metrics = _end_to_end(setup.samples, plain)
        print(f"failed_frac {len(failures) / sum(len(p.item_s) for p in passes):.6g} 1")

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    attempted = sum(len(p.item_s) for p in passes)
    print(f"# {args.workload} seed={args.seed} items/pass={len(items)} attempted={attempted} "
          f"failed={len(failures)} pass_wall_s={[round(p.wall_s, 3) for p in passes]}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _report(metrics: dict[str, tuple[float, str]]) -> dict:
    out = {}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def scaled_item_times(plain: list[Pass]) -> list[float]:
    """Per item, the mean over passes of its time at the reference speed:
    the measured time times PROBE_REF_S over the mean of the two probes
    around it."""
    scaled = [[t * 2 * PROBE_REF_S / (p.probes[i] + p.probes[i + 1])
               for i, t in enumerate(p.item_s)] for p in plain]
    return [statistics.mean(times) for times in zip(*scaled)]


def _end_to_end(setup: list[tuple[float, float]], plain: list[Pass]) -> dict:
    item_s = scaled_item_times(plain)
    probes = [c for p in plain for c in p.probes]
    print(f"# wall_s and item_s_p50 over {len(item_s)} items x {len(plain)} passes; "
          f"speed probe {min(probes) * 1e3:.2f}..{max(probes) * 1e3:.2f} ms; unscaled wall "
          f"{statistics.median(p.wall_s for p in plain):.3f} s; setup_s over {len(setup)} "
          f"fresh interpreters, unscaled median {statistics.median(s for s, _ in setup):.3f} s")
    return _report({
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "wall_s": (sum(item_s), "s"),
        "item_s_p50": (statistics.median(item_s), "s"),
        "max_err": (max(p.max_err for p in plain), "abs"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    })


def _layer_report(args, plain: list[Pass], traced) -> tuple[dict, list[str]]:
    problems = []
    per_pass = [tracing.layer_metrics(tracer, missing) for _, tracer, missing in traced]
    counts = ("riccati.calls", "riccati.steps", "riccati.rhs_evals", "oracle.nfev",
              "cli.bytes_written")
    for m in per_pass[1:]:
        if any(m.get(c) != per_pass[0].get(c) for c in counts):
            problems.append("layer counts differ between traced passes of the same items")
    for p, tracer, _ in traced:
        layer_sum = tracing.layer_self_sum(tracer)
        if layer_sum > p.wall_s:
            problems.append(f"layer self times {layer_sum:.6f} s exceed wall {p.wall_s:.6f} s")
    missing = set().union(*(m for _, _, m in traced))
    for mod, attr in sorted(missing):
        print(f"# absent: {mod}.{attr} not found; its layer metrics are not reported")

    merged = {}
    for name, (value, unit) in per_pass[0].items():
        if unit != "count":
            value = statistics.median(m[name][0] for m in per_pass)
        merged[name] = (value, unit)
    traced_wall = sum(scaled_item_times([p for p, _, _ in traced]))
    merged["trace.overhead_frac"] = (traced_wall / sum(scaled_item_times(plain)) - 1.0, "ratio")
    tracer = traced[0][1]
    tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    return _report(merged), problems


if __name__ == "__main__":
    sys.exit(main())
