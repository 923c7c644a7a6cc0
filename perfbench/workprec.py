"""Work-precision report: ``product`` against ``direct_eta`` at equal accuracy.

    python3 perfbench/workprec.py

Runs both solution paths through the library on fig1, fig3, fig10 and fig17
at tol 1e-6, 1e-8, 1e-10 and 1e-12, and prints the median time and the
largest entrywise |rho - rho_ref| of each pair against the benchmark's tight
reference.  A second table gives, per preset and error target, the fastest
run of each path that meets the target.  It is a one-off report, not a
gated workload.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics
import sys
import time

import numpy as np

import run
import workloads

PRESETS = ("fig1", "fig3", "fig10", "fig17")
TOLS = (1e-6, 1e-8, 1e-10, 1e-12)
TARGETS = (1e-6, 1e-8, 1e-10)
REPEATS = 3


def main() -> int:
    mods = run.import_package()
    import trilevel as tl
    solvers = {
        "product": lambda ps, tol: mods["propagator"].run(
            ps.config, ps.initial.density(), ps.t_end, ps.dt_out, tol),
        "direct_eta": lambda ps, tol: mods["oracle"].integrate_eta_direct(
            ps.config, tl.rho_to_eta(ps.initial.density()), ps.t_end, ps.dt_out, tol),
    }
    rows = []
    print("| preset | solver | tol | time_s | max_err |\n|---|---|---|---|---|")
    for name in PRESETS:
        ps = mods["fields"].preset(name)
        [(_, ref)] = workloads.load_references([workloads.preset_drive(ps)], run.WORK / "refs")
        for solver, fn in solvers.items():
            for tol in TOLS:
                times = []
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    traj = fn(ps, tol)
                    times.append(time.perf_counter() - t0)
                err = float(np.max(np.abs(traj.rho - ref)))
                rows.append((name, solver, tol, statistics.median(times), err))
                print(f"| {name} | {solver} | {tol:g} | {rows[-1][3]:.3f} | {err:.2e} |",
                      flush=True)
    print("\n| preset | error target | product_s | direct_eta_s | product/direct |\n"
          "|---|---|---|---|---|")
    for name in PRESETS:
        for target in TARGETS:
            best = {s: min((r[3] for r in rows if r[0] == name and r[1] == s and r[4] <= target),
                           default=None) for s in solvers}
            p, d = best["product"], best["direct_eta"]
            ratio = f"{p / d:.2f}" if p and d else "n/a"
            print(f"| {name} | {target:g} | {p if p is None else f'{p:.3f}'} | "
                  f"{d if d is None else f'{d:.3f}'} | {ratio} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
