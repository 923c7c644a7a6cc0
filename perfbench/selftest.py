"""The benchmark's own test.

    python3 perfbench/selftest.py

For each workload, two traced runs with the same seed must both be correct
and report identical work counts (charts, accepted steps, RHS evaluations,
scipy ``nfev`` and bytes written).  The layer split must match what each
workload is for: on ``oracles`` the Riccati and propagation layers do no
work, and on ``long-horizon`` the Riccati solve takes most of the traced
time.  Finally, run in a directory holding only ``BENCHMARK.json`` and the
benchmark, the command must fail without printing a result.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("riccati.calls", "riccati.steps", "riccati.rhs_evals", "oracle.nfev",
         "cli.bytes_written")
SEED = 7


def traced_run(workload: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
                           "--trace", "1"],
                          cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload: str) -> list[str]:
    first, second = (result_of(traced_run(workload)) for _ in range(2))
    errors = []
    for res in (first, second):
        if not res["correct"] or res["failed"]:
            errors.append(f"{workload}: run not correct ({res['failed']} failed items)")
    m1, m2 = first["metrics"], second["metrics"]
    for name in EXACT:
        if m1[name]["value"] != m2[name]["value"]:
            errors.append(f"{workload}: {name} differs between runs with the same seed: "
                          f"{m1[name]['value']} vs {m2[name]['value']}")
    layer_s = {name: m["value"] for name, m in m1.items() if name.endswith("_s")}
    if workload == "oracles":
        busy = [n for n in m1 if n.startswith(("riccati.", "propagator.")) and m1[n]["value"]]
        if busy:
            errors.append(f"oracles: Riccati/propagator layers did work: {busy}")
    if workload == "long-horizon":
        riccati = layer_s["riccati.busy_s"]
        if riccati <= 0.5 * sum(layer_s.values()):
            errors.append(f"long-horizon: riccati.busy_s {riccati:.3f} s is not most of {layer_s}")
    return errors


def check_bare_directory() -> list[str]:
    """Without the package sources the command must fail and print no result."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = traced_run("figures", cwd=bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    errors = check_bare_directory()
    for workload in workloads.WORKLOADS:
        errors += check_workload(workload)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
