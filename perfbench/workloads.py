"""Workload items, their references and the check of each item's output.

Every item is one ``trilevel`` command line, run in-process through
``cli.main``; its normative CSV output is read back and compared with a
tight reference (see ``reference.py``).  The seed sets the order in which a
pass visits the items.

* ``figures``: the 18 presets through ``trilevel figure <name>`` (product
  path, tol 1e-10, each preset's own t_end/dt_out, CSV plus four SVG panels).
* ``oracles``: the same 18 presets with ``--solver direct_eta`` and
  ``--solver direct_rho``; these skip the Riccati solve and chart propagation.
* ``long-horizon``: four drive configs through ``trilevel run`` at tol 1e-10,
  t_end = 500, dt_out = 250 (three samples each).  The configs are a
  stratified design over the stated ranges, drawn once with a fixed seed: a
  fresh draw per run seed moved the worst item error by 10x and the pass time
  by +-15 %, far beyond any regression bound the benchmark could hold.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy

from reference import Drive, output_times, reference_rho

WORKLOADS = ("figures", "long-horizon", "oracles")

#: An item fails when its output is further than this from the reference
#: (the product-vs-direct bound stated in the package README).
ERROR_LIMIT = 1e-6

ORACLE_SOLVERS = ("direct_eta", "direct_rho")

LONG_T_END = 500.0
LONG_DT_OUT = 250.0
LONG_TOL = 1e-10
LONG_CONFIGS = 4
LONG_DESIGN_SEED = 500
_INITIAL_KINDS = ("level1", "level2", "level3", "stark_plus", "stark_minus", "stark_zero")

_SVG_PANELS = ("populations", "coherences_re", "coherences_im", "entropy")


@dataclass
class Item:
    name: str
    argv: list[str]
    csv: Path
    drive: Drive
    svgs: tuple[Path, ...] = ()


def preset_drive(ps) -> Drive:
    c = ps.config
    return Drive(c.A, c.Omega, c.B, c.omega, c.delta, c.Gamma, c.sign_convention,
                 ps.initial.kind, ps.t_end, ps.dt_out)


def _figure_item(fields, name: str, out: Path, solver: str | None) -> Item:
    argv = ["figure", name, "--out", str(out)]
    if solver is not None:
        argv += ["--solver", solver]
    return Item(f"{name}/{solver or 'product'}", argv, out / f"{name}.csv",
                preset_drive(fields.preset(name)),
                tuple(out / f"{name}_{q}.svg" for q in _SVG_PANELS))


def long_horizon_drives() -> list[Drive]:
    """A Latin hypercube over A in [0.05, 3], B in [0.3, 3] and delta in
    [-pi, pi]; Gamma on an even grid over [0, 0.2], so that the undamped end
    (where the error at t = 500 is not hidden by decay) is always in the set;
    Omega cycles over {0, 0.1, 1}; omega = 1; sign +-1; a random initial
    level or Stark state."""
    rng = random.Random(LONG_DESIGN_SEED)
    n = LONG_CONFIGS

    def strata(lo: float, hi: float) -> list[float]:
        values = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
        rng.shuffle(values)
        return values

    a, b, delta = strata(0.05, 3.0), strata(0.3, 3.0), strata(-math.pi, math.pi)
    gamma = [0.2 * k / (n - 1) for k in range(n)]
    rng.shuffle(gamma)
    return [Drive(A=a[k], Omega=(0.0, 0.1, 1.0)[k % 3], B=b[k], omega=1.0, delta=delta[k],
                  Gamma=gamma[k], sign=rng.choice((1.0, -1.0)),
                  initial=rng.choice(_INITIAL_KINDS), t_end=LONG_T_END, dt_out=LONG_DT_OUT)
            for k in range(n)]


def _run_item(k: int, d: Drive, out: Path) -> Item:
    cfg = out / f"lh{k}.cfg"
    csv = out / f"lh{k}.csv"
    cfg.write_text("".join(f"{key} = {value!r}\n" for key, value in (
        ("A", d.A), ("Omega", d.Omega), ("B", d.B), ("omega", d.omega),
        ("delta", d.delta), ("Gamma", d.Gamma), ("sign", d.sign))) +
        f"initial = {d.initial}\nsolver = product\nt_end = {d.t_end!r}\n"
        f"dt_out = {d.dt_out!r}\ntol = {LONG_TOL!r}\ncsv = {csv}\n", encoding="utf-8")
    return Item(f"lh{k}", ["run", str(cfg)], csv, d)


def build_items(workload: str, seed: int, fields, out: Path) -> list[Item]:
    """The workload's items in the seed's order; writes run configs into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "figures":
        items = [_figure_item(fields, name, out, None) for name in fields.preset_names()]
    elif workload == "oracles":
        items = []
        for solver in ORACLE_SOLVERS:
            (out / solver).mkdir(exist_ok=True)
            items += [_figure_item(fields, name, out / solver, solver)
                      for name in fields.preset_names()]
    elif workload == "long-horizon":
        items = [_run_item(k, d, out) for k, d in enumerate(long_horizon_drives())]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(items)
    return items


def _reference_path(d: Drive, cache: Path) -> Path:
    source = Path(__file__).with_name("reference.py").read_bytes()
    key = hashlib.sha256(repr(d).encode() + source + np.__version__.encode()
                         + scipy.__version__.encode()).hexdigest()[:32]
    return cache / f"{key}.npy"


def _compute_references(drives: list[Drive], cache: Path) -> None:
    cache.mkdir(parents=True, exist_ok=True)
    for d in drives:
        path = _reference_path(d, cache)
        tmp = path.with_suffix(".tmp.npy")
        np.save(tmp, reference_rho(d, output_times(d.t_end, d.dt_out)))
        tmp.replace(path)


def load_references(drives: list[Drive], cache: Path) -> list[tuple[np.ndarray, np.ndarray]]:
    """(times, rho) per drive.  References are kept on disk keyed by the drive
    and the reference code, so only the first run in a checkout computes
    them, and it does so in a child process so that the benchmark's own
    peak memory does not depend on whether the cache was warm."""
    missing = [asdict(d) for d in drives if not _reference_path(d, cache).exists()]
    if missing:
        code = ("import json, sys, workloads; workloads._compute_references("
                "[workloads.Drive(**d) for d in json.load(sys.stdin)], workloads.Path(sys.argv[1]))")
        subprocess.run([sys.executable, "-c", code, str(cache)], input=json.dumps(missing),
                       text=True, cwd=Path(__file__).parent, check=True, timeout=600)
    return [(output_times(d.t_end, d.dt_out), np.load(_reference_path(d, cache)))
            for d in drives]


def read_csv_rho(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Times and density matrices rebuilt from the CSV columns."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    t = data[:, 0]
    rho = np.zeros((len(t), 3, 3), dtype=complex)
    for col, i in ((1, 0), (2, 1), (3, 2)):
        rho[:, i, i] = data[:, col]
    for (re, im), (i, j) in zip(((4, 5), (6, 7), (8, 9)), ((0, 1), (0, 2), (1, 2))):
        rho[:, i, j] = data[:, re] + 1j * data[:, im]
        rho[:, j, i] = data[:, re] - 1j * data[:, im]
    return t, rho


def check_output(item: Item, times: np.ndarray, ref: np.ndarray) -> tuple[float, str]:
    """Largest |rho - rho_ref| of the item's CSV, and a problem description
    (empty when the output is complete and well formed)."""
    if not item.csv.exists():
        return math.inf, f"{item.csv.name} was not written"
    t, rho = read_csv_rho(item.csv)
    if t.shape != times.shape or np.max(np.abs(t - times)) > 1e-9 * max(1.0, times[-1]):
        return math.inf, f"{item.csv.name}: output times differ from the requested grid"
    for svg in item.svgs:
        if not svg.exists() or not svg.read_text(encoding="utf-8").startswith("<svg"):
            return math.inf, f"{svg.name} missing or not an SVG document"
    err = float(np.max(np.abs(rho - ref)))
    return err, "" if err <= ERROR_LIMIT else f"error {err:.3e} above {ERROR_LIMIT:g}"
