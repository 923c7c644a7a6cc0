"""Command line interface: run, figure, sweep, check.

Run configs are flat ``key = value`` files; file keys override the preset a
file names, and command line flags override file keys.  CSV output is the
normative record (12 significant digits, fixed column schema); SVG plots are
convenience displays.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import algebra, checks, config, fields, observables, oracle, propagator, svg

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

SOLVERS = ("product", "direct_eta", "direct_rho", "hydrogen_analytic")
QUANTITIES = ("populations", "coherences_re", "coherences_im", "entropy")

_PANEL_SERIES = {
    "populations": (("pop1", "pop1"), ("pop2", "pop2"), ("pop3", "pop3")),
    "coherences_re": (("Re rho12", "re12"), ("Re rho13", "re13"), ("Re rho23", "re23")),
    "coherences_im": (("Im rho12", "im12"), ("Im rho13", "im13"), ("Im rho23", "im23")),
    "entropy": (("entropy", "entropy"),),
}

_RUN_KEYS = fields.PRESET_KEYS | {"preset", "solver", "tol", "csv", "svg", "quantities"}

# Run keys that a command line flag of the same name overrides.
_FLAG_KEYS = ("tol", "t_end", "dt_out", "solver")


@dataclass
class RunSpec:
    field: fields.FieldConfig
    initial: fields.InitialState
    solver: str
    t_end: float
    dt_out: float
    tol: float
    csv_path: str | None
    svg_path: str | None
    quantities: tuple[str, ...]


_CSV_ROW = ",".join(["%.11e"] * len(observables.ObservableRecord.CSV_FIELDS))


def write_csv(path, trajectory: propagator.Trajectory) -> None:
    lines = [",".join(observables.ObservableRecord.CSV_FIELDS)]
    # + 0.0 turns -0.0 into +0.0
    lines.extend(_CSV_ROW % tuple(row) for row in (trajectory.table + 0.0).tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_svg_panels(base_path, trajectory: propagator.Trajectory,
                     quantities, title_prefix: str = "") -> list[Path]:
    base = Path(base_path)
    columns = dict(zip(observables.ObservableRecord.CSV_FIELDS, trajectory.table.T))
    written = []
    multi = len(quantities) > 1
    for q in quantities:
        out = base.with_name(f"{base.stem}_{q}{base.suffix or '.svg'}") if multi else base
        series = [(label, columns[col]) for label, col in _PANEL_SERIES[q]]
        svg.line_chart(out, trajectory.grid, series,
                       title=f"{title_prefix}{q}".strip(), ylabel=q)
        written.append(out)
    return written


def _parse_quantities(raw: str) -> tuple[str, ...]:
    if raw.strip() == "all":
        return QUANTITIES
    items = tuple(part.strip() for part in raw.split(",") if part.strip())
    for item in items:
        if item not in QUANTITIES:
            raise config.ConfigError(
                f"quantities must be drawn from {', '.join(QUANTITIES)} or 'all'; got {item!r}")
    if not items:
        raise config.ConfigError("quantities must not be empty")
    return items


def _read_config(path) -> dict[str, str]:
    return config.parse_flat(Path(path).read_text(encoding="utf-8"))


def load_run_spec(entries: dict[str, str], args: argparse.Namespace) -> RunSpec:
    """Parse a RunSpec once from raw ``key = value`` strings, layered from
    lowest to highest priority: the block of the preset that ``entries``
    names, ``entries`` themselves, then the command line flags in ``args``."""
    unknown = set(entries) - _RUN_KEYS
    if unknown:
        raise config.ConfigError(f"unknown config key {min(unknown)!r}")
    merged = fields.preset_entries(entries["preset"]) if "preset" in entries else {}
    merged.update(entries)
    merged.update((key, getattr(args, key)) for key in _FLAG_KEYS
                  if getattr(args, key) is not None)

    spec = RunSpec(
        field=fields.field_config_from_entries(merged),
        initial=fields.InitialState(
            config.get_choice(merged, "initial", fields.INITIAL_KINDS[:-1], "level1")),
        solver=config.get_choice(merged, "solver", SOLVERS, "product"),
        t_end=config.get_float(merged, "t_end"),
        dt_out=config.get_float(merged, "dt_out"),
        tol=config.get_float(merged, "tol", 1e-8),
        csv_path=merged.get("csv"),
        svg_path=merged.get("svg"),
        quantities=_parse_quantities(config.get_str(merged, "quantities", "populations")),
    )
    if not (0 < spec.tol <= 1e-3):
        raise config.ConfigError("tol must be in (0, 1e-3]")
    if spec.solver == "hydrogen_analytic":
        cfg = spec.field
        hydrogen_like = (cfg.Omega == cfg.omega and cfg.delta == 0.0
                         and cfg.sign_convention == -1.0 and cfg.B != 0.0
                         and abs(cfg.A / cfg.B - math.sqrt(2.0)) < 1e-9)
        if not hydrogen_like:
            raise config.ConfigError(
                "solver hydrogen_analytic requires the hydrogen field configuration "
                "(Omega = omega, delta = 0, sign = -1, A/B = sqrt(2))")
        rho0 = spec.initial.density()
        if abs(observables.purity(rho0) - 1.0) > 1e-9:
            raise config.ConfigError(
                "solver hydrogen_analytic requires a pure initial state")
    return spec


def solve(spec: RunSpec) -> propagator.Trajectory:
    rho0 = spec.initial.density()
    if spec.solver == "product":
        return propagator.run(spec.field, rho0, spec.t_end, spec.dt_out, spec.tol)
    if spec.solver == "direct_eta":
        eta0 = algebra.rho_to_eta(rho0)
        return oracle.integrate_eta_direct(spec.field, eta0, spec.t_end, spec.dt_out, spec.tol)
    if spec.solver == "direct_rho":
        return oracle.integrate_rho_direct(spec.field, rho0, spec.t_end, spec.dt_out, spec.tol)
    if spec.solver == "hydrogen_analytic":
        return oracle.hydrogen_trajectory(spec.field.A, spec.field.omega, spec.field.Gamma,
                                          rho0, spec.t_end, spec.dt_out)
    raise config.ConfigError(f"unknown solver {spec.solver!r}")


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_run_spec(_read_config(args.config), args)
    if spec.csv_path is None:
        raise config.ConfigError("csv is required")
    trajectory = solve(spec)
    write_csv(spec.csv_path, trajectory)
    if spec.svg_path:
        write_svg_panels(spec.svg_path, trajectory, spec.quantities)
    return EXIT_OK


def cmd_figure(args: argparse.Namespace) -> int:
    spec = load_run_spec({"preset": args.name, "tol": "1e-10", "quantities": "all"}, args)
    trajectory = solve(spec)
    # created only after a successful solve, so a rejected run leaves nothing behind
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / f"{args.name}.csv", trajectory)
    write_svg_panels(out_dir / f"{args.name}.svg", trajectory, spec.quantities,
                     title_prefix=f"{args.name}: ")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.param not in fields.FIELD_KEYS:
        raise config.ConfigError(
            f"--param must be a field key ({', '.join(fields.FIELD_KEYS)}); got {args.param!r}")
    tokens = [tok.strip() for tok in args.values.split(",") if tok.strip()]
    if not tokens:
        raise config.ConfigError(f"--values for {args.param} must list at least one value")
    entries = _read_config(args.config)
    # every value's spec is checked before the first solve
    specs = [load_run_spec({**entries, args.param: token}, args) for token in tokens]
    if specs[0].csv_path is None:
        raise config.ConfigError("csv is required")
    csv_base = Path(specs[0].csv_path)
    for token, spec in zip(tokens, specs):
        out = csv_base.with_name(f"{csv_base.stem}__{args.param}={token}{csv_base.suffix}")
        write_csv(out, solve(spec))
    return EXIT_OK


def cmd_check(_args: argparse.Namespace) -> int:
    results = checks.run_all()
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--tol", help="local error tolerance override")
    shared.add_argument("--t-end", dest="t_end", help="simulation end time override")
    shared.add_argument("--dt-out", dest="dt_out", help="output sampling interval override")
    shared.add_argument("--solver", choices=SOLVERS, help="solution path override")

    parser = argparse.ArgumentParser(
        prog="trilevel",
        description="Driven degenerate three-level system with uniform decoherence.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[shared], help="run one simulation from a config file")
    p_run.add_argument("config", help="flat key = value config file")
    p_run.set_defaults(func=cmd_run)

    p_fig = sub.add_parser("figure", parents=[shared],
                           help="reproduce a named preset (fig1..fig17, hydrogen)")
    p_fig.add_argument("name")
    p_fig.add_argument("--out", default=".", help="output directory")
    p_fig.set_defaults(func=cmd_figure)

    p_sweep = sub.add_parser("sweep", parents=[shared],
                             help="run a config once per value of one field parameter")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="run the self-check suite")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on bad usage or --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (config.ConfigError, fields.UnknownPresetError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (propagator.PropagationError, RuntimeError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
