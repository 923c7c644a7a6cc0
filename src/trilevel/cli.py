"""Command line interface: run, figure, sweep, check.

Run configs are flat ``key = value`` files; command line flags override file
keys.  CSV output is the normative record (12 significant digits, fixed
column schema); SVG plots are convenience displays.
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


def load_run_spec(path, overrides: argparse.Namespace) -> RunSpec:
    entries = config.parse_flat(Path(path).read_text(encoding="utf-8"))
    unknown = set(entries) - _RUN_KEYS
    if unknown:
        raise config.ConfigError(f"unknown config key {min(unknown)!r}")

    preset_defaults = None
    if "preset" in entries:
        preset_defaults = fields.preset(entries["preset"])

    if preset_defaults is not None:
        base = preset_defaults.config.as_entries()
        merged = {k: config.format_value(v) for k, v in base.items()}
        merged["initial"] = preset_defaults.initial.kind
        merged["t_end"] = config.format_value(preset_defaults.t_end)
        merged["dt_out"] = config.format_value(preset_defaults.dt_out)
        merged.update({k: v for k, v in entries.items() if k != "preset"})
        entries = merged

    field = fields.field_config_from_entries(entries)
    initial = fields.InitialState(
        config.get_choice(entries, "initial", fields.INITIAL_KINDS[:-1], "level1"))
    spec = RunSpec(
        field=field,
        initial=initial,
        solver=config.get_choice(entries, "solver", SOLVERS, "product"),
        t_end=config.get_float(entries, "t_end"),
        dt_out=config.get_float(entries, "dt_out"),
        tol=config.get_float(entries, "tol", 1e-8),
        csv_path=entries.get("csv"),
        svg_path=entries.get("svg"),
        quantities=_parse_quantities(config.get_str(entries, "quantities", "populations")),
    )
    _apply_overrides(spec, overrides)
    _validate_spec(spec)
    return spec


def _apply_overrides(spec: RunSpec, args: argparse.Namespace) -> None:
    if getattr(args, "tol", None) is not None:
        spec.tol = args.tol
    if getattr(args, "t_end", None) is not None:
        spec.t_end = args.t_end
    if getattr(args, "dt_out", None) is not None:
        spec.dt_out = args.dt_out
    if getattr(args, "solver", None) is not None:
        spec.solver = args.solver


def _validate_spec(spec: RunSpec) -> None:
    for key in ("t_end", "dt_out"):
        value = getattr(spec, key)
        if not (math.isfinite(value) and value > 0):
            raise config.ConfigError(f"{key} must be finite and > 0, got {value!r}")
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
    spec = load_run_spec(args.config, args)
    if spec.csv_path is None:
        raise config.ConfigError("csv is required")
    trajectory = solve(spec)
    write_csv(spec.csv_path, trajectory)
    if spec.svg_path:
        write_svg_panels(spec.svg_path, trajectory, spec.quantities)
    return EXIT_OK


def cmd_figure(args: argparse.Namespace) -> int:
    ps = fields.preset(args.name)
    spec = RunSpec(field=ps.config, initial=ps.initial, solver="product",
                   t_end=ps.t_end, dt_out=ps.dt_out, tol=1e-10,
                   csv_path=None, svg_path=None, quantities=QUANTITIES)
    _apply_overrides(spec, args)
    _validate_spec(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trajectory = solve(spec)
    write_csv(out_dir / f"{args.name}.csv", trajectory)
    write_svg_panels(out_dir / f"{args.name}.svg", trajectory, QUANTITIES,
                     title_prefix=f"{args.name}: ")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.param not in fields.FIELD_KEYS:
        raise config.ConfigError(
            f"--param must be a field key ({', '.join(fields.FIELD_KEYS)}); got {args.param!r}")
    tokens = [tok.strip() for tok in args.values.split(",") if tok.strip()]
    if not tokens:
        raise config.ConfigError(f"--values for {args.param} must list at least one value")
    values = []
    for token in tokens:
        try:
            values.append(float(token))
        except ValueError:
            raise config.ConfigError(
                f"sweep value {token!r} for {args.param} is not a number") from None
    base = load_run_spec(args.config, args)
    if base.csv_path is None:
        raise config.ConfigError("csv is required")
    csv_base = Path(base.csv_path)
    attr = "sign_convention" if args.param == "sign" else args.param
    for token, value in zip(tokens, values):
        cfg = base.field.with_updates(**{attr: value})  # a ValueError exits 2
        spec = RunSpec(field=cfg, initial=base.initial, solver=base.solver,
                       t_end=base.t_end, dt_out=base.dt_out, tol=base.tol,
                       csv_path=None, svg_path=None, quantities=base.quantities)
        _validate_spec(spec)
        trajectory = solve(spec)
        out = csv_base.with_name(f"{csv_base.stem}__{args.param}={token}{csv_base.suffix}")
        write_csv(out, trajectory)
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
    shared.add_argument("--tol", type=float, default=None,
                        help="local error tolerance override")
    shared.add_argument("--t-end", dest="t_end", type=float, default=None,
                        help="simulation end time override")
    shared.add_argument("--dt-out", dest="dt_out", type=float, default=None,
                        help="output sampling interval override")
    shared.add_argument("--solver", choices=SOLVERS, default=None,
                        help="solution path override")

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
