"""Command line interface: run, figure, sweep, check.

Run configs are flat ``key = value`` files; file keys override the preset a
file names, and command line flags override file keys.  CSV output is the
normative record (12 significant digits, fixed column schema); SVG plots are
convenience displays.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import algebra, checks, config, fields, observables, oracle, propagator, riccati, svg
from .svg import _ONES, _TENS, _words

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

# The value of each key a run may leave unset: the lowest layer of a run's
# settings, below the preset, the file and the flags.
_DEFAULTS = {"delta": "0.0", "Gamma": "0.0", "sign": "1.0", "initial": "level1",
             "solver": "product", "tol": "1e-8", "quantities": "populations"}


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


# Rows formatted at once.  The working arrays of 256 rows (about 0.4 MB)
# stay in cache: 1024-row slices took 1.7 times as long a row.
_CSV_SLICE = 256


# A value's text is written as five words, "-d.d" "dddd" "dddd" "dde+" "dd,\0",
# from the tables below; a byte 0 (the sign of a value that is not negative,
# the last byte, and the padding of a '%' field) is deleted.  The tables take a pair of digits, or four,
# plus 100 for a negative value (_LEAD) or a negative exponent (_TAIL).
_LEAD = _words([[0], [ord("-")]], _TENS, ord("."), _ONES)
_QUADS = _words(_TENS[:, None], _ONES[:, None], _TENS, _ONES)
_TAIL = _words(_TENS, _ONES, ord("e"), [[ord("+")], [ord("-")]])
_EXPONENT = _words(_TENS, _ONES, ord(","), 0)

# 10^(11 - e) for e in [-_EXP_SPAN, _EXP_SPAN], correctly rounded: Python
# rounds int-to-float conversion and int / int division correctly.
_EXP_SPAN = 102
_SCALE = np.array([float(10 ** k) if k >= 0 else 1 / 10 ** -k
                   for k in range(11 + _EXP_SPAN, 10 - _EXP_SPAN, -1)])


def _csv_rows(rows: np.ndarray) -> bytes:
    """'%.11e' of each value of ``rows``, joined by "," and ending each row
    in "\\n"; -0.0 prints as 0.00000000000e+00.  ``rows`` is not written.

    A value x with decimal exponent e in [-99, 99] is scaled to
    s = |x| 10^(11 - e) in [1e11, 1e12) by a correctly rounded power, so s is
    within 2.3e-4 of the exact product: two roundings of at most 2^-53 each at
    below 1e12.  Where s is more than 0.5 - 5e-4 from a tie, rint(s) is the
    exact 12-digit mantissa that '%.11e' prints.  Every other value (near a
    tie, a 3-digit exponent, a subnormal, nan, inf) takes '%.11e' itself,
    right-aligned in its 20-byte field before the field's separator: the text
    is at most 19 bytes, as in -1.79769313486e+308.
    """
    a = np.abs(rows)
    zero = a == 0.0
    ok = (a > 1e-101) & (a < 1e101)         # False for nan and inf
    a[~ok] = 1.0                            # no log10(0) and no nan cast below
    e = np.floor(np.log10(a)).astype(np.intp)
    s = a * _SCALE[e + _EXP_SPAN]
    e += s >= 1e12                          # log10 rounded across a power of ten
    e -= s < 1e11
    s = np.multiply(a, _SCALE[e + _EXP_SPAN], out=a)
    m = np.rint(s)
    ok &= np.abs(s - m) < 0.5 - 5e-4
    carry = m == 1e12
    m[carry] = 1e11
    e += carry
    ok &= np.abs(e) <= 99
    ok |= zero
    m[zero] = 0.0
    e[~ok] = 0

    # floor division and a product back: half the time of np.divmod
    lo = m.astype(np.int64)
    hi = lo // 1_000_000
    lo -= hi * 1_000_000
    lead = hi // 10_000
    quad1 = hi - lead * 10_000
    quad2 = lo // 100
    pair = lo - quad2 * 100
    words = np.empty(rows.shape + (5,), dtype=np.uint32)
    words[..., 0] = _LEAD[lead + 100 * (rows < 0)]
    words[..., 1] = _QUADS[quad1]
    words[..., 2] = _QUADS[quad2]
    words[..., 3] = _TAIL[pair + 100 * (e < 0)]
    words[..., 4] = _EXPONENT[np.abs(e)]
    text = words.view(np.uint8)             # (rows, columns, 20)
    text[:, -1, 18] = ord("\n")

    for r, c, x in zip(*np.nonzero(~ok), rows[~ok].tolist()):
        field = b"%.11e%c" % (x, text[r, c, 18])
        text[r, c] = np.frombuffer(field.rjust(20, b"\0"), dtype=np.uint8)
    return text.tobytes().translate(None, b"\0")


def write_csv(path, trajectory: propagator.Trajectory) -> None:
    """Write the observables table, formatted _CSV_SLICE rows at a time so
    that the text held at once stays bounded whatever the number of rows.
    The file is written as bytes, so a line ends in "\\n" on every platform."""
    table = trajectory.table
    with open(path, "wb") as out:
        out.write((",".join(observables.CSV_FIELDS) + "\n").encode())
        for lo in range(0, len(table), _CSV_SLICE):
            out.write(_csv_rows(table[lo:lo + _CSV_SLICE]))


def write_svg_panels(base_path, trajectory: propagator.Trajectory,
                     quantities, title_prefix: str = "") -> list[Path]:
    base = Path(base_path)
    columns = dict(zip(observables.CSV_FIELDS, trajectory.table.T))
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
    for i, item in enumerate(items):
        if item not in QUANTITIES:
            raise config.ConfigError(
                f"quantities must be drawn from {', '.join(QUANTITIES)} or 'all'; got {item!r}")
        if item in items[:i]:
            raise config.ConfigError(f"quantities repeats {item!r}")
    if not items:
        raise config.ConfigError("quantities must not be empty")
    return items


def _read_config(path) -> dict[str, str]:
    return config.parse_flat(Path(path).read_text(encoding="utf-8"))


def load_run_spec(entries: dict[str, str], args: argparse.Namespace) -> RunSpec:
    """Parse a RunSpec once from raw ``key = value`` strings, layered from
    lowest to highest priority: ``_DEFAULTS``, the block of the preset that
    ``entries`` names, ``entries`` themselves, then the command line flags in
    ``args``."""
    unknown = set(entries) - _RUN_KEYS
    if unknown:
        raise config.ConfigError(f"unknown config key {min(unknown)!r}")
    merged = dict(_DEFAULTS)
    if "preset" in entries:
        merged.update(fields.preset_entries(entries["preset"]))
    merged.update(entries)
    merged.update((key, getattr(args, key)) for key in _FLAG_KEYS
                  if getattr(args, key) is not None)

    field, initial, t_end, dt_out = fields.run_settings(merged)
    spec = RunSpec(
        field=field,
        initial=initial,
        solver=config.get_choice(merged, "solver", SOLVERS),
        t_end=t_end,
        dt_out=dt_out,
        tol=config.get_float(merged, "tol"),
        csv_path=merged.get("csv"),
        svg_path=merged.get("svg"),
        quantities=_parse_quantities(merged["quantities"]),
    )
    # the library refuses a tol below MIN_TOL with a ValueError; here it is exit 2
    if not (riccati.MIN_TOL <= spec.tol <= 1e-3):
        raise config.ConfigError(f"tol must be in [{riccati.MIN_TOL!r}, 1e-3], got {spec.tol!r}")
    if spec.solver == "hydrogen_analytic":
        cfg = spec.field
        hydrogen_like = (cfg.Omega == cfg.omega and cfg.delta == 0.0
                         and cfg.sign_convention == -1.0 and cfg.B != 0.0
                         and abs(cfg.A / cfg.B - math.sqrt(2.0)) < 1e-9)
        if not hydrogen_like:
            raise config.ConfigError(
                "solver hydrogen_analytic requires the hydrogen field configuration "
                "(Omega = omega, delta = 0, sign = -1, A/B = sqrt(2))")
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
    # hydrogen_analytic: load_run_spec admits no other solver name
    return oracle.hydrogen_trajectory(spec.field.A, spec.field.omega, spec.field.Gamma,
                                      rho0, spec.t_end, spec.dt_out)


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


def _swept(path, param: str, token: str, default_suffix: str = "") -> Path:
    """``path`` with ``__param=token`` added to its stem, so each swept value
    writes its own files; a path without a suffix takes ``default_suffix``."""
    base = Path(path)
    return base.with_name(f"{base.stem}__{param}={token}{base.suffix or default_suffix}")


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
    first: dict[float, str] = {}
    for token in tokens:
        if float(token) in first:
            raise config.ConfigError(f"--values for {args.param} repeats a value: "
                                     f"{first[float(token)]!r} and {token!r}")
        first[float(token)] = token
    if specs[0].csv_path is None:
        raise config.ConfigError("csv is required")
    for token, spec in zip(tokens, specs):
        trajectory = solve(spec)
        write_csv(_swept(spec.csv_path, args.param, token), trajectory)
        if spec.svg_path:
            write_svg_panels(_swept(spec.svg_path, args.param, token, ".svg"), trajectory,
                             spec.quantities)
    return EXIT_OK


def cmd_check(_args: argparse.Namespace) -> int:
    results = checks.run_all()
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call and shared by every
    later one, so callers must not mutate it.  ``parse_args`` keeps nothing
    between calls: each fills a new ``Namespace``."""
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
    # first: numpy's LinAlgError subclasses ValueError, but it is a failed solve
    except (propagator.PropagationError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (config.ConfigError, fields.UnknownPresetError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
