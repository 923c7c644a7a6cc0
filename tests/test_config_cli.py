import argparse
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trilevel import algebra, checks, cli, config, fields, observables, oracle, propagator


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


# --- config format ---------------------------------------------------------

def test_parse_flat_basics():
    text = "# comment\n\nA = 1.5\nname = fig1\n"
    assert config.parse_flat(text) == {"A": "1.5", "name": "fig1"}


def test_parse_flat_errors():
    with pytest.raises(config.ConfigError, match="key = value"):
        config.parse_flat("just a line\n")
    with pytest.raises(config.ConfigError, match="duplicate"):
        config.parse_flat("a = 1\na = 2\n")
    with pytest.raises(config.ConfigError, match="block header"):
        config.parse_flat("[block]\n")


def test_parse_blocks():
    text = "# table\n[one]\na = 1\n[two]\nb = 2\n"
    blocks = config.parse_blocks(text)
    assert blocks == {"one": {"a": "1"}, "two": {"b": "2"}}
    with pytest.raises(config.ConfigError, match="duplicate block"):
        config.parse_blocks("[x]\n[x]\n")
    with pytest.raises(config.ConfigError, match="before any"):
        config.parse_blocks("a = 1\n")
    with pytest.raises(config.ConfigError, match="line 2: empty key"):
        config.parse_blocks("[x]\n = 1\n")
    with pytest.raises(config.ConfigError, match=r"^line 3: empty block name$"):
        config.parse_blocks("[a]\nx = 1\n[ ]\n")
    with pytest.raises(config.ConfigError, match=r"^line 3: duplicate key 'x' in \[a\]$"):
        config.parse_blocks("[a]\nx = 1\nx = 2\n")
    with pytest.raises(config.ConfigError, match=r"^line 2: expected 'key = value', got '\[b'$"):
        config.parse_blocks("[a]\n[b\nx = 1\n")


def test_coercion_helpers_name_the_key():
    with pytest.raises(config.ConfigError, match="tol"):
        config.get_float({"tol": "abc"}, "tol")
    with pytest.raises(config.ConfigError, match="tol must be finite"):
        config.get_float({"tol": "nan"}, "tol")
    with pytest.raises(config.ConfigError, match="solver"):
        config.get_choice({"solver": "magic"}, "solver", ("product",))


# --- run -------------------------------------------------------------------

def test_a_run_file_may_leave_seven_keys_to_their_defaults(tmp_path):
    entries = config.parse_flat(f"A = 0.3\nOmega = 0.5\nB = 0.7\nomega = 1.0\nt_end = 2\n"
                                f"dt_out = 0.5\ncsv = {tmp_path / 'out.csv'}\n")
    spec = cli.load_run_spec(entries, cli.build_parser().parse_args(["run", "min.cfg"]))
    field = spec.field
    assert (field.delta, field.Gamma, field.sign_convention) == (0.0, 0.0, 1.0)
    assert spec.initial == fields.InitialState("level1")
    assert (spec.solver, spec.tol, spec.quantities) == ("product", 1e-8, ("populations",))


FIG1_CONFIG = """
A = 0.05
Omega = 0.0
B = 0.5
omega = 1.0
delta = 0.0
Gamma = 0.02
initial = level1
t_end = 10.0
dt_out = 0.5
tol = 1e-9
csv = {csv}
"""


def test_run_writes_expected_csv(tmp_path):
    csv = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path / "run.cfg", FIG1_CONFIG.format(csv=csv))
    assert cli.main(["run", cfg]) == 0
    header, data = read_csv(csv)
    assert header == ("t,pop1,pop2,pop3,re12,im12,re13,im13,re23,im23,"
                      "entropy,purity,eig1,eig2,eig3,eta_norm").split(",")
    assert data.shape == (math.ceil(10.0 / 0.5) + 1, 16)
    assert data[0, 1] == 1.0  # starts in level 1
    # scientific notation with 12 significant digits, no negative zero
    first_line = csv.read_text().splitlines()[1]
    token = first_line.split(",")[1]
    mantissa = token.split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 12
    assert "-0.00000000000e" not in csv.read_text()


def test_csv_formats_signed_zeros_subnormals_and_extremes(tmp_path):
    row = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.0 / 3.0,
           -2.5, 1e-5, 123456789.0, 0.1, -1e-300, 7.0, 1.7976931348623157e308, -0.0]
    table = np.array([row])
    cli.write_csv(tmp_path / "edge.csv",
                  propagator.Trajectory(table[:, 0], table))
    assert (tmp_path / "edge.csv").read_text().splitlines()[1].split(",") == [
        "0.00000000000e+00", "0.00000000000e+00", "4.94065645841e-324", "-4.94065645841e-324",
        "2.22507385851e-308", "1.00000000000e+300", "-1.00000000000e+300", "3.33333333333e-01",
        "-2.50000000000e+00", "1.00000000000e-05", "1.23456789000e+08", "1.00000000000e-01",
        "-1.00000000000e-300", "7.00000000000e+00", "1.79769313486e+308", "0.00000000000e+00"]


def test_write_csv_leaves_its_table_unchanged(tmp_path):
    # every kind of value, -0.0 included, over three slices of rows
    rng = np.random.default_rng(6)
    table = rng.standard_normal((2 * cli._CSV_SLICE + 7, len(observables.CSV_FIELDS)))
    table *= 10.0 ** rng.integers(-320, 300, size=table.shape)
    picks = rng.random(table.shape) < 0.2
    table[picks] = rng.choice([0.0, -0.0, 5e-324, -1.7976931348623157e308, -np.inf, np.nan,
                               123456789012.5, -3e-200], size=int(picks.sum()))
    before = table.tobytes()
    write_table(tmp_path / "kept.csv", table)
    assert table.tobytes() == before


def one_shot_csv(table: np.ndarray) -> bytes:
    """The CSV bytes as the writer once formed them, the whole table at once:
    the reference for the block-wise writer."""
    row = ",".join(["%.11e"] * len(observables.CSV_FIELDS))
    lines = [",".join(observables.CSV_FIELDS)]
    lines.extend(row % tuple(r) for r in (table + 0.0).tolist())
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_csv_written_a_block_at_a_time_has_the_one_shot_bytes(tmp_path):
    # 2.5 writer slices of rows, with signed zeros, subnormals and extremes
    # spread over every column and across both slice boundaries
    rng = np.random.default_rng(3)
    rows = 5 * cli._CSV_SLICE // 2
    table = rng.standard_normal((rows, len(observables.CSV_FIELDS)))
    table *= 10.0 ** rng.integers(-320, 300, size=table.shape)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                        1.7976931348623157e308, -1e-300])
    picks = rng.random(table.shape) < 0.2
    table[picks] = rng.choice(special, size=int(picks.sum()))
    for edge in (cli._CSV_SLICE - 1, cli._CSV_SLICE, 2 * cli._CSV_SLICE):
        table[edge] = -0.0
    path = tmp_path / "blocks.csv"
    cli.write_csv(path, propagator.Trajectory(table[:, 0], table))
    assert path.read_bytes() == one_shot_csv(table)
    assert "-0.00000000000e+00" not in path.read_text()


def test_csv_writer_holds_a_bounded_text(tmp_path):
    # 48 writer slices of rows (a 1.57 MB table): measured 0.56 MB at the
    # peak, and the same for 10^5 rows (5.2 MB when each slice's rows were
    # formatted with '%').  Formatted in one piece, the text and its row lists
    # took 23.2 MB for twice these rows and 94.4 MB for 10^5 rows.
    table = np.random.default_rng(4).standard_normal((48 * cli._CSV_SLICE, 16))
    traj = propagator.Trajectory(table[:, 0], table)
    tracemalloc.start()
    try:
        cli.write_csv(tmp_path / "big.csv", traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def write_table(path, table: np.ndarray) -> bytes:
    cli.write_csv(path, propagator.Trajectory(table[:, 0], table))
    return path.read_bytes()


# Any float64: the edges hypothesis draws (nan, +-inf, +-0, subnormals, the
# largest values) and 17-digit decimals of magnitude 1e-320 to 1e308, read
# from text so that drawing them raises no overflow warning.
_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.builds(lambda digits, k: float(f"{digits}e{k}"),
              st.integers(-10 ** 17, 10 ** 17), st.integers(-337, 291)))


@settings(derandomize=True, deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.lists(_ANY_FLOAT, min_size=16, max_size=16), min_size=1, max_size=12))
def test_csv_bytes_are_the_percent_format_of_any_float64(tmp_path, rows):
    table = np.array(rows)
    assert write_table(tmp_path / "any.csv", table) == one_shot_csv(table)


def with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.concatenate((values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)))


def test_csv_bytes_at_ties_carries_and_powers_of_ten(tmp_path):
    # Values where the 12-digit mantissa is decided by the last bits: exact
    # decimal ties, mantissas that carry to the next power of ten, and every
    # power of ten the two-digit exponent spans, each with both neighbours
    ties = with_neighbours([123456789012.5, 1234567890125.0])
    carries = with_neighbours([float(f"{m}e{k}") for m in ("999999999999.5", "9.999999999995")
                               for k in range(-112, 100)])
    powers = with_neighbours([float(f"1e{k}") for k in range(-99, 100)])
    values = np.concatenate((ties, carries, powers))
    values = np.concatenate((values, -values))
    table = np.resize(values, (-(-len(values) // 16), 16))
    # a 3-digit exponent mid-row, each sign: both take the writer's one '%' fallback
    table[0, 7], table[1, 7] = 1.5e-150, -1.5e-150
    # a row of fast-path values, values near a tie and every kind of fallback
    table[2] = [0.1, 123456789012.5, 5e-324, -2.5, 1e100, 9.999999999995e99, -0.0, np.nan,
                1.0 / 3.0, -np.inf, 1e-100, 7.0, -1e-99, 2.2250738585072014e-308, 0.0, 1.0]
    assert write_table(tmp_path / "edges.csv", table) == one_shot_csv(table)


@pytest.mark.parametrize("name", [*fields.preset_names(), "fig1 decaying to 0"])
def test_csv_bytes_of_every_preset_are_the_percent_format_of_its_table(tmp_path, name):
    # the product path at the tol of `trilevel figure`; the decaying fig1's
    # coherences fall through 3-digit exponents and subnormals to 0 (223 rows
    # hold a 3-digit exponent), so its rows mix the fast path and the '%' fallback
    text = ("preset = fig1\nGamma = 5\nt_end = 200\ndt_out = 0.5\n"
            if name == "fig1 decaying to 0" else f"preset = {name}\n")
    csv = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path / "run.cfg", text + f"tol = 1e-10\ncsv = {csv}\n")
    assert cli.main(["run", cfg]) == 0
    spec = cli.load_run_spec(cli._read_config(cfg), cli.build_parser().parse_args(["run", cfg]))
    assert csv.read_bytes() == one_shot_csv(cli.solve(spec).table)
    if name == "fig1 decaying to 0":
        values = csv.read_text().replace("\n", ",").split(",")[16:-1]
        exponents = [int(value.split("e")[1]) for value in values]
        assert "0.00000000000e+00" in values and min(exponents) < -307


def test_a_drive_without_a_period_past_the_step_cap_is_a_config_error(tmp_path, capsys,
                                                                       monkeypatch):
    # fig9 with Omega = sqrt(2) - 1 has no common period: its charts run to
    # t_end, 34 steps a unit of time at tol 1e-10.  With the cap at 1000
    # steps, t_end = 2000 is refused before any output is written.
    monkeypatch.setattr(propagator, "MAX_SAMPLES", 1000)
    csv = tmp_path / "aperiodic.csv"
    cfg = write_cfg(tmp_path / "aperiodic.cfg",
                    f"preset = fig9\nOmega = {math.sqrt(2.0) - 1.0!r}\nt_end = 2000\n"
                    f"dt_out = 10\ntol = 1e-10\ncsv = {csv}\n")
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the exponents to t = 2000.0 need more than 1000 "
                          "Riccati steps") and "t_end" in err
    assert not csv.exists()


def test_pure_decay_to_a_t_end_the_last_step_rounds_short_of(tmp_path):
    # no drive: the exponents stay zero and rho(t) = I/3 + e^(-Gamma t) (rho0 - I/3).
    # The last Riccati step starts below t_end / 2, and t + (t_end - t) is one
    # ulp short of t_end here.
    csv = tmp_path / "decay.csv"
    cfg = write_cfg(tmp_path / "decay.cfg",
                    "A = 0\nOmega = 0\nB = 0\nomega = 0\nGamma = 0.1\n"
                    f"t_end = 878.6902752024938\ndt_out = 1\ntol = 1e-10\ncsv = {csv}\n")
    assert cli.main(["run", cfg]) == 0
    _, data = read_csv(csv)
    t = data[:, 0]
    assert t[-1] == float("%.11e" % 878.6902752024938) and len(t) == 880
    decay = np.exp(-0.1 * t)
    exact = np.stack([1 / 3 + 2 / 3 * decay, 1 / 3 - decay / 3, 1 / 3 - decay / 3], axis=1)
    assert np.allclose(data[:, 1:4], exact, rtol=1e-11, atol=0.0)


def test_run_is_deterministic(tmp_path):
    csv = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path / "run.cfg", FIG1_CONFIG.format(csv=csv))
    assert cli.main(["run", cfg]) == 0
    first = csv.read_bytes()
    assert cli.main(["run", cfg]) == 0
    assert csv.read_bytes() == first


def test_run_supports_preset_reference_and_overrides(tmp_path):
    csv = tmp_path / "f9.csv"
    cfg = write_cfg(tmp_path / "f9.cfg", f"preset = fig9\ncsv = {csv}\n")
    assert cli.main(["run", cfg, "--t-end", "4", "--dt-out", "1", "--tol", "1e-8"]) == 0
    _, data = read_csv(csv)
    assert data.shape[0] == 5
    assert data[0, 2] == 1.0  # fig9 starts in level 2


def test_run_rejects_negative_gamma(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg",
                    "A = 1\nOmega = 0\nB = 1\nomega = 1\nGamma = -1\n"
                    "t_end = 1\ndt_out = 0.5\ncsv = x.csv\n")
    assert cli.main(["run", cfg]) == 2
    assert "Gamma must be >= 0" in capsys.readouterr().err


def test_run_rejects_a_sign_other_than_plus_or_minus_one(tmp_path, monkeypatch, capsys):
    # the message names the config key, sign, not FieldConfig's sign_convention;
    # the sweep checks every value before its first run, so it writes nothing
    monkeypatch.chdir(tmp_path)
    for sign in ("2", "0.5", "0", "-1.5"):
        cfg = write_cfg(tmp_path / "bad.cfg", f"preset = fig1\ncsv = x.csv\nsign = {sign}\n")
        assert cli.main(["run", cfg]) == 2
        assert capsys.readouterr().err == f"config error: sign must be +1 or -1, got {sign!r}\n"
        assert cli.main(["sweep", cfg, "--param", "sign", f"--values=-1,{sign}"]) == 2
        assert capsys.readouterr().err == f"config error: sign must be +1 or -1, got {sign!r}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["bad.cfg"]


def test_run_rejects_unknown_keys_and_bad_tol(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", "preset = fig1\ncsv = x.csv\nbogus = 1\n")
    assert cli.main(["run", cfg]) == 2
    assert "bogus" in capsys.readouterr().err
    cfg2 = write_cfg(tmp_path / "bad2.cfg", "preset = fig1\ncsv = x.csv\ntol = 0.01\n")
    assert cli.main(["run", cfg2]) == 2
    assert "tol" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["product", "direct_eta", "direct_rho"])
@pytest.mark.parametrize("tol", ["9.9e-14", "1e-300"])
def test_a_tol_below_1e_13_is_a_config_error_on_every_solver(tmp_path, capsys, solver, tol):
    # such tols overflowed the product path's error norm, or ran for longer
    # than five minutes
    out = tmp_path / "out"
    argv = ["figure", "fig3", "--solver", solver, "--tol", tol, "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: tol must be in")
    assert not out.exists()


@pytest.mark.parametrize("config_text, extra_args, key", [
    ("preset = fig1\ncsv = x.csv\nA = nan\n", [], "A"),
    ("preset = fig1\ncsv = x.csv\nGamma = inf\n", [], "Gamma"),
    (None, ["--t-end", "inf"], "t_end"),
], ids=["A=nan", "Gamma=inf", "t_end=inf"])
def test_non_finite_input_is_a_config_error_naming_the_key(tmp_path, capsys, config_text,
                                                           extra_args, key):
    if config_text is None:
        argv = ["figure", "fig1", "--out", str(tmp_path)]
    else:
        argv = ["run", write_cfg(tmp_path / "nf.cfg", config_text)]
    assert cli.main(argv + extra_args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{key} must be finite" in err


def test_oversized_output_is_a_config_error_naming_dt_out(tmp_path, capsys):
    tracemalloc.start()
    try:
        assert cli.main(["figure", "fig1", "--out", str(tmp_path), "--t-end", "1e300"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000
    err = capsys.readouterr().err
    assert err.startswith("config error: dt_out = 0.1 ") and "t_end = 1e+300" in err


@pytest.mark.parametrize("solver", ["direct_eta", "direct_rho"])
def test_a_direct_window_that_can_never_finish_is_a_config_error_naming_t_end(
        tmp_path, capsys, monkeypatch, solver):
    # 10^5 rows pass the grid check, but fig1's step cap of pi/2 forces at
    # least 6.4e8 steps: hours of integration, refused before it starts
    def never(*_args, **_kwargs):
        raise AssertionError("the integration started")

    monkeypatch.setattr(oracle, "solve_ivp", never)
    argv = ["figure", "fig1", "--solver", solver, "--t-end", "1e9", "--dt-out", "1e4",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: t_end = 1000000000.0 needs at least 6.37e+08 ")
    assert f"at most {propagator.MAX_SAMPLES} are allowed" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["A", "Omega", "B", "omega", "t_end", "dt_out"])
def test_a_run_without_a_preset_names_each_missing_key(tmp_path, capsys, key):
    # these six have no default, and a config without a preset takes none from it
    text = "".join(line + "\n" for line in FIG1_CONFIG.format(csv=tmp_path / "o.csv").splitlines()
                   if not line.startswith(f"{key} ="))
    assert cli.main(["run", write_cfg(tmp_path / "r.cfg", text)]) == 2
    assert capsys.readouterr().err == f"config error: {key} is required\n"
    assert not list(tmp_path.glob("*.csv"))


def test_an_empty_quantities_list_is_a_config_error(tmp_path, capsys):
    text = FIG1_CONFIG.format(csv=tmp_path / "o.csv") + "quantities = ,\n"
    assert cli.main(["run", write_cfg(tmp_path / "r.cfg", text)]) == 2
    assert capsys.readouterr().err == "config error: quantities must not be empty\n"
    assert not list(tmp_path.glob("*.csv"))


def test_run_requires_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "nocsv.cfg", "preset = fig1\nt_end = 1\ndt_out = 0.5\n")
    assert cli.main(["run", cfg]) == 2
    assert "csv" in capsys.readouterr().err


def test_hydrogen_analytic_requires_hydrogen_fields(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "h.cfg",
                    "preset = fig1\nsolver = hydrogen_analytic\ncsv = x.csv\n")
    assert cli.main(["run", cfg]) == 2
    assert "hydrogen" in capsys.readouterr().err


def test_hydrogen_analytic_agrees_with_product_solver(tmp_path):
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    base = "preset = hydrogen\nt_end = 6.0\ndt_out = 0.5\ntol = 1e-12\ncsv = {}\n"
    assert cli.main(["run", write_cfg(tmp_path / "a.cfg", base.format(csv_a)
                                      + "solver = hydrogen_analytic\n")]) == 0
    assert cli.main(["run", write_cfg(tmp_path / "b.cfg", base.format(csv_b)
                                      + "solver = product\n")]) == 0
    _, da = read_csv(csv_a)
    _, db = read_csv(csv_b)
    assert np.max(np.abs(da - db)) <= 1e-6


@pytest.mark.parametrize("solver", ["direct_eta", "direct_rho"])
def test_direct_solvers_run_from_cli(tmp_path, solver):
    csv = tmp_path / "d.csv"
    cfg = write_cfg(tmp_path / "d.cfg",
                    f"preset = fig1\nsolver = {solver}\nt_end = 2\ndt_out = 0.5\ncsv = {csv}\n")
    assert cli.main(["run", cfg]) == 0
    _, data = read_csv(csv)
    assert data.shape == (5, 16)


def test_run_with_svg_output(tmp_path):
    csv = tmp_path / "out.csv"
    svg = tmp_path / "out.svg"
    cfg = write_cfg(tmp_path / "run.cfg",
                    FIG1_CONFIG.format(csv=csv) + f"svg = {svg}\nquantities = all\n")
    assert cli.main(["run", cfg]) == 0
    panels = sorted(p.name for p in tmp_path.glob("out_*.svg"))
    assert panels == ["out_coherences_im.svg", "out_coherences_re.svg",
                      "out_entropy.svg", "out_populations.svg"]
    body = (tmp_path / "out_populations.svg").read_text()
    assert body.startswith("<svg") and "polyline" in body and "pop1" in body


@pytest.mark.parametrize("quantities", ["entropy,entropy", "entropy, populations ,entropy"])
def test_a_repeated_quantity_is_a_config_error_that_writes_nothing(tmp_path, capsys,
                                                                    quantities):
    # a repeated entry would make a one-panel list look like several and write
    # the same o_entropy.svg twice, not the o.svg that one entry writes
    text = FIG1_CONFIG.format(csv=tmp_path / "o.csv") + f"svg = {tmp_path / 'o.svg'}\n"
    cfg = write_cfg(tmp_path / "r.cfg", text + f"quantities = {quantities}\n")
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: quantities") and "'entropy'" in err
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.svg"))
    assert cli.main(["run", write_cfg(tmp_path / "one.cfg", text + "quantities = entropy\n")]) == 0
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == ["o.svg"]


# --- figure ----------------------------------------------------------------

def test_figure_unknown_name(tmp_path, capsys):
    assert cli.main(["figure", "fig99", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "fig1" in err and "hydrogen" in err


def test_figure_emits_csv_and_panels(tmp_path):
    assert cli.main(["figure", "fig16", "--out", str(tmp_path),
                     "--t-end", "10", "--tol", "1e-11"]) == 0
    header, data = read_csv(tmp_path / "fig16.csv")
    assert len(header) == 16
    # the Stark eigenstate is frozen: every tracked element is constant
    for col in range(1, 10):
        assert np.max(np.abs(data[:, col] - data[0, col])) <= 1e-8
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == [
        "fig16_coherences_im.svg", "fig16_coherences_re.svg",
        "fig16_entropy.svg", "fig16_populations.svg"]


def test_figure_entropy_rises_monotonically(tmp_path):
    assert cli.main(["figure", "fig11", "--out", str(tmp_path),
                     "--t-end", "60", "--dt-out", "0.5"]) == 0
    _, data = read_csv(tmp_path / "fig11.csv")
    entropy = data[:, 10]
    assert entropy[0] <= 1e-12
    assert np.all(np.diff(entropy) >= -1e-10)
    assert entropy[-1] > 0.5


# --- sweep -----------------------------------------------------------------

def test_sweep_over_phase_produces_distinct_traces(tmp_path):
    csv = tmp_path / "sw.csv"
    cfg = write_cfg(tmp_path / "sw.cfg",
                    f"preset = fig5\ncsv = {csv}\nt_end = 10\ndt_out = 0.5\ntol = 1e-9\n")
    values = f"{-math.pi / 6},{math.pi / 6},{math.pi / 4},{math.pi / 2}"
    assert cli.main(["sweep", cfg, "--param", "delta", f"--values={values}"]) == 0
    outs = sorted(tmp_path.glob("sw__delta=*.csv"))
    assert len(outs) == 4
    # from a level population, rho12 stays pure imaginary; im12 carries the
    # phase dependence
    traces = [read_csv(p)[1][:, 5] for p in outs]
    for trace in traces:
        assert np.max(np.abs(trace)) > 1e-3
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.max(np.abs(traces[i] - traces[j])) > 1e-3


def test_sweep_gamma_controls_the_entropy_rise(tmp_path):
    csv = tmp_path / "g.csv"
    cfg = write_cfg(tmp_path / "g.cfg",
                    f"preset = fig5\ncsv = {csv}\nt_end = 20\ndt_out = 1\ntol = 1e-10\n")
    assert cli.main(["sweep", cfg, "--param", "Gamma", "--values", "0.02,0.08"]) == 0
    _, low = read_csv(tmp_path / "g__Gamma=0.02.csv")
    _, high = read_csv(tmp_path / "g__Gamma=0.08.csv")
    # entropy follows the universal law for each Gamma
    for data, gamma in ((low, 0.02), (high, 0.08)):
        for t, s in zip(data[:, 0], data[:, 10]):
            x = math.exp(-gamma * t)
            lam = np.array([(1 + 2 * x) / 3, (1 - x) / 3, (1 - x) / 3])
            expected = float(-np.sum(lam[lam > 0] * np.log(lam[lam > 0])))
            assert abs(s - expected) <= 1e-7
    assert np.max(high[:, 10] - low[:, 10]) > 0.1


def test_sweep_rejects_empty_values_and_bad_param(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "sw.cfg", f"preset = fig5\ncsv = {tmp_path / 'sw.csv'}\n")
    assert cli.main(["sweep", cfg, "--param", "delta", "--values", ""]) == 2
    assert "delta" in capsys.readouterr().err
    assert cli.main(["sweep", cfg, "--param", "bogus", "--values", "1"]) == 2
    assert "bogus" in capsys.readouterr().err
    # every value is checked before the first one runs
    assert cli.main(["sweep", cfg, "--param", "delta", "--values", "1,up"]) == 2
    assert "delta" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert cli.main(["sweep", cfg, "--param", "Gamma", "--values", "nan"]) == 2
    assert "Gamma" in capsys.readouterr().err
    bad = write_cfg(tmp_path / "q.cfg",
                    f"preset = fig5\ncsv = {tmp_path / 'sw.csv'}\nquantities = pops\n")
    assert cli.main(["sweep", bad, "--param", "delta", "--values", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: quantities") and "'pops'" in err


def test_sweep_requires_csv_before_the_first_solve(tmp_path, monkeypatch, capsys):
    solves = []
    monkeypatch.setattr(cli, "solve", solves.append)
    cfg = write_cfg(tmp_path / "s.cfg", "preset = fig9\nt_end = 1\n")
    assert cli.main(["sweep", cfg, "--param", "delta", "--values=0.5,1"]) == 2
    assert capsys.readouterr().err == "config error: csv is required\n"
    assert solves == []
    assert [p.name for p in tmp_path.iterdir()] == ["s.cfg"]


def test_sweep_rejects_a_repeated_value_before_the_first_solve(tmp_path, monkeypatch, capsys):
    solves = []
    monkeypatch.setattr(cli, "solve", solves.append)
    cfg = write_cfg(tmp_path / "d.cfg", f"preset = fig9\ncsv = {tmp_path / 'd.csv'}\n")
    for values, second in (("0.5,0.5,5e-1", "'0.5'"), ("0.5,1,5e-1", "'5e-1'")):
        assert cli.main(["sweep", cfg, "--param", "delta", f"--values={values}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --values for delta repeats a value: '0.5' and ")
        assert err.rstrip().endswith(second)
    assert solves == []
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_over_sign_flips_the_coherences_but_not_the_populations(tmp_path):
    csv = tmp_path / "s.csv"
    cfg = write_cfg(tmp_path / "s.cfg",
                    f"preset = fig9\ncsv = {csv}\nt_end = 20\ndt_out = 0.5\ntol = 1e-9\n")
    assert cli.main(["sweep", cfg, "--param", "sign", "--values=-1,1"]) == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["s__sign=-1.csv", "s__sign=1.csv"]
    _, minus = read_csv(tmp_path / "s__sign=-1.csv")
    _, plus = read_csv(tmp_path / "s__sign=1.csv")
    assert np.max(np.abs(minus[:, 1:4] - plus[:, 1:4])) <= 1e-12
    assert np.max(np.abs(minus[:, 4:10] - plus[:, 4:10])) > 0.1


def test_sweep_writes_each_values_panels_next_to_its_csv(tmp_path, monkeypatch):
    # the README's sim.cfg shape: every value's SVG panels are written through
    # the same writer as a run's, and match a run of that value
    panels = []
    write_svg_panels = cli.write_svg_panels

    def spy(base, *rest, **kwargs):
        panels.append(base)
        return write_svg_panels(base, *rest, **kwargs)

    monkeypatch.setattr(cli, "write_svg_panels", spy)
    monkeypatch.chdir(tmp_path)
    text = "preset = fig9\nt_end = 4\ndt_out = 0.5\ncsv = out.csv\nsvg = out.svg\n"
    write_cfg(tmp_path / "sim.cfg", text + "quantities = all\n")
    assert cli.main(["sweep", "sim.cfg", "--param", "delta", "--values=0.5,-0.5"]) == 0
    assert len(panels) == 2
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == sorted(
        f"out__delta={v}_{q}.svg" for v in ("-0.5", "0.5") for q in cli.QUANTITIES)
    write_cfg(tmp_path / "one.cfg", text.replace("out.", "one.") + "delta = 0.5\nquantities = all\n")
    assert cli.main(["run", "one.cfg"]) == 0
    for q in cli.QUANTITIES:
        assert (tmp_path / f"one_{q}.svg").read_bytes() == (
            tmp_path / f"out__delta=0.5_{q}.svg").read_bytes()
    # one quantity: one panel per value, named like its CSV
    write_cfg(tmp_path / "pop.cfg", text.replace("out.", "pop."))
    assert cli.main(["sweep", "pop.cfg", "--param", "Gamma", "--values=0.1"]) == 0
    assert (tmp_path / "pop__Gamma=0.1.svg").is_file()


# --- one route to a RunSpec ------------------------------------------------

@pytest.mark.parametrize("name", ["fig3", "hydrogen"])
def test_run_of_a_preset_matches_figure_and_layers_take_precedence(tmp_path, name):
    csv = tmp_path / "run.csv"
    cfg = write_cfg(tmp_path / "p.cfg", f"preset = {name}\ntol = 1e-10\ncsv = {csv}\n")
    assert cli.main(["run", cfg]) == 0
    assert cli.main(["figure", name, "--out", str(tmp_path / "fig")]) == 0
    assert csv.read_bytes() == (tmp_path / "fig" / f"{name}.csv").read_bytes()

    # a file key beats the preset value, and a flag beats the file key
    dt_out = fields.preset(name).dt_out
    cfg = write_cfg(tmp_path / "p.cfg", f"preset = {name}\nt_end = {4 * dt_out}\ncsv = {csv}\n")
    assert cli.main(["run", cfg]) == 0
    assert read_csv(csv)[1][:, 0].tolist() == pytest.approx([k * dt_out for k in range(5)])
    assert cli.main(["run", cfg, "--t-end", str(2 * dt_out)]) == 0
    assert read_csv(csv)[1][:, 0].tolist() == pytest.approx([k * dt_out for k in range(3)])


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "abc", "tol must be a number"),
    ("--tol", "0.1", "tol must be in"),
    ("--t-end", "-1", "t_end must be finite and > 0"),
    ("--dt-out", "0", "dt_out must be finite and > 0"),
    ("--t-end", "1e300", "dt_out = 0.1 gives 1e+301 output rows"),
])
def test_bad_flag_values_are_config_errors_that_leave_no_output(tmp_path, capsys, flag, value,
                                                                message):
    out = tmp_path / "figs"
    assert cli.main(["figure", "fig1", "--out", str(out), flag, value]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


def test_readme_example_config_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```\n# sim.cfg\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sim.cfg").write_text(block)
    assert cli.main(["run", "sim.cfg", "--t-end", "2"]) == 0
    assert (tmp_path / "out.csv").is_file()
    assert sorted(p.name for p in tmp_path.glob("out_*.svg")) == [
        "out_coherences_im.svg", "out_coherences_re.svg",
        "out_entropy.svg", "out_populations.svg"]


def test_readme_library_quick_start_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    peak_pop3, deviation = map(float, capsys.readouterr().out.split())
    assert abs(peak_pop3 - 0.9376979776104218) <= 1e-6   # FIG3_PEAK_POP3 in test_acceptance
    assert deviation <= 1e-6


def test_unwritable_csv_path_maps_to_io_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "io.cfg",
                    f"preset = fig1\nt_end = 1\ndt_out = 0.5\n"
                    f"csv = {tmp_path}/no/such/dir/out.csv\n")
    assert cli.main(["run", cfg]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_solver_failure_maps_to_exit_code_3(tmp_path, monkeypatch, capsys):
    from trilevel import propagator

    def boom(*args, **kwargs):
        raise propagator.PropagationError("restart failed to advance")

    monkeypatch.setattr(cli, "solve", boom)
    cfg = write_cfg(tmp_path / "s.cfg", "preset = fig1\ncsv = out.csv\n")
    assert cli.main(["run", cfg]) == 3
    assert "solver error" in capsys.readouterr().err


def test_a_chart_that_cannot_advance_is_a_solver_error(tmp_path, monkeypatch, capsys):
    # every first Riccati step blows up, so the first chart cannot advance
    from trilevel import riccati

    monkeypatch.setattr(riccati, "BLOWUP_THRESHOLD", 1e-12)
    csv = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path / "s.cfg", f"preset = fig1\nt_end = 1\ndt_out = 0.5\ncsv = {csv}\n")
    assert cli.main(["run", cfg]) == 3
    assert "solver error" in capsys.readouterr().err
    assert not csv.exists()


def test_a_step_size_collapse_is_a_solver_error(tmp_path, monkeypatch, capsys):
    # a NaN right-hand side rejects every Riccati step until the step falls
    # below 10 ulp of t
    from trilevel import riccati

    monkeypatch.setattr(riccati, "mu_rhs", lambda t, y, factors: (complex(math.nan),) * 3)
    csv = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path / "s.cfg", f"preset = fig1\nt_end = 1\ndt_out = 0.5\ncsv = {csv}\n")
    assert cli.main(["run", cfg]) == 3
    assert capsys.readouterr().err == "solver error: step size collapsed at t = 0\n"
    assert not csv.exists()


def test_a_linear_algebra_failure_is_a_solver_error(tmp_path, monkeypatch, capsys):
    # numpy's LinAlgError subclasses ValueError, but the input is valid.  The
    # eigenvalue solve is made to fail here: valid inputs once made it fail of
    # itself (fig5 without decay to t_end = 1e15, whose U(T)^n overflowed), but
    # the power of an SU(2) matrix no longer grows.
    def fail(rho):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(observables, "spectrum", fail)
    csv = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path / "s.cfg", f"preset = fig5\nt_end = 1\ndt_out = 0.5\ncsv = {csv}\n")
    assert cli.main(["run", cfg]) == 3
    assert capsys.readouterr().err == "solver error: Eigenvalues did not converge\n"
    assert not csv.exists()


# --- one parser per process -----------------------------------------------

def test_main_builds_its_parser_on_the_first_call_only(tmp_path, monkeypatch):
    # the parser is shared by every call in a process: once a call has built
    # it, no later call constructs an ArgumentParser, for a subcommand or not
    cfg = write_cfg(tmp_path / "run.cfg", FIG1_CONFIG.format(csv=tmp_path / "out.csv"))
    assert cli.main(["run", cfg]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli.main(["run", cfg]) == 0
    assert cli.main(["figure", "fig16", "--out", str(tmp_path), "--t-end", "1"]) == 0
    assert built == []


def test_flags_of_one_call_do_not_reach_the_next(tmp_path):
    csv = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path / "run.cfg", FIG1_CONFIG.format(csv=csv))
    assert cli.main(["run", cfg, "--tol", "1e-6", "--t-end", "5", "--solver", "direct_rho"]) == 0
    flagged = csv.read_bytes()
    assert cli.main(["run", cfg]) == 0
    in_process = csv.read_bytes()
    assert len(flagged.splitlines()) == 12 and len(in_process.splitlines()) == 22
    csv.unlink()
    # the console script's entry point, in a process of its own
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c",
                    "import sys; from trilevel import cli; sys.exit(cli.main(sys.argv[1:]))",
                    "run", cfg], env=env, check=True, timeout=60)
    assert csv.read_bytes() == in_process


def test_a_usage_error_then_help_then_a_run_in_one_process(tmp_path, capsys):
    # argparse looks up sys.stdout and sys.stderr as it prints, so the shared
    # parser writes each message to the streams of the call that prints it
    cfg = write_cfg(tmp_path / "run.cfg", FIG1_CONFIG.format(csv=tmp_path / "out.csv"))
    assert cli.main(["run", cfg, "--solver", "magic"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: trilevel run")
    assert "trilevel run: error: argument --solver: invalid choice: 'magic'" in err
    assert cli.main(["run", "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: trilevel run") and "--solver" in out and err == ""
    assert cli.main(["run", cfg]) == 0
    assert capsys.readouterr() == ("", "")
    assert (tmp_path / "out.csv").is_file()


# --- check -----------------------------------------------------------------

def test_check_passes_on_a_fresh_build(capsys):
    assert cli.main(["check"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "24/24 checks passed" in out


def test_check_detects_tampered_generator(monkeypatch, capsys):
    tampered = -np.asarray(algebra.B_Z)
    tampered.setflags(write=False)
    monkeypatch.setattr(algebra, "B_Z", tampered)
    assert cli.main(["check"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_fails_the_stark_row_on_a_swapped_basis(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "STARK_PLUS_VECTOR", fields.STARK_MINUS_VECTOR)
    monkeypatch.setattr(oracle, "STARK_MINUS_VECTOR", fields.STARK_PLUS_VECTOR)
    assert cli.main(["check"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  stark basis diagonalizes the hydrogen drive" in out
    assert "FAIL  hydrogen closed form vs product solver" in out
    assert "22/24 checks passed" in out


@pytest.mark.parametrize("attr, corrupt, row", [
    ("A_X", lambda a: a.A_X + np.triu(np.ones((3, 3)), 1) * 1e-3, "algebra: A_x Hermitian"),
    ("B_X", lambda a: a.B_X * (1 + 1e-9), "algebra: B_plus/B_minus consistent with B_x, B_y"),
    ("B_PLUS", lambda a: a.B_X + 1j * a.B_Y + 1e-3 * np.eye(8),
     "algebra: ladder nilpotency degree"),
])
def test_corrupted_generator_fails_its_row(monkeypatch, capsys, attr, corrupt, row):
    monkeypatch.setattr(algebra, attr, corrupt(algebra))
    rows = {r.name: r for r in checks.verify_algebra()}
    assert len(rows) == 14
    assert not rows[row].passed
    assert cli.main(["check"]) == 1
    assert f"FAIL  {row}" in capsys.readouterr().out
