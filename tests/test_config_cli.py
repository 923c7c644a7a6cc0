import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trilevel import algebra, cli, config, fields, propagator


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


def test_coercion_helpers_name_the_key():
    with pytest.raises(config.ConfigError, match="tol"):
        config.get_float({"tol": "abc"}, "tol")
    with pytest.raises(config.ConfigError, match="tol must be finite"):
        config.get_float({"tol": "nan"}, "tol")
    with pytest.raises(config.ConfigError, match="solver"):
        config.get_choice({"solver": "magic"}, "solver", ("product",))


# --- run -------------------------------------------------------------------

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
                  propagator.Trajectory(table[:, 0], np.zeros((1, 3, 3)), np.zeros((1, 8)), table))
    assert (tmp_path / "edge.csv").read_text().splitlines()[1].split(",") == [
        "0.00000000000e+00", "0.00000000000e+00", "4.94065645841e-324", "-4.94065645841e-324",
        "2.22507385851e-308", "1.00000000000e+300", "-1.00000000000e+300", "3.33333333333e-01",
        "-2.50000000000e+00", "1.00000000000e-05", "1.23456789000e+08", "1.00000000000e-01",
        "-1.00000000000e-300", "7.00000000000e+00", "1.79769313486e+308", "0.00000000000e+00"]


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


def test_run_rejects_a_sign_other_than_plus_or_minus_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", "preset = fig1\ncsv = x.csv\nsign = 2\n")
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: sign")


def test_run_rejects_unknown_keys_and_bad_tol(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", "preset = fig1\ncsv = x.csv\nbogus = 1\n")
    assert cli.main(["run", cfg]) == 2
    assert "bogus" in capsys.readouterr().err
    cfg2 = write_cfg(tmp_path / "bad2.cfg", "preset = fig1\ncsv = x.csv\ntol = 0.01\n")
    assert cli.main(["run", cfg2]) == 2
    assert "tol" in capsys.readouterr().err


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


# --- check -----------------------------------------------------------------

def test_check_passes_on_a_fresh_build(capsys):
    assert cli.main(["check"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_check_detects_tampered_generator(monkeypatch, capsys):
    tampered = -np.asarray(algebra.B_Z)
    tampered.setflags(write=False)
    monkeypatch.setattr(algebra, "B_Z", tampered)
    assert cli.main(["check"]) == 1
    assert "FAIL" in capsys.readouterr().out
