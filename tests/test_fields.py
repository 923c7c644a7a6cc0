import math
from importlib import resources

import numpy as np
import pytest

from trilevel import config, fields

SQRT2 = math.sqrt(2.0)


def test_epsilon_values():
    cfg = fields.FieldConfig(A=0.05, Omega=0.0, B=0.5, omega=1.0)
    assert fields.epsilon(0.0, cfg) == 0.05
    cfg0 = fields.FieldConfig(A=0.0, Omega=2.0, B=0.5, omega=1.0)
    assert all(fields.epsilon(t, cfg0) == 0.0 for t in (0.0, 1.0, 7.7))
    cfg1 = fields.FieldConfig(A=1.0, Omega=1.0, B=0.0, omega=1.0)
    assert fields.epsilon(math.pi, cfg1) == pytest.approx(-1.0, abs=1e-15)


def test_j_coupling_values():
    cfg = fields.FieldConfig(A=1.0, Omega=1.0, B=0.5, omega=1.0, delta=math.pi / 2)
    assert abs(fields.j_coupling(0.0, cfg)) <= 1e-16
    cfg2 = fields.FieldConfig(A=1.0, Omega=1.0, B=0.5, omega=1.0, delta=0.0)
    assert fields.j_coupling(0.0, cfg2) == 0.25


def test_hydrogen_coupling_ratio():
    cfg = fields.hydrogen_config(2.5)
    for t in np.linspace(0.1, 6.0, 17):
        j2 = 2.0 * fields.j_coupling(t, cfg)
        if abs(j2) > 1e-12:
            assert fields.epsilon(t, cfg) / j2 == pytest.approx(SQRT2, abs=1e-12)


def test_field_config_validation():
    with pytest.raises(ValueError, match="Gamma"):
        fields.FieldConfig(A=1.0, Omega=1.0, B=1.0, omega=1.0, Gamma=-0.1)
    with pytest.raises(ValueError, match="sign"):
        fields.FieldConfig(A=1.0, Omega=1.0, B=1.0, omega=1.0, sign_convention=2.0)
    with pytest.raises(ValueError, match="Gamma must be finite"):
        fields.FieldConfig(A=1.0, Omega=1.0, B=1.0, omega=1.0, Gamma=math.nan)
    with pytest.raises(ValueError, match="omega must be finite"):
        fields.FieldConfig(A=1.0, Omega=1.0, B=1.0, omega=math.inf)


CAPTION_PARAMETERS = {
    # name: (A, Omega, B, omega, delta, Gamma, sign, initial kind)
    "fig1": (0.05, 0.0, 0.5, 1.0, 0.0, 0.02, 1.0, "level1"),
    "fig2": (0.15, 0.0, 0.5, 1.0, 0.0, 0.02, 1.0, "level1"),
    "fig3": (0.5, 0.1, 1.0, 1.0, 0.0, 0.02, 1.0, "level1"),
    "fig4": (1.0, 0.1, 1 / SQRT2, 1.0, 0.0, 0.08, 1.0, "level1"),
    "fig5": (1.0, 1.0, 1 / SQRT2, 1.0, -math.pi / 6, 0.02, 1.0, "level1"),
    "fig6": (1.0, 1.0, 1 / SQRT2, 1.0, math.pi / 6, 0.02, 1.0, "level1"),
    "fig7": (1.0, 1.0, 1 / SQRT2, 1.0, math.pi / 4, 0.02, 1.0, "level1"),
    "fig8": (1.0, 1.0, 1 / SQRT2, 1.0, math.pi / 2, 0.02, 1.0, "level1"),
    "fig9": (2.0, 1.0, SQRT2, 1.0, 0.0, 0.02, 1.0, "level2"),
    "fig10": (10.0, 1.0, 5 * SQRT2, 1.0, 0.0, 0.02, 1.0, "level2"),
    "fig12": (1.0, 1.0, 1 / SQRT2, 1.0, 0.0, 0.02, -1.0, "level1"),
    "fig13": (2.0, 1.0, 2 / SQRT2, 1.0, 0.0, 0.02, -1.0, "level1"),
    "fig14": (10.0, 1.0, 10 / SQRT2, 1.0, 0.0, 0.02, -1.0, "level1"),
    "fig15": (2.0, 1.0, 2 / SQRT2, 1.0, 0.0, 0.08, -1.0, "level1"),
    "fig16": (1.0, 1.0, 1 / SQRT2, 1.0, 0.0, 0.0, -1.0, "stark_plus"),
    "fig17": (1.0, 1.0, 1 / SQRT2, 1.0, 0.0, 0.2, -1.0, "stark_plus"),
    "hydrogen": (1.0, 1.0, 1 / SQRT2, 1.0, 0.0, 0.0, -1.0, "level1"),
}


@pytest.mark.parametrize("name", sorted(CAPTION_PARAMETERS))
def test_preset_parameters(name):
    a, om_big, b, om, delta, gamma, sign, kind = CAPTION_PARAMETERS[name]
    ps = fields.preset(name)
    assert ps.config.A == a
    assert ps.config.Omega == om_big
    assert ps.config.B == b
    assert ps.config.omega == om
    assert ps.config.delta == delta
    assert ps.config.Gamma == gamma
    assert ps.config.sign_convention == sign
    assert ps.initial.kind == kind
    assert ps.t_end > 0 and ps.dt_out > 0


def test_preset_names_and_unknown_error():
    names = fields.preset_names()
    assert len(names) == 18
    with pytest.raises(fields.UnknownPresetError) as err:
        fields.preset("fig99")
    assert "fig1" in str(err.value) and "hydrogen" in str(err.value)


@pytest.fixture
def preset_text(monkeypatch):
    """Serve the bundled presets from the given text instead of presets.cfg."""
    def use(text):
        monkeypatch.setattr(fields, "_preset_blocks", lambda: config.parse_blocks(text))
        fields.preset.cache_clear()
    yield use
    fields.preset.cache_clear()


def test_preset_blocks_reject_unknown_keys(preset_text):
    text = resources.files("trilevel").joinpath("presets.cfg").read_text(encoding="utf-8")
    bundled = {name: fields.preset(name) for name in fields.preset_names()}
    preset_text(text)
    assert {name: fields.preset(name) for name in fields.preset_names()} == bundled
    # a misspelled key must not silently fall back to the default Gamma = 0
    preset_text(text.replace("Gamma = 0.02", "Gama = 0.02", 1))
    with pytest.raises(config.ConfigError, match=r"'Gama' in preset \[fig1\]"):
        fields.preset("fig1")
    preset_text("[x]\nA = 1\nOmega = 1\nB = 1\nomega = 1\ninitial = level1\n"
                "t_end = 1\ndt_out = 0.5\nnote = text\n")
    with pytest.raises(config.ConfigError, match=r"'note' in preset \[x\]"):
        fields.preset("x")


@pytest.mark.parametrize("key", sorted(fields.PRESET_KEYS))
def test_a_preset_block_must_set_all_ten_keys(preset_text, key):
    # presets take no defaults: the run file defaults sit below them in
    # cli.load_run_spec, and preset_entries is what it reads a block through
    block = {k: v for k, v in fields.preset_entries("fig1").items() if k != key}
    preset_text("[fig1]\n" + "".join(f"{k} = {v}\n" for k, v in block.items()))
    for lookup in (fields.preset, fields.preset_entries):
        with pytest.raises(config.ConfigError, match=rf"'{key}' in preset \[fig1\]"):
            lookup("fig1")


def test_initial_state_densities():
    assert np.allclose(fields.InitialState("level2").density(),
                       np.diag([0.0, 1.0, 0.0]), atol=1e-16)
    for kind, vec in (("stark_plus", fields.STARK_PLUS_VECTOR),
                      ("stark_minus", fields.STARK_MINUS_VECTOR),
                      ("stark_zero", fields.STARK_ZERO_VECTOR)):
        rho = fields.InitialState(kind).density()
        assert np.allclose(rho, np.outer(vec, vec.conj()), atol=1e-15)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert abs(np.real(np.trace(rho @ rho)) - 1.0) <= 1e-12  # pure

    with pytest.raises(ValueError):
        fields.InitialState("level4")


def test_stark_vectors_are_orthonormal():
    basis = np.column_stack([fields.STARK_PLUS_VECTOR, fields.STARK_MINUS_VECTOR,
                             fields.STARK_ZERO_VECTOR])
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(3))) <= 1e-15
