"""Driving-field configurations and presets.

The two fields are ``epsilon(t) = A cos(Omega t)`` on the 1-2 coupling and
``J(t) = (B/2) cos(omega t + delta)`` on the 2-3 coupling.  A uniform
decoherence rate ``Gamma`` is a plain scalar decay of the coherence vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from . import config

_SQRT2 = math.sqrt(2.0)

FIELD_KEYS = ("A", "Omega", "B", "omega", "delta", "Gamma", "sign")

# The keys a preset block may set; anything else is a ConfigError.
PRESET_KEYS = frozenset(FIELD_KEYS) | {"initial", "t_end", "dt_out"}

INITIAL_KINDS = ("level1", "level2", "level3", "stark_plus", "stark_minus", "stark_zero")

# Parabolic (Stark) eigenstates of the degenerate n=3 hydrogen manifold in the
# (s, p, d) level ordering.
STARK_PLUS_VECTOR = np.array([1.0 / math.sqrt(3), 1.0 / _SQRT2, 1.0 / math.sqrt(6)], dtype=complex)
STARK_MINUS_VECTOR = np.array([1.0 / math.sqrt(3), -1.0 / _SQRT2, 1.0 / math.sqrt(6)], dtype=complex)
STARK_ZERO_VECTOR = np.array([1.0 / math.sqrt(3), 0.0, -_SQRT2 / math.sqrt(3)], dtype=complex)
for _v in (STARK_PLUS_VECTOR, STARK_MINUS_VECTOR, STARK_ZERO_VECTOR):
    _v.setflags(write=False)


class UnknownPresetError(ValueError):
    """No bundled preset has this name; the message lists the valid names."""


@dataclass(frozen=True)
class FieldConfig:
    """Amplitudes, frequencies, relative phase and decoherence rate.

    ``sign_convention`` multiplies both couplings; populations do not depend
    on it, but amplitude-level comparison with the hydrogen Stark solution
    fixes it to -1 for the hydrogen presets.
    """

    A: float
    Omega: float
    B: float
    omega: float
    delta: float = 0.0
    Gamma: float = 0.0
    sign_convention: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            # Python floats, so the drive functions never hand a numpy scalar
            # to the Riccati stepper's scalar arithmetic
            object.__setattr__(self, name, float(value))
        if self.Gamma < 0:
            raise ValueError("Gamma must be >= 0")
        if self.sign_convention not in (1.0, -1.0, 1, -1):
            raise ValueError("sign_convention must be +1 or -1")


def field_config_from_entries(entries: dict[str, str]) -> FieldConfig:
    """Build a FieldConfig from raw config entries; invalid values are a ConfigError."""
    cfg_kwargs = dict(
        A=config.get_float(entries, "A"),
        Omega=config.get_float(entries, "Omega"),
        B=config.get_float(entries, "B"),
        omega=config.get_float(entries, "omega"),
        delta=config.get_float(entries, "delta", 0.0),
        Gamma=config.get_float(entries, "Gamma", 0.0),
        sign_convention=config.get_float(entries, "sign", 1.0),
    )
    try:
        return FieldConfig(**cfg_kwargs)
    except ValueError as exc:
        raise config.ConfigError(str(exc)) from None


def epsilon(t: float, cfg: FieldConfig) -> float:
    """Instantaneous 1-2 coupling strength."""
    return cfg.sign_convention * cfg.A * math.cos(cfg.Omega * t)


def j_coupling(t: float, cfg: FieldConfig) -> float:
    """Instantaneous 2-3 coupling strength (half the B amplitude)."""
    return cfg.sign_convention * 0.5 * cfg.B * math.cos(cfg.omega * t + cfg.delta)


def epsilon_dot(t: float, cfg: FieldConfig) -> float:
    """Time derivative of the 1-2 coupling."""
    return -cfg.sign_convention * cfg.A * cfg.Omega * math.sin(cfg.Omega * t)


def j_coupling_dot(t: float, cfg: FieldConfig) -> float:
    """Time derivative of the 2-3 coupling."""
    return -cfg.sign_convention * 0.5 * cfg.B * cfg.omega * math.sin(cfg.omega * t + cfg.delta)


@dataclass(frozen=True)
class InitialState:
    """Named pure initial density matrix."""

    kind: str

    def __post_init__(self):
        if self.kind not in INITIAL_KINDS:
            raise ValueError(f"initial state kind must be one of {INITIAL_KINDS}, got {self.kind!r}")

    def density(self) -> np.ndarray:
        if self.kind.startswith("level"):
            i = int(self.kind[-1]) - 1
            rho = np.zeros((3, 3), dtype=complex)
            rho[i, i] = 1.0
            return rho
        vec = {"stark_plus": STARK_PLUS_VECTOR,
               "stark_minus": STARK_MINUS_VECTOR,
               "stark_zero": STARK_ZERO_VECTOR}[self.kind]
        return np.outer(vec, vec.conj())


@dataclass(frozen=True)
class Preset:
    """A named parameter set: field config, initial state, output window."""

    name: str
    config: FieldConfig
    initial: InitialState
    t_end: float
    dt_out: float


def hydrogen_config(amplitude: float, omega: float = 1.0, Gamma: float = 0.0) -> FieldConfig:
    """Field config for the n=3 hydrogen manifold in an oscillating field.

    Locks the two couplings to the dipole ratio (A/B = sqrt(2)), equal
    frequencies, zero relative phase, and the sign convention that matches the
    Stark closed form at amplitude level.
    """
    # checked here, so that a bad omega is named as passed, not as the Omega it is copied to
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega!r}")
    return FieldConfig(A=amplitude, Omega=omega, B=amplitude / _SQRT2, omega=omega,
                       delta=0.0, Gamma=Gamma, sign_convention=-1.0)


@lru_cache(maxsize=1)
def _preset_blocks() -> dict[str, dict[str, str]]:
    return config.parse_blocks(
        resources.files("trilevel").joinpath("presets.cfg").read_text(encoding="utf-8"))


@lru_cache(maxsize=1)
def _preset_table() -> dict[str, Preset]:
    return _parse_presets(_preset_blocks())


def _parse_presets(blocks: dict[str, dict[str, str]]) -> dict[str, Preset]:
    table = {}
    for name, entries in blocks.items():
        unknown = set(entries) - PRESET_KEYS
        if unknown:
            raise config.ConfigError(f"unknown key {min(unknown)!r} in preset [{name}]")
        cfg = field_config_from_entries(entries)
        initial = InitialState(config.get_choice(entries, "initial", INITIAL_KINDS))
        table[name] = Preset(
            name=name,
            config=cfg,
            initial=initial,
            t_end=config.get_float(entries, "t_end"),
            dt_out=config.get_float(entries, "dt_out"),
        )
    return table


def preset_names() -> tuple[str, ...]:
    return tuple(_preset_table())


def preset(name: str) -> Preset:
    """Look up a bundled preset by name (fig1..fig17, hydrogen)."""
    table = _preset_table()
    if name not in table:
        raise UnknownPresetError(f"unknown preset {name!r}; valid names: {', '.join(table)}")
    return table[name]


def preset_entries(name: str) -> dict[str, str]:
    """The raw ``key = value`` block of a bundled preset, as in presets.cfg."""
    preset(name)  # an unknown name raises here
    return dict(_preset_blocks()[name])
