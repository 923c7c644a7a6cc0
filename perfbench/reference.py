"""Tight reference solutions, written independently of the package under test.

The benchmark judges the program's output, so it does not use the program's
own oracles as the judge.  Two references:

* the master equation ``drho/dt = -i[H, rho] - Gamma (rho - Tr(rho) I/3)`` with
  ``H = s A cos(Omega t) Az + s B cos(omega t + delta) Ax``, integrated by
  scipy's DOP853 at rtol = atol = 1e-13;
* the closed form for drives that commute with themselves at all times
  (``Omega = omega``, ``delta = 0``, as in the hydrogen preset), where
  ``U(t) = exp(-i K sin(omega t) / omega)`` with ``K = s (A Az + B Ax)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

REF_TOL = 1e-13

# Level couplings: Az couples levels 1-2, Ax couples levels 2-3.
_AZ = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
_AX = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
_EYE = np.eye(3, dtype=complex)

_STARK = {
    "stark_plus": np.array([1 / math.sqrt(3), 1 / math.sqrt(2), 1 / math.sqrt(6)]),
    "stark_minus": np.array([1 / math.sqrt(3), -1 / math.sqrt(2), 1 / math.sqrt(6)]),
    "stark_zero": np.array([1 / math.sqrt(3), 0.0, -math.sqrt(2) / math.sqrt(3)]),
}


@dataclass(frozen=True)
class Drive:
    """One simulation input: fields, decay, initial state and output window."""

    A: float
    Omega: float
    B: float
    omega: float
    delta: float
    Gamma: float
    sign: float
    initial: str
    t_end: float
    dt_out: float


def initial_density(kind: str) -> np.ndarray:
    if kind.startswith("level"):
        rho = np.zeros((3, 3), dtype=complex)
        i = int(kind[-1]) - 1
        rho[i, i] = 1.0
        return rho
    v = _STARK[kind].astype(complex)
    return np.outer(v, v.conj())


def output_times(t_end: float, dt_out: float) -> np.ndarray:
    """Uniform samples 0, dt, 2dt, ... with the last one at t_end."""
    n = int(math.ceil(t_end / dt_out - 1e-9))
    grid = np.arange(n + 1) * dt_out
    grid[-1] = min(grid[-1], t_end)
    if grid[-1] < t_end:
        grid = np.append(grid, t_end)
    return grid


def _commuting(d: Drive) -> bool:
    return d.Omega == d.omega and d.delta == 0.0 and d.omega != 0.0


def reference_rho(d: Drive, times: np.ndarray) -> np.ndarray:
    """Density matrices of shape (len(times), 3, 3) for drive ``d``."""
    rho0 = initial_density(d.initial)
    if _commuting(d):
        return _closed_form(d, rho0, times)
    return _master_equation(d, rho0, times)


def _closed_form(d: Drive, rho0: np.ndarray, times: np.ndarray) -> np.ndarray:
    lam, vec = np.linalg.eigh(d.sign * (d.A * _AZ + d.B * _AX))
    out = np.empty((len(times), 3, 3), dtype=complex)
    for k, t in enumerate(times):
        u = (vec * np.exp(-1j * lam * math.sin(d.omega * t) / d.omega)) @ vec.conj().T
        out[k] = _EYE / 3 + math.exp(-d.Gamma * t) * (u @ rho0 @ u.conj().T - _EYE / 3)
    return out


def _master_equation(d: Drive, rho0: np.ndarray, times: np.ndarray) -> np.ndarray:
    def rhs(t, y):
        rho = y.reshape(3, 3)
        h = d.sign * (d.A * math.cos(d.Omega * t) * _AZ
                      + d.B * math.cos(d.omega * t + d.delta) * _AX)
        drho = -1j * (h @ rho - rho @ h) - d.Gamma * (rho - (np.trace(rho) / 3) * _EYE)
        return drho.reshape(-1)

    sol = solve_ivp(rhs, (0.0, float(times[-1])), rho0.reshape(-1), t_eval=times,
                    rtol=REF_TOL, atol=REF_TOL, method="DOP853")
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T.reshape(-1, 3, 3)
