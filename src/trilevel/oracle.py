"""Independent reference solutions for cross-validation.

Two direct adaptive integrations (of the 8-component coherence-vector
equation and of the equivalent density-matrix master equation) plus the
closed-form solution for the degenerate n=3 hydrogen manifold in an
oscillating electric field.  None of these touch the product-form machinery,
so agreement with :func:`trilevel.propagator.run` validates both routes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from . import algebra
from .fields import (FieldConfig, STARK_MINUS_VECTOR, STARK_PLUS_VECTOR,
                     STARK_ZERO_VECTOR, epsilon, j_coupling)
from .propagator import Trajectory, output_grid, trajectory_from_etas, trajectory_from_rhos

_SQRT2 = math.sqrt(2.0)
_SQRT32 = math.sqrt(1.5)

_IVP_METHOD = "DOP853"


class ZeroFrequencyError(ValueError):
    """The closed form is written for an oscillating field; omega = 0 has no
    (A/omega) sin(omega t) phase and is rejected rather than silently
    replaced by its limit."""


class AmplitudeTriple(NamedTuple):
    """Complex amplitudes of the 3s, 3p, 3d states."""

    s: complex
    p: complex
    d: complex

    def populations(self) -> np.ndarray:
        return np.array([abs(self.s) ** 2, abs(self.p) ** 2, abs(self.d) ** 2])


def _max_step(cfg: FieldConfig) -> float:
    """A quarter of the shortest drive period, or inf for a static drive.

    DOP853's error estimate cannot see the drive on a state that commutes with
    it (a Stark eigenstate), and without a cap it steps over whole periods.
    """
    fastest = max(abs(cfg.Omega), abs(cfg.omega))
    return math.pi / (2.0 * fastest) if fastest > 0 else math.inf


def integrate_eta_direct(cfg: FieldConfig, eta0: np.ndarray, t_end: float,
                         dt_out: float, tol: float) -> Trajectory:
    """Adaptive direct integration of the coherence-vector equation."""
    grid = output_grid(t_end, dt_out)
    bz = algebra.B_Z
    bx = algebra.B_X
    gamma = cfg.Gamma

    def rhs(t, y):
        return -1j * (epsilon(t, cfg) * (bz @ y) + 2.0 * j_coupling(t, cfg) * (bx @ y)) - gamma * y

    sol = solve_ivp(rhs, (0.0, t_end), np.asarray(eta0, dtype=complex),
                    t_eval=grid, rtol=tol, atol=tol, method=_IVP_METHOD,
                    max_step=_max_step(cfg))
    if not sol.success:
        raise RuntimeError(f"direct eta integration failed: {sol.message}")
    return trajectory_from_etas(grid, sol.y.T)


def integrate_rho_direct(cfg: FieldConfig, rho0: np.ndarray, t_end: float,
                         dt_out: float, tol: float) -> Trajectory:
    """Adaptive direct integration of the master equation in matrix form.

    The uniform decoherence model is the superoperator
    ``-Gamma (rho - (Tr rho / 3) I)``: the unique choice whose image in
    coherence-vector coordinates is a plain scalar decay of all eight
    components.
    """
    rho0 = algebra.validate_density_matrix(rho0)
    grid = output_grid(t_end, dt_out)
    az = algebra.A_Z
    ax = algebra.A_X
    eye = np.eye(3, dtype=complex)
    gamma = cfg.Gamma

    def rhs(t, y):
        rho = y.reshape(3, 3)
        h = epsilon(t, cfg) * az + 2.0 * j_coupling(t, cfg) * ax
        drho = -1j * (h @ rho - rho @ h)
        if gamma != 0.0:
            drho -= gamma * (rho - (np.trace(rho) / 3.0) * eye)
        return drho.reshape(-1)

    sol = solve_ivp(rhs, (0.0, t_end), rho0.reshape(-1),
                    t_eval=grid, rtol=tol, atol=tol, method=_IVP_METHOD,
                    max_step=_max_step(cfg))
    if not sol.success:
        raise RuntimeError(f"direct rho integration failed: {sol.message}")
    return trajectory_from_rhos(grid, sol.y.T.reshape(-1, 3, 3))


def hydrogen_amplitudes(A: float, omega: float, t: float) -> AmplitudeTriple:
    """Closed-form amplitudes for initial 3s population, no decoherence.

    With theta(t) = sqrt(3/2) (A/omega) sin(omega t):
    s = (1 + 2 cos theta)/3, p = i sqrt(2/3) sin theta,
    d = sqrt(2)/3 (cos theta - 1).
    """
    if omega == 0.0:
        raise ZeroFrequencyError("omega must be nonzero for the oscillating-field closed form")
    theta = _SQRT32 * (A / omega) * math.sin(omega * t)
    return AmplitudeTriple(
        s=(1.0 + 2.0 * math.cos(theta)) / 3.0,
        p=1j * math.sqrt(2.0 / 3.0) * math.sin(theta),
        d=(_SQRT2 / 3.0) * (math.cos(theta) - 1.0),
    )


def _unit_coupling_matrix() -> np.ndarray:
    # Constant coefficient matrix of the hydrogen Schroedinger system at unit
    # amplitude: couplings -1 (s-p) and -1/sqrt(2) (p-d).
    return np.array([[0.0, -1.0, 0.0],
                     [-1.0, 0.0, -1.0 / _SQRT2],
                     [0.0, -1.0 / _SQRT2, 0.0]], dtype=complex)


def hydrogen_stark_basis() -> tuple[np.ndarray, np.ndarray]:
    """Parabolic eigenstates and eigenvalue factors of the hydrogen manifold.

    Returns ``(states, factors)`` where the columns of ``states`` are the
    eigenvectors (plus, minus, zero) and ``factors`` are the corresponding
    eigenvalues of the unit-amplitude coupling matrix:
    (-sqrt(3/2), +sqrt(3/2), 0); multiply by the field amplitude for the
    physical energies.  The analytic states are cross-checked against a
    numerical diagonalization on every call.
    """
    states = np.column_stack([STARK_PLUS_VECTOR, STARK_MINUS_VECTOR, STARK_ZERO_VECTOR])
    factors = np.array([-_SQRT32, _SQRT32, 0.0])
    m = _unit_coupling_matrix()
    dev = float(np.max(np.abs(m @ states - states * factors)))
    if dev > 1e-12:
        raise AssertionError(f"analytic Stark basis disagrees with diagonalization ({dev:.3e})")
    return states, factors


def _pure_state_vector(rho0: np.ndarray) -> np.ndarray:
    lam, vec = np.linalg.eigh(np.asarray(rho0, dtype=complex))
    if abs(lam[-1] - 1.0) > 1e-9:
        raise ValueError("initial state must be pure for the closed-form evolution")
    return vec[:, -1]


def hydrogen_schroedinger(A: float, omega: float, psi0: np.ndarray, t) -> np.ndarray:
    """Unitary evolution of a pure state in the oscillating Stark field.

    ``t`` is a time or an array of times; the states come back with shape
    shape(t) + (3,).
    """
    if omega == 0.0:
        raise ZeroFrequencyError("omega must be nonzero for the oscillating-field closed form")
    states, factors = hydrogen_stark_basis()
    coeffs = states.conj().T @ np.asarray(psi0, dtype=complex)
    # Energy A*factor integrated over the cosine drive gives the phase
    # exp(-i A factor sin(omega t)/omega) per eigenstate.
    sin = np.sin(omega * np.asarray(t, dtype=float))[..., None]
    phases = np.exp(-1j * A * factors * sin / omega)
    return (phases * coeffs) @ states.T


def hydrogen_density(A: float, omega: float, Gamma: float, rho0: np.ndarray,
                     t) -> np.ndarray:
    """Closed-form density matrix under uniform decoherence.

    rho(t) = I/3 + exp(-Gamma t) (|psi(t)><psi(t)| - I/3) with |psi(t)> the
    decoherence-free evolution of the (pure) initial state.  ``t`` is a time
    or an array of times; the matrices come back with shape shape(t) + (3, 3).
    """
    t = np.asarray(t, dtype=float)
    psi = hydrogen_schroedinger(A, omega, _pure_state_vector(rho0), t)
    eye3 = np.eye(3, dtype=complex) / 3.0
    proj = np.einsum("...i,...j->...ij", psi, psi.conj())
    return eye3 + np.exp(-Gamma * t)[..., None, None] * (proj - eye3)


def hydrogen_trajectory(A: float, omega: float, Gamma: float, rho0: np.ndarray,
                        t_end: float, dt_out: float) -> Trajectory:
    """Closed-form trajectory sampled on the standard output grid."""
    grid = output_grid(t_end, dt_out)
    return trajectory_from_rhos(grid, hydrogen_density(A, omega, Gamma, rho0, grid))
