"""Independent reference solutions for cross-validation.

Two direct adaptive integrations (of the 8-component coherence-vector
equation and of the equivalent density-matrix master equation) plus the
closed-form solution for the degenerate n=3 hydrogen manifold in an
oscillating electric field.  None of these touch the product-form machinery,
so agreement with :func:`trilevel.propagator.run` validates both routes.
"""

from __future__ import annotations

import math

import numpy as np

from . import algebra
from .fields import (FieldConfig, STARK_MINUS_VECTOR, STARK_PLUS_VECTOR,
                     STARK_ZERO_VECTOR, epsilon, hydrogen_config, j_coupling)
from .propagator import (MAX_SAMPLES, Trajectory, output_grid, trajectory_from_etas,
                         trajectory_from_rhos)

_SQRT32 = math.sqrt(1.5)

_IVP_METHOD = "DOP853"

_I3 = np.eye(3, dtype=complex)


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call: the product
    path never integrates directly, and importing scipy.integrate would take
    most of the time of ``import trilevel``."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


def _max_step(cfg: FieldConfig) -> float:
    """A quarter of the shortest drive period, or inf for a static drive.

    DOP853's error estimate cannot see the drive on a state that commutes with
    it (a Stark eigenstate), and without a cap it steps over whole periods.
    """
    fastest = max(abs(cfg.Omega), abs(cfg.omega))
    return math.pi / (2.0 * fastest) if fastest > 0 else math.inf


# Superoperators on the row-major vec of a 3x3 matrix: -i [h, .] is
# -i (h (x) I - I (x) h^T), and the uniform decoherence per unit Gamma,
# Tr(rho) I/3 - rho, is vec(I) vec(I)^T / 3 - I_9.
_RHO_OPS = tuple(-1j * (np.kron(h, _I3) - np.kron(_I3, h.T)) for h in (algebra.A_Z, algebra.A_X))
_RHO_DECAY = np.outer(_I3.reshape(-1), _I3.reshape(-1)) / 3.0 - np.eye(9)
_ETA_OPS = (-1j * algebra.B_Z, -1j * algebra.B_X)


def _linear_rhs(cfg: FieldConfig, ops: tuple[np.ndarray, np.ndarray], decay: np.ndarray):
    """``y' = eps(t) ops[0] y + 2 J(t) ops[1] y + decay y`` as one stacked matvec.

    The stack K = [ops[0]; ops[1]; decay] is built once per solve, so a call is
    K @ y and one product with the coefficient vector (eps, 2J, 1).
    """
    n = decay.shape[0]
    stack = np.vstack((*ops, decay))

    def rhs(t, y):
        coeffs = np.array((epsilon(t, cfg), 2.0 * j_coupling(t, cfg), 1.0), dtype=complex)
        return coeffs @ (stack @ y).reshape(3, n)

    return rhs


def _integrate(rhs, y0: np.ndarray, cfg: FieldConfig, grid: np.ndarray,
               tol: float, what: str) -> np.ndarray:
    """The solution of ``y' = rhs(t, y)`` at the times of ``grid``, one row per time.

    A window that needs more than MAX_SAMPLES steps of the capped size is a
    ValueError, raised before scipy is imported: it would run for hours.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    t_end, max_step = float(grid[-1]), _max_step(cfg)
    if t_end / max_step > MAX_SAMPLES:
        raise ValueError(f"t_end = {t_end!r} needs at least {t_end / max_step:.3g} direct "
                         f"integration steps of at most {max_step:.3g} (a quarter of the "
                         f"shortest drive period); at most {MAX_SAMPLES} are allowed")
    sol = solve_ivp(rhs, (0.0, t_end), y0, t_eval=grid, rtol=tol, atol=tol,
                    method=_IVP_METHOD, max_step=max_step)
    if not sol.success:
        raise RuntimeError(f"direct {what} integration failed: {sol.message}")
    return sol.y.T


def integrate_eta_direct(cfg: FieldConfig, eta0: np.ndarray, t_end: float,
                         dt_out: float, tol: float) -> Trajectory:
    """Adaptive direct integration of the coherence-vector equation.

    ``eta0`` must be the coherence vector of a unit-trace density matrix.
    """
    eta0 = np.asarray(eta0, dtype=complex)
    if eta0.shape != (8,):
        raise ValueError(f"coherence vector must have shape (8,), got {eta0.shape}")
    algebra.validate_density_matrix(algebra.eta_to_rho(eta0))
    grid = output_grid(t_end, dt_out)
    rhs = _linear_rhs(cfg, _ETA_OPS, -cfg.Gamma * np.eye(8))
    etas = _integrate(rhs, eta0, cfg, grid, tol, "eta")
    return trajectory_from_etas(grid, etas)


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
    rhs = _linear_rhs(cfg, _RHO_OPS, cfg.Gamma * _RHO_DECAY)
    rhos = _integrate(rhs, rho0.reshape(-1), cfg, grid, tol, "rho")
    return trajectory_from_rhos(grid, rhos.reshape(-1, 3, 3))


def hydrogen_stark_basis() -> tuple[np.ndarray, np.ndarray]:
    """Parabolic eigenstates and eigenvalue factors of the hydrogen manifold.

    Returns ``(states, factors)`` where the columns of ``states`` are the
    eigenvectors (plus, minus, zero) and ``factors`` are the corresponding
    eigenvalues of the drive at unit amplitude:
    (-sqrt(3/2), +sqrt(3/2), 0); multiply by the field amplitude for the
    physical energies.  ``trilevel check`` verifies the eigen-equation
    against the drive of :func:`trilevel.fields.hydrogen_config`.
    """
    states = np.column_stack([STARK_PLUS_VECTOR, STARK_MINUS_VECTOR, STARK_ZERO_VECTOR])
    return states, np.array([-_SQRT32, _SQRT32, 0.0])


def hydrogen_density(A: float, omega: float, Gamma: float, rho0: np.ndarray,
                     t) -> np.ndarray:
    """Closed-form density matrix under uniform decoherence.

    rho(t) = I/3 + exp(-Gamma t) (U(t) rho0 U(t)^H - I/3), where
    U(t) = S diag(exp(-i A f sin(omega t)/omega)) S^H is the decoherence-free
    propagator in the Stark basis ``S`` with factors ``f`` of
    :func:`hydrogen_stark_basis`.  ``rho0`` is any density matrix.  ``t`` is
    a time or an array of times; the matrices come back with shape
    shape(t) + (3, 3).
    """
    hydrogen_config(A, omega, Gamma)  # finite A, omega, Gamma and Gamma >= 0
    if omega == 0.0:
        raise ValueError("omega must be nonzero for the oscillating-field closed form")
    rho0 = algebra.validate_density_matrix(rho0)
    t = np.asarray(t, dtype=float)
    states, factors = hydrogen_stark_basis()
    # Energy A*factor integrated over the cosine drive gives the phase
    # exp(-i A factor sin(omega t)/omega) per eigenstate.
    phases = np.exp(-1j * A * factors * np.sin(omega * t)[..., None] / omega)
    u = (states * phases[..., None, :]) @ states.conj().T
    eye3 = np.eye(3, dtype=complex) / 3.0
    return eye3 + np.exp(-Gamma * t)[..., None, None] * (
        u @ rho0 @ np.swapaxes(u.conj(), -1, -2) - eye3)


def hydrogen_trajectory(A: float, omega: float, Gamma: float, rho0: np.ndarray,
                        t_end: float, dt_out: float) -> Trajectory:
    """Closed-form trajectory sampled on the standard output grid."""
    grid = output_grid(t_end, dt_out)
    return trajectory_from_rhos(grid, hydrogen_density(A, omega, Gamma, rho0, grid))
