"""Independent reference solutions for cross-validation.

Two direct adaptive integrations (of the 8-component coherence-vector
equation and of the equivalent density-matrix master equation) plus the
closed-form solution for the degenerate n=3 hydrogen manifold in an
oscillating electric field.  None of these touch the product-form machinery,
so agreement with :func:`trilevel.propagator.run` validates both routes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import algebra
from .fields import (FieldConfig, STARK_MINUS_VECTOR, STARK_PLUS_VECTOR,
                     STARK_ZERO_VECTOR, drive_factors, hydrogen_config)
from .propagator import (MAX_SAMPLES, Trajectory, output_grid, trajectory_from_etas,
                         trajectory_from_rhos)
from .riccati import (_A, _A_EXTRA, _B, _C, _C_EXTRA, _DENSE_STAGES, _E3, _E5,
                      _ERROR_EXPONENT, _MAX_FACTOR, _MIN_FACTOR, _SAFETY, _dense, _evaluate,
                      check_tol)

_SQRT32 = math.sqrt(1.5)

_I3 = np.eye(3, dtype=complex)

# Accepted steps that hold output times are buffered, and their dense output
# is built for the whole block at once when it holds _DENSE_BLOCK steps or
# _DENSE_ROWS output rows: for the 9-component rho equation, the step buffers
# and the generators of a block take 0.4 MB, and the interpolation of 1024
# rows about as much.
_DENSE_BLOCK = 64
_DENSE_ROWS = 1024


class _Solution(NamedTuple):
    y: np.ndarray        # shape (n, len(t_eval)), as scipy's solve_ivp returns it
    nfev: int
    success: bool
    message: str


class _LinearRHS:
    """The direct oracles' right-hand side ``y' = L(t) y``, with the generator
    ``L(t) = sum_k coeffs(t)[k] stack[k]`` for real coefficients.  Calling it
    gives ``L(t) y``; :func:`solve_ivp` forms the generators at all stage
    times of a step at once, as :meth:`generators` does.
    """

    def __init__(self, stack: np.ndarray, coeffs):
        self.stack = stack = np.ascontiguousarray(stack, dtype=complex)
        self.coeffs = coeffs
        self._flat = stack.reshape(len(stack), -1).view(float)

    def generators(self, times) -> np.ndarray:
        """``L(t)`` for each ``t`` of ``times``, shape ``(len(times), n, n)``."""
        n = self.stack.shape[-1]
        coeffs = np.fromiter(chain.from_iterable(map(self.coeffs, times)), float,
                             len(times) * len(self.stack)).reshape(len(times), -1)
        return (coeffs @ self._flat).view(complex).reshape(-1, n, n)

    def __call__(self, t, y):
        return self.generators((t,))[0] @ y


# DOP853's 16 stages in riccati's literals: stages 0-11 are the method's, stage
# 12 is the derivative at the new point (its row is the solution weights B, its
# time 1) and stages 13-15 feed the dense output.  Row s weighs stages 0 .. s - 1.
_STAGE_TIMES = np.array((*_C, 1.0, *_C_EXTRA))
_STAGE_ROWS = (*_A, _B, *_A_EXTRA)
_ERROR_ROWS = np.array((_E5, _E3))


def solve_ivp(fun: _LinearRHS, t_span, y0, t_eval, rtol, atol, max_step) -> _Solution:
    """``scipy.integrate.solve_ivp(fun, t_span, y0, t_eval=t_eval, rtol=rtol,
    atol=atol, max_step=max_step, method="DOP853", first_step=t_span[1] - t_span[0])``
    for a linear right-hand side.

    The first attempted step is the whole window, capped at ``max_step``, as in
    :func:`~trilevel.riccati.solve_mu`: no rule with a unit of time picks it.
    The same method and step control, so the same steps and the same ``nfev``
    until a stage overflows: 1 at the start, 12 per attempted step and 3 per
    dense output.  The generators of a whole step come from one product, each
    stage is ``hL @ (y + a @ hK)`` on stages ``hK`` scaled by the step and
    ``a`` riccati's stage rows as they are.  Dense output is built only for
    steps that hold times of ``t_eval`` (ascending, within ``t_span``, which
    runs forward), by scipy's rule those in (t_old, t_new] and ``t_span[0]`` on
    the first step: a block of such steps at a time, their extra stages,
    riccati's ``_dense`` (on the stages ``h K`` with a step of 1) and riccati's
    ``_evaluate`` on the block's steps, with the same floating-point operations
    per step.  A row on a step's end node is that node exactly.

    A solve of more than MAX_SAMPLES accepted steps is a ValueError, raised at
    the step past the cap: with B = 1e100 every step is some 1e-100 long, and
    the solve would run without end.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    y = np.asarray(y0, dtype=complex)
    f = fun(t, y)
    h_abs = math.inf   # clamped to max_step, then clipped to the window
    times = np.asarray(t_eval, dtype=float)
    n, stages, grid = y.size, len(_E5), times.tolist()
    out = np.empty((len(grid), n), dtype=complex)
    # z = [y; h K_0; ...; h K_15]: stage s is hL_s @ ((1, *row s) @ z[:s + 1]),
    # the sum taken as one real product on the interleaved real and imaginary parts
    z = np.empty((len(_STAGE_ROWS) + 1, n), dtype=complex)
    z_rows, z_flat = list(z), z.view(float)
    sums = [(np.array((1.0, *row)), z_flat[:s + 1]) for s, row in enumerate(_STAGE_ROWS)]
    # the step's buffers, made once per solve: its generators hL_1 .. hL_{stages - 1};
    # the sum of the stage at hand, which after the last stage is the new y; |y| and
    # |y_new|, swapped on acceptance; the error scale and the E5 and E3 rows.  f, this
    # call's own, is updated in place, and z[0] holds y from one accepted step to the next.
    gens = np.empty((stages - 1, n, n), dtype=complex)
    y_sum = np.empty(2 * n)
    y_new = y_sum.view(complex)
    abs_y, abs_new, scale, w = np.abs(y), np.empty(n), np.empty(n), np.empty((2, 2 * n))
    w3, scale_col, err_stages = w.reshape(2, n, 2), scale[:, None], z_flat[1:stages + 1]
    stage_times = _STAGE_TIMES[1:stages].tolist()
    # a step's generators are generators()'s product, written into gens through a
    # view made once here, where generators() would redo its views every step
    coeffs, n_coeffs, flat = fun.coeffs, (stages - 1) * len(fun.stack), fun._flat
    gens_flat = gens.reshape(stages - 1, -1).view(float)
    # the step's stages 1 .. stages - 1: their sums and matvecs as bound ndarray.dot
    # methods, which skip np.dot's Python-level dispatch and give the same bits, the
    # operand of each sum and the row each stage fills
    step_stages = [(row.dot, earlier, z_row, gen.dot) for (row, earlier), z_row, gen
                   in zip(sums[1:stages], z_rows[2:stages + 1], gens)]
    err_dot = _ERROR_ROWS.dot
    # the buffered steps: z[:stages + 1] of each with room for its dense-output
    # stages, then its new y, and (t_old, h, t_new) of each; rows first .. done - 1
    zs = np.empty((_DENSE_BLOCK, len(_STAGE_ROWS) + 2, n), dtype=complex)
    steps = []

    def flush():
        # the buffered steps' extra stages, their dense output and the output
        # rows they hold, each operation taken on the whole block at once
        m = len(steps)
        t_old, h, t_new = (np.array(col) for col in zip(*steps))
        zb, zb_flat = zs[:m], zs[:m].view(float)
        extra_times = t_old[:, None] + h[:, None] * _STAGE_TIMES[stages:]
        hgens = fun.generators(extra_times.ravel().tolist()).reshape(m, -1, n, n)
        hgens *= h[:, None, None, None]
        for s in range(stages, len(_STAGE_ROWS)):
            v = (sums[s][0] @ zb_flat[:, :s + 1]).view(complex)
            np.matmul(hgens[:, s - stages], v[..., None], out=zb[:, s + 1, :, None])
        # _dense's stack: each step's y and new y, then its stages h K of _DENSE_STAGES
        dense = _dense(zb[:, [0, -1, *(1 + s for s in _DENSE_STAGES)]], np.ones(m))
        # each row's step and x, by scipy's rule, from a table of the block's steps
        out[first:done] = _evaluate(times[first:done], t_old, t_new, zb[:, 0].T, zb[:, -1].T,
                                    dense.transpose(1, 2, 0), np.zeros(m, dtype=bool))[1].T
        steps.clear()

    nfev, done, first, accepted = 1, 0, 0, 0
    z[0] = y
    while t < t_bound:
        min_step = 10.0 * math.ulp(t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                if steps:
                    flush()
                return _Solution(out[:done].T, nfev, False,
                                 "Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            np.fromiter(chain.from_iterable(map(coeffs, [t + h * c_s for c_s in stage_times])),
                        float, n_coeffs).reshape(stages - 1, -1).dot(flat, out=gens_flat)
            gens *= h
            np.multiply(h, f, out=z_rows[1])
            # dot calls BLAS directly, where matmul's ufunc machinery costs
            # more than these small products; it gives the same bits
            for row_dot, earlier, z_row, gen_dot in step_stages:
                row_dot(earlier, out=y_sum)
                gen_dot(y_new, out=z_row)
            nfev += stages - 1
            # scipy's error norm |h| e5 / sqrt((e5 + e3 / 100) n), for e5 and e3 the
            # squared norms of E5 @ K / scale and E3 @ K / scale, on the stages h K,
            # with scale = atol + max(|y|, |y_new|) rtol
            np.abs(y_new, out=abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            scale *= rtol
            scale += atol
            err_dot(err_stages, out=w)
            w3 /= scale_col
            e5, e3 = np.einsum("ijk,ijk->i", w3, w3).tolist()
            if e5 == 0 and e3 == 0:
                error_norm = 0.0
            else:
                error_norm = e5 / math.sqrt((e5 + 0.01 * e3) * n)
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else min(
                    _MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t_old, t = t, t_new
        accepted += 1
        if accepted > MAX_SAMPLES:
            raise ValueError(f"t_end = {t_bound!r} needs more than {MAX_SAMPLES} direct "
                             f"integration steps (t = {t:.9g} reached); shorten t_end")
        np.divide(z_rows[stages], h, out=f)
        abs_y, abs_new = abs_new, abs_y
        stop = bisect_right(grid, t, done)
        if stop > done:
            zs[len(steps), :stages + 1] = z[:stages + 1]
            zs[len(steps), -1] = y_new
            steps.append((t_old, h, t))
            nfev += len(_STAGE_ROWS) - stages
            done = stop
            if len(steps) == _DENSE_BLOCK or done - first >= _DENSE_ROWS:
                flush()
                first = done
        z[0] = y_new
    if steps:
        flush()
    return _Solution(out.T, nfev, True,
                     "The solver successfully reached the end of the integration interval.")


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


def _linear_rhs(cfg: FieldConfig, ops: tuple[np.ndarray, np.ndarray],
                decay: np.ndarray) -> _LinearRHS:
    """``y' = (eps(t) ops[0] + 2 J(t) ops[1] + decay) y``: the stack
    [ops[0]; ops[1]; decay] is built once per solve, with the coefficients
    (eps, 2J, 1) of the drive, formed from its :func:`~trilevel.fields.drive_factors`
    as :func:`trilevel.riccati.mu_rhs` forms eps and J."""
    sign_a, big_omega, sign_half_b, omega, delta = drive_factors(cfg)
    cos = math.cos
    return _LinearRHS(np.stack((*ops, decay)),
                      lambda t: (sign_a * cos(big_omega * t),
                                 2.0 * (sign_half_b * cos(omega * t + delta)), 1.0))


def _integrate(rhs, y0: np.ndarray, cfg: FieldConfig, grid: np.ndarray,
               tol: float, what: str) -> np.ndarray:
    """The solution of ``y' = rhs(t, y)`` at the times of ``grid``, one row per time.

    A window that needs more than MAX_SAMPLES steps of the capped size is a
    ValueError before any step, and one that takes more is a ValueError from
    :func:`solve_ivp`: it would run for hours.
    """
    check_tol(tol)
    t_end, max_step = float(grid[-1]), _max_step(cfg)
    if t_end / max_step > MAX_SAMPLES:
        raise ValueError(f"t_end = {t_end!r} needs at least {t_end / max_step:.3g} direct "
                         f"integration steps of at most {max_step:.3g} (a quarter of the "
                         f"shortest drive period); at most {MAX_SAMPLES} are allowed")
    sol = solve_ivp(rhs, (0.0, t_end), y0, t_eval=grid, rtol=tol, atol=tol,
                    max_step=max_step)
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
    u = states * np.exp(-1j * A * factors * np.sin(omega * t)[..., None] / omega)[..., None, :]
    u = u @ states.conj().T
    # in place where it can be, so that at most three stacks (U, U rho0 and
    # rho) are held at once
    u_rho0 = u @ rho0
    rho = u_rho0 @ np.swapaxes(np.conj(u, out=u), -1, -2)
    del u, u_rho0
    eye3 = np.eye(3, dtype=complex) / 3.0
    rho -= eye3
    rho *= np.exp(-Gamma * t)[..., None, None]
    rho += eye3
    return rho


def hydrogen_trajectory(A: float, omega: float, Gamma: float, rho0: np.ndarray,
                        t_end: float, dt_out: float) -> Trajectory:
    """Closed-form trajectory sampled on the standard output grid."""
    grid = output_grid(t_end, dt_out)
    return trajectory_from_rhos(grid, hydrogen_density(A, omega, Gamma, rho0, grid))
