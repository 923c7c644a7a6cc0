"""Independent reference solutions for cross-validation.

Two direct adaptive integrations (of the 8-component coherence-vector
equation and of the equivalent density-matrix master equation) plus the
closed-form solution for the degenerate n=3 hydrogen manifold in an
oscillating electric field.  None of these touch the product-form machinery,
so agreement with :func:`trilevel.propagator.run` validates both routes.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import algebra
from .fields import (FieldConfig, STARK_MINUS_VECTOR, STARK_PLUS_VECTOR,
                     STARK_ZERO_VECTOR, hydrogen_config)
from .propagator import (MAX_SAMPLES, Trajectory, output_grid, trajectory_from_etas,
                         trajectory_from_rhos)
from .riccati import (_A, _A_EXTRA, _B, _C, _C_EXTRA, _D, _E3, _E5, _ERROR_EXPONENT,
                      _MAX_FACTOR, _MIN_FACTOR, _SAFETY, check_tol)

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


@functools.cache
def _tableau():
    """DOP853's coefficients, assembled from :mod:`trilevel.riccati`'s literals.

    Returns ``(c, a, err, dense)``: the stage times ``c`` and the stage matrix
    ``a`` of 16 stages, where stages 0-11 are the method's, stage 12 is the
    derivative at the new point (its row is the solution weights B, its time
    1) and stages 13-15 feed the dense output; ``err`` stacks the E5 and E3
    error rows and ``dense`` is the dense-output matrix D.
    """
    a = np.zeros((16, 16))
    for s, row in enumerate((*_A, _B, *_A_EXTRA)):
        a[s, :len(row)] = row
    return np.array((*_C, 1.0, *_C_EXTRA)), a, np.array((_E5, _E3)), np.array(_D)


def _rms(x: np.ndarray) -> float:
    return float(np.linalg.norm(x)) / math.sqrt(x.size)


def _initial_step(fun, t0, y0, f0, t_bound, max_step, rtol, atol) -> float:
    """scipy's ``select_initial_step`` for an error estimate of order 7."""
    interval = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    # h0 is 0 when |f0| overflows (d1 = inf); scipy's numpy division then gives
    # nan, and with d1 = inf its result below is 0 all the same
    d2 = _rms((fun(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0 if h0 else math.nan
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-_ERROR_EXPONENT)
    return min(100 * h0, h1, interval, max_step)


def solve_ivp(fun: _LinearRHS, t_span, y0, t_eval, rtol, atol, max_step) -> _Solution:
    """``scipy.integrate.solve_ivp(fun, t_span, y0, t_eval=t_eval, rtol=rtol,
    atol=atol, max_step=max_step, method="DOP853")`` for a linear right-hand side.

    The same method and step control, so the same steps and the same ``nfev``
    until a stage overflows: 1 at the start, 1 for the initial step, 12 per
    attempted step and 3 per dense output.  The generators of a whole step come
    from one product, each stage is ``hL @ (y + a @ hK)`` on stages ``hK``
    scaled by the step, and dense output is built only for steps that hold
    times of ``t_eval`` (ascending, within ``t_span``, which runs forward):
    such steps are buffered and their extra stages and interpolants evaluated
    a block at a time, with the same floating-point operations per step.

    The stages ``h K`` stay finite at a step of 10 ulp where scipy's unscaled
    ``K`` overflow its error norm, so the two fail at different evaluations:
    on fig1's eta equation with B = 1e200, scipy after 14 and this after 41,
    with scipy's message
    (``test_a_drive_whose_starting_norms_overflow_fails_as_scipys_dop853_does``).
    A solve of more than MAX_SAMPLES accepted steps is a ValueError, raised at
    the step past the cap: with B = 1e100 every step is some 1e-100 long, and
    the solve would run without end.
    """
    c, a, err, dense = _tableau()
    t, t_bound = float(t_span[0]), float(t_span[1])
    y = np.asarray(y0, dtype=complex)
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, max_step, rtol, atol)
    times = np.asarray(t_eval, dtype=float)
    n, stages, grid = y.size, len(err[0]), times.tolist()
    out = np.empty((len(grid), n), dtype=complex)
    # z = [y; h K_0; ...; h K_15]: stage s is hL_s @ ((1, a[s, :s]) @ z[:s + 1]),
    # the sum taken as one real product on the interleaved real and imaginary parts
    z = np.empty((len(c) + 1, n), dtype=complex)
    z_rows, z_flat = list(z), z.view(float)
    sums = [(np.concatenate(([1.0], a[s, :s])), z_flat[:s + 1]) for s in range(len(c))]
    # the step's buffers, made once per solve: its generators hL_1 .. hL_{stages - 1};
    # the sum of the stage at hand, which after the last stage is the new y; |y| and
    # |y_new|, swapped on acceptance; the error scale and the E5 and E3 rows.  f, this
    # call's own, is updated in place, and z[0] holds y from one accepted step to the next.
    gens = np.empty((stages - 1, n, n), dtype=complex)
    y_sum = np.empty(2 * n)
    y_new = y_sum.view(complex)
    abs_y, abs_new, scale, w = np.abs(y), np.empty(n), np.empty(n), np.empty((2, 2 * n))
    w3, scale_col, err_stages = w.reshape(2, n, 2), scale[:, None], z_flat[1:stages + 1]
    stage_times = c[1:stages].tolist()
    # a step's generators are generators()'s product, written into gens through a
    # view made once here, where generators() would redo its views every step
    coeffs, n_coeffs, flat = fun.coeffs, (stages - 1) * len(fun.stack), fun._flat
    gens_flat = gens.reshape(stages - 1, -1).view(float)
    # the step's stages 1 .. stages - 1: their sums and matvecs as bound ndarray.dot
    # methods, which skip np.dot's Python-level dispatch and give the same bits, the
    # operand of each sum and the row each stage fills
    step_stages = [(row.dot, earlier, z_row, gen.dot) for (row, earlier), z_row, gen
                   in zip(sums[1:stages], z_rows[2:stages + 1], gens)]
    err_dot = err.dot
    # the buffered steps: z[:stages + 1] of each with room for its dense-output
    # stages, its new y, and (t_old, h, first row, end row) of its output rows
    zs = np.empty((_DENSE_BLOCK, len(c) + 1, n), dtype=complex)
    ends = np.empty((_DENSE_BLOCK, n), dtype=complex)
    steps = []

    def flush():
        # the buffered steps' extra stages, their interpolants and the output
        # rows they hold, each operation taken on the whole block at once
        m = len(steps)
        t_old, h, lo, hi = (np.array(col) for col in zip(*steps))
        zb, zb_flat = zs[:m], zs[:m].view(float)
        hgens = fun.generators((t_old[:, None] + h[:, None] * c[stages:]).ravel().tolist())
        hgens = hgens.reshape(m, -1, n, n)
        hgens *= h[:, None, None, None]
        for s in range(stages, len(c)):
            v = (sums[s][0] @ zb_flat[:, :s + 1]).view(complex)
            np.matmul(hgens[:, s - stages], v[..., None], out=zb[:, s + 1, :, None])
        y_old, dy = zb[:, 0], ends[:m] - zb[:, 0]
        poly = np.concatenate((dy[:, None], (zb[:, 1] - dy)[:, None],
                               (2.0 * dy - zb[:, stages] - zb[:, 1])[:, None],
                               dense @ zb[:, 1:]), axis=1)
        first, end = int(lo[0]), int(hi[-1])
        step = np.repeat(np.arange(m), hi - lo)     # the step of each output row
        x = ((times[first:end] - t_old[step]) / h[step])[:, None]
        rows = out[first:end]
        rows.fill(0.0)
        for i in range(poly.shape[1] - 1, -1, -1):
            rows += poly[step, i]
            rows *= x if i % 2 == 0 else 1.0 - x
        rows += y_old[step]
        steps.clear()

    nfev, done, accepted = 2, 0, 0
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
            ends[len(steps)] = y_new
            steps.append((t_old, h, done, stop))
            nfev += len(c) - stages
            done = stop
            if len(steps) == _DENSE_BLOCK or done - steps[0][2] >= _DENSE_ROWS:
                flush()
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
    (eps, 2J, 1) of the drive.  They are :func:`~trilevel.fields.epsilon` and
    :func:`~trilevel.fields.j_coupling` with the same operations in the same
    order, on factors taken from ``cfg`` once."""
    sign_a, big_omega = cfg.sign_convention * cfg.A, cfg.Omega
    sign_half_b, omega, delta = cfg.sign_convention * 0.5 * cfg.B, cfg.omega, cfg.delta
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
