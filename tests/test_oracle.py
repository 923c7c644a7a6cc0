import ast
import math
import os
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import trilevel
from trilevel import algebra, cli, fields, observables, oracle, propagator, riccati

S_START = np.diag([1.0, 0.0, 0.0]).astype(complex)


def _paper_amplitudes(A, omega, t):
    """The paper's 3s, 3p, 3d amplitudes for the 3s start without decoherence:
    with theta = sqrt(3/2) (A/omega) sin(omega t), s = (1 + 2 cos theta)/3,
    p = i sqrt(2/3) sin theta, d = sqrt(2)/3 (cos theta - 1)."""
    theta = math.sqrt(1.5) * (A / omega) * math.sin(omega * t)
    return np.array([(1.0 + 2.0 * math.cos(theta)) / 3.0,
                     1j * math.sqrt(2.0 / 3.0) * math.sin(theta),
                     (math.sqrt(2.0) / 3.0) * (math.cos(theta) - 1.0)])


def _s_start_populations(A, omega, t):
    return np.real(np.diagonal(oracle.hydrogen_density(A, omega, 0.0, S_START, t),
                               axis1=-2, axis2=-1))


def test_free_evolution_is_constant():
    cfg = fields.FieldConfig(A=0.0, Omega=0.0, B=0.0, omega=0.0, Gamma=0.0)
    eta0 = algebra.rho_to_eta(algebra.random_density_matrix(np.random.default_rng(1)))
    traj = oracle.integrate_eta_direct(cfg, eta0, 5.0, 1.0, 1e-10)
    for eta in algebra.rho_to_eta(traj.rho):
        assert np.max(np.abs(eta - eta0)) <= 1e-9


def test_pure_decay_without_fields():
    cfg = fields.FieldConfig(A=0.0, Omega=0.0, B=0.0, omega=0.0, Gamma=0.02)
    eta0 = algebra.rho_to_eta(np.diag([1.0, 0.0, 0.0]))
    traj = oracle.integrate_eta_direct(cfg, eta0, 10.0, 2.0, 1e-11)
    for k, t in enumerate(traj.grid):
        assert np.max(np.abs(algebra.rho_to_eta(traj.rho[k]) - math.exp(-0.02 * t) * eta0)) <= 1e-9


def test_rho_direct_matches_unitary_conjugation_for_constant_hamiltonian():
    # A static 1-2 coupling with no decoherence evolves by a fixed unitary.
    cfg = fields.FieldConfig(A=1.0, Omega=0.0, B=0.0, omega=0.0, Gamma=0.0)
    rho0 = np.diag([0.7, 0.2, 0.1]).astype(complex)
    traj = oracle.integrate_rho_direct(cfg, rho0, 4.0, 0.5, 1e-11)
    h = np.asarray(algebra.A_Z, dtype=complex)  # eps = 1, J = 0
    for k, t in enumerate(traj.grid):
        u = expm(-1j * h * t)
        assert np.max(np.abs(traj.rho[k] - u @ rho0 @ u.conj().T)) <= 1e-8


@pytest.mark.parametrize("eta0, match", [
    (5.0 * np.ones(8), "density matrix not Hermitian"),
    (np.zeros(7), r"shape \(8,\), got \(7,\)"),
    (np.array([math.nan] + [0.0] * 7), "non-finite"),
], ids=["five_ones", "seven_vector", "nan_component"])
def test_eta_direct_rejects_a_start_that_is_no_density_matrix(eta0, match):
    cfg = fields.preset("fig1").config
    with pytest.raises(ValueError, match=match):
        oracle.integrate_eta_direct(cfg, eta0, 1.0, 0.5, 1e-8)


@pytest.mark.parametrize("name", ["fig1", "fig8", "fig17"])
def test_eta_and_rho_integrators_agree(name):
    ps = fields.preset(name)
    rho0 = ps.initial.density()
    t_end, dt = 30.0, 1.0
    eta_traj = oracle.integrate_eta_direct(ps.config, algebra.rho_to_eta(rho0),
                                           t_end, dt, 1e-10)
    rho_traj = oracle.integrate_rho_direct(ps.config, rho0, t_end, dt, 1e-10)
    for k in range(len(eta_traj.grid)):
        assert np.max(np.abs(algebra.rho_to_eta(rho_traj.rho[k])
                             - algebra.rho_to_eta(eta_traj.rho[k]))) <= 1e-8


class _Captured(Exception):
    pass


def _right_hand_side(integrate, cfg, y0):
    """The right-hand side that ``integrate`` hands to the ODE solver."""
    def capture(rhs, *_args, **_kwargs):
        raise _Captured(rhs)

    with mock.patch.object(oracle, "solve_ivp", capture), pytest.raises(_Captured) as exc:
        integrate(cfg, y0, 1.0, 0.5, 1e-8)
    return exc.value.args[0]


_DRIVE = st.floats(-5.0, 5.0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), A=_DRIVE, Omega=_DRIVE, B=_DRIVE, omega=_DRIVE,
       delta=st.floats(-math.pi, math.pi), Gamma=st.floats(0.0, 2.0),
       sign=st.sampled_from([1.0, -1.0]), t=st.floats(0.0, 100.0))
def test_both_oracles_integrate_the_master_equation(seed, A, Omega, B, omega, delta, Gamma,
                                                    sign, t):
    cfg = fields.FieldConfig(A=A, Omega=Omega, B=B, omega=omega, delta=delta, Gamma=Gamma,
                             sign_convention=sign)
    rho = algebra.random_density_matrix(np.random.default_rng(seed))
    h = fields.epsilon(t, cfg) * algebra.A_Z + 2.0 * fields.j_coupling(t, cfg) * algebra.A_X
    law = -1j * algebra.commutator(h, rho) - Gamma * (rho - np.trace(rho) / 3.0 * np.eye(3))
    rho_rhs = _right_hand_side(oracle.integrate_rho_direct, cfg, rho)
    drho = rho_rhs(t, rho.reshape(-1)).reshape(3, 3)
    assert np.max(np.abs(drho - law)) <= 1e-13 * np.max(np.abs(law))
    # the eta equation is the image of the same equation on the coherence vector
    eta_rhs = _right_hand_side(oracle.integrate_eta_direct, cfg, algebra.rho_to_eta(rho))
    deta = eta_rhs(t, algebra.rho_to_eta(rho))
    want = algebra.rho_to_eta(drho)
    assert np.max(np.abs(deta - want)) <= 1e-13 * np.max(np.abs(want))


def _scipy_dop853(rhs, *args, **kwargs):
    from scipy.integrate import solve_ivp
    return solve_ivp(rhs, *args, method="DOP853", **kwargs)


_RATE = st.floats(0.05, 5.0)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), A=_DRIVE, Omega=_RATE, B=_DRIVE, omega=_RATE,
       rates=st.sampled_from(["drawn", "static", "equal"]), delta=st.floats(-math.pi, math.pi),
       Gamma=st.floats(0.0, 2.0), log_tol=st.floats(-12.0, -6.0),
       start=st.sampled_from(["rho", "eta"]), t_end=st.floats(0.05, 12.0),
       rows=st.integers(1, 40))
def test_the_direct_stepper_takes_scipys_dop853_steps(seed, A, Omega, B, omega, rates, delta,
                                                      Gamma, log_tol, start, t_end, rows):
    # static drives, Omega = omega and decay included; t_end / rows puts the
    # output times, and the end of the window, anywhere within a step
    Omega, omega = {"drawn": (Omega, omega), "static": (0.0, 0.0), "equal": (Omega, Omega)}[rates]
    cfg = fields.FieldConfig(A=A, Omega=Omega, B=B, omega=omega, delta=delta, Gamma=Gamma)
    rho = algebra.random_density_matrix(np.random.default_rng(seed))
    eta = algebra.rho_to_eta(rho)
    integrate, state, y0 = ((oracle.integrate_rho_direct, rho, rho.reshape(-1)) if start == "rho"
                            else (oracle.integrate_eta_direct, eta, eta))
    rhs = _right_hand_side(integrate, cfg, state)
    tol = 10.0 ** log_tol
    args = (rhs, (0.0, t_end), y0)
    kwargs = dict(t_eval=np.linspace(0.0, t_end, rows + 1), rtol=tol, atol=tol,
                  max_step=oracle._max_step(cfg))
    got = oracle.solve_ivp(*args, **kwargs)
    want = _scipy_dop853(*args, first_step=t_end, **kwargs)   # the oracle's first attempt
    assert got.success and want.success
    assert got.nfev == want.nfev
    assert got.y.shape == want.y.shape
    assert np.all(np.abs(got.y - want.y) <= 1e-12 * np.maximum(1.0, np.abs(want.y)))


def _per_step_dop853(fun, t_span, y0, t_eval, rtol, atol, max_step):
    """The reference for ``oracle.solve_ivp``'s block dense output: the same
    stepper on scipy's tableau with each accepted step's dense output built
    inside the step loop, by riccati's _dense and _interpolant, for the times
    in (t_old, t] and t_span[0] on the first step.  Returns the solution, per
    accepted step the number of output times it holds, and the accepted nodes
    as (t, y), the start first."""
    from scipy.integrate import DOP853
    # scipy's 16 stages: the method's 12, the derivative at the new point (row B,
    # time 1) and the three of the dense output; err stacks the E5 and E3 rows
    s = len(DOP853.B)
    a = np.zeros((s + 4, s + 4))
    a[:s, :s], a[s, :s], a[s + 1:] = DOP853.A, DOP853.B, DOP853.A_EXTRA
    c = np.concatenate((DOP853.C, [1.0], DOP853.C_EXTRA))
    err = np.stack((DOP853.E5, DOP853.E3))
    t, t_bound = float(t_span[0]), float(t_span[1])
    y = np.asarray(y0, dtype=complex)
    f = fun(t, y)
    h_abs = math.inf
    n, stages, grid = y.size, len(err[0]), np.asarray(t_eval, dtype=float).tolist()
    out = np.empty((len(grid), n), dtype=complex)
    z = np.empty((len(c) + 1, n), dtype=complex)
    z_rows, z_flat = list(z), z.view(float)
    sums = [(np.concatenate(([1.0], a[s, :s])), z_flat[:s + 1]) for s in range(len(c))]
    nfev, done, held, nodes = 1, 0, [], [(t, y)]
    while t < t_bound:
        min_step = 10.0 * math.ulp(t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            assert h_abs >= min_step, "the reference stepper is not meant to fail"
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            hgens = h * fun.generators((t + h * c[1:stages]).tolist())
            z[0], z[1] = y, h * f
            for s in range(1, stages):
                row, earlier = sums[s]
                y_new = (row @ earlier).view(complex)
                np.matmul(hgens[s - 1], y_new, out=z_rows[s + 1])
            nfev += stages - 1
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            w = (err @ z_flat[1:stages + 1]).reshape(2, n, 2) / scale[:, None]
            e5, e3 = np.einsum("ijk,ijk->i", w, w).tolist()
            error_norm = 0.0 if e5 == 0 and e3 == 0 else e5 / math.sqrt((e5 + 0.01 * e3) * n)
            if error_norm < 1:
                factor = oracle._MAX_FACTOR if error_norm == 0 else min(
                    oracle._MAX_FACTOR, oracle._SAFETY * error_norm ** oracle._ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(oracle._MIN_FACTOR,
                         oracle._SAFETY * error_norm ** oracle._ERROR_EXPONENT)
            rejected = True
        t_old, y_old, t, y, f = t, y, t_new, y_new, z[stages] / h
        nodes.append((t, y))
        stop = done
        while stop < len(grid) and grid[stop] <= t:
            stop += 1
        held.append(stop - done)
        if stop > done:
            hgens = h * fun.generators((t_old + h * c[stages:]).tolist())
            for s in range(stages, len(c)):
                row, earlier = sums[s]
                np.matmul(hgens[s - stages], (row @ earlier).view(complex), out=z_rows[s + 1])
            nfev += len(c) - stages
            # the step's nodes, then its stages h K of _DENSE_STAGES, at a step of 1
            stack = np.concatenate(((y_old, y), z[1:][list(riccati._DENSE_STAGES)]))
            coeffs = riccati._dense(stack[None], np.ones(1))[0]
            x = ((np.array(grid[done:stop]) - t_old) / h)[:, None]
            out[done:stop] = riccati._interpolant(x, y_old, y, coeffs[:, None])
            done = stop
    return oracle._Solution(out.T, nfev, True, ""), held, nodes


def _same_bytes(got, want):
    return got.y.shape == want.y.shape and got.y.tobytes() == want.y.tobytes()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), A=_DRIVE, Omega=_RATE, B=_DRIVE, omega=_RATE,
       delta=st.floats(-math.pi, math.pi), Gamma=st.floats(0.0, 2.0),
       log_tol=st.floats(-12.0, -6.0), start=st.sampled_from(["rho", "eta"]),
       t_end=st.floats(0.05, 40.0), rows=st.integers(1, 2000),
       block=st.sampled_from([1, 2, 5, oracle._DENSE_BLOCK]),
       block_rows=st.sampled_from([1, 7, oracle._DENSE_ROWS]))
def test_block_dense_output_equals_the_per_step_one_bit_for_bit(
        seed, A, Omega, B, omega, delta, Gamma, log_tol, start, t_end, rows, block, block_rows):
    # blocks of a few steps or rows put many flushes in one window; grids of
    # one row to many rows a step, and t_end, the last output time, anywhere
    cfg = fields.FieldConfig(A=A, Omega=Omega, B=B, omega=omega, delta=delta, Gamma=Gamma)
    rho = algebra.random_density_matrix(np.random.default_rng(seed))
    integrate, state, y0 = ((oracle.integrate_rho_direct, rho, rho.reshape(-1)) if start == "rho"
                            else (oracle.integrate_eta_direct, algebra.rho_to_eta(rho),
                                  algebra.rho_to_eta(rho)))
    rhs = _right_hand_side(integrate, cfg, state)
    tol = 10.0 ** log_tol
    args = (rhs, (0.0, t_end), y0, np.linspace(0.0, t_end, rows + 1), tol, tol,
            oracle._max_step(cfg))
    with mock.patch.object(oracle, "_DENSE_BLOCK", block), \
            mock.patch.object(oracle, "_DENSE_ROWS", block_rows):
        got = oracle.solve_ivp(*args)
    want, _, nodes = _per_step_dop853(*args)
    assert got.success and got.nfev == want.nfev
    assert _same_bytes(got, want)
    # the last row, at t_end, is the last accepted node
    assert np.array_equal(got.y[:, -1], nodes[-1][1])


@pytest.mark.parametrize("rows", [601, 6001, 60001])
def test_block_dense_output_over_many_blocks_equals_the_per_step_one(rows):
    # fig10's drive to t = 60 (1,750 steps) at the package's block
    # sizes: 601 rows leave most steps without an output time, 6001 put one
    # to a few in each, and 60001 put dozens in each, so that blocks are
    # flushed on their row count before they hold _DENSE_BLOCK steps
    cfg = fields.preset("fig10").config
    rhs = _right_hand_side(oracle.integrate_rho_direct, cfg, S_START)
    args = (rhs, (0.0, 60.0), S_START.reshape(-1), np.linspace(0.0, 60.0, rows), 1e-9, 1e-9,
            oracle._max_step(cfg))
    got = oracle.solve_ivp(*args)
    want, held, _ = _per_step_dop853(*args)
    assert got.success and got.nfev == want.nfev
    assert _same_bytes(got, want)
    dense = [k for k in held if k]
    assert len(dense) > 2 * oracle._DENSE_BLOCK
    if rows == 601:
        assert len(held) > 2 * len(dense)
    else:
        assert max(dense) > 1
    if rows == 60001:
        assert np.median(dense) * oracle._DENSE_BLOCK > oracle._DENSE_ROWS


@pytest.mark.parametrize("block", [1, 3, oracle._DENSE_BLOCK])
def test_a_row_on_an_interior_node_is_that_node_and_one_ulp_past_it_is_the_next_step(block):
    # scipy's rule: a step serves the times in (t_old, t_new].  fig3's rho
    # equation to t = 6 on a grid of every interior accepted node and the time
    # one ulp past it; the steps do not depend on the grid, so a first solve
    # finds the nodes.  Blocks of 1 and 3 steps put a node's row and the next
    # row in different blocks.
    cfg = fields.preset("fig3").config
    rhs = _right_hand_side(oracle.integrate_rho_direct, cfg, S_START)
    args = (rhs, (0.0, 6.0), S_START.reshape(-1))
    kwargs = dict(rtol=1e-8, atol=1e-8, max_step=oracle._max_step(cfg))
    _, _, nodes = _per_step_dop853(*args, t_eval=[6.0], **kwargs)
    interior = nodes[1:-1]
    assert len(interior) > 10
    grid = [0.0, *chain.from_iterable((t, math.nextafter(t, math.inf)) for t, _ in interior), 6.0]
    served = []

    def evaluate(t, starts, ends, *rest):
        i, values = riccati._evaluate(t, starts, ends, *rest)
        served.extend(zip(t.tolist(), starts[i].tolist(), ends[i].tolist()))
        return i, values

    with mock.patch.object(oracle, "_DENSE_BLOCK", block), \
            mock.patch.object(oracle, "_evaluate", evaluate):
        got = oracle.solve_ivp(*args, t_eval=grid, **kwargs)
    want, held, _ = _per_step_dop853(*args, t_eval=grid, **kwargs)
    assert got.success and _same_bytes(got, want)
    assert held == [2] * (len(interior) + 1)
    assert [t for t, _, _ in served] == grid
    for k, (t, y) in enumerate(interior):
        node_row, past_row = served[1 + 2 * k], served[2 + 2 * k]
        # the node's row: x = 1 on the step that ends there, the node bit for bit
        assert node_row[0] == node_row[2] == t
        assert np.array_equal(got.y[:, 1 + 2 * k], y)
        # one ulp past it: the next step, which starts on the node
        assert past_row[1] == t and past_row[0] > t


def test_the_direct_rho_oracles_transient_memory_stays_bounded():
    # fig1's drive to t = 400 on 101 rows: 858 steps, 101 of them with dense
    # output, 1.3 s under tracemalloc.  With the dense output built a step at
    # a time the peak was 0.086 MB; the block buffers may add at most 1 MB to
    # that (0.62 MB measured).
    ps = fields.preset("fig1")
    oracle.integrate_rho_direct(ps.config, S_START, 1.0, 0.5, 1e-10)   # imports, caches
    tracemalloc.start()
    try:
        oracle.integrate_rho_direct(ps.config, S_START, 400.0, 4.0, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.086e6 + 1e6


def _kept_bytes(traj) -> int:
    return traj.grid.nbytes + traj.rho.nbytes + traj.table.nbytes


def test_the_direct_rho_oracle_builds_on_its_own_solution_without_a_copy():
    # fig1 to t = 100 on 10^4 rows.  The observables are built block by block
    # from the integrator's own solution rows, so nothing but those rows, the
    # result and bounded transients is held at the peak: measured 0.96 MB above
    # grid, table and rho (2.80 MB), 1.26 MB when the build wrote the Hermitian
    # part into the rows, and 2.70 MB when the 1.44 MB rho stack was copied first.
    ps = fields.preset("fig1")
    oracle.integrate_rho_direct(ps.config, S_START, 1.0, 0.5, 1e-8)   # imports, caches
    tracemalloc.start()
    try:
        traj = oracle.integrate_rho_direct(ps.config, S_START, 100.0, 0.01, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 10_001
    assert peak - _kept_bytes(traj) < 2e6


def test_the_hydrogen_closed_form_holds_at_most_three_stacks():
    # 10^4 rows: the closed form holds U, U rho0 and rho at once (one rho
    # stack is 1.44 MB) and the trajectory is built from rho without a copy.
    # Measured 1.11 stacks above the result; 2.50 when the closed form held
    # four stacks at once and the build copied rho.
    ps = fields.preset("hydrogen")
    tracemalloc.start()
    try:
        traj = oracle.hydrogen_trajectory(ps.config.A, ps.config.omega, ps.config.Gamma,
                                          ps.initial.density(), 9.999, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 10_000
    assert peak - _kept_bytes(traj) < 1.5 * traj.rho.nbytes


@pytest.mark.parametrize("onset", [0.3, 0.5, 0.75])
def test_a_generator_that_turns_nan_fails_as_scipys_dop853_does(onset):
    # zero up to the onset and NaN after: every accepted step grows by exactly
    # MAX_FACTOR (or 1 after a rejection) and every rejected one shrinks by
    # MIN_FACTOR, until the step is below 10 ulp of t just short of the onset
    # (20 ulp would end each of the three after fewer evaluations)
    stack = np.stack((*oracle._RHO_OPS, oracle._RHO_DECAY))
    rhs = oracle._LinearRHS(stack, lambda t: (math.nan if t > onset else 0.0, 0.0, 0.0))
    y0 = S_START.reshape(-1)
    args = (rhs, (0.0, 1.0), y0)
    kwargs = dict(t_eval=np.linspace(0.0, 1.0, 5), rtol=1e-8, atol=1e-8, max_step=math.inf)
    with np.errstate(invalid="ignore"):   # NaN arithmetic in both steppers
        got = oracle.solve_ivp(*args, **kwargs)
        want = _scipy_dop853(*args, first_step=1.0, **kwargs)
    assert not got.success and not want.success
    assert got.message == want.message == "Required step size is less than spacing between numbers."
    assert got.nfev == want.nfev
    assert np.array_equal(got.y, want.y)   # the rows written before the failure
    static = fields.FieldConfig(A=0.0, Omega=0.0, B=0.0, omega=0.0)
    with pytest.raises(RuntimeError, match=r"^direct rho integration failed: Required step size "), \
            np.errstate(invalid="ignore"):
        oracle._integrate(rhs, y0, static, np.linspace(0.0, 1.0, 5), 1e-8, "rho")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("solver, key, value", [
    ("direct_eta", "B", 1e100), ("direct_rho", "B", 1e100), ("direct_eta", "B", 1e200),
    ("direct_eta", "A", 1e155), ("direct_rho", "A", 1e155),
], ids=["direct_eta", "direct_rho", "direct_eta-B1e200", "direct_eta-A1e155",
        "direct_rho-A1e155"])
def test_a_drive_whose_steps_cannot_reach_t_end_stops_at_the_step_cap(tmp_path, capsys, solver,
                                                                      key, value):
    # fig1 with B = 1e100: every accepted step is some 1e-100 long, yet above
    # 10 ulp of t, so t = 1 is out of reach (uncapped, the eta run had not
    # ended after 130 s); the run stops at the step past MAX_SAMPLES.  With
    # B = 1e200 or A = 1e155 the derivative at t = 0 overflows, and the steps
    # shrink from the whole window to some 1 / B or 1 / A
    csv = tmp_path / "out.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"preset = fig1\nsolver = {solver}\n{key} = {value!r}\nt_end = 1\n"
                   f"csv = {csv}\n")
    start = time.perf_counter()
    with mock.patch.object(oracle, "MAX_SAMPLES", 1000):
        assert cli.main(["run", str(cfg)]) == 2
    assert time.perf_counter() - start < 20.0
    err = capsys.readouterr().err
    assert re.match(r"config error: t_end = 1\.0 needs more than 1000 direct integration "
                    r"steps \(t = \S+ reached\); shorten t_end\n$", err), err
    assert float(re.search(r"\(t = (\S+) reached", err).group(1)) < 1e-90
    assert not csv.exists()


@pytest.mark.parametrize("integrate, y0", [
    (oracle.integrate_eta_direct, algebra.rho_to_eta(S_START)),
    (oracle.integrate_rho_direct, S_START),
], ids=["eta", "rho"])
def test_a_window_the_step_cap_cannot_finish_is_rejected_before_integrating(integrate, y0):
    # fig1's step cap is pi/2: t_end = 1e9 needs 6.4e8 steps, more than
    # MAX_SAMPLES, on a grid of 10^5 rows that is itself allowed
    cfg = fields.preset("fig1").config
    with mock.patch.object(oracle, "solve_ivp", side_effect=AssertionError("integrated")):
        with pytest.raises(ValueError, match=r"^t_end = 1000000000\.0 needs at least 6\.37e\+08 "):
            integrate(cfg, y0, 1e9, 1e4, 1e-8)
        # the largest window the cap allows is integrated (here: reaches the solver)
        t_end = propagator.MAX_SAMPLES * oracle._max_step(cfg)
        with pytest.raises(AssertionError, match="integrated"):
            integrate(cfg, y0, t_end, t_end / 10.0, 1e-8)


@pytest.mark.parametrize("name", ["fig16", "fig17"])
@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_oracles_meet_tol_on_a_stationary_state(name, tol):
    # A Stark eigenstate commutes with the drive, so rho(t) = I/3 +
    # exp(-Gamma t) (rho0 - I/3) exactly; the step cap keeps both oracles from
    # stepping over whole drive periods (up to 337 tol without it).
    ps = fields.preset(name)
    rho0 = ps.initial.density()
    eta_path = oracle.integrate_eta_direct(ps.config, algebra.rho_to_eta(rho0),
                                           ps.t_end, ps.dt_out, tol)
    rho_path = oracle.integrate_rho_direct(ps.config, rho0, ps.t_end, ps.dt_out, tol)
    decay = np.exp(-ps.config.Gamma * eta_path.grid)[:, None, None]
    law = np.eye(3) / 3.0 + decay * (rho0 - np.eye(3) / 3.0)
    assert np.max(np.abs(eta_path.rho - law)) <= 5.0 * tol
    assert np.max(np.abs(rho_path.rho - law)) <= 5.0 * tol


HYDROGEN_DRIVE_PRESETS = ["fig9", "fig10", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
                          "hydrogen"]


@pytest.mark.parametrize("name, tol", [(name, tol) for tol in (1e-6, 1e-8)
                                       for name in HYDROGEN_DRIVE_PRESETS]
                         + [("fig10", 1e-10), ("fig14", 1e-10)])
def test_each_oracles_own_error_on_the_hydrogen_drive_presets(name, tol):
    # The nine hydrogen-drive presets have an exact reference,
    # oracle.hydrogen_density with amplitude -sign A.  Over each preset's own
    # window, both oracles' error at the tol they run at, as README's oracle
    # table states it: measured at most 36.7, 23.9 and 15.4 tol (direct_eta)
    # and 51.0, 34.0 and 24.0 tol (direct_rho) at tol 1e-6, 1e-8 and 1e-10, on
    # fig10 and fig14, so 1e-10 runs on those two only.
    ps = fields.preset(name)
    cfg, rho0 = ps.config, ps.initial.density()
    eta_path = oracle.integrate_eta_direct(cfg, algebra.rho_to_eta(rho0), ps.t_end, ps.dt_out,
                                           tol)
    rho_path = oracle.integrate_rho_direct(cfg, rho0, ps.t_end, ps.dt_out, tol)
    exact = oracle.hydrogen_density(-cfg.sign_convention * cfg.A, cfg.omega, cfg.Gamma, rho0,
                                    eta_path.grid)
    assert np.max(np.abs(eta_path.rho - exact)) <= 40.0 * tol
    assert np.max(np.abs(rho_path.rho - exact)) <= 60.0 * tol


def test_decoherence_drives_toward_maximal_mixing():
    ps = fields.preset("fig1")
    traj = oracle.integrate_rho_direct(ps.config, ps.initial.density(), 200.0, 50.0, 1e-10)
    assert np.max(np.abs(traj.rho[-1] - np.eye(3) / 3.0)) <= 2e-2


def test_hydrogen_s_start_special_values():
    assert np.max(np.abs(_s_start_populations(1.0, 1.0, 0.0) - [1.0, 0.0, 0.0])) <= 1e-15

    # exact revival after every half period of the drive
    assert np.max(np.abs(_s_start_populations(2.7, 1.0, math.pi) - [1.0, 0.0, 0.0])) <= 1e-12


def test_hydrogen_s_start_at_theta_pi():
    # choose amplitude so the phase angle reaches pi at the sine peak
    a = math.pi / math.sqrt(1.5)
    amp = _paper_amplitudes(a, 1.0, math.pi / 2)
    assert amp[0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert abs(amp[1]) <= 1e-12
    assert amp[2] == pytest.approx(-2.0 * math.sqrt(2.0) / 3.0, abs=1e-12)
    pops = _s_start_populations(a, 1.0, math.pi / 2)
    assert pops[0] == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert abs(pops[1]) <= 1e-12
    assert pops[2] == pytest.approx(8.0 / 9.0, abs=1e-12)


def test_hydrogen_s_start_norm_is_conserved():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = 10 ** rng.uniform(-1, 1)
        om = 10 ** rng.uniform(-0.5, 0.5)
        t = rng.uniform(0, 20)
        assert abs(np.sum(_s_start_populations(a, om, t)) - 1.0) <= 1e-12
        assert abs(observables.purity(oracle.hydrogen_density(a, om, 0.0, S_START, t))
                   - 1.0) <= 1e-12


def test_hydrogen_populations_are_periodic_in_the_drive():
    rng = np.random.default_rng(3)
    a, om = 2.0, 1.3
    period = 2 * math.pi / om
    for _ in range(10):
        t = rng.uniform(0, 10)
        p1 = _s_start_populations(a, om, t)
        p2 = _s_start_populations(a, om, t + period)
        assert np.max(np.abs(p1 - p2)) <= 1e-10


def test_zero_frequency_is_rejected():
    with pytest.raises(ValueError, match="omega"):
        oracle.hydrogen_density(1.0, 0.0, 0.0, S_START, 1.0)


@pytest.mark.parametrize("A, omega, Gamma, rho0, match", [
    (1.0, 1.0, -0.5, S_START, "Gamma must be >= 0"),
    (math.nan, 1.0, 0.0, S_START, "A must be finite"),
    (1.0, math.nan, 0.0, S_START, "omega must be finite"),
    (1.0, 1.0, math.nan, S_START, "Gamma must be finite"),
    (1.0, 1.0, 0.0, S_START + np.triu(np.ones((3, 3)), 1) * 0.1, "not Hermitian"),
], ids=["negative_Gamma", "nan_A", "nan_omega", "nan_Gamma", "non_hermitian_rho0"])
def test_hydrogen_density_rejects_bad_inputs(A, omega, Gamma, rho0, match):
    with pytest.raises(ValueError, match=match):
        oracle.hydrogen_density(A, omega, Gamma, rho0, 10.0)


def test_stark_basis_eigenvalues_and_orthonormality():
    states, factors = oracle.hydrogen_stark_basis()
    assert np.max(np.abs(states.conj().T @ states - np.eye(3))) <= 1e-12
    assert factors == pytest.approx([-math.sqrt(1.5), math.sqrt(1.5), 0.0], abs=1e-12)
    # the basis diagonalizes the drive the product path integrates, at unit amplitude
    cfg = fields.hydrogen_config(1.0)
    h = fields.epsilon(0.0, cfg) * algebra.A_Z + 2.0 * fields.j_coupling(0.0, cfg) * algebra.A_X
    assert np.max(np.abs(h @ states - states * factors)) <= 1e-12
    # the zero-eigenvalue state mixes s and d only
    zero_state = states[:, 2]
    expected = np.array([1.0, 0.0, -math.sqrt(2.0)]) / math.sqrt(3.0)
    assert np.max(np.abs(zero_state - expected)) <= 1e-12


def test_hydrogen_density_matches_the_paper_amplitudes_for_s_start():
    for t in np.linspace(0.0, 10.0, 11):
        rho = oracle.hydrogen_density(2.0, 1.0, 0.0, S_START, float(t))
        amp = _paper_amplitudes(2.0, 1.0, float(t))
        assert np.max(np.abs(rho - np.outer(amp, amp.conj()))) <= 1e-12


def test_hydrogen_density_stark_start_decays_monotonically():
    rho0 = fields.InitialState("stark_plus").density()
    for t in (0.0, 1.0, 5.0, 20.0):
        rho = oracle.hydrogen_density(1.0, 1.0, 0.2, rho0, t)
        expected = np.eye(3) / 3.0 + math.exp(-0.2 * t) * (rho0 - np.eye(3) / 3.0)
        assert np.max(np.abs(rho - expected)) <= 1e-12


@pytest.mark.parametrize("kind", ["level1", "stark_plus", "stark_zero"])
def test_hydrogen_trajectory_equals_the_per_time_densities(kind):
    rho0 = fields.InitialState(kind).density()
    traj = oracle.hydrogen_trajectory(1.3, 0.7, 0.05, rho0, 30.0, 0.25)
    per_time = np.array([oracle.hydrogen_density(1.3, 0.7, 0.05, rho0, float(t))
                         for t in traj.grid])
    assert np.max(np.abs(traj.rho - per_time)) <= 1e-15
    stacked = oracle.hydrogen_density(1.3, 0.7, 0.05, rho0, traj.grid[:12].reshape(3, 4))
    assert np.max(np.abs(stacked.reshape(12, 3, 3) - per_time[:12])) <= 1e-15


def test_hydrogen_density_takes_mixed_initial_states():
    mixed = np.eye(3, dtype=complex) / 3.0
    assert np.max(np.abs(oracle.hydrogen_density(1.0, 1.0, 0.0, mixed, 7.0) - mixed)) <= 1e-15
    # the closed form is linear in rho0, so a mixture evolves as its parts
    rho_a = fields.InitialState("level1").density()
    rho_b = fields.InitialState("stark_zero").density()
    grid = np.linspace(0.0, 20.0, 41)
    mix = oracle.hydrogen_density(1.3, 0.7, 0.05, 0.3 * rho_a + 0.7 * rho_b, grid)
    parts = (0.3 * oracle.hydrogen_density(1.3, 0.7, 0.05, rho_a, grid)
             + 0.7 * oracle.hydrogen_density(1.3, 0.7, 0.05, rho_b, grid))
    assert np.max(np.abs(mix - parts)) <= 1e-15
    # and a random mixed start agrees with the product path (8.0e-12 measured)
    rho0 = algebra.random_density_matrix(np.random.default_rng(5))
    traj = propagator.run(fields.hydrogen_config(1.3, 0.7, 0.05), rho0, 20.0, 0.25, 1e-11)
    exact = oracle.hydrogen_density(1.3, 0.7, 0.05, rho0, traj.grid)
    assert np.max(np.abs(traj.rho - exact)) <= 1e-8


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), A=st.floats(0.1, 5.0), omega=st.floats(0.3, 3.0),
       Gamma=st.floats(0.0, 0.2))
def test_hydrogen_density_on_mixed_starts_meets_the_spectrum_law_and_the_master_equation(
        seed, A, omega, Gamma):
    rho0 = algebra.random_density_matrix(np.random.default_rng(seed))
    direct = oracle.integrate_rho_direct(fields.hydrogen_config(A, omega, Gamma), rho0,
                                         10.0, 0.5, 1e-10)
    exact = oracle.hydrogen_density(A, omega, Gamma, rho0, direct.grid)
    # eig rho(t) = 1/3 + exp(-Gamma t) (eig rho0 - 1/3), exactly
    law = 1.0 / 3.0 + np.exp(-Gamma * direct.grid)[:, None] * (np.linalg.eigvalsh(rho0) - 1.0 / 3.0)
    assert np.max(np.abs(np.linalg.eigvalsh(exact) - law)) <= 1e-12
    # worst case over these 30 derandomized draws: 5.0e-10
    assert np.max(np.abs(direct.rho - exact)) <= 2e-9


def test_hydrogen_closed_form_matches_product_solver():
    ps = fields.preset("fig13")
    rho0 = ps.initial.density()
    traj = propagator.run(ps.config, rho0, 20.0, 0.5, 1e-12)
    for k, t in enumerate(traj.grid):
        exact = oracle.hydrogen_density(ps.config.A, ps.config.omega, ps.config.Gamma,
                                        rho0, float(t))
        assert np.max(np.abs(traj.rho[k] - exact)) <= 1e-6


def test_stronger_driving_produces_higher_harmonics():
    # count crossings of the s population through 2/3 over one drive period
    def crossings(a):
        pops = _s_start_populations(a, 1.0, np.linspace(0.0, 2 * math.pi, 4001))[:, 0]
        signs = np.sign(pops - 2.0 / 3.0)
        return int(np.sum(signs[:-1] * signs[1:] < 0))

    assert crossings(10.0) > crossings(1.0)


def test_hydrogen_trajectory_grid_and_observables():
    traj = oracle.hydrogen_trajectory(1.0, 1.0, 0.1, S_START, 5.0, 1.0)
    assert len(traj.grid) == 6
    assert traj.rho[0, 0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_every_solver_runs_without_scipy(tmp_path):
    # a fresh interpreter in which scipy cannot be imported: numpy is the only
    # runtime dependency, and both DOP853 solvers step on riccati's literals
    code = textwrap.dedent(f"""
        import math, sys
        from pathlib import Path
        sys.modules["scipy"] = None
        import trilevel
        from trilevel import checks, cli
        for preset, solver in (("fig3", "product"), ("fig3", "direct_eta"),
                               ("fig3", "direct_rho"), ("hydrogen", "hydrogen_analytic")):
            out = Path({str(tmp_path)!r}) / solver
            assert cli.main(["figure", preset, "--solver", solver, "--out", str(out)]) == 0
            assert (out / (preset + ".csv")).stat().st_size > 0, solver
        try:
            trilevel.solve_mu(trilevel.FieldConfig(0.0, 0.0, 1.0, 0.0), 1.5 * math.pi, 1e-9)
            raise AssertionError("no SingularityError")
        except trilevel.SingularityError:
            pass
        failed = [r.name for r in checks.run_all() if not r.passed]
        assert not failed, failed
    """)
    src = str(Path(trilevel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_module_of_the_package_imports_scipy():
    # the test above runs the solvers' usual paths; this reads every module, so a
    # lazy import on a branch those runs miss is caught too, and the runtime
    # dependencies stay numpy alone
    imported = []
    for path in sorted(Path(trilevel.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "import_module":
                names = [arg.value for arg in node.args if isinstance(arg, ast.Constant)]
            else:
                continue
            imported += [f"{path.name}:{node.lineno} {name}" for name in names
                         if name.split(".")[0] == "scipy"]
    assert not imported, imported
    # pyproject.toml read as text: tomllib is not in Python 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    runtime = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', runtime) == ["numpy"]
    test = re.search(r"^test = \[(.*?)\]", text, re.M | re.S).group(1)
    assert "scipy" in re.findall(r'"([A-Za-z0-9_.-]+)', test)
