import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import trilevel
from trilevel import algebra, fields, observables, oracle, propagator

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
    got, want = oracle.solve_ivp(*args, **kwargs), _scipy_dop853(*args, **kwargs)
    assert got.success and want.success
    assert got.nfev == want.nfev
    assert got.y.shape == want.y.shape
    assert np.all(np.abs(got.y - want.y) <= 1e-12 * np.maximum(1.0, np.abs(want.y)))


def test_a_tol_below_100_eps_is_raised_to_it_as_scipy_does():
    cfg = fields.preset("fig3").config
    rhs = _right_hand_side(oracle.integrate_rho_direct, cfg, S_START)
    args = (rhs, (0.0, 1.0), S_START.reshape(-1))
    kwargs = dict(t_eval=np.linspace(0.0, 1.0, 3), rtol=1e-16, atol=1e-16,
                  max_step=oracle._max_step(cfg))
    with pytest.warns(UserWarning, match=r"`rtol` is too small"):
        got = oracle.solve_ivp(*args, **kwargs)
    with pytest.warns(UserWarning, match=r"`rtol` is too small"):
        want = _scipy_dop853(*args, **kwargs)
    assert got.nfev == want.nfev
    assert np.max(np.abs(got.y - want.y)) <= 1e-14


@pytest.mark.parametrize("onset", [0.3, 0.5, 0.75])
def test_a_generator_that_turns_nan_fails_as_scipys_dop853_does(onset):
    # zero up to the onset and NaN after: every accepted step grows by exactly
    # MAX_FACTOR (or 1 after a rejection) and every rejected one shrinks by
    # MIN_FACTOR, until the step is below 10 ulp of t just short of the onset
    # (20 ulp would end 0.3 and 0.75 after fewer evaluations)
    stack = np.stack((*oracle._RHO_OPS, oracle._RHO_DECAY))
    rhs = oracle._LinearRHS(stack, lambda t: (math.nan if t > onset else 0.0, 0.0, 0.0))
    y0 = S_START.reshape(-1)
    args = (rhs, (0.0, 1.0), y0)
    kwargs = dict(t_eval=np.linspace(0.0, 1.0, 5), rtol=1e-8, atol=1e-8, max_step=math.inf)
    with np.errstate(invalid="ignore"):   # NaN arithmetic in both steppers
        got, want = oracle.solve_ivp(*args, **kwargs), _scipy_dop853(*args, **kwargs)
    assert not got.success and not want.success
    assert got.message == want.message == "Required step size is less than spacing between numbers."
    assert got.nfev == want.nfev
    assert np.array_equal(got.y, want.y)   # the rows written before the failure
    static = fields.FieldConfig(A=0.0, Omega=0.0, B=0.0, omega=0.0)
    with pytest.raises(RuntimeError, match=r"^direct rho integration failed: Required step size "), \
            np.errstate(invalid="ignore"):
        oracle._integrate(rhs, y0, static, np.linspace(0.0, 1.0, 5), 1e-8, "rho")


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


def test_scipy_integrate_is_imported_on_the_first_direct_integration():
    # a fresh interpreter: importing the package and a product run leave
    # scipy.integrate unloaded, a direct integration loads it
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import trilevel
        cfg, rho0 = trilevel.preset("fig1").config, np.diag([1.0, 0.0, 0.0])
        trilevel.run(cfg, rho0, 1.0, 0.5, 1e-9)
        print("scipy.integrate" in sys.modules)
        trilevel.integrate_rho_direct(cfg, rho0, 1.0, 0.5, 1e-9)
        print("scipy.integrate" in sys.modules)
    """)
    src = str(Path(trilevel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["False", "True"]
