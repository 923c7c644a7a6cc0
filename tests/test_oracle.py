import math

import numpy as np
import pytest
from scipy.linalg import expm

from trilevel import algebra, fields, oracle, propagator


def test_free_evolution_is_constant():
    cfg = fields.FieldConfig(A=0.0, Omega=0.0, B=0.0, omega=0.0, Gamma=0.0)
    eta0 = algebra.rho_to_eta(algebra.random_density_matrix(np.random.default_rng(1)))
    traj = oracle.integrate_eta_direct(cfg, eta0, 5.0, 1.0, 1e-10)
    for eta in traj.eta:
        assert np.max(np.abs(eta - eta0)) <= 1e-9


def test_pure_decay_without_fields():
    cfg = fields.FieldConfig(A=0.0, Omega=0.0, B=0.0, omega=0.0, Gamma=0.02)
    eta0 = algebra.rho_to_eta(np.diag([1.0, 0.0, 0.0]))
    traj = oracle.integrate_eta_direct(cfg, eta0, 10.0, 2.0, 1e-11)
    for k, t in enumerate(traj.grid):
        assert np.max(np.abs(traj.eta[k] - math.exp(-0.02 * t) * eta0)) <= 1e-9


def test_rho_direct_matches_unitary_conjugation_for_constant_hamiltonian():
    # A static 1-2 coupling with no decoherence evolves by a fixed unitary.
    cfg = fields.FieldConfig(A=1.0, Omega=0.0, B=0.0, omega=0.0, Gamma=0.0)
    rho0 = np.diag([0.7, 0.2, 0.1]).astype(complex)
    traj = oracle.integrate_rho_direct(cfg, rho0, 4.0, 0.5, 1e-11)
    h = np.asarray(algebra.A_Z, dtype=complex)  # eps = 1, J = 0
    for k, t in enumerate(traj.grid):
        u = expm(-1j * h * t)
        assert np.max(np.abs(traj.rho[k] - u @ rho0 @ u.conj().T)) <= 1e-8


@pytest.mark.parametrize("name", ["fig1", "fig8", "fig17"])
def test_eta_and_rho_integrators_agree(name):
    ps = fields.preset(name)
    rho0 = ps.initial.density()
    t_end, dt = 30.0, 1.0
    eta_traj = oracle.integrate_eta_direct(ps.config, algebra.rho_to_eta(rho0),
                                           t_end, dt, 1e-10)
    rho_traj = oracle.integrate_rho_direct(ps.config, rho0, t_end, dt, 1e-10)
    for k in range(len(eta_traj.grid)):
        assert np.max(np.abs(algebra.rho_to_eta(rho_traj.rho[k]) - eta_traj.eta[k])) <= 1e-8


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


def test_hydrogen_amplitudes_special_values():
    amp0 = oracle.hydrogen_amplitudes(1.0, 1.0, 0.0)
    assert (amp0.s, amp0.p, amp0.d) == (1.0, 0.0, 0.0)

    # exact revival after every half period of the drive
    amp_pi = oracle.hydrogen_amplitudes(2.7, 1.0, math.pi)
    assert abs(amp_pi.s - 1.0) <= 1e-12
    assert abs(amp_pi.p) <= 1e-12
    assert abs(amp_pi.d) <= 1e-12


def test_hydrogen_amplitudes_at_theta_pi():
    # choose amplitude so the phase angle reaches pi at the sine peak
    a = math.pi / math.sqrt(1.5)
    amp = oracle.hydrogen_amplitudes(a, 1.0, math.pi / 2)
    assert amp.s == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert abs(amp.p) <= 1e-12
    assert amp.d == pytest.approx(-2.0 * math.sqrt(2.0) / 3.0, abs=1e-12)
    pops = amp.populations()
    assert pops[0] == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert pops[2] == pytest.approx(8.0 / 9.0, abs=1e-12)


def test_hydrogen_amplitudes_norm_is_conserved():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = 10 ** rng.uniform(-1, 1)
        om = 10 ** rng.uniform(-0.5, 0.5)
        t = rng.uniform(0, 20)
        amp = oracle.hydrogen_amplitudes(a, om, t)
        assert abs(np.sum(amp.populations()) - 1.0) <= 1e-12


def test_hydrogen_populations_are_periodic_in_the_drive():
    rng = np.random.default_rng(3)
    a, om = 2.0, 1.3
    period = 2 * math.pi / om
    for _ in range(10):
        t = rng.uniform(0, 10)
        p1 = oracle.hydrogen_amplitudes(a, om, t).populations()
        p2 = oracle.hydrogen_amplitudes(a, om, t + period).populations()
        assert np.max(np.abs(p1 - p2)) <= 1e-10


def test_zero_frequency_is_rejected():
    with pytest.raises(oracle.ZeroFrequencyError):
        oracle.hydrogen_amplitudes(1.0, 0.0, 1.0)
    with pytest.raises(oracle.ZeroFrequencyError):
        oracle.hydrogen_density(1.0, 0.0, 0.0, np.diag([1.0, 0, 0]).astype(complex), 1.0)


def test_stark_basis_eigenvalues_and_orthonormality():
    states, factors = oracle.hydrogen_stark_basis()
    assert np.max(np.abs(states.conj().T @ states - np.eye(3))) <= 1e-12
    assert factors == pytest.approx([-math.sqrt(1.5), math.sqrt(1.5), 0.0], abs=1e-12)
    # the zero-eigenvalue state mixes s and d only
    zero_state = states[:, 2]
    expected = np.array([1.0, 0.0, -math.sqrt(2.0)]) / math.sqrt(3.0)
    assert np.max(np.abs(zero_state - expected)) <= 1e-12


def test_hydrogen_density_matches_amplitudes_for_s_start():
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    for t in np.linspace(0.0, 10.0, 11):
        rho = oracle.hydrogen_density(2.0, 1.0, 0.0, rho0, float(t))
        pops = oracle.hydrogen_amplitudes(2.0, 1.0, float(t)).populations()
        assert np.max(np.abs(np.real(np.diagonal(rho)) - pops)) <= 1e-12


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


def test_hydrogen_density_rejects_mixed_initial_states():
    with pytest.raises(ValueError, match="pure"):
        oracle.hydrogen_density(1.0, 1.0, 0.0, np.eye(3) / 3.0, 1.0)


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
        ts = np.linspace(0.0, 2 * math.pi, 4001)
        pops = np.array([oracle.hydrogen_amplitudes(a, 1.0, t).populations()[0] for t in ts])
        signs = np.sign(pops - 2.0 / 3.0)
        return int(np.sum(signs[:-1] * signs[1:] < 0))

    assert crossings(10.0) > crossings(1.0)


def test_hydrogen_trajectory_grid_and_observables():
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    traj = oracle.hydrogen_trajectory(1.0, 1.0, 0.1, rho0, 5.0, 1.0)
    assert len(traj.grid) == 6
    assert traj.observables[0].pop1 == pytest.approx(1.0, abs=1e-12)
