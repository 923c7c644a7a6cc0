import dataclasses
import functools
import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from trilevel import algebra, fields, observables, oracle, propagator, riccati


# The 3x3 factors are the lifts of chart_matrix's 2x2 factor; each is reached
# by setting its own exponent and leaving the others at zero.
LADDER_AND_Z = {"mu_plus": algebra.A_PLUS, "mu_minus": algebra.A_MINUS, "mu": algebra.A_Z}


def single_factor(slot, c):
    """The lifted chart_matrix with every exponent but ``slot`` at zero: one
    factor and its inverse."""
    mus = dict.fromkeys(LADDER_AND_Z, 0.0)
    mus[slot] = c
    return propagator.lift(propagator.chart_matrix(**mus))


def test_exp_generator_at_zero_is_identity():
    g, g_inv = propagator.lift(propagator.chart_matrix(0.0, 0.0, 0.0))
    assert np.array_equal(g, np.eye(3))
    assert np.array_equal(g_inv, np.eye(3))


def test_exp_of_az_with_real_exponent_is_unitary():
    for mu in (0.3, -1.7, 12.0):
        u, u_inv = single_factor("mu", mu)
        assert np.max(np.abs(u @ u.conj().T - np.eye(3))) <= 1e-12
        assert np.max(np.abs(u_inv - u.conj().T)) <= 1e-12


@pytest.mark.parametrize("slot, gen", list(LADDER_AND_Z.items()), ids=["gen0", "gen1", "gen2"])
def test_exp_generator_matches_dense_matrix_exponential(slot, gen):
    gen = np.asarray(gen)
    rng = np.random.default_rng(3)
    for _ in range(5):
        c = complex(rng.standard_normal(), rng.standard_normal())
        g, g_inv = single_factor(slot, c)
        for ours, reference in ((g, expm(-1j * c * gen)), (g_inv, expm(1j * c * gen))):
            assert np.max(np.abs(ours - reference)) <= 1e-12 * max(1.0, np.max(np.abs(reference)))


def test_nilpotent_exponential_equals_truncated_series():
    c = 0.37 - 1.21j
    for slot in ("mu_plus", "mu_minus"):
        gen = LADDER_AND_Z[slot]
        assert not np.any(np.linalg.matrix_power(gen, 3))
        series = sum((c ** k / math.factorial(k)) * np.linalg.matrix_power(gen, k)
                     for k in range(3))
        g, _ = single_factor(slot, 1j * c)
        assert np.max(np.abs(g - series)) <= 1e-13


def test_chart_matrix_broadcasts_over_arrays_of_exponents():
    rng = np.random.default_rng(4)
    mus = [rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)) for _ in range(3)]
    g, g_inv = propagator.lift(propagator.chart_matrix(*mus))
    assert g.shape == g_inv.shape == (4, 5, 3, 3)
    for idx in np.ndindex(4, 5):
        one, one_inv = propagator.lift(propagator.chart_matrix(*(m[idx] for m in mus)))
        for ours, reference in ((g[idx], one), (g_inv[idx], one_inv)):
            assert np.max(np.abs(ours - reference)) <= 1e-15 * np.max(np.abs(reference))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1),
       mu_plus=st.complex_numbers(max_magnitude=3.0),
       mu_minus=st.complex_numbers(max_magnitude=3.0),
       mu=st.complex_numbers(max_magnitude=3.0))
def test_density_factor_matches_the_paper_8x8_product(seed, mu_plus, mu_minus, mu):
    # the paper's 8x8 form of the propagator, evaluated with dense exponentials
    eta0 = algebra.rho_to_eta(algebra.random_density_matrix(np.random.default_rng(seed)))
    reference = (expm(-1j * mu_plus * np.asarray(algebra.B_PLUS))
                 @ expm(-1j * mu_minus * np.asarray(algebra.B_MINUS))
                 @ expm(-1j * mu * np.asarray(algebra.B_Z)) @ eta0)
    g, g_inv = propagator.lift(propagator.chart_matrix(mu_plus, mu_minus, mu))
    ours = algebra.rho_to_eta(g @ algebra.eta_to_rho(eta0, 0.0) @ g_inv)
    assert np.max(np.abs(ours - reference)) <= 1e-12 * np.max(np.abs(reference))


def random_sl2(rng, size):
    """``size`` random complex 2x2 matrices scaled to determinant 1."""
    u = rng.standard_normal((size, 2, 2)) + 1j * rng.standard_normal((size, 2, 2))
    return u / np.sqrt(np.linalg.det(u))[:, None, None]


def _norms(m):
    return np.max(np.abs(m), axis=(-2, -1))


def test_lift_is_a_homomorphism():
    # measured at most 3.6 eps |lift(u)| |lift(v)| over 1,000 pairs
    rng = np.random.default_rng(11)
    u, v = random_sl2(rng, 1000), random_sl2(rng, 1000)
    (g_u, _), (g_v, _) = propagator.lift(u), propagator.lift(v)
    g_uv, _ = propagator.lift(u @ v)
    assert np.all(_norms(g_uv - g_u @ g_v) <= 1e-14 * _norms(g_u) * _norms(g_v))


def test_lift_second_output_is_the_inverse_of_the_first():
    # measured at most 6.5 eps |G| |G^-1| over 1,000 matrices
    g, g_inv = propagator.lift(random_sl2(np.random.default_rng(12), 1000))
    bound = 1e-14 * _norms(g) * _norms(g_inv)
    assert np.all(_norms(g @ g_inv - np.eye(3)) <= bound)
    assert np.all(_norms(g_inv @ g - np.eye(3)) <= bound)


def test_lift_is_even_and_exact_at_the_identity():
    u = random_sl2(np.random.default_rng(13), 100)
    for ours, reference in zip(propagator.lift(-u), propagator.lift(u)):
        assert np.array_equal(ours, reference)
    for g in propagator.lift(np.eye(2, dtype=complex)):
        assert np.array_equal(g, np.eye(3))


def test_matmul2_is_the_matrix_product_on_broadcasting_stacks():
    # run's per-sample products: a stack times one matrix, and stack times stack;
    # each entry is a sum of two products, so it is within a few eps of matmul's
    rng = np.random.default_rng(17)
    a, b = rng.standard_normal((2, 50, 2, 2)) + 1j * rng.standard_normal((2, 50, 2, 2))
    for x, y in ((a, b[0]), (a[0], b), (a, b), (a[3:4], b)):
        got, want = propagator._matmul2(x, y), x @ y
        assert got.shape == want.shape
        bound = 4 * np.finfo(float).eps * (np.abs(x) @ np.abs(y))
        assert np.all(np.abs(got - want) <= bound)


def _su2(rng, angle):
    """A rotation by ``angle`` about a random axis, as a 2x2 matrix."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    pauli = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    return expm(-0.5j * angle * sum(a * p for a, p in zip(axis, pauli)))


_POWER_CASES = {
    "near I": _su2(np.random.default_rng(21), 1e-9),
    "near -I": -_su2(np.random.default_rng(22), 1e-9),
    "I": np.eye(2, dtype=complex),
    "-I": -np.eye(2, dtype=complex),
    "jordan": np.array([[1.0, 0.3 - 0.2j], [0.0, 1.0]]),   # sin(theta) = 0, not I
    "generic": _su2(np.random.default_rng(23), 2.1),
    # U(T) is not projected onto SU(2): a unitarity defect of 1e-9, theta complex
    "off SU(2)": _su2(np.random.default_rng(24), 2.1) @ expm(1e-9 * np.array([[1, 2j], [-1, -1]])),
}


@pytest.mark.parametrize("u", _POWER_CASES.values(), ids=_POWER_CASES)
def test_power_matches_matrix_power_up_to_sign(u):
    # Against 50-digit mpmath powers of these and 20 random rotations, _power
    # was at most 2.6 eps max(1, n) off and matrix_power 0.23 eps max(1, n);
    # the two differed by at most 2.6 eps max(1, n).
    ns = (0, 1, 7, 10**4)
    powers = propagator._power(u, np.array(ns, dtype=float))
    assert powers.shape == (len(ns), 2, 2)
    for n, ours in zip(ns, powers):
        reference = np.linalg.matrix_power(u, n)
        off = min(np.max(np.abs(ours - reference)), np.max(np.abs(ours + reference)))
        assert off <= 4.0 * np.finfo(float).eps * max(1, n) * max(1.0, np.max(np.abs(reference)))
        if n == 0:
            assert np.array_equal(ours, np.eye(2))


def test_run_at_time_zero_returns_rho0():
    cfg = fields.preset("fig3").config
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    traj = propagator.run(cfg, rho0, 5.0, 1.0, 1e-10)
    assert np.max(np.abs(traj.rho[0] - rho0)) == 0.0
    assert np.max(np.abs(algebra.rho_to_eta(traj.rho[0]) - algebra.rho_to_eta(rho0))) == 0.0


def test_run_over_a_window_below_the_step_floor_returns_rho0():
    # 2e-323 is below the floor of 10 ulp of t on the Riccati step, 5e-323 at
    # t = 0, which holds the step controller, not the rest of the window
    ps = fields.preset("fig1")
    rho0 = ps.initial.density()
    traj = propagator.run(ps.config, rho0, 2e-323, 2e-323, 1e-10)
    assert traj.grid.tolist() == [0.0, 2e-323]
    assert np.max(np.abs(traj.rho - rho0)) < 1e-15


def test_long_time_coherence_vector_vanishes():
    ps = fields.preset("fig1")
    rho0 = ps.initial.density()
    traj = propagator.run(ps.config, rho0, 500.0, 250.0, 1e-9)
    n0 = observables.coherence_norm(algebra.rho_to_eta(rho0))
    assert observables.coherence_norm(algebra.rho_to_eta(traj.rho[-1])) <= 1e-4 * n0 + 1e-8


def test_run_matches_direct_integration_on_fig1():
    ps = fields.preset("fig1")
    rho0 = ps.initial.density()
    prod = propagator.run(ps.config, rho0, 100.0, 1.0, 1e-10)
    direct = oracle.integrate_eta_direct(ps.config, algebra.rho_to_eta(rho0), 100.0, 1.0, 1e-10)
    assert np.max(np.abs(algebra.rho_to_eta(prod.rho) - algebra.rho_to_eta(direct.rho))) <= 1e-6
    assert np.max(np.abs(prod.rho - direct.rho)) <= 1e-6


@pytest.mark.parametrize("name", fields.preset_names())
def test_global_error_scales_with_tol(name):
    # Against a tight reference, the product path's error over [0, 20] stays
    # within a fixed multiple of tol on every preset.  The multiple was pinned
    # from the first stepper (largest ratio 3.99, fig3 at tol 1e-6) and is not
    # to be raised.  Measured with DOP853 at a tenth of tol: at most 0.42 tol
    # (fig5 at 1e-6).
    ps = fields.preset(name)
    rho0 = ps.initial.density()
    ref = oracle.integrate_rho_direct(ps.config, rho0, 20.0, 0.5, 1e-13)
    for tol in (1e-6, 1e-8, 1e-10):
        traj = propagator.run(ps.config, rho0, 20.0, 0.5, tol)
        assert np.max(np.abs(traj.rho - ref.rho)) <= 5.0 * tol, tol


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("name", ["fig9", "fig10", "fig12", "fig13", "fig14", "fig15", "fig16",
                                  "fig17", "hydrogen"])
def test_hydrogen_drive_presets_meet_their_closed_form(name, tol):
    # Nine presets are the hydrogen drive: Omega = omega, delta = 0 and
    # A/B = sqrt(2) (to an ulp), so the generator is cos(omega t) H0 and
    # oracle.hydrogen_density is exact; its amplitude is -sign A.  Over each
    # preset's own window, with the bound of test_global_error_scales_with_tol.
    # Measured 0.068 (fig17 at 1e-8) to 0.479 tol (fig13 at 1e-6).
    ps = fields.preset(name)
    cfg, rho0 = ps.config, ps.initial.density()
    assert cfg.Omega == cfg.omega and cfg.delta == 0.0
    assert cfg.A / cfg.B == pytest.approx(math.sqrt(2.0), rel=1e-15)
    traj = propagator.run(cfg, rho0, ps.t_end, ps.dt_out, tol)
    exact = oracle.hydrogen_density(-cfg.sign_convention * cfg.A, cfg.omega, cfg.Gamma, rho0,
                                    traj.grid)
    assert np.max(np.abs(traj.rho - exact)) <= 5.0 * tol


@pytest.mark.parametrize("name", ["fig1", "fig3", "fig8", "fig9", "fig16", "hydrogen"])
def test_the_solve_steps_propagator_error_scales_with_tol(name):
    # The solve step's 2x2 U(t), lifted to G, against G' = -i (eps A_Z + 2 J A_X) G
    # from scipy's DOP853 at 1e-13, before any cleanup: every rho-level check
    # passes through the Hermitian part, which removes part of U's error.  Of
    # the windows, at most t = 60, fig3's is shorter than its period 20 pi; the
    # others hold 2 (hydrogen) to 9 periods, so they pass through U(T)^n.
    # Measured at most 1.52 tol (fig9 at 1e-6), 1.02 tol on the others.
    from scipy.integrate import solve_ivp

    ps = fields.preset(name)
    cfg, grid = ps.config, propagator.output_grid(min(ps.t_end, 60.0), 0.1)

    def rhs(t, g):
        h = fields.epsilon(t, cfg) * algebra.A_Z + 2.0 * fields.j_coupling(t, cfg) * algebra.A_X
        return -1j * (h @ g.reshape(3, 3)).ravel()

    ref = solve_ivp(rhs, (0.0, grid[-1]), np.eye(3, dtype=complex).ravel(), method="DOP853",
                    t_eval=grid, rtol=1e-13, atol=1e-13)
    want = ref.y.T.reshape(-1, 3, 3)
    for tol in (1e-6, 1e-8, 1e-10):
        g, _ = propagator.lift(propagator._propagator(cfg, grid, tol)(slice(None)))
        assert np.max(np.abs(g - want)) <= 5.0 * tol, tol


def test_run_relaxes_to_the_maximally_mixed_state():
    ps = fields.preset("fig2")
    traj = propagator.run(ps.config, ps.initial.density(), 500.0, 250.0, 1e-9)
    assert np.max(np.abs(traj.rho[-1] - np.eye(3) / 3.0)) <= 2e-4


def test_stark_eigenstate_is_frozen_without_decoherence():
    ps = fields.preset("fig16")
    rho0 = ps.initial.density()
    traj = propagator.run(ps.config, rho0, 50.0, 1.0, 1e-12)
    assert np.max(np.abs(traj.rho - rho0)) <= 1e-8


def test_trajectory_trace_and_hermiticity_invariants():
    for name in ("fig3", "fig8", "fig10"):
        ps = fields.preset(name)
        traj = propagator.run(ps.config, ps.initial.density(), 20.0, 0.5, 1e-9)
        for rho in traj.rho:
            assert abs(np.trace(rho) - 1.0) <= 1e-9
            assert algebra.hermiticity_deviation(rho) <= 1e-9


def record_charts(monkeypatch):
    """Route run's solve_mu through a recorder; returns the list of
    (chart, blew_up) pairs it fills, in order."""
    charts = []

    def recording_solve_mu(*args, **kwargs):
        try:
            charts.append((riccati.solve_mu(*args, **kwargs), False))
        except riccati.SingularityError as exc:
            charts.append((exc.partial, True))
            raise
        return charts[-1][0]

    monkeypatch.setattr(propagator, "solve_mu", recording_solve_mu)
    return charts


# fig9 with an off-period 1-2 drive: no common period, so the charts run over
# the whole window
_OFF_PERIOD_FIG9 = dataclasses.replace(fields.preset("fig9").config, Omega=math.sqrt(2.0) - 1.0)


def test_segmented_restart_is_a_cocycle(monkeypatch):
    # A lower chart limit restarts the off-period fig9 drive many times over
    # (36 charts to t = 20, against 1 at the default limit); the composed
    # state must not notice.
    rho0 = fields.preset("fig9").initial.density()
    plain = propagator.run(_OFF_PERIOD_FIG9, rho0, 20.0, 0.5, 1e-12)
    monkeypatch.setattr(propagator, "CHART_LIMIT", 0.25)
    charts = record_charts(monkeypatch)
    forced = propagator.run(_OFF_PERIOD_FIG9, rho0, 20.0, 0.5, 1e-12)
    assert len(charts) >= 20
    assert np.max(np.abs(algebra.rho_to_eta(plain.rho) - algebra.rho_to_eta(forced.rho))) <= 1e-8


@pytest.mark.parametrize("cfg, period", [
    (fields.preset("fig1").config, 2.0 * math.pi),
    (fields.preset("fig3").config, 20.0 * math.pi),
    (fields.FieldConfig(A=1.0, Omega=2.0, B=1.0, omega=0.0), math.pi),
    (fields.FieldConfig(A=1.0, Omega=-1.5, B=1.0, omega=1.0), 4.0 * math.pi),
    (_OFF_PERIOD_FIG9, None),
    (fields.FieldConfig(A=1.0, Omega=0.0, B=1.0, omega=0.0), None),
], ids=["fig1", "fig3", "omega=0", "Omega:omega=-3:2", "incommensurate", "static"])
def test_drive_period(cfg, period):
    found = propagator._drive_period(cfg)
    assert found == (None if period is None else pytest.approx(period, rel=1e-15))


@pytest.mark.parametrize("name", fields.preset_names())
def test_one_period_solve_matches_the_plain_chart_path(monkeypatch, name):
    # Every preset's drive is periodic and its window longer than the period,
    # so the charts stop at T, or at T/2 when delta = 0 (fig5 to fig8 have
    # delta != 0), and later samples compose U(T)^n.  Against charts over the
    # whole window, at the tol of `trilevel figure`: largest difference 0.40 tol
    # (fig13), and 0.38 tol (fig6) before the fold.
    ps = fields.preset(name)
    rho0 = ps.initial.density()
    period = propagator._drive_period(ps.config)
    assert period < ps.t_end
    charts = record_charts(monkeypatch)
    floquet = propagator.run(ps.config, rho0, ps.t_end, ps.dt_out, 1e-10)
    solved = 0.5 * period if ps.config.delta == 0.0 else period
    assert charts[-1][0].t_final == pytest.approx(solved, rel=1e-12)
    monkeypatch.setattr(propagator, "_drive_period", lambda cfg: None)
    plain = propagator.run(ps.config, rho0, ps.t_end, ps.dt_out, 1e-10)
    assert charts[-1][0].t_final == ps.t_end
    assert np.max(np.abs(floquet.rho - plain.rho)) <= 5e-10


@pytest.mark.parametrize("cfg, t_end", [
    (_OFF_PERIOD_FIG9, 20.0),
    (fields.preset("fig1").config, 2.0 * math.pi),
], ids=["incommensurate", "t_end=T"])
def test_drives_without_a_shorter_period_stay_on_the_chart_path(monkeypatch, cfg, t_end):
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    charts = record_charts(monkeypatch)
    traj = propagator.run(cfg, rho0, t_end, 0.5, 1e-10)
    solved = len(charts)
    assert charts[-1][0].t_final == t_end
    # the same solve_mu calls, and the same numbers, as with no period at all
    monkeypatch.setattr(propagator, "_drive_period", lambda cfg: None)
    plain = propagator.run(cfg, rho0, t_end, 0.5, 1e-10)
    assert len(charts) == 2 * solved
    assert np.array_equal(traj.rho, plain.rho)
    # measured 2.2e-10 (incommensurate) and 6.0e-12 (t_end = T)
    direct = oracle.integrate_rho_direct(cfg, rho0, t_end, 0.5, 1e-12)
    assert np.max(np.abs(traj.rho - direct.rho)) <= 1e-8


def test_a_time_symmetric_period_is_solved_over_its_first_half(monkeypatch):
    # With delta = 0 the drive has h(T - s) = h(s), real and symmetric, so
    # U(T) = W^T W, W = U(T/2), and U(s) = U(T - s)^-T U(T).  Both against an
    # unfolded solve of fig3 at tol 1e-12: U(T) on the chart path over [0, T]
    # was 9.8e-14 from W^T W there, and U over three periods, the charts run
    # over the whole window, 1.1e-12 from the folded U (9.2e-13 at s in
    # (T/2, T)).  U(T)^n is formed up to sign, so U is compared up to sign.
    cfg = fields.preset("fig3").config
    period = propagator._drive_period(cfg)
    assert cfg.delta == 0.0
    u_half, u_period = propagator._propagator(cfg, np.array([0.0, 0.5 * period, period]),
                                              1e-12)(slice(1, None))
    assert np.max(np.abs(u_period - u_half.T @ u_half)) <= 1e-12
    grid = propagator.output_grid(3.0 * period, 0.1)
    charts = record_charts(monkeypatch)
    folded = propagator._propagator(cfg, grid, 1e-12)(slice(None))
    assert charts[-1][0].t_final == 0.5 * period
    monkeypatch.setattr(propagator, "_drive_period", lambda cfg: None)
    plain = propagator._propagator(cfg, grid, 1e-12)(slice(None))
    assert charts[-1][0].t_final == grid[-1]
    apart = np.minimum(np.max(np.abs(folded - plain), axis=(1, 2)),
                       np.max(np.abs(folded + plain), axis=(1, 2)))
    assert np.any((0.5 * period < grid) & (grid < period))   # samples the second half rule serves
    assert np.max(apart) <= 1e-11


def test_a_drive_with_a_phase_is_solved_over_its_whole_period(monkeypatch):
    # fig8's delta = pi/2 breaks h(T - s) = h(s): no fold, the charts end at T
    ps = fields.preset("fig8")
    period = propagator._drive_period(ps.config)
    assert ps.config.delta != 0.0 and period < ps.t_end
    charts = record_charts(monkeypatch)
    propagator.run(ps.config, ps.initial.density(), ps.t_end, ps.dt_out, 1e-10)
    assert charts[-1][0].t_final == period


@pytest.mark.parametrize("big_omega, omega, delta", [
    (0.0, omega, delta) for omega in [1.0, -3.0] for delta in [2.08, -1.19, math.pi / 2, math.pi]
] + [(0.5, 0.0, 1.0)])
def test_a_period_symmetric_about_its_centre_is_folded_there(monkeypatch, big_omega, omega,
                                                              delta):
    # With Omega = 0 the drive is even about each t with omega t + delta = k pi,
    # so the period is solved over [0, T/2] on the drive shifted to its centre
    # c = (-delta/omega) mod (pi/|omega|), and U(s) = R(s - c) R(c)^T, with R(x) =
    # R(-x)^-T before c and R(T - x)^-T R(T) past c + T/2.  With omega = 0 the
    # centre is 0 for any delta.  Against an unfolded solve at tol 1e-12, over
    # three periods with samples just either side of c, of c + T/2 and of T + c:
    # measured at most 5.9e-13 apart, and U(T) 2.5e-13 (delta = pi has c = 0, with
    # B's sign flipped).  U is compared up to sign.
    cfg = fields.FieldConfig(A=1.3, Omega=big_omega, B=2.1, omega=omega, delta=delta)
    period = propagator._drive_period(cfg)
    c = 0.0 if omega == 0.0 else (-delta / omega) % (math.pi / abs(omega))
    half = c + 0.5 * period
    near = [c, half, period, period + c, 2.0 * period + half]
    grid = np.unique(np.concatenate([propagator.output_grid(3.0 * period, period / 37), [period]]
                                    + [[t * (1.0 - 1e-9), t * (1.0 + 1e-9)] for t in near]))
    charts = record_charts(monkeypatch)
    folded = propagator._propagator(cfg, grid, 1e-12)(slice(None))
    assert charts[-1][0].t_final == 0.5 * period
    monkeypatch.setattr(propagator, "_drive_period", lambda cfg: None)
    plain = propagator._propagator(cfg, grid, 1e-12)(slice(None))
    assert charts[-1][0].t_final == grid[-1]
    apart = np.minimum(np.max(np.abs(folded - plain), axis=(1, 2)),
                       np.max(np.abs(folded + plain), axis=(1, 2)))
    s = grid - np.floor(grid / period) * period
    # samples before c (none when c = 0), between c and c + T/2, and past it
    assert np.any(s < c) == (c > 0.0)
    assert np.any((c < s) & (s < half)) and np.any(half < s)
    assert np.max(apart) <= 1e-11
    assert apart[grid == period].item() <= 1e-12


# perfbench's long-horizon drive lh1: Omega = 0.1 and delta != 0
_LH1 = fields.FieldConfig(A=1.9514951915147918, Omega=0.1, B=1.3603230444577044, omega=1.0,
                          delta=-1.8793087413016973)


@pytest.mark.parametrize("cfg, centre", [
    (fields.FieldConfig(A=1.0, Omega=0.0, B=1.0, omega=1.0, delta=2.08), math.pi - 2.08),
    (fields.FieldConfig(A=1.0, Omega=0.0, B=1.0, omega=-3.0, delta=-1.19),
     (math.pi - 1.19) / 3.0),
    (fields.FieldConfig(A=1.0, Omega=0.5, B=1.0, omega=0.0, delta=1.0), 0.0),
    (fields.preset("fig3").config, 0.0),
    (_LH1, None),
    (fields.preset("fig8").config, None),
], ids=["Omega=0", "Omega=0-omega<0", "omega=0", "delta=0", "lh1", "fig8"])
def test_centre_of_time_symmetry(cfg, centre):
    # the centre c and the drive shifted to it, h(c + x), which is even in x; a
    # drive with Omega != 0, omega != 0 and delta != 0 has none
    found = propagator._centre(cfg)
    if centre is None:
        assert found is None
        return
    c, shifted = found
    assert c == pytest.approx(centre, rel=1e-15, abs=0.0)
    for x in (0.3, 1.7, 4.1):
        assert fields.epsilon(x, shifted) == pytest.approx(fields.epsilon(c + x, cfg), abs=1e-15)
        assert fields.j_coupling(x, shifted) == pytest.approx(fields.j_coupling(c + x, cfg),
                                                              abs=1e-15)
        assert fields.j_coupling(c - x, cfg) == pytest.approx(fields.j_coupling(c + x, cfg),
                                                              abs=1e-15)


def test_a_drive_without_a_centre_is_solved_over_its_whole_period(monkeypatch):
    # lh1's drive, Omega = 0.1 with delta != 0, is symmetric about no time: no fold
    period = propagator._drive_period(_LH1)
    charts = record_charts(monkeypatch)
    propagator.run(_LH1, np.diag([0.0, 0.0, 1.0]).astype(complex), 500.0, 250.0, 1e-10)
    assert period < 500.0 and charts[-1][0].t_final == period


def test_a_million_periods_cost_one(monkeypatch):
    # fig5's drive to t = 2 pi 10^6 on 1,001 rows: one period of charts, and
    # U(T)^n in closed form for every row.  Measured 0.19 s and a 1.1 MB peak
    # under tracemalloc (0.013 s without; 0.41 s, 1.8 MB and 0.13 s when
    # U(T)^n was stepped with matrix_power over the distinct n): each of the
    # 1,001 rows is its own period, and the one chart is evaluated for all of
    # them at once.  Charts over the whole window would take hours.  Purity
    # drifted 5.6e-10 over the 10^6 periods (1.9e-10 with matrix_power), but
    # that says nothing of accuracy: G rho G^-1 is a similarity, so it keeps
    # the spectrum whatever the error of U(T).  The error itself grows
    # linearly with n (see test_floquet_error_grows_linearly_with_the_periods).
    ps = fields.preset("fig5")
    cfg = dataclasses.replace(ps.config, Gamma=0.0)
    t_end = 2.0 * math.pi * 1e6
    charts = record_charts(monkeypatch)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        traj = propagator.run(cfg, ps.initial.density(), t_end, t_end / 1000, 1e-10)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 1001
    assert charts[-1][0].t_final == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert elapsed < 10.0
    assert peak < 4e6
    purity = np.einsum("nij,nji->n", traj.rho, traj.rho).real
    assert np.max(np.abs(purity - 1.0)) <= 1e-8


def test_floquet_error_grows_linearly_with_the_periods():
    # U(T) is not re-unitarized, so its error compounds over the periods:
    # U(T)^n = cos(n theta) I + sin(n theta)/sin(theta) (U(T) - cos(theta) I)
    # carries the error of theta n times.  Against the hydrogen closed form
    # (Gamma = 0) at tol 1e-10 the error was 1.31e-10 at 10^2 periods, 1.31e-8
    # at 10^4 and 1.31e-6 at 10^6; at tol 1e-8 it was 9.63e-9 at 10^2 periods
    # and 9.64e-3 at 10^8.  Linear growth is 100x from 10^2 to 10^4 periods.
    ps = fields.preset("hydrogen")
    cfg, rho0 = ps.config, ps.initial.density()
    assert cfg.Gamma == 0.0 and propagator._drive_period(cfg) == 2.0 * math.pi

    def error(periods):
        t_end = 2.0 * math.pi * periods
        traj = propagator.run(cfg, rho0, t_end, t_end / 10, 1e-10)
        exact = oracle.hydrogen_density(cfg.A, cfg.omega, cfg.Gamma, rho0, traj.grid)
        return np.max(np.abs(traj.rho - exact))

    assert error(1e4) <= 150 * error(1e2)


@pytest.mark.parametrize("name, Omega, t_end, dt_out", [
    ("fig3", None, 100.0, 0.1),
    ("fig9", None, 100.0, 0.1),
    ("fig1", None, 1000.0, 7.3),
    ("fig9", math.sqrt(2.0) - 1.0, 100.0, 0.1),
], ids=["fig3", "fig9", "fig1-dt_out>T", "incommensurate"])
def test_run_does_not_depend_on_where_sample_blocks_end(monkeypatch, name, Omega, t_end, dt_out):
    # run fills the grid SAMPLE_BLOCK samples at a time, with one evaluation
    # of the step table per block.  fig3 has 10 charts over half its period 20 pi,
    # fig1 at dt_out 7.3 > 2 pi puts each sample in its own period, and fig9
    # with Omega = sqrt(2) - 1 has no period at all.
    ps = fields.preset(name)
    cfg = ps.config if Omega is None else dataclasses.replace(ps.config, Omega=Omega)
    rho0 = ps.initial.density()
    reference = propagator.run(cfg, rho0, t_end, dt_out, 1e-10).rho.tobytes()
    for block in (1, 7, 64):
        monkeypatch.setattr(propagator, "SAMPLE_BLOCK", block)
        assert propagator.run(cfg, rho0, t_end, dt_out, 1e-10).rho.tobytes() == reference


@pytest.mark.parametrize("name, t_end, dt_out, block", [
    ("fig3", None, None, None),
    ("fig3", None, None, 64),
    ("fig1", 1000.0, 7.3, 64),
], ids=["fig3", "fig3-block=64", "fig1-dt_out>T-block=64"])
def test_chart_matrix_is_called_once_a_chart_and_once_a_sample_block(monkeypatch, name, t_end,
                                                                     dt_out, block):
    # chart_matrix is called once to compose each chart, then once for each
    # sample block, whatever the number of periods or charts the block spans.
    # fig3 has 10 charts over half its period 20 pi and its 1,001 rows span two
    # periods; fig1 at dt_out 7.3 > 2 pi puts each sample in its own period.
    ps = fields.preset(name)
    t_end, dt_out = t_end or ps.t_end, dt_out or ps.dt_out
    block = block or propagator.SAMPLE_BLOCK
    monkeypatch.setattr(propagator, "SAMPLE_BLOCK", block)
    charts = record_charts(monkeypatch)
    calls = []
    chart_matrix = propagator.chart_matrix

    def counting_chart_matrix(*mus):
        calls.append(mus)
        return chart_matrix(*mus)

    monkeypatch.setattr(propagator, "chart_matrix", counting_chart_matrix)
    traj = propagator.run(ps.config, ps.initial.density(), t_end, dt_out, 1e-10)
    assert len(charts) == (10 if name == "fig3" else 1)
    assert len(calls) == len(charts) + math.ceil(len(traj) / block)


def test_each_chart_serves_from_the_previous_cover_to_its_own(monkeypatch):
    # The step table's step i serves (end of step i - 1, end of step i], step 0
    # also s = 0, so each sample's step belongs to the chart c with
    # cover_{c-1} < s <= cover_c (chart 0 also s = 0).  fig3 has delta = 0, so
    # its 10 charts cover half its period and a sample at s > T/2 is looked up
    # at T - s.  dt_out puts the sample at t = dt_out 5e-13 relative past the
    # third cover (10.365186856080893), so it belongs to the chart that starts
    # there.  The covers are read from a run on the preset's own grid: only the
    # dense output depends on the grid, so the covers do not.
    ps = fields.preset("fig3")
    span = propagator._drive_period(ps.config)
    assert ps.t_end > span and ps.config.delta == 0.0
    charts = record_charts(monkeypatch)
    propagator.run(ps.config, ps.initial.density(), ps.t_end, ps.dt_out, 1e-10)
    covers = [chart.t_start for chart, _ in charts[1:]] + [0.5 * span]
    dt_out = covers[2] * (1.0 + 5e-13)
    assert dt_out > covers[2]
    served = []   # (the step table, the in-span times of a block, their steps)
    evaluate = propagator._evaluate

    def recording_evaluate(s, *steps):
        i, mus = evaluate(s, *steps)
        served.append((steps, s, i))
        return i, mus

    monkeypatch.setattr(propagator, "_evaluate", recording_evaluate)
    grid = propagator.run(ps.config, ps.initial.density(), ps.t_end, dt_out, 1e-10).grid

    starts, ends = np.array([0.0] + covers[:-1]), np.array(covers)
    for (step_starts, step_ends, *_), s, i in served:
        lo, hi = step_starts[i], step_ends[i]
        assert np.all(((lo < s) | ((lo == 0.0) & (s == 0.0))) & (s <= hi))
        chart = np.sum(starts[:, None] <= lo, axis=0) - 1   # the chart that holds each step
        assert np.all(hi <= ends[chart])
        assert chart.tolist() == np.sum(ends[:, None] < s, axis=0).tolist()
    s = np.clip(grid - np.floor(grid / span) * span, 0.0, span)
    s = np.where(s > 0.5 * span, span - s, s)
    passed = np.concatenate([times for _, times, _ in served])
    assert np.sort(passed).tolist() == np.sort(s).tolist()
    # the sample past the third cover takes the first step of the chart that starts there
    firsts = [steps[0][i[times == dt_out]].tolist() for steps, times, i in served]
    assert [covers[2]] in firsts


def per_chart_propagator(charts, grid, span) -> np.ndarray:
    """U on ``grid`` by the per-chart loop that one step table replaced, kept as
    its reference: chart c serves (cover_{c-1}, cover_c], chart 0 also s = 0, and
    looks up each of its samples in its own steps, step k serving
    [node k, node k + 1) and the last step also its end.  Charts that end at
    half the ``span`` are a folded period: a sample at s past the half is
    U(span - s)^-T U(span), with U(span) = W^T W."""
    def evaluate(chart, t):
        i = np.clip(np.searchsorted(chart.grid, t, side="right") - 1, 0, len(chart.grid) - 2)
        h = chart.grid[i + 1] - chart.grid[i]
        return riccati._interpolant((t - chart.grid[i]) / h, chart._values[:, i],
                                    chart._values[:, i + 1], [f[:, i] for f in chart._dense])

    periods = np.floor(grid / span) if span < grid[-1] else np.zeros_like(grid)
    s = np.clip(grid - periods * span, 0.0, span)
    covers = [chart.t_final for chart in charts]
    folded = s > covers[-1]
    s[folded] = span - s[folded]
    before, u_span = [], np.eye(2, dtype=complex)
    for chart, cover in zip(charts, covers):
        before.append(u_span)
        u_span = propagator.chart_matrix(*evaluate(chart, cover)) @ u_span
    if covers[-1] < span:
        u_span = u_span.T @ u_span
    out = propagator._power(u_span, periods + folded)
    chart_of = np.searchsorted(covers, s)
    for c in np.unique(chart_of):
        k = np.flatnonzero(chart_of == c)
        u_s = propagator._matmul2(propagator.chart_matrix(*evaluate(charts[c], s[k])), before[c])
        back = folded[k]
        (a, b), (c_, d) = u_s[back].transpose(1, 2, 0)   # U(span - s)^-T, at det 1
        u_s[back] = np.moveaxis(np.array([[d, -c_], [-b, a]]), -1, 0)
        out[k] = propagator._matmul2(u_s, out[k])
    return out


def record_tables(monkeypatch):
    """Route the solve step's _evaluate through a recorder; returns the list of
    (times, step table) pairs it fills, in order."""
    tables = []
    evaluate = propagator._evaluate

    def recording_evaluate(t, *steps):
        tables.append((t, steps))
        return evaluate(t, *steps)

    monkeypatch.setattr(propagator, "_evaluate", recording_evaluate)
    return tables


@pytest.mark.parametrize("every_node", [False, True], ids=["own-grid", "every-node"])
@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("name", ["fig3", "fig4", "fig6", "incommensurate"])
def test_one_step_table_gives_the_per_chart_loops_u_bit_for_bit(monkeypatch, name, tol,
                                                                every_node):
    # fig3 has 10 charts over half a period, fig4 3 and fig6 (delta != 0)
    # one over a whole period.  The off-period fig9 at a chart limit of 0.25
    # has 25 (tol 1e-6) or 30 charts over its whole window [0, 20] and three
    # samples, so most of its charts serve no sample and the table keeps only
    # their last steps.  Each drive runs on its own grid, and on that grid with
    # every node t of the span's charts, their covers among them, and T - t
    # added, so that the table keeps every step: on a node inside a chart the
    # table takes the step that ends there and the loop the step that starts there.
    if name == "incommensurate":
        monkeypatch.setattr(propagator, "CHART_LIMIT", 0.25)
        cfg, grid = _OFF_PERIOD_FIG9, propagator.output_grid(20.0, 10.0)
        span = cover = grid[-1]
    else:
        ps = fields.preset(name)
        cfg, grid = ps.config, propagator.output_grid(ps.t_end, ps.dt_out)
        span = propagator._drive_period(cfg)
        cover = span if name == "fig6" else 0.5 * span
        assert cover < grid[-1]   # a periodic span: some samples in later periods
    charts, tables = record_charts(monkeypatch), record_tables(monkeypatch)
    if every_node:
        propagator._propagator(cfg, grid, tol)
        nodes = [chart.grid for chart, _ in charts]
        grid = np.unique(np.concatenate([grid] + nodes + [span - t for t in nodes]))
        charts.clear()
    u = propagator._propagator(cfg, grid, tol)(slice(None))
    assert charts[-1][0].t_final == cover
    assert len(charts) == {"fig3": 10, "fig4": 3, "fig6": 1}.get(name, len(charts))
    steps, kept = sum(len(chart.grid) - 1 for chart, _ in charts), len(tables[-1][1][0])
    if name == "incommensurate" and not every_node:
        # a sample is in at most two charts' steps, so some charts serve none
        assert len(charts) > 2 * len(grid) and kept < steps
    else:
        assert kept == steps   # the presets' own grids, every 0.1 or 0.05, keep every step too
    assert u.tobytes() == per_chart_propagator([chart for chart, _ in charts], grid,
                                               span).tobytes()


def test_a_sample_in_a_step_without_dense_output_is_a_value_error(monkeypatch):
    # solve_mu builds dense output only on the steps that hold a time of
    # t_eval.  With one sample dropped from t_eval, that sample lies inside a
    # step without it, which the step table leaves out unless it is its chart's
    # last, and run refuses it rather than read zero coefficients or serve it
    # from a later step.
    ps = fields.preset("fig1")
    solve_mu = propagator.solve_mu
    dropped = []

    def dropping_solve_mu(*args, t_eval, **kwargs):
        dropped.append(t_eval[1])
        return solve_mu(*args, t_eval=t_eval[:1] + t_eval[2:], **kwargs)

    monkeypatch.setattr(propagator, "solve_mu", dropping_solve_mu)
    with pytest.raises(ValueError, match="without dense output") as exc:
        propagator.run(ps.config, ps.initial.density(), 500.0, 250.0, 1e-10)
    assert repr(dropped[0]) in str(exc.value)


# perfbench's long-horizon drives: (A, Omega, B, delta, Gamma, sign, initial), omega = 1
_LONG_HORIZON = (
    (1.4877323134873426, 0.0, 2.3372200363257147, 2.081432639166289, 0.06666666666666667,
     -1.0, "stark_minus"),
    (1.9514951915147918, 0.1, 1.3603230444577044, -1.8793087413016973, 0.13333333333333333,
     1.0, "level3"),
    (0.638036470882096, 1.0, 0.5290454323518285, -1.4940265533317814, 0.0, -1.0, "level3"),
    (2.4510326737998422, 0.0, 2.1842962575081546, 1.1875050263036782, 0.20000000000000004,
     -1.0, "level2"),
)


@pytest.mark.parametrize("drive", _LONG_HORIZON)
def test_sparse_rows_equal_the_same_rows_of_a_dense_run(drive):
    # The charts build dense output only on the steps that hold a sample, so
    # three samples to t = 500 leave most steps without it; their rows are
    # still those of a run sampled every 2.5, bit for bit.
    a, big_omega, b, delta, gamma, sign, initial = drive
    cfg = fields.FieldConfig(A=a, Omega=big_omega, B=b, omega=1.0, delta=delta, Gamma=gamma,
                             sign_convention=sign)
    rho0 = fields.InitialState(initial).density()
    sparse = propagator.run(cfg, rho0, 500.0, 250.0, 1e-10)
    dense = propagator.run(cfg, rho0, 500.0, 2.5, 1e-10)
    assert sparse.grid.tolist() == [0.0, 250.0, 500.0]
    assert sparse.table.tobytes() == dense.table[[0, 100, 200]].tobytes()


@functools.lru_cache(maxsize=None)
def _default_limit_run(name):
    ps = fields.preset(name)
    return propagator.run(ps.config, ps.initial.density(), 20.0, 0.5, 1e-12)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(name=st.sampled_from(["fig3", "fig9", "fig13"]), limit=st.floats(0.2, 1.0))
def test_result_does_not_depend_on_where_charts_end(name, limit):
    # the cocycle property under random segmentations (measured at most
    # 8.5e-12 from the default one)
    ps = fields.preset(name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagator, "CHART_LIMIT", limit)
        traj = propagator.run(ps.config, ps.initial.density(), 20.0, 0.5, 1e-12)
    assert np.max(np.abs(traj.rho - _default_limit_run(name).rho)) <= 1e-8


def test_run_continues_through_chart_singularity():
    # constant coupling: the exponent functions blow up at pi/(2 J0) = pi,
    # while the physical state stays perfectly regular
    j0 = 0.5
    cfg = fields.FieldConfig(A=0.0, Omega=0.0, B=2 * j0, omega=0.0)
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    traj = propagator.run(cfg, rho0, 8.0, 0.1, 1e-10)
    direct = oracle.integrate_eta_direct(cfg, algebra.rho_to_eta(rho0), 8.0, 0.1, 1e-12)
    assert np.max(np.abs(algebra.rho_to_eta(traj.rho) - algebra.rho_to_eta(direct.rho))) <= 1e-6


def test_run_composes_through_repeated_blowups(monkeypatch):
    # A blow-up threshold below CHART_LIMIT ends every chart but the last in
    # a blow-up, so each restart composes a blow-up's partial chart.
    j0 = 0.5
    cfg = fields.FieldConfig(A=0.0, Omega=0.0, B=2 * j0, omega=0.0)
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    monkeypatch.setattr(riccati, "BLOWUP_THRESHOLD", 0.9)
    charts = record_charts(monkeypatch)
    traj = propagator.run(cfg, rho0, 8.0, 0.5, 1e-10)
    assert len(charts) >= 3
    assert [blew_up for _, blew_up in charts] == [True] * (len(charts) - 1) + [False]
    direct = oracle.integrate_eta_direct(cfg, algebra.rho_to_eta(rho0), 8.0, 0.5, 1e-12)
    assert np.max(np.abs(algebra.rho_to_eta(traj.rho) - algebra.rho_to_eta(direct.rho))) <= 1e-6


@pytest.mark.parametrize("cfg, blowup_threshold, ends_in_blowup", [
    (fields.preset("fig3").config, riccati.BLOWUP_THRESHOLD, False),
    (fields.FieldConfig(A=0.0, Omega=0.0, B=1.0, omega=0.0), 0.9, True),
], ids=["halted", "blow-up"])
def test_each_chart_restarts_at_its_last_node(monkeypatch, cfg, blowup_threshold, ends_in_blowup):
    monkeypatch.setattr(riccati, "BLOWUP_THRESHOLD", blowup_threshold)
    charts = record_charts(monkeypatch)
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    propagator.run(cfg, rho0, 20.0, 0.5, 1e-10)
    assert len(charts) >= 3
    assert all(blew_up == ends_in_blowup for _, blew_up in charts[:-1])
    for (chart, blew_up), (following, _) in zip(charts, charts[1:]):
        health = np.maximum(np.maximum(abs(chart.mu_plus), abs(chart.mu_minus)), abs(chart.mu.imag))
        # a halted chart's last node is its first past the limit; a blow-up's
        # partial chart holds only nodes inside it
        past = np.flatnonzero(health > propagator.CHART_LIMIT).tolist()
        assert past == ([] if blew_up else [len(chart.grid) - 1])
        assert following.t_start == chart.grid[-1]


def _fast_clock(cfg, factor):
    """``cfg`` with every rate, drive frequency and Gamma multiplied by ``factor``."""
    return dataclasses.replace(cfg, A=cfg.A * factor, Omega=cfg.Omega * factor, B=cfg.B * factor,
                               omega=cfg.omega * factor, Gamma=cfg.Gamma * factor)


_SOLVE = {
    "product": propagator.run,
    "direct_eta": lambda cfg, rho0, *window: oracle.integrate_eta_direct(
        cfg, algebra.rho_to_eta(rho0), *window),
    "direct_rho": oracle.integrate_rho_direct,
}


# fig1 (Omega = 0) with delta = 1: its period is folded about c = pi - 1, not 0
_PHASED = {"fig1-delta=1": dataclasses.replace(
    fields.preset("fig1"), config=dataclasses.replace(fields.preset("fig1").config, delta=1.0))}


@functools.lru_cache(maxsize=None)
def _preset_run(name, factor=1.0, t_end=None, solver="product") -> propagator.Trajectory:
    """Preset ``name`` (or a drive of _PHASED) run by ``solver`` at tol 1e-10 on
    a clock ``factor`` times as fast, over its own window or over [0, ``t_end``]."""
    ps = _PHASED[name] if name in _PHASED else fields.preset(name)
    t_end = ps.t_end if t_end is None else t_end
    return _SOLVE[solver](_fast_clock(ps.config, factor), ps.initial.density(),
                          t_end / factor, ps.dt_out / factor, 1e-10)


@pytest.mark.parametrize("name, factor, t_end, solver", [
    pytest.param(name, factor, None, "product", id=f"{name}-{factor}")
    for name in ["fig3", "fig4", "fig8"]
    for factor in [1e7, 1e14, 1e-14, 2.0 ** 24, 2.0 ** -30, 2.0 ** 60]
] + [pytest.param("fig3", 1e5, 20.0, "product", id="fig3-100000.0-t_end=20")] + [
    pytest.param("fig1-delta=1", factor, None, "product", id=f"fig1-delta=1-{factor}")
    for factor in [2.0 ** 24, 2.0 ** -30, 2.0 ** 60]
] + [
    pytest.param(name, factor, None, solver, id=f"{solver}-{name}-{factor}")
    for solver in ["direct_eta", "direct_rho"] for name in ["fig3", "fig4", "fig8"]
    for factor in [2.0 ** 24, 2.0 ** -30, 2.0 ** 60]
])
def test_a_fast_clock_changes_nothing(name, factor, t_end, solver):
    # The same physics with every rate x factor and the window / factor: no
    # constant of the solve has a unit of time, so none may refuse it.  A
    # power of two scales every time and rate exactly, and then every step
    # too; a decimal factor rounds them.  Measured on fig3 over [0, 20] at
    # every decade from 1e-20 to 1e30: the same rows, each at most 1.2e-14
    # from the unscaled run.  At 1e5, 200 dt_out rounds one ulp short of that
    # window's t_end, which once gained the grid a row.  The direct oracles
    # first try their whole window too, so on a power of two their steps
    # scale exactly; rounded times give them other steps, so they take no
    # decimal factor.
    slow = _preset_run(name, 1.0, t_end, solver)
    fast = _preset_run(name, factor, t_end, solver)
    assert len(fast) == len(slow)
    if math.frexp(factor)[0] == 0.5:   # a power of two
        assert fast.table[:, 1:16].tobytes() == slow.table[:, 1:16].tobytes()
    else:
        assert np.max(np.abs(fast.table[:, 1:16] - slow.table[:, 1:16])) <= 1e-9


def test_a_chart_that_cannot_advance_is_a_propagation_error(monkeypatch):
    # every first step blows up, so the first chart holds its start node only
    monkeypatch.setattr(riccati, "BLOWUP_THRESHOLD", 1e-12)
    charts = record_charts(monkeypatch)
    ps = fields.preset("fig1")
    with pytest.raises(propagator.PropagationError, match="blew up on its first step"):
        propagator.run(ps.config, ps.initial.density(), 1.0, 0.5, 1e-10)
    [(chart, blew_up)] = charts
    assert blew_up and len(chart.grid) == 1


def test_purity_law_along_a_run():
    ps = fields.preset("fig7")
    rho0 = ps.initial.density()
    eta0 = algebra.rho_to_eta(rho0)
    norm0_sq = observables.coherence_norm(eta0) ** 2
    traj = propagator.run(ps.config, rho0, 40.0, 1.0, 1e-10)
    for k, t in enumerate(traj.grid):
        expected = 1.0 / 3.0 + 0.5 * math.exp(-2 * ps.config.Gamma * t) * norm0_sq
        assert observables.purity(traj.rho[k]) == pytest.approx(expected, abs=1e-7)


def test_eigenvalue_law_for_pure_initial_state():
    ps = fields.preset("fig5")
    traj = propagator.run(ps.config, ps.initial.density(), 40.0, 2.0, 1e-10)
    for k, t in enumerate(traj.grid):
        x = math.exp(-ps.config.Gamma * t)
        lam = observables.spectrum(traj.rho[k])
        law = np.array([(1 + 2 * x) / 3, (1 - x) / 3, (1 - x) / 3])
        assert np.max(np.abs(lam - law)) <= 1e-7


def test_output_grid_row_counts():
    assert len(propagator.output_grid(100.0, 0.1)) == 1001
    assert len(propagator.output_grid(1.0, 0.3)) == 5
    grid = propagator.output_grid(1.0, 0.3)
    assert grid[-1] == 1.0
    assert grid[0] == 0.0


def test_a_rescaled_window_keeps_its_rows():
    # t_end / dt_out rounds differently once both are divided by 10^k; the
    # 1e-9 margin on the interval count absorbs that, so no row appears or goes
    for t_end in range(1, 41):
        for dt_out in (0.1, 0.05, 0.2, 0.25, 0.5):
            rows = len(propagator.output_grid(float(t_end), dt_out))
            for k in range(-20, 31):
                scale = 10.0 ** k
                assert len(propagator.output_grid(t_end / scale, dt_out / scale)) == rows, (
                    t_end, dt_out, k)


def test_the_row_cap_counts_the_rows_the_grid_builds(monkeypatch):
    monkeypatch.setattr(propagator, "MAX_SAMPLES", 5)
    assert propagator.output_grid(4.0, 1.0).tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    # 6 rows each; and a quotient of inf, which math.ceil would refuse
    for t_end, dt_out in ((4.5, 1.0), (5.0, 1.0), (1e300, 1e-300)):
        with pytest.raises(ValueError, match=f"^dt_out = {dt_out!r} gives .* output rows up to "):
            propagator.output_grid(t_end, dt_out)


def test_oversized_output_grid_fails_before_allocating():
    cfg = fields.preset("fig1").config
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dt_out = 1e-07 .* t_end = 1.0"):
            propagator.run(cfg, rho0, 1.0, 1e-7, 1e-9)   # 10^7 rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert len(propagator.output_grid(99.0, 1e-4)) == 990_001 <= propagator.MAX_SAMPLES


_HYDROGEN = fields.preset("hydrogen")
_RHO0 = _HYDROGEN.initial.density()
GRID_CONSUMERS = {
    "output_grid": propagator.output_grid,
    "run": lambda t_end, dt_out: propagator.run(_HYDROGEN.config, _RHO0, t_end, dt_out, 1e-9),
    "integrate_eta_direct": lambda t_end, dt_out: oracle.integrate_eta_direct(
        _HYDROGEN.config, algebra.rho_to_eta(_RHO0), t_end, dt_out, 1e-9),
    "integrate_rho_direct": lambda t_end, dt_out: oracle.integrate_rho_direct(
        _HYDROGEN.config, _RHO0, t_end, dt_out, 1e-9),
    "hydrogen_trajectory": lambda t_end, dt_out: oracle.hydrogen_trajectory(
        _HYDROGEN.config.A, _HYDROGEN.config.omega, 0.0, _RHO0, t_end, dt_out),
}


@pytest.mark.parametrize("t_end, dt_out, rows", [(0.9, 0.3, 4), (2.1, 0.7, 4), (2e-4, 1e-6, 201),
                                                  (1e-15, 0.5, 2)])
@pytest.mark.parametrize("consumer", GRID_CONSUMERS)
def test_every_grid_consumer_ends_on_t_end_with_distinct_rows(consumer, t_end, dt_out, rows):
    # n * dt_out rounding just short of t_end once added t_end as a row of its
    # own, one ulp past the last node, so two rows printed the same time
    result = GRID_CONSUMERS[consumer](t_end, dt_out)
    grid = getattr(result, "grid", result)
    assert len(grid) == rows and grid[0] == 0.0 and grid[-1] == t_end
    assert np.all(np.diff(grid) > 0)
    assert len({"%.11e" % t for t in grid}) == rows


@pytest.mark.parametrize("t_end, dt_out, key", [
    (1.0, 0.0, "dt_out"), (1.0, -0.1, "dt_out"), (1.0, math.inf, "dt_out"), (-1.0, 0.1, "t_end"),
], ids=["dt_out=0", "dt_out=-0.1", "dt_out=inf", "t_end=-1"])
@pytest.mark.parametrize("consumer", GRID_CONSUMERS)
def test_every_grid_consumer_rejects_a_bad_grid_naming_the_key(consumer, t_end, dt_out, key):
    with pytest.raises(ValueError, match=f"^{key} must be finite and > 0, got "):
        GRID_CONSUMERS[consumer](t_end, dt_out)


TOL_CONSUMERS = {
    "solve_mu": lambda tol: riccati.solve_mu(_HYDROGEN.config, 1.0, tol),
    "run": lambda tol: propagator.run(_HYDROGEN.config, _RHO0, 1.0, 0.5, tol),
    "integrate_eta_direct": lambda tol: oracle.integrate_eta_direct(
        _HYDROGEN.config, algebra.rho_to_eta(_RHO0), 1.0, 0.5, tol),
    "integrate_rho_direct": lambda tol: oracle.integrate_rho_direct(
        _HYDROGEN.config, _RHO0, 1.0, 0.5, tol),
}


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf],
                         ids=["tol=0", "tol=-1e-9", "tol=nan", "tol=inf"])
@pytest.mark.parametrize("consumer", TOL_CONSUMERS)
def test_every_tol_consumer_rejects_a_tol_that_is_not_finite_and_positive(consumer, tol):
    # at a nan or inf tol the adaptive steppers never finish
    with pytest.raises(ValueError, match="^tol must be finite and > 0, got "):
        TOL_CONSUMERS[consumer](tol)


@pytest.mark.parametrize("tol", [1e-300, 1e-200, 9.9e-14], ids=["tol=1e-300", "tol=1e-200",
                                                              "tol=9.9e-14"])
@pytest.mark.parametrize("consumer", TOL_CONSUMERS)
def test_every_tol_consumer_rejects_a_tol_below_the_floor(consumer, tol):
    # below 1e-13 solve_mu's error norm overflowed (OverflowError); the CLI
    # refuses the same range with exit 2
    assert riccati.MIN_TOL == 1e-13
    with pytest.raises(ValueError, match=rf"^tol must be at least 1e-13, got {tol!r}$"):
        TOL_CONSUMERS[consumer](tol)


def test_every_tol_consumer_runs_at_the_floor():
    for consumer in TOL_CONSUMERS.values():
        consumer(riccati.MIN_TOL)


def test_a_solve_past_the_step_cap_is_a_value_error(monkeypatch):
    # With Omega = sqrt(2) - 1 fig9's drives have no common period, so the
    # charts run over the whole window: to t = 2000 at tol 1e-10 that took 642
    # charts and 68,843 steps, so t_end = 1e6 would take hours and gigabytes.
    # At most MAX_SAMPLES accepted Riccati steps, over all charts, are allowed.
    ps = fields.preset("fig9")
    cfg = dataclasses.replace(ps.config, Omega=math.sqrt(2.0) - 1.0)
    assert propagator._drive_period(cfg) is None
    rho0 = ps.initial.density()
    charts = record_charts(monkeypatch)
    propagator.run(cfg, rho0, 60.0, 10.0, 1e-8)
    steps = sum(len(chart.grid) - 1 for chart, _ in charts)
    assert len(charts) > 2
    monkeypatch.setattr(propagator, "MAX_SAMPLES", steps)
    propagator.run(cfg, rho0, 60.0, 10.0, 1e-8)
    monkeypatch.setattr(propagator, "MAX_SAMPLES", steps - 1)
    with pytest.raises(ValueError, match=rf"^the exponents to t = 60\.0 need more than "
                                         rf"{steps - 1} Riccati steps .*; shorten t_end$"):
        propagator.run(cfg, rho0, 60.0, 10.0, 1e-8)
    # A weak drive stays inside CHART_LIMIT, so it is one chart over the whole
    # window (69,061 steps to t = 2e4 at tol 1e-10): the cap stops it inside
    # that chart, which never returns.
    weak = dataclasses.replace(cfg, A=0.01, B=0.01)
    monkeypatch.setattr(propagator, "MAX_SAMPLES", 1000)
    charts.clear()
    with pytest.raises(ValueError, match=r"need more than 1000 Riccati steps"):
        propagator.run(weak, rho0, 2e4, 1e4, 1e-10)
    assert charts == []


def test_a_long_run_holds_no_second_sample_stack():
    # 10^5 output samples from one chart (fig11 stays healthy over its drive
    # period 2 pi, which serves all 16 periods to t = 100): the samples and
    # the observables table are filled in blocks of SAMPLE_BLOCK, and the
    # Hermitian part is a block temporary, so the peak is the sample stack
    # and the trajectory (28.0 MB: samples, grid and table) and a bounded
    # transient.  Measured peak 31.1 MB, and 31.3 MB on the same host when run
    # lifted each chart's samples in a block apart.  Earlier layouts, as measured
    # when they were current: 31.1 MB when run formed the Hermitian
    # part in its sample stack, which the trajectory kept as rho, 30.9 MB when
    # run also held the period index and in-period time of every sample
    # (1.6 MB), 45.3 MB when the Hermitian part was a copy of the sample
    # stack, 43.9 MB when the chart ran over the whole window, 60.3 MB when
    # the table was built in one batch, 61.9 MB when a trajectory also stored
    # eta, and 155 MB when a whole chart was filled in one batch.
    ps = fields.preset("fig11")
    tracemalloc.start()
    try:
        traj = propagator.run(ps.config, ps.initial.density(), 100.0, 1e-3, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 100_001
    assert peak < 33e6


@pytest.mark.parametrize("cfg, limit", [(fields.preset("fig3").config, 1.0),
                                        (_OFF_PERIOD_FIG9, 0.25)], ids=["fig3", "incommensurate"])
def test_each_chart_is_dropped_once_its_steps_are_in_the_table(monkeypatch, cfg, limit):
    # Each chart's steps that serve a sample, and its last, are copied out as it
    # is solved, and no chart outlives its copy, so the table holds at most one
    # step a sample, or two for a sample on a node, and one a chart.  fig3 takes
    # 7 charts to t = 20, and the off-period fig9 36 at a chart limit of 0.25.
    # Measured on fig9 with Omega = sqrt(2) - 1 to t = 2,000 at dt_out 0.5 (671
    # charts): run's peak under tracemalloc 5.1 MB, and 9.6 MB when the table
    # kept every step of every chart.
    monkeypatch.setattr(propagator, "CHART_LIMIT", limit)
    tables = record_tables(monkeypatch)
    alive = []

    def recording_solve_mu(*args, **kwargs):
        assert [ref for ref in alive if ref() is not None] == []
        chart = riccati.solve_mu(*args, **kwargs)
        alive.append(weakref.ref(chart))
        return chart

    monkeypatch.setattr(propagator, "solve_mu", recording_solve_mu)
    propagator.run(cfg, np.diag([1.0, 0.0, 0.0]).astype(complex), 20.0, 0.5, 1e-10)
    assert len(alive) >= 7
    assert [ref for ref in alive if ref() is not None] == []
    samples = np.unique(np.concatenate([times for times, _ in tables]))
    assert len(tables[-1][1][0]) <= len(samples) + len(alive)


def test_trajectory_build_transient_is_bounded():
    # the observables table of 10^5 samples is built SAMPLE_BLOCK rows at a
    # time from the caller's stack, which is neither written nor copied, so
    # the table is all that is kept; measured 0.9 MB above it, 15.7 MB when
    # the stack was copied and 17.6 MB when the table was built in one batch
    rng = np.random.default_rng(2)
    n = 100_000
    rhos = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    grid = np.arange(n, dtype=float)
    tracemalloc.start()
    try:
        traj = propagator.trajectory_from_rhos(grid, rhos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - traj.table.nbytes < 5e6


def test_run_input_validation():
    cfg = fields.preset("fig1").config
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        propagator.run(cfg, rho0, -1.0, 0.1, 1e-9)
    with pytest.raises(ValueError):
        propagator.run(cfg, rho0, 1.0, 0.0, 1e-9)
    with pytest.raises(ValueError):
        propagator.run(cfg, rho0, 1.0, 0.1, 0.0)
    with pytest.raises(ValueError, match="t_end"):
        propagator.run(cfg, rho0, math.inf, 0.1, 1e-9)
    with pytest.raises(ValueError, match="dt_out"):
        propagator.run(cfg, rho0, 1.0, math.nan, 1e-9)
    with pytest.raises(ValueError):
        propagator.run(cfg, np.eye(3), 1.0, 0.1, 1e-9)  # trace 3


def test_trajectory_from_rhos_keeps_the_hermitian_part_and_leaves_its_input_unchanged():
    rng = np.random.default_rng(5)
    rhos = rng.standard_normal((7, 3, 3)) + 1j * rng.standard_normal((7, 3, 3))
    before = rhos.copy()
    traj = propagator.trajectory_from_rhos(np.arange(7.0), rhos)
    assert np.array_equal(rhos, before)
    assert np.array_equal(traj.rho, 0.5 * (rhos + rhos.conj().transpose(0, 2, 1)))
    assert traj.rho.flags.c_contiguous


def test_trajectory_from_etas_projects_to_physical_states():
    grid = np.array([0.0, 1.0])
    eta = algebra.rho_to_eta(np.diag([0.4, 0.35, 0.25]).astype(complex))
    noisy = np.vstack([eta, eta + 1e-12 * (1 + 1j)])
    traj = propagator.trajectory_from_etas(grid, noisy)
    for rho in traj.rho:
        assert algebra.hermiticity_deviation(rho) <= 1e-15
        assert abs(np.trace(rho) - 1.0) <= 1e-15
