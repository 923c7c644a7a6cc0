import cmath
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from trilevel import algebra, fields, riccati


def constant_coupling_config(j0: float) -> fields.FieldConfig:
    # omega = 0, delta = 0 makes the 2-3 coupling the constant B/2.
    return fields.FieldConfig(A=0.0, Omega=0.0, B=2 * j0, omega=0.0, delta=0.0)


def test_zero_drive_gives_exactly_zero_exponents():
    cfg = fields.FieldConfig(A=0.0, Omega=0.0, B=0.0, omega=0.0)
    traj = riccati.solve_mu(cfg, 5.0, 1e-10)
    assert traj.t_final == 5.0
    for t in (0.0, 2.5, 5.0):
        assert np.max(np.abs(np.array(traj.evaluate(t)))) == 0.0


def test_initial_values_are_exactly_zero():
    traj = riccati.solve_mu(fields.preset("fig3").config, 5.0, 1e-9)
    assert complex(traj.mu_plus[0]) == 0j
    assert complex(traj.mu_minus[0]) == 0j
    assert complex(traj.mu[0]) == 0j


def test_decoupled_case_without_23_coupling():
    # With no 2-3 coupling the Riccati variable stays zero and the B_z
    # exponent is the running integral of the 1-2 coupling.  Cross-check the
    # sign against the generator equation: eta evolves by
    # exp(-i (integral eps) B_z), so mu(t) must equal +(A/Omega) sin(Omega t).
    a, om = 0.7, 1.3
    cfg = fields.FieldConfig(A=a, Omega=om, B=0.0, omega=1.0)
    traj = riccati.solve_mu(cfg, 5.0, 1e-11)
    for t in np.linspace(0.0, 5.0, 21):
        mp, mm, mu = traj.evaluate(float(t))
        assert abs(mp) <= 1e-12
        assert abs(mm) <= 1e-12
        assert mu == pytest.approx((a / om) * math.sin(om * t), abs=1e-9)

    eta0 = algebra.rho_to_eta(algebra.random_density_matrix(np.random.default_rng(5)))
    t = 3.7
    _, _, mu = traj.evaluate(t)
    from scipy.linalg import expm
    integral = (a / om) * math.sin(om * t)
    direct = expm(-1j * integral * np.asarray(algebra.B_Z)) @ eta0
    product = expm(-1j * mu * np.asarray(algebra.B_Z)) @ eta0
    assert np.max(np.abs(direct - product)) <= 1e-9


def test_static_drive_gives_linear_mu():
    cfg = fields.FieldConfig(A=0.25, Omega=0.0, B=0.0, omega=1.0)
    traj = riccati.solve_mu(cfg, 4.0, 1e-11)
    _, _, mu = traj.evaluate(4.0)
    assert mu == pytest.approx(0.25 * 4.0, abs=1e-10)


def test_constant_coupling_closed_form():
    j0 = 0.5
    cfg = constant_coupling_config(j0)
    t_max = 0.9 * math.pi / (2 * j0)
    traj = riccati.solve_mu(cfg, t_max, 1e-12)
    for t in np.linspace(0.05, t_max, 40):
        mp, mm, mu = traj.evaluate(float(t))
        assert abs(mp - math.tan(j0 * t)) <= 1e-8
        assert abs(mm - 0.5 * math.sin(2 * j0 * t)) <= 1e-8
        assert abs(mu - (-2j * math.log(math.cos(j0 * t)))) <= 1e-8


def test_blowup_raises_singularity_error_near_pole():
    j0 = 0.5
    pole = math.pi / (2 * j0)
    with pytest.raises(riccati.SingularityError) as err:
        riccati.solve_mu(constant_coupling_config(j0), 1.5 * pole, 1e-10)
    exc = err.value
    assert abs(exc.t_star - pole) <= 0.05 * pole
    # partial trajectory keeps all samples below the threshold and stays usable
    assert np.max(np.abs(exc.partial.mu_plus)) < riccati.BLOWUP_THRESHOLD
    assert exc.partial.t_final <= exc.t_star
    mp, _, _ = exc.partial.evaluate(exc.partial.t_final / 2)
    assert np.isfinite(abs(mp))


def test_pure_coupling_keeps_mu_plus_real():
    # without the 1-2 drive the Riccati equation has real coefficients
    cfg = fields.FieldConfig(A=0.0, Omega=0.0, B=1.0, omega=1.0, delta=0.3)
    traj = riccati.solve_mu(cfg, 20.0, 1e-10)
    assert np.max(np.abs(traj.mu_plus.imag)) <= 1e-10


def test_self_consistency_under_tolerance_refinement():
    # refinement to tol/10 moves the solution by no more than 10 tol on the
    # solver's own mixed absolute/relative scale (a purely relative bound is
    # meaningless near the zero initial values)
    cfg = fields.preset("fig1").config
    tol = 1e-8
    coarse = riccati.solve_mu(cfg, 3.0, tol)
    fine = riccati.solve_mu(cfg, 3.0, tol / 10)
    for t in np.linspace(0.0, 3.0, 40):
        a = np.array(coarse.evaluate(float(t)))
        b = np.array(fine.evaluate(float(t)))
        scale = 1.0 + np.maximum(np.abs(b), 1e-12)
        assert np.max(np.abs(a - b) / scale) <= 10 * tol


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_residuals_on_refined_grid(tol):
    cfg = fields.preset("fig3").config
    traj = riccati.solve_mu(cfg, 30.0, tol)
    times = []
    for i in range(len(traj.grid) - 1):
        times.extend(np.linspace(traj.grid[i], traj.grid[i + 1], 6)[1:-1])
    res = riccati.residuals(traj, cfg, np.array(times))
    assert np.max(np.abs(res)) <= 100 * tol


def test_halt_predicate_stops_integration():
    cfg = fields.preset("fig4").config
    traj = riccati.solve_mu(cfg, 100.0, 1e-9,
                            halt=lambda t, vals: abs(vals[0]) > 1.0)
    assert traj.halted
    assert traj.t_final < 100.0
    assert abs(complex(traj.mu_plus[-1])) > 1.0
    assert np.max(np.abs(traj.mu_plus[:-1])) <= 1.5


def test_dense_output_is_exact_at_nodes():
    cfg = fields.preset("fig9").config
    traj = riccati.solve_mu(cfg, 10.0, 1e-9)
    for i in (0, len(traj.grid) // 2, len(traj.grid) - 1):
        vals = np.array(traj.evaluate(float(traj.grid[i])))
        stored = np.array([traj.mu_plus[i], traj.mu_minus[i], traj.mu[i]])
        assert np.max(np.abs(vals - stored)) == 0.0


def test_evaluate_on_an_array_equals_the_scalar_calls():
    traj = riccati.solve_mu(fields.preset("fig9").config, 10.0, 1e-9)
    times = np.concatenate([traj.grid, np.linspace(0.0, 10.0, 37)])   # nodes and between
    for method in (traj.evaluate, traj.evaluate_derivative):
        stacked = method(times)
        assert stacked.shape == (3, len(times))
        assert np.array_equal(stacked, np.array([method(float(t)) for t in times]).T)
        assert np.array_equal(method(times[:36].reshape(4, 9)), stacked[:, :36].reshape(3, 4, 9))
    nodes = np.array([traj.mu_plus, traj.mu_minus, traj.mu])
    assert np.array_equal(traj.evaluate(traj.grid), nodes)


def test_evaluate_rejects_out_of_range_times():
    traj = riccati.solve_mu(fields.preset("fig1").config, 2.0, 1e-9)
    with pytest.raises(ValueError):
        traj.evaluate(-0.1)
    with pytest.raises(ValueError):
        traj.evaluate(2.1)
    with pytest.raises(ValueError, match="2.1"):
        traj.evaluate(np.array([0.5, 2.1]))


def test_solve_mu_input_validation():
    cfg = fields.preset("fig1").config
    with pytest.raises(ValueError):
        riccati.solve_mu(cfg, 0.0, 1e-9)
    with pytest.raises(ValueError):
        riccati.solve_mu(cfg, 1.0, -1e-9)
    for t_end in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t_end must be finite"):
            riccati.solve_mu(cfg, t_end, 1e-8)
    for t_start in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="t_start must be finite"):
            riccati.solve_mu(cfg, 1.0, 1e-8, t_start=t_start)


def test_restartable_from_arbitrary_start_time():
    cfg = fields.preset("fig3").config
    traj = riccati.solve_mu(cfg, 12.0, 1e-10, t_start=7.0)
    assert traj.t_start == 7.0
    assert complex(traj.mu_plus[0]) == 0j
    mp, mm, mu = traj.evaluate(7.0)
    assert (mp, mm, mu) == (0j, 0j, 0j)


def test_stepper_runs_on_python_scalars():
    # One numpy scalar in the stage loop turns every stage into numpy
    # arithmetic, about ten times slower; numpy inputs must not leak in.
    cfg = fields.preset("fig3").config
    assert all(type(v) is complex for v in riccati.mu_rhs(0.7, (0.1j, 0.2 + 0j, 0.3 + 0.1j), cfg))
    np_cfg = fields.FieldConfig(*(np.float64(v) for v in vars(cfg).values()))
    seen = []

    def halt(t, vals):
        seen.append((t, vals))
        return False

    riccati.solve_mu(np_cfg, np.float64(5.0), np.float64(1e-9), t_start=np.float64(0.0),
                     halt=halt)
    assert seen
    for t, vals in seen:
        assert type(t) is float
        assert len(vals) == 3 and all(type(v) is complex for v in vals)


def test_every_stage_calls_mu_rhs_through_the_module(monkeypatch):
    # An RHS counter that wraps riccati.mu_rhs sees every evaluation: one at
    # the start, one in the starting-step estimate, six per attempted step.
    calls = []
    real = riccati.mu_rhs

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(riccati, "mu_rhs", counting)
    traj = riccati.solve_mu(fields.preset("fig3").config, 30.0, 1e-9)
    accepted = len(traj.grid) - 1
    assert accepted > 0
    assert (len(calls) - 2) % 6 == 0
    assert len(calls) - 2 >= 6 * accepted


# The Dormand-Prince 5(4) tableau and the generic stage loop over it that
# solve_mu's written-out step replaces; the reference the fused step must
# match bit for bit.  Its stage states carry all three components.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _combine(y, h, coeffs, ks):
    s0 = s1 = s2 = 0j
    for c, (k0, k1, k2) in zip(coeffs, ks):
        s0 += c * k0
        s1 += c * k1
        s2 += c * k2
    return (y[0] + h * s0, y[1] + h * s1, y[2] + h * s2)


def tableau_solve_mu(cfg, t_end, tol, *, t_start=0.0, halt=None):
    t, t_end, tol = float(t_start), float(t_end), float(tol)
    y = (0j, 0j, 0j)
    f = riccati.mu_rhs(t, y, cfg)
    g = riccati._mu_rhs2(t, y, f, cfg)
    ts, ys, fs, gs = [t], [y], [f], [g]
    h = riccati._initial_step(t, y, f, t_end, cfg, tol)
    while t < t_end:
        h = min(h, t_end - t)
        k = [f]
        for c, row in zip(_C[1:], _A[1:]):
            k.append(riccati.mu_rhs(t + c * h, _combine(y, h, row, k), cfg))
        y_new = _combine(y, h, _B5, k)
        f_new = riccati.mu_rhs(t + h, y_new, cfg)
        k.append(f_new)
        y4 = _combine(y, h, _B4, k)
        if not all(map(cmath.isfinite, y_new + y4)):
            h *= 0.25
            continue
        err = riccati._scaled_rms([a - b for a, b in zip(y_new, y4)],
                                  [tol + tol * max(abs(a), abs(b)) for a, b in zip(y, y_new)])
        if err > 1.0:
            h *= max(riccati._MIN_FACTOR, riccati._SAFETY * err ** -riccati._ORDER_EXP)
            continue
        t_new = t + h
        g_new = riccati._mu_rhs2(t_new, y_new, f_new, cfg)
        if abs(y_new[0]) >= riccati.BLOWUP_THRESHOLD:
            t_star = riccati._find_crossing(t, h, y, f, g, y_new, f_new, g_new,
                                            riccati.BLOWUP_THRESHOLD)
            raise riccati.SingularityError(t_star, riccati._trajectory(ts, ys, fs, gs))
        t, y, f, g = t_new, y_new, f_new, g_new
        ts.append(t)
        ys.append(y)
        fs.append(f)
        gs.append(g)
        factor = (riccati._MAX_FACTOR if err == 0.0
                  else min(riccati._MAX_FACTOR, riccati._SAFETY * err ** -riccati._ORDER_EXP))
        h *= max(riccati._MIN_FACTOR, factor)
        if halt is not None and halt(t, y):
            return riccati._trajectory(ts, ys, fs, gs, halted=True)
    return riccati._trajectory(ts, ys, fs, gs)


def assert_same_trajectory(a, b):
    assert a.halted == b.halted
    for name in ("grid", "_values", "_derivs", "_derivs2"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape
        assert np.array_equal(x, y)
        assert x.tobytes() == y.tobytes()   # signed zeros too


def assert_same_solve(cfg, t_end, tol, **kwargs):
    try:
        fused = riccati.solve_mu(cfg, t_end, tol, **kwargs)
    except riccati.SingularityError as err:
        with pytest.raises(riccati.SingularityError) as ref:
            tableau_solve_mu(cfg, t_end, tol, **kwargs)
        assert err.t_star == ref.value.t_star
        assert_same_trajectory(err.partial, ref.value.partial)
        return err
    assert_same_trajectory(fused, tableau_solve_mu(cfg, t_end, tol, **kwargs))
    return fused


# no shrinking: any failing drive shows the fault, and shrinking one takes minutes
@settings(derandomize=True, deadline=None, max_examples=40,
          phases=(Phase.explicit, Phase.generate))
@given(a=st.floats(0.0, 3.0), omega_a=st.floats(0.0, 2.0), b=st.floats(0.0, 3.0),
       omega=st.floats(0.0, 2.0), delta=st.floats(-math.pi, math.pi),
       sign=st.sampled_from([1.0, -1.0]), log_tol=st.floats(-12.0, -6.0),
       t_start=st.floats(-10.0, 10.0), span=st.floats(0.5, 8.0))
def test_fused_step_is_the_tableau_loop(a, omega_a, b, omega, delta, sign, log_tol,
                                        t_start, span):
    cfg = fields.FieldConfig(A=a, Omega=omega_a, B=b, omega=omega, delta=delta,
                             sign_convention=sign)
    assert_same_solve(cfg, t_start + span, 10.0 ** log_tol, t_start=t_start)


def test_fused_step_is_the_tableau_loop_on_a_halted_chart():
    traj = assert_same_solve(fields.preset("fig4").config, 100.0, 1e-9,
                             halt=lambda t, vals: abs(vals[0]) > 1.0)
    assert traj.halted


def test_fused_step_is_the_tableau_loop_through_a_blowup():
    j0 = 0.5
    err = assert_same_solve(constant_coupling_config(j0), 1.5 * math.pi / (2 * j0), 1e-10)
    assert isinstance(err, riccati.SingularityError)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(t=st.floats(-50.0, 50.0), mp=st.complex_numbers(max_magnitude=1e3),
       mm=st.complex_numbers(max_magnitude=1e3), mu=st.complex_numbers(allow_nan=True))
def test_mu_rhs_does_not_read_mu(t, mp, mm, mu):
    cfg = fields.preset("fig3").config
    assert riccati.mu_rhs(t, (mp, mm, mu), cfg) == riccati.mu_rhs(t, (mp, mm, 0j), cfg)
