import cmath
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from trilevel import algebra, fields, oracle, propagator, riccati


def constant_coupling_config(j0: float) -> fields.FieldConfig:
    # omega = 0, delta = 0 makes the 2-3 coupling the constant B/2.
    return fields.FieldConfig(A=0.0, Omega=0.0, B=2 * j0, omega=0.0, delta=0.0)


def evaluate_derivative(traj: riccati.MuTrajectory, t) -> np.ndarray:
    """Time derivative of ``traj``'s interpolant at ``t``, shaped as
    ``traj.evaluate(t)``: the judge of the residual checks below.  The
    interpolant is (1 - x) y0 + x y1 + x (1 - x) R(x), R in the nested form of
    riccati._interpolant, differentiated along its Horner scheme."""
    starts, ends, y0, y1, dense, _ = traj._steps
    i = np.searchsorted(ends, t)   # riccati._evaluate's step rule
    h = ends[i] - starts[i]
    x = (t - starts[i]) / h
    f = [c[:, i] for c in dense]
    r, dr = f[5], 0.0
    for k in (4, 3, 2, 1, 0):
        w, dw = (x, 1.0) if k % 2 == 0 else (1 - x, -1.0)
        r, dr = f[k] + w * r, dw * r + w * dr
    return (y1[:, i] - y0[:, i] + (1 - 2 * x) * r + x * (1 - x) * dr) / h


def residuals(traj: riccati.MuTrajectory, cfg: fields.FieldConfig,
              times: np.ndarray) -> np.ndarray:
    """ODE residuals of ``traj``'s interpolant at the given times, shape (n, 3)."""
    factors = fields.drive_factors(cfg)
    rhs = [riccati.mu_rhs(float(t), vals, factors)
           for t, vals in zip(times, traj.evaluate(times).T)]
    return evaluate_derivative(traj, times).T - rhs


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
    # tan(j0 t) crosses the threshold at atan(1e6) / j0; the crossing is
    # bisected on the blown step's interpolant (measured 4.4e-12 off)
    assert abs(exc.t_star - math.atan(riccati.BLOWUP_THRESHOLD) / j0) <= 1e-9
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


def between_nodes(traj: riccati.MuTrajectory) -> np.ndarray:
    """Four evenly spaced times inside each step of ``traj``."""
    times = []
    for i in range(len(traj.grid) - 1):
        times.extend(np.linspace(traj.grid[i], traj.grid[i + 1], 6)[1:-1])
    return np.array(times)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_residuals_on_refined_grid(tol):
    cfg = fields.preset("fig3").config
    traj = riccati.solve_mu(cfg, 30.0, tol)
    res = residuals(traj, cfg, between_nodes(traj))
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
    for method in (traj.evaluate, lambda t: evaluate_derivative(traj, t)):
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
    # a one-node trajectory, as a chart that blows up on its first step leaves,
    # names the time and its range as a longer one does
    node = riccati.MuTrajectory(np.array([1.5]), np.zeros((1, 3), dtype=complex),
                                np.empty((0, 6, 3), dtype=complex))
    zeros = np.zeros((3, 2), dtype=complex)
    assert node.evaluate(np.array([1.5, 1.5])).tobytes() == zeros.tobytes()
    with pytest.raises(ValueError, match=r"^time 0\.5 outside solved range \[1\.5, 1\.5\]$"):
        node.evaluate(np.array([1.5, 0.5]))


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
    for first_step in (0.0, -1e-4, math.nan, -math.inf):
        with pytest.raises(ValueError, match="first_step must be > 0"):
            riccati.solve_mu(cfg, 1.0, 1e-8, first_step=first_step)
    # an infinite first step is the default: the whole window, clipped
    assert_same_trajectory(riccati.solve_mu(cfg, 1.0, 1e-8, first_step=math.inf),
                           riccati.solve_mu(cfg, 1.0, 1e-8))


def test_a_clipped_step_lands_on_t_end_exactly():
    # Without a drive the steps grow fivefold, so the last one starts far below
    # t_end / 2, where t + (t_end - t) can round one ulp short of t_end (in 117
    # of these 1000 windows); no step of one ulp may follow it
    cfg = fields.FieldConfig(A=0.0, Omega=1.0, B=0.0, omega=1.0)
    t_ends = np.random.default_rng(5).uniform(0.5, 5000.0, 1000).tolist()
    for t_end in [878.6902752024938, *t_ends]:
        assert riccati.solve_mu(cfg, t_end, 1e-10).t_final == t_end


@pytest.mark.parametrize("t_start", [0.0, 3.0])
def test_a_step_below_10_ulp_of_t_is_a_collapse(monkeypatch, t_start):
    # every attempt is non-finite and quarters the step, from the whole window
    # down to below 10 ulp of t_start: 5e-323 at t = 0, 4e-15 at t = 3
    calls = []

    def nan(t, y, factors):
        calls.append(t)
        return (complex(math.nan),) * 3

    monkeypatch.setattr(riccati, "mu_rhs", nan)
    cfg = fields.preset("fig3").config
    with pytest.raises(RuntimeError, match=f"step size collapsed at t = {t_start:.9g}$"):
        riccati.solve_mu(cfg, t_start + 1.0, 1e-8, t_start=t_start)
    h, attempts = 1.0, 0
    while h >= 10.0 * math.ulp(t_start):
        h, attempts = 0.25 * h, attempts + 1
    assert len(calls) == 1 + 12 * attempts


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
    assert all(type(v) is complex for v in riccati.mu_rhs(0.7, (0.1j, 0.2 + 0j, 0.3 + 0.1j),
                                                          fields.drive_factors(cfg)))
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


def record_rhs_times(monkeypatch) -> list[float]:
    """Route riccati.mu_rhs through a recorder; returns the list of the times
    it is called at, in order."""
    calls = []
    real = riccati.mu_rhs

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(riccati, "mu_rhs", counting)
    return calls


def test_every_stage_calls_mu_rhs_through_the_module(monkeypatch):
    # An RHS counter that wraps riccati.mu_rhs sees every evaluation: one at
    # the start, twelve per attempted step (eleven stages, the last at t + h,
    # then the derivative at the new point, also at t + h) and three more per
    # accepted step, the dense-output stages at t + h/10, t + h/5 and t + 7h/9.
    calls = record_rhs_times(monkeypatch)
    nodes = []   # each accepted node and the calls made up to it
    traj = riccati.solve_mu(fields.preset("fig3").config, 30.0, 1e-9,
                            halt=lambda t, vals: nodes.append((t, len(calls))))
    assert [t for t, _ in nodes] == traj.grid[1:].tolist()
    assert calls[0] == 0.0
    assert len(calls) == nodes[-1][1]
    t_old, start = 0.0, 1
    for t, end in nodes:
        assert (end - start - 3) % 12 == 0 and end - start >= 15
        accepted, extra = calls[end - 15:end - 3], calls[end - 3:end]
        assert accepted[10] == accepted[11]
        assert accepted[11] == t or t == 30.0   # a clipped last step lands on t_end
        h = t - t_old
        for c, time in zip(riccati._C_EXTRA, extra):
            assert time == pytest.approx(t_old + c * h, rel=1e-14, abs=1e-14)
        t_old, start = t, end


def sparse_and_full_solves(monkeypatch, t_eval):
    """fig3's exponents over [0, 30] at tol 1e-9, solved without ``t_eval`` and
    with it; and the sparse solve's mu_rhs call times, with each of its
    accepted nodes and the number of calls made up to it."""
    cfg = fields.preset("fig3").config
    full = riccati.solve_mu(cfg, 30.0, 1e-9)
    calls, nodes = record_rhs_times(monkeypatch), []
    sparse = riccati.solve_mu(cfg, 30.0, 1e-9, t_eval=t_eval,
                              halt=lambda t, vals: nodes.append((t, len(calls))))
    return full, sparse, calls, nodes


def steps_holding(grid, times) -> list[int]:
    """The steps of ``grid`` whose closed interval holds one of ``times``."""
    return [i for i in range(len(grid) - 1)
            if any(grid[i] <= t <= grid[i + 1] for t in times)]


_SPARSE_TIMES = [0.0, 0.5, 7.25, 7.3, 19.0, 30.0]


def test_a_sparse_solve_evaluates_its_times_and_nodes_as_the_full_solve(monkeypatch):
    full, sparse, _, _ = sparse_and_full_solves(monkeypatch, _SPARSE_TIMES)
    assert np.array_equal(sparse.grid, full.grid)
    for times in (_SPARSE_TIMES, full.grid):
        a, b = sparse.evaluate(times), full.evaluate(times)
        assert a.tobytes() == b.tobytes()   # signed zeros too
    # the steps that hold a time of t_eval have the full solve's coefficients
    held = steps_holding(full.grid, _SPARSE_TIMES)
    assert 0 < len(held) < len(full.grid) // 4
    assert sparse._dense[..., held].tobytes() == full._dense[..., held].tobytes()


def test_a_time_inside_a_step_without_dense_output_is_a_value_error(monkeypatch):
    full, sparse, _, _ = sparse_and_full_solves(monkeypatch, _SPARSE_TIMES)
    held = steps_holding(full.grid, _SPARSE_TIMES)
    bare = next(i for i in range(len(full.grid) - 1) if i not in held)
    inside = 0.5 * (full.grid[bare] + full.grid[bare + 1])
    with pytest.raises(ValueError, match="without dense output"):
        sparse.evaluate(inside)
    with pytest.raises(ValueError, match=repr(float(inside))):
        sparse.evaluate(np.array([0.5, inside, 7.3]))
    full.evaluate(inside)   # the full solve has dense output on every step


def test_a_sparse_solve_calls_mu_rhs_three_more_times_only_on_steps_with_a_time(monkeypatch):
    # 1 call at the start, 12 per attempted step and 3 per accepted step whose
    # closed interval holds a time of t_eval
    full, sparse, calls, nodes = sparse_and_full_solves(monkeypatch, _SPARSE_TIMES)
    assert calls[0] == 0.0
    assert len(calls) == nodes[-1][1]
    t_old, start, held = 0.0, 1, 0
    for t, end in nodes:
        holds = any(t_old <= s <= t for s in _SPARSE_TIMES)
        assert (end - start) % 12 == (3 if holds else 0) and end - start >= 12
        held += holds
        t_old, start = t, end
    attempts = (len(calls) - 1 - 3 * held) // 12
    assert len(calls) == 1 + 12 * attempts + 3 * held
    assert held == len(steps_holding(sparse.grid, _SPARSE_TIMES))
    assert attempts >= len(nodes)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_each_restarted_chart_starts_with_its_predecessors_last_step(monkeypatch, tol):
    # Chart 0 first tries its whole span, which the step controller shrinks.
    # Each later chart starts at its predecessor's last node, and takes the
    # step that ended it again (clipped to the window).  Each preset runs over
    # its own window, where it is solved to half its period T (11 restarts in
    # all), and over [0, T/2], where the charts alone solve the window.
    calls = record_rhs_times(monkeypatch)
    solves = []   # per solve: its start, its chart, and its first attempted step

    def first_step(cfg, t_end, tol, *, t_start=0.0, halt=None, t_eval=None,
                   first_step=math.inf):
        calls.clear()
        chart = None
        try:
            chart = riccati.solve_mu(cfg, t_end, tol, t_start=t_start, halt=halt,
                                     t_eval=t_eval, first_step=first_step)
            return chart
        except riccati.SingularityError as exc:
            chart = exc.partial
            raise
        finally:
            # the start, then the first attempt's second stage and its
            # derivative at the new point
            solves.append((t_start, t_end, chart, calls[1], calls[12]))

    monkeypatch.setattr(propagator, "solve_mu", first_step)
    restarts = 0
    for ps in map(fields.preset, fields.preset_names()):
        for window_end in (ps.t_end, propagator._period_route(ps.config, ps.t_end)[0]):
            solves.clear()
            propagator.run(ps.config, ps.initial.density(), window_end, ps.dt_out, tol)
            h = math.inf
            for k, (t_start, t_end, chart, stage2, new_point) in enumerate(solves):
                # every chart's cover is its last node, halted or blown
                assert t_start == (0.0 if k == 0 else solves[k - 1][2].grid[-1])
                h = min(h, t_end - t_start)
                assert stage2 == t_start + riccati._C[1] * h
                assert new_point == t_start + h
                h = chart.grid[-1] - chart.grid[-2]
            restarts += len(solves) - 1
    assert restarts > len(fields.preset_names())


def test_a_drive_above_1e18_tol_still_solves_from_the_fixed_first_step():
    # At A = 1e9 and tol 1e-10 the first attempt, the whole window, is cut
    # down by the step controller alone.  Without the 2-3 coupling
    # mu = A sin(Omega t) / Omega and the other two exponents stay zero.
    # Measured: 0.061 tol from the closed form on the solver's mixed scale and
    # residuals at 0.0034 of the residual bound of 100 tol on that scale.
    a, tol = 1e9, 1e-10
    cfg = fields.FieldConfig(A=a, Omega=1.0, B=0.0, omega=1.0)
    traj = riccati.solve_mu(cfg, 2.0, tol)
    assert traj.t_final == 2.0
    times = between_nodes(traj)
    mp, mm, mu = traj.evaluate(times)
    assert np.max(np.abs(mp)) == 0.0 and np.max(np.abs(mm)) == 0.0
    exact = a * np.sin(times)
    assert np.max(np.abs(mu - exact) / (1.0 + np.abs(exact))) <= 5 * tol
    res = residuals(traj, cfg, times)
    assert np.max(np.abs(res)) <= 100 * tol * (1.0 + np.max(np.abs(exact)))


# The DOP853 tableau as scipy.integrate holds it, and a generic loop over it:
# the reference that solve_mu's written-out step must match bit for bit.  Its
# stage states carry all three components, and every sum runs over a row's
# nonzero weights in order.
def _scipy_tableau():
    from scipy.integrate import DOP853
    return {name: getattr(DOP853, name).tolist()
            for name in ("A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA")}


def _sums(coeffs, ks):
    (c, (s0, s1, s2)), *rest = [(c, k) for c, k in zip(coeffs, ks) if c != 0.0]
    s0, s1, s2 = c * s0, c * s1, c * s2
    for c, (k0, k1, k2) in rest:
        s0 += c * k0
        s1 += c * k1
        s2 += c * k2
    return s0, s1, s2


def _combine(y, h, coeffs, ks):
    s0, s1, s2 = _sums(coeffs, ks)
    return (y[0] + h * s0, y[1] + h * s1, y[2] + h * s2)


def _dense_step(d, y0, y1, h, ks) -> np.ndarray:
    """scipy's F_1 .. F_6 of one step, shape (6, 3), on the real and imaginary
    parts apart, D's sums over whole rows from 0.0."""
    f = np.empty((6, 3), dtype=complex)
    for i in range(3):
        parts = []
        for part in (lambda z: z.real, lambda z: z.imag):
            k = [part(stage[i]) for stage in ks]
            dy = part(y1[i]) - part(y0[i])
            coeffs = [h * k[0] - dy, 2.0 * dy - h * (k[12] + k[0])]
            for row in d:
                acc = 0.0
                for c, k_j in zip(row, k):
                    acc += c * k_j
                coeffs.append(acc * h)
            parts.append(coeffs)
        f[:, i] = [complex(re, im) for re, im in zip(*parts)]
    return f


def _reference_trajectory(ts, ys, fs, halted=False):
    dense = np.array(fs) if fs else np.empty((0, 6, 3), dtype=complex)
    return riccati.MuTrajectory(np.array(ts), np.array(ys), dense, halted=halted)


def tableau_solve_mu(cfg, t_end, tol, *, t_start=0.0, halt=None):
    tab = _scipy_tableau()
    t, t_end, tol = float(t_start), float(t_end), riccati._TOL_SHARE * float(tol)
    y = (0j, 0j, 0j)
    factors = fields.drive_factors(cfg)
    f = riccati.mu_rhs(t, y, factors)
    ts, ys, fs = [t], [y], []
    h = math.inf
    while t < t_end:
        last = h >= t_end - t
        h = min(h, t_end - t)
        k = [f]
        for c, row in zip(tab["C"][1:], tab["A"][1:]):
            k.append(riccati.mu_rhs(t + c * h, _combine(y, h, row, k), factors))
        y_new = _combine(y, h, tab["B"], k)
        k.append(riccati.mu_rhs(t + h, y_new, factors))
        if not all(map(cmath.isfinite, y_new)):
            h *= 0.25
            continue
        e5 = e3 = 0.0
        for y_i, y_new_i, d5, d3 in zip(y, y_new, _sums(tab["E5"], k), _sums(tab["E3"], k)):
            scale = tol + tol * max(abs(y_i), abs(y_new_i))
            w5, w3 = abs(d5) / scale, abs(d3) / scale
            e5 += w5 * w5
            e3 += w3 * w3
        err = 0.0 if e5 == 0.0 and e3 == 0.0 else h * e5 / math.sqrt((e5 + 0.01 * e3) * 3)
        if not err <= 1.0:
            h *= max(riccati._MIN_FACTOR, riccati._SAFETY * err ** riccati._ERROR_EXPONENT)
            continue
        for s, (c, row) in enumerate(zip(tab["C_EXTRA"], tab["A_EXTRA"]), start=13):
            k.append(riccati.mu_rhs(t + c * h, _combine(y, h, row[:s], k), factors))
        dense = _dense_step(tab["D"], y, y_new, h, k)
        t_new = t_end if last else t + h   # a clipped step lands on t_end
        if abs(y_new[0]) >= riccati.BLOWUP_THRESHOLD:
            t_star = riccati._find_crossing(t, h, y[0], y_new[0], dense[:, 0].tolist(),
                                            riccati.BLOWUP_THRESHOLD)
            raise riccati.SingularityError(t_star, _reference_trajectory(ts, ys, fs))
        t, y, f = t_new, y_new, k[12]
        ts.append(t)
        ys.append(y)
        fs.append(dense)
        h *= (riccati._MAX_FACTOR if err == 0.0
              else min(riccati._MAX_FACTOR, riccati._SAFETY * err ** riccati._ERROR_EXPONENT))
        if halt is not None and halt(t, y):
            return _reference_trajectory(ts, ys, fs, halted=True)
    return _reference_trajectory(ts, ys, fs)


def test_the_tableau_literals_are_scipys_bit_for_bit():
    # the coefficients of both DOP853 solvers, solve_mu and the direct oracles'
    # solve_ivp, are riccati's literals, so that scipy is not a runtime
    # dependency; they must be scipy's DOP853 to the last bit
    from scipy.integrate import DOP853
    a = np.zeros((12, 12))
    for s, row in enumerate(riccati._A):
        a[s, :s] = row
    a_extra = np.zeros((3, 16))
    for i, row in enumerate(riccati._A_EXTRA):
        a_extra[i, :13 + i] = row
    for mine, theirs in ((a, DOP853.A), (riccati._B, DOP853.B), (riccati._C, DOP853.C),
                         (riccati._E3, DOP853.E3), (riccati._E5, DOP853.E5),
                         (riccati._D, DOP853.D), (a_extra, DOP853.A_EXTRA),
                         (riccati._C_EXTRA, DOP853.C_EXTRA)):
        mine, theirs = np.array(mine, dtype=float), np.asarray(theirs, dtype=float)
        assert mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()
    # the oracle's 16 stages against scipy's arrays: the 12 stages, the
    # derivative at the new point, then the dense-output stages.  Row s of
    # _STAGE_ROWS is scipy's row s up to stage s - 1, and scipy's row is 0 past it
    rows = [*DOP853.A, DOP853.B, *DOP853.A_EXTRA]
    assert len(oracle._STAGE_ROWS) == len(rows) == 16
    for s, (mine, theirs) in enumerate(zip(oracle._STAGE_ROWS, rows)):
        assert np.array(mine, dtype=float).tobytes() == theirs[:s].tobytes()
        assert not np.any(theirs[s:])
    for mine, theirs in ((oracle._STAGE_TIMES, np.concatenate((DOP853.C, [1.0], DOP853.C_EXTRA))),
                         (oracle._ERROR_ROWS, np.stack((DOP853.E5, DOP853.E3)))):
        assert mine.shape == theirs.shape
        assert mine.dtype == theirs.dtype
        assert mine.flags.c_contiguous and theirs.flags.c_contiguous
        assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("n", [1, 3, 8, 9])
def test_dense_of_a_stack_is_dense_of_each_component_bit_for_bit(n):
    # the direct oracles pass stacks of 8 and 9 components, solve_mu of 3:
    # each component's coefficients are its own, whatever the stack's width
    rng = np.random.default_rng(n)
    m = 5
    scale = 10.0 ** rng.uniform(-8, 8, (m, 14, n))
    steps = scale * (rng.standard_normal((m, 14, n)) + 1j * rng.standard_normal((m, 14, n)))
    h = 10.0 ** rng.uniform(-6, 1, m)
    for step_sizes in (h, np.ones(m)):
        f = riccati._dense(steps, step_sizes)
        assert f.shape == (m, 6, n)
        for i in range(n):
            alone = riccati._dense(np.ascontiguousarray(steps[..., i:i + 1]), step_sizes)
            assert f[..., i:i + 1].tobytes() == alone.tobytes()


def assert_same_trajectory(a, b):
    assert a.halted == b.halted
    for name in ("grid", "_values", "_dense"):
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
    factors = fields.drive_factors(fields.preset("fig3").config)
    assert riccati.mu_rhs(t, (mp, mm, mu), factors) == riccati.mu_rhs(t, (mp, mm, 0j), factors)


# no shrinking, as above
@settings(derandomize=True, deadline=None, max_examples=200,
          phases=(Phase.explicit, Phase.generate))
@given(a=st.floats(-1e3, 1e3), omega_a=st.floats(-1e3, 1e3), b=st.floats(-1e3, 1e3),
       omega=st.floats(-1e3, 1e3), delta=st.floats(-10.0, 10.0),
       sign=st.sampled_from([1.0, -1.0]), t=st.floats(-1e3, 1e3),
       mp=st.complex_numbers(max_magnitude=1e3), mm=st.complex_numbers(max_magnitude=1e3))
def test_mu_rhs_on_the_drive_factors_is_the_rhs_on_epsilon_and_j_bit_for_bit(
        a, omega_a, b, omega, delta, sign, t, mp, mm):
    # mu_rhs reads the drive through fields.drive_factors, taken once a solve; the
    # direct oracles' generators too.  Both must be fields.epsilon and
    # fields.j_coupling to the last bit, signed zeros included
    cfg = fields.FieldConfig(A=a, Omega=omega_a, B=b, omega=omega, delta=delta,
                             sign_convention=sign)
    eps, j = fields.epsilon(t, cfg), fields.j_coupling(t, cfg)
    dmu = eps + 2j * j * mp
    expected = (-1j * eps * mp + j * (1.0 + mp * mp), j + 1j * dmu * mm, dmu)
    got = riccati.mu_rhs(t, (mp, mm, 0j), fields.drive_factors(cfg))
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    coeffs = oracle._linear_rhs(cfg, oracle._ETA_OPS, np.zeros((8, 8))).coeffs(t)
    assert np.array(coeffs).tobytes() == np.array((eps, 2.0 * j, 1.0)).tobytes()
