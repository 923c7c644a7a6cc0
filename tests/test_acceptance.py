"""Acceptance gate: every criterion at its stated tolerance.

Each test prints a PASS line once its assertions hold, so a verbose run reads
as a checklist.  Oracle-derived regression constants are frozen inline with a
note on how they were produced.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from trilevel import algebra, checks, cli, fields, observables, oracle, propagator, riccati

LN3 = math.log(3.0)

# Peak of the level-3 population for the fig3 preset on its default output
# grid (t_end 100, dt 0.1), computed with the independent density-matrix
# integrator at tolerance 1e-10 and frozen as a regression value.
FIG3_PEAK_POP3 = 0.9376979776104218

FIG_NAMES_1_TO_10 = [f"fig{k}" for k in range(1, 11)]


def _pass(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {message}")


def test_criterion_01_algebra_and_nilpotency():
    start = time.perf_counter()
    for x, y, z in [(algebra.A_X, algebra.A_Y, algebra.A_Z),
                    (algebra.A_Y, algebra.A_Z, algebra.A_X),
                    (algebra.A_Z, algebra.A_X, algebra.A_Y),
                    (algebra.B_X, algebra.B_Y, algebra.B_Z),
                    (algebra.B_Y, algebra.B_Z, algebra.B_X),
                    (algebra.B_Z, algebra.B_X, algebra.B_Y)]:
        assert np.max(np.abs(algebra.commutator(x, y) - 1j * z)) <= 1e-14
    rows = checks.verify_algebra()
    assert len(rows) == 14 and all(r.passed for r in rows)
    # regression constant: the nilpotency row passes only when both ladder
    # matrices vanish at the fifth power and not at the fourth
    assert "algebra: ladder nilpotency degree" in {r.name for r in rows}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(1, f"commutators to 1e-14, nilpotency degree 5, {elapsed:.2f}s")


def test_criterion_02_product_matches_direct_integration():
    start = time.perf_counter()
    worst = {}
    for name in FIG_NAMES_1_TO_10:
        ps = fields.preset(name)
        rho0 = ps.initial.density()
        prod = propagator.run(ps.config, rho0, 100.0, 1.0, 1e-10)
        direct = oracle.integrate_eta_direct(ps.config, algebra.rho_to_eta(rho0),
                                             100.0, 1.0, 1e-10)
        worst[name] = float(np.max(np.abs(algebra.rho_to_eta(prod.rho)
                                          - algebra.rho_to_eta(direct.rho))))
        assert worst[name] <= 1e-6, f"{name}: {worst[name]:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(2, f"fig1-fig10 product vs direct <= 1e-6 "
             f"(worst {max(worst.values()):.2e}), {elapsed:.1f}s")


def test_criterion_03_hydrogen_closed_form():
    ps = fields.preset("hydrogen")
    assert ps.config.A / ps.config.B == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert ps.config.Omega == ps.config.omega
    assert ps.config.Gamma == 0.0
    rho0 = ps.initial.density()  # population starts in the s level
    t_end = 4 * math.pi / ps.config.omega  # two drive periods
    traj = propagator.run(ps.config, rho0, t_end, t_end / 200, 1e-13)
    exact = oracle.hydrogen_density(ps.config.A, ps.config.omega, ps.config.Gamma, rho0,
                                    traj.grid)
    worst = float(np.max(np.abs(traj.rho - exact)))
    assert worst <= 1e-8

    _, factors = oracle.hydrogen_stark_basis()
    assert np.max(np.abs(np.sort(factors) - np.sort(
        np.array([-math.sqrt(1.5), math.sqrt(1.5), 0.0])))) <= 1e-12
    assert abs(math.sqrt(1.5) - 1.224745) <= 5e-7
    _pass(3, f"rho vs closed form <= 1e-8 (worst {worst:.2e}), "
             f"eigenvalue factors +-sqrt(3/2), 0")


@pytest.mark.parametrize("name", ["fig1", "fig4", "fig9", "fig13", "fig17"])
def test_criterion_04_eigenvalue_law(name):
    ps = fields.preset(name)
    assert ps.config.Gamma > 0
    rho0 = ps.initial.density()
    assert observables.purity(rho0) == pytest.approx(1.0, abs=1e-12)
    traj = propagator.run(ps.config, rho0, 40.0, 2.0, 1e-10)
    worst = 0.0
    for k, t in enumerate(traj.grid):
        x = math.exp(-ps.config.Gamma * t)
        law = np.array([(1 + 2 * x) / 3, (1 - x) / 3, (1 - x) / 3])
        lam = observables.spectrum(traj.rho[k])
        worst = max(worst, float(np.max(np.abs(lam - law))))
    assert len(traj.grid) >= 20
    assert worst <= 1e-7
    _pass(4, f"{name}: spectrum law at {len(traj.grid)} times (worst {worst:.2e})")


def test_criterion_05_entropy_monotone_asymptotic_and_universal():
    # monotone nondecreasing on every preset run
    worst_drop = 0.0
    for name in fields.preset_names():
        ps = fields.preset(name)
        tol = 1e-13 if ps.config.Gamma == 0.0 else 1e-11
        t_end = min(ps.t_end, 100.0)
        traj = propagator.run(ps.config, ps.initial.density(), t_end,
                              max(ps.dt_out, t_end / 250), tol)
        entropy = observables.entropy(traj.rho)
        drop = float(np.max(entropy[:-1] - entropy[1:])) if len(entropy) > 1 else 0.0
        worst_drop = max(worst_drop, drop)
        assert drop <= 1e-10, f"{name}: entropy drops by {drop:.3e}"

    # S approaches ln 3 once the decay factor is below 1e-3
    worst_gap = 0.0
    for name, t_end in (("fig4", 200.0), ("fig11", 400.0), ("fig15", 100.0),
                        ("fig17", 50.0)):
        ps = fields.preset(name)
        traj = propagator.run(ps.config, ps.initial.density(), t_end, t_end / 200, 1e-11)
        for t, entropy in zip(traj.grid, observables.entropy(traj.rho)):
            if math.exp(-ps.config.Gamma * t) <= 1e-3:
                gap = abs(entropy - LN3)
                worst_gap = max(worst_gap, gap)
                assert gap <= 1e-4
    assert worst_gap > 0.0  # the asymptotic regime was actually reached

    # the entropy curve depends only on Gamma, not on fields or phases
    curves = []
    for name in ("fig1", "fig7", "fig9"):
        ps = fields.preset(name)
        assert ps.config.Gamma == 0.02
        traj = propagator.run(ps.config, ps.initial.density(), 50.0, 1.0, 1e-11)
        curves.append(observables.entropy(traj.rho))
    spread = max(float(np.max(np.abs(curves[0] - c))) for c in curves[1:])
    assert spread <= 1e-7
    _pass(5, f"monotone (worst drop {worst_drop:.1e}), ln3 asymptote "
             f"(worst gap {worst_gap:.1e}), universal curve (spread {spread:.1e})")


def test_criterion_06_asymptotic_mixing():
    worst = 0.0
    for name in FIG_NAMES_1_TO_10:
        ps = fields.preset(name)
        cfg = dataclasses.replace(ps.config, Gamma=0.02)
        traj = propagator.run(cfg, ps.initial.density(), 500.0, 500.0, 1e-9)
        dev = float(np.max(np.abs(traj.rho[-1] - np.eye(3) / 3.0)))
        worst = max(worst, dev)
        assert dev <= 2e-4, f"{name}: {dev:.3e}"
    _pass(6, f"fig1-fig10 at Gamma=0.02, t=500: |rho - I/3| <= 2e-4 "
             f"(worst {worst:.2e})")


def test_criterion_07_stark_freeze_and_decay():
    ps16 = fields.preset("fig16")
    rho0 = ps16.initial.density()
    frozen = propagator.run(ps16.config, rho0, ps16.t_end, ps16.dt_out, 1e-12)
    drift = float(np.max(np.abs(frozen.rho - rho0)))
    assert drift <= 1e-8

    ps17 = fields.preset("fig17")
    rho0 = ps17.initial.density()
    decay = propagator.run(ps17.config, rho0, ps17.t_end, ps17.dt_out, 1e-11)
    worst = 0.0
    eye3 = np.eye(3) / 3.0
    for k, t in enumerate(decay.grid):
        expected = eye3 + math.exp(-0.2 * t) * (rho0 - eye3)
        worst = max(worst, float(np.max(np.abs(decay.rho[k] - expected))))
    assert worst <= 1e-7
    _pass(7, f"fig16 drift {drift:.2e} <= 1e-8; fig17 vs closed decay "
             f"{worst:.2e} <= 1e-7")


def test_criterion_08_purity_law():
    # the underlying algebraic identity, brute-forced over random states
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        rho = algebra.random_density_matrix(rng)
        eta = algebra.rho_to_eta(rho)
        assert abs(observables.purity(rho)
                   - (1.0 / 3.0 + 0.5 * observables.coherence_norm(eta) ** 2)) <= 1e-12

    worst = 0.0
    for name in fields.preset_names():
        ps = fields.preset(name)
        rho0 = ps.initial.density()
        norm0_sq = observables.coherence_norm(algebra.rho_to_eta(rho0)) ** 2
        traj = propagator.run(ps.config, rho0, 20.0, 1.0, 1e-10)
        for k, t in enumerate(traj.grid):
            expected = 1.0 / 3.0 + 0.5 * math.exp(-2 * ps.config.Gamma * t) * norm0_sq
            dev = abs(observables.purity(traj.rho[k]) - expected)
            worst = max(worst, dev)
            assert dev <= 1e-7, f"{name}: {dev:.3e}"
    _pass(8, f"identity to 1e-12 on 1000 random states; decay law on all "
             f"presets (worst {worst:.2e})")


def test_criterion_09_riccati_closed_form_and_restart():
    j0 = 0.5
    pole = math.pi / (2 * j0)
    cfg = fields.FieldConfig(A=0.0, Omega=0.0, B=2 * j0, omega=0.0)

    traj = riccati.solve_mu(cfg, 0.9 * pole, 1e-12)
    worst = 0.0
    for t in np.linspace(0.05, 0.9 * pole, 50):
        mp, mm, mu = traj.evaluate(float(t))
        worst = max(worst,
                    abs(mp - math.tan(j0 * t)),
                    abs(mm - 0.5 * math.sin(2 * j0 * t)),
                    abs(mu - (-2j * math.log(math.cos(j0 * t)))))
    assert worst <= 1e-8

    with pytest.raises(riccati.SingularityError) as err:
        riccati.solve_mu(cfg, 1.2 * pole, 1e-10)
    assert abs(err.value.t_star - pole) <= 0.05 * pole

    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    cont = propagator.run(cfg, rho0, 2.5 * pole, 0.1, 1e-10)
    direct = oracle.integrate_eta_direct(cfg, algebra.rho_to_eta(rho0),
                                         2.5 * pole, 0.1, 1e-12)
    dev = float(np.max(np.abs(algebra.rho_to_eta(cont.rho) - algebra.rho_to_eta(direct.rho))))
    assert dev <= 1e-6
    _pass(9, f"closed form to {worst:.2e}, blow-up at t*={err.value.t_star:.6f} "
             f"(pole {pole:.6f}), continuation vs oracle {dev:.2e}")


def test_criterion_10_figure_regression(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "figs"
    for name in fields.preset_names():
        assert cli.main(["figure", name, "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start

    # determinism: re-emitting a figure reproduces the CSV byte for byte
    first = (out / "fig1.csv").read_bytes()
    assert cli.main(["figure", "fig1", "--out", str(out)]) == 0
    assert (out / "fig1.csv").read_bytes() == first

    # peak population transfer into level 3 for fig3, pinned from the oracle
    lines = (out / "fig3.csv").read_text().splitlines()
    pop3 = np.array([float(line.split(",")[3]) for line in lines[1:]])
    peak = float(np.max(pop3))
    assert peak > 0.8
    assert abs(peak - FIG3_PEAK_POP3) <= 1e-6

    assert elapsed < 300.0
    _pass(10, f"18 figure CSVs deterministic, fig3 peak pop3 {peak:.9f} "
              f"(pinned {FIG3_PEAK_POP3:.9f}), suite {elapsed:.1f}s")
