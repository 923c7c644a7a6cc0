import math

import numpy as np
import pytest

from trilevel import algebra, fields, observables, oracle, propagator

# -sum(lam ln lam) for the spectrum {2/3, 1/6, 1/6}, evaluated from the
# definition with high-precision scalars before being frozen here.
ENTROPY_TWO_THIRDS = 0.8675632284814612


def test_entropy_of_pure_state_is_zero():
    assert observables.entropy(np.diag([1.0, 0.0, 0.0])) == 0.0


def test_entropy_of_maximally_mixed_state_is_ln3():
    assert observables.entropy(np.eye(3) / 3.0) == pytest.approx(math.log(3.0), abs=1e-12)
    assert observables.LN3 == pytest.approx(1.0986122886681098, abs=1e-15)


def test_entropy_of_intermediate_spectrum():
    assert observables.entropy(np.diag([2 / 3, 1 / 6, 1 / 6])) == pytest.approx(
        ENTROPY_TWO_THIRDS, abs=1e-12)


def test_entropy_clamps_eigenvalue_noise():
    rho = np.diag([1.0 + 5e-10, -5e-10, 0.0])
    s = observables.entropy(rho)
    assert np.isfinite(s)
    assert 0.0 <= s <= 2e-8


def test_spectrum_is_sorted_and_sums_to_trace():
    assert np.allclose(observables.spectrum(np.diag([0.0, 1.0, 0.0])), [1.0, 0.0, 0.0])
    assert np.allclose(observables.spectrum(np.eye(3) / 3.0), [1 / 3] * 3)
    rng = np.random.default_rng(9)
    for _ in range(100):
        rho = algebra.random_density_matrix(rng)
        lam = observables.spectrum(rho)
        assert np.all(np.diff(lam) <= 0)
        assert abs(np.sum(lam) - np.trace(rho).real) <= 1e-10


def test_spectrum_at_half_decay():
    # closed-form decay with exp(-Gamma t) = 1/2 has spectrum {2/3, 1/6, 1/6}
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    rho = oracle.hydrogen_density(1.0, 1.0, math.log(2.0), rho0, 1.0)
    assert np.allclose(observables.spectrum(rho), [2 / 3, 1 / 6, 1 / 6], atol=1e-12)


def test_purity_and_coherence_norm_special_values():
    pure = np.diag([1.0, 0.0, 0.0])
    assert observables.purity(pure) == pytest.approx(1.0, abs=1e-15)
    assert observables.coherence_norm(algebra.rho_to_eta(pure)) == pytest.approx(
        math.sqrt(4.0 / 3.0), abs=1e-15)
    mixed = np.eye(3) / 3.0
    assert observables.purity(mixed) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert observables.coherence_norm(algebra.rho_to_eta(mixed)) == 0.0


def test_purity_equals_identity_in_coherence_norm():
    rng = np.random.default_rng(10)
    for _ in range(300):
        rho = algebra.random_density_matrix(rng)
        eta = algebra.rho_to_eta(rho)
        assert observables.purity(rho) == pytest.approx(
            1.0 / 3.0 + 0.5 * observables.coherence_norm(eta) ** 2, abs=1e-10)


def test_table_rows_match_the_per_matrix_quantities():
    rng = np.random.default_rng(11)
    rho = np.array([algebra.random_density_matrix(rng) for _ in range(50)])
    eta = algebra.rho_to_eta(rho)
    grid = 1.5 + np.arange(len(rho))
    tab = observables.table(grid, rho)
    assert tab.shape == (len(rho), len(observables.CSV_FIELDS)) == (50, 16)
    for row, t, r, e in zip(tab, grid, rho, eta):
        rec = dict(zip(observables.CSV_FIELDS, row))
        assert rec["t"] == t
        assert [rec["pop1"], rec["pop2"], rec["pop3"]] == list(np.diag(r).real)
        assert [rec[k] for k in ("re12", "im12", "re13", "im13", "re23", "im23")] == [
            r[0, 1].real, r[0, 1].imag, r[0, 2].real, r[0, 2].imag, r[1, 2].real, r[1, 2].imag]
        assert rec["entropy"] == observables.entropy(r)
        assert rec["purity"] == observables.purity(r)
        assert [rec["eig1"], rec["eig2"], rec["eig3"]] == list(observables.spectrum(r))
        assert rec["eta_norm"] == observables.coherence_norm(e)
        assert rec["pop1"] + rec["pop2"] + rec["pop3"] == pytest.approx(1.0, abs=1e-9)
        assert rec["purity"] == pytest.approx(
            rec["eig1"] ** 2 + rec["eig2"] ** 2 + rec["eig3"] ** 2, abs=1e-10)
        assert rec["eig1"] >= rec["eig2"] >= rec["eig3"]
        assert 0.0 <= rec["entropy"] <= observables.LN3 + 1e-9
    # a trajectory keeps the table of its hermitized states
    traj = propagator.trajectory_from_rhos(grid, rho)
    assert np.array_equal(traj.table, observables.table(grid, traj.rho))
    # the stacked quantities are the per-matrix ones, bit for bit
    assert np.array_equal(observables.spectrum(rho), [observables.spectrum(r) for r in rho])
    assert np.array_equal(observables.entropy(rho), [observables.entropy(r) for r in rho])
    assert np.array_equal(observables.purity(rho), [observables.purity(r) for r in rho])
    assert np.array_equal(observables.coherence_norm(eta),
                          [observables.coherence_norm(e) for e in eta])


def test_entropy_monotone_under_decoherence():
    ps = fields.preset("fig6")
    traj = propagator.run(ps.config, ps.initial.density(), 40.0, 0.5, 1e-10)
    entropies = observables.entropy(traj.rho)
    for a, b in zip(entropies, entropies[1:]):
        assert b >= a - 1e-10


def test_entropy_depends_only_on_gamma_for_pure_starts():
    # same Gamma, different fields and different pure initial states
    runs = []
    for name in ("fig1", "fig7", "fig9"):
        ps = fields.preset(name)
        traj = propagator.run(ps.config, ps.initial.density(), 30.0, 1.0, 1e-11)
        runs.append(observables.entropy(traj.rho))
    for other in runs[1:]:
        assert np.max(np.abs(runs[0] - other)) <= 1e-7
