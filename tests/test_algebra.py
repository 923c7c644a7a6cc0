import numpy as np
import pytest

from trilevel import algebra, checks, fields, oracle, propagator

SQRT3 = np.sqrt(3.0)


def test_generator_matrices_are_hermitian():
    for m in (algebra.A_X, algebra.A_Y, algebra.A_Z,
              algebra.B_X, algebra.B_Y, algebra.B_Z):
        assert algebra.hermiticity_deviation(m) == 0.0


@pytest.mark.parametrize("x, y, z", [
    (algebra.A_X, algebra.A_Y, algebra.A_Z),
    (algebra.A_Y, algebra.A_Z, algebra.A_X),
    (algebra.A_Z, algebra.A_X, algebra.A_Y),
    (algebra.B_X, algebra.B_Y, algebra.B_Z),
    (algebra.B_Y, algebra.B_Z, algebra.B_X),
    (algebra.B_Z, algebra.B_X, algebra.B_Y),
])
def test_angular_momentum_commutators(x, y, z):
    assert np.max(np.abs(algebra.commutator(x, y) - 1j * z)) <= 1e-14


def test_commutator_of_matrix_with_itself_vanishes():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.max(np.abs(algebra.commutator(m, m))) == 0.0


def test_commutator_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        algebra.commutator(np.eye(3), np.eye(8))


def test_ladder_matrices_nilpotent_of_degree_five():
    for m in (algebra.B_PLUS, algebra.B_MINUS):
        assert np.max(np.abs(np.linalg.matrix_power(m, 5))) <= 1e-12
        # degree 5 means the fourth power is still nonzero
        assert np.max(np.abs(np.linalg.matrix_power(m, 4))) > 1.0


def test_verify_algebra_passes_and_reports_nilpotency():
    rows = checks.verify_algebra()
    assert len(rows) == 14
    assert all(r.passed for r in rows)
    nilpotency = [r for r in rows if r.name == "algebra: ladder nilpotency degree"]
    assert len(nilpotency) == 1 and nilpotency[0].passed
    assert "allowed 1.0e-12" in nilpotency[0].detail


def test_rho_to_eta_level_populations():
    eta = algebra.rho_to_eta(np.diag([1.0, 0.0, 0.0]))
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1.0
    expected[1] = 1.0 / SQRT3
    assert np.allclose(eta, expected, atol=1e-15)

    eta2 = algebra.rho_to_eta(np.diag([0.0, 1.0, 0.0]))
    expected2 = np.zeros(8, dtype=complex)
    expected2[1] = -2.0 / SQRT3
    assert np.allclose(eta2, expected2, atol=1e-15)


def test_mixed_state_has_vanishing_coherence_vector():
    eta = algebra.rho_to_eta(np.eye(3) / 3.0)
    assert np.max(np.abs(eta)) <= 1e-16


def test_eta_to_rho_inverts_named_cases():
    assert np.allclose(algebra.eta_to_rho(np.zeros(8), 1.0), np.eye(3) / 3.0, atol=1e-15)
    eta = np.zeros(8, dtype=complex)
    eta[0] = 1.0
    eta[1] = 1.0 / SQRT3
    assert np.allclose(algebra.eta_to_rho(eta, 1.0), np.diag([1.0, 0.0, 0.0]), atol=1e-15)


def test_round_trip_on_random_density_matrices():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        rho = algebra.random_density_matrix(rng)
        back = algebra.eta_to_rho(algebra.rho_to_eta(rho), 1.0)
        assert np.max(np.abs(back - rho)) <= 1e-14


def test_round_trip_is_a_linear_identity_for_arbitrary_matrices():
    # hermiticity is not required for the map to invert exactly
    rng = np.random.default_rng(43)
    for _ in range(200):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        back = algebra.eta_to_rho(algebra.rho_to_eta(m), np.trace(m))
        assert np.max(np.abs(back - m)) <= 1e-14
    # a stack maps matrix by matrix, with the same arithmetic
    stack = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    etas = algebra.rho_to_eta(stack)
    assert np.array_equal(etas, np.array([algebra.rho_to_eta(m) for m in stack]))
    traces = np.trace(stack, axis1=1, axis2=2)
    assert np.array_equal(algebra.eta_to_rho(etas, traces),
                          np.array([algebra.eta_to_rho(e, tr) for e, tr in zip(etas, traces)]))
    assert np.array_equal(algebra.eta_to_rho(etas), np.array([algebra.eta_to_rho(e) for e in etas]))
    assert np.max(np.abs(algebra.eta_to_rho(etas, traces) - stack)) <= 1e-14


def test_reality_pattern_of_physical_coherence_vectors():
    rng = np.random.default_rng(44)
    for _ in range(200):
        eta = algebra.rho_to_eta(algebra.random_density_matrix(rng))
        # indices 0,1,2,4,6 real; 3,5,7 pure imaginary
        assert np.max(np.abs(eta[[0, 1, 2, 4, 6]].imag)) <= 1e-15
        assert np.max(np.abs(eta[[3, 5, 7]].real)) <= 1e-15


def test_purity_identity_brute_force():
    rng = np.random.default_rng(45)
    for _ in range(1000):
        rho = algebra.random_density_matrix(rng)
        eta = algebra.rho_to_eta(rho)
        purity = float(np.real(np.trace(rho @ rho)))
        assert abs(purity - (1.0 / 3.0 + 0.5 * np.sum(np.abs(eta) ** 2))) <= 1e-12


def test_validate_density_matrix_rejects_bad_input():
    good = np.diag([0.5, 0.3, 0.2]).astype(complex)
    algebra.validate_density_matrix(good)
    with pytest.raises(ValueError, match="Hermitian"):
        bad = good.copy()
        bad[0, 1] = 0.1
        algebra.validate_density_matrix(bad)
    with pytest.raises(ValueError, match="trace"):
        algebra.validate_density_matrix(np.diag([0.5, 0.3, 0.3]).astype(complex))
    with pytest.raises(ValueError, match="positive"):
        algebra.validate_density_matrix(np.diag([1.1, 0.0, -0.1]).astype(complex))
    with pytest.raises(ValueError, match="3x3"):
        algebra.validate_density_matrix(np.eye(2))


def test_non_finite_density_matrix_is_rejected():
    # NaN and inf pass the hermiticity, trace and positivity tests unnoticed
    inf_pair = np.diag([0.5, 0.3, 0.2]).astype(complex)
    inf_pair[0, 1] = inf_pair[1, 0] = np.inf
    cfg = fields.preset("fig1").config
    for rho0 in (np.diag([np.nan, 0.0, 0.0]), inf_pair):
        with pytest.raises(ValueError, match="finite"):
            algebra.validate_density_matrix(rho0)
        with pytest.raises(ValueError, match="finite"):
            propagator.run(cfg, rho0, 1.0, 0.5, 1e-9)
        with pytest.raises(ValueError, match="finite"):
            oracle.integrate_rho_direct(cfg, rho0, 1.0, 0.5, 1e-9)
