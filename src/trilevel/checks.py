"""Self-check suite behind the ``check`` subcommand.

Each check re-derives its expectation independently of the code path it
validates: algebra identities from the matrix definitions, the Riccati
closed form for constant coupling, cross-validation of the product solver
against direct integration, and the hydrogen closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, fields, observables, oracle, propagator, riccati

# Random draws per identity check.
SAMPLES = 300

# Bounds of the algebra rows; the generators are built from 0, +-1, +-2, i
# and sqrt(3), so the identities hold to rounding.
COMMUTATOR_TOL = 1e-14
NILPOTENCY_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, deviation: float, bound: float) -> CheckResult:
    return CheckResult(name, deviation <= bound,
                       f"deviation {deviation:.3e} (allowed {bound:.1e})")


def _max_abs(m) -> float:
    return float(np.max(np.abs(m)))


def verify_algebra() -> list[CheckResult]:
    """The algebra rows: the angular-momentum commutators and hermiticity of
    the generators, the ladder matrices against B_x +- iB_y, and their
    nilpotency degree 5.

    Reads the ``algebra`` module attributes at call time, so a rebound
    generator fails its row instead of passing on a cached copy.
    """
    a = algebra
    rows = []
    for name, x, y, z in [("[A_x,A_y] = iA_z", a.A_X, a.A_Y, a.A_Z),
                          ("[A_y,A_z] = iA_x", a.A_Y, a.A_Z, a.A_X),
                          ("[A_z,A_x] = iA_y", a.A_Z, a.A_X, a.A_Y),
                          ("[B_x,B_y] = iB_z", a.B_X, a.B_Y, a.B_Z),
                          ("[B_y,B_z] = iB_x", a.B_Y, a.B_Z, a.B_X),
                          ("[B_z,B_x] = iB_y", a.B_Z, a.B_X, a.B_Y)]:
        rows.append(_result(f"algebra: {name}", _max_abs(a.commutator(x, y) - 1j * z),
                            COMMUTATOR_TOL))
    for name, m in [("A_x", a.A_X), ("A_y", a.A_Y), ("A_z", a.A_Z),
                    ("B_x", a.B_X), ("B_y", a.B_Y), ("B_z", a.B_Z)]:
        rows.append(_result(f"algebra: {name} Hermitian", a.hermiticity_deviation(m),
                            COMMUTATOR_TOL))
    ladder = max(_max_abs(a.B_PLUS - (a.B_X + 1j * a.B_Y)),
                 _max_abs(a.B_MINUS - (a.B_X - 1j * a.B_Y)))
    rows.append(_result("algebra: B_plus/B_minus consistent with B_x, B_y", ladder,
                        COMMUTATOR_TOL))
    # degree 5: the fifth power of each ladder matrix vanishes, the fourth does not
    fifth = max(_max_abs(np.linalg.matrix_power(m, 5)) for m in (a.B_PLUS, a.B_MINUS))
    fourth = min(_max_abs(np.linalg.matrix_power(m, 4)) for m in (a.B_PLUS, a.B_MINUS))
    rows.append(CheckResult("algebra: ladder nilpotency degree",
                            fifth <= NILPOTENCY_TOL < fourth,
                            f"max|B^5| {fifth:.3e} (allowed {NILPOTENCY_TOL:.1e}), "
                            f"max|B^4| {fourth:.3e}"))
    return rows


def check_round_trip() -> CheckResult:
    rng = np.random.default_rng(7)
    rho = rng.standard_normal((SAMPLES, 3, 3)) + 1j * rng.standard_normal((SAMPLES, 3, 3))
    back = algebra.eta_to_rho(algebra.rho_to_eta(rho), np.trace(rho, axis1=1, axis2=2))
    worst = float(np.max(np.abs(back - rho)))
    return _result("rho <-> eta round trip (random complex matrices)", worst, 1e-14)


def check_purity_identity() -> CheckResult:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(SAMPLES):
        rho = algebra.random_density_matrix(rng)
        eta = algebra.rho_to_eta(rho)
        lhs = observables.purity(rho)
        rhs = 1.0 / 3.0 + 0.5 * observables.coherence_norm(eta) ** 2
        worst = max(worst, abs(lhs - rhs))
    return _result("purity identity Tr rho^2 = 1/3 + |eta|^2/2", worst, 1e-12)


def check_riccati_constant_coupling() -> list[CheckResult]:
    j0 = 0.5
    cfg = fields.FieldConfig(A=0.0, Omega=0.0, B=2 * j0, omega=0.0, delta=0.0, Gamma=0.0)
    t_max = 0.9 * math.pi / (2 * j0)
    traj = riccati.solve_mu(cfg, t_max, 1e-11)
    worst = 0.0
    for t in np.linspace(0.1, t_max, 25):
        mp, mm, mu = traj.evaluate(float(t))
        worst = max(worst,
                    abs(mp - math.tan(j0 * t)),
                    abs(mm - 0.5 * math.sin(2 * j0 * t)),
                    abs(mu - (-2j * math.log(math.cos(j0 * t)))))
    results = [_result("riccati: constant-coupling closed form", worst, 1e-8)]
    try:
        riccati.solve_mu(cfg, 1.2 * math.pi / (2 * j0), 1e-10)
        results.append(CheckResult("riccati: blow-up detection", False, "no singularity raised"))
    except riccati.SingularityError as exc:
        pole = math.pi / (2 * j0)
        ok = abs(exc.t_star - pole) < 0.05 * pole
        results.append(CheckResult("riccati: blow-up detection", ok,
                                   f"t_star {exc.t_star:.6f} vs pole {pole:.6f}"))
    return results


def check_product_vs_direct() -> CheckResult:
    ps = fields.preset("fig1")
    rho0 = ps.initial.density()
    prod = propagator.run(ps.config, rho0, 50.0, 0.5, 1e-10)
    direct = oracle.integrate_eta_direct(ps.config, algebra.rho_to_eta(rho0), 50.0, 0.5, 1e-10)
    dev = float(np.max(np.abs(algebra.rho_to_eta(prod.rho) - algebra.rho_to_eta(direct.rho))))
    return _result("product propagator vs direct integration (fig1)", dev, 1e-6)


def check_hydrogen_closed_form() -> CheckResult:
    ps = fields.preset("hydrogen")
    rho0 = ps.initial.density()
    t_end = 4 * math.pi / ps.config.omega
    traj = propagator.run(ps.config, rho0, t_end, t_end / 128, 1e-11)
    exact = oracle.hydrogen_density(ps.config.A, ps.config.omega, ps.config.Gamma, rho0,
                                    traj.grid)
    return _result("hydrogen closed form vs product solver", _max_abs(traj.rho - exact), 1e-8)


def check_stark_basis() -> list[CheckResult]:
    states, factors = oracle.hydrogen_stark_basis()
    ortho = _max_abs(states.conj().T @ states - np.eye(3))
    # the drive the product path integrates, at unit amplitude and t = 0
    cfg = fields.hydrogen_config(1.0)
    h = fields.epsilon(0.0, cfg) * algebra.A_Z + 2.0 * fields.j_coupling(0.0, cfg) * algebra.A_X
    eig = _max_abs(h @ states - states * factors)
    return [_result("stark basis orthonormality", ortho, 1e-12),
            _result("stark basis diagonalizes the hydrogen drive", eig, 1e-12)]


def check_eigenvalue_law_and_entropy() -> list[CheckResult]:
    ps = fields.preset("fig9")
    rho0 = ps.initial.density()
    traj = propagator.run(ps.config, rho0, 60.0, 0.5, 1e-10)
    x = np.exp(-ps.config.Gamma * traj.grid)[:, None]
    law = np.hstack([(1 + 2 * x) / 3, (1 - x) / 3, (1 - x) / 3])
    worst = float(np.max(np.abs(observables.spectrum(traj.rho) - law)))
    drops = float(np.max(-np.diff(observables.entropy(traj.rho)), initial=0.0))
    return [_result("eigenvalue law for pure initial state", worst, 1e-7),
            _result("entropy monotone nondecreasing", drops, 1e-10)]


def run_all() -> list[CheckResult]:
    results: list[CheckResult] = []
    results.extend(verify_algebra())
    results.append(check_round_trip())
    results.append(check_purity_identity())
    results.extend(check_riccati_constant_coupling())
    results.append(check_product_vs_direct())
    results.append(check_hydrogen_closed_form())
    results.extend(check_stark_basis())
    results.extend(check_eigenvalue_law_and_entropy())
    return results
