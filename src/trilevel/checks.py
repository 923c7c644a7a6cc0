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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, deviation: float, bound: float) -> CheckResult:
    return CheckResult(name, deviation <= bound,
                       f"deviation {deviation:.3e} (allowed {bound:.1e})")


def check_algebra() -> list[CheckResult]:
    report = algebra.verify_algebra()
    out = [CheckResult(f"algebra: {c.name}", c.passed, f"deviation {c.deviation:.3e}")
           for c in report.checks]
    out.append(CheckResult("algebra: ladder nilpotency degree",
                           report.nilpotency["B_plus"] == 5 and report.nilpotency["B_minus"] == 5,
                           f"measured {report.nilpotency}"))
    return out


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
    pops = [oracle.hydrogen_amplitudes(ps.config.A, ps.config.omega, float(t)).populations()
            for t in traj.grid]
    worst = float(np.max(np.abs(np.diagonal(traj.rho, axis1=1, axis2=2).real - pops)))
    return _result("hydrogen closed form vs product solver (populations)", worst, 1e-8)


def check_stark_basis() -> list[CheckResult]:
    states, factors = oracle.hydrogen_stark_basis()
    ortho = float(np.max(np.abs(states.conj().T @ states - np.eye(3))))
    expected = np.array([-math.sqrt(1.5), math.sqrt(1.5), 0.0])
    fac = float(np.max(np.abs(factors - expected)))
    return [_result("stark basis orthonormality", ortho, 1e-12),
            _result("stark eigenvalue factors -sqrt(3/2), +sqrt(3/2), 0", fac, 1e-12)]


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
    results.extend(check_algebra())
    results.append(check_round_trip())
    results.append(check_purity_identity())
    results.extend(check_riccati_constant_coupling())
    results.append(check_product_vs_direct())
    results.append(check_hydrogen_closed_form())
    results.extend(check_stark_basis())
    results.extend(check_eigenvalue_law_and_entropy())
    return results
