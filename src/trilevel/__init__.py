"""Driven degenerate three-level open quantum system.

Evolves the 3x3 density matrix under two cosine drives and uniform
decoherence by factorizing the coherence-vector propagator into a short
product of exponentials whose exponents obey one classical Riccati equation
plus two quadratures.  Independent direct integrators and a closed-form
hydrogen Stark solution serve as cross-validation oracles.
"""

from .algebra import (A_X, A_Y, A_Z, B_MINUS, B_PLUS, B_X, B_Y, B_Z,
                      commutator, eta_to_rho, random_density_matrix, rho_to_eta,
                      validate_density_matrix, verify_algebra)
from .fields import (FieldConfig, InitialState, Preset, UnknownPresetError,
                     epsilon, hydrogen_config, j_coupling, liouvillian, preset,
                     preset_names)
from .observables import ObservableRecord, coherence_norm, entropy, purity, spectrum
from .oracle import (AmplitudeTriple, ZeroFrequencyError, hydrogen_amplitudes,
                     hydrogen_density, hydrogen_stark_basis, hydrogen_trajectory,
                     integrate_eta_direct, integrate_rho_direct)
from .propagator import (PropagationError, Trajectory, run, trajectory_from_etas,
                         trajectory_from_rhos)
from .riccati import MuTrajectory, SingularityError, solve_mu

__version__ = "0.1.0"

__all__ = [
    "A_X", "A_Y", "A_Z", "B_X", "B_Y", "B_Z", "B_PLUS", "B_MINUS",
    "AmplitudeTriple", "FieldConfig", "InitialState", "MuTrajectory",
    "ObservableRecord", "Preset", "PropagationError", "SingularityError",
    "Trajectory", "UnknownPresetError", "ZeroFrequencyError",
    "coherence_norm", "commutator", "entropy", "epsilon", "eta_to_rho",
    "hydrogen_amplitudes", "hydrogen_config",
    "hydrogen_density", "hydrogen_stark_basis", "hydrogen_trajectory",
    "integrate_eta_direct", "integrate_rho_direct", "j_coupling",
    "liouvillian", "preset", "preset_names", "purity", "random_density_matrix",
    "rho_to_eta", "run", "solve_mu", "spectrum", "trajectory_from_etas",
    "trajectory_from_rhos", "validate_density_matrix", "verify_algebra",
]
