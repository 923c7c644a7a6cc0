"""Generator matrices and the density-matrix / coherence-vector isomorphism.

A degenerate three-level system driven between neighbouring levels closes on
three 3x3 generators ``A_X, A_Y, A_Z`` obeying angular-momentum commutators.
The eight independent (traceless) degrees of freedom of the density matrix are
collected into a coherence vector ``eta`` chosen so that the same commutators
are realised by three 8x8 matrices ``B_X, B_Y, B_Z``: ``B_k`` is the
commutator with ``A_k`` written on ``eta``, i.e.
``rho_to_eta(A_k X - X A_k) == B_k @ rho_to_eta(X)``.  The ladder combinations
``A_PLUS = A_X + i A_Y`` and ``A_MINUS = A_X - i A_Y`` (and their 8x8
counterparts ``B_PLUS``, ``B_MINUS``) are nilpotent, which is what makes the
product-form propagator cheap to evaluate.
"""

from __future__ import annotations

import numpy as np

# Structural tolerances of validate_density_matrix().
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-9

_SQRT3 = np.sqrt(3.0)


def _const(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.setflags(write=False)
    return m


A_X = _const([[0, 0, 0],
              [0, 0, 1],
              [0, 1, 0]])

A_Y = _const([[0, 0, -1j],
              [0, 0, 0],
              [1j, 0, 0]])

A_Z = _const([[0, 1, 0],
              [1, 0, 0],
              [0, 0, 0]])

B_X = _const([[0, 0, 0, 0, 0, 0, 0, 1],
              [0, 0, 0, 0, 0, 0, 0, -_SQRT3],
              [0, 0, 0, 0, 0, 1, 0, 0],
              [0, 0, 0, 0, 1, 0, 0, 0],
              [0, 0, 0, 1, 0, 0, 0, 0],
              [0, 0, 1, 0, 0, 0, 0, 0],
              [0, 0, 0, 0, 0, 0, 0, 0],
              [1, -_SQRT3, 0, 0, 0, 0, 0, 0]])

B_Y = _const([[0, 0, 0, 0, -2j, 0, 0, 0],
              [0, 0, 0, 0, 0, 0, 0, 0],
              [0, 0, 0, 0, 0, 0, -1j, 0],
              [0, 0, 0, 0, 0, 0, 0, 1j],
              [2j, 0, 0, 0, 0, 0, 0, 0],
              [0, 0, 0, 0, 0, 0, 0, 0],
              [0, 0, 1j, 0, 0, 0, 0, 0],
              [0, 0, 0, -1j, 0, 0, 0, 0]])

B_Z = _const([[0, 0, 0, 1, 0, 0, 0, 0],
              [0, 0, 0, _SQRT3, 0, 0, 0, 0],
              [0, 0, 0, 0, 0, 0, 0, 0],
              [1, _SQRT3, 0, 0, 0, 0, 0, 0],
              [0, 0, 0, 0, 0, 0, 0, -1],
              [0, 0, 0, 0, 0, 0, -1, 0],
              [0, 0, 0, 0, 0, -1, 0, 0],
              [0, 0, 0, 0, -1, 0, 0, 0]])

A_PLUS = _const(A_X + 1j * A_Y)
A_MINUS = _const(A_X - 1j * A_Y)
B_PLUS = _const(B_X + 1j * B_Y)
B_MINUS = _const(B_X - 1j * B_Y)


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Return ``x @ y - y @ x`` for two square matrices of equal dimension."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"commutator needs equal square matrices, got {x.shape} and {y.shape}")
    return x @ y - y @ x


def rho_to_eta(rho: np.ndarray) -> np.ndarray:
    """Map a 3x3 density matrix to its 8-component coherence vector.

    The ordering is (rho11 - rho33, (rho11 + rho33 - 2 rho22)/sqrt(3),
    rho12 + rho21, rho21 - rho12, rho13 + rho31, rho31 - rho13,
    rho23 + rho32, rho32 - rho23).  For Hermitian input the components at
    indices 0, 1, 2, 4, 6 are real and those at 3, 5, 7 pure imaginary.
    The trace is deliberately not part of the vector; it is conserved and
    carried separately.  A stack of matrices of shape (..., 3, 3) maps to
    coherence vectors of shape (..., 8).
    """
    r = np.asarray(rho, dtype=complex)
    return np.stack([
        r[..., 0, 0] - r[..., 2, 2],
        (r[..., 0, 0] + r[..., 2, 2] - 2.0 * r[..., 1, 1]) / _SQRT3,
        r[..., 0, 1] + r[..., 1, 0],
        r[..., 1, 0] - r[..., 0, 1],
        r[..., 0, 2] + r[..., 2, 0],
        r[..., 2, 0] - r[..., 0, 2],
        r[..., 1, 2] + r[..., 2, 1],
        r[..., 2, 1] - r[..., 1, 2],
    ], axis=-1)


def eta_to_rho(eta: np.ndarray, trace: complex = 1.0) -> np.ndarray:
    """Invert :func:`rho_to_eta`; exact linear inverse for any input.

    ``trace`` supplies the conserved ninth degree of freedom (1 for physical
    states).  A stack of coherence vectors of shape (..., 8) maps to matrices
    of shape (..., 3, 3); ``trace`` is then a scalar or one value per vector.
    """
    e = np.moveaxis(np.asarray(eta, dtype=complex), -1, 0)
    s = (2.0 * trace + _SQRT3 * e[1]) / 3.0
    rho = np.empty(e.shape[1:] + (3, 3), dtype=complex)
    rho[..., 0, 0] = 0.5 * (s + e[0])
    rho[..., 2, 2] = 0.5 * (s - e[0])
    rho[..., 1, 1] = trace - s
    rho[..., 0, 1] = 0.5 * (e[2] - e[3])
    rho[..., 1, 0] = 0.5 * (e[2] + e[3])
    rho[..., 0, 2] = 0.5 * (e[4] - e[5])
    rho[..., 2, 0] = 0.5 * (e[4] + e[5])
    rho[..., 1, 2] = 0.5 * (e[6] - e[7])
    rho[..., 2, 1] = 0.5 * (e[6] + e[7])
    return rho


def hermiticity_deviation(rho: np.ndarray) -> float:
    r = np.asarray(rho)
    return float(np.max(np.abs(r - r.conj().T)))


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check finiteness, hermiticity, unit trace and positivity; return rho
    as an array.

    Raises ValueError naming the violated property.
    """
    r = np.asarray(rho, dtype=complex)
    if r.shape != (3, 3):
        raise ValueError(f"density matrix must be 3x3, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError("density matrix has non-finite entries")
    dev = hermiticity_deviation(r)
    if dev > HERMITICITY_TOL:
        raise ValueError(f"density matrix not Hermitian (deviation {dev:.3e})")
    tr = complex(np.trace(r))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace must be 1, got {tr}")
    lo = float(np.min(np.linalg.eigvalsh(0.5 * (r + r.conj().T))))
    if lo < -POSITIVITY_TOL:
        raise ValueError(f"density matrix not positive semidefinite (min eigenvalue {lo:.3e})")
    return r


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Draw a random 3x3 density matrix (Ginibre construction)."""
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = g @ g.conj().T
    return m / np.trace(m).real

