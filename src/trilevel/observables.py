"""Per-sample physical quantities: populations, coherences, entropy, purity.

Each function takes one density matrix (or coherence vector) or a stack of
them, shape (..., 3, 3) or (..., 8), and maps it matrix by matrix.  Entropy
is reported in nats; the maximally mixed three-level value is ln 3.
"""

from __future__ import annotations

import math

import numpy as np

from . import algebra

LN3 = math.log(3.0)


def spectrum(rho: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian density matrix, sorted descending."""
    return np.linalg.eigvalsh(np.asarray(rho))[..., ::-1]


def _entropy_of_spectrum(lam: np.ndarray) -> np.ndarray | float:
    # clamped to [0, 1] so that roundoff near pure states cannot give NaNs;
    # 0 ln 0 = 0, so a zero eigenvalue takes ln 1 in place of ln 0
    lam = np.clip(lam, 0.0, 1.0)
    return -np.sum(lam * np.log(np.where(lam > 0.0, lam, 1.0)), axis=-1)


def entropy(rho: np.ndarray) -> np.ndarray | float:
    """Von Neumann entropy -sum(lam ln lam) in nats, with 0 ln 0 = 0."""
    return _entropy_of_spectrum(spectrum(rho))


def purity(rho: np.ndarray) -> np.ndarray | float:
    """Tr rho^2."""
    r = np.asarray(rho)
    return np.real(np.trace(r @ r, axis1=-2, axis2=-1))


def coherence_norm(eta: np.ndarray) -> np.ndarray | float:
    """Euclidean norm sqrt(sum |eta_i|^2) of a coherence vector."""
    return np.sqrt(np.sum(np.abs(np.asarray(eta)) ** 2, axis=-1))


#: The columns of ``table`` and of the CSV, in order.
CSV_FIELDS = ("t", "pop1", "pop2", "pop3", "re12", "im12", "re13", "im13",
              "re23", "im23", "entropy", "purity", "eig1", "eig2", "eig3", "eta_norm")


def table(grid: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The observables of n samples as an (n, 16) array, columns in CSV_FIELDS order."""
    lam = spectrum(rho)
    return np.column_stack([
        grid,
        rho[:, 0, 0].real, rho[:, 1, 1].real, rho[:, 2, 2].real,
        rho[:, 0, 1].real, rho[:, 0, 1].imag,
        rho[:, 0, 2].real, rho[:, 0, 2].imag,
        rho[:, 1, 2].real, rho[:, 1, 2].imag,
        _entropy_of_spectrum(lam), purity(rho), lam, coherence_norm(algebra.rho_to_eta(rho)),
    ])
