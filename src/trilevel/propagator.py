"""Product-of-exponentials propagation of the density matrix.

The paper writes the non-decaying part of the evolution on the coherence
vector as the product, applied right to left,

    exp(-i mu_plus(t) B_plus) exp(-i mu_minus(t) B_minus) exp(-i mu(t) B_z)

acting on eta(0).  The exponents depend only on the Lie algebra, so the same
values drive the 3x3 factor

    G = exp(-i mu_plus A_plus) exp(-i mu_minus A_minus) exp(-i mu A_z)

and the density matrix evolves as rho(t) = I/3 + exp(-Gamma t) (G rho(0) G^-1 - I/3):
decoherence is a real scalar decay toward the maximally mixed state.  Each
factor is an exact quadratic in its generator, because A_plus and A_minus are
nilpotent of degree 3 and A_z^3 = A_z.  The exponent functions come from
:mod:`trilevel.riccati`.  When they grow (or blow up at a chart singularity of
the factorization), the propagator composes the state reached so far and
restarts the exponents from zero at that time; the evolution operator is a
cocycle, so segmentation is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import algebra, observables
from .fields import FieldConfig
from .riccati import SingularityError, solve_mu

#: Chart restart threshold on max(|mu_plus|, |mu_minus|, |Im mu|).  Keeping
#: the exponent magnitudes of order one keeps every factor of the product well
#: conditioned; without it, strong or slowly modulated drives lose digits to
#: cancellation between large factors.
CHART_LIMIT = 1.0

#: A restart that advances time by less than this is treated as failure.
MIN_SEGMENT = 1e-6

#: Largest output grid, in rows.
MAX_SAMPLES = 1_000_000

#: Output samples filled per batch: the batch's G and G^-1 stacks and the
#: dense-output temporaries (about 1.5 KB a sample) are what bounds run's
#: transient memory, whatever the number of samples in one chart.
SAMPLE_BLOCK = 4096

_I3 = np.eye(3, dtype=complex)
_A_PLUS_SQ = algebra.A_PLUS @ algebra.A_PLUS
_A_MINUS_SQ = algebra.A_MINUS @ algebra.A_MINUS
_A_Z_SQ = algebra.A_Z @ algebra.A_Z


class PropagationError(RuntimeError):
    """Propagation could not continue (restart failed to advance)."""


def _exp_pair(gen: np.ndarray, gen_sq: np.ndarray, odd: np.ndarray, even: np.ndarray):
    """exp(c gen) and exp(-c gen) as I +- odd gen + even gen^2.

    (odd, even) is (c, c^2/2) for a generator with gen^3 = 0 and
    (sinh c, cosh c - 1) for one with gen^3 = gen.
    """
    even_part = _I3 + even * gen_sq
    odd_part = odd * gen
    return even_part + odd_part, even_part - odd_part


def chart_matrix(mu_plus, mu_minus, mu) -> tuple[np.ndarray, np.ndarray]:
    """The 3x3 factor G and its inverse for given exponent values.

    The exponents broadcast: arrays of shape S give G and G^-1 of shape
    S + (3, 3).  The inverse is the reversed product with the signs of the
    exponents flipped, so it costs no matrix inversion.
    """
    cp, cm, cz = (-1j * np.asarray(m)[..., None, None] for m in (mu_plus, mu_minus, mu))
    p, p_inv = _exp_pair(algebra.A_PLUS, _A_PLUS_SQ, cp, 0.5 * cp * cp)
    m, m_inv = _exp_pair(algebra.A_MINUS, _A_MINUS_SQ, cm, 0.5 * cm * cm)
    z, z_inv = _exp_pair(algebra.A_Z, _A_Z_SQ, np.sinh(cz), np.cosh(cz) - 1.0)
    return p @ m @ z, z_inv @ m_inv @ p_inv


@dataclass
class Trajectory:
    """Output grid with density matrices, coherence vectors and observables.

    ``table`` holds the observables as (n, 16) columns in ``CSV_FIELDS`` order;
    ``observables`` builds one ``ObservableRecord`` per row on first access.
    """

    grid: np.ndarray
    rho: np.ndarray
    eta: np.ndarray
    table: np.ndarray

    @cached_property
    def observables(self) -> list[observables.ObservableRecord]:
        return [observables.ObservableRecord(*row) for row in self.table.tolist()]

    def __len__(self) -> int:
        return len(self.grid)


def _build_trajectory(grid: np.ndarray, rhos) -> Trajectory:
    grid = np.asarray(grid, dtype=float)
    rhos = np.asarray(rhos, dtype=complex)
    rho_out = 0.5 * (rhos + rhos.conj().transpose(0, 2, 1))
    eta_out = algebra.rho_to_eta(rho_out)
    return Trajectory(grid, rho_out, eta_out, observables.table(grid, rho_out, eta_out))


def trajectory_from_etas(grid: np.ndarray, etas: np.ndarray) -> Trajectory:
    """Build a trajectory from unit-trace coherence vectors, as trajectory_from_rhos does."""
    return _build_trajectory(grid, algebra.eta_to_rho(etas))


def trajectory_from_rhos(grid: np.ndarray, rhos: np.ndarray) -> Trajectory:
    """Build a trajectory from density matrices.

    Each matrix is replaced by its Hermitian part.  That removes the
    anti-Hermitian residue of order the solver tolerance that approximate
    exponents (or an oracle's integration error) leave, so trace and
    hermiticity hold structurally at any tolerance.
    """
    return _build_trajectory(grid, rhos)


def output_grid(t_end: float, dt_out: float) -> np.ndarray:
    """Uniform output times 0, dt, 2dt, ... with the last sample at t_end; a grid
    of more than MAX_SAMPLES rows, or a bound that is not finite and > 0, is a
    ValueError, raised before any allocation."""
    for key, value in (("t_end", t_end), ("dt_out", dt_out)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{key} must be finite and > 0, got {value!r}")
    rows = t_end / dt_out + 1.0
    if not rows <= MAX_SAMPLES:
        raise ValueError(f"dt_out = {dt_out!r} gives {rows:.3g} output rows up to "
                         f"t_end = {t_end!r}; at most {MAX_SAMPLES} are allowed")
    n = int(math.ceil(t_end / dt_out - 1e-9))
    grid = np.arange(n + 1) * dt_out
    grid[-1] = min(grid[-1], t_end)
    if grid[-1] < t_end:
        grid = np.append(grid, t_end)
    return grid


def _chart_health(vals: tuple[complex, complex, complex]) -> float:
    mp, mm, mu = vals
    return max(abs(mp), abs(mm), abs(mu.imag))


def _fill(out: np.ndarray, t: np.ndarray, chart, rho: np.ndarray, gamma: float,
          mixed: np.ndarray) -> None:
    """out[k] = the state at time t[k] on ``chart`` from its start value ``rho``,
    SAMPLE_BLOCK samples at a time."""
    for lo in range(0, len(t), SAMPLE_BLOCK):
        tb = t[lo:lo + SAMPLE_BLOCK]
        g, g_inv = chart_matrix(*chart.evaluate(tb))
        decay = np.exp(-gamma * tb)[:, None, None]
        out[lo:lo + SAMPLE_BLOCK] = decay * (g @ rho @ g_inv) + (1.0 - decay) * mixed


def run(cfg: FieldConfig, rho0: np.ndarray, t_end: float, dt_out: float, tol: float) -> Trajectory:
    """Propagate ``rho0`` over [0, t_end], sampling every ``dt_out``.

    The exponent functions are solved on consecutive charts.  A chart halts at
    its first node past CHART_LIMIT, or ends at a blow-up; the state is then
    composed at the last node inside the limit and a new chart starts there.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    grid = output_grid(t_end, dt_out)
    rho0 = algebra.validate_density_matrix(rho0)
    # the maximally mixed state at the trace of rho0, which decay approaches
    mixed = float(np.trace(rho0).real) / 3.0 * np.eye(3)
    rhos = np.empty((len(grid), 3, 3), dtype=complex)

    halt = lambda _t, vals: _chart_health(vals) > CHART_LIMIT

    accumulated = rho0   # chart-start value of the non-decaying part
    t_base = 0.0
    oi = 0
    guard = 0
    while oi < len(grid):
        try:
            chart = solve_mu(cfg, t_end, tol, t_start=t_base, halt=halt)
            complete = not chart.halted
            # A halted chart's last node is its first past the limit, so the
            # one before it is the last inside; node 1 (the first step) is the
            # fallback, so that a restart always advances.
            cover = t_end if complete else float(chart.grid[max(1, len(chart.grid) - 2)])
        except SingularityError as exc:
            # every node of a blow-up's partial chart passed the limit
            chart = exc.partial
            complete = False
            cover = chart.t_final

        if not complete and cover <= t_base + MIN_SEGMENT:
            raise PropagationError(
                f"restart at t = {t_base:.9g} advanced less than {MIN_SEGMENT}")

        # every output time up to the cover, clipped onto it
        stop = int(np.searchsorted(grid, cover + 1e-12 * max(1.0, abs(cover)), side="right"))
        _fill(rhos[oi:stop], np.minimum(grid[oi:stop], cover), chart, accumulated,
              cfg.Gamma, mixed)
        oi = stop
        if oi >= len(grid):
            break

        g, g_inv = chart_matrix(*chart.evaluate(cover))
        accumulated = g @ accumulated @ g_inv
        t_base = cover
        guard += 1
        if guard > 10_000_000:
            raise PropagationError("too many chart restarts")

    return trajectory_from_rhos(grid, rhos)
