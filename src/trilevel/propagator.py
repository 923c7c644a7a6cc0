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
cocycle, so segmentation is exact.  By the same cocycle, a drive with period
T is solved over [0, T] only: U(nT + s) = U(s) U(T)^n (Floquet).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Output grid, density matrices (n, 3, 3) and the observables ``table``:
    (n, 16) columns in ``observables.CSV_FIELDS`` order."""

    grid: np.ndarray
    rho: np.ndarray
    table: np.ndarray

    def __len__(self) -> int:
        return len(self.grid)


def _build_trajectory(grid: np.ndarray, rhos) -> Trajectory:
    grid = np.asarray(grid, dtype=float)
    rhos = np.asarray(rhos, dtype=complex)
    # the Hermitian part 0.5 (rhos + rhos^H), formed in one new stack
    rho_out = np.conj(rhos.transpose(0, 2, 1), order="C")
    rho_out += rhos
    rho_out *= 0.5
    # filled SAMPLE_BLOCK rows at a time, so the build's temporaries (spectrum,
    # eta stack, column inputs) stay bounded whatever the number of samples
    table = np.empty((len(grid), len(observables.CSV_FIELDS)))
    for lo in range(0, len(grid), SAMPLE_BLOCK):
        hi = lo + SAMPLE_BLOCK
        table[lo:hi] = observables.table(grid[lo:hi], rho_out[lo:hi])
    return Trajectory(grid, rho_out, table)


def trajectory_from_etas(grid: np.ndarray, etas: np.ndarray) -> Trajectory:
    """Build a trajectory from unit-trace coherence vectors, as trajectory_from_rhos does."""
    return _build_trajectory(grid, algebra.eta_to_rho(etas))


def trajectory_from_rhos(grid: np.ndarray, rhos: np.ndarray) -> Trajectory:
    """Build a trajectory from density matrices.

    Each matrix is replaced by its Hermitian part.  That removes the
    anti-Hermitian residue of order the solver tolerance that approximate
    exponents (or an oracle's integration error) leave, so trace and
    hermiticity hold structurally at any tolerance.  ``rhos`` is not written.
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


def _drive_period(cfg: FieldConfig) -> float | None:
    """The common period T of the two drives, or None for a static drive and
    for frequencies whose ratio is no fraction p/q with q <= 64 (in binary64)."""
    rate_a, rate_b = abs(cfg.Omega), abs(cfg.omega)
    if rate_a == 0.0 or rate_b == 0.0:
        fastest = max(rate_a, rate_b)
        return 2.0 * math.pi / fastest if fastest > 0.0 else None
    from fractions import Fraction  # imported here: it adds 4 ms to import trilevel

    ratio = rate_a / rate_b
    frac = Fraction(ratio).limit_denominator(64)
    if frac.numerator / frac.denominator != ratio:
        return None
    # Omega = (p/q) omega: T = 2 pi q / omega holds p periods of one drive, q of the other
    return 2.0 * math.pi * frac.denominator / rate_b


def _solve_charts(cfg: FieldConfig, span: float, tol: float):
    """Charts over [0, span] as (chart, cover, W, W^-1) rows, W the propagator
    composed up to the chart's start; and U(span), U(span)^-1.

    A chart halts at its first node past CHART_LIMIT, or ends at a blow-up;
    the next chart starts from zero at the last node inside the limit.
    """
    halt = lambda _t, vals: _chart_health(vals) > CHART_LIMIT
    charts = []
    w, w_inv = _I3, _I3
    start = 0.0
    while True:
        try:
            chart = solve_mu(cfg, span, tol, t_start=start, halt=halt)
            complete = not chart.halted
            # A halted chart's last node is its first past the limit, so the
            # one before it is the last inside; node 1 (the first step) is the
            # fallback, so that a restart always advances.
            cover = span if complete else float(chart.grid[max(1, len(chart.grid) - 2)])
        except SingularityError as exc:
            # every node of a blow-up's partial chart passed the limit
            chart = exc.partial
            complete = False
            cover = chart.t_final

        if not complete and cover <= start + MIN_SEGMENT:
            raise PropagationError(
                f"restart at t = {start:.9g} advanced less than {MIN_SEGMENT}")
        charts.append((chart, cover, w, w_inv))
        g, g_inv = chart_matrix(*chart.evaluate(cover))
        w, w_inv = g @ w, w_inv @ g_inv
        # a chart whose reach takes in span serves the rest of it
        if complete or span <= _reach(cover):
            return charts, w, w_inv
        start = cover
        if len(charts) > 10_000_000:
            raise PropagationError("too many chart restarts")


def _reach(cover):
    """The last time a chart ending at ``cover`` serves, clipped onto its cover."""
    return cover + 1e-12 * np.maximum(1.0, np.abs(cover))


def _fill(out: np.ndarray, t: np.ndarray, s: np.ndarray, chart, rho: np.ndarray,
          gamma: float, mixed: np.ndarray) -> None:
    """out[k] = the state at time t[k], with ``chart`` evaluated at s[k] from its
    start value ``rho`` and the decay taken over t[k], SAMPLE_BLOCK samples at a time."""
    for lo in range(0, len(t), SAMPLE_BLOCK):
        hi = lo + SAMPLE_BLOCK
        g, g_inv = chart_matrix(*chart.evaluate(s[lo:hi]))
        decay = np.exp(-gamma * t[lo:hi])[:, None, None]
        out[lo:hi] = decay * (g @ rho @ g_inv) + (1.0 - decay) * mixed


def run(cfg: FieldConfig, rho0: np.ndarray, t_end: float, dt_out: float, tol: float) -> Trajectory:
    """Propagate ``rho0`` over [0, t_end], sampling every ``dt_out``.

    The exponent functions are solved on consecutive charts over one span:
    the drive period T when the drive has one and t_end > T, else [0, t_end].
    The propagator is a cocycle, U(nT + s) = U(s) U(T)^n, so a sample at
    t = nT + s is the chart at s started from U(T)^n rho0 U(T)^-n.
    """
    grid = output_grid(t_end, dt_out)
    rho0 = algebra.validate_density_matrix(rho0)
    # the maximally mixed state at the trace of rho0, which decay approaches
    mixed = float(np.trace(rho0).real) / 3.0 * np.eye(3)
    period = _drive_period(cfg)
    span = period if period is not None and t_end > period else t_end
    charts, u, u_inv = _solve_charts(cfg, span, tol)

    # period index n and in-span time s of every sample; n is 0 on one span
    n = np.floor(grid / span) if span < t_end else np.zeros_like(grid)
    s = np.clip(grid - n * span, 0.0, span)
    reach = _reach(np.array([cover for _, cover, _, _ in charts]))
    rhos = np.empty((len(grid), 3, 3), dtype=complex)
    rho_n, n_at = rho0, 0
    breaks = np.flatnonzero(np.diff(n)) + 1
    for lo, hi in zip(np.r_[0, breaks], np.r_[breaks, len(grid)]):
        steps = int(n[lo]) - n_at
        if steps:
            step = np.linalg.matrix_power(u, steps)
            rho_n = step @ rho_n @ np.linalg.matrix_power(u_inv, steps)
            n_at += steps
        # each chart takes the samples up to its reach, clipped onto its cover
        ends = lo + np.searchsorted(s[lo:hi], reach, side="right")
        a = lo
        for (chart, cover, w, w_inv), b in zip(charts, ends):
            if b > a:
                _fill(rhos[a:b], grid[a:b], np.minimum(s[a:b], cover), chart,
                      w @ rho_n @ w_inv, cfg.Gamma, mixed)
                a = b

    return trajectory_from_rhos(grid, rhos)
