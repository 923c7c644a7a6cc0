"""Product-of-exponentials propagation of the density matrix.

The paper writes the non-decaying part of the evolution on the coherence
vector as the product, applied right to left,

    exp(-i mu_plus(t) B_plus) exp(-i mu_minus(t) B_minus) exp(-i mu(t) B_z)

acting on eta(0).  The exponents depend only on the Lie algebra, so the same
values drive the 3x3 factor

    G = exp(-i mu_plus A_plus) exp(-i mu_minus A_minus) exp(-i mu A_z)

and the density matrix evolves as rho(t) = I/3 + exp(-Gamma t) (G rho(0) G^-1 - I/3):
decoherence is a real scalar decay toward the maximally mixed state.  A_X, A_Y
and A_Z are the spin-1 representation of su(2), so propagators are composed as
2x2 matrices of determinant 1, and each sample lifts its own to G.  Exponents
come from :mod:`trilevel.riccati`.  When they grow (or blow up at a chart
singularity of the factorization), the propagator composes the state reached so
far and restarts the exponents from zero at that time; the evolution operator is
a cocycle, so segmentation is exact.  By the same cocycle, a drive with period T
is solved over [0, T] only: U(nT + s) = U(s) U(T)^n, U(T)^n in closed form.
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

#: Output samples filled per block: the block's 2x2 products, G and G^-1
#: stacks and dense-output temporaries (measured 0.7 KB a sample) are what
#: bounds run's transient memory, whatever the length of the grid.
SAMPLE_BLOCK = 4096


class PropagationError(RuntimeError):
    """Propagation could not continue (restart failed to advance)."""


def _matrix(*rows) -> np.ndarray:
    """Matrices of shape S + (rows, columns) from ``rows`` of broadcasting entries."""
    entries = np.broadcast_arrays(*(x for row in rows for x in row))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (len(rows), len(rows[0])))


def chart_matrix(mu_plus, mu_minus, mu) -> np.ndarray:
    """The 2x2 factor exp(-i mu_plus a_+) exp(-i mu_minus a_-) exp(-i mu diag(1/2, -1/2)),
    a_+- the 2x2 ladder matrices; exponents of shape S give shape S + (2, 2)."""
    e = np.exp(-0.5j * mu)
    return _matrix(((1.0 - mu_plus * mu_minus) * e, -1j * mu_plus / e),
                   (-1j * mu_minus * e, 1.0 / e))


def _spin1(a, b, c, d) -> np.ndarray:
    aa, bb, cc, dd = a * a, b * b, c * c, d * d
    return _matrix((0.5 * (aa - bb - cc + dd), 0.5 * (aa + bb - cc - dd), a * b - c * d),
                   (0.5 * (aa - bb + cc - dd), 0.5 * (aa + bb + cc + dd), a * b + c * d),
                   (a * c - b * d, a * c + b * d, a * d + b * c))


def lift(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G, the spin-1 image on A_X, A_Y, A_Z of 2x2 ``u`` of determinant 1, and G^-1 from
    u's adjugate, shape S + (3, 3).  Quadratic, so lift(-u) = lift(u); its coefficients
    are 0, +-1/2 and +-1, so lift(I) is exactly I."""
    a, b, c, d = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
    return _spin1(a, b, c, d), _spin1(d, -b, -c, a)


def _matmul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` on broadcasting stacks of 2x2 matrices, as two multiply-adds:
    numpy's stacked matmul takes such matrices one at a time, about 4x slower."""
    return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]


def _power(u: np.ndarray, n: np.ndarray) -> np.ndarray:
    """u^n = cos(n theta) I + sin(n theta)/sin(theta) k up to sign, for every integer of
    the float array ``n``, with cos(theta) = tr(u)/2, k = u - cos(theta) I and det u = 1;
    -u stands in for u when Re tr u < 0, so that theta stays near 0 rather than pi."""
    u = -u if u.trace().real < 0.0 else u
    cos = 0.5 * u.trace()
    k = u - cos * np.eye(2)
    # sin(theta)^2 = -det(k), which does not cancel near theta = 0 as 1 - cos^2 does
    sin = np.sqrt(-(k[0, 0] * k[0, 0] + k[0, 1] * k[1, 0]))
    n = np.asarray(n)[..., None, None]
    n_theta = n * (-1j * np.log(cos + 1j * sin))
    return np.cos(n_theta) * np.eye(2) + (np.sin(n_theta) / sin if sin != 0.0 else n) * k


@dataclass
class Trajectory:
    """Output grid, density matrices (n, 3, 3) and the observables ``table``:
    (n, 16) columns in ``observables.CSV_FIELDS`` order."""

    grid: np.ndarray
    rho: np.ndarray
    table: np.ndarray

    def __len__(self) -> int:
        return len(self.grid)


def _build_trajectory(grid: np.ndarray, rhos: np.ndarray) -> Trajectory:
    """The trajectory of ``rhos``, a complex (n, 3, 3) stack owned by the
    caller, which is replaced by its Hermitian part in place."""
    grid = np.asarray(grid, dtype=float)
    # filled SAMPLE_BLOCK rows at a time, so the build's temporaries (spectrum,
    # eta stack, column inputs) stay bounded whatever the number of samples
    table = np.empty((len(grid), len(observables.CSV_FIELDS)))
    for lo in range(0, len(grid), SAMPLE_BLOCK):
        hi = lo + SAMPLE_BLOCK
        block = rhos[lo:hi]
        # the Hermitian part 0.5 (rho + rho^H)
        block += np.conj(block.transpose(0, 2, 1))
        block *= 0.5
        table[lo:hi] = observables.table(grid[lo:hi], block)
    return Trajectory(grid, rhos, table)


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
    return _build_trajectory(grid, np.array(rhos, dtype=complex, order="C"))


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
    """Charts over [0, span] as (chart, cover, W) rows, W the 2x2 propagator
    composed up to the chart's start; and U(span), also 2x2.

    A chart halts at its first node past CHART_LIMIT, or ends at a blow-up;
    the next chart starts from zero at the last node inside the limit.  A
    solve whose charts take more than MAX_SAMPLES accepted steps in all is a
    ValueError, raised at the step past the cap: a drive with no common
    period is solved over the whole window, which could otherwise take hours
    and all of memory, in one chart when the drive is weak.
    """
    steps = 0

    def halt(t, vals):
        nonlocal steps
        steps += 1   # one call per accepted step
        if steps > MAX_SAMPLES:
            raise ValueError(f"the exponents to t = {span!r} need more than {MAX_SAMPLES} "
                             f"Riccati steps (t = {t:.9g} reached); shorten t_end")
        mu_plus, mu_minus, mu = vals
        return max(abs(mu_plus), abs(mu_minus), abs(mu.imag)) > CHART_LIMIT

    charts = []
    w = np.eye(2, dtype=complex)
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
        charts.append((chart, cover, w))
        w = chart_matrix(*chart.evaluate(cover)) @ w
        # a chart whose reach takes in span serves the rest of it
        if complete or span <= _reach(cover):
            return charts, w
        start = cover


def _reach(cover):
    """The last time a chart ending at ``cover`` serves, clipped onto its cover."""
    return cover + 1e-12 * np.maximum(1.0, np.abs(cover))


def run(cfg: FieldConfig, rho0: np.ndarray, t_end: float, dt_out: float, tol: float) -> Trajectory:
    """Propagate ``rho0`` over [0, t_end], sampling every ``dt_out``.

    The exponent functions are solved on consecutive charts over one span:
    the drive period T when the drive has one and t_end > T, else [0, t_end].
    The propagator is a cocycle, U(nT + s) = U(s) U(T)^n, so a sample at
    t = nT + s lifts the 2x2 product of the chart at s, the charts before it
    and U(T)^n.  The grid is filled SAMPLE_BLOCK samples at a time, each
    chart evaluated once per block for every period it serves there.
    """
    grid = output_grid(t_end, dt_out)
    rho0 = algebra.validate_density_matrix(rho0)
    # the maximally mixed state at the trace of rho0, which decay approaches
    mixed = float(np.trace(rho0).real) / 3.0 * np.eye(3)
    period = _drive_period(cfg)
    span = period if period is not None and t_end > period else t_end
    charts, u = _solve_charts(cfg, span, tol)

    reach = _reach(np.array([cover for _, cover, _ in charts]))
    rhos = np.empty((len(grid), 3, 3), dtype=complex)
    for lo in range(0, len(grid), SAMPLE_BLOCK):
        t = grid[lo:lo + SAMPLE_BLOCK]
        # period index n and in-span time s of each sample; n is 0 on one span
        n = np.floor(t / span) if span < t_end else np.zeros_like(t)
        s = np.clip(t - n * span, 0.0, span)
        u_n = _power(u, n)
        decay = np.exp(-cfg.Gamma * t)[:, None, None]
        # each sample takes the first chart whose reach holds it, clipped onto its cover
        chart_of = np.searchsorted(reach, s)
        for c in np.unique(chart_of):
            chart, cover, w = charts[c]
            k = np.flatnonzero(chart_of == c)
            u_k = chart_matrix(*chart.evaluate(np.minimum(s[k], cover)))
            g, g_inv = lift(_matmul2(_matmul2(u_k, w), u_n[k]))
            rhos[lo + k] = decay[k] * (g @ rho0 @ g_inv) + (1.0 - decay[k]) * mixed

    # rhos is run's own, so its Hermitian part is formed in place
    return _build_trajectory(grid, rhos)
