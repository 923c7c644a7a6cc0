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

import functools
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

#: Largest output grid, in rows.
MAX_SAMPLES = 1_000_000

#: Output samples per block: the block's 2x2 products, G and G^-1 stacks,
#: Hermitian part and dense-output temporaries (measured 0.7 KB a sample)
#: bound the transient memory of run and of a build, whatever the grid length.
SAMPLE_BLOCK = 2048


class PropagationError(RuntimeError):
    """Propagation could not continue (a chart failed to advance)."""


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
    """Output grid and the observables ``table``: (n, 16) columns in
    ``observables.CSV_FIELDS`` order."""

    grid: np.ndarray
    table: np.ndarray

    def __len__(self) -> int:
        return len(self.grid)

    @functools.cached_property
    def rho(self) -> np.ndarray:
        """Density matrices (n, 3, 3), formed on first access from the table's
        populations and coherences, which are the whole of a Hermitian rho."""
        cols = self.table[:, 1:10]   # pop1 pop2 pop3 re12 im12 re13 im13 re23 im23
        i, j = np.triu_indices(3, 1)   # entries (0, 1), (0, 2), (1, 2)
        rho = np.zeros((len(self), 3, 3), dtype=complex)
        # through .real and .imag: re + 1j * im would turn a nan im into a nan re
        rho.real[:, [0, 1, 2], [0, 1, 2]] = cols[:, 0:3]
        rho.real[:, i, j] = rho.real[:, j, i] = cols[:, 3::2]
        rho.imag[:, i, j] = cols[:, 4::2]
        rho.imag[:, j, i] = -cols[:, 4::2]
        return rho


def trajectory_from_rhos(grid: np.ndarray, rhos: np.ndarray) -> Trajectory:
    """Build a trajectory from density matrices.

    Each matrix is replaced by its Hermitian part.  That removes the
    anti-Hermitian residue of order the solver tolerance that approximate
    exponents (or an oracle's integration error) leave, so trace and
    hermiticity hold structurally at any tolerance.  ``rhos`` is read
    SAMPLE_BLOCK rows at a time, and neither written nor copied.
    """
    grid = np.asarray(grid, dtype=float)
    table = np.empty((len(grid), len(observables.CSV_FIELDS)))
    for lo in range(0, len(grid), SAMPLE_BLOCK):
        hi = lo + SAMPLE_BLOCK
        block = np.asarray(rhos[lo:hi], dtype=complex)
        # the Hermitian part 0.5 (rho + rho^H), a block temporary
        herm = block + np.conj(block.transpose(0, 2, 1))
        herm *= 0.5
        table[lo:hi] = observables.table(grid[lo:hi], herm)
    return Trajectory(grid, table)


def trajectory_from_etas(grid: np.ndarray, etas: np.ndarray) -> Trajectory:
    """Build a trajectory from unit-trace coherence vectors, as trajectory_from_rhos does."""
    return trajectory_from_rhos(grid, algebra.eta_to_rho(etas))


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


def _propagator(cfg: FieldConfig, grid: np.ndarray, tol: float):
    """The solve step: U(t), the 2x2 propagator, as a function of a slice of
    ``grid``; it depends on the drive and ``tol`` alone.

    The exponents are solved on consecutive charts over one span: the drive
    period T when the drive has one and the grid ends past T, else the whole
    grid.  By the cocycle U(nT + s) = U(s) U(T)^n, U at t = nT + s is the
    product of the chart at s, the charts before it and U(T)^n in closed form.
    A chart halts at its first node past CHART_LIMIT, ends at its last node
    below a blow-up, or ends on the span: that last node is its cover, where
    the next chart starts from zero, with the last step its predecessor
    accepted as its first step.  A chart that blows up on its first step
    cannot advance and is a PropagationError.
    A solve whose charts take more than MAX_SAMPLES accepted steps in all is a
    ValueError, raised at the step past the cap: a drive with no common period
    is solved over the whole window, which could otherwise take hours and all
    of memory, in one chart when the drive is weak.
    """
    t_end = float(grid[-1])
    period = _drive_period(cfg)
    span = period if period is not None and t_end > period else t_end
    # period index and in-span time of each sample; the index is 0 on one span
    periods = np.floor(grid / span) if span < t_end else np.zeros_like(grid)
    in_span = np.clip(grid - periods * span, 0.0, span)
    samples = np.unique(in_span).tolist()   # the steps that get dense output hold one
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
    start, first_step = 0.0, math.inf   # the first chart first tries its whole span
    while start < span:
        try:
            chart = solve_mu(cfg, span, tol, t_start=start, halt=halt, t_eval=samples,
                             first_step=first_step)
        except SingularityError as exc:
            chart = exc.partial
        if chart.t_final <= start:
            raise PropagationError(f"the chart at t = {start:.9g} blew up on its first step")
        charts.append(chart)
        start = chart.t_final
        first_step = float(chart.grid[-1] - chart.grid[-2])   # the chart's last step
    covers = [chart.t_final for chart in charts]

    # composed after the solves: past some numpy kernels, this complex 2x2 `@`
    # among them, Python float arithmetic ran up to 4x slower (numpy 2.4 on a Xeon)
    # until another kind ran, so a product between two solves slowed the next one
    before, u_span = [], np.eye(2, dtype=complex)   # U at each chart's start, U(span)
    for chart, cover in zip(charts, covers):
        before.append(u_span)
        u_span = chart_matrix(*chart.evaluate(cover)) @ u_span

    def u(block: slice) -> np.ndarray:
        s, out = in_span[block], _power(u_span, periods[block])   # U(T)^n, then U(t)
        # chart c serves (cover of chart c - 1, cover of chart c], chart 0 also s = 0
        chart_of = np.searchsorted(covers, s)
        for c in np.unique(chart_of):
            k = np.flatnonzero(chart_of == c)
            out[k] = _matmul2(_matmul2(chart_matrix(*charts[c].evaluate(s[k])), before[c]), out[k])
        return out

    return u


def run(cfg: FieldConfig, rho0: np.ndarray, t_end: float, dt_out: float, tol: float) -> Trajectory:
    """Propagate ``rho0`` over [0, t_end], sampling every ``dt_out``: each
    sample is I/3 + exp(-Gamma t) (G rho0 G^-1 - I/3), G the lift of the solve
    step's U(t).  The grid is filled SAMPLE_BLOCK samples at a time.
    """
    grid = output_grid(t_end, dt_out)
    rho0 = algebra.validate_density_matrix(rho0)
    # the maximally mixed state at the trace of rho0, which decay approaches
    mixed = float(np.trace(rho0).real) / 3.0 * np.eye(3)
    u = _propagator(cfg, grid, tol)
    rhos = np.empty((len(grid), 3, 3), dtype=complex)
    for lo in range(0, len(grid), SAMPLE_BLOCK):
        block = slice(lo, lo + SAMPLE_BLOCK)
        g, g_inv = lift(u(block))
        decay = np.exp(-cfg.Gamma * grid[block])[:, None, None]
        rhos[block] = decay * (g @ rho0 @ g_inv) + (1.0 - decay) * mixed
    return trajectory_from_rhos(grid, rhos)
