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
a cocycle, so segmentation is exact: one table joins the charts' steps, step i
serving (end of step i - 1, end of step i].  By the same cocycle, a drive with
period T is solved over [0, T] only: U(nT + s) = U(s) U(T)^n in closed form.
With delta = 0 the drive is also time-symmetric, h(T - s) = h(s), and real
symmetric, so U(s) = U(T - s)^-T U(T) and U(T) = W^T W, W = U(T/2): such a
period is solved over [0, T/2] only.  With Omega = 0 it is symmetric about a
centre c = (-delta/omega) mod (pi/|omega|) for any delta, and the period is
folded about c in the same way, on the drive shifted to c.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import algebra, observables
from .fields import FieldConfig
from .riccati import SingularityError, _evaluate, solve_mu

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
    """Output times 0, dt, 2dt, ..., (n - 1) dt, t_end for n = max(1, ceil(t_end / dt - 1e-9));
    a grid of more than MAX_SAMPLES rows, or a bound that is not finite and > 0, is a
    ValueError, raised before any allocation."""
    for key, value in (("t_end", t_end), ("dt_out", dt_out)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{key} must be finite and > 0, got {value!r}")
    quotient = t_end / dt_out   # may be inf, which math.ceil refuses
    n = max(1, math.ceil(quotient - 1e-9)) if quotient < MAX_SAMPLES else quotient
    if not n < MAX_SAMPLES:
        raise ValueError(f"dt_out = {dt_out!r} gives {n + 1:.3g} output rows up to "
                         f"t_end = {t_end!r}; at most {MAX_SAMPLES} are allowed")
    grid = np.arange(n + 1) * dt_out
    grid[-1] = t_end
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


def _centre(cfg: FieldConfig) -> tuple[float, FieldConfig] | None:
    """A centre c in [0, T/2] about which the drive is time-symmetric, and the drive
    shifted to it, h(c + x), even in x; None if neither rule finds one.  c = 0 when
    delta = 0 or omega = 0, and the shift is the drive itself.  With Omega = 0 the
    one cosine, cos(omega t + delta), is even about each t with omega t + delta = k pi:
    c = (-delta/omega) mod (pi/|omega|), and the shift has delta = 0 and (-1)^k B."""
    if cfg.delta == 0.0 or cfg.omega == 0.0:
        return 0.0, cfg
    if cfg.Omega != 0.0:
        return None
    # -delta/omega = q pi/|omega| + c, so omega c + delta = k pi with k = -q sign(omega)
    q, c = divmod(-cfg.delta / cfg.omega, math.pi / abs(cfg.omega))
    return c, replace(cfg, B=-cfg.B if q % 2.0 else cfg.B, delta=0.0)


def _propagator(cfg: FieldConfig, grid: np.ndarray, tol: float):
    """The solve step: U(t), the 2x2 propagator, as a function of a slice of
    ``grid``; it depends on the drive and ``tol`` alone.

    The exponents are solved on consecutive charts over one span: the drive
    period T when the drive has one and the grid ends past T, else the whole
    grid.  A period with a centre of symmetry c (see _centre) is folded: R, the
    propagator of the drive shifted to c, is solved over [0, T/2] only, R(T) = W^T W
    with W the composed R(T/2), and U(nT + s) = R(x) R(T)^n R(c)^T at x = s - c,
    with R(x) = R(-x)^-T for x < 0 and R(T - x)^-T R(T) for x > T/2.  Unfolded,
    R = U and c = 0.  A chart halts at its first node past CHART_LIMIT, ends at its
    last node below a blow-up, or ends where the solve ends: that last node is its
    cover, where the next chart starts from zero with its predecessor's last step
    as its first.  A chart that blows up on its first step is a PropagationError.
    One table joins, end to end, each chart's steps that serve a sample and its
    last step, whose end node is the chart's exponents at its cover: step i serves
    (end of step i - 1, end of step i], step 0 also s = 0, and R at a time is the
    factor there of its step times R at its chart's start.
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
    # a period whose drive, real symmetric, is even about a centre c is solved to T/2
    # on the drive shifted to c; x = s - c rounds, T - x is exact (Sterbenz)
    centre = _centre(cfg) if span < t_end else None
    fold = centre is not None
    c, cfg = centre if fold else (0.0, cfg)
    x = in_span - c
    solved = 0.5 * span if fold else span
    mirrored, folded = x < 0.0, x > solved
    solve_at = np.where(folded, span - x, np.abs(x))
    # the steps that get dense output hold one, R(c) among them
    samples = np.unique(np.append(solve_at, c) if c else solve_at).tolist()
    steps = 0

    def halt(t, vals):
        nonlocal steps
        steps += 1   # one call per accepted step
        if steps > MAX_SAMPLES:
            raise ValueError(f"the exponents to t = {solved!r} need more than {MAX_SAMPLES} "
                             f"Riccati steps (t = {t:.9g} reached); shorten t_end")
        mu_plus, mu_minus, mu = vals
        return max(abs(mu_plus), abs(mu_minus), abs(mu.imag)) > CHART_LIMIT

    # each chart's steps that serve a sample, and its last, copied out as it is
    # solved and the chart dropped, so that no unsampled step is held
    parts, counts = [], []
    start, first_step = 0.0, math.inf   # the first chart first tries its whole span
    while start < solved:
        try:
            chart = solve_mu(cfg, solved, tol, t_start=start, halt=halt, t_eval=samples,
                             first_step=first_step)
        except SingularityError as exc:
            chart = exc.partial
        if chart.t_final <= start:
            raise PropagationError(f"the chart at t = {start:.9g} blew up on its first step")
        kept = ~chart._steps[-1]
        kept[-1] = True
        parts.append([part[..., kept] for part in chart._steps])
        counts.append(np.count_nonzero(kept))
        start = chart.t_final
        first_step = float(chart.grid[-1] - chart.grid[-2])   # the chart's last step
        del chart
    table = [np.concatenate(part, axis=-1) for part in zip(*parts)]
    chart_of = np.repeat(np.arange(len(counts)), counts)
    ends = table[3][:, np.cumsum(counts) - 1].T   # each chart's exponents at its cover

    # composed after the solves: past some numpy kernels, this complex 2x2 `@`
    # among them, Python float arithmetic ran up to 4x slower (numpy 2.4 on a Xeon)
    # until another kind ran, so a product between two solves slowed the next one
    before = [np.eye(2, dtype=complex)]   # U at each chart's start, then U(solved)
    for mus in ends:
        before.append(chart_matrix(*mus) @ before[-1])
    before, u_span = np.array(before[:-1]), before[-1]
    if fold:
        u_span = u_span.T @ u_span
    if c:
        i, mus = _evaluate(np.array([c]), *table)
        r_c_t = _matmul2(chart_matrix(*mus), before[chart_of[i]])[0].T   # R(c)^T

    def u(block: slice) -> np.ndarray:
        # R at x, or at -x or T - x for a mirrored or folded sample: the factor at
        # its step, times U at its chart's start; then times R(T)^n and R(c)^T
        i, mus = _evaluate(solve_at[block], *table)
        u_s = _matmul2(chart_matrix(*mus), before[chart_of[i]])
        # a mirrored or folded sample: R = [[a, b], [c, d]] of det 1 gives R^-T =
        # [[d, -c], [-b, a]], and a folded one's R(T) joins the power as one more period
        back = mirrored[block] | folded[block]
        u_s[back] = u_s[back][:, ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
        u_s = _matmul2(u_s, _power(u_span, periods[block] + folded[block]))
        return _matmul2(u_s, r_c_t) if c else u_s

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
