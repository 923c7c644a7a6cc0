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
serving (end of step i - 1, end of step i].  By the same cocycle a periodic drive
is solved over half its period only, folded about a centre where it has one; the
period route, _period_route, decides the span, the symmetry and the centre.
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
    the float array ``n`` and u in SU(2), with cos(theta) = tr(u)/2 and k = u - cos(theta) I;
    -u stands in for u when Re tr u < 0, so that theta stays near 0 rather than pi."""
    u = -u if u.trace().real < 0.0 else u
    cos = 0.5 * u.trace()
    k = u - cos * np.eye(2)
    # sin(theta)^2 = -det(k), which does not cancel near theta = 0 as 1 - cos^2 does
    sin = np.sqrt(-(k[0, 0] * k[0, 0] + k[0, 1] * k[1, 0]))
    n = np.asarray(n)[..., None, None]
    # on SU(2) cos and sin are real, and theta is their angle
    n_theta = n * np.arctan2(sin.real, cos.real)
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


def _period_route(cfg: FieldConfig, t_end: float
                  ) -> tuple[float, np.ndarray, float, FieldConfig] | None:
    """How a solve to ``t_end`` uses the drive's period: T/2, half the common period T
    of the two drives; the fixed SU(2) matrix S with h(t + T/2) = S h(t) S^-1; a centre
    c in [0, T/2]; and the drive shifted to c, h(c + x).  None for a static drive, for
    frequencies whose ratio is no fraction p/q with q <= 64 (in binary64), and when
    t_end <= T/2.  Over T/2 = q pi/|omega|, epsilon changes sign when p is odd and J
    when q is odd: S = i sigma_x flips epsilon (on sigma_z), i sigma_z flips J (on
    sigma_x), and i sigma_y flips both.  With Omega = 0 and delta != 0 the one cosine,
    cos(omega t + delta), is even about each t with omega t + delta = k pi: c =
    (-delta/omega) mod (pi/|omega|), and the shift, even in x, has delta = 0 and
    (-1)^k B.  Every other drive has c = 0 and is its own shift, so nothing is folded."""
    rate_a, rate_b = abs(cfg.Omega), abs(cfg.omega)
    if rate_b == 0.0:
        if rate_a == 0.0:
            return None
        p, q, half = 1, 0, math.pi / rate_a
    else:
        from fractions import Fraction  # imported here: it adds 4 ms to import trilevel

        ratio = rate_a / rate_b
        frac = Fraction(ratio).limit_denominator(64)
        if frac.numerator / frac.denominator != ratio:
            return None
        # Omega = (p/q) omega: T = 2 pi q / omega holds p periods of one drive, q of the other
        p, q = frac.numerator, frac.denominator
        half = math.pi * q / rate_b
    if t_end <= half:
        return None
    s = {(1, 0): [[0, 1j], [1j, 0]], (0, 1): [[1j, 0], [0, -1j]], (1, 1): [[0, 1], [-1, 0]]}
    c = 0.0
    if cfg.Omega == 0.0 and cfg.delta != 0.0:
        # -delta/omega = j pi/|omega| + c, so omega c + delta = k pi with k = -j sign(omega)
        j, c = divmod(-cfg.delta / cfg.omega, half)
        cfg = replace(cfg, B=-cfg.B if j % 2.0 else cfg.B, delta=0.0)
    return half, np.array(s[p % 2, q % 2], dtype=complex), c, cfg


def _propagator(cfg: FieldConfig, grid: np.ndarray, tol: float):
    """The solve step: U(t), the 2x2 propagator, as a function of a slice of
    ``grid``; it depends on the drive and ``tol`` alone.

    The exponents are solved on consecutive charts over one span: T/2 on the
    period route of _period_route, else the whole grid with S = I, c = 0 and m = 0.
    A sample at t = mT/2 + s is U(t) = S^m U(s) F^m, with F = S^-1 U(T/2) projected
    onto SU(2) before its power, and U(s) = R(x) R(c)^T at x = s - c, R the
    propagator of the drive shifted to c and R(x) = R(-x)^-T for x < 0; so R is
    solved over [0, max(c, T/2 - c)] only, and U(T/2) = R(T/2 - c) R(c)^T.
    A chart halts at its first node past CHART_LIMIT, ends at its last node below
    a blow-up, or ends where the solve ends: that last node is its cover, where
    the next chart starts from zero with its predecessor's last step as its first.
    A chart that blows up on its first step is a PropagationError.  One table
    joins, end to end, each chart's steps that serve a sample and its last step,
    whose end node is the chart's exponents at its cover: step i serves (end of
    step i - 1, end of step i], step 0 also s = 0, and R at a time is the factor
    there of its step times R at its chart's start.
    A solve whose charts take more than MAX_SAMPLES accepted steps in all is a
    ValueError, raised at the step past the cap: a drive with no common period
    is solved over the whole window, which could otherwise take hours and all
    of memory, in one chart when the drive is weak.
    """
    t_end = float(grid[-1])
    route = _period_route(cfg, t_end)
    span, s_half, c, cfg = route or (t_end, np.eye(2, dtype=complex), 0.0, cfg)
    m = np.floor(grid / span) if route else np.zeros_like(grid)
    # the drive shifted to c is solved on either side of it; x = s - c rounds
    x = np.clip(grid - m * span, 0.0, span) - c
    solved = max(c, span - c)
    mirrored, solve_at = x < 0.0, np.abs(x)
    # the steps that get dense output hold one, R(c) and R(T/2 - c) among them
    samples = np.unique(np.append(solve_at, (c, span - c)) if c else solve_at).tolist()
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
    before = [np.eye(2, dtype=complex)]   # R at each chart's start, then R(solved)
    for mus in ends:
        before.append(chart_matrix(*mus) @ before[-1])
    before, u_half = np.array(before[:-1]), before[-1]
    if c:
        i, mus = _evaluate(np.array([c, span - c]), *table)
        r_c, r_rest = _matmul2(chart_matrix(*mus), before[chart_of[i]])
        r_c_t, u_half = r_c.T, r_rest @ r_c.T
    # F = S^-1 U(T/2), S^-1 = -S, projected onto SU(2) as [[a, b], [-b*, a*]] with
    # |a|^2 + |b|^2 = 1; on the whole grid its power is I
    f = -s_half @ u_half
    a, b = 0.5 * (f[0, 0] + f[1, 1].conjugate()), 0.5 * (f[0, 1] - f[1, 0].conjugate())
    f = np.array([[a, b], [-b.conjugate(), a.conjugate()]]) / math.hypot(abs(a), abs(b))

    def u(block: slice) -> np.ndarray:
        # R at |x|, the factor at its step times R at its chart's start, then
        # R^-T for a mirrored sample, times R(c)^T, and S^m and F^m either side
        i, mus = _evaluate(solve_at[block], *table)
        u_s = _matmul2(chart_matrix(*mus), before[chart_of[i]])
        # R = [[a, b], [c, d]] of det 1 gives R^-T = [[d, -c], [-b, a]]
        back = mirrored[block]
        u_s[back] = u_s[back][:, ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
        if c:
            u_s = _matmul2(u_s, r_c_t)
        odd = m[block] % 2.0 == 1.0
        u_s[odd] = _matmul2(s_half, u_s[odd])   # S^m up to sign, as S^2 = -I
        return _matmul2(u_s, _power(f, m[block]))

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
