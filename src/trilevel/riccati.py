"""Exponent functions of the product-form propagator.

The propagator factorizes as exp(-i mu_plus B_plus) exp(-i mu_minus B_minus)
exp(-i mu B_z) times the scalar decay, with three complex exponent functions
obeying

    d(mu_plus)/dt  = -i eps(t) mu_plus + J(t) (1 + mu_plus^2)
    d(mu)/dt       =  eps(t) + 2i J(t) mu_plus
    d(mu_minus)/dt =  J(t) + i d(mu)/dt mu_minus

with all three starting from zero.  Only the first (a classical Riccati
equation) is nonlinear; the other two are quadratures driven by it.  The
Riccati variable can blow up in finite time; this is a coordinate failure of
the factorization, not a physical divergence (compare tan(J0 t) for constant
coupling), and is reported as :class:`SingularityError` so the caller can
restart the factorization from a fresh reference point.

The integrator is the explicit embedded Runge-Kutta pair DOP853 of Hairer,
Norsett & Wanner (Solving ODEs I, II.5-6), stepped on Python complex: with
three components, array arithmetic would cost more in per-call overhead than
the arithmetic itself.  As in their DOPRI codes, the step is written out
stage by stage rather than looped over the tableau, and since the
right-hand side does not depend on mu, the stage states carry only
(mu_plus, mu_minus).  Dense output is the pair's own interpolant of order 7,
from three extra stages per accepted step, built a block of steps at a time
in numpy.  Given the times a caller will evaluate, a solve builds it only
for the steps that hold one of them (Solving ODEs I, II.6).

Unless told otherwise a solve first tries its whole window as one step, so
that no constant of the solve has a unit of time.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from cmath import isfinite

import numpy as np

from .fields import FieldConfig, epsilon, j_coupling

#: |mu_plus| beyond this is treated as a factorization singularity.
BLOWUP_THRESHOLD = 1e6

#: Smallest accepted ``tol``: below it the error norms overflow, the direct
#: oracles' starting step divides by zero, or a solve runs for hours.
MIN_TOL = 1e-13

# The pair runs at this share of tol, as both its absolute and its relative
# tolerance.  DOP853's error estimate is sharp, where the Dormand-Prince 5(4)
# pair it replaced, stepping on its 5th-order solution, was 10-20x more
# accurate than its tol.  Measured at shares 1.0 and 0.1: figures max_err
# 5.0e-10 and 4.9e-11 (7.39e-9 with the 5(4) pair); long-horizon max_err
# 3.74e-9 and 3.10e-10 (3.68e-10); fig3's residuals over [0, 30] at tol 1e-6,
# 1e-8 and 1e-10 in tol units 36, 56 and 111 (over the bound of 100) and 3.7,
# 8.1 and 19.4; figures steps 1,389 and 1,778 (5,988).
_TOL_SHARE = 0.1

# scipy.integrate's DOP853 step-control constants.  oracle.solve_ivp controls the step as
# scipy does; solve_mu accepts err == 1 where scipy needs err < 1, and lets the step grow
# on the step accepted right after a rejection, where scipy caps that factor at 1.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0   # the embedded error estimate is of order 7

# Accepted steps whose dense output is built in one numpy block.
_DENSE_BLOCK = 256

# The DOP853 coefficients of both solvers, solve_mu and trilevel.oracle.solve_ivp,
# pinned bit for bit to scipy.integrate.DOP853 by a test: stage times _C and
# stage weights _A (row s weighs stages 0 .. s - 1) of the 12 stages; solution
# weights _B; error rows _E3 and _E5, over the 12 stages and the derivative at
# the new point (stage 12); stage times _C_EXTRA and weights _A_EXTRA of the
# three dense-output stages 13 .. 15; and _D, which forms the interpolant's four
# highest coefficients from stages 0 .. 15.
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
      0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
      0.8571428571428571, 1.0)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
)
_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
      -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
      0.04471061572777259)
_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
       -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
       0.02265179219836082, 0.0)
_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
       1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
       -0.022355307863886294, 0.0)
_C_EXTRA = (0.1, 0.2, 0.7777777777777778)
_A_EXTRA = (
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)

# The stages that _D weighs: 0 and 5 .. 15.  Each accepted step of either
# stepper keeps these until its block's dense output is built.
_DENSE_STAGES = (0, *range(5, 16))
_D_USED = np.array(_D)[:, _DENSE_STAGES, None, None]


class SingularityError(RuntimeError):
    """The Riccati variable crossed the blow-up threshold at time ``t_star``.

    ``partial`` holds the trajectory accumulated up to the last sample below
    the threshold, so a caller can compose a restart from there.
    """

    def __init__(self, t_star: float, partial: "MuTrajectory"):
        super().__init__(f"mu_plus blow-up at t = {t_star:.9g} (factorization chart singular)")
        self.t_star = t_star
        self.partial = partial


def check_tol(tol: float) -> None:
    """A ValueError that names ``tol`` unless it is finite and at least MIN_TOL."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if tol < MIN_TOL:
        raise ValueError(f"tol must be at least {MIN_TOL!r}, got {tol!r}")


def mu_rhs(t: float, y, cfg: FieldConfig) -> tuple[complex, complex, complex]:
    """Right-hand side of the coupled exponent-function system.

    ``y`` is (mu_plus, mu_minus, mu); the derivatives come back as a tuple.
    The system does not depend on mu, so ``y[2]`` is never read: the stepper
    passes 0j in its place at the inner stages.
    """
    eps = epsilon(t, cfg)
    j = j_coupling(t, cfg)
    mp, mm, _ = y
    dmu = eps + 2j * j * mp
    return (-1j * eps * mp + j * (1.0 + mp * mp), j + 1j * dmu * mm, dmu)


def _interpolant(x, y0, y1, f):
    """DOP853's dense output at x in [0, 1] of a step from y0 to y1, with f its
    coefficients F_1 .. F_6: y0 + x (F_0 + (1 - x) (F_1 + x (F_2 + ... x F_6))),
    F_0 = y1 - y0, with the part in F_0 written (1 - x) y0 + x y1, so that x = 0
    returns y0 and x = 1 returns y1."""
    r = f[5]
    for k in (4, 3, 2, 1, 0):
        r = f[k] + (x if k % 2 == 0 else 1 - x) * r
    return (1 - x) * y0 + x * y1 + x * (1 - x) * r


def _dense(steps: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Coefficients F_1 .. F_6, shape (m, 6, n), of the dense output of m steps
    with step sizes ``h`` (m,) and ``steps`` (m, 14, n): each step's start and
    end nodes, then its stages of _DENSE_STAGES.

    They are scipy's: F_1 = h K_0 - dy, F_2 = 2 dy - h (K_12 + K_0) and
    F_3 .. F_6 = h (D @ K), dy the step's change.  The real and imaginary parts
    are formed apart, one elementwise operation at a time and D's sums in
    column order from 0, so a step's bits do not depend on its block.
    """
    sf, hh = steps.view(float), h[:, None]
    kf = sf[:, 2:]
    dy = sf[:, 1] - sf[:, 0]
    f = np.empty((len(h), 6, sf.shape[-1]))
    f[:, 0] = hh * kf[:, 0] - dy
    f[:, 1] = 2.0 * dy - hh * (kf[:, 8] + kf[:, 0])
    acc = np.zeros((4, *dy.shape))
    for j in range(len(_DENSE_STAGES)):
        acc += _D_USED[:, j] * kf[:, j]
    acc *= hh
    f[:, 2:] = acc.transpose(1, 0, 2)
    return f.view(complex)


class MuTrajectory:
    """Sampled exponent functions with dense evaluation between samples.

    ``grid``, ``mu_plus``, ``mu_minus`` and ``mu`` expose the accepted
    integrator samples; ``evaluate`` interpolates between them with DOP853's
    dense output of order 7.  ``dense_steps``, if given, flags the steps that
    have dense output (the others hold zero coefficients); by default every
    step has.  ``halted`` is True when integration was stopped early by a
    caller-supplied predicate rather than reaching the requested end time.
    """

    def __init__(self, grid: np.ndarray, values: np.ndarray, dense: np.ndarray,
                 halted: bool = False, dense_steps: np.ndarray | None = None):
        self.grid = np.asarray(grid, dtype=float)
        self._values = values.T                  # (3, n): mu_plus, mu_minus, mu at the nodes
        self._dense = dense.transpose(1, 2, 0)   # (6, 3, n - 1): F_1 .. F_6 of each step
        self.halted = halted
        for arr in (self.grid, self._values, self._dense):
            arr.setflags(write=False)
        bare = np.zeros(len(self.grid) - 1, dtype=bool) if dense_steps is None else ~dense_steps
        # the step table that _evaluate reads: views of the nodes, no copy
        self._steps = (self.grid[:-1], self.grid[1:], self._values[:, :-1], self._values[:, 1:],
                       self._dense, bare)

    @property
    def mu_plus(self) -> np.ndarray:
        return self._values[0]

    @property
    def mu_minus(self) -> np.ndarray:
        return self._values[1]

    @property
    def mu(self) -> np.ndarray:
        return self._values[2]

    @property
    def t_start(self) -> float:
        return float(self.grid[0])

    @property
    def t_final(self) -> float:
        return float(self.grid[-1])

    def evaluate(self, t) -> np.ndarray:
        """Interpolated (mu_plus, mu_minus, mu) at time ``t``, shape (3,) + shape(t), by
        _evaluate; a time outside [t_start, t_final] is a ValueError."""
        t = np.asarray(t, dtype=float)
        inside = (self.t_start <= t) & (t <= self.t_final)
        if not np.all(inside):
            raise ValueError(f"time {float(t[~inside].flat[0])!r} outside solved range "
                             f"[{self.t_start!r}, {self.t_final!r}]")
        if len(self.grid) == 1:
            return self._values[:, np.zeros(t.shape, dtype=int)]
        return _evaluate(t, *self._steps)[1]


def _evaluate(t: np.ndarray, starts, ends, y0, y1, dense, bare) -> tuple[np.ndarray, np.ndarray]:
    """The step i of each time of ``t`` in a table of steps (their starts, ends, values at
    both, coefficients F_1 .. F_6 as one (6, components, steps) array, and whether each
    lacks dense output), and the interpolated (mu_plus, mu_minus, mu) there, shape
    (3,) + shape(t).  Step i serves (end of step i - 1, end of step i], and step 0 also
    its start.  A time inside a step without dense output is a ValueError."""
    i = np.searchsorted(ends, t)
    x = (t - starts[i]) / (ends[i] - starts[i])
    inner = bare[i] & (0.0 < x) & (x < 1.0)
    if np.any(inner):
        raise ValueError(f"time {float(t[inner].flat[0])!r} inside a step solved "
                         f"without dense output")
    return i, _interpolant(x, y0[:, i], y1[:, i], dense[..., i])


def _find_crossing(t0: float, h: float, y0: complex, y1: complex, f, threshold: float) -> float:
    # Bisection on |mu_plus| of the interpolant inside the blown step.
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if abs(_interpolant(mid, y0, y1, f)) >= threshold:
            hi = mid
        else:
            lo = mid
    return t0 + hi * h


def solve_mu(cfg: FieldConfig, t_end: float, tol: float, *, t_start: float = 0.0,
             halt=None, t_eval=None, first_step: float = math.inf) -> MuTrajectory:
    """Integrate the exponent-function system over [t_start, t_end].

    The pair runs at a tenth of ``tol`` as both its absolute and its relative
    local error tolerance; ``tol`` below MIN_TOL is a ValueError.  ``halt``, if
    given, is called as ``halt(t, (mu_plus, mu_minus, mu))`` at every accepted
    sample; returning True stops the integration there and the result is
    marked ``halted``.  The first attempted step is ``first_step``, by default
    the whole window, clipped to the window.

    ``t_eval``, if given, is a sorted sequence of the times the caller will
    evaluate: only an accepted step whose closed interval holds one of them
    gets dense output, and the result evaluates the others only at their
    nodes.  By default every step gets dense output.

    Raises :class:`SingularityError` when |mu_plus| crosses
    :data:`BLOWUP_THRESHOLD`; the exception carries the crossing time and the
    partial trajectory up to the last sample below the threshold.
    """
    for key, value in (("t_start", t_start), ("t_end", t_end)):
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
    if not first_step > 0:
        raise ValueError(f"first_step must be > 0, got {first_step!r}")
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    check_tol(tol)

    # The tableau's nonzero entries as locals; "_" takes its zeros.
    _, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = _C
    (_, (a1_0,), (a2_0, a2_1), (a3_0, _, a3_2), (a4_0, _, a4_2, a4_3),
     (a5_0, _, _, a5_3, a5_4), (a6_0, _, _, a6_3, a6_4, a6_5),
     (a7_0, _, _, a7_3, a7_4, a7_5, a7_6), (a8_0, _, _, a8_3, a8_4, a8_5, a8_6, a8_7),
     (a9_0, _, _, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8),
     (a10_0, _, _, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_0, _, _, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10)) = _A
    b0, _, _, _, _, b5, b6, b7, b8, b9, b10, b11 = _B
    e3_0, _, _, _, _, e3_5, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11, _ = _E3
    e5_0, _, _, _, _, e5_5, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11, _ = _E5
    c13, c14, c15 = _C_EXTRA
    ((a13_0, _, _, _, _, _, a13_6, a13_7, a13_8, a13_9, a13_10, a13_11, a13_12),
     (a14_0, _, _, _, _, a14_5, a14_6, a14_7, _, _, a14_10, a14_11, a14_12, a14_13),
     (a15_0, _, _, _, _, a15_5, a15_6, a15_7, a15_8, _, _, _, a15_12, a15_13, a15_14)) = _A_EXTRA

    # Python scalars throughout the loop; nodes become arrays in MuTrajectory.
    t, t_end, tol = float(t_start), float(t_end), _TOL_SHARE * float(tol)
    yp = ym = yu = 0j
    fp, fm, fu = mu_rhs(t, (yp, ym, yu), cfg)
    ts, ys = [t], [(yp, ym, yu)]
    # the dense output so far in blocks, the steps that have it, and the steps
    # since the last block: their sizes, and their nodes and stages
    blocks, dense_steps, hs, stages = [], [], [], []
    # the first time of t_eval not before t; -inf when every step gets dense output
    k = 0 if t_eval is None else bisect_left(t_eval, t)
    pending = -math.inf if t_eval is None else t_eval[k] if k < len(t_eval) else math.inf

    def flush():
        if stages:
            blocks.append(_dense(np.array(stages).reshape(-1, 14, 3), np.array(hs)))
            hs.clear()
            stages.clear()

    def trajectory(halted=False):
        flush()
        dense = np.zeros((len(ts) - 1, 6, 3), dtype=complex)
        has_dense = np.zeros(len(ts) - 1, dtype=bool)
        if blocks:
            dense[dense_steps] = np.concatenate(blocks)
            has_dense[dense_steps] = True
        return MuTrajectory(np.array(ts), np.array(ys), dense, halted=halted,
                            dense_steps=has_dense)

    h = float(first_step)
    while t < t_end:
        # the floor holds the controller's step; a clipped step ends on t_end
        if h < 10.0 * math.ulp(t):
            raise RuntimeError(f"step size collapsed at t = {t:.9g}")
        last = h >= t_end - t
        h = min(h, t_end - t)

        # One DOP853 step written out stage by stage.  Each stage sum runs over
        # the tableau's nonzero weights in tableau order, so the step is bit
        # for bit that of a loop over the tableau that skips its zeros.  mu_rhs
        # does not read mu, so the stage states pass 0j in its place.
        p1, m1, _ = mu_rhs(t + c1 * h, (yp + h * (a1_0 * fp),
                                        ym + h * (a1_0 * fm), 0j), cfg)
        p2, m2, _ = mu_rhs(t + c2 * h, (yp + h * (a2_0 * fp + a2_1 * p1),
                                        ym + h * (a2_0 * fm + a2_1 * m1), 0j), cfg)
        p3, m3, _ = mu_rhs(t + c3 * h, (yp + h * (a3_0 * fp + a3_2 * p2),
                                        ym + h * (a3_0 * fm + a3_2 * m2), 0j), cfg)
        p4, m4, _ = mu_rhs(t + c4 * h, (yp + h * (a4_0 * fp + a4_2 * p2 + a4_3 * p3),
                                        ym + h * (a4_0 * fm + a4_2 * m2 + a4_3 * m3),
                                        0j), cfg)
        p5, m5, u5 = mu_rhs(t + c5 * h, (yp + h * (a5_0 * fp + a5_3 * p3 + a5_4 * p4),
                                         ym + h * (a5_0 * fm + a5_3 * m3 + a5_4 * m4),
                                         0j), cfg)
        p6, m6, u6 = mu_rhs(t + c6 * h,
                            (yp + h * (a6_0 * fp + a6_3 * p3 + a6_4 * p4 + a6_5 * p5),
                             ym + h * (a6_0 * fm + a6_3 * m3 + a6_4 * m4 + a6_5 * m5),
                             0j), cfg)
        p7, m7, u7 = mu_rhs(t + c7 * h,
                            (yp + h * (a7_0 * fp + a7_3 * p3 + a7_4 * p4 + a7_5 * p5
                                       + a7_6 * p6),
                             ym + h * (a7_0 * fm + a7_3 * m3 + a7_4 * m4 + a7_5 * m5
                                       + a7_6 * m6), 0j), cfg)
        p8, m8, u8 = mu_rhs(t + c8 * h,
                            (yp + h * (a8_0 * fp + a8_3 * p3 + a8_4 * p4 + a8_5 * p5
                                       + a8_6 * p6 + a8_7 * p7),
                             ym + h * (a8_0 * fm + a8_3 * m3 + a8_4 * m4 + a8_5 * m5
                                       + a8_6 * m6 + a8_7 * m7), 0j), cfg)
        p9, m9, u9 = mu_rhs(t + c9 * h,
                            (yp + h * (a9_0 * fp + a9_3 * p3 + a9_4 * p4 + a9_5 * p5
                                       + a9_6 * p6 + a9_7 * p7 + a9_8 * p8),
                             ym + h * (a9_0 * fm + a9_3 * m3 + a9_4 * m4 + a9_5 * m5
                                       + a9_6 * m6 + a9_7 * m7 + a9_8 * m8), 0j), cfg)
        p10, m10, u10 = mu_rhs(t + c10 * h,
                               (yp + h * (a10_0 * fp + a10_3 * p3 + a10_4 * p4
                                          + a10_5 * p5 + a10_6 * p6 + a10_7 * p7 + a10_8 * p8
                                          + a10_9 * p9),
                                ym + h * (a10_0 * fm + a10_3 * m3 + a10_4 * m4
                                          + a10_5 * m5 + a10_6 * m6 + a10_7 * m7 + a10_8 * m8
                                          + a10_9 * m9), 0j), cfg)
        p11, m11, u11 = mu_rhs(t + c11 * h,
                               (yp + h * (a11_0 * fp + a11_3 * p3 + a11_4 * p4
                                          + a11_5 * p5 + a11_6 * p6 + a11_7 * p7 + a11_8 * p8
                                          + a11_9 * p9 + a11_10 * p10),
                                ym + h * (a11_0 * fm + a11_3 * m3 + a11_4 * m4
                                          + a11_5 * m5 + a11_6 * m6 + a11_7 * m7 + a11_8 * m8
                                          + a11_9 * m9 + a11_10 * m10), 0j), cfg)
        yp_new = yp + h * (b0 * fp + b5 * p5 + b6 * p6 + b7 * p7 + b8 * p8 + b9 * p9
                           + b10 * p10 + b11 * p11)
        ym_new = ym + h * (b0 * fm + b5 * m5 + b6 * m6 + b7 * m7 + b8 * m8 + b9 * m9
                           + b10 * m10 + b11 * m11)
        yu_new = yu + h * (b0 * fu + b5 * u5 + b6 * u6 + b7 * u7 + b8 * u8 + b9 * u9
                           + b10 * u10 + b11 * u11)
        p12, m12, u12 = mu_rhs(t + h, (yp_new, ym_new, yu_new), cfg)

        if not (isfinite(yp_new) and isfinite(ym_new) and isfinite(yu_new)):
            h *= 0.25
            continue
        # scipy's error norm h e5 / sqrt((e5 + e3 / 100) 3), e5 and e3 the sums of
        # squares of |E5 @ K| and |E3 @ K| over scale = tol + tol max(|y|, |y_new|)
        sp = tol + tol * max(abs(yp), abs(yp_new))
        sm = tol + tol * max(abs(ym), abs(ym_new))
        su = tol + tol * max(abs(yu), abs(yu_new))
        w5p = abs(e5_0 * fp + e5_5 * p5 + e5_6 * p6 + e5_7 * p7 + e5_8 * p8
                  + e5_9 * p9 + e5_10 * p10 + e5_11 * p11) / sp
        w5m = abs(e5_0 * fm + e5_5 * m5 + e5_6 * m6 + e5_7 * m7 + e5_8 * m8
                  + e5_9 * m9 + e5_10 * m10 + e5_11 * m11) / sm
        w5u = abs(e5_0 * fu + e5_5 * u5 + e5_6 * u6 + e5_7 * u7 + e5_8 * u8
                  + e5_9 * u9 + e5_10 * u10 + e5_11 * u11) / su
        w3p = abs(e3_0 * fp + e3_5 * p5 + e3_6 * p6 + e3_7 * p7 + e3_8 * p8
                  + e3_9 * p9 + e3_10 * p10 + e3_11 * p11) / sp
        w3m = abs(e3_0 * fm + e3_5 * m5 + e3_6 * m6 + e3_7 * m7 + e3_8 * m8
                  + e3_9 * m9 + e3_10 * m10 + e3_11 * m11) / sm
        w3u = abs(e3_0 * fu + e3_5 * u5 + e3_6 * u6 + e3_7 * u7 + e3_8 * u8
                  + e3_9 * u9 + e3_10 * u10 + e3_11 * u11) / su
        e5 = w5p * w5p + w5m * w5m + w5u * w5u
        e3 = w3p * w3p + w3m * w3m + w3u * w3u
        err = 0.0 if e5 == 0.0 and e3 == 0.0 else h * e5 / math.sqrt((e5 + 0.01 * e3) * 3)
        if not err <= 1.0:   # nan too, from sums that overflowed
            h *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            continue

        t_new = t_end if last else t + h
        # The three dense-output stages, for a step that holds a time of t_eval
        # and for a blown step, whose crossing is found on its interpolant.
        if pending <= t_new or abs(yp_new) >= BLOWUP_THRESHOLD:
            p13, m13, u13 = mu_rhs(t + c13 * h,
                                   (yp + h * (a13_0 * fp + a13_6 * p6 + a13_7 * p7
                                              + a13_8 * p8 + a13_9 * p9 + a13_10 * p10
                                              + a13_11 * p11 + a13_12 * p12),
                                    ym + h * (a13_0 * fm + a13_6 * m6 + a13_7 * m7
                                              + a13_8 * m8 + a13_9 * m9 + a13_10 * m10
                                              + a13_11 * m11 + a13_12 * m12), 0j), cfg)
            p14, m14, u14 = mu_rhs(t + c14 * h,
                                   (yp + h * (a14_0 * fp + a14_5 * p5 + a14_6 * p6
                                              + a14_7 * p7 + a14_10 * p10 + a14_11 * p11
                                              + a14_12 * p12 + a14_13 * p13),
                                    ym + h * (a14_0 * fm + a14_5 * m5 + a14_6 * m6
                                              + a14_7 * m7 + a14_10 * m10 + a14_11 * m11
                                              + a14_12 * m12 + a14_13 * m13), 0j), cfg)
            p15, m15, u15 = mu_rhs(t + c15 * h,
                                   (yp + h * (a15_0 * fp + a15_5 * p5 + a15_6 * p6
                                              + a15_7 * p7 + a15_8 * p8 + a15_12 * p12
                                              + a15_13 * p13 + a15_14 * p14),
                                    ym + h * (a15_0 * fm + a15_5 * m5 + a15_6 * m6
                                              + a15_7 * m7 + a15_8 * m8 + a15_12 * m12
                                              + a15_13 * m13 + a15_14 * m14), 0j), cfg)
            # the step's nodes, then its stages of _DENSE_STAGES
            step = (yp, ym, yu, yp_new, ym_new, yu_new, fp, fm, fu, p5, m5, u5, p6, m6, u6,
                    p7, m7, u7, p8, m8, u8, p9, m9, u9, p10, m10, u10, p11, m11, u11,
                    p12, m12, u12, p13, m13, u13, p14, m14, u14, p15, m15, u15)
            if abs(yp_new) >= BLOWUP_THRESHOLD:
                f = _dense(np.array(step).reshape(1, 14, 3), np.array([h]))
                t_star = _find_crossing(t, h, yp, yp_new, f[0, :, 0].tolist(), BLOWUP_THRESHOLD)
                raise SingularityError(t_star, trajectory())
            dense_steps.append(len(ts) - 1)
            hs.append(h)
            stages.append(step)
            if len(stages) == _DENSE_BLOCK:
                flush()
            if t_eval is not None:
                # times before the new node are served; one on it is pending still
                k = bisect_left(t_eval, t_new, k)
                pending = t_eval[k] if k < len(t_eval) else math.inf

        t, yp, ym, yu, fp, fm, fu = t_new, yp_new, ym_new, yu_new, p12, m12, u12
        ts.append(t)
        ys.append((yp, ym, yu))
        h *= _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)

        if halt is not None and halt(t, (yp, ym, yu)):
            return trajectory(halted=True)

    return trajectory()
