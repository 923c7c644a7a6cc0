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

The integrator is an explicit embedded Dormand-Prince 5(4) pair, stepped on
Python complex: with three components, array arithmetic would cost more in
per-call overhead than the arithmetic itself.  As in Hairer and Wanner's
DOPRI5, the step is written out stage by stage rather than looped over the
tableau, and since the right-hand side does not depend on mu, the stage
states carry only (mu_plus, mu_minus).  Dense output is
quintic Hermite interpolation from the exact first and second derivatives at
the accepted nodes (the cosine drives differentiate in closed form), so
interpolated values and ODE residuals stay at the accuracy of the accepted
steps at any tolerance.

Every solve starts at the step 100 * 1e-6, clipped to the window: from zero
exponents, the usual starting-step estimate (Hairer, Norsett & Wanner,
Solving ODEs I, II.4) returns that step unless the drive or its rate exceeds
about 1e18 tol, and for such a drive the step controller shrinks it.
"""

from __future__ import annotations

import math
from cmath import isfinite

import numpy as np

from .fields import FieldConfig, epsilon, epsilon_dot, j_coupling, j_coupling_dot

#: |mu_plus| beyond this is treated as a factorization singularity.
BLOWUP_THRESHOLD = 1e6

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = 0.2  # error exponent for the 5(4) pair


class SingularityError(RuntimeError):
    """The Riccati variable crossed the blow-up threshold at time ``t_star``.

    ``partial`` holds the trajectory accumulated up to the last sample below
    the threshold, so a caller can compose a restart from there.
    """

    def __init__(self, t_star: float, partial: "MuTrajectory"):
        super().__init__(f"mu_plus blow-up at t = {t_star:.9g} (factorization chart singular)")
        self.t_star = t_star
        self.partial = partial


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


def _mu_rhs2(t: float, y, f, cfg: FieldConfig) -> tuple[complex, complex, complex]:
    """Exact second derivatives along a solution (for the dense output)."""
    eps = epsilon(t, cfg)
    j = j_coupling(t, cfg)
    deps = epsilon_dot(t, cfg)
    dj = j_coupling_dot(t, cfg)
    mp, mm, _ = y
    dmp, dmm, dmu = f
    d2mu = deps + 2j * (dj * mp + j * dmp)
    return (-1j * (deps * mp + eps * dmp) + dj * (1.0 + mp * mp) + 2.0 * j * mp * dmp,
            dj + 1j * (d2mu * mm + dmu * dmm),
            d2mu)


def _quintic(s, h, v0, v1, d0, d1, g0, g1):
    """Quintic Hermite interpolant at s in [0, 1] of a step of length h, from the
    values v, first derivatives d and second derivatives g at its two ends.

    The weights are exactly (1, 0, ...) at s = 0 and put exactly 1 on v1 at
    s = 1, so a node returns its value.
    """
    s2, s3 = s * s, s * s * s
    s4, s5 = s3 * s, s3 * s * s
    return ((1 - 10 * s3 + 15 * s4 - 6 * s5) * v0 + (10 * s3 - 15 * s4 + 6 * s5) * v1
            + h * ((s - 6 * s3 + 8 * s4 - 3 * s5) * d0 + (-4 * s3 + 7 * s4 - 3 * s5) * d1)
            + h * h * (0.5 * (s2 - 3 * s3 + 3 * s4 - s5) * g0 + 0.5 * (s3 - 2 * s4 + s5) * g1))


class MuTrajectory:
    """Sampled exponent functions with dense evaluation between samples.

    ``grid``, ``mu_plus``, ``mu_minus`` and ``mu`` expose the accepted
    integrator samples; ``evaluate`` interpolates between them with quintic
    Hermite polynomials built from the exact node derivatives.  ``halted`` is
    True when integration was stopped early by a caller-supplied predicate
    rather than reaching the requested end time.
    """

    def __init__(self, grid: np.ndarray, values: np.ndarray, derivs: np.ndarray,
                 derivs2: np.ndarray, halted: bool = False):
        self.grid = np.asarray(grid, dtype=float)
        self._values = values.T    # (3, n): mu_plus, mu_minus, mu at the nodes
        self._derivs = derivs.T    # (3, n): first derivatives at the nodes
        self._derivs2 = derivs2.T  # (3, n): second derivatives at the nodes
        self.halted = halted
        for arr in (self.grid, self._values, self._derivs, self._derivs2):
            arr.setflags(write=False)

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

    def _interval(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Left node index, step length and position s in [0, 1] of each time."""
        t = np.asarray(t, dtype=float)
        inside = (self.t_start <= t) & (t <= self.t_final)
        if not np.all(inside):
            raise ValueError(f"time {float(t[~inside].flat[0])!r} outside solved range "
                             f"[{self.t_start!r}, {self.t_final!r}]")
        i = np.clip(np.searchsorted(self.grid, t, side="right") - 1, 0, len(self.grid) - 2)
        h = self.grid[i + 1] - self.grid[i]
        return i, h, (t - self.grid[i]) / h

    def evaluate(self, t) -> np.ndarray:
        """Interpolated (mu_plus, mu_minus, mu) at time ``t``, shape (3,) + shape(t);
        a time on a node returns its values."""
        if len(self.grid) == 1:
            t = np.asarray(t, dtype=float)
            if np.any(t != self.t_start):
                raise ValueError(f"time {t!r} outside solved range")
            return self._values[:, np.zeros(t.shape, dtype=int)]
        i, h, s = self._interval(t)
        return _quintic(s, h, self._values[:, i], self._values[:, i + 1], self._derivs[:, i],
                        self._derivs[:, i + 1], self._derivs2[:, i], self._derivs2[:, i + 1])


def _find_crossing(t0: float, h: float, y0, f0, g0, y1, f1, g1, threshold: float) -> float:
    # Bisection on |mu_plus| of the quintic interpolant inside the blown step.
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if abs(_quintic(mid, h, y0[0], y1[0], f0[0], f1[0], g0[0], g1[0])) >= threshold:
            hi = mid
        else:
            lo = mid
    return t0 + hi * h


def solve_mu(cfg: FieldConfig, t_end: float, tol: float, *,
             t_start: float = 0.0, halt=None) -> MuTrajectory:
    """Integrate the exponent-function system over [t_start, t_end].

    ``tol`` is used as both absolute and relative local error tolerance of the
    embedded 5(4) pair.  ``halt``, if given, is called as ``halt(t, (mu_plus,
    mu_minus, mu))`` at every accepted sample; returning True stops the
    integration there and the result is marked ``halted``.

    Raises :class:`SingularityError` when |mu_plus| crosses
    :data:`BLOWUP_THRESHOLD`; the exception carries the crossing time and the
    partial trajectory up to the last sample below the threshold.
    """
    for key, value in (("t_start", t_start), ("t_end", t_end)):
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")

    # Python scalars throughout the loop; nodes become arrays in MuTrajectory.
    t, t_end, tol = float(t_start), float(t_end), float(tol)
    y = (0j, 0j, 0j)
    f = mu_rhs(t, y, cfg)
    g = _mu_rhs2(t, y, f, cfg)
    ts = [t]
    ys = [y]
    fs = [f]
    gs = [g]

    h = 100 * 1e-6    # 9.999999999999999e-05, as the estimate computes it
    yp, ym, yu = y
    fp, fm, fu = f

    while t < t_end:
        # the floor holds the controller's step; a clipped step ends on t_end
        if h < 1e-14 * max(1.0, abs(t)):
            raise RuntimeError(f"step size collapsed at t = {t:.9g}")
        last = h >= t_end - t
        h = min(h, t_end - t)

        # One Dormand-Prince 5(4) step written out stage by stage.  Each stage
        # sum runs in tableau order from a 0j start, 0.0 * k2 included, so the
        # step is bit for bit that of a loop over the tableau.  mu_rhs does not
        # read mu, so the stage states pass 0j in its place.
        p2, m2, u2 = mu_rhs(t + 1 / 5 * h, (yp + h * (0j + 1 / 5 * fp),
                                            ym + h * (0j + 1 / 5 * fm), 0j), cfg)
        p3, m3, u3 = mu_rhs(t + 3 / 10 * h, (yp + h * (0j + 3 / 40 * fp + 9 / 40 * p2),
                                             ym + h * (0j + 3 / 40 * fm + 9 / 40 * m2), 0j), cfg)
        p4, m4, u4 = mu_rhs(t + 4 / 5 * h,
                            (yp + h * (0j + 44 / 45 * fp + -56 / 15 * p2 + 32 / 9 * p3),
                             ym + h * (0j + 44 / 45 * fm + -56 / 15 * m2 + 32 / 9 * m3), 0j), cfg)
        p5, m5, u5 = mu_rhs(t + 8 / 9 * h,
                            (yp + h * (0j + 19372 / 6561 * fp + -25360 / 2187 * p2
                                       + 64448 / 6561 * p3 + -212 / 729 * p4),
                             ym + h * (0j + 19372 / 6561 * fm + -25360 / 2187 * m2
                                       + 64448 / 6561 * m3 + -212 / 729 * m4), 0j), cfg)
        p6, m6, u6 = mu_rhs(t + h,
                            (yp + h * (0j + 9017 / 3168 * fp + -355 / 33 * p2 + 46732 / 5247 * p3
                                       + 49 / 176 * p4 + -5103 / 18656 * p5),
                             ym + h * (0j + 9017 / 3168 * fm + -355 / 33 * m2 + 46732 / 5247 * m3
                                       + 49 / 176 * m4 + -5103 / 18656 * m5), 0j), cfg)
        yp5 = yp + h * (0j + 35 / 384 * fp + 0.0 * p2 + 500 / 1113 * p3 + 125 / 192 * p4
                        + -2187 / 6784 * p5 + 11 / 84 * p6)
        ym5 = ym + h * (0j + 35 / 384 * fm + 0.0 * m2 + 500 / 1113 * m3 + 125 / 192 * m4
                        + -2187 / 6784 * m5 + 11 / 84 * m6)
        yu5 = yu + h * (0j + 35 / 384 * fu + 0.0 * u2 + 500 / 1113 * u3 + 125 / 192 * u4
                        + -2187 / 6784 * u5 + 11 / 84 * u6)
        y_new = (yp5, ym5, yu5)
        f_new = p7, m7, u7 = mu_rhs(t + h, y_new, cfg)
        yp4 = yp + h * (0j + 5179 / 57600 * fp + 0.0 * p2 + 7571 / 16695 * p3 + 393 / 640 * p4
                        + -92097 / 339200 * p5 + 187 / 2100 * p6 + 1 / 40 * p7)
        ym4 = ym + h * (0j + 5179 / 57600 * fm + 0.0 * m2 + 7571 / 16695 * m3 + 393 / 640 * m4
                        + -92097 / 339200 * m5 + 187 / 2100 * m6 + 1 / 40 * m7)
        yu4 = yu + h * (0j + 5179 / 57600 * fu + 0.0 * u2 + 7571 / 16695 * u3 + 393 / 640 * u4
                        + -92097 / 339200 * u5 + 187 / 2100 * u6 + 1 / 40 * u7)

        if not (isfinite(yp5) and isfinite(ym5) and isfinite(yu5)
                and isfinite(yp4) and isfinite(ym4) and isfinite(yu4)):
            h *= 0.25
            continue
        # rms of |y5 - y4| / (tol + tol max(|y|, |y5|)), summed left to right from 0
        err = math.sqrt((0 + (abs(yp5 - yp4) / (tol + tol * max(abs(yp), abs(yp5)))) ** 2
                         + (abs(ym5 - ym4) / (tol + tol * max(abs(ym), abs(ym5)))) ** 2
                         + (abs(yu5 - yu4) / (tol + tol * max(abs(yu), abs(yu5)))) ** 2) / 3.0)
        if err > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * err ** -_ORDER_EXP)
            continue

        t_new = t_end if last else t + h
        g_new = _mu_rhs2(t_new, y_new, f_new, cfg)
        if abs(y_new[0]) >= BLOWUP_THRESHOLD:
            t_star = _find_crossing(t, h, y, f, g, y_new, f_new, g_new, BLOWUP_THRESHOLD)
            raise SingularityError(t_star, _trajectory(ts, ys, fs, gs))

        t, y, f, g = t_new, y_new, f_new, g_new
        yp, ym, yu, fp, fm, fu = yp5, ym5, yu5, p7, m7, u7
        ts.append(t)
        ys.append(y)
        fs.append(f)
        gs.append(g)
        factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** -_ORDER_EXP)
        h *= max(_MIN_FACTOR, factor)

        if halt is not None and halt(t, y):
            return _trajectory(ts, ys, fs, gs, halted=True)

    return _trajectory(ts, ys, fs, gs)


def _trajectory(ts, ys, fs, gs, halted: bool = False) -> MuTrajectory:
    return MuTrajectory(np.array(ts), np.array(ys), np.array(fs), np.array(gs), halted=halted)
