"""Fringe fitting, phase-shift extraction, and kinematic geometric phases.

The fringe model is ``A * (1 - v * cos(a*theta + b))`` with amplitude A in
the units of the scan (probability or counts), visibility v, frequency a
(per radian of the plate angle, nominally 4), and phase b.  A topological
phase shows up as the displacement of a fitted pattern relative to the
reference pattern taken without the phase schedule applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateLoopError, FitError, InvalidDimensionError, LowVisibilityError
from .jones import TWO_PI, _wrap
from .qudit import BipartiteQuditState
from .sagnac import FringeScan
from .schedule import PhaseSchedule

MIN_VISIBILITY = 0.05
DECREMENT_TOL = 1e-10
DECREMENT_FLOOR = 1e-28  # of y.y, ~2e3 eps^2: exact data's RSS is rounding noise, ~eps^2 y.y
MAX_ITERATIONS = 200
MAX_HALVINGS = 8
NOMINAL_FREQUENCY = 4.0
MIN_POINTS = 8
MIN_SPAN = np.pi / 2.0  # one fringe period at the nominal frequency a = 4
# fit algorithm of fit JSON and summary.json; 5 = variable projection solved by a Cholesky
# factor in Python floats, phase in [0, 2*pi), one stop rule on the Gauss-Newton decrement
FIT_VERSION = 5


def fold_angle(x: float) -> float:
    """Fold an angle into the representative interval (-pi, pi]."""
    y = float(np.mod(x, TWO_PI))
    return y - TWO_PI if y > np.pi else y


@dataclass(frozen=True)
class FitResult:
    """Fitted fringe parameters with their Gauss-Newton covariance."""

    amplitude: float
    visibility: float
    frequency: float
    phase: float
    covariance: np.ndarray = field(repr=False)
    rss: float
    n_points: int
    iterations: int = 0
    termination: str = "converged"

    @property
    def b_defined(self) -> bool:
        """False only for a flat scan, whose fringe phase b is undefined."""
        return self.termination != "flat"

    @property
    def sigmas(self) -> np.ndarray:
        """1-sigma uncertainties of (amplitude, visibility, frequency, phase)."""
        return np.sqrt(np.diag(self.covariance).clip(0.0, None))

    @property
    def phase_sigma(self) -> float:
        """sigmas[3] alone: a negative variance gives 0, a NaN one NaN."""
        return math.sqrt(max(self.covariance[3, 3], 0.0))

    def to_json_dict(self) -> dict:
        deg = np.rad2deg
        sig = self.sigmas
        return {
            "degrees": {
                "amplitude": self.amplitude,
                "visibility": self.visibility,
                "frequency_per_degree": float(np.deg2rad(self.frequency)),
                "phase_deg": float(deg(self.phase)),
                "phase_sigma_deg": float(deg(sig[3])),
            },
            "radians": {
                "amplitude": self.amplitude,
                "visibility": self.visibility,
                "frequency": self.frequency,
                "phase": self.phase,
                "sigma": sig.tolist(),
                "covariance": self.covariance.tolist(),
                "rss": self.rss,
            },
            "n_points": self.n_points,
            "b_defined": self.b_defined,
            "fit_version": FIT_VERSION,
            "iterations": self.iterations,
            "termination": self.termination,
        }


def _model(theta: np.ndarray, p: np.ndarray) -> np.ndarray:
    amp, vis, freq, phase = p
    return amp * (1.0 - vis * np.cos(freq * theta + phase))


def _cholesky(normal: list) -> tuple:
    """L in N = L L^T by rows (l00, l10, l11, ..., l33), then z = L^-1 b, for the rows [N | b].

    Column by column in Python floats, from N's upper triangle, with b as a fifth column;
    a pivot that is not positive raises ValueError or ZeroDivisionError, a NaN one gives NaN.
    """
    ((n00, n01, n02, n03, b0), (_, n11, n12, n13, b1),
     (_, _, n22, n23, b2), (_, _, _, n33, b3)) = normal
    l00 = math.sqrt(n00)
    l10, l20, l30, z0 = n01 / l00, n02 / l00, n03 / l00, b0 / l00
    l11 = math.sqrt(n11 - l10 * l10)
    l21, l31, z1 = (n12 - l10 * l20) / l11, (n13 - l10 * l30) / l11, (b1 - l10 * z0) / l11
    l22 = math.sqrt(n22 - l20 * l20 - l21 * l21)
    l32, z2 = (n23 - l20 * l30 - l21 * l31) / l22, (b2 - l20 * z0 - l21 * z1) / l22
    l33 = math.sqrt(n33 - l30 * l30 - l31 * l31 - l32 * l32)
    z3 = (b3 - l30 * z0 - l31 * z1 - l32 * z2) / l33
    return l00, l10, l11, l20, l21, l22, l30, l31, l32, l33, z0, z1, z2, z3


def _solve(normal: list) -> tuple[float, float, float, float, float]:
    """s in N s = b by back substitution and b.s = z.z, or NaN where N is not positive definite."""
    try:
        l00, l10, l11, l20, l21, l22, l30, l31, l32, l33, z0, z1, z2, z3 = _cholesky(normal)
    except (ValueError, ZeroDivisionError):
        return (math.nan,) * 5
    s3 = z3 / l33
    s2 = (z2 - l32 * s3) / l22
    s1 = (z1 - l21 * s2 - l31 * s3) / l11
    return ((z0 - l10 * s1 - l20 * s2 - l30 * s3) / l00, s1, s2, s3,
            z0 * z0 + z1 * z1 + z2 * z2 + z3 * z3)


def _inverse_factor(normal: list) -> tuple:
    """The rows of W = L^-1 (w00, w10, w11, ..., w33), so N^-1 = W^T W; raises as _cholesky."""
    l00, l10, l11, l20, l21, l22, l30, l31, l32, l33 = _cholesky(normal)[:10]
    w00, w11, w22, w33 = 1.0 / l00, 1.0 / l11, 1.0 / l22, 1.0 / l33
    w10, w21, w32 = -l10 * w00 / l11, -l21 * w11 / l22, -l32 * w22 / l33
    w20, w31 = -(l20 * w00 + l21 * w10) / l22, -(l31 * w11 + l32 * w21) / l33
    w30 = -(l30 * w00 + l31 * w10 + l32 * w20) / l33
    return w00, w10, w11, w20, w21, w22, w30, w31, w32, w33


def _covariance(normal: list, amp: float, vis: float, phase: float, sign: float) -> np.ndarray:
    """G N^-1 G^T = (G W^T)(G W^T)^T for G = d(A, v, a, b) / d(c0, c1, c2, a), the inverse of
    the chain rule's matrix, with rows e0, (-v, -cos b, sign sin b, 0) / A, sign e3 and
    (0, sin b, sign cos b, 0) / (A v); A = 0 or v = 0 raises ZeroDivisionError."""
    w00, w10, w11, w20, w21, w22, w30, w31, w32, w33 = _inverse_factor(normal)
    cb, sb = math.cos(phase), math.sin(phase)
    g0, g1, g2 = -vis / amp, -cb / amp, sign * sb / amp
    h1, h2 = sb / (amp * vis), sign * cb / (amp * vis)
    gw = np.array((w00, w10, w20, w30, g0 * w00, g0 * w10 + g1 * w11,
                   g0 * w20 + g1 * w21 + g2 * w22, g0 * w30 + g1 * w31 + g2 * w32,
                   0.0, 0.0, 0.0, sign * w33,
                   0.0, h1 * w11, h1 * w21 + h2 * w22, h1 * w31 + h2 * w32)).reshape(4, 4)
    return gw @ gw.T


def fit_fringe(scan: FringeScan) -> FitResult:
    """Variable-projection Gauss-Newton fit of the four-parameter fringe model.

    With the frequency a fixed the model is linear: c0 + c1 cos(a theta) +
    c2 sin(a theta), with (c0, c1, c2) = (A, -A v cos b, A v sin b) (Golub &
    Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).  The start is that linear
    least-squares solve at a = 4, by its normal equations, which leaves no
    wrong phase basin to fall into; angles that resolve no fringe there raise
    ``FitError``.  Gauss-Newton in (c0, c1, c2, a) then refines all four, halving a
    step that does not lower the residual sum of squares (RSS) at most ``MAX_HALVINGS``
    times; each solve is a Cholesky factor N = L L^T in Python floats.  Before each step
    the loop stops on a Gauss-Newton decrement z.z = r^T J N^-1 J^T r (z = L^-1 J^T r; the
    RSS a full step removes in the linear model; Dennis & Schnabel (1983), sec. 7.2) at
    most ``DECREMENT_TOL`` RSS + ``DECREMENT_FLOOR`` y.y ("converged": exact data stops at
    the linear start), on an N that is not positive definite or no halving that lowers the
    RSS ("stalled"), or after ``MAX_ITERATIONS`` steps ("max-iterations").  The
    covariance of (A, v, a, b) is G N^-1 G^T times RSS / (n - 4), G = d(A, v, a, b) /
    d(c0, c1, c2, a); a singular one (v = 0 or A = 0) raises ``FitError``.  Flat data
    short-circuits to v = 0 with the phase flagged undefined ("flat").
    """
    theta = scan.thetas
    y = scan.values.astype(float)
    n = y.size
    if n < MIN_POINTS:
        raise FitError(f"need at least {MIN_POINTS} points, got {n}")
    if float(theta[-1] - theta[0]) < MIN_SPAN:
        raise FitError(
            f"scan spans {theta[-1] - theta[0]:.3f} rad, need >= {MIN_SPAN:.3f} (one period)"
        )

    y_max, y_min = float(y.max()), float(y.min())
    if y_max - y_min <= 1e-12 * max(1.0, abs(y_max)):
        return FitResult(float(np.mean(y)), 0.0, NOMINAL_FREQUENCY, 0.0, np.zeros((4, 4)), 0.0,
                         n, termination="flat")

    # rows 0-4 hold 1, cos a theta, sin a theta, d model / d a and the residual at
    # (c0, c1, c2, a), so jt @ jr = J^T [J | r] is [J^T J | J^T r]; rows 5-6 are scratch,
    # and every view is made once; row 3 is 0 until the start is solved
    rows = np.empty((7, n))
    rows[0], rows[3], rows[4] = 1.0, 0.0, y
    _, cos, sin, slope, resid, model, scratch = rows
    jt, jr = rows[:4], rows[:5].T
    np.cos(np.multiply(NOMINAL_FREQUENCY, theta, out=model), out=cos)
    np.sin(model, out=sin)

    def linear(c0: float, c1: float, c2: float) -> np.ndarray:  # model = (c0 + c1 cos) + c2 sin
        np.add(c0, np.multiply(c1, cos, out=model), out=model)
        return np.add(model, np.multiply(c2, sin, out=scratch), out=model)

    def normal_at(c1: float, c2: float) -> list:  # slope = theta (c2 cos - c1 sin)
        np.subtract(np.multiply(c2, cos, out=model), np.multiply(c1, sin, out=scratch), out=model)
        np.multiply(theta, model, out=slope)
        return (jt @ jr).tolist()

    normal = (jt @ jr).tolist()
    (n00, n01, n02, _, _), (n10, n11, n12, _, _), (n20, n21, n22, _, _), row_a = normal
    det = (n00 * (n11 * n22 - n12 * n21) - n01 * (n10 * n22 - n12 * n20)
           + n02 * (n10 * n21 - n11 * n20))
    # scale-free: det / (trace / 3)^3 is 0 on a 90-degree grid, ~1e-31 on a 45-degree one
    # (4 theta on two points, sin 4 theta ~ 1e-16) and 0.1-0.9 where a fringe shows
    if det <= 1e-12 * ((n00 + n11 + n22) / 3.0) ** 3:
        raise FitError("the scan's angles resolve no fringe at a = 4")
    row_a[3] = 1.0  # a unit a-row holds a at 4, so this is the 3x3 solve in the 4x4 factor
    c0, c1, c2 = _solve(normal)[:3]
    np.subtract(resid, linear(c0, c1, c2), out=resid)
    rss, floor = float(resid @ resid), DECREMENT_FLOOR * float(y @ y)
    normal = normal_at(c1, c2)
    freq, termination = NOMINAL_FREQUENCY, "max-iterations"
    for iterations in range(MAX_ITERATIONS + 1):  # the steps taken so far
        s0, s1, s2, s3, decrement = _solve(normal)
        if not math.isfinite(decrement):  # a normal matrix not positive definite, or not finite
            termination = "stalled"
            break
        if decrement <= DECREMENT_TOL * rss + floor:
            termination = "converged"
            break
        if iterations == MAX_ITERATIONS:
            break
        h = 1.0  # the step's scale: halving a power of two rounds nothing
        for _ in range(MAX_HALVINGS):
            t0, t1, t2, t3 = c0 + h * s0, c1 + h * s1, c2 + h * s2, freq + h * s3
            np.cos(np.multiply(t3, theta, out=resid), out=cos)
            np.sin(resid, out=sin)
            np.subtract(y, linear(t0, t1, t2), out=resid)
            rss_try = float(resid @ resid)
            if rss_try < rss:
                break
            h *= 0.5
        else:  # the rows hold the last trial, but normal is still the optimum's
            termination = "stalled"
            break
        c0, c1, c2, freq, rss = t0, t1, t2, t3, rss_try
        normal = normal_at(c1, c2)

    amp, phase, sign = c0, math.atan2(c2, -c1), 1.0
    vis = math.hypot(c1, c2) / c0 if c0 else math.inf  # A = 0 leaves the matrix singular
    if vis < 0.0:
        vis, phase = -vis, phase + np.pi
    if freq < 0.0:  # the flip a -> -a also flips the sign of c2
        freq, phase, sign = -freq, -phase, -1.0
    vis, phase = min(max(vis, 0.0), 1.0), _wrap(phase)
    try:
        cov = _covariance(normal, amp, vis, phase, sign) * (rss / (n - 4))
    except (ValueError, ZeroDivisionError) as exc:
        raise FitError(f"singular covariance at v = {vis:.3g}, A = {amp:.3g}") from exc
    return FitResult(amp, vis, freq, phase, cov, rss, n, iterations, termination)


def phase_shift(fit_ref: FitResult, fit_op: FitResult) -> tuple[float, float]:
    """Fringe displacement of an operated pattern relative to the reference.

    Returns (shift, sigma) in radians with the shift in [0, 2*pi): the
    operated pattern C_ref(theta - shift/a) has fitted phase
    b_op = b_ref - shift, so the displacement is (b_ref - b_op) mod 2*pi.
    Both fits must have visibility above 0.05 (a flat fit has 0) and a positive
    amplitude: with A <= 0 the reported (A, v, b) do not describe the fitted
    curve, since the visibility is clamped to [0, 1].
    """
    for name, fit in (("reference", fit_ref), ("operated", fit_op)):
        if fit.visibility <= MIN_VISIBILITY:
            raise LowVisibilityError(
                f"{name} fit has visibility {fit.visibility:.3f} <= {MIN_VISIBILITY}"
            )
        if not fit.amplitude > 0.0:
            raise LowVisibilityError(f"{name} fit has amplitude {fit.amplitude:.3g} <= 0")
    shift = _wrap(fit_ref.phase - fit_op.phase)
    sigma = float(np.hypot(fit_ref.phase_sigma, fit_op.phase_sigma))
    return shift, sigma


@dataclass(frozen=True)
class KinematicPhases:
    """Total, dynamical, and geometric phase of a discretized state loop."""

    total: float
    dynamical: float
    geometric: float
    steps: int


def kinematic_phase(
    state: BipartiteQuditState, schedule: PhaseSchedule, steps: int
) -> KinematicPhases:
    """Geometric phase of the state path traced by a schedule.

    psi_j applies the schedule phases at t_j = j/steps to the signal photon.
    The operation is diagonal, so every overlap reduces to a row-weight sum
    <psi_j|psi_k> = sum_m w_m exp(i(xi_m(t_k) - xi_m(t_j))) with
    w_m = sum_n |alpha_mn|^2, and the whole grid is one schedule call.  The
    chain takes the phase increments xi(t_j+1) - xi(t_j) through one cos and
    one sin each, so its factors carry no rounding of the absolute phases.
    Chains the overlaps: total = arg<psi_0|psi_N>, dynamical =
    sum_j arg<psi_j|psi_j+1>, geometric = total - dynamical folded into
    (-pi, pi].  For even step counts the dynamical sum is
    Richardson-extrapolated against the nested half-resolution chain,
    cancelling the O(steps^-2) discretization bias; the extrapolated value
    is what is reported.
    """
    if steps < 100:
        raise FitError(f"steps must be >= 100, got {steps}")
    if schedule.dim != state.dim:
        raise InvalidDimensionError(
            f"schedule dimension {schedule.dim} != state dimension {state.dim}"
        )
    weights = np.sum(np.abs(state.amplitudes) ** 2, axis=1)
    xi = schedule(np.arange(steps + 1) / steps)
    closing = np.exp(1j * (xi[-1] - xi[0])) @ weights
    if abs(closing) < 1e-12:
        raise DegenerateLoopError("endpoints are orthogonal; total phase undefined")
    total = float(np.angle(closing))

    # One workspace holds the chain: the factors, the per-step overlaps and their
    # angles.  A temporary for each would be page-faulted back in on every call
    # once the allocator has returned the top of the heap to the system.
    work = np.empty(steps * (2 * state.dim + 3))
    head = 2 * steps * state.dim
    # row j holds exp(i(xi(t_j+1) - xi(t_j))), the factor of <psi_j|psi_j+1>:
    # the sin is taken before the cos overwrites the increment
    increments = work[:head].view(complex).reshape(steps, state.dim)
    overlaps = work[head:head + 2 * steps].view(complex)
    angles = work[head + 2 * steps:]
    np.subtract(xi[1:], xi[:-1], out=increments.real)
    np.sin(increments.real, out=increments.imag)
    np.cos(increments.real, out=increments.real)

    def chain(factors) -> float:
        """Sum of arg(factors @ weights); np.angle(z) is arctan2(z.imag, z.real)."""
        z = np.matmul(factors, weights, out=overlaps[:len(factors)])
        return float(np.sum(np.arctan2(z.imag, z.real, out=angles[:len(factors)])))

    dynamical = chain(increments)
    if steps % 2 == 0:
        # the nested half-resolution chain, from products of increment pairs,
        # written over the even rows once the fine chain is summed
        pairs = np.multiply(increments[0::2], increments[1::2], out=increments[0::2])
        dynamical = (4.0 * dynamical - chain(pairs)) / 3.0
    geometric = fold_angle(total - dynamical)
    return KinematicPhases(total, dynamical, geometric, steps)

