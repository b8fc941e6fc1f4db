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
from .qudit import BipartiteQuditState
from .sagnac import FringeScan
from .schedule import PhaseSchedule

TWO_PI = 2.0 * np.pi
MIN_VISIBILITY = 0.05
RSS_REL_TOL = 1e-10
STEP_REL_TOL = 1e-15
MAX_ITERATIONS = 200
MAX_HALVINGS = 8
NOMINAL_FREQUENCY = 4.0
MIN_POINTS = 8
MIN_SPAN = np.pi / 2.0  # one fringe period at the nominal frequency a = 4
# fit algorithm of the reports, in fit JSON and summary.json; 2 = variable projection
FIT_VERSION = 2


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
        return float(self.sigmas[3])

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


def _jacobian(theta: np.ndarray, p: np.ndarray) -> np.ndarray:
    amp, vis, freq, phase = p
    c = np.cos(freq * theta + phase)
    s = np.sin(freq * theta + phase)
    return np.column_stack([
        1.0 - vis * c,
        -amp * c,
        amp * vis * theta * s,
        amp * vis * s,
    ])


def _canonicalize(p: np.ndarray) -> np.ndarray:
    amp, vis, freq, phase = p
    if vis < 0.0:
        vis, phase = -vis, phase + np.pi
    if freq < 0.0:
        freq, phase = -freq, -phase
    vis = min(max(vis, 0.0), 1.0)
    return np.array([amp, vis, freq, np.mod(phase, TWO_PI)])


def fit_fringe(scan: FringeScan) -> FitResult:
    """Variable-projection Gauss-Newton fit of the four-parameter fringe model.

    With the frequency a fixed the model is linear: c0 + c1 cos(a theta) +
    c2 sin(a theta), with (c0, c1, c2) = (A, -A v cos b, A v sin b) (Golub &
    Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).  The start is that linear
    least-squares solve at a = 4, which leaves no wrong phase basin to fall
    into.  Gauss-Newton in (c0, c1, c2, a) then refines all four, halving a
    step that does not lower the residual sum of squares (RSS) at most
    ``MAX_HALVINGS`` times.  The loop stops when the relative RSS change drops
    below ``RSS_REL_TOL`` ("converged"), when the relative step reaches the
    floating-point floor ("step"), when no halving lowers the RSS or the
    normal matrix is singular ("stalled"), or after ``MAX_ITERATIONS``
    ("max-iterations").  The covariance is the inverse Gauss-Newton normal
    matrix of (A, v, a, b) at the optimum scaled by the residual variance;
    flat data short-circuits to v = 0 with the phase flagged undefined
    ("flat").
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
        cov = np.zeros((4, 4))
        return FitResult(float(np.mean(y)), 0.0, NOMINAL_FREQUENCY, 0.0, cov, 0.0, n,
                         termination="flat")

    # jac holds [1, cos a theta, sin a theta, d model / d a] at the current point
    jac = np.ones((n, 4))
    jac[:, 1], jac[:, 2] = np.cos(NOMINAL_FREQUENCY * theta), np.sin(NOMINAL_FREQUENCY * theta)
    basis = jac[:, :3]
    p = np.append(np.linalg.lstsq(basis, y, rcond=None)[0], NOMINAL_FREQUENCY)
    r = y - basis @ p[:3]
    rss = float(r @ r)
    termination = "max-iterations"
    for iterations in range(1, MAX_ITERATIONS + 1):
        jac[:, 3] = theta * (p[2] * jac[:, 1] - p[1] * jac[:, 2])
        try:
            step = np.linalg.solve(jac.T @ jac, jac.T @ r)
            step_sq = float(step @ step)
        except np.linalg.LinAlgError:
            step_sq = math.nan
        if not math.isfinite(step_sq):  # a singular or non-finite normal matrix
            termination = "stalled"
            break
        if step_sq <= STEP_REL_TOL**2 * float(p @ p):
            termination = "step"
            break
        for _ in range(MAX_HALVINGS):
            p_try = p + step
            cos_try, sin_try = np.cos(p_try[3] * theta), np.sin(p_try[3] * theta)
            r_try = y - (p_try[0] + p_try[1] * cos_try + p_try[2] * sin_try)
            rss_try = float(r_try @ r_try)
            if rss_try < rss:
                break
            step *= 0.5
        else:
            termination = "stalled"
            break
        p, r, rss_prev, rss = p_try, r_try, rss, rss_try
        jac[:, 1], jac[:, 2] = cos_try, sin_try
        if (rss_prev - rss) / rss_prev < RSS_REL_TOL:
            termination = "converged"
            break

    c0, c1, c2, freq = p
    p = _canonicalize(np.array([c0, np.hypot(c1, c2) / c0, freq, np.arctan2(c2, -c1)]))
    jac = _jacobian(theta, p)
    dof = max(n - 4, 1)
    resid_var = float(np.sum((y - _model(theta, p)) ** 2)) / dof
    cov = np.linalg.pinv(jac.T @ jac) * resid_var
    return FitResult(float(p[0]), float(p[1]), float(p[2]), float(p[3]), cov, rss, n,
                     iterations=iterations, termination=termination)


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
    shift = float(np.mod(fit_ref.phase - fit_op.phase, TWO_PI))
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

    # row j holds exp(i(xi(t_j+1) - xi(t_j))), the factor of <psi_j|psi_j+1>,
    # built in this one buffer: the sin is taken before the cos overwrites the increment
    increments = np.empty((steps, state.dim), dtype=complex)
    np.subtract(xi[1:], xi[:-1], out=increments.real)
    np.sin(increments.real, out=increments.imag)
    np.cos(increments.real, out=increments.real)
    dynamical = float(np.sum(np.angle(increments @ weights)))
    if steps % 2 == 0:
        # the nested half-resolution chain, from products of increment pairs,
        # written over the even rows once the fine chain is summed
        pairs = np.multiply(increments[0::2], increments[1::2], out=increments[0::2])
        dyn_coarse = float(np.sum(np.angle(pairs @ weights)))
        dynamical = (4.0 * dynamical - dyn_coarse) / 3.0
    geometric = fold_angle(total - dynamical)
    return KinematicPhases(total, dynamical, geometric, steps)

