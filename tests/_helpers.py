"""Shared assertion helpers for the test suite, a reference state chain, a
reference schedule evaluator, a reference Jones stack, a state writer, and an
entanglement measure.

``DiagonalPhaseOp``, ``apply_signal_phases`` and ``inner_product`` step a
state through a schedule one ``BipartiteQuditState`` at a time; the
kinematic-phase tests check the package's array code against this chain.
``stacked_phases`` evaluates a schedule's breakpoint table with ``np.interp``
one phase column at a time and joins the columns with ``np.stack``; the
schedule tests require the package's segment formula to match it bit for bit.
``closed_form_phases`` gives the built-in loops by their closed forms, the
physics reference that ``BUILTIN_TABLES`` must reproduce.
``i_concurrence`` measures how entangled a state is; the tests use it to
check that ``make_antisymmetric_mes`` gives maximally entangled states.
``random_state`` draws one normalized complex Gaussian state.
``Squared`` runs a schedule at t^2, a curved loop that no ``src`` schedule is.
``compose`` multiplies a stack of Jones matrices, the reference that
``phase_shifter`` must match bit for bit; ``state_json`` writes a state in
the {dim, real, imag} form that ``BipartiteQuditState.from_json_dict`` reads.
``FROZEN_PLATFORM`` names the platform the frozen outputs were taken on, and
``frozen_on()`` says it next to this run's ``platform_key()`` when one fails.
``NEGATIVE_AMPLITUDE_THETAS`` and ``NEGATIVE_AMPLITUDE_COUNTS`` pin a count
scan whose fit ends with a negative amplitude.  ``reference_fit`` is the
fringe fit in plain numpy (``lstsq`` start, ``solve`` steps, ``pinv``
covariance), which the package's fit must agree with scan by scan.
"""

import math
from dataclasses import dataclass

import numpy as np

from sagnacsim import (
    BipartiteQuditState,
    DimensionMismatchError,
    FitError,
    FitResult,
    FringeScan,
    PhaseSchedule,
)
from sagnacsim.analysis import (
    MAX_HALVINGS,
    MAX_ITERATIONS,
    MIN_POINTS,
    MIN_SPAN,
    NOMINAL_FREQUENCY,
    TWO_PI,
)

# The platform the frozen outputs were taken on (FROZEN_SHA256,
# FROZEN_SAMPLED_PATH_SHA256, FROZEN_KINEMATIC_SHA256 and FROZEN_STDOUT): their
# bytes move by about one ulp with the SIMD kernels numpy dispatches for float64
# sin, cos and exp.
FROZEN_PLATFORM = "numpy 2.4.6, float64 sin/cos/exp at X86_V4/X86_V4/X86_V4"


def platform_key() -> str:
    """The numpy version and the dispatch target of float64 sin, cos and exp (numpy >= 2.0)."""
    key = f"numpy {np.__version__}"
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0 does not say which kernels it runs
        return key
    info = opt_func_info(func_name="^(sin|cos|exp)$")  # "dd": float64 in, float64 out
    return f"{key}, float64 sin/cos/exp at " + "/".join(info[name]["dd"]["current"]
                                                       for name in ("sin", "cos", "exp"))


def frozen_on() -> str:
    """Message of a frozen-output assertion: the platform it was frozen on and this one."""
    return f"frozen on {FROZEN_PLATFORM}; this run is on {platform_key()}"


# Bernoulli counts on a short irregular grid, in radians, found by a seeded
# search: the fit ends with c0 = -0.198, so a raw visibility of -4.42
NEGATIVE_AMPLITUDE_THETAS = [0.0, 0.04, 0.27, 0.46, 1.43, 1.91, 1.95, 2.01, 2.14]
NEGATIVE_AMPLITUDE_COUNTS = [1, 0, 1, 0, 0, 0, 1, 0, 0]


def assert_equal_up_to_global_phase(a, b, tol=1e-12):
    """Assert two matrices (or vectors) agree up to one unit-modulus factor."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.shape == b.shape
    idx = np.unravel_index(int(np.argmax(np.abs(b))), b.shape)
    assert abs(b[idx]) > tol, "reference matrix is zero"
    scale = a[idx] / b[idx]
    assert abs(abs(scale) - 1.0) < tol, f"scale modulus {abs(scale)} != 1"
    assert np.max(np.abs(a - scale * b)) < tol


def circular_diff(x, y):
    """Smallest absolute angular difference between two angles."""
    d = np.mod(x - y, 2.0 * np.pi)
    return float(min(d, 2.0 * np.pi - d))


@dataclass(frozen=True)
class DiagonalPhaseOp:
    """Diagonal phase operation exp(i*xi_k) applied per slit mode."""

    dim: int
    phases: tuple[float, ...]

    def __post_init__(self) -> None:
        phases = tuple(float(p) for p in self.phases)
        if len(phases) != self.dim:
            raise DimensionMismatchError(
                f"expected {self.dim} phases, got {len(phases)}"
            )
        object.__setattr__(self, "phases", phases)


def apply_signal_phases(state: BipartiteQuditState, op: DiagonalPhaseOp) -> BipartiteQuditState:
    """Multiply row m of the amplitude matrix by exp(i*xi_m).

    Models the programmable mirror acting on the signal photon's slit modes;
    the idler index is untouched and the norm is preserved.
    """
    if op.dim != state.dim:
        raise DimensionMismatchError(
            f"operator dimension {op.dim} != state dimension {state.dim}"
        )
    factors = np.exp(1j * np.asarray(op.phases))
    return BipartiteQuditState(state.dim, factors[:, None] * state.amplitudes)


def inner_product(a: BipartiteQuditState, b: BipartiteQuditState) -> complex:
    """Hilbert-Schmidt inner product <a|b> = sum conj(a_mn) b_mn."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} != {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def i_concurrence(state: BipartiteQuditState) -> float:
    """I-concurrence sqrt(2 * (1 - Tr rho_signal^2)) of a pure state."""
    a = state.amplitudes
    rho = a @ a.conj().T  # reduced density matrix of the signal photon
    purity = float(np.sum(np.abs(rho) ** 2))
    return float(np.sqrt(max(0.0, 2.0 * (1.0 - purity))))


def compose(matrices) -> np.ndarray:
    """Compose a sequence of Jones matrices; the first entry acts first."""
    mats = list(matrices)
    if not mats:
        raise ValueError("compose() needs at least one matrix")
    out = np.eye(2, dtype=complex)
    for m in mats:
        out = np.asarray(m, dtype=complex) @ out
    return out


def random_state(rng: np.random.Generator, d: int) -> BipartiteQuditState:
    """Haar-like random pure state (normalized complex Gaussian matrix)."""
    amps = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    amps /= np.linalg.norm(amps)
    return BipartiteQuditState(d, amps)


class Squared(PhaseSchedule):
    """A schedule run at t^2: the same loop along a curved parameterization.

    A subclass with the inner schedule's dim and breakpoints, so only its
    phases tell it apart.
    """

    def __init__(self, inner: PhaseSchedule):
        super().__init__(inner.dim, *inner.breakpoints)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return super().__call__(t * t)


def state_json(state: BipartiteQuditState) -> dict:
    """{dim, real, imag} with plain nested lists, as a state file holds it."""
    return {
        "dim": state.dim,
        "real": state.amplitudes.real.tolist(),
        "imag": state.amplitudes.imag.tolist(),
    }


def stacked_phases(schedule, t) -> np.ndarray:
    """Phases of a ``PhaseSchedule`` at t by ``np.interp`` over its table, one array per
    column joined by ``np.stack``: shape (d,) for a scalar t, (..., d) else."""
    times, values = schedule.breakpoints
    return np.stack([np.interp(t, times, values[:, k]) for k in range(schedule.dim)], axis=-1)


def closed_form_phases(d: int, t) -> np.ndarray:
    """Phases of the built-in loop for d = 2, 3 or 4 at t, by its closed form.

    d = 2 is linear; d = 3 and d = 4 switch on a right-continuous step h at
    t = 0.5, where every h-term carries a factor 2t - 1 or 1 - 2t.
    """
    t = np.asarray(t, dtype=float)
    if d == 2:
        columns = [np.pi * t, -np.pi * t]
    else:
        h = (t >= 0.5).astype(float)
        if d == 3:
            columns = [
                2.0 * np.pi / 3.0 * (2.0 * t - (2.0 * t - 1.0) * h),
                -4.0 * np.pi / 3.0 * t,
                2.0 * np.pi / 3.0 * (2.0 * t - 1.0) * h,
            ]
        else:
            columns = [
                np.pi / 2.0 * t,
                -np.pi / 2.0 * t + np.pi * (1.0 - 2.0 * t) * h,
                3.0 * np.pi / 2.0 * t - np.pi * (1.0 - 2.0 * t) * h,
                -3.0 * np.pi / 2.0 * t,
            ]
    return np.stack(columns, axis=-1)


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


def reference_fit(scan: FringeScan) -> FitResult:
    """The fringe fit in plain numpy, the reference ``fit_fringe`` must agree with.

    Variable-projection Gauss-Newton fit of the four-parameter fringe model.

    With the frequency a fixed the model is linear: c0 + c1 cos(a theta) +
    c2 sin(a theta), with (c0, c1, c2) = (A, -A v cos b, A v sin b) (Golub &
    Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).  The start is that linear
    least-squares solve at a = 4 by ``lstsq``, which leaves no wrong phase basin
    to fall into.  Gauss-Newton in (c0, c1, c2, a) then refines all four by
    ``solve``, halving a step that does not lower the residual sum of squares
    (RSS) at most ``MAX_HALVINGS`` times.  Before each step the loop stops when
    the Gauss-Newton decrement step . J^T r is at most 1e-10 RSS + 1e-28 y.y
    ("converged"), when no halving lowers the RSS or the normal matrix is
    singular ("stalled"), or after ``MAX_ITERATIONS`` steps ("max-iterations").
    The covariance is the pseudo-inverse Gauss-Newton normal matrix of
    (A, v, a, b) at the optimum, from ``pinv`` of the Jacobian, scaled by the
    residual variance; flat data short-circuits to v = 0 with the phase
    flagged undefined ("flat").
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
    for iterations in range(MAX_ITERATIONS + 1):
        jac[:, 3] = theta * (p[2] * jac[:, 1] - p[1] * jac[:, 2])
        gradient = jac.T @ r
        try:
            step = np.linalg.solve(jac.T @ jac, gradient)
            decrement = float(step @ gradient)
        except np.linalg.LinAlgError:
            decrement = math.nan
        if not math.isfinite(decrement):  # a singular or non-finite normal matrix
            termination = "stalled"
            break
        if decrement <= 1e-10 * rss + 1e-28 * float(y @ y):
            termination = "converged"
            break
        if iterations == MAX_ITERATIONS:
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
        p, r, rss = p_try, r_try, rss_try
        jac[:, 1], jac[:, 2] = cos_try, sin_try

    c0, c1, c2, freq = p
    p = _canonicalize(np.array([c0, np.hypot(c1, c2) / c0, freq, np.arctan2(c2, -c1)]))
    # (J^T J)^+ = J^+ J^+T: forming J^T J squares cond(J), and the amplitude's column
    # scale puts cond(J^T J) near 1e14 on short high-count scans
    jac_pinv = np.linalg.pinv(_jacobian(theta, p))
    dof = max(n - 4, 1)
    resid_var = float(np.sum((y - _model(theta, p)) ** 2)) / dof
    cov = jac_pinv @ jac_pinv.T * resid_var
    return FitResult(float(p[0]), float(p[1]), float(p[2]), float(p[3]), cov, rss, n,
                     iterations=iterations, termination=termination)
