"""Randomized cross-checks between the independent computation routes.

Every check compares as ``not value <= tol``, so a NaN value fails it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import fit_fringe, fold_angle, kinematic_phase, phase_shift
from .jones import _wrap, phase_shifter, relative_phase
from .qudit import BipartiteQuditState, make_antisymmetric_mes
from .sagnac import (
    ExperimentConfig,
    _coincidence,
    circuit_oracle,
    coincidence_full,
    coincidence_mes,
    generate_scan,
)
from .schedule import BUILTIN_DIMS, builtin_schedule, check_su, expected_shift

ORACLE_TOL = 1e-12
KINEMATIC_STEPS = 2000
KINEMATIC_TOL = 1e-6
SHIFTER_POINTS = 100
# trials drawn and evaluated together, so memory does not grow with the trial count
BLOCK = 256


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _compare_blocks(name: str, trials: int, rng: np.random.Generator, diffs, describe,
                    dim: int | None = None) -> CheckResult:
    """Compare two routes on ``trials`` random trials, drawn ``BLOCK`` at a time.

    A block draws its trials' dimensions in one call, unless ``dim`` fixes
    them.  ``diffs(d, n)`` then draws the block's n trials of dimension d,
    for each d present in increasing order, and returns |route 1 - route 2|
    with the drawn arrays that ``describe(d, *row)`` names a trial by.  A set
    groups the trials, since ``np.unique`` would import ``numpy.ma`` and grow
    the peak memory.  The first failure in trial order ends the check.
    """
    worst = 0.0
    for start in range(0, trials, BLOCK):
        k = min(BLOCK, trials - start)
        dims = np.full(k, dim) if dim is not None else rng.integers(2, 7, size=k)
        values, drawn = np.empty(k), {}
        for d in sorted(set(dims.tolist())):
            rows = dims == d
            values[rows], drawn[d] = diffs(d, int(np.count_nonzero(rows)))
        for i, diff in enumerate(values.tolist()):
            if not diff <= ORACLE_TOL:
                d = int(dims[i])
                row = int(np.count_nonzero(dims[:i] == d))
                trial = describe(d, *(part[row] for part in drawn[d]))
                return CheckResult(name, False, f"trial {start + i}: {trial} |diff|={diff:.3e}")
            worst = max(worst, diff)
    return CheckResult(name, True, f"{trials} trials, max |diff| = {worst:.3e}")


def check_oracle_equivalence(
    trials: int, rng: np.random.Generator, state: BipartiteQuditState | None = None
) -> CheckResult:
    """Closed-form coincidence vs full circuit propagation on random inputs.

    A random state is a normalized complex Gaussian matrix.  The closed form
    takes one stacked call per dimension of a block; the oracle then runs
    trial by trial, each on its own validated state.
    """
    def diffs(d: int, n: int) -> tuple:
        if state is None:
            amps = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
            amps /= np.linalg.norm(amps, axis=(1, 2), keepdims=True)
            states = [BipartiteQuditState(d, a) for a in amps]
        else:
            amps, states = state.amplitudes, [state] * n
        xi = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=(n, d))
        theta, phi = rng.uniform(0.0, np.pi, size=n), rng.uniform(0.0, np.pi, size=n)
        oracle = [circuit_oracle(s, x, t, p)
                  for s, x, t, p in zip(states, xi, theta.tolist(), phi.tolist())]
        return np.abs(_coincidence(amps, xi, theta) - oracle), (xi, theta, phi)

    def describe(d, xi, theta, phi) -> str:
        return (f"d={d} theta={theta:.6f} phi={phi:.6f} "
                f"xi={np.array2string(xi, precision=6, max_line_width=np.inf)}")

    return _compare_blocks("oracle-equivalence", trials, rng, diffs, describe,
                           None if state is None else state.dim)


def check_mes_reduction(trials: int, rng: np.random.Generator) -> CheckResult:
    """General formula must reduce to the closed MES form on MES inputs.

    Both forms take one stacked call per dimension of a block.
    """
    def diffs(d: int, n: int) -> tuple:
        xi = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=(n, d))
        theta = rng.uniform(0.0, np.pi, size=n)
        full = coincidence_full(make_antisymmetric_mes(d), xi, theta)
        return np.abs(full - coincidence_mes(d, xi, theta)), (xi, theta)

    return _compare_blocks("mes-reduction", trials, rng, diffs,
                           lambda d, xi, theta: f"d={d} theta={theta:.6f}")


def check_su_schedules() -> CheckResult:
    """Built-in schedules stay traceless and end cyclic in sector n = 1."""
    for d in BUILTIN_DIMS:
        sched = builtin_schedule(d)
        if not check_su(sched):
            return CheckResult("su-schedules", False, f"d={d}: phase sum nonzero")
        if (n := expected_shift(sched)[1]) != 1:
            return CheckResult("su-schedules", False, f"d={d}: loop ends in sector n={n}, not 1")
    return CheckResult("su-schedules", True, f"dims {BUILTIN_DIMS}: traceless, cyclic at t=1")


def check_phase_shifter(rng: np.random.Generator) -> CheckResult:
    """Plate stack must imprint exactly 4*theta between V and H."""
    worst = 0.0
    for i in range(SHIFTER_POINTS):
        phi = rng.uniform(0.0, np.pi)
        theta = rng.uniform(0.0, np.pi)
        err = abs(fold_angle(relative_phase(phase_shifter(phi, theta)) - 4.0 * theta))
        if not err <= 1e-12:
            return CheckResult(
                "phase-shifter", False,
                f"point {i}: phi={phi:.6f} theta={theta:.6f} err={err:.3e}",
            )
        worst = max(worst, err)
    return CheckResult("phase-shifter", True, f"{SHIFTER_POINTS} points, max err = {worst:.3e}")


def check_kinematic_agreement() -> CheckResult:
    """Interferometric shift and kinematic geometric phase must coincide."""
    for d in BUILTIN_DIMS:
        cfg = ExperimentConfig(dim=d, schedule=builtin_schedule(d), contrast=1.0)
        fit_ref = fit_fringe(generate_scan(cfg, 0.0, mode="exact"))
        fit_op = fit_fringe(generate_scan(cfg, 1.0, mode="exact"))
        shift, _ = phase_shift(fit_ref, fit_op)
        kin = kinematic_phase(make_antisymmetric_mes(d), cfg.schedule, KINEMATIC_STEPS)
        geo = _wrap(kin.geometric)
        if not abs(fold_angle(shift - kin.geometric)) <= KINEMATIC_TOL:  # on the circle
            return CheckResult(
                "kinematic-agreement", False,
                f"d={d}: shift={shift:.9f} geometric={geo:.9f}",
            )
        if not abs(kin.dynamical) <= 1e-9:
            return CheckResult(
                "kinematic-agreement", False, f"d={d}: dynamical={kin.dynamical:.3e}"
            )
    return CheckResult(
        "kinematic-agreement", True,
        f"dims {BUILTIN_DIMS}: |shift - geometric| <= {KINEMATIC_TOL:g}",
    )


def run_verification(
    trials: int, seed: int, state: BipartiteQuditState | None = None
) -> list[CheckResult]:
    """Run the whole randomized suite; returns one result per check."""
    rng = np.random.default_rng(seed)
    return [
        check_oracle_equivalence(trials, rng, state),
        check_mes_reduction(trials, rng),
        check_su_schedules(),
        check_phase_shifter(rng),
        check_kinematic_agreement(),
    ]
