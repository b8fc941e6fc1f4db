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


def random_state(rng: np.random.Generator, d: int) -> BipartiteQuditState:
    """Haar-like random pure state (normalized complex Gaussian matrix)."""
    amps = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    amps /= np.linalg.norm(amps)
    return BipartiteQuditState(d, amps)


def _compare_blocks(name: str, trials: int, draw, diffs, describe) -> CheckResult:
    """Compare two routes on ``trials`` random trials, drawn ``BLOCK`` at a time.

    ``draw()`` makes one trial, a tuple whose first item is its dimension d.
    ``diffs(d, batch)`` returns |route 1 - route 2| for a block's trials of
    dimension d, in order; ``describe(*trial)`` names a failing trial.  A set
    groups the trials, since ``np.unique`` would import ``numpy.ma`` and grow
    the peak memory.  The first failure in trial order ends the check.
    """
    worst = 0.0
    for start in range(0, trials, BLOCK):
        block = [draw() for _ in range(min(BLOCK, trials - start))]
        values = np.empty(len(block))
        for d in {trial[0] for trial in block}:
            rows = [i for i, trial in enumerate(block) if trial[0] == d]
            values[rows] = diffs(d, [block[i] for i in rows])
        for i, (trial, diff) in enumerate(zip(block, values.tolist()), start):
            if not diff <= ORACLE_TOL:
                return CheckResult(name, False, f"trial {i}: {describe(*trial)} |diff|={diff:.3e}")
            worst = max(worst, diff)
    return CheckResult(name, True, f"{trials} trials, max |diff| = {worst:.3e}")


def check_oracle_equivalence(
    trials: int, rng: np.random.Generator, state: BipartiteQuditState | None = None
) -> CheckResult:
    """Closed-form coincidence vs full circuit propagation on random inputs.

    The closed form takes one stacked call per dimension of a block; the
    oracle then runs trial by trial.
    """
    def draw() -> tuple:
        s = state if state is not None else random_state(rng, int(rng.integers(2, 7)))
        xi = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=s.dim)
        return s.dim, s, xi, rng.uniform(0.0, np.pi), rng.uniform(0.0, np.pi)

    def diffs(d: int, batch: list[tuple]) -> np.ndarray:
        _, states, xis, thetas, _ = zip(*batch)
        closed = _coincidence(np.array([s.amplitudes for s in states]), np.array(xis),
                              np.array(thetas))
        return np.abs(closed - [circuit_oracle(s, xi, theta, phi)
                                for _, s, xi, theta, phi in batch])

    def describe(d, s, xi, theta, phi) -> str:
        return (f"d={d} theta={theta:.6f} phi={phi:.6f} "
                f"xi={np.array2string(xi, precision=6, max_line_width=np.inf)}")

    return _compare_blocks("oracle-equivalence", trials, draw, diffs, describe)


def check_mes_reduction(trials: int, rng: np.random.Generator) -> CheckResult:
    """General formula must reduce to the closed MES form on MES inputs.

    Both forms take one stacked call per dimension of a block.
    """
    def draw() -> tuple:
        d = int(rng.integers(2, 7))
        return d, rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=d), rng.uniform(0.0, np.pi)

    def diffs(d: int, batch: list[tuple]) -> np.ndarray:
        _, xis, thetas = zip(*batch)
        xi, theta = np.array(xis), np.array(thetas)
        full = coincidence_full(make_antisymmetric_mes(d), xi, theta)
        return np.abs(full - coincidence_mes(d, xi, theta))

    return _compare_blocks("mes-reduction", trials, draw, diffs,
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
