"""Randomized cross-checks between the independent computation routes.

Every check compares as ``not value <= tol``, so a NaN value fails it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import fit_fringe, fold_angle, kinematic_phase, phase_shift
from .jones import phase_shifter, relative_phase
from .qudit import BipartiteQuditState, make_antisymmetric_mes
from .sagnac import (
    ExperimentConfig,
    _coincidence,
    circuit_oracle,
    coincidence_full,
    coincidence_mes,
    generate_scan,
)
from .schedule import BUILTIN_DIMS, builtin_schedule, check_su

ORACLE_TOL = 1e-12
KINEMATIC_STEPS = 2000
KINEMATIC_TOL = 1e-6
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


def _per_dim(dims: list[int], evaluate) -> list[float]:
    """``evaluate(d, rows)`` once per dimension in ``dims``; values in trial order.

    ``rows`` lists the positions of the trials of dimension ``d``, and
    ``evaluate`` returns one value per row.  A set groups the trials, since
    ``np.unique`` would import ``numpy.ma`` and grow the peak memory.
    """
    values = np.empty(len(dims))
    for d in set(dims):
        rows = [i for i, dim in enumerate(dims) if dim == d]
        values[rows] = evaluate(d, rows)
    return values.tolist()


def _stack(items: list, rows: list[int]) -> np.ndarray:
    return np.array([items[i] for i in rows])


def check_oracle_equivalence(
    trials: int, rng: np.random.Generator, state: BipartiteQuditState | None = None
) -> CheckResult:
    """Closed-form coincidence vs full circuit propagation on random inputs.

    Trials are drawn ``BLOCK`` at a time.  The closed form of a block takes
    one stacked call per dimension; the oracle then runs trial by trial, and
    the first failure ends the check.
    """
    def closed(d: int, rows: list[int]) -> np.ndarray:
        amplitudes = np.array([states[i].amplitudes for i in rows])
        return _coincidence(amplitudes, _stack(xis, rows), _stack(thetas, rows))

    worst = 0.0
    for start in range(0, trials, BLOCK):
        states, xis, thetas, phis = [], [], [], []
        for _ in range(min(BLOCK, trials - start)):
            d = state.dim if state is not None else int(rng.integers(2, 7))
            states.append(state if state is not None else random_state(rng, d))
            xis.append(rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=d))
            thetas.append(rng.uniform(0.0, np.pi))
            phis.append(rng.uniform(0.0, np.pi))
        values = _per_dim([s.dim for s in states], closed)
        for i, (s, xi, theta, phi, c) in enumerate(zip(states, xis, thetas, phis, values), start):
            diff = abs(c - circuit_oracle(s, xi, theta, phi))
            if not diff <= ORACLE_TOL:
                return CheckResult(
                    "oracle-equivalence", False,
                    f"trial {i}: d={s.dim} theta={theta:.6f} phi={phi:.6f} "
                    f"xi={np.array2string(xi, precision=6, max_line_width=np.inf)} "
                    f"|diff|={diff:.3e}",
                )
            worst = max(worst, diff)
    return CheckResult(
        "oracle-equivalence", True, f"{trials} trials, max |diff| = {worst:.3e}"
    )


def check_mes_reduction(trials: int, rng: np.random.Generator) -> CheckResult:
    """General formula must reduce to the closed MES form on MES inputs.

    Trials are drawn ``BLOCK`` at a time, and both forms of a block take one
    stacked call per dimension.
    """
    mes = {d: make_antisymmetric_mes(d) for d in range(2, 7)}

    def diffs(d: int, rows: list[int]) -> np.ndarray:
        xi, theta = _stack(xis, rows), _stack(thetas, rows)
        return np.abs(coincidence_full(mes[d], xi, theta) - coincidence_mes(d, xi, theta))

    worst = 0.0
    for start in range(0, trials, BLOCK):
        dims, xis, thetas = [], [], []
        for _ in range(min(BLOCK, trials - start)):
            dims.append(int(rng.integers(2, 7)))
            xis.append(rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=dims[-1]))
            thetas.append(rng.uniform(0.0, np.pi))
        for i, (d, theta, diff) in enumerate(zip(dims, thetas, _per_dim(dims, diffs)), start):
            if not diff <= ORACLE_TOL:
                return CheckResult(
                    "mes-reduction", False,
                    f"trial {i}: d={d} theta={theta:.6f} |diff|={diff:.3e}",
                )
            worst = max(worst, diff)
    return CheckResult("mes-reduction", True, f"{trials} trials, max |diff| = {worst:.3e}")


def check_su_schedules() -> CheckResult:
    """Built-in schedules stay traceless and end congruent to 2*pi/d."""
    for d in BUILTIN_DIMS:
        sched = builtin_schedule(d)
        if not check_su(sched, 1001):
            return CheckResult("su-schedules", False, f"d={d}: phase sum nonzero")
        final = sched(1.0)
        for k, xi_k in enumerate(final):
            err = abs(fold_angle(xi_k - 2.0 * np.pi / d))
            if not err <= 1e-12:
                return CheckResult(
                    "su-schedules", False,
                    f"d={d}: xi_{k+1}(1) not congruent to 2*pi/{d} (err {err:.3e})",
                )
    return CheckResult("su-schedules", True, f"dims {BUILTIN_DIMS}: traceless, cyclic at t=1")


def check_phase_shifter(rng: np.random.Generator, points: int = 100) -> CheckResult:
    """Plate stack must imprint exactly 4*theta between V and H."""
    worst = 0.0
    for i in range(points):
        phi = rng.uniform(0.0, np.pi)
        theta = rng.uniform(0.0, np.pi)
        err = abs(fold_angle(relative_phase(phase_shifter(phi, theta)) - 4.0 * theta))
        if not err <= 1e-12:
            return CheckResult(
                "phase-shifter", False,
                f"point {i}: phi={phi:.6f} theta={theta:.6f} err={err:.3e}",
            )
        worst = max(worst, err)
    return CheckResult("phase-shifter", True, f"{points} points, max err = {worst:.3e}")


def check_kinematic_agreement() -> CheckResult:
    """Interferometric shift and kinematic geometric phase must coincide."""
    for d in BUILTIN_DIMS:
        cfg = ExperimentConfig(dim=d, schedule=builtin_schedule(d), contrast=1.0)
        fit_ref = fit_fringe(generate_scan(cfg, 0.0, mode="exact"))
        fit_op = fit_fringe(generate_scan(cfg, 1.0, mode="exact"))
        shift, _ = phase_shift(fit_ref, fit_op)
        kin = kinematic_phase(make_antisymmetric_mes(d), cfg.schedule, KINEMATIC_STEPS)
        geo = float(np.mod(kin.geometric, 2.0 * np.pi))
        if not abs(shift - geo) <= KINEMATIC_TOL:
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
