"""Shared assertion helpers for the test suite, a reference state chain, a
reference schedule evaluator, and an entanglement measure.

``DiagonalPhaseOp``, ``apply_signal_phases`` and ``inner_product`` step a
state through a schedule one ``BipartiteQuditState`` at a time; the
kinematic-phase tests check the package's array code against this chain.
``stacked_phases`` evaluates a schedule one phase column at a time and joins
the columns with ``np.stack``; the schedule tests require the package's
one-output evaluation to match it bit for bit.
``i_concurrence`` measures how entangled a state is; the tests use it to
check that ``make_antisymmetric_mes`` gives maximally entangled states.
``NEGATIVE_AMPLITUDE_THETAS`` and ``NEGATIVE_AMPLITUDE_COUNTS`` pin a count
scan whose fit ends with a negative amplitude.
"""

from dataclasses import dataclass

import numpy as np

from sagnacsim import BipartiteQuditState, DimensionMismatchError

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


def stacked_phases(schedule, t) -> np.ndarray:
    """Phases of a built-in or custom ``PhaseSchedule`` at t, one array per
    column joined by ``np.stack``: shape (d,) for a scalar t, (..., d) else."""
    t = np.asarray(t, dtype=float)
    d = schedule.dim
    if schedule.kind == "custom":
        times, values = schedule.breakpoints
        columns = [np.interp(t, times, values[:, k]) for k in range(d)]
    elif d == 2:
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
