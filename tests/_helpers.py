"""Shared assertion helpers for the test suite, and a reference state chain.

``DiagonalPhaseOp``, ``apply_signal_phases`` and ``inner_product`` step a
state through a schedule one ``BipartiteQuditState`` at a time; the
kinematic-phase tests check the package's array code against this chain.
"""

from dataclasses import dataclass

import numpy as np

from sagnacsim import BipartiteQuditState, DimensionMismatchError


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
