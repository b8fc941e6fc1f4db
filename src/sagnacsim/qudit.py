"""Pure two-qudit path states and their entanglement bookkeeping.

The two photons are labeled signal and idler; a state is a dense d x d
complex matrix of amplitudes ``alpha[m, n]`` for the signal photon in slit
``m`` and the idler photon in slit ``n`` (0-based indices internally).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionMismatchError, InvalidDimensionError, NormalizationError

NORM_TOL = 1e-12


@dataclass(frozen=True)
class BipartiteQuditState:
    """Normalized pure state of a signal/idler qudit pair.

    Immutable: the amplitude matrix is copied on construction and marked
    read-only, so instances are safe to share between threads.
    """

    dim: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise InvalidDimensionError(f"qudit dimension must be >= 2, got {self.dim}")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"amplitude matrix must be {self.dim}x{self.dim}, got {amps.shape}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # a NaN amplitude fails too
            raise NormalizationError(
                f"state norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e} (tol {NORM_TOL})"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def to_json_dict(self) -> dict:
        """Serialize as {dim, real, imag} with plain nested lists."""
        return {
            "dim": self.dim,
            "real": self.amplitudes.real.tolist(),
            "imag": self.amplitudes.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BipartiteQuditState":
        """Read {dim, real, imag}; a missing or malformed field is a ConfigError."""
        dim = data.get("dim")
        if not isinstance(dim, numbers.Integral) or isinstance(dim, bool):
            raise ConfigError(f"state dim must be an integer, got {dim!r}")
        try:
            real, imag = (np.asarray(data[key], dtype=float) for key in ("real", "imag"))
        except KeyError as exc:
            raise ConfigError(f"state has no {exc} amplitudes") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"state amplitudes must be arrays of numbers: {exc}") from exc
        if real.shape != imag.shape:
            raise ConfigError(f"state real {real.shape} and imag {imag.shape} shapes differ")
        return cls(int(dim), real + 1j * imag)


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


def make_antisymmetric_mes(d: int) -> BipartiteQuditState:
    """Maximally entangled state with anti-diagonal support.

    Amplitudes alpha[m, d-1-m] = 1/sqrt(d) (slit m pairs with slit d-m+1 in
    1-based labels), all other entries zero.
    """
    if d < 2:
        raise InvalidDimensionError(f"qudit dimension must be >= 2, got {d}")
    amps = np.zeros((d, d), dtype=complex)
    amps[np.arange(d), d - 1 - np.arange(d)] = 1.0 / np.sqrt(d)
    return BipartiteQuditState(d, amps)


def i_concurrence(state: BipartiteQuditState) -> float:
    """I-concurrence sqrt(2 * (1 - Tr rho_signal^2)) of a pure state."""
    a = state.amplitudes
    rho = a @ a.conj().T  # reduced density matrix of the signal photon
    purity = float(np.sum(np.abs(rho) ** 2))
    return float(np.sqrt(max(0.0, 2.0 * (1.0 - purity))))


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
