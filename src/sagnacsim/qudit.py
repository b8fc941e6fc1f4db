"""Pure two-qudit path states and the maximally entangled state of the experiment.

The two photons are labeled signal and idler; a state is a dense d x d
complex matrix of amplitudes ``alpha[m, n]`` for the signal photon in slit
``m`` and the idler photon in slit ``n`` (0-based indices internally).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidDimensionError,
    NormalizationError,
    _items,
    _natural,
    _real,
)

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
        dim = _natural(self.dim, "state dim")  # a float dim would not round-trip through JSON
        if dim < 2:
            raise InvalidDimensionError(f"qudit dimension must be >= 2, got {dim}")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (dim, dim):
            raise DimensionMismatchError(
                f"amplitude matrix must be {dim}x{dim}, got {amps.shape}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # a NaN amplitude fails too
            raise NormalizationError(
                f"state norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e} (tol {NORM_TOL})"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_json_dict(cls, data: dict) -> "BipartiteQuditState":
        """Read {dim, real, imag}; a missing or malformed field is a ConfigError."""
        dim = _natural(data.get("dim"), "state dim")
        rows = _items(_items(_real, "numbers"), "rows of numbers")
        real, imag = (rows(data.get(key), f"state {key}") for key in ("real", "imag"))
        for key, part in (("real", real), ("imag", imag)):
            if len(part) != dim or any(len(row) != dim for row in part):
                raise ConfigError(f"state {key} must be {dim} rows of {dim} numbers")
        return cls(dim, np.array(real) + 1j * np.array(imag))


# typed: 3.0 == 3 and hashes alike, and must still be refused after a call with 3
@lru_cache(maxsize=16, typed=True)
def make_antisymmetric_mes(d: int) -> BipartiteQuditState:
    """Maximally entangled state with anti-diagonal support.

    Amplitudes alpha[m, d-1-m] = 1/sqrt(d) (slit m pairs with slit d-m+1 in
    1-based labels), all other entries zero.  The state is immutable, so one
    instance per dimension is built and shared by every caller.
    """
    if d < 2:
        raise InvalidDimensionError(f"qudit dimension must be >= 2, got {d}")
    amps = np.zeros((d, d), dtype=complex)
    amps[np.arange(d), d - 1 - np.arange(d)] = 1.0 / np.sqrt(d)
    return BipartiteQuditState(d, amps)
