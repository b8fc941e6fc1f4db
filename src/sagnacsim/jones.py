"""Jones calculus for the wave plates and the composite phase shifter.

Conventions (H/V basis, column vectors, matrices act from the left):

* ``hwp(a)``: half wave plate with fast axis at angle ``a``,
  [[cos 2a, sin 2a], [sin 2a, -cos 2a]].
* ``qwp(a)``: quarter wave plate, R(a) @ diag(1, i) @ R(-a); qwp(0) = diag(1, i).
* Global phases are ignored throughout; only relative phases are observable.
"""

from __future__ import annotations

import numpy as np

from .errors import NonDiagonalError

DIAG_OFFDIAG_TOL = 1e-9
TWO_PI = 2.0 * np.pi


def _wrap(x: float) -> float:
    """x mod 2*pi in [0, 2*pi): a tiny negative x, which rounds to 2*pi, maps to 0."""
    y = float(np.mod(x, TWO_PI))
    return 0.0 if y == TWO_PI else y


def _rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def hwp(angle: float) -> np.ndarray:
    """Jones matrix of a half wave plate with fast axis at ``angle``."""
    c, s = np.cos(2.0 * angle), np.sin(2.0 * angle)
    return np.array([[c, s], [s, -c]], dtype=complex)


def qwp(angle: float) -> np.ndarray:
    """Jones matrix of a quarter wave plate with fast axis at ``angle``."""
    return _rotation(angle) @ np.diag([1.0, 1.0j]) @ _rotation(-angle)


# The crossed quarter wave plates of the phase shifter are fixed, so they are
# built once.
_QWP_IN = qwp(-np.pi / 4.0)
_QWP_OUT = qwp(np.pi / 4.0)
_QWP_IN.setflags(write=False)
_QWP_OUT.setflags(write=False)


def phase_shifter(phi: float, theta: float) -> np.ndarray:
    """Variable phase shifter built from a QWP / HWP / HWP / QWP stack.

    The two half wave plates sit at ``phi`` and ``phi + theta``; the quarter
    wave plates are crossed (-45deg first, +45deg last -- the second plate of
    the pair is traversed from its back face inside the ring, which mirrors
    its mounted angle).  The stack is diagonal in H/V for every (phi, theta)
    and advances V by 4*theta relative to H; phi only moves the global phase.
    """
    return _QWP_OUT @ (hwp(phi + theta) @ (hwp(phi) @ _QWP_IN))


def relative_phase(matrix: np.ndarray) -> float:
    """Phase of M_vv relative to M_hh, in [0, 2*pi).

    Requires the matrix to be diagonal up to a global phase (off-diagonal
    magnitudes below 1e-9); anything else raises ``NonDiagonalError``.
    """
    m = np.asarray(matrix, dtype=complex)
    off = max(abs(m[0, 1]), abs(m[1, 0]))
    if off > DIAG_OFFDIAG_TOL:
        raise NonDiagonalError(f"off-diagonal magnitude {off:.3e} exceeds {DIAG_OFFDIAG_TOL}")
    return _wrap(np.angle(m[1, 1]) - np.angle(m[0, 0]))

