"""Parametric SU(d) diagonal phase schedules xi_k(t), t in [0, 1].

An SU(d) schedule satisfies sum_k xi_k(t) = 0 (unit determinant) and
xi_k(0) = 0; ``check_su`` tests the former and ``load_schedule`` rejects
files violating it.  Built-in schedules exist for d = 2, 3, 4 and
interpolate from the identity to a point where all phases coincide with
2*pi/d modulo 2*pi; custom schedules are piecewise-linear between
user-supplied breakpoints.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    InvalidDimensionError,
    ScheduleError,
    _integral,
    _items,
    _real,
    load_json_object,
)
from .jones import TWO_PI, _wrap

SU_TOL = 1e-12
SU_GRID = 1001
BUILTIN_DIMS = (2, 3, 4)


def _builtin_phases(d: int, t: np.ndarray) -> np.ndarray:
    # each column is written straight into one (..., d) output, not stacked
    xi = np.empty(t.shape + (d,))
    if d == 2:
        xi[..., 0] = np.pi * t
        xi[..., 1] = -np.pi * t
        return xi
    # right-continuous step at the break: 1 for t >= 0.5, 0 before
    h = (t >= 0.5).astype(float)
    if d == 3:
        xi[..., 0] = 2.0 * np.pi / 3.0 * (2.0 * t - (2.0 * t - 1.0) * h)
        xi[..., 1] = -4.0 * np.pi / 3.0 * t
        xi[..., 2] = 2.0 * np.pi / 3.0 * (2.0 * t - 1.0) * h
        return xi
    # d == 4: PhaseSchedule refuses every other d before it gets here
    xi[..., 0] = np.pi / 2.0 * t
    xi[..., 1] = -np.pi / 2.0 * t + np.pi * (1.0 - 2.0 * t) * h
    xi[..., 2] = 3.0 * np.pi / 2.0 * t - np.pi * (1.0 - 2.0 * t) * h
    xi[..., 3] = -3.0 * np.pi / 2.0 * t
    return xi


def _breakpoint_array(value, what: str) -> np.ndarray:
    """A read-only float copy of ``value``, read number by number with ``_real``.

    ``np.array(value, dtype=float)`` would convert strings and booleans; the
    copy keeps later writes to the caller's array from skipping the checks.
    """
    items = np.array(value, dtype=object)
    array = np.array([_real(item, what) for item in items.flat], dtype=float).reshape(items.shape)
    array.setflags(write=False)
    return array


class PhaseSchedule:
    """Map t -> (xi_1 ... xi_d); evaluate by calling the instance."""

    def __init__(self, dim: int, kind: str, times=None, values=None):
        dim = _integral(dim, "dim")
        if dim < 2:
            raise InvalidDimensionError(f"qudit dimension must be >= 2, got {dim}")
        self.dim = dim
        self.kind = kind
        if kind == "builtin":
            if dim not in BUILTIN_DIMS:
                raise InvalidDimensionError(
                    f"no builtin schedule for d={dim}; supported: {BUILTIN_DIMS}"
                )
            self._times = None
            self._values = None
        elif kind == "custom":
            times = _breakpoint_array(times, "breakpoint times")
            values = _breakpoint_array(values, "breakpoint phases")
            self._validate_breakpoints(times, values)
            self._times = times
            self._values = values
        else:
            raise ScheduleError(f"unknown schedule kind {kind!r}")

    def _validate_breakpoints(self, times: np.ndarray, values: np.ndarray) -> None:
        # structural checks only; the SU(d) phase-sum condition is enforced
        # at load time (see load_schedule) so check_su stays a real predicate
        if times.ndim != 1 or values.ndim != 2 or values.shape != (times.size, self.dim):
            raise ScheduleError(
                f"breakpoints must be (n,) times with (n, {self.dim}) phase rows"
            )
        if times.size < 2:
            raise ScheduleError("need at least two breakpoints")
        # NaN fails every comparison below, so reject it first
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ScheduleError("breakpoint times and phases must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ScheduleError("breakpoint times must be strictly increasing")
        with np.errstate(over="ignore"):  # np.interp would return +-inf across such a gap
            slopes = np.diff(values, axis=0) / np.diff(times)[:, None]
        if not np.all(np.isfinite(slopes)):
            raise ScheduleError("breakpoint time gap too small: a phase slope overflows")
        if times[0] != 0.0 or times[-1] != 1.0:
            raise ScheduleError("breakpoints must start at t=0 and end at t=1")
        if np.any(np.abs(values[0]) > 0.0):
            raise ScheduleError("schedule must satisfy xi_k(0) = 0 for all k")

    def __call__(self, t) -> np.ndarray:
        """Phases at t: shape (d,) for a scalar t, (..., d) for an array of t.

        Every t must lie in [0, 1]; one out-of-range or NaN element rejects
        the whole call.
        """
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= 1.0)
        if not inside.all():
            raise ScheduleError(f"t out of range: {t[~inside].flat[0]} not in [0, 1]")
        if self.kind == "builtin":
            return _builtin_phases(self.dim, t)
        xi = np.empty(t.shape + (self.dim,))
        for k in range(self.dim):
            xi[..., k] = np.interp(t, self._times, self._values[:, k])
        return xi

    @property
    def breakpoints(self):
        """(times, values) arrays for custom schedules, None for built-ins."""
        if self.kind == "builtin":
            return None
        return self._times.copy(), self._values.copy()


def builtin_schedule(d: int) -> PhaseSchedule:
    """The built-in cyclic schedule for d in {2, 3, 4}."""
    return PhaseSchedule(d, "builtin")


def expected_shift(schedule: PhaseSchedule) -> tuple[float, int | None]:
    """(MES fringe shift in degrees, sector n) of the loop t = 0 -> 1, from xi(1) alone.

    The loop is cyclic when every xi_m(1) is within ``SU_TOL`` of xi_1(1) on the circle;
    then n = d xi_1(1) / 2 pi mod d and the shift is 360 n / d.  Otherwise n is None and
    the shift is arg z in [0, 360), z = mean_m exp(i xi_m(1)).
    """
    xi = schedule(1.0)
    phasors = np.exp(1j * xi)
    if np.all(np.abs(np.angle(phasors / phasors[0])) <= SU_TOL):
        n = round(schedule.dim * xi[0] / TWO_PI) % schedule.dim
        return 360.0 * n / schedule.dim, n
    return float(np.rad2deg(_wrap(np.angle(phasors.mean())))), None


def check_su(schedule: PhaseSchedule) -> bool:
    """True iff sum_k xi_k(t) = 0 within 1e-12 on a uniform ``SU_GRID``-point t grid.

    The whole grid is evaluated in one schedule call; a NaN phase fails.
    """
    sums = np.sum(schedule(np.linspace(0.0, 1.0, SU_GRID)), axis=-1)
    return bool(np.all(np.abs(sums) <= SU_TOL))


def load_schedule(path) -> PhaseSchedule:
    """Load a custom schedule from JSON {dim, breakpoints: [[t, [deg...]]...]}.

    Phases are stored in degrees on disk and converted to radians here.  The
    loader rejects unsorted times and any SU(d) or xi(0)=0 violation, on the
    ``SU_GRID``-point grid and at every breakpoint.  Neither check implies the
    other.  The grid can step over a breakpoint whose phases do not sum to 0.
    Between two breakpoints the phase sum is a convex combination of theirs,
    but only up to interpolation rounding, which grows with the phases: a row
    sum that passes ``SU_TOL`` can come out beyond it on the grid when the
    phases reach about 1e5 degrees.
    """
    data = load_json_object(path, "schedule file", ScheduleError)
    reals = _items(_real, "numbers")
    try:
        dim = _integral(data.get("dim"), "dim")
        raw = data["breakpoints"]
        times = np.array(reals([row[0] for row in raw], "breakpoint times"))
        values = np.deg2rad(np.array([reals(row[1], "breakpoint phases") for row in raw]))
        schedule = PhaseSchedule(dim, "custom", times=times, values=values)
    # every check raises a SagnacsimError, a ValueError, as ragged phase rows do
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ScheduleError(f"malformed schedule file {path}: {exc}") from exc
    if not (check_su(schedule) and np.all(np.abs(np.sum(values, axis=1)) <= SU_TOL)):
        raise ScheduleError(f"schedule in {path} violates the SU(d) phase-sum condition")
    return schedule
