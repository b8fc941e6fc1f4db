"""SU(d) diagonal phase schedules xi_k(t), t in [0, 1], as breakpoint tables.

Each is piecewise linear from xi(0) = 0 to t = 1; an SU(d) schedule also has
sum_k xi_k(t) = 0 (unit determinant), which ``check_su`` tests and
``load_schedule`` requires.  The built-ins for d = 2, 3, 4 are ``BUILTIN_TABLES``.
"""

from __future__ import annotations

import bisect
import functools

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

# rows (t, phases in degrees) as in a schedule file; each loop ends with every phase
# in the 360/d sector (Oxman & Khoury, PRL 106, 240503 (2011))
BUILTIN_TABLES = {
    2: ((0.0, (0, 0)), (1.0, (180, -180))),
    3: ((0.0, (0, 0, 0)), (0.5, (120, -120, 0)), (1.0, (120, -240, 120))),
    4: ((0.0, (0, 0, 0, 0)), (0.5, (45, -45, 135, -135)), (1.0, (90, -270, 450, -270))),
}
BUILTIN_DIMS = tuple(BUILTIN_TABLES)


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
    """Map t -> (xi_1 ... xi_d) through rows of d phases in radians at increasing
    ``times`` from 0 (all phases 0) to 1; evaluate by calling the instance."""

    def __init__(self, dim: int, times, values):
        dim = _integral(dim, "dim")
        if dim < 2:
            raise InvalidDimensionError(f"qudit dimension must be >= 2, got {dim}")
        self._dim = dim
        times = _breakpoint_array(times, "breakpoint times")
        self._values = values = _breakpoint_array(values, "breakpoint phases")
        # slope 0 past the last breakpoint, so t = 1 gives the last row
        self._slopes = np.vstack([self._validate_breakpoints(times, values), np.zeros((1, dim))])
        self._slopes.setflags(write=False)
        self._times = tuple(times.tolist())

    dim = property(lambda self: self._dim, doc="The qudit dimension d, read-only.")

    def _validate_breakpoints(self, times: np.ndarray, values: np.ndarray) -> np.ndarray:
        # structural checks only, returning the slopes; the SU(d) phase-sum condition
        # is enforced at load time (see load_schedule) so check_su stays a real predicate
        if times.ndim != 1 or values.ndim != 2 or values.shape != (times.size, self._dim):
            raise ScheduleError(f"breakpoints must be (n,) times with (n, {self._dim}) phase rows")
        if times.size < 2:
            raise ScheduleError("need at least two breakpoints")
        # NaN fails every comparison below, so reject it first
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ScheduleError("breakpoint times and phases must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ScheduleError("breakpoint times must be strictly increasing")
        with np.errstate(over="ignore"):  # a phase would be +-inf across such a gap
            slopes = np.diff(values, axis=0) / np.diff(times)[:, None]
        if not np.all(np.isfinite(slopes)):
            raise ScheduleError("breakpoint time gap too small: a phase slope overflows")
        if times[0] != 0.0 or times[-1] != 1.0:
            raise ScheduleError("breakpoints must start at t=0 and end at t=1")
        if np.any(np.abs(values[0]) > 0.0):
            raise ScheduleError("schedule must satisfy xi_k(0) = 0 for all k")
        return slopes

    def __call__(self, t) -> np.ndarray:
        """Phases at t, shape (d,) for a scalar t and (..., d) for an array of t.

        On times[s] <= t < times[s + 1] they are values[s] + slopes[s] (t - times[s]), as
        numpy's interp computes them; t = 1 gives the last row.  Every t must lie in [0, 1];
        one out-of-range or NaN element rejects the whole call."""
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            x = float(t)
            if not 0.0 <= x <= 1.0:
                raise ScheduleError(f"t out of range: {x} not in [0, 1]")
            s = bisect.bisect_right(self._times, x) - 1
            return self._values[s] + self._slopes[s] * (x - self._times[s])
        flat = t.ravel()
        # NaN compares false, so an array holding one is argsorted, which puts NaN last
        order = None if np.all(flat[1:] >= flat[:-1]) else np.argsort(flat)
        if order is not None:
            flat = flat[order]
        if flat.size and not (0.0 <= flat[0] and flat[-1] <= 1.0):
            bad = flat[0] if flat[0] < 0.0 else flat[-1]
            raise ScheduleError(f"t out of range: {bad} not in [0, 1]")
        # segment s is flat[cuts[s]:cuts[s + 1]], filled column by column; the last is t = 1
        cuts = [*np.searchsorted(flat, self._times).tolist(), flat.size]
        xi = np.empty((flat.size, self._dim))
        for s, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
            dt = flat[lo:hi] - self._times[s]
            for k in range(self._dim):
                xi[lo:hi, k] = self._values[s, k] + self._slopes[s, k] * dt
        if order is not None:
            xi[order] = xi.copy()
        return xi.reshape(t.shape + (self._dim,))

    @property
    def breakpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the (times, values) table, values in radians."""
        return np.array(self._times), self._values.copy()


@functools.lru_cache(maxsize=None)
def _builtin(d: int) -> PhaseSchedule:
    if d not in BUILTIN_TABLES:
        raise InvalidDimensionError(f"no builtin schedule for d={d}; supported: {BUILTIN_DIMS}")
    times, rows = zip(*BUILTIN_TABLES[d])
    return PhaseSchedule(d, times, np.deg2rad(rows))


def builtin_schedule(d: int) -> PhaseSchedule:
    """The built-in cyclic schedule for d in {2, 3, 4}: one shared instance per d."""
    return _builtin(_integral(d, "dim"))


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
    """Load a schedule from JSON {dim, breakpoints: [[t, [deg...]]...]}.

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
        schedule = PhaseSchedule(dim, times, values)
    # every check raises a SagnacsimError, a ValueError, as ragged phase rows do
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ScheduleError(f"malformed schedule file {path}: {exc}") from exc
    if not (check_su(schedule) and np.all(np.abs(np.sum(values, axis=1)) <= SU_TOL)):
        raise ScheduleError(f"schedule in {path} violates the SU(d) phase-sum condition")
    return schedule
