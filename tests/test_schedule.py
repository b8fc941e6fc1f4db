import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _helpers import circular_diff, closed_form_phases, stacked_phases
from sagnacsim import (
    ConfigError,
    ExperimentConfig,
    InvalidDimensionError,
    PhaseSchedule,
    ScheduleError,
    builtin_schedule,
    check_su,
    fit_fringe,
    generate_scan,
    load_schedule,
    phase_shift,
)
from sagnacsim.schedule import BUILTIN_TABLES, SU_TOL, expected_shift


class TestBuiltinEndpoints:
    def test_d2_at_one(self):
        np.testing.assert_allclose(builtin_schedule(2)(1.0), [np.pi, -np.pi], atol=1e-15)

    def test_d3_at_one(self):
        np.testing.assert_allclose(
            builtin_schedule(3)(1.0),
            [2 * np.pi / 3, -4 * np.pi / 3, 2 * np.pi / 3],
            atol=1e-15,
        )

    def test_d4_at_one(self):
        np.testing.assert_allclose(
            builtin_schedule(4)(1.0),
            [np.pi / 2, -3 * np.pi / 2, 5 * np.pi / 2, -3 * np.pi / 2],
            atol=1e-15,
        )

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_all_zero_at_start(self, d):
        np.testing.assert_allclose(builtin_schedule(d)(0.0), np.zeros(d), atol=1e-15)

    @pytest.mark.parametrize("d", [5, 1, 7])
    def test_unsupported_dimension(self, d):
        with pytest.raises(InvalidDimensionError):
            builtin_schedule(d)


# the t values of the benchmark's exact campaign
CAMPAIGN_T = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)


class TestBuiltinTables:
    """The built-in tables against the closed forms of the same loops."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_equal_to_closed_forms_at_knots_and_campaign_t(self, d):
        # equal values; the closed forms give -0.0 where a table gives +0.0 at t = 0
        t = np.array([*(row[0] for row in BUILTIN_TABLES[d]), *CAMPAIGN_T])
        assert np.array_equal(builtin_schedule(d)(t), closed_form_phases(d, t))
        for x in t:
            assert np.array_equal(builtin_schedule(d)(x), closed_form_phases(d, x))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_within_1e_15_of_closed_forms_on_a_fine_grid(self, d):
        t = np.linspace(0.0, 1.0, 10_001)
        assert np.max(np.abs(builtin_schedule(d)(t) - closed_form_phases(d, t))) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_schedule_file_of_the_table_equals_the_builtin(self, d, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({"dim": d, "breakpoints": BUILTIN_TABLES[d]}))
        t = np.linspace(0.0, 1.0, 101)
        assert np.array_equal(load_schedule(path)(t), builtin_schedule(d)(t))


class TestSharedBuiltins:
    @pytest.mark.parametrize("d", [2.5, "3", True, [3], None])
    def test_non_integer_dim_rejected(self, d):
        with pytest.raises(ConfigError, match="dim must be an integer"):
            builtin_schedule(d)

    def test_one_instance_per_dim(self):
        assert builtin_schedule(3.0) is builtin_schedule(3)
        assert builtin_schedule(np.int64(4)) is builtin_schedule(4)
        assert builtin_schedule(2) is not builtin_schedule(3)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_shared_instance_cannot_change(self, d):
        sched = builtin_schedule(d)
        before = sched(np.linspace(0.0, 1.0, 11))
        with pytest.raises(AttributeError):
            sched.dim = 5
        for array in vars(sched).values():
            if isinstance(array, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0.0
        times, values = sched.breakpoints
        times[1] = 0.25
        values[1] = 1.0
        assert sched.dim == d
        assert np.array_equal(sched(np.linspace(0.0, 1.0, 11)), before)


class TestEval:
    def test_d3_midpoint(self):
        np.testing.assert_allclose(
            builtin_schedule(3)(0.5), [2 * np.pi / 3, -2 * np.pi / 3, 0.0], atol=1e-15
        )

    def test_d4_midpoint(self):
        np.testing.assert_allclose(
            builtin_schedule(4)(0.5),
            [np.pi / 4, -np.pi / 4, 3 * np.pi / 4, -3 * np.pi / 4],
            atol=1e-15,
        )

    @pytest.mark.parametrize("t", [-0.1, 1.0001, 2.0, np.nan])
    def test_out_of_range(self, t):
        with pytest.raises(ScheduleError, match=re.escape(f"t out of range: {t} not")):
            builtin_schedule(2)(t)

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_array(self, shape):
        assert builtin_schedule(3)(np.empty(shape)).shape == shape + (3,)

    # both grids hold the d = 3 and d = 4 knot t = 0.5 exactly
    @pytest.mark.parametrize("t", [
        0.5, 0.0, 1.0, 0.3, np.float64(0.7), np.array(0.5),
        np.linspace(0.0, 1.0, 101),
        np.linspace(0.0, 1.0, 25).reshape(5, 5),
    ], ids=["0.5", "0", "1", "0.3", "float64", "0-d", "1-d", "2-d"])
    @pytest.mark.parametrize("schedule", [
        builtin_schedule(2), builtin_schedule(3), builtin_schedule(4),
        PhaseSchedule(3, times=[0.0, 0.5, 0.8, 1.0],
                      values=[[0.0, 0.0, 0.0], [1.0, -0.25, -0.75], [-2.0, 3.0, -1.0],
                              [2.0 * np.pi / 3.0, 2.0 * np.pi / 3.0, -4.0 * np.pi / 3.0]]),
    ], ids=["d2", "d3", "d4", "custom"])
    def test_bit_identical_to_stacked_columns(self, schedule, t):
        got, want = schedule(t), stacked_phases(schedule, t)
        assert got.shape == want.shape == np.shape(t) + (schedule.dim,)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestSegmentFormula:
    def test_random_tables_bit_identical_to_interp(self):
        # d = 2..6 and 2-6 breakpoints; t scalar, at every knot, sorted with ties, unsorted, N-D
        rng = np.random.default_rng(29)
        for _ in range(300):
            d, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            times = np.array([0.0, *np.sort(rng.uniform(0.0, 1.0, n - 2)), 1.0])
            values = np.vstack([np.zeros(d), rng.uniform(-7.0, 7.0, (n - 1, d))])
            sched = PhaseSchedule(d, times, values)
            t = rng.uniform(0.0, 1.0, 40)
            for x in (float(t[0]), t[1], np.array(t[2]), *times, t, np.sort(t),
                      np.repeat(times, 2), np.concatenate([t, times]), t.reshape(2, 4, 5)):
                got, want = sched(x), stacked_phases(sched, x)
                assert got.shape == want.shape == np.shape(x) + (d,)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (times, x)


class TestContinuityAndCyclicity:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_continuous_across_breakpoint(self, d):
        sched = builtin_schedule(d)
        eps = 1e-12
        jump = np.max(np.abs(sched(0.5 - eps) - sched(0.5 + eps)))
        assert jump < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fine_grid_increments_bounded(self, d):
        sched = builtin_schedule(d)
        grid = np.linspace(0.0, 1.0, 2001)
        values = np.array([sched(t) for t in grid])
        # piecewise-linear with slopes below 4*pi: no step can jump more
        assert np.max(np.abs(np.diff(values, axis=0))) < 4.0 * np.pi / 2000 * 1.01

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_final_phases_congruent_to_fraction(self, d):
        final = builtin_schedule(d)(1.0)
        for xi_k in final:
            assert circular_diff(xi_k, 2.0 * np.pi / d) < 1e-12


def slopes_finite(times, values) -> bool:
    """True iff every phase slope between neighbouring breakpoints is finite.

    ``PhaseSchedule`` refuses a table that breaks it: across a gap too small for
    its phase step, ``np.interp`` would return +-inf.
    """
    with np.errstate(over="ignore"):
        return bool(np.all(np.isfinite(np.diff(values, axis=0) / np.diff(times)[:, None])))


def straight_loop(endpoint):
    """The custom schedule that runs in a straight line from 0 to ``endpoint`` (radians)."""
    return PhaseSchedule(len(endpoint), times=[0.0, 1.0],
                         values=[np.zeros(len(endpoint)), endpoint])


@st.composite
def zero_sum_loops(draw):
    """A custom schedule with 2-4 breakpoints and d = 2..6.

    Each row's first d - 1 phases are drawn within +-400 deg; the last is minus
    their sum.  A table whose slopes overflow is not a schedule, so it is drawn again.
    """
    d = draw(st.integers(2, 6))
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          max_size=2, unique=True))
    times = [0.0, *sorted(inner), 1.0]
    rows = [[0.0] * d]
    for _ in times[1:]:
        row = draw(st.lists(st.floats(-400.0, 400.0), min_size=d - 1, max_size=d - 1))
        rows.append(row + [-sum(row)])
    assume(slopes_finite(times, np.deg2rad(rows)))
    return PhaseSchedule(d, times=times, values=np.deg2rad(rows))


class TestExpectedShift:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_builtins_in_sector_one(self, d):
        assert expected_shift(builtin_schedule(d)) == (360.0 / d, 1)

    # every phase congruent at t = 1: the sector is d xi_1(1) / 2 pi mod d, of either sign
    @pytest.mark.parametrize("endpoint_deg, shift_deg, n", [
        ([240.0, 240.0, -480.0], 240.0, 2),
        ([-240.0, -240.0, 480.0], 120.0, 1),
        ([480.0, 480.0, -960.0], 120.0, 1),
        ([-180.0, 180.0], 180.0, 1),
        ([360.0, -360.0], 0.0, 0),
        ([90.0, -270.0, 90.0, 90.0], 90.0, 1),
    ])
    def test_cyclic_loops(self, endpoint_deg, shift_deg, n):
        assert expected_shift(straight_loop(np.deg2rad(endpoint_deg))) == (shift_deg, n)

    @pytest.mark.parametrize("endpoint_deg, shift_deg", [
        ([90.0, 0.0, -90.0], 0.0),
        ([90.0, -90.0], 0.0),
        ([180.0, 0.0, -180.0], 180.0),
        ([90.0, 90.0, -180.0], np.rad2deg(np.arctan2(2.0, -1.0))),  # z = (2i - 1) / 3
    ])
    def test_loops_that_are_not_cyclic(self, endpoint_deg, shift_deg):
        shift, n = expected_shift(straight_loop(np.deg2rad(endpoint_deg)))
        assert n is None
        assert 0.0 <= shift < 360.0
        assert circular_diff(np.deg2rad(shift), np.deg2rad(shift_deg)) < 1e-12

    # two of the phases split by 2 delta around 2 pi / 3, the third at -4 pi / 3
    @pytest.mark.parametrize("delta, n", [(1e-13, 1), (1e-12, None)])
    def test_cyclic_within_su_tol(self, delta, n):
        third = 2.0 * np.pi / 3.0
        shift, got = expected_shift(straight_loop([third + delta, third - delta, -2.0 * third]))
        assert got == n
        assert circular_diff(np.deg2rad(shift), third) < 1e-12

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(zero_sum_loops())
    def test_exact_fit_follows_the_endpoint(self, sched):
        # the MES fringe at t = 1 is (1 - |z| cos(4 theta - arg z)) / 2 at contrast 1
        z = np.mean(np.exp(1j * sched(1.0)))
        assume(abs(z) > 0.1)
        cfg = ExperimentConfig(dim=sched.dim, schedule=sched, contrast=1.0)
        fit_ref, fit_op = (fit_fringe(generate_scan(cfg, t, mode="exact")) for t in (0.0, 1.0))
        shift, _ = phase_shift(fit_ref, fit_op)
        assert circular_diff(shift, np.deg2rad(expected_shift(sched)[0])) < np.deg2rad(1e-6)
        assert fit_op.visibility == pytest.approx(abs(z), abs=1e-9)


class TestCheckSu:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_builtins_pass(self, d):
        assert check_su(builtin_schedule(d))

    def test_violating_custom_fails(self):
        sched = PhaseSchedule(
            2, times=[0.0, 1.0], values=[[0.0, 0.0], [np.pi, 0.0]]
        )
        assert not check_su(sched)


class TestCustomSchedules:
    def test_piecewise_linear_eval(self):
        sched = PhaseSchedule(
            2,
            times=[0.0, 0.5, 1.0],
            values=[[0.0, 0.0], [1.0, -1.0], [0.5, -0.5]],
        )
        np.testing.assert_allclose(sched(0.25), [0.5, -0.5], atol=1e-15)
        np.testing.assert_allclose(sched(0.75), [0.75, -0.75], atol=1e-15)
        times, values = sched.breakpoints
        assert times.shape == (3,) and values.shape == (3, 2)

    def test_structural_rejections(self):
        with pytest.raises(ScheduleError):  # unsorted times
            PhaseSchedule(2, times=[0.0, 0.7, 0.3, 1.0],
                          values=np.zeros((4, 2)))
        with pytest.raises(ScheduleError):  # nonzero start
            PhaseSchedule(2, times=[0.0, 1.0],
                          values=[[0.1, -0.1], [0.0, 0.0]])
        with pytest.raises(ScheduleError):  # does not cover [0, 1]
            PhaseSchedule(2, times=[0.0, 0.5], values=np.zeros((2, 2)))
        with pytest.raises(ScheduleError):  # single breakpoint
            PhaseSchedule(2, times=[0.0], values=np.zeros((1, 2)))
        with pytest.raises(ScheduleError, match="at least two"):  # no breakpoint
            PhaseSchedule(2, times=[], values=np.zeros((0, 2)))
        with pytest.raises(InvalidDimensionError):  # dimension below 2
            PhaseSchedule(1, times=[0.0, 1.0], values=[[0.0], [0.0]])

    @pytest.mark.parametrize("times, values", [
        ([0.0, 1.0], np.zeros((2, 3))),
        ([0.0, 1.0], np.zeros((3, 2))),
        ([[0.0, 1.0]], np.zeros((2, 2))),
        ([0.0, 1.0], np.zeros(2)),
    ], ids=["rows-too-wide", "more-rows-than-times", "2-d-times", "1-d-phases"])
    def test_shapes_rejected(self, times, values):
        with pytest.raises(ScheduleError, match="phase rows"):
            PhaseSchedule(2, times, values)

    def test_builtin_breakpoints_are_its_table(self):
        assert builtin_schedule(2).breakpoints[1].tolist() == [[0.0, 0.0], [np.pi, -np.pi]]
        for d, table in BUILTIN_TABLES.items():
            times, values = builtin_schedule(d).breakpoints
            assert times.tolist() == [row[0] for row in table]
            assert np.array_equal(values, np.deg2rad([row[1] for row in table]))

    @pytest.mark.parametrize("times, values", [
        ([0.0, np.nan, 1.0], np.zeros((3, 2))),
        ([0.0, 0.5, 1.0], [[0.0, 0.0], [np.nan, 0.0], [0.0, 0.0]]),
        ([0.0, 0.5, 1.0], [[0.0, 0.0], [np.inf, -np.inf], [0.0, 0.0]]),
    ])
    def test_non_finite_breakpoints_rejected(self, times, values):
        with pytest.raises(ScheduleError, match="finite"):
            PhaseSchedule(2, times=times, values=values)

    @pytest.mark.parametrize("times, values", [
        ([0.0, 1e-323, 1.0], [[0.0, 0.0], [1.0, -1.0], [0.0, 0.0]]),
        ([0.0, 0.5, 1.0], [[0.0, 0.0], [1e308, -1e308], [-1e308, 1e308]]),
    ], ids=["tiny-gap", "overflowing-step"])
    def test_overflowing_slopes_rejected(self, times, values):
        with pytest.raises(ScheduleError, match="slope overflows"):
            PhaseSchedule(2, times=times, values=values)

    @pytest.mark.parametrize("dim", [2.5, "2", True, None])
    def test_non_integer_dim_rejected(self, dim):
        with pytest.raises(ConfigError, match="dim must be an integer"):
            PhaseSchedule(dim, times=[0.0, 1.0], values=np.zeros((2, 2)))

    def test_integral_float_dim_accepted(self):
        assert PhaseSchedule(2.0, [0.0, 1.0], np.zeros((2, 2))).dim == 2

    @pytest.mark.parametrize("times, values", [
        (["0", "1"], [[0.0, 0.0], [np.pi, -np.pi]]),
        ([False, True], [[0.0, 0.0], [np.pi, -np.pi]]),
        ([0.0, 1.0], [[False, False], [np.pi, -np.pi]]),
        ([0.0, 1.0], np.array([[False, False], [True, True]])),
        ([0.0, 1.0], [["0", "0"], [np.pi, -np.pi]]),
        ([0.0, 10**400], np.zeros((2, 2))),
        ([0.0, [1.0]], np.zeros((2, 2))),
    ])
    def test_non_numeric_breakpoints_rejected(self, times, values):
        with pytest.raises(ConfigError, match="must be a number"):
            PhaseSchedule(2, times=times, values=values)

    def test_numeric_arrays_accepted(self):
        sched = PhaseSchedule(2, times=np.array([0, 1]),
                              values=np.array([[0.0, 0.0], [np.pi, -np.pi]], dtype=np.float32))
        times, values = sched.breakpoints
        assert times.dtype == values.dtype == np.float64

    def test_caller_arrays_copied(self):
        times = np.array([0.0, 1.0])
        values = np.array([[0.0, 0.0], [np.pi, -np.pi]])
        sched = PhaseSchedule(2, times=times, values=values)
        values[1, 0] = np.nan
        times[1] = 0.5
        np.testing.assert_array_equal(sched(1.0), [np.pi, -np.pi])


class TestLoader:
    def test_round_trip_degrees(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({
            "dim": 2,
            "breakpoints": [[0.0, [0.0, 0.0]], [1.0, [180.0, -180.0]]],
        }))
        sched = load_schedule(path)
        np.testing.assert_allclose(sched(1.0), [np.pi, -np.pi], atol=1e-12)
        assert sched.dim == 2
        assert sched.breakpoints[0].tolist() == [0.0, 1.0]

    def test_loader_rejects_su_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "dim": 2,
            "breakpoints": [[0.0, [0.0, 0.0]], [1.0, [180.0, 0.0]]],
        }))
        with pytest.raises(ScheduleError):
            load_schedule(path)

    def test_loader_rejects_violation_between_grid_points(self, tmp_path):
        # the 1001-point grid steps over the middle breakpoint, whose phases sum to 90 degrees
        path = tmp_path / "spike.json"
        path.write_text(json.dumps({
            "dim": 2,
            "breakpoints": [[0.0, [0.0, 0.0]], [0.5002, [0.0, 0.0]], [0.5005, [90.0, 0.0]],
                            [0.5008, [0.0, 0.0]], [1.0, [180.0, -180.0]]],
        }))
        assert check_su(PhaseSchedule(2, times=[0.0, 0.5002, 0.5005, 0.5008, 1.0],
                                      values=np.deg2rad([[0, 0], [0, 0], [90, 0], [0, 0],
                                                         [180, -180]])))
        with pytest.raises(ScheduleError, match="SU"):
            load_schedule(path)

    def test_loader_rejects_rounding_between_breakpoints(self, tmp_path):
        # every breakpoint row sums to within SU_TOL, but at phases near 1e5 degrees the
        # interpolated sums on the SU_GRID grid reach 1.14e-12, so only the grid refuses it
        breakpoints = [
            [0.0, [0, 0, 0, 0, 0, 0]],
            [0.6884467305709401, [77897.567, 86808.703, -28440.961, 14305.966, -35626.122,
                                  -114945.15299999996]],
            [1.0, [-32417.755, -21676.2, 78054.87, -54568.481, 24637.429, 5970.137000000006]],
        ]
        path = tmp_path / "rounding.json"
        path.write_text(json.dumps({"dim": 6, "breakpoints": breakpoints}))
        rows = np.deg2rad([row for _, row in breakpoints])
        assert np.all(np.abs(np.sum(rows, axis=1)) <= SU_TOL)
        with pytest.raises(ScheduleError, match="SU"):
            load_schedule(path)

    def test_loader_rejects_unsorted(self, tmp_path):
        path = tmp_path / "unsorted.json"
        path.write_text(json.dumps({
            "dim": 2,
            "breakpoints": [[0.0, [0.0, 0.0]], [0.8, [10.0, -10.0]],
                            [0.4, [5.0, -5.0]], [1.0, [0.0, 0.0]]],
        }))
        with pytest.raises(ScheduleError):
            load_schedule(path)

    @pytest.mark.parametrize("dim, breakpoints", [
        (2, [[0.0, [0.0, 0.0, 0.0]], [1.0, [180.0, -180.0, 0.0]]]),
        (3, [[0.0, [0.0, 0.0]], [1.0, [180.0, -180.0]]]),
        (2, [[0.0, [0.0, 0.0]], [0.8, [10.0, -10.0]], [0.4, [5.0, -5.0]], [1.0, [0.0, 0.0]]]),
        (2, [[0.0, [10.0, -10.0]], [1.0, [180.0, -180.0]]]),
        (2, [[0.0, [0.0, 0.0]], [0.5, [180.0, -180.0]]]),
    ], ids=["rows-too-wide", "rows-too-narrow", "unsorted", "nonzero-start", "short"])
    def test_structural_errors_name_the_file(self, tmp_path, dim, breakpoints):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({"dim": dim, "breakpoints": breakpoints}))
        prefix = f"malformed schedule file {path}: "
        with pytest.raises(ScheduleError, match="^" + re.escape(prefix)):
            load_schedule(path)

    def test_loader_rejects_malformed(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{\"dim\": 2}")
        with pytest.raises(ScheduleError):
            load_schedule(path)
        path.write_text("not json")
        with pytest.raises(ScheduleError):
            load_schedule(path)


@st.composite
def schedule_tables(draw):
    """(dim, times, phase rows in degrees, valid) for a schedule file.

    The rows are traceless with a zero first row.  ``valid`` is false when
    one drawn entry was then moved, which breaks the SU(d) condition, or when
    a time gap is too small for its phase step (``slopes_finite``).
    """
    d = draw(st.integers(2, 6))
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          max_size=8, unique=True))
    times = [0.0, *sorted(inner), 1.0]
    rows = [[0.0] * d]
    for _ in times[1:]:
        row = draw(st.lists(st.floats(-720.0, 720.0), min_size=d - 1, max_size=d - 1))
        rows.append(row + [-sum(row)])
    valid = draw(st.booleans())
    if not valid:
        row, k = draw(st.integers(0, len(times) - 1)), draw(st.integers(0, d - 1))
        rows[row][k] += draw(st.floats(1e-6, 90.0))
    return d, times, rows, valid and slopes_finite(times, np.deg2rad(rows))


class TestLoaderProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(schedule_tables(), st.lists(st.floats(0.0, 1.0), max_size=20))
    # traceless, but 1 deg over a gap of 1e-323 overflows the slope: interp gave [0, inf, -inf]
    @example((3, [0.0, 1e-323, 0.25, 0.375, 0.5, 0.53125, 0.5625, 0.625, 0.75, 1.0],
              [[0.0, 0.0, 0.0], [0.0, 1.0, -1.0], *[[0.0, 0.0, -0.0]] * 8], False), [5e-324])
    def test_loaded_schedules_keep_the_invariants(self, table, ts):
        # a loaded schedule has xi(0) = 0 and a zero phase sum at every t,
        # breakpoints included; a table that breaks either is refused
        d, times, rows, valid = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sched.json"
            path.write_text(json.dumps({"dim": d, "breakpoints": list(zip(times, rows))}))
            if not valid:
                with pytest.raises(ScheduleError):
                    load_schedule(path)
                return
            sched = load_schedule(path)
        assert np.array_equal(sched(0.0), np.zeros(d))
        assert np.all(np.abs(np.sum(sched(np.array([*times, *ts])), axis=-1)) <= SU_TOL)


def _loaded_custom(tmp_path):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps({
        "dim": 3,
        "breakpoints": [[0.0, [0.0, 0.0, 0.0]], [0.3, [40.0, -10.0, -30.0]],
                        [0.7, [-25.5, 90.0, -64.5]], [1.0, [120.0, 120.0, -240.0]]],
    }))
    return load_schedule(path)


class TestArrayEvaluation:
    T = np.concatenate([
        np.linspace(0.0, 1.0, 1001),
        [0.5 - 1e-12, 0.5 + 1e-12, 0.1, 0.3, 0.6, 0.7, 0.77],
    ])

    def assert_matches_scalar_calls(self, sched):
        stacked = np.stack([sched(t) for t in self.T])
        assert np.array_equal(sched(self.T), stacked)
        grid = self.T[:1000].reshape(10, 100)
        assert np.array_equal(sched(grid), stacked[:1000].reshape(10, 100, sched.dim))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_builtin_equals_scalar_calls(self, d):
        self.assert_matches_scalar_calls(builtin_schedule(d))

    def test_loaded_custom_equals_scalar_calls(self, tmp_path):
        self.assert_matches_scalar_calls(_loaded_custom(tmp_path))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_scalar_shape(self, d):
        assert builtin_schedule(d)(0.25).shape == (d,)
        assert builtin_schedule(d)(np.float64(1.0)).shape == (d,)

    @pytest.mark.parametrize("bad", [-0.1, 1.0001, np.nan])
    def test_one_bad_element_rejects_array(self, bad, tmp_path):
        t = np.linspace(0.0, 1.0, 11)
        t[4] = bad
        for sched in (builtin_schedule(3), _loaded_custom(tmp_path)):
            with pytest.raises(ScheduleError, match=re.escape(f"t out of range: {bad} not")):
                sched(t)

    def test_check_su_fails_on_nan_phase(self):
        # construction rejects NaN breakpoints, so the NaN phase comes from
        # an evaluation that check_su sees
        class NanPhase(PhaseSchedule):
            def __call__(self, t):
                xi = super().__call__(t)
                xi[..., 0] = np.where(np.asarray(t) == 0.5, np.nan, xi[..., 0])
                return xi

        sched = NanPhase(2, times=[0.0, 1.0], values=np.zeros((2, 2)))
        assert not check_su(sched)
