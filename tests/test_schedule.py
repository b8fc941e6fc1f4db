import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import circular_diff, stacked_phases
from sagnacsim import (
    ConfigError,
    InvalidDimensionError,
    PhaseSchedule,
    ScheduleError,
    builtin_schedule,
    check_su,
    load_schedule,
)
from sagnacsim.schedule import SU_TOL


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
        with pytest.raises(ScheduleError):
            builtin_schedule(2)(t)

    # both grids hold t = 0.5 exactly, where the d = 3 and d = 4 steps switch on
    @pytest.mark.parametrize("t", [
        0.5, 0.0, 1.0, 0.3, np.float64(0.7), np.array(0.5),
        np.linspace(0.0, 1.0, 101),
        np.linspace(0.0, 1.0, 25).reshape(5, 5),
    ], ids=["0.5", "0", "1", "0.3", "float64", "0-d", "1-d", "2-d"])
    @pytest.mark.parametrize("schedule", [
        builtin_schedule(2), builtin_schedule(3), builtin_schedule(4),
        PhaseSchedule(3, "custom", times=[0.0, 0.5, 0.8, 1.0],
                      values=[[0.0, 0.0, 0.0], [1.0, -0.25, -0.75], [-2.0, 3.0, -1.0],
                              [2.0 * np.pi / 3.0, 2.0 * np.pi / 3.0, -4.0 * np.pi / 3.0]]),
    ], ids=["d2", "d3", "d4", "custom"])
    def test_bit_identical_to_stacked_columns(self, schedule, t):
        got, want = schedule(t), stacked_phases(schedule, t)
        assert got.shape == want.shape == np.shape(t) + (schedule.dim,)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


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


class TestCheckSu:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_builtins_pass(self, d):
        assert check_su(builtin_schedule(d), 1001)

    def test_violating_custom_fails(self):
        sched = PhaseSchedule(
            2, "custom", times=[0.0, 1.0], values=[[0.0, 0.0], [np.pi, 0.0]]
        )
        assert not check_su(sched, 11)

    def test_grid_too_small(self):
        with pytest.raises(ScheduleError):
            check_su(builtin_schedule(2), 1)


class TestCustomSchedules:
    def test_piecewise_linear_eval(self):
        sched = PhaseSchedule(
            2, "custom",
            times=[0.0, 0.5, 1.0],
            values=[[0.0, 0.0], [1.0, -1.0], [0.5, -0.5]],
        )
        np.testing.assert_allclose(sched(0.25), [0.5, -0.5], atol=1e-15)
        np.testing.assert_allclose(sched(0.75), [0.75, -0.75], atol=1e-15)
        times, values = sched.breakpoints
        assert times.shape == (3,) and values.shape == (3, 2)

    def test_structural_rejections(self):
        with pytest.raises(ScheduleError):  # unsorted times
            PhaseSchedule(2, "custom", times=[0.0, 0.7, 0.3, 1.0],
                          values=np.zeros((4, 2)))
        with pytest.raises(ScheduleError):  # nonzero start
            PhaseSchedule(2, "custom", times=[0.0, 1.0],
                          values=[[0.1, -0.1], [0.0, 0.0]])
        with pytest.raises(ScheduleError):  # does not cover [0, 1]
            PhaseSchedule(2, "custom", times=[0.0, 0.5], values=np.zeros((2, 2)))
        with pytest.raises(ScheduleError):  # single breakpoint
            PhaseSchedule(2, "custom", times=[0.0], values=np.zeros((1, 2)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScheduleError, match="unknown schedule kind"):
            PhaseSchedule(2, "bogus")

    @pytest.mark.parametrize("times, values", [
        ([0.0, np.nan, 1.0], np.zeros((3, 2))),
        ([0.0, 0.5, 1.0], [[0.0, 0.0], [np.nan, 0.0], [0.0, 0.0]]),
        ([0.0, 0.5, 1.0], [[0.0, 0.0], [np.inf, -np.inf], [0.0, 0.0]]),
    ])
    def test_non_finite_breakpoints_rejected(self, times, values):
        with pytest.raises(ScheduleError, match="finite"):
            PhaseSchedule(2, "custom", times=times, values=values)

    @pytest.mark.parametrize("dim", [2.5, "2", True, None])
    def test_non_integer_dim_rejected(self, dim):
        with pytest.raises(ConfigError, match="dim must be an integer"):
            PhaseSchedule(dim, "custom", times=[0.0, 1.0], values=np.zeros((2, 2)))

    def test_integral_float_dim_accepted(self):
        assert PhaseSchedule(2.0, "builtin").dim == 2

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
            PhaseSchedule(2, "custom", times=times, values=values)

    def test_numeric_arrays_accepted(self):
        sched = PhaseSchedule(2, "custom", times=np.array([0, 1]),
                              values=np.array([[0.0, 0.0], [np.pi, -np.pi]], dtype=np.float32))
        times, values = sched.breakpoints
        assert times.dtype == values.dtype == np.float64

    def test_caller_arrays_copied(self):
        times = np.array([0.0, 1.0])
        values = np.array([[0.0, 0.0], [np.pi, -np.pi]])
        sched = PhaseSchedule(2, "custom", times=times, values=values)
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
        assert sched.kind == "custom" and sched.dim == 2

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
        assert check_su(PhaseSchedule(2, "custom", times=[0.0, 0.5002, 0.5005, 0.5008, 1.0],
                                      values=np.deg2rad([[0, 0], [0, 0], [90, 0], [0, 0],
                                                         [180, -180]])), 1001)
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

    The rows are traceless with a zero first row; when ``valid`` is false,
    one drawn entry was then moved, which breaks the SU(d) condition.
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
    return d, times, rows, valid


class TestLoaderProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(schedule_tables(), st.lists(st.floats(0.0, 1.0), max_size=20))
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
            with pytest.raises(ScheduleError):
                sched(t)

    def test_check_su_fails_on_nan_phase(self):
        # construction rejects NaN breakpoints, so the NaN phase comes from
        # an evaluation that check_su sees
        class NanPhase(PhaseSchedule):
            def __call__(self, t):
                xi = super().__call__(t)
                xi[..., 0] = np.where(np.asarray(t) == 0.5, np.nan, xi[..., 0])
                return xi

        sched = NanPhase(2, "custom", times=[0.0, 1.0], values=np.zeros((2, 2)))
        assert not check_su(sched, 11)
