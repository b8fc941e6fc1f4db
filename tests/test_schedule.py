import json

import numpy as np
import pytest

from _helpers import circular_diff
from sagnacsim import (
    InvalidDimensionError,
    PhaseSchedule,
    ScheduleError,
    builtin_schedule,
    check_su,
    load_schedule,
)


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

    @pytest.mark.parametrize("times, values", [
        ([0.0, np.nan, 1.0], np.zeros((3, 2))),
        ([0.0, 0.5, 1.0], [[0.0, 0.0], [np.nan, 0.0], [0.0, 0.0]]),
        ([0.0, 0.5, 1.0], [[0.0, 0.0], [np.inf, -np.inf], [0.0, 0.0]]),
    ])
    def test_non_finite_breakpoints_rejected(self, times, values):
        with pytest.raises(ScheduleError, match="finite"):
            PhaseSchedule(2, "custom", times=times, values=values)


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

    def test_loader_rejects_unsorted(self, tmp_path):
        path = tmp_path / "unsorted.json"
        path.write_text(json.dumps({
            "dim": 2,
            "breakpoints": [[0.0, [0.0, 0.0]], [0.8, [10.0, -10.0]],
                            [0.4, [5.0, -5.0]], [1.0, [0.0, 0.0]]],
        }))
        with pytest.raises(ScheduleError):
            load_schedule(path)

    def test_loader_rejects_malformed(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{\"dim\": 2}")
        with pytest.raises(ScheduleError):
            load_schedule(path)
        path.write_text("not json")
        with pytest.raises(ScheduleError):
            load_schedule(path)


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
