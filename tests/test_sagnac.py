import csv
import dataclasses
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _helpers import Squared, random_state
from sagnacsim import (
    BipartiteQuditState,
    ConfigError,
    DimensionMismatchError,
    ExperimentConfig,
    FringeScan,
    PhaseSchedule,
    ScheduleError,
    builtin_schedule,
    circuit_oracle,
    coincidence_full,
    coincidence_mes,
    generate_scan,
    load_schedule,
    make_antisymmetric_mes,
    read_scan,
    write_scan,
)
from sagnacsim.sagnac import (
    DEFAULT_THETA_GRID,
    MAX_COUNTS,
    _coincidence,
    _mes_fringe,
    scan_metadata,
)


class TestCoincidenceFull:
    def test_mes2_null_at_origin(self):
        assert coincidence_full(make_antisymmetric_mes(2), [0.0, 0.0], 0.0) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_mes2_half_at_pi_over_8(self):
        assert coincidence_full(make_antisymmetric_mes(2), [0.0, 0.0], np.pi / 8) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_random_state_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            s = random_state(rng, d)
            a = s.amplitudes
            # independent oracle: explicit double sum at xi = 0, theta = 0
            brute = 0.25 * sum(
                abs(a[m, n] - a[n, m]) ** 2 for m in range(d) for n in range(d)
            )
            expansion = 0.5 * (1.0 - np.sum(a * a.conj().T).real)
            value = coincidence_full(s, np.zeros(d), 0.0)
            assert value == pytest.approx(brute, abs=1e-12)
            assert value == pytest.approx(expansion, abs=1e-12)

    def test_probability_range(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            s = random_state(rng, d)
            p = coincidence_full(s, rng.uniform(-np.pi, np.pi, d), rng.uniform(0, np.pi))
            assert 0.0 <= p <= 1.0

    def test_phase_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            coincidence_full(make_antisymmetric_mes(3), [0.0, 0.0], 0.1)


class TestCoincidenceMes:
    def test_d2_value(self):
        assert coincidence_mes(2, [0.0, 0.0], np.pi / 8) == pytest.approx(0.5, abs=1e-12)

    def test_d3_flat_at_half(self):
        xi = builtin_schedule(3)(0.5)
        for theta in np.linspace(0.0, np.pi, 17):
            assert coincidence_mes(3, xi, theta) == pytest.approx(0.5, abs=1e-12)

    def test_d4_cyclic_shift(self):
        xi = builtin_schedule(4)(1.0)
        for theta in np.linspace(0.0, np.pi, 17):
            expected = np.sin(2.0 * theta - np.pi / 4) ** 2
            assert coincidence_mes(4, xi, theta) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_reduction_from_full(self, d):
        rng = np.random.default_rng(23 + d)
        mes = make_antisymmetric_mes(d)
        for _ in range(200):
            xi = rng.uniform(-2 * np.pi, 2 * np.pi, d)
            theta = rng.uniform(0.0, np.pi)
            assert abs(coincidence_full(mes, xi, theta) - coincidence_mes(d, xi, theta)) < 1e-12

    def test_d2_closed_form(self):
        for t in np.linspace(0.0, 1.0, 11):
            for theta in np.linspace(0.0, np.pi, 13):
                value = coincidence_mes(2, [np.pi * t, -np.pi * t], theta)
                expected = 0.5 * (1.0 - np.cos(np.pi * t) * np.cos(4.0 * theta))
                assert value == pytest.approx(expected, abs=1e-12)


class TestCircuitOracle:
    def test_matches_full_on_builtin_qutrit_scan(self):
        mes = make_antisymmetric_mes(3)
        xi = builtin_schedule(3)(1.0)
        for theta in np.deg2rad(np.arange(0.0, 180.1, 5.0)):
            assert abs(circuit_oracle(mes, xi, theta) - coincidence_full(mes, xi, theta)) <= 1e-12

    def test_matches_full_on_random_inputs(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            s = random_state(rng, d)
            xi = rng.uniform(-2 * np.pi, 2 * np.pi, d)
            theta = rng.uniform(0.0, np.pi)
            phi = rng.uniform(0.0, np.pi)
            assert abs(circuit_oracle(s, xi, theta, phi) - coincidence_full(s, xi, theta)) < 1e-12

    def test_phase_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            circuit_oracle(make_antisymmetric_mes(3), [0.0, 0.0], 0.1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_null_at_origin(self, d):
        assert circuit_oracle(make_antisymmetric_mes(d), np.zeros(d), 0.0) == pytest.approx(
            0.0, abs=1e-12
        )


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(dim=3, schedule=builtin_schedule(3))
        assert cfg.theta_grid.size == 37
        assert cfg.contrast == 0.35

    def test_numeric_fields_normalised(self):
        # the sidecar echoes these, so an int contrast and a float count must not leak
        cfg = ExperimentConfig(dim=2, schedule=builtin_schedule(2), contrast=1,
                               counts_per_point=1000.0)
        assert type(cfg.contrast) is float and cfg.contrast == 1.0
        assert type(cfg.counts_per_point) is int and cfg.counts_per_point == 1000

    def test_validation(self):
        sched = builtin_schedule(2)
        with pytest.raises(ConfigError):
            ExperimentConfig(dim=2, schedule=sched, theta_grid=np.array([]))
        with pytest.raises(ConfigError):
            ExperimentConfig(dim=2, schedule=sched, theta_grid=np.array([0.2, 0.1]))
        # a repeated infinity is refused as not finite before the increasing check
        with pytest.raises(ConfigError, match="finite"):
            ExperimentConfig(dim=2, schedule=sched, theta_grid=[0.0, np.inf, np.inf])
        with pytest.raises(ConfigError):
            ExperimentConfig(dim=2, schedule=sched, contrast=1.5)
        with pytest.raises(ConfigError):
            ExperimentConfig(dim=2, schedule=sched, counts_per_point=0)
        for contrast in ("x", True, None):
            with pytest.raises(ConfigError, match="contrast"):
                ExperimentConfig(dim=2, schedule=sched, contrast=contrast)
        for counts in ("x", 1000.5, True, np.nan, MAX_COUNTS + 1):
            with pytest.raises(ConfigError, match="counts_per_point"):
                ExperimentConfig(dim=2, schedule=sched, counts_per_point=counts)
        for seed in (-1, 1.5, "7"):
            with pytest.raises(ConfigError, match="seed"):
                ExperimentConfig(dim=2, schedule=sched, rng_seed=seed)
        with pytest.raises(DimensionMismatchError):
            ExperimentConfig(dim=3, schedule=sched)

    @pytest.mark.parametrize("grid", [[0.0, np.nan, 1.0, 2.0], [0.0, 1.0, 2.0, np.inf],
                                      [-np.inf, 0.0, 1.0, 2.0]], ids=["nan", "inf", "-inf"])
    def test_non_finite_grid_rejected(self, grid):
        # each passes the increasing check; a sampled scan then failed in numpy's Poisson draw
        with pytest.raises(ConfigError, match="finite"):
            ExperimentConfig(dim=3, schedule=builtin_schedule(3), theta_grid=grid)

    @pytest.mark.parametrize("grid", [0.5, [[0.0, 1.0], [2.0, 3.0]]])
    def test_grid_not_one_dimensional_rejected(self, grid):
        with pytest.raises(ConfigError, match="one-dimensional"):
            ExperimentConfig(dim=2, schedule=builtin_schedule(2), theta_grid=grid)

    def test_caller_grid_stays_writeable(self):
        grid = np.deg2rad(np.arange(0.0, 181.0, 5.0))
        cfg = ExperimentConfig(dim=2, schedule=builtin_schedule(2), theta_grid=grid)
        assert cfg.theta_grid is not grid and not cfg.theta_grid.flags.writeable
        grid += 0.1
        assert cfg.theta_grid[0] == 0.0


class TestFringeScan:
    def test_validation(self):
        thetas = np.array([0.0, 0.1, 0.2])
        with pytest.raises(ConfigError):
            FringeScan(0.0, thetas[::-1], np.zeros(3), "exact")
        with pytest.raises(ConfigError):
            FringeScan(0.0, thetas, np.array([0.1, 1.2, 0.3]), "exact")
        with pytest.raises(ConfigError):
            FringeScan(0.0, thetas, np.array([1, -2, 3]), "sampled")
        with pytest.raises(ConfigError):
            FringeScan(0.0, thetas, np.zeros(3), "other")

    @pytest.mark.parametrize("mode, values", [("exact", [0.1, 0.2, 0.3]), ("sampled", [1, 2, 3])])
    def test_caller_arrays_stay_writeable(self, mode, values):
        thetas, given = np.array([0.0, 0.1, 0.2]), np.array(values)
        scan = FringeScan(0.0, thetas, given, mode)
        assert not (scan.thetas.flags.writeable or scan.values.flags.writeable)
        thetas += 1.0
        given *= 2
        assert scan.thetas.tolist() == [0.0, 0.1, 0.2] and scan.values.tolist() == values

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="matching shapes"):
            FringeScan(0.0, np.array([0.0, 0.1, 0.2]), np.zeros(4), "exact")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_non_finite_rejected(self, bad, mode):
        thetas = np.array([0.0, 0.1, 0.2])
        with pytest.raises(ConfigError, match="finite"):
            FringeScan(0.0, thetas, np.array([0.0, bad, 1.0]), mode)
        with pytest.raises(ConfigError, match="finite"):
            FringeScan(0.0, np.array([0.0, bad, 0.2]), np.zeros(3), mode)


class TestCoincidenceFullArray:
    THETAS = np.concatenate([np.deg2rad(np.arange(0.0, 180.0 + 1e-9, 1.0)),
                             np.random.default_rng(23).uniform(-4.0, 4.0, 40)])

    def assert_matches_scalar_loop(self, state, xi):
        looped = np.array([coincidence_full(state, xi, th) for th in self.THETAS])
        assert np.array_equal(coincidence_full(state, xi, self.THETAS), looped)
        grid = self.THETAS[:180].reshape(12, 15)
        assert np.array_equal(coincidence_full(state, xi, grid), looped[:180].reshape(12, 15))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_mes_equals_scalar_loop(self, d):
        xi = np.random.default_rng(d).uniform(-2.0 * np.pi, 2.0 * np.pi, d)
        self.assert_matches_scalar_loop(make_antisymmetric_mes(d), xi)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_random_state_equals_scalar_loop(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(5):
            state = random_state(rng, d)
            self.assert_matches_scalar_loop(state, rng.uniform(-2.0 * np.pi, 2.0 * np.pi, d))

    def test_scalar_theta_gives_float(self):
        value = coincidence_full(make_antisymmetric_mes(3), np.zeros(3), np.float64(0.3))
        assert type(value) is float
        assert type(coincidence_mes(3, np.zeros(3), np.float64(0.3))) is float


@st.composite
def phase_stacks(draw, rows=st.integers(1, 12)):
    """(state, xi (n, d), theta (n,)) for d = 2..6, with a drawn normalized state."""
    d = draw(st.integers(2, 6))
    n = draw(rows)
    parts = [draw(arrays(float, (d, d), elements=st.floats(-1.0, 1.0))) for _ in range(2)]
    amps = parts[0] + 1j * parts[1]
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    xi = draw(arrays(float, (n, d), elements=st.floats(-2.0 * np.pi, 2.0 * np.pi)))
    theta = draw(arrays(float, (n,), elements=st.floats(0.0, np.pi)))
    return BipartiteQuditState(d, amps / norm), xi, theta


class TestStackedPhases:
    """A stack of phase vectors gives exactly the per-row results."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(phase_stacks())
    def test_full_equals_rows(self, drawn):
        state, xi, theta = drawn
        rows = [coincidence_full(state, x, th) for x, th in zip(xi, theta)]
        assert np.array_equal(coincidence_full(state, xi, theta), rows)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(phase_stacks())
    def test_mes_equals_rows(self, drawn):
        state, xi, theta = drawn
        d = state.dim
        mes = make_antisymmetric_mes(d)
        assert np.array_equal(coincidence_mes(d, xi, theta),
                              [coincidence_mes(d, x, th) for x, th in zip(xi, theta)])
        assert np.array_equal(coincidence_full(mes, xi, theta),
                              [coincidence_full(mes, x, th) for x, th in zip(xi, theta)])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(phase_stacks(), st.data())
    def test_stacked_states_equal_rows(self, drawn, data):
        # the kernel also takes one amplitude matrix per row
        state, xi, theta = drawn
        states = [state if data.draw(st.booleans()) else make_antisymmetric_mes(state.dim)
                  for _ in theta]
        stacked = _coincidence(np.array([s.amplitudes for s in states]), xi, theta)
        assert np.array_equal(stacked, [coincidence_full(s, x, th)
                                        for s, x, th in zip(states, xi, theta)])

    def test_stack_of_wrong_width_rejected(self):
        with pytest.raises(DimensionMismatchError):
            coincidence_full(make_antisymmetric_mes(3), np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(DimensionMismatchError):
            coincidence_mes(3, np.zeros((4, 2)), np.zeros(4))


class TestOracleProperty:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(phase_stacks(rows=st.just(1)), st.floats(0.0, np.pi))
    def test_full_agrees_with_circuit_oracle(self, drawn, phi):
        state, xi, theta = drawn
        assert abs(coincidence_full(state, xi[0], theta[0])
                   - circuit_oracle(state, xi[0], theta[0], phi)) <= 1e-12


class TestGenerateScan:
    def test_exact_d2_cycle_shifted(self):
        cfg = ExperimentConfig(dim=2, schedule=builtin_schedule(2), contrast=1.0)
        scan = generate_scan(cfg, 1.0, mode="exact")
        expected = 0.5 * (1.0 + np.cos(4.0 * scan.thetas))
        np.testing.assert_allclose(scan.values, expected, atol=1e-12)

    def test_zero_contrast_flat(self):
        cfg = ExperimentConfig(dim=3, schedule=builtin_schedule(3), contrast=0.0)
        scan = generate_scan(cfg, 0.0, mode="exact")
        np.testing.assert_allclose(scan.values, 0.5, atol=1e-15)

    def test_sampled_deterministic(self):
        cfg = ExperimentConfig(dim=2, schedule=builtin_schedule(2), rng_seed=7)
        a = generate_scan(cfg, 1.0)
        b = generate_scan(cfg, 1.0)
        np.testing.assert_array_equal(a.values, b.values)

    def test_distinct_seeds_differ(self):
        cfg7 = ExperimentConfig(dim=2, schedule=builtin_schedule(2), rng_seed=7)
        cfg8 = ExperimentConfig(dim=2, schedule=builtin_schedule(2), rng_seed=8)
        assert not np.array_equal(generate_scan(cfg7, 1.0).values, generate_scan(cfg8, 1.0).values)

    def test_distinct_t_independent(self):
        cfg = ExperimentConfig(dim=2, schedule=builtin_schedule(2), rng_seed=7, contrast=0.0)
        # contrast 0 makes both settings statistically identical, so equal
        # draws would reveal a shared stream
        assert not np.array_equal(generate_scan(cfg, 0.0).values, generate_scan(cfg, 1.0).values)

    @pytest.mark.parametrize("d, t", [(2, 0.0), (3, 0.125), (4, 1.0)])
    def test_stream_layout(self, d, t):
        # stream version 2: one generator per scan, keyed (seed, dim, t in micro-units)
        cfg = ExperimentConfig(dim=d, schedule=builtin_schedule(d), rng_seed=11)
        means = cfg.counts_per_point * generate_scan(cfg, t, mode="exact").values
        key = (d, int(round(t * 1e6)))
        rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=key))
        np.testing.assert_array_equal(generate_scan(cfg, t).values, rng.poisson(means))

    def test_distinct_dims_independent(self):
        # contrast 0 makes every d statistically identical at t = 0, so equal
        # draws would reveal a stream shared across dimensions
        scans = {
            d: generate_scan(
                ExperimentConfig(dim=d, schedule=builtin_schedule(d), rng_seed=7, contrast=0.0),
                0.0,
            ).values
            for d in (2, 3, 4)
        }
        for a, b in ((2, 3), (2, 4), (3, 4)):
            assert not np.array_equal(scans[a], scans[b])

    def test_sampled_mean_tracks_probability(self):
        cfg = ExperimentConfig(
            dim=2, schedule=builtin_schedule(2), counts_per_point=200_000, rng_seed=3
        )
        scan = generate_scan(cfg, 0.0)
        exact = generate_scan(cfg, 0.0, mode="exact")
        rel = scan.values / cfg.counts_per_point
        assert np.max(np.abs(rel - exact.values)) < 0.01

    def test_sampled_at_count_ceiling(self):
        # numpy's Poisson draw refuses a mean above ~9.2e18; the ceiling stays below it
        cfg = ExperimentConfig(dim=2, schedule=builtin_schedule(2), counts_per_point=MAX_COUNTS,
                               contrast=1.0)
        assert np.max(generate_scan(cfg, 0.0).values) > MAX_COUNTS // 2

    def test_t_out_of_range(self):
        cfg = ExperimentConfig(dim=2, schedule=builtin_schedule(2))
        with pytest.raises(ScheduleError):
            generate_scan(cfg, 1.5)

    def test_bad_mode(self):
        cfg = ExperimentConfig(dim=2, schedule=builtin_schedule(2))
        with pytest.raises(ConfigError):
            generate_scan(cfg, 0.0, mode="fancy")


class TestFringeMemo:
    """``generate_scan`` keeps each noise-free fringe in ``_mes_fringe``'s memo.

    A memo keyed on less than the numbers the fringe is computed from, or an
    entry that a scan shares, would change scans only once the memo is warm.
    """

    @staticmethod
    def schedules(tmp_path):
        path = tmp_path / "loop.json"  # a d = 3 table that is not cyclic
        path.write_text(json.dumps({"dim": 3, "breakpoints": [
            [0.0, [0, 0, 0]], [0.4, [200, -50, -150]], [1.0, [90, 0, -90]]]}))
        custom = load_schedule(path)
        builtins = [builtin_schedule(d) for d in (2, 3, 4)]
        return builtins + [custom, Squared(builtins[1]), Squared(custom)]

    @staticmethod
    def entry(cfg, t):
        """The memo's entry for this config at t."""
        xi = cfg.schedule(t)
        return _mes_fringe(cfg.dim, xi.tobytes(), cfg.theta_grid.tobytes(), cfg.contrast)

    def test_cold_and_warm_scans_identical(self, tmp_path):
        configs = [ExperimentConfig(dim=s.dim, schedule=s, rng_seed=5)
                   for s in self.schedules(tmp_path)]
        cases = [(cfg, t, mode) for cfg in configs for t in (0.0, 0.5, 1.0)
                 for mode in ("exact", "sampled")]
        cold = []
        for cfg, t, mode in cases:
            _mes_fringe.cache_clear()
            cold.append(generate_scan(cfg, t, mode).values)
        for i in range(0, len(cases), 6):  # one config's six scans: three fringes
            _mes_fringe.cache_clear()
            for _ in range(2):  # the first pass fills the memo, the second only reads it
                for (cfg, t, mode), values in zip(cases[i:i + 6], cold[i:i + 6]):
                    warm = generate_scan(cfg, t, mode).values
                    assert warm.dtype == values.dtype and warm.tobytes() == values.tobytes()
            info = _mes_fringe.cache_info()
            assert (info.misses, info.hits) == (3, 9)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_entry_read_only_and_never_handed_out(self, mode):
        cfg = ExperimentConfig(dim=3, schedule=builtin_schedule(3), contrast=1.0)
        scan = generate_scan(cfg, 0.5, mode)
        entry = self.entry(cfg, 0.5)
        assert not entry.flags.writeable
        assert not np.shares_memory(scan.values, entry)

    @pytest.mark.parametrize("field, value", [("contrast", 0.5),
                                              ("theta_grid", DEFAULT_THETA_GRID + 0.01),
                                              ("t", 1.0)], ids=["contrast", "grid", "t"])
    def test_configs_differing_in_one_number_get_their_own_fringe(self, field, value):
        cfg_a = ExperimentConfig(dim=3, schedule=builtin_schedule(3))
        cfg_b = cfg_a if field == "t" else dataclasses.replace(cfg_a, **{field: value})
        cases = ((cfg_a, 0.0), (cfg_b, value if field == "t" else 0.0))
        cold = []
        for cfg, t in cases:
            _mes_fringe.cache_clear()
            cold.append(generate_scan(cfg, t, "exact").values)
        assert not np.array_equal(cold[0], cold[1])
        _mes_fringe.cache_clear()  # one memo for both, b after a
        for (cfg, t), values in zip(cases, cold):
            np.testing.assert_array_equal(generate_scan(cfg, t, "exact").values, values)

    def test_seed_sweep_computes_each_fringe_once(self):
        _mes_fringe.cache_clear()
        for seed in range(10):
            for d in (2, 3, 4):  # a fresh config and schedule per seed, as a sweep builds them
                cfg = ExperimentConfig(dim=d, schedule=builtin_schedule(d), rng_seed=seed)
                generate_scan(cfg, 0.0), generate_scan(cfg, 1.0)
        info = _mes_fringe.cache_info()
        assert (info.misses, info.hits) == (6, 54)

    @pytest.mark.parametrize("reshape", [lambda xi: np.append(xi, 0.0),
                                         lambda xi: xi[:, None]], ids=["extra", "column"])
    def test_wrong_shape_phases_rejected(self, reshape):
        # a column holds the right bytes, so only a shape check tells it apart
        class Reshaped(PhaseSchedule):
            def __call__(self, t):
                return reshape(super().__call__(t))

        cfg = ExperimentConfig(dim=3, schedule=Reshaped(3, *builtin_schedule(3).breakpoints))
        _mes_fringe.cache_clear()
        for mode in ("exact", "sampled"):
            with pytest.raises(DimensionMismatchError):
                generate_scan(cfg, 0.5, mode)
        assert _mes_fringe.cache_info().currsize == 0


@st.composite
def scans(draw):
    """A scan on a drawn grid, with drawn counts or probabilities and t.

    The grid is kept only if its ``%.10g`` text is strictly increasing too,
    which ``read_scan`` requires.
    """
    degrees = np.sort(draw(st.lists(st.floats(-720.0, 720.0), min_size=1, max_size=40,
                                    unique=True)))
    thetas = np.deg2rad(degrees)
    text = [float(f"{th:.10g}") for th in np.rad2deg(thetas).tolist()]
    assume(np.all(np.diff(thetas) > 0.0) and np.all(np.diff(text) > 0.0))
    if draw(st.booleans()):
        values = draw(arrays(np.int64, thetas.size, elements=st.integers(0, 2**63 - 1)))
        mode = "sampled"
    else:
        values = draw(arrays(float, thetas.size, elements=st.floats(0.0, 1.0)))
        mode = "exact"
    return FringeScan(draw(st.floats(0.0, 1.0)), thetas, values, mode)


class TestScanIO:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(scans())
    def test_round_trip_property(self, scan):
        # values and t come back exactly; thetas come back as their %.10g text
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scan.csv"
            write_scan(scan, path, {"t": scan.t})
            loaded, metadata = read_scan(path)
        assert metadata == {"t": scan.t} and loaded.t == scan.t
        assert loaded.mode == scan.mode and loaded.values.dtype == scan.values.dtype
        assert loaded.values.tolist() == scan.values.tolist()
        text = [float(f"{th:.10g}") for th in np.rad2deg(scan.thetas).tolist()]
        assert loaded.thetas.tolist() == np.deg2rad(text).tolist()

    def test_sampled_round_trip(self, tmp_path):
        cfg = ExperimentConfig(dim=3, schedule=builtin_schedule(3), rng_seed=5)
        scan = generate_scan(cfg, 1.0)
        path = tmp_path / "scan.csv"
        write_scan(scan, path, scan_metadata(cfg, scan))
        loaded, meta = read_scan(path)
        np.testing.assert_array_equal(loaded.values, scan.values)
        np.testing.assert_allclose(loaded.thetas, scan.thetas, atol=1e-12)
        assert loaded.mode == "sampled"
        assert meta["dim"] == 3 and meta["seed"] == 5 and meta["t"] == 1.0
        assert meta["contrast"] == 0.35 and meta["counts_per_point"] == 1000
        assert meta["stream_version"] == 2

    def test_exact_round_trip(self, tmp_path):
        cfg = ExperimentConfig(dim=2, schedule=builtin_schedule(2))
        scan = generate_scan(cfg, 0.5, mode="exact")
        path = tmp_path / "exact.csv"
        write_scan(scan, path, scan_metadata(cfg, scan))
        loaded, meta = read_scan(path)
        assert loaded.mode == "exact"
        assert "stream_version" not in meta
        np.testing.assert_allclose(loaded.values, scan.values, atol=0.0)

    def test_read_rejects_other_csv(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            read_scan(path)

    @pytest.mark.parametrize("sidecar", [
        '{"schema_version": 1, "dim": 2, "t": ',
        '[1, 2, 3]',
        '{"t": "soon"}',
        '{"t": [0.5]}',
    ])
    def test_read_rejects_bad_sidecar(self, tmp_path, sidecar):
        cfg = ExperimentConfig(dim=2, schedule=builtin_schedule(2))
        path = tmp_path / "scan.csv"
        write_scan(generate_scan(cfg, 0.0, mode="exact"), path)
        path.with_suffix(".json").write_text(sidecar)
        with pytest.raises(ConfigError, match="sidecar"):
            read_scan(path)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_write_matches_csv_writer(self, tmp_path, mode):
        # the csv module loop that wrote scans before, kept as the byte reference
        cfg = ExperimentConfig(dim=3, schedule=builtin_schedule(3), rng_seed=5,
                               theta_grid=np.linspace(0.0, np.pi, 97))
        scan = generate_scan(cfg, 0.25, mode=mode)
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        if mode == "sampled":
            writer.writerow(["theta_deg", "counts"])
            for th, v in zip(scan.thetas, scan.values):
                writer.writerow([f"{np.rad2deg(th):.10g}", int(v)])
        else:
            writer.writerow(["theta_deg", "probability"])
            for th, v in zip(scan.thetas, scan.values):
                writer.writerow([f"{np.rad2deg(th):.10g}", f"{v:.17g}"])
        path = tmp_path / "scan.csv"
        write_scan(scan, path)
        assert path.read_bytes() == ref.getvalue().encode()
        assert read_scan(path)[0].values.tolist() == scan.values.tolist()

    @pytest.mark.parametrize("body, match", [
        (b"theta_deg,counts\r\n0,12\r\n5\r\n", "corrupt scan data"),  # ragged row
        (b"theta_deg,counts\r\n0,twelve\r\n", "corrupt scan data"),
        (b"theta_deg,probability\r\nzero,0.5\r\n", "corrupt scan data"),
        (b"theta_deg,counts\r\n0,2.5\r\n", "corrupt scan data"),
        (b"theta_deg,counts\r\n0,12.0\r\n", "corrupt scan data"),
        (b"theta_deg,counts\r\n0,\r\n", "corrupt scan data"),
        (b"theta_deg,counts\r\n0,12 # note\r\n", "corrupt scan data"),
        (b"theta_deg,counts\r\n0,12\r\n \r\n5,13\r\n", "corrupt scan data"),
        (b"theta_deg,counts\r\n0,99999999999999999999\r\n", "corrupt scan data"),
        (b"theta_deg,counts\r\n0,\xff12\r\n", "corrupt scan data"),
        (b"\xfftheta_deg,counts\r\n0,12\r\n", "corrupt scan data"),
        (b"theta_deg,counts\r\n0,-3\r\n", "nonnegative"),
        (b"theta_deg,probability\r\n0,1.5\r\n", r"\[0, 1\]"),
        (b"theta_deg,counts\r\n5,1\r\n0,2\r\n", "strictly increasing"),
        (b"", "not a fringe scan"),
        (b"theta,counts\r\n0,12\r\n", "not a fringe scan"),
        (b"theta_deg\r\n0\r\n", "not a fringe scan"),
        (b"theta_deg,counts \r\n0,12\r\n", "not a fringe scan"),
    ])
    def test_read_rejects(self, tmp_path, body, match):
        path = tmp_path / "scan.csv"
        path.write_bytes(body)
        with pytest.raises(ConfigError, match=match):
            read_scan(path)

    @pytest.mark.parametrize("count", [b"2.5", b"12.0", b"99999999999999999999"])
    def test_read_rejects_non_integral_count_with_warnings_ignored(self, tmp_path, count):
        path = tmp_path / "scan.csv"
        path.write_bytes(b"theta_deg,counts\r\n0," + count + b"\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ConfigError, match="corrupt scan data"):
                read_scan(path)

    @pytest.mark.parametrize("body, theta_deg, values", [
        (b"theta_deg,counts,note\r\n0,12,a\r\n5,13\r\n", [0.0, 5.0], [12, 13]),
        (b"theta_deg,counts\r\n\r\n0,12\r\n\r\n5,13\r\n\r\n", [0.0, 5.0], [12, 13]),
        (b"theta_deg,counts\n0,12\n5,13", [0.0, 5.0], [12, 13]),
        (b"theta_deg,counts\r0,12\r5,13\r", [0.0, 5.0], [12, 13]),
        (b"theta_deg,counts\r\n 0 , +12 \r\n", [0.0], [12]),
        (b"theta_deg,probability\r\n0,1e-3\r\n2.5,0.5\r\n", [0.0, 2.5], [0.001, 0.5]),
        (b'theta_deg,counts\r\n"0","12"\r\n', [0.0], [12]),
        (b'"theta_deg","counts"\r\n"0","12","a,b"\r\n', [0.0], [12]),
        (b"theta_deg,probability\r\n", [], []),
        (b"theta_deg,probability\r\n\r\n", [], []),
    ])
    def test_read_accepts(self, tmp_path, body, theta_deg, values):
        # extra columns are ignored and empty lines skipped; a header alone is an empty scan
        path = tmp_path / "scan.csv"
        path.write_bytes(body)
        scan, meta = read_scan(path)
        assert meta is None and scan.t == 0.0
        assert scan.mode == ("sampled" if b"counts" in body else "exact")
        assert np.rad2deg(scan.thetas).tolist() == pytest.approx(theta_deg, abs=1e-12)
        assert scan.values.tolist() == values

    def test_read_rejects_corrupt_rows(self, tmp_path):
        path = tmp_path / "corrupt.csv"
        path.write_text("theta_deg,counts\n0,12\n5\n")
        with pytest.raises(ConfigError):
            read_scan(path)
        path.write_text("theta_deg,counts\n0,twelve\n")
        with pytest.raises(ConfigError):
            read_scan(path)
