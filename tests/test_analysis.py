import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    NEGATIVE_AMPLITUDE_COUNTS,
    NEGATIVE_AMPLITUDE_THETAS,
    DiagonalPhaseOp,
    apply_signal_phases,
    circular_diff,
    inner_product,
)
from sagnacsim import (
    BipartiteQuditState,
    DegenerateLoopError,
    ExperimentConfig,
    FitError,
    FitResult,
    FringeScan,
    InvalidDimensionError,
    LowVisibilityError,
    PhaseSchedule,
    builtin_schedule,
    fit_fringe,
    fold_angle,
    generate_scan,
    kinematic_phase,
    make_antisymmetric_mes,
    phase_shift,
)
from sagnacsim.analysis import FIT_VERSION, MIN_VISIBILITY
from sagnacsim.sagnac import DEFAULT_THETA_GRID

THETAS = np.deg2rad(np.arange(0.0, 180.0 + 1e-9, 5.0))


def model_scan(amplitude, visibility, frequency, phase, thetas=THETAS):
    values = amplitude * (1.0 - visibility * np.cos(frequency * thetas + phase))
    return FringeScan(0.0, thetas, values, "exact")


class TestFitFringe:
    def test_exact_reference_fringe(self):
        # d=2, t=0, contrast 1: p = sin^2(2 theta) = (1 - cos(4 theta)) / 2,
        # which is the model with A = 1/2, v = 1, a = 4, b = 0
        cfg = ExperimentConfig(dim=2, schedule=builtin_schedule(2), contrast=1.0)
        fit = fit_fringe(generate_scan(cfg, 0.0, mode="exact"))
        assert fit.amplitude == pytest.approx(0.5, abs=1e-6)
        assert fit.visibility == pytest.approx(1.0, abs=1e-6)
        assert fit.frequency == pytest.approx(4.0, abs=1e-6)
        assert circular_diff(fit.phase, 0.0) < 1e-6

    def test_flat_scan_flagged(self):
        cfg = ExperimentConfig(dim=3, schedule=builtin_schedule(3))
        fit = fit_fringe(generate_scan(cfg, 0.5, mode="exact"))
        assert fit.visibility < 1e-6
        assert not fit.b_defined
        assert fit.termination == "flat"

    def test_poisson_regression_seed42(self):
        # frozen from a reference run: d=3, t=0, seed 42, defaults
        cfg = ExperimentConfig(dim=3, schedule=builtin_schedule(3), rng_seed=42)
        fit = fit_fringe(generate_scan(cfg, 0.0))
        assert fit.visibility == pytest.approx(0.339084688367, abs=1e-9)
        assert fit.phase == pytest.approx(6.129287720000, abs=1e-9)
        # statistical consistency with the injected parameters
        assert abs(fit.visibility - 0.35) < 3.0 * fit.sigmas[1]
        assert circular_diff(fit.phase, 0.0) < 3.0 * fit.phase_sigma

    def test_recovers_known_parameters(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            amplitude = rng.uniform(0.2, 0.45)
            visibility = rng.uniform(0.05, 1.0)
            frequency = rng.uniform(3.5, 4.5)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            fit = fit_fringe(model_scan(amplitude, visibility, frequency, phase))
            assert fit.amplitude == pytest.approx(amplitude, abs=1e-6)
            assert fit.visibility == pytest.approx(visibility, abs=1e-6)
            assert fit.frequency == pytest.approx(frequency, abs=1e-6)
            assert circular_diff(fit.phase, phase) < 1e-6

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_fringe(FringeScan(0.0, THETAS[:5], np.linspace(0.1, 0.5, 5), "exact"))

    def test_insufficient_span(self):
        thetas = np.deg2rad(np.linspace(0.0, 10.0, 12))
        values = 0.5 * (1.0 - np.cos(4.0 * thetas))
        with pytest.raises(FitError):
            fit_fringe(FringeScan(0.0, thetas, values, "exact"))

    def test_json_report_structure(self):
        fit = fit_fringe(model_scan(0.4, 0.5, 4.0, 1.0))
        report = fit.to_json_dict()
        assert report["degrees"]["phase_deg"] == pytest.approx(np.rad2deg(fit.phase))
        assert report["radians"]["phase"] == pytest.approx(fit.phase)
        assert len(report["radians"]["covariance"]) == 4
        assert report["b_defined"]
        assert report["fit_version"] == FIT_VERSION == 2
        assert report["iterations"] == fit.iterations >= 1
        assert report["termination"] == fit.termination

    # Bernoulli counts on short irregular grids, found by a seeded search: the
    # first ends with c0 < 0, so a negative visibility, the second with a
    # negative frequency; each must be flipped into the canonical form
    @pytest.mark.parametrize("thetas, counts, visibility, frequency, phase", [
        (NEGATIVE_AMPLITUDE_THETAS, NEGATIVE_AMPLITUDE_COUNTS,
         1.0, 3.9330432918839318, 5.640489580155415),
        ([0.0, 0.09, 0.38, 0.62, 0.64, 0.78, 1.04, 1.2, 1.22, 1.83],
         [0, 0, 1, 0, 0, 0, 1, 1, 0, 1], 0.95885132465934, 0.43158370047412875,
         0.7488747731258808),
    ], ids=["negative-visibility", "negative-frequency"])
    def test_canonical_form(self, thetas, counts, visibility, frequency, phase):
        fit = fit_fringe(FringeScan(0.0, np.array(thetas), np.array(counts), "sampled"))
        assert fit.visibility == pytest.approx(visibility, abs=1e-9)
        assert fit.frequency == pytest.approx(frequency, abs=1e-9)
        assert fit.phase == pytest.approx(phase, abs=1e-9)

    def test_flat_poisson_scan_needs_many_halvings(self):
        # with only two halvings per step this fit stalls after its first step
        counts = np.random.default_rng(31).poisson(500, DEFAULT_THETA_GRID.size)
        fit = fit_fringe(FringeScan(0.0, DEFAULT_THETA_GRID, counts, "sampled"))
        assert (fit.termination, fit.iterations) == ("converged", 14)

    def test_singular_normal_matrix_stalls(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        fit = fit_fringe(model_scan(0.4, 0.5, 4.0, 1.0))
        assert (fit.termination, fit.iterations) == ("stalled", 1)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_exact_builtin_scans_stop_at_the_floor(self, d):
        # exact data reaches the floating-point RSS floor within a few steps;
        # the loop must stop on the step size there, not spin or stall
        cfg = ExperimentConfig(dim=d, schedule=builtin_schedule(d),
                               theta_grid=np.deg2rad(np.arange(0.0, 180.0 + 1e-9, 1.0)))
        for t in (0.0, 0.125, 0.25, 0.375, 0.625, 0.75, 0.875, 1.0):
            fit = fit_fringe(generate_scan(cfg, t, mode="exact"))
            assert fit.iterations <= 3 and fit.termination in ("step", "converged"), (t, fit)


@st.composite
def fit_grids(draw):
    """Strictly increasing plate-angle grids of 37-181 points over [0, pi]."""
    n = draw(st.integers(37, 181))
    thetas = np.linspace(0.0, np.pi, n)
    jitter = draw(st.floats(0.0, 0.4))
    seed = draw(st.integers(0, 2**32 - 1))
    # interior points move by less than half a spacing, so the order holds
    thetas[1:-1] += jitter * np.pi / (n - 1) * np.random.default_rng(seed).uniform(-1, 1, n - 2)
    return thetas


class TestFitProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(amplitude=st.floats(0.2, 0.45), visibility=st.floats(0.05, 1.0),
           frequency=st.floats(3.5, 4.5), phase=st.floats(0.0, 2.0 * np.pi, exclude_max=True),
           thetas=fit_grids())
    def test_exact_data_recovered(self, amplitude, visibility, frequency, phase, thetas):
        fit = fit_fringe(model_scan(amplitude, visibility, frequency, phase, thetas))
        assert fit.amplitude == pytest.approx(amplitude, abs=1e-6)
        assert fit.visibility == pytest.approx(visibility, abs=1e-6)
        assert fit.frequency == pytest.approx(frequency, abs=1e-6)
        assert circular_diff(fit.phase, phase) < 1e-6

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(amplitude=st.floats(0.2, 0.45), log_visibility=st.floats(-10.0, -4.0),
           frequency=st.floats(3.5, 4.5), phase=st.floats(0.0, 2.0 * np.pi),
           thetas=fit_grids())
    def test_near_zero_visibility_returns(self, amplitude, log_visibility, frequency, phase,
                                          thetas):
        # not flat, but the frequency column of the Jacobian nearly vanishes
        fit = fit_fringe(model_scan(amplitude, 10.0**log_visibility, frequency, phase, thetas))
        assert isinstance(fit, FitResult)
        assert fit.termination in ("converged", "step", "stalled", "max-iterations")
        assert np.all(np.isfinite([fit.amplitude, fit.visibility, fit.frequency, fit.phase]))


class TestVisibilityEstimate:
    """Contrast (max - min) / (max + min) of exact scans, computed directly."""

    @staticmethod
    def contrast(scan):
        return (scan.values.max() - scan.values.min()) / (scan.values.max() + scan.values.min())

    def test_full_contrast(self):
        cfg = ExperimentConfig(dim=2, schedule=builtin_schedule(2), contrast=1.0)
        assert self.contrast(generate_scan(cfg, 0.0, mode="exact")) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_flat_at_half(self, d):
        cfg = ExperimentConfig(dim=d, schedule=builtin_schedule(d), contrast=1.0)
        assert self.contrast(generate_scan(cfg, 0.5, mode="exact")) < 1e-12

    def test_linear_contrast(self):
        cfg = ExperimentConfig(dim=2, schedule=builtin_schedule(2), contrast=0.35)
        assert self.contrast(generate_scan(cfg, 0.0, mode="exact")) == pytest.approx(
            0.35, abs=1e-12
        )


class TestPhaseShift:
    @pytest.mark.parametrize("d,expected_deg", [(2, 180.0), (3, 120.0), (4, 90.0)])
    def test_exact_fraction(self, d, expected_deg):
        cfg = ExperimentConfig(dim=d, schedule=builtin_schedule(d))
        ref = fit_fringe(generate_scan(cfg, 0.0, mode="exact"))
        op = fit_fringe(generate_scan(cfg, 1.0, mode="exact"))
        shift, sigma = phase_shift(ref, op)
        assert np.rad2deg(shift) == pytest.approx(expected_deg, abs=1e-9)
        assert sigma < 1e-9

    def test_low_visibility_rejected(self):
        cfg = ExperimentConfig(dim=3, schedule=builtin_schedule(3))
        ref = fit_fringe(generate_scan(cfg, 0.0, mode="exact"))
        flat = fit_fringe(generate_scan(cfg, 0.5, mode="exact"))
        with pytest.raises(LowVisibilityError):
            phase_shift(ref, flat)
        with pytest.raises(LowVisibilityError):
            phase_shift(flat, ref)

    def test_visibility_at_threshold_rejected(self):
        cfg = ExperimentConfig(dim=3, schedule=builtin_schedule(3))
        ref = fit_fringe(generate_scan(cfg, 0.0, mode="exact"))
        edge = dataclasses.replace(ref, visibility=MIN_VISIBILITY)
        with pytest.raises(LowVisibilityError):
            phase_shift(ref, edge)

    def test_negative_amplitude_rejected(self):
        good = fit_fringe(model_scan(0.4, 0.5, 4.0, 1.0))
        scan = FringeScan(0.0, np.array(NEGATIVE_AMPLITUDE_THETAS),
                          np.array(NEGATIVE_AMPLITUDE_COUNTS), "sampled")
        bad = fit_fringe(scan)
        assert bad.amplitude < 0.0 and bad.visibility > MIN_VISIBILITY
        with pytest.raises(LowVisibilityError, match=r"operated fit has amplitude -0\.198 <= 0"):
            phase_shift(good, bad)
        with pytest.raises(LowVisibilityError, match="reference fit has amplitude"):
            phase_shift(bad, good)

    def test_invariant_under_count_scaling(self):
        cfg = ExperimentConfig(dim=3, schedule=builtin_schedule(3), rng_seed=9)
        ref = generate_scan(cfg, 0.0)
        op = generate_scan(cfg, 1.0)
        shift_a, _ = phase_shift(fit_fringe(ref), fit_fringe(op))
        ref10 = FringeScan(ref.t, ref.thetas, ref.values * 10, "sampled")
        op10 = FringeScan(op.t, op.thetas, op.values * 10, "sampled")
        shift_b, _ = phase_shift(fit_fringe(ref10), fit_fringe(op10))
        assert circular_diff(shift_a, shift_b) < 1e-9


class TestKinematicPhase:
    def test_qutrit_builtin(self):
        # the chain on phase increments carries no rounding of the absolute phases
        kin = kinematic_phase(make_antisymmetric_mes(3), builtin_schedule(3), 10_000)
        assert abs(kin.geometric - 2.0 * np.pi / 3.0) <= 1e-14
        assert abs(kin.dynamical) < 1e-9

    def test_qubit_builtin(self):
        kin = kinematic_phase(make_antisymmetric_mes(2), builtin_schedule(2), 10_000)
        assert circular_diff(kin.geometric, np.pi) < 1e-8

    def test_null_schedule(self):
        sched = PhaseSchedule(2, "custom", times=[0.0, 1.0], values=np.zeros((2, 2)))
        kin = kinematic_phase(make_antisymmetric_mes(2), sched, 200)
        assert kin.total == pytest.approx(0.0, abs=1e-12)
        assert kin.dynamical == pytest.approx(0.0, abs=1e-12)
        assert kin.geometric == pytest.approx(0.0, abs=1e-12)

    def test_convergence_on_doubling(self):
        for d in (2, 3, 4):
            coarse = kinematic_phase(make_antisymmetric_mes(d), builtin_schedule(d), 10_000)
            fine = kinematic_phase(make_antisymmetric_mes(d), builtin_schedule(d), 20_000)
            assert circular_diff(fine.geometric, coarse.geometric) < 1e-8

    def test_schedule_output_not_written(self):
        sched = builtin_schedule(3)

        class ReadOnly:
            dim = sched.dim

            def __call__(self, t):
                xi = sched(t)
                xi.setflags(write=False)
                return xi

        mes = make_antisymmetric_mes(3)
        for steps in (1000, 1001):
            assert kinematic_phase(mes, ReadOnly(), steps) == kinematic_phase(mes, sched, steps)

    def test_reparameterization_invariance(self):
        for d in (2, 3, 4):
            sched = builtin_schedule(d)
            direct = kinematic_phase(make_antisymmetric_mes(d), sched, 10_000)
            warped = kinematic_phase(make_antisymmetric_mes(d), Squared(sched), 10_000)
            assert circular_diff(direct.geometric, warped.geometric) < 1e-8

    def test_dynamical_vanishes_for_random_su_schedules(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            d = int(rng.integers(2, 5))
            rows = [np.zeros(d)]
            for _ in range(3):
                row = rng.uniform(-np.pi, np.pi, d)
                rows.append(row - row.mean())  # traceless
            sched = PhaseSchedule(
                d, "custom", times=[0.0, 0.3, 0.7, 1.0], values=np.array(rows)
            )
            kin = kinematic_phase(make_antisymmetric_mes(d), sched, 2000)
            assert abs(kin.dynamical) < 1e-9

    def test_degenerate_loop_flagged(self):
        amps = np.diag([1.0, 1.0]).astype(complex) / np.sqrt(2.0)
        state = make_antisymmetric_mes(2).__class__(2, amps)
        sched = PhaseSchedule(
            2, "custom", times=[0.0, 1.0],
            values=[[0.0, 0.0], [np.pi / 2.0, -np.pi / 2.0]],
        )
        with pytest.raises(DegenerateLoopError):
            kinematic_phase(state, sched, 200)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            kinematic_phase(make_antisymmetric_mes(3), builtin_schedule(2), 200)

    def test_too_few_steps(self):
        with pytest.raises(FitError):
            kinematic_phase(make_antisymmetric_mes(2), builtin_schedule(2), 50)

    def test_json_report(self):
        kin = kinematic_phase(make_antisymmetric_mes(2), builtin_schedule(2), 200)
        report = kin.to_json_dict()
        assert report["degrees"]["geometric_deg"] == pytest.approx(180.0, abs=1e-4)
        assert report["steps"] == 200


class Squared:
    """A schedule run at t^2: the same loop along a curved parameterization."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def __call__(self, t):
        return self.inner(t * t)


def reference_kinematic(state, schedule, steps):
    """The per-step state chain: one phase-applied state per grid point."""
    states = [
        apply_signal_phases(state, DiagonalPhaseOp(state.dim, tuple(schedule(j / steps))))
        for j in range(steps + 1)
    ]

    def chain(stride):
        return sum(
            float(np.angle(inner_product(states[j], states[j + stride])))
            for j in range(0, steps + 1 - stride, stride)
        )

    total = float(np.angle(inner_product(states[0], states[-1])))
    dynamical = (4.0 * chain(1) - chain(2)) / 3.0 if steps % 2 == 0 else chain(1)
    return total, dynamical, fold_angle(total - dynamical)


class TestKinematicReference:
    def assert_matches_reference(self, state, sched, steps):
        kin = kinematic_phase(state, sched, steps)
        total, dynamical, geometric = reference_kinematic(state, sched, steps)
        assert abs(kin.total - total) < 1e-12
        assert abs(kin.dynamical - dynamical) < 1e-12
        # geometric near +/-pi may fold to either end of (-pi, pi]
        assert circular_diff(kin.geometric, geometric) < 1e-12

    @pytest.mark.parametrize("steps", [2000, 2001])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_mes_builtin(self, d, steps):
        self.assert_matches_reference(make_antisymmetric_mes(d), builtin_schedule(d), steps)

    @pytest.mark.parametrize("steps", [1000, 1001])
    def test_random_state_custom_schedule(self, steps):
        rng = np.random.default_rng(31)
        d = 5
        amps = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        state = BipartiteQuditState(d, amps / np.linalg.norm(amps))
        rows = [np.zeros(d)]
        for _ in range(3):
            row = rng.uniform(-np.pi, np.pi, d)
            rows.append(row - row.mean())
        sched = PhaseSchedule(d, "custom", times=[0.0, 0.2, 0.6, 1.0], values=np.array(rows))
        self.assert_matches_reference(state, sched, steps)

    def test_curved_schedule(self):
        # neighbouring increments differ all along a curved path, so the
        # half-grid chain must pair each increment with the one after it
        rng = np.random.default_rng(37)
        amps = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        state = BipartiteQuditState(3, amps / np.linalg.norm(amps))
        self.assert_matches_reference(state, Squared(builtin_schedule(3)), 2000)


class TestClosedLoopConsistency:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_interferometric_equals_kinematic(self, d):
        cfg = ExperimentConfig(dim=d, schedule=builtin_schedule(d))
        ref = fit_fringe(generate_scan(cfg, 0.0, mode="exact"))
        op = fit_fringe(generate_scan(cfg, 1.0, mode="exact"))
        shift, _ = phase_shift(ref, op)
        kin = kinematic_phase(make_antisymmetric_mes(d), builtin_schedule(d), 10_000)
        assert abs(shift - np.mod(kin.geometric, 2.0 * np.pi)) < 1e-6


def test_fold_angle_representative_interval():
    assert fold_angle(np.pi) == pytest.approx(np.pi)
    assert fold_angle(-np.pi) == pytest.approx(np.pi)
    assert fold_angle(3.0 * np.pi / 2.0) == pytest.approx(-np.pi / 2.0)
    assert fold_angle(0.1) == pytest.approx(0.1)
