import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    NEGATIVE_AMPLITUDE_COUNTS,
    NEGATIVE_AMPLITUDE_THETAS,
    DiagonalPhaseOp,
    Squared,
    apply_signal_phases,
    circular_diff,
    frozen_on,
    inner_product,
    reference_fit,
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
from sagnacsim import analysis
from sagnacsim.analysis import FIT_VERSION, MIN_VISIBILITY
from sagnacsim.sagnac import DEFAULT_THETA_GRID

THETAS = np.deg2rad(np.arange(0.0, 180.0 + 1e-9, 5.0))


def model_scan(amplitude, visibility, frequency, phase, thetas=THETAS):
    values = amplitude * (1.0 - visibility * np.cos(frequency * thetas + phase))
    return FringeScan(0.0, thetas, values, "exact")


def short_scan(seed):
    """Poisson counts at ~5e5 per point on 8-19 random angles over [0, pi], ends included."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 20))
    thetas = np.concatenate(([0.0], np.sort(rng.uniform(0.0, np.pi, n - 2)), [np.pi]))
    visibility, frequency = rng.uniform(0.05, 1.0), rng.uniform(3.5, 4.5)
    means = 5e5 * (1.0 - visibility * np.cos(frequency * thetas + rng.uniform(0.0, 2 * np.pi)))
    return FringeScan(0.0, thetas, rng.poisson(means), "sampled")


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
        assert fit.visibility == pytest.approx(0.339084612961, abs=1e-9)
        assert fit.phase == pytest.approx(6.129286286748, abs=1e-9)
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
        assert report["fit_version"] == FIT_VERSION == 5
        # exact data at a = 4: the linear start is the optimum, so no step is taken
        assert report["iterations"] == fit.iterations == 0
        assert report["termination"] == fit.termination

    # Bernoulli counts on short irregular grids, found by a seeded search: the
    # first ends with c0 < 0, so a negative visibility, the second with a
    # negative frequency; each must be flipped into the canonical form
    @pytest.mark.parametrize("thetas, counts, visibility, frequency, phase", [
        (NEGATIVE_AMPLITUDE_THETAS, NEGATIVE_AMPLITUDE_COUNTS,
         1.0, 3.9330417400783992, 5.640492645422542),
        ([0.0, 0.09, 0.38, 0.62, 0.64, 0.78, 1.04, 1.2, 1.22, 1.83],
         [0, 0, 1, 0, 0, 0, 1, 1, 0, 1], 0.95885132465934, 0.43158370047412875,
         0.7488747731258808),
    ], ids=["negative-visibility", "negative-frequency"])
    def test_canonical_form(self, thetas, counts, visibility, frequency, phase):
        fit = fit_fringe(FringeScan(0.0, np.array(thetas), np.array(counts), "sampled"))
        assert fit.visibility == pytest.approx(visibility, abs=1e-9)
        assert fit.frequency == pytest.approx(frequency, abs=1e-9)
        assert fit.phase == pytest.approx(phase, abs=1e-9)

    def test_flipped_frequency_covariance(self):
        # the chain rule from (c0, c1, c2, a) to (A, v, a, b) flips c2 and a with the
        # frequency; the Jacobian of fit_version 2 at the canonical point agrees
        thetas = np.array([0.0, 0.09, 0.38, 0.62, 0.64, 0.78, 1.04, 1.2, 1.22, 1.83])
        counts = np.array([0, 0, 1, 0, 0, 0, 1, 1, 0, 1])
        scan = FringeScan(0.0, thetas, counts, "sampled")
        new, old = fit_fringe(scan), reference_fit(scan)
        assert np.abs(new.covariance - old.covariance).max() <= 1e-9 * np.abs(old.covariance).max()

    def test_flat_poisson_scan_needs_many_halvings(self):
        # with only two halvings per step this fit stalls after its first step
        counts = np.random.default_rng(31).poisson(500, DEFAULT_THETA_GRID.size)
        fit = fit_fringe(FringeScan(0.0, DEFAULT_THETA_GRID, counts, "sampled"))
        assert (fit.termination, fit.iterations) == ("converged", 14)

    def test_singular_normal_matrix_stalls(self, monkeypatch):
        real, calls = analysis._cholesky, []

        def singular(normal):  # the start solves; the first decrement's normal loses its a-row
            calls.append(normal)
            if len(calls) == 2:
                normal = [row[:3] + [0.0, row[4]] for row in normal[:3]] + [[0.0] * 5]
            return real(normal)

        monkeypatch.setattr(analysis, "_cholesky", singular)
        fit = fit_fringe(model_scan(0.4, 0.5, 4.0, 1.0))
        assert (fit.termination, fit.iterations) == ("stalled", 0)

    def test_singular_covariance_raises(self, monkeypatch):
        real = analysis._inverse_factor
        monkeypatch.setattr(analysis, "_inverse_factor", lambda normal: real([[0.0] * 5] * 4))
        with pytest.raises(FitError, match="singular covariance at v = 0.5, A = 0.4"):
            fit_fringe(model_scan(0.4, 0.5, 4.0, 1.0))

    def test_angles_on_one_fringe_point_rejected(self):
        # 4 theta is a multiple of 2 pi at every point: no fringe can be fitted
        thetas = np.deg2rad(np.arange(0.0, 720.0, 90.0))
        counts = np.array([3, 5, 3, 5, 3, 5, 3, 5])
        with pytest.raises(FitError, match="resolve no fringe"):
            fit_fringe(FringeScan(0.0, thetas, counts, "sampled"))

    def test_angles_on_two_fringe_points_rejected(self):
        # every theta a multiple of 45 degrees puts 4 theta on two points mod 2 pi: the
        # start is singular in exact arithmetic, but sin 4 theta ~ 1e-16 leaves it
        # solvable in floats, with a sin coefficient that is rounding noise
        thetas = np.deg2rad(np.arange(0.0, 360.0, 45.0))
        counts = np.array([1, 2, 1, 3, 1, 2, 1, 5])
        with pytest.raises(FitError, match="resolve no fringe"):
            fit_fringe(FringeScan(0.0, thetas, counts, "sampled"))

    @pytest.mark.parametrize("step_deg", [5.0, 1.0], ids=["37-point", "181-point"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_reference_phase_below_two_pi(self, d, step_deg):
        # at t = 0 the fitted phase is 0 up to rounding, which may be a tiny negative
        # number; it must fold to 0, not to 2 pi
        grid = np.deg2rad(np.arange(0.0, 180.0 + 1e-9, step_deg))
        cfg = ExperimentConfig(dim=d, schedule=builtin_schedule(d), theta_grid=grid)
        fit = fit_fringe(generate_scan(cfg, 0.0, mode="exact"))
        assert 0.0 <= fit.phase < 2.0 * np.pi

    def test_agrees_with_reference_fit(self):
        # the one-buffer fit runs the steps of the numpy reference: same stop, same numbers;
        # the short high-count scans end where the RSS left is rounding-sized, where a stop
        # on the RSS change flipped between converged and stalled with the last ulps
        grid = np.deg2rad(np.arange(0.0, 180.0 + 1e-9, 1.0))
        scans = [generate_scan(ExperimentConfig(dim=d, schedule=builtin_schedule(d),
                                                theta_grid=grid), t, mode="exact")
                 for d in (2, 3, 4) for t in np.linspace(0.0, 1.0, 9)]
        for d, counts, t in itertools.product((2, 3, 4), (100, 1000), (0.0, 0.25, 1.0)):
            for seed in range(50):
                cfg = ExperimentConfig(dim=d, schedule=builtin_schedule(d), rng_seed=seed,
                                       counts_per_point=counts)
                scans.append(generate_scan(cfg, t))
        scans += [short_scan(seed) for seed in range(300)]
        for scan in scans:
            new, old = fit_fringe(scan), reference_fit(scan)
            label = (scan.mode, scan.t, scan.values[:3])
            assert (new.iterations, new.termination) == (old.iterations, old.termination), label
            assert circular_diff(new.phase, old.phase) <= 1e-8, label
            assert abs(new.visibility - old.visibility) <= 1e-9, label
            # exact scans end at an RSS of ~1e-30, where the covariance is rounding noise
            scale = max(np.abs(old.covariance).max(), 1e-20)
            assert np.abs(new.covariance - old.covariance).max() <= 1e-9 * scale, label

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_exact_builtin_scans_stop_at_the_floor(self, d):
        # exact data at a = 4 is fitted by the linear start, leaving an RSS of rounding
        # noise; the decrement's floor must stop the loop there, not spin or stall
        cfg = ExperimentConfig(dim=d, schedule=builtin_schedule(d),
                               theta_grid=np.deg2rad(np.arange(0.0, 180.0 + 1e-9, 1.0)))
        for t in (0.0, 0.125, 0.25, 0.375, 0.625, 0.75, 0.875, 1.0):
            fit = fit_fringe(generate_scan(cfg, t, mode="exact"))
            assert (fit.iterations, fit.termination) == (0, "converged"), (t, fit)


def random_normal(seed, log_scales=(0.0,) * 4):
    """[J^T J | J^T r] for a random 37 x 4 J, its columns scaled by 10^log_scales, and r."""
    j = np.random.default_rng(seed).normal(size=(37, 5))
    j[:, :4] *= 10.0 ** np.asarray(log_scales)
    return j[:, :4].T @ j


# [N | b] rows that are not positive definite, with what factoring them raises: a repeated
# column (pivot 0), an indefinite N (pivot -3) and a NaN entry (a NaN pivot, no error)
NOT_SPD = {
    "zero-pivot": ([[1.0, 1.0, 0.0, 0.0, 1.0], [1.0, 1.0, 0.0, 0.0, 1.0],
                    [0.0, 0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0, 1.0]], ZeroDivisionError),
    "indefinite": ([[1.0, 2.0, 0.0, 0.0, 1.0], [2.0, 1.0, 0.0, 0.0, 1.0],
                    [0.0, 0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0, 1.0]], ValueError),
    "nan-entry": ([[1.0, 0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0, 1.0],
                   [0.0, 0.0, 1.0, np.nan, 1.0], [0.0, 0.0, np.nan, 1.0, 1.0]], None),
}


class TestCholeskySolve:
    """The fit's Cholesky solve in Python floats against numpy's LAPACK routines."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           log_scales=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
    def test_solve_and_inverse_match_lapack(self, seed, log_scales):
        # column scales over six decades give cond(N) up to ~1e12; both routes are backward
        # stable, so each lies within a small multiple of cond(N) eps of the exact answer
        normal = random_normal(seed, log_scales)
        n, b = normal[:, :4], normal[:, 4]
        bound = 16.0 * np.linalg.cond(n) * np.finfo(float).eps
        solve, (*step, decrement) = np.linalg.solve(n, b), analysis._solve(normal.tolist())
        assert np.linalg.norm(step - solve) <= bound * np.linalg.norm(solve)
        # the decrement b.s = z.z: an error of bound |s| in s moves b.s by bound |b| |s|
        assert abs(decrement - b @ solve) <= bound * np.linalg.norm(b) * np.linalg.norm(solve)
        w = np.zeros((4, 4))
        w[np.tril_indices(4)] = analysis._inverse_factor(normal.tolist())
        inv = np.linalg.inv(n)
        assert np.linalg.norm(w.T @ w - inv, 2) <= bound * np.linalg.norm(inv, 2)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), log_amplitude=st.floats(-1.0, 3.0),
           visibility=st.floats(0.05, 1.0), phase=st.floats(0.0, 2.0 * np.pi),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_covariance_matches_chain_rule_inverse(self, seed, log_amplitude, visibility,
                                                   phase, sign):
        # fit_version 3 inverted C^T N C, C = d(c0, c1, c2, a) / d(A, v, a, b); G = C^-1
        normal, amp = random_normal(seed), 10.0**log_amplitude
        cb, sb = np.cos(phase), np.sin(phase)
        chain = np.array([[1.0, 0.0, 0.0, 0.0],
                          [-visibility * cb, -amp * cb, 0.0, amp * visibility * sb],
                          [sign * visibility * sb, sign * amp * sb, 0.0,
                           sign * amp * visibility * cb],
                          [0.0, 0.0, sign, 0.0]])
        old = np.linalg.inv(chain.T @ normal[:, :4] @ chain)
        new = analysis._covariance(normal.tolist(), amp, visibility, phase, sign)
        assert np.abs(new - old).max() <= 1e-10 * np.abs(old).max()

    @pytest.mark.parametrize("name", sorted(NOT_SPD))
    def test_not_positive_definite(self, monkeypatch, name):
        bad, error = NOT_SPD[name]
        assert np.isnan(analysis._solve(bad)).all()
        if error is not None:
            with pytest.raises(error):
                analysis._inverse_factor(bad)
        real, calls = analysis._cholesky, []

        def factor(normal):  # the start solves; every later factor is of the bad matrix
            calls.append(normal)
            return real(normal if len(calls) == 1 else bad)

        monkeypatch.setattr(analysis, "_cholesky", factor)
        if error is None:  # a NaN decrement and a NaN covariance, as LAPACK gave
            fit = fit_fringe(model_scan(0.4, 0.5, 4.0, 1.0))
            assert (fit.termination, fit.iterations) == ("stalled", 0)
        else:
            with pytest.raises(FitError, match="singular covariance at v = 0.5, A = 0.4"):
                fit_fringe(model_scan(0.4, 0.5, 4.0, 1.0))

    def test_no_linalg_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("fit_fringe called numpy.linalg")

        for name in ("solve", "inv", "lstsq", "pinv", "cholesky"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        for thetas in (THETAS, np.deg2rad(np.arange(0.0, 180.0 + 1e-9, 1.0))):
            fit = fit_fringe(model_scan(0.4, 0.5, 3.9, 1.0, thetas))  # a != 4: steps are taken
            assert (fit.iterations, fit.termination) == (4, "converged")


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
        assert fit.termination in ("converged", "stalled", "max-iterations")
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

    def test_negative_or_nan_phase_variance(self):
        cfg = ExperimentConfig(dim=3, schedule=builtin_schedule(3), rng_seed=5)
        fit = fit_fringe(generate_scan(cfg, 0.0))
        assert fit.phase_sigma > 0.0
        covariance = fit.covariance.copy()
        covariance[3, 3] = -1e-6  # contributes 0 to sigma
        negative = dataclasses.replace(fit, covariance=covariance)
        assert negative.phase_sigma == 0.0
        assert phase_shift(fit, negative)[1] == phase_shift(negative, fit)[1] == fit.phase_sigma
        covariance = fit.covariance.copy()
        covariance[3, 3] = np.nan
        nan = dataclasses.replace(fit, covariance=covariance)
        assert np.isnan(phase_shift(fit, nan)[1]) and np.isnan(phase_shift(nan, fit)[1])

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

    def test_shift_of_tiny_negative_difference_is_zero(self):
        fit = fit_fringe(model_scan(0.4, 0.5, 4.0, 1.0))
        ref, op = dataclasses.replace(fit, phase=0.0), dataclasses.replace(fit, phase=1e-17)
        shift, _ = phase_shift(ref, op)
        assert shift == 0.0

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
        sched = PhaseSchedule(2, times=[0.0, 1.0], values=np.zeros((2, 2)))
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
                d, times=[0.0, 0.3, 0.7, 1.0], values=np.array(rows)
            )
            kin = kinematic_phase(make_antisymmetric_mes(d), sched, 2000)
            assert abs(kin.dynamical) < 1e-9

    def test_degenerate_loop_flagged(self):
        amps = np.diag([1.0, 1.0]).astype(complex) / np.sqrt(2.0)
        state = make_antisymmetric_mes(2).__class__(2, amps)
        sched = PhaseSchedule(
            2, times=[0.0, 1.0],
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
        assert np.rad2deg(kin.geometric) == pytest.approx(180.0, abs=1e-4)
        assert kin.steps == 200


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
    @staticmethod
    def random_loop():
        """A random d = 5 state on a random traceless custom schedule."""
        rng = np.random.default_rng(31)
        d = 5
        amps = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        state = BipartiteQuditState(d, amps / np.linalg.norm(amps))
        rows = [np.zeros(d)]
        for _ in range(3):
            row = rng.uniform(-np.pi, np.pi, d)
            rows.append(row - row.mean())
        return state, PhaseSchedule(d, times=[0.0, 0.2, 0.6, 1.0], values=np.array(rows))

    @staticmethod
    def curved_loop():
        """A random d = 3 state on the built-in loop run at t^2."""
        rng = np.random.default_rng(37)
        amps = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        return BipartiteQuditState(3, amps / np.linalg.norm(amps)), Squared(builtin_schedule(3))

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
        self.assert_matches_reference(*self.random_loop(), steps)

    def test_curved_schedule(self):
        # neighbouring increments differ all along a curved path, so the
        # half-grid chain must pair each increment with the one after it
        self.assert_matches_reference(*self.curved_loop(), 2000)

    # sha256 of the float64 bytes of (total, dynamical, geometric), loop by loop,
    # from test_kinematic_numbers_frozen
    FROZEN_KINEMATIC_SHA256 = "ab8456e6bd566e1aa4618a66fd6307adab526498435c887e45cbdb8513a68f2e"

    def test_kinematic_numbers_frozen(self):
        """The bytes of the kinematic phases: the MES under the d = 2, 3, 4 built-ins at
        2000, 2001, 10 000 and 20 000 steps, the random d = 5 loop at 1000 and 1001,
        and the curved d = 3 loop at 2000.  Like the other frozen outputs it holds per
        platform only: the bytes move by about one ulp with the SIMD kernels numpy
        dispatches for float64 sin, cos and exp.
        """
        loops = [(make_antisymmetric_mes(d), builtin_schedule(d), steps)
                 for d in (2, 3, 4) for steps in (2000, 2001, 10_000, 20_000)]
        loops += [(*self.random_loop(), steps) for steps in (1000, 1001)]
        loops.append((*self.curved_loop(), 2000))
        digest = hashlib.sha256()
        for state, sched, steps in loops:
            kin = kinematic_phase(state, sched, steps)
            digest.update(np.array([kin.total, kin.dynamical, kin.geometric]).tobytes())
        assert digest.hexdigest() == self.FROZEN_KINEMATIC_SHA256, frozen_on()


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
