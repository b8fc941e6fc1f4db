"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line with the measured margin (visible with
``pytest -s`` or in the captured output), and fails loudly otherwise.
"""

import time

import numpy as np
import pytest

from _helpers import circular_diff, i_concurrence, random_state
from sagnacsim import (
    CampaignSpec,
    ExperimentConfig,
    FringeScan,
    builtin_schedule,
    circuit_oracle,
    coincidence_full,
    coincidence_mes,
    fit_fringe,
    fold_angle,
    generate_scan,
    kinematic_phase,
    make_antisymmetric_mes,
    phase_shift,
    phase_shifter,
    relative_phase,
    run_campaign,
)

THETAS_37 = np.deg2rad(np.arange(0.0, 180.0 + 1e-9, 5.0))
# reference measured shifts (value, tolerance) in degrees that sampled-mode
# extraction must stay statistically consistent with, per dimension
REFERENCE_SHIFTS_DEG = {2: (182.0, 7.0), 3: (126.0, 3.0), 4: (94.0, 3.0)}


def report(name, detail):
    print(f"ACCEPTANCE PASS: {name} ({detail})")


def test_exact_mode_fractional_phases(tmp_path):
    start = time.perf_counter()
    spec = CampaignSpec(dims=(2, 3, 4), mode="exact", out_dir=str(tmp_path))
    summary = run_campaign(spec)
    elapsed = time.perf_counter() - start
    worst = 0.0
    for entry in summary["results"]:
        expected = {2: 180.0, 3: 120.0, 4: 90.0}[entry["dim"]]
        err = abs(entry["shift_deg"] - expected)
        assert err < 1e-4, f"d={entry['dim']}: shift {entry['shift_deg']} deg"
        worst = max(worst, err)
    assert elapsed < 1.0, f"campaign took {elapsed:.2f} s"
    report("exact-mode fractional phases",
           f"max |shift - theory| = {worst:.2e} deg, {elapsed:.2f} s")


def test_measured_shift_consistency():
    start = time.perf_counter()
    agreeing_seeds = 0
    n_seeds = 100
    for seed in range(n_seeds):
        seed_ok = True
        for d, (measured_value, measured_tol) in REFERENCE_SHIFTS_DEG.items():
            cfg = ExperimentConfig(
                dim=d, schedule=builtin_schedule(d), theta_grid=THETAS_37,
                counts_per_point=1000, contrast=0.35, rng_seed=seed,
            )
            fit_ref = fit_fringe(generate_scan(cfg, 0.0))
            fit_op = fit_fringe(generate_scan(cfg, 1.0))
            shift, sigma = phase_shift(fit_ref, fit_op)
            shift_deg, sigma_deg = np.rad2deg(shift), np.rad2deg(sigma)
            # the run's 3-sigma band must reach the reference value +/- its
            # quoted tolerance
            if abs(shift_deg - measured_value) > 3.0 * sigma_deg + measured_tol:
                seed_ok = False
        agreeing_seeds += seed_ok
    elapsed = time.perf_counter() - start
    assert agreeing_seeds >= 95, f"only {agreeing_seeds}/100 seeds consistent"
    assert elapsed < 30.0, f"sampled campaign took {elapsed:.1f} s"
    report("measured-shift consistency",
           f"{agreeing_seeds}/100 seeds within band, {elapsed:.1f} s")


def test_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        state = random_state(rng, d)
        xi = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=d)
        theta = rng.uniform(0.0, np.pi)
        diff = abs(coincidence_full(state, xi, theta) - circuit_oracle(state, xi, theta))
        assert diff < 1e-12
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.1f} s"
    report("oracle equivalence", f"1000 triples, max |diff| = {worst:.2e}, {elapsed:.1f} s")


def test_mes_reduction():
    worst = 0.0
    for d in range(2, 7):
        rng = np.random.default_rng(100 + d)
        mes = make_antisymmetric_mes(d)
        for _ in range(1000):
            xi = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=d)
            theta = rng.uniform(0.0, np.pi)
            diff = abs(coincidence_full(mes, xi, theta) - coincidence_mes(d, xi, theta))
            assert diff < 1e-12
            worst = max(worst, diff)
    report("closed-form reduction on the entangled state",
           f"d = 2..6, 1000 draws each, max |diff| = {worst:.2e}")


def test_kinematic_cross_check():
    worst_geo, worst_dyn = 0.0, 0.0
    for d in (2, 3, 4):
        kin = kinematic_phase(make_antisymmetric_mes(d), builtin_schedule(d), 10_000)
        geo_err = abs(fold_angle(kin.geometric - 2.0 * np.pi / d))
        assert geo_err < 1e-8, f"d={d}: geometric {kin.geometric}"
        assert abs(kin.dynamical) < 1e-9, f"d={d}: dynamical {kin.dynamical}"
        worst_geo = max(worst_geo, geo_err)
        worst_dyn = max(worst_dyn, abs(kin.dynamical))
    report("kinematic cross-check",
           f"max geometric err = {worst_geo:.2e}, max |dynamical| = {worst_dyn:.2e}")


def test_zero_visibility_at_half_cycle():
    worst = 0.0
    for d in (2, 3, 4):
        cfg = ExperimentConfig(dim=d, schedule=builtin_schedule(d), contrast=1.0)
        scan = generate_scan(cfg, 0.5, mode="exact")
        spread = float(np.max(scan.values) - np.min(scan.values))
        assert spread < 1e-12, f"d={d}: spread {spread}"
        worst = max(worst, spread)
    report("zero visibility at t = 0.5", f"max fringe spread = {worst:.2e}")


def test_phase_shifter_contract():
    worst = 0.0
    for phi in np.linspace(0.0, np.pi, 10):
        for theta in np.linspace(0.0, np.pi, 10):
            err = circular_diff(relative_phase(phase_shifter(phi, theta)), 4.0 * theta)
            assert err < 1e-12
            worst = max(worst, err)
    report("phase-shifter contract", f"100-point grid, max err = {worst:.2e}")


def test_entanglement_bookkeeping():
    worst = 0.0
    for d in range(2, 9):
        err = abs(i_concurrence(make_antisymmetric_mes(d)) - np.sqrt(2.0 * (d - 1) / d))
        assert err < 1e-12
        worst = max(worst, err)
    report("entanglement bookkeeping", f"d = 2..8, max err = {worst:.2e}")


def test_fit_recovery():
    # exact branch: known parameters recovered to 1e-6
    rng = np.random.default_rng(55)
    worst_exact = 0.0
    for _ in range(20):
        amplitude = rng.uniform(0.2, 0.45)
        visibility = rng.uniform(0.05, 1.0)
        frequency = rng.uniform(3.5, 4.5)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        values = amplitude * (1.0 - visibility * np.cos(frequency * THETAS_37 + phase))
        fit = fit_fringe(FringeScan(0.0, THETAS_37, values, "exact"))
        errs = (abs(fit.visibility - visibility), abs(fit.frequency - frequency),
                circular_diff(fit.phase, phase))
        assert max(errs) < 1e-6
        worst_exact = max(worst_exact, max(errs))

    # sampled branch: 3-sigma coverage of the injected phase
    hits = 0
    n_trials = 1000
    for seed in range(n_trials):
        trial_rng = np.random.default_rng(seed)
        phase = trial_rng.uniform(0.0, 2.0 * np.pi)
        mean = 1000 * 0.5 * (1.0 - 0.35 * np.cos(4.0 * THETAS_37 + phase))
        counts = trial_rng.poisson(mean)
        fit = fit_fringe(FringeScan(0.0, THETAS_37, counts, "sampled"))
        if circular_diff(fit.phase, phase) <= 3.0 * fit.phase_sigma:
            hits += 1
    assert hits >= 0.99 * n_trials, f"coverage {hits}/{n_trials}"
    report("fit recovery",
           f"exact max err = {worst_exact:.2e}, 3-sigma coverage {hits}/{n_trials}")
