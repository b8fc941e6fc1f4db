"""Tests of the benchmark itself: each check accepts the program's output and
rejects a deliberately wrong input, and every workload runs one round.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import sagnacsim as S  # noqa: E402
from workloads import DIMS, THETAS_37, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("d", DIMS)
def test_exact_scan_check_rejects_scan_shifted_by_one_step(d):
    cfg = S.ExperimentConfig(dim=d, schedule=S.builtin_schedule(d), contrast=0.5)
    scan = S.generate_scan(cfg, 1.0, mode="exact")
    xi = checks.builtin_xi(d, 1.0)
    assert checks.check_exact_scan("ok", scan.values, xi, scan.thetas, 0.5) == []
    assert checks.check_exact_scan("shifted", np.roll(scan.values, 1), xi, scan.thetas, 0.5)
    assert checks.check_exact_scan("contrast", scan.values, xi, scan.thetas, 0.5 + 1e-9)


def test_flat_check_rejects_a_fringe():
    cfg = S.ExperimentConfig(dim=3, schedule=S.builtin_schedule(3))
    assert checks.check_flat("flat", S.generate_scan(cfg, 0.5, mode="exact").values) == []
    assert checks.check_flat("fringe", S.generate_scan(cfg, 0.25, mode="exact").values)


def test_builtin_tables_match_the_program():
    for d in DIMS:
        for t in np.linspace(0.0, 1.0, 41):
            assert np.max(np.abs(S.builtin_schedule(d)(t) - checks.builtin_xi(d, t))) < 1e-12


def test_chi2_check_rejects_counts_at_the_wrong_mean():
    rng = np.random.default_rng(0)
    means = np.tile(1000 * checks.mes_fringe(checks.builtin_xi(3, 1.0), THETAS_37, 0.35), 500)
    assert checks.check_chi2("ok", *checks.poisson_chi2(rng.poisson(means), means)) == []
    assert checks.check_chi2("high", *checks.poisson_chi2(rng.poisson(1.03 * means), means))
    assert checks.check_chi2("over", *checks.poisson_chi2(
        rng.poisson(means) + rng.integers(-20, 21, means.size), means))


def test_chi2_check_accepts_the_program_counts():
    chi2, n = 0.0, 0
    for seed in range(50):
        cfg = S.ExperimentConfig(dim=4, schedule=S.builtin_schedule(4), theta_grid=THETAS_37,
                                 rng_seed=seed)
        for t in (0.0, 1.0):
            means = 1000 * checks.mes_fringe(checks.builtin_xi(4, t), THETAS_37, 0.35)
            c, k = checks.poisson_chi2(S.generate_scan(cfg, t).values, means)
            chi2, n = chi2 + c, n + k
    assert checks.check_chi2("program", chi2, n) == []


def test_shift_checks_reject_a_biased_sample():
    rng = np.random.default_rng(1)
    shifts = rng.normal(120.0, 5.0, size=1000)
    assert checks.check_shift_mean("ok", shifts, 120.0) == []
    assert checks.check_shift_mean("biased", shifts + 1.0, 120.0)
    assert checks.check_shift_mean("too few to judge", shifts[:10] + 10.0, 120.0) == []
    hits = sum(checks.coverage_ok(s, 5.0, 120.0) for s in shifts)
    assert checks.check_coverage("ok", hits, shifts.size) == []
    hits = sum(checks.coverage_ok(s, 2.0, 120.0) for s in shifts)
    assert checks.check_coverage("narrow sigma", hits, shifts.size)
    assert checks.check_coverage("too few to judge", 0, 10) == []
    assert checks.coverage_ok(359.0, 1.0, 0.0)  # distances wrap around the circle


def test_independence_check_rejects_shared_noise():
    rng = np.random.default_rng(2)
    means = 1000 * checks.mes_fringe([0.0, 0.0], THETAS_37, 0.35)
    for _ in range(200):
        assert checks.independent(rng.poisson(means), rng.poisson(means), means)
    draw = rng.poisson(means)
    assert not checks.independent(draw, draw.copy(), means)


@pytest.mark.parametrize("d", DIMS)
def test_kinematic_check_rejects_wrong_phases(d):
    mes = S.make_antisymmetric_mes(d)
    kin = S.kinematic_phase(mes, S.builtin_schedule(d), 2000)
    closed = checks.kinematic_closed_form(mes.amplitudes, checks.builtin_xi(d, 1.0))
    assert abs(checks.fold(closed[2] - 2.0 * math.pi / d)) < 1e-12
    got = (kin.total, kin.dynamical, kin.geometric)
    assert checks.check_kinematic("ok", got, closed) == []
    assert checks.check_kinematic("geometric", (got[0], got[1], got[2] + 1e-7), closed)
    assert checks.check_kinematic("dynamical", (got[0], got[1] + 1e-8, got[2]), closed)
    w = np.arange(1.0, d + 1) ** 2
    weighted = np.diag(np.sqrt(w / w.sum()))  # row weights other than 1/d
    wrong = checks.kinematic_closed_form(weighted, checks.builtin_xi(d, 1.0))
    assert checks.check_kinematic("weights", got, wrong)


def test_coincidence_closed_form_rejects_a_wrong_angle():
    rng = np.random.default_rng(3)
    for d in (2, 3, 5):
        amps = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        amps /= np.linalg.norm(amps)
        xi, theta = rng.uniform(-6.0, 6.0, size=d), 0.7
        got = S.coincidence_full(S.BipartiteQuditState(d, amps), xi, theta)
        want = checks.coincidence_closed_form(amps, xi, theta)
        assert checks.check_close("ok", got, want) == []
        wrong = checks.coincidence_closed_form(amps, xi, theta + 1e-6)
        assert checks.check_close("theta", got, wrong)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == {**{k: v[0] for k, v in run.PER_LAYER.items()}, "trace.overhead_pct": "%"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_other_failures_on_a_known_fault_path_are_unexpected():
    wl = WORKLOADS["campaign-exact"](seed=7)
    fault = ("corrupt-sidecar", json.JSONDecodeError)
    wl.attempt(lambda: json.loads("{"), fault=fault, timed=None)
    assert wl.failed == {"corrupt-sidecar": 1} and wl.problems == []
    wl.attempt(lambda: None + 1, fault=fault, timed=None)
    assert wl.failed["unexpected-TypeError"] == 1 and len(wl.problems) == 1


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_round_of_each_workload(name, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run_workload(name, seed=7, seconds=1e-3, trace=trace)
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code == 0 and result["correct"], out.getvalue()
    expected = set(run.PER_LAYER) | {"trace.overhead_pct"} if trace else set(run.END_TO_END_UNITS)
    assert set(result["metrics"]) == expected
    assert 0 <= result["failed"] < result["attempted"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "campaign-exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
