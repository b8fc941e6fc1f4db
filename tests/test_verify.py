import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sagnacsim
import sagnacsim.sagnac
from _helpers import frozen_on, random_state
from sagnacsim import (
    BipartiteQuditState,
    PhaseSchedule,
    jones,
    make_antisymmetric_mes,
    run_verification,
    verify,
)
from sagnacsim.cli import main


def test_full_suite_passes():
    results = run_verification(50, 0)
    names = {r.name for r in results}
    assert names == {
        "oracle-equivalence",
        "mes-reduction",
        "su-schedules",
        "phase-shifter",
        "kinematic-agreement",
    }
    for res in results:
        assert res.passed, f"{res.name}: {res.detail}"


def test_suite_accepts_fixed_state():
    results = run_verification(25, 1, state=make_antisymmetric_mes(3))
    assert all(r.passed for r in results)


def test_sign_error_in_phase_shifter_is_caught(monkeypatch):
    # mutate the plate stack the oracle uses: flip the shifter's sign
    real = jones.phase_shifter
    monkeypatch.setattr(
        sagnacsim.sagnac, "phase_shifter", lambda phi, theta: real(phi, -theta)
    )
    results = {r.name: r for r in run_verification(50, 0)}
    bad = results["oracle-equivalence"]
    assert not bad.passed
    assert "|diff|" in bad.detail  # counterexample reported


def test_detail_reports_max_deviation():
    results = {r.name: r for r in run_verification(10, 2)}
    assert "max |diff|" in results["oracle-equivalence"].detail
    assert "max |diff|" in results["mes-reduction"].detail


def test_random_state_normalized():
    rng = np.random.default_rng(0)
    s = random_state(rng, 5)
    assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1.0) < 1e-12


def run_cli(*argv):
    return main([str(a) for a in argv])


TAIL = (
    "[PASS] su-schedules: dims (2, 3, 4): traceless, cyclic at t=1\n"
    "[PASS] phase-shifter: 100 points, max err = 1.776e-15\n"
    "[PASS] kinematic-agreement: dims (2, 3, 4): |shift - geometric| <= 1e-06\n"
)
# stdout of `verify --trials 2000`, frozen from the block-at-a-time draws
FROZEN_STDOUT = {
    0: "[PASS] oracle-equivalence: 2000 trials, max |diff| = 1.110e-15\n"
       "[PASS] mes-reduction: 2000 trials, max |diff| = 6.661e-16\n" + TAIL,
    1: "[PASS] oracle-equivalence: 2000 trials, max |diff| = 9.992e-16\n"
       "[PASS] mes-reduction: 2000 trials, max |diff| = 7.772e-16\n" + TAIL,
    7: "[PASS] oracle-equivalence: 2000 trials, max |diff| = 1.443e-15\n"
       "[PASS] mes-reduction: 2000 trials, max |diff| = 7.772e-16\n" + TAIL,
}


@pytest.mark.parametrize("seed", sorted(FROZEN_STDOUT))
def test_verify_stdout_frozen(seed, capsys):
    assert run_cli("verify", "--trials", 2000, "--seed", seed) == 0
    assert capsys.readouterr().out == FROZEN_STDOUT[seed], frozen_on()


def test_verify_state_stdout_frozen(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({
        "dim": 3,
        "real": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, -0.5]],
        "imag": [[0, 0, 0.5], [0, 0, 0], [0, 0, 0]],
    }))
    assert run_cli("verify", "--trials", 2000, "--seed", 11, "--state", state) == 0
    assert capsys.readouterr().out == (
        "[PASS] oracle-equivalence: 2000 trials, max |diff| = 1.332e-15\n"
        "[PASS] mes-reduction: 2000 trials, max |diff| = 9.992e-16\n" + TAIL
    ), frozen_on()


# Faults that first fire in the second block of trials of seed 0, reported by
# their trial index in the whole run.
def test_oracle_failure_in_second_block(monkeypatch, capsys):
    real = verify.circuit_oracle
    monkeypatch.setattr(verify, "circuit_oracle", lambda s, xi, theta, phi=0.0: (
        real(s, xi, theta, phi) + (1e-9 if theta > 3.135 else 0.0)))
    assert verify.BLOCK <= 342 < 2 * verify.BLOCK
    assert run_cli("verify", "--trials", 2000, "--seed", 0) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "[FAIL] oracle-equivalence: trial 342: d=6 theta=3.135836 phi=0.954816 "
        "xi=[ 1.265105 -2.522274 -1.759885 -5.583535  1.618453 -5.555543] |diff|=1.000e-09"
    )


def test_mes_failure_in_second_block(monkeypatch, capsys):
    # qubits only: a d = 6 trial of the first block already has theta > 3.12
    real = verify.coincidence_mes
    monkeypatch.setattr(verify, "coincidence_mes", lambda d, xi, theta: (
        real(d, xi, theta) + np.where((np.asarray(theta) > 3.12) & (d == 2), 1e-9, 0.0)))
    assert verify.BLOCK <= 313 < 2 * verify.BLOCK
    assert run_cli("verify", "--trials", 2000, "--seed", 0) == 1
    assert capsys.readouterr().out.splitlines()[:2] == [
        "[PASS] oracle-equivalence: 2000 trials, max |diff| = 1.110e-15",
        "[FAIL] mes-reduction: trial 313: d=2 theta=3.126686 |diff|=1.000e-09",
    ]


# Seed 0 opens with dimensions 6, 5, 4, 3, 3, 2: a block evaluates its d = 2
# trials first, but trial 0 (d = 6) comes first in the run.
@pytest.mark.parametrize("faulty, first", [({2, 6}, "trial 0: d=6 "), ({2}, "trial 5: d=2 ")])
def test_first_failure_by_trial_index(monkeypatch, faulty, first):
    real, seen = verify.circuit_oracle, set()

    def oracle(s, xi, theta, phi=0.0):  # wrong on the first trial of each faulty dimension
        fault = s.dim in faulty and s.dim not in seen
        seen.add(s.dim)
        return real(s, xi, theta, phi) + (1e-9 if fault else 0.0)

    monkeypatch.setattr(verify, "circuit_oracle", oracle)
    result = verify.check_oracle_equivalence(20, np.random.default_rng(0))
    assert not result.passed and result.detail.startswith(first), result.detail


class RecordingGenerator:
    """Forwards to a numpy Generator and records the name of each method called."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


def test_oracle_calls_once_per_trial_on_a_state(monkeypatch):
    real, calls = verify.circuit_oracle, []
    monkeypatch.setattr(verify, "circuit_oracle",
                        lambda s, *args: calls.append(s) or real(s, *args))
    rng = RecordingGenerator(3)
    assert verify.check_oracle_equivalence(600, rng).passed
    assert len(calls) == 600 and all(isinstance(s, BipartiteQuditState) for s in calls)
    assert rng.calls.count("integers") == 3  # one per block of dimensions


def test_state_run_uses_only_its_dimension(monkeypatch):
    state, real, calls = make_antisymmetric_mes(3), verify.circuit_oracle, []
    monkeypatch.setattr(verify, "circuit_oracle",
                        lambda s, *args: calls.append(s) or real(s, *args))
    rng = RecordingGenerator(4)
    result = verify.check_oracle_equivalence(300, rng, state)
    assert result.passed, result.detail
    assert len(calls) == 300 and all(s is state for s in calls)
    assert set(rng.calls) == {"uniform"}  # no dimension and no amplitude is drawn


def test_verify_does_not_import_numpy_ma():
    # np.unique imports numpy.ma, which adds ~1.5 MiB to the peak memory of a run
    package_root = str(Path(sagnacsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = ("import sys\nfrom sagnacsim.cli import main\n"
            "code = main(['verify', '--trials', '600'])\n"
            "sys.exit(code or ('numpy.ma' in sys.modules and 'numpy.ma was imported'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


# The built-in schedules pass both su-schedules checks, so each failure needs a stand-in.
def test_su_schedules_phase_sum_failure(monkeypatch, capsys):
    monkeypatch.setattr(verify, "check_su", lambda schedule: False)
    assert run_cli("verify", "--trials", 20, "--seed", 0) == 1
    assert capsys.readouterr().out.splitlines()[2] == (
        "[FAIL] su-schedules: d=2: phase sum nonzero")


def test_su_schedules_endpoint_failure(monkeypatch, capsys):
    # traceless and cyclic, but xi(1) = (240, 240, -480) deg ends the loop in sector 2, not 1
    winding_2 = PhaseSchedule(3, times=[0.0, 1.0],
                              values=np.deg2rad([[0.0, 0.0, 0.0], [240.0, 240.0, -480.0]]))
    real = verify.builtin_schedule
    monkeypatch.setattr(verify, "builtin_schedule", lambda d: winding_2 if d == 3 else real(d))
    assert run_cli("verify", "--trials", 20, "--seed", 0) == 1
    assert capsys.readouterr().out.splitlines()[2] == (
        "[FAIL] su-schedules: d=3: loop ends in sector n=2, not 1")


NAN = float("nan")


# A NaN value fails every comparison, so each check must compare as `not value <= tol`.
@pytest.mark.parametrize("check, route, nan_route", [
    ("oracle-equivalence", "circuit_oracle", lambda s, xi, theta, phi=0.0: NAN),
    ("mes-reduction", "coincidence_mes", lambda d, xi, theta: np.full(np.shape(theta), NAN)),
    ("phase-shifter", "phase_shifter", lambda phi, theta: np.diag([NAN, NAN])),
], ids=["oracle-equivalence", "mes-reduction", "phase-shifter"])
def test_nan_value_fails_its_check(monkeypatch, capsys, check, route, nan_route):
    monkeypatch.setattr(verify, route, nan_route)
    assert run_cli("verify", "--trials", 20, "--seed", 0) == 1
    out = capsys.readouterr().out
    assert out.count("[FAIL]") == 1 and f"[FAIL] {check}: " in out and "=nan" in out


def test_d6_failure_report_is_one_line(monkeypatch):
    # the first trial of seed 377 is d = 6, whose phases (one is -1.3e-3, so numpy
    # prints them in scientific notation) numpy would wrap at 75 characters
    monkeypatch.setattr(verify, "circuit_oracle", lambda s, xi, theta, phi=0.0: NAN)
    result = verify.check_oracle_equivalence(20, np.random.default_rng(377))
    assert result.detail.startswith("trial 0: d=6 ") and "\n" not in result.detail
    assert len(result.detail.partition("xi=")[2].partition(" |diff|")[0]) > 75


@pytest.mark.parametrize("phase", ["geometric", "dynamical"])
def test_nan_kinematic_phase_fails_agreement(monkeypatch, capsys, phase):
    real = verify.kinematic_phase
    monkeypatch.setattr(verify, "kinematic_phase", lambda *args: dataclasses.replace(
        real(*args), **{phase: NAN}))
    assert run_cli("verify", "--trials", 20, "--seed", 0) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "[FAIL] kinematic-agreement: d=2: "
        + ("shift=3.141592654 geometric=nan" if phase == "geometric" else "dynamical=nan"))


def test_kinematic_agreement_compares_on_the_circle(monkeypatch):
    # a shift of 1e-10 and a geometric phase of -1e-10 differ by 2e-10, not by 2 pi - 2e-10
    real = verify.kinematic_phase
    monkeypatch.setattr(verify, "phase_shift", lambda ref, op: (1e-10, 0.0))
    monkeypatch.setattr(verify, "kinematic_phase", lambda *args: dataclasses.replace(
        real(*args), geometric=-1e-10))
    result = verify.check_kinematic_agreement()
    assert result.passed, result.detail
