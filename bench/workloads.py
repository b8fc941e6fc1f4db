"""The four benchmark workloads.

A workload is built once per process.  ``setup`` makes its inputs in a
fresh directory (``run.py`` repeats and times it); ``run_round``
performs one round of operations, the same operations in every round, and
checks their outputs; ``finish`` makes the checks that need the whole run.
Every call into the package goes through ``self.pkg`` or ``self.cli`` at
call time, so the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from clock import Clock

# Operations that fail on every round because of a fault in the package.
# They are counted in ``failed`` and do not make the run incorrect.
KNOWN_FAULTS = {
    "corrupt-sidecar": "fit on a scan with a corrupt .json sidecar should exit 2 with an "
                       "'error:' line; read_scan lets JSONDecodeError escape main()",
    "nan-probability": "fit on a probability CSV holding nan should exit 2; FringeScan "
                       "accepts NaN and the fit raises LinAlgError",
    "dim-shared-noise": "t = 0 scans of d = 2, 3, 4 under one seed should draw independent "
                        "noise; _point_rng keys substreams by (seed, t, index), not by dim",
}
MAX_PROBLEMS = 20
DIMS = (2, 3, 4)
THETAS_37 = np.deg2rad(np.arange(0.0, 180.0 + 1e-9, 5.0))


class Workload:
    name = ""
    work_unit = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.pkg = None
        self.cli = None
        self.tracer = None
        self.clock = Clock()
        self.round = 0  # set by run.py before each round
        # (round, kind, seconds, clock sample index) per timed operation; kind
        # "main" operations give the latency metrics, all give the busy time
        self.timings: list[tuple[int, str, float, int]] = []
        self.work = 0  # units of work_unit done by timed operations
        self.attempted = 0
        self.failed: collections.Counter = collections.Counter()
        self.problems: list[str] = []

    def bind(self, pkg, cli) -> None:
        self.pkg, self.cli = pkg, cli

    def setup(self, work_dir: Path) -> None:
        self.work_dir = work_dir

    def run_round(self, k: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def problem(self, text: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    def add(self, found: list[str]) -> None:
        for text in found:
            self.problem(text)

    def attempt(self, fn, fault: tuple[str, type] | None = None, timed: str | None = "main"):
        """Run one operation, timing it unless ``timed`` is None; returns (ok, value).

        ``fault`` is the label of a known fault and the exception it raises;
        only that exception is counted under the label.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        sample = self.clock.due()
        start = perf_counter()
        try:
            value, ok = fn(), True
        except Exception as exc:  # an operation's failure is counted, not fatal
            known = fault is not None and isinstance(exc, fault[1])
            label = fault[0] if known else f"unexpected-{type(exc).__name__}"
            self.fail(label, f"{type(exc).__name__}: {exc}")
            value, ok = None, False
        seconds = perf_counter() - start
        if timed is not None:
            self.timings.append((self.round, timed, seconds, sample))
        return ok, value

    def fail(self, label: str, detail: str) -> None:
        self.failed[label] += 1
        if label not in KNOWN_FAULTS:
            self.problem(f"operation failed ({label}): {detail}")

    def run_cli(self, *argv) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main([str(a) for a in argv])
        return code, out.getvalue(), err.getvalue()


def _write_probability_csv(path: Path, theta_deg, values) -> None:
    rows = ["theta_deg,probability"] + [f"{th:.10g},{v}" for th, v in zip(theta_deg, values)]
    path.write_text("\r\n".join(rows) + "\r\n")


def _read_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([float(r[0]) for r in rows]), np.array([float(r[1]) for r in rows])


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class CampaignExact(Workload):
    """`campaign` in exact mode, `fit --ref` on every written scan, two malformed scans."""

    name = "campaign-exact"
    work_unit = "scans written by campaign and refit from disk"
    T_VALUES = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
    THETA_STEP_DEG = 1.0  # 181 points, five times finer than the default 37
    CONTRAST = 0.35

    def __init__(self, seed: int):
        super().__init__(seed)
        self.digest = None

    def setup(self, work_dir: Path) -> None:
        super().setup(work_dir)
        self.spec = work_dir / "campaign.json"
        self.spec.write_text(json.dumps({
            "schema_version": 1, "dims": list(DIMS), "mode": "exact",
            "t_values": list(self.T_VALUES), "theta_step_deg": self.THETA_STEP_DEG,
            "contrast": self.CONTRAST, "seed": self.seed, "out_dir": "unused",
        }, indent=2))
        # The malformed scans do not depend on the seed: a d = 2, t = 0 fringe.
        theta_deg = np.arange(0.0, 180.0 + 1e-9, 5.0)
        values = [f"{v:.17g}" for v in checks.mes_fringe([0.0, 0.0], np.radians(theta_deg),
                                                         self.CONTRAST)]
        self.bad_sidecar = work_dir / "corrupt" / "scan.csv"
        self.bad_sidecar.parent.mkdir()
        _write_probability_csv(self.bad_sidecar, theta_deg, values)
        self.bad_sidecar.with_suffix(".json").write_text('{"schema_version": 1, "dim": 2, "t": ')
        values[10] = "nan"
        self.nan_scan = work_dir / "nan" / "scan.csv"
        self.nan_scan.parent.mkdir()
        _write_probability_csv(self.nan_scan, theta_deg, values)

    def run_round(self, k: int) -> None:
        out = self.work_dir / "rounds" / f"r{k}"
        camp, refit = out / "campaign", out / "refit"
        refit.mkdir(parents=True)

        ok, code = self.attempt(lambda: self.run_cli("campaign", self.spec, "--out", camp)[0])
        if ok and code != 0:
            self.fail("unexpected-exit", f"campaign exited {code}")
        for d in DIMS:
            for t in self.T_VALUES:
                argv = ("fit", camp / f"scan_d{d}_t{t:g}.csv", "--ref", camp / f"scan_d{d}_t0.csv",
                        "--out", refit / f"refit_d{d}_t{t:g}.json")
                ok, result = self.attempt(lambda: self.run_cli(*argv), timed="extra")
                if ok:
                    self._check_refit_exit(d, t, result)
        self.work += len(DIMS) * len(self.T_VALUES)

        for fault, path in ((("corrupt-sidecar", json.JSONDecodeError), self.bad_sidecar),
                            (("nan-probability", np.linalg.LinAlgError), self.nan_scan)):
            ok, result = self.attempt(lambda: self.run_cli("fit", path), fault=fault, timed=None)
            if ok and not (result[0] == 2 and result[2].startswith("error:")):
                self.fail("unexpected-exit", f"fit {path.parent.name}/{path.name}: "
                                             f"exit {result[0]}, stderr {result[2]!r}")

        digest = _tree_digest(out)
        if self.digest is None:
            self.digest = digest
            self._check_outputs(camp, refit)
        elif digest != self.digest:
            self.problem(f"round {k}: output files differ from round 0 (same flags, same inputs)")
        shutil.rmtree(out)

    def finish(self) -> None:
        # Made after the traced rounds, so that these calls are not traced.
        for d in DIMS:
            schedule = self.pkg.builtin_schedule(d)
            for t in self.T_VALUES:
                xi = np.asarray(schedule(t))
                if abs(float(np.sum(xi))) > checks.EXACT_TOL:
                    self.problem(f"d={d} t={t:g}: sum of xi = {np.sum(xi):.3e}")
                if np.max(np.abs(xi - checks.builtin_xi(d, t))) > checks.EXACT_TOL:
                    self.problem(f"d={d} t={t:g}: schedule {xi} differs from the table")

    def _check_refit_exit(self, d, t, result) -> None:
        code, _, err = result
        if t == 0.5:  # a flat fringe has no phase: the shift must be refused
            if code != 1 or "visibility" not in err:
                self.problem(f"fit --ref on flat d={d} t=0.5 scan: exit {code}, {err!r}")
        elif code != 0:
            self.problem(f"fit --ref d={d} t={t:g}: exit {code}, {err!r}")

    def _check_outputs(self, camp: Path, refit: Path) -> None:
        summary = json.loads((camp / "summary.json").read_text())
        shifts = {entry["dim"]: entry["shift_deg"] for entry in summary["results"]}
        n_points = int(round(180.0 / self.THETA_STEP_DEG)) + 1
        grid_deg = np.arange(n_points) * self.THETA_STEP_DEG
        for d in DIMS:
            if abs(shifts.get(d, math.nan) - 360.0 / d) > 1e-4:
                self.problem(f"d={d}: campaign shift {shifts.get(d)} deg, expected {360.0 / d}")
            for t in self.T_VALUES:
                label = f"scan d={d} t={t:g}"
                xi = checks.builtin_xi(d, t)
                theta_deg, values = _read_csv(camp / f"scan_d{d}_t{t:g}.csv")
                if not np.array_equal(theta_deg, grid_deg):
                    self.problem(f"{label}: theta column is not the {self.THETA_STEP_DEG} deg grid")
                    continue
                self.add(checks.check_exact_scan(
                    label, values, xi, np.radians(grid_deg), self.CONTRAST))
                if t == 0.5:
                    self.add(checks.check_flat(label, values))
                    continue
                fit = json.loads((camp / f"fit_d{d}_t{t:g}.json").read_text())["radians"]
                report = json.loads((refit / f"refit_d{d}_t{t:g}.json").read_text())
                if abs(report["fit"]["radians"]["phase"] - fit["phase"]) > checks.EXACT_TOL:
                    self.problem(f"{label}: refit phase {report['fit']['radians']['phase']!r} "
                                 f"!= campaign fit phase {fit['phase']!r}")
                if t == 1.0 and abs(report["shift"]["shift_deg"] - shifts[d]) > 1e-9:
                    self.problem(f"d={d}: refit shift {report['shift']['shift_deg']} deg != "
                                 f"campaign shift {shifts[d]} deg")


class SampledSweep(Workload):
    """The acceptance sweep in memory: per seed, for d = 2, 3, 4, two scans, two fits, one shift."""

    name = "sampled-sweep"
    work_unit = "phase shifts"
    COUNTS = 1000
    CONTRAST = 0.35

    def __init__(self, seed: int):
        super().__init__(seed)
        self.base = seed * 1_000_000  # sweep seeds base, base + 1, ... one per round
        self.means = {(d, t): self.COUNTS * checks.mes_fringe(checks.builtin_xi(d, t), THETAS_37,
                                                               self.CONTRAST)
                      for d in DIMS for t in (0.0, 1.0)}
        self.chi2 = {d: [0.0, 0] for d in DIMS}
        self.shifts = {d: [] for d in DIMS}
        self.covered = 0
        self.first_scans = {}

    def _shift(self, d: int, sweep_seed: int):
        pkg = self.pkg
        cfg = pkg.ExperimentConfig(dim=d, schedule=pkg.builtin_schedule(d), theta_grid=THETAS_37,
                                   counts_per_point=self.COUNTS, contrast=self.CONTRAST,
                                   rng_seed=sweep_seed)
        ref, op = pkg.generate_scan(cfg, 0.0), pkg.generate_scan(cfg, 1.0)
        shift, sigma = pkg.phase_shift(pkg.fit_fringe(ref), pkg.fit_fringe(op))
        return ref.values, op.values, math.degrees(shift), math.degrees(sigma)

    def run_round(self, k: int) -> None:
        sweep_seed = self.base + k
        scans = {}
        seed_covered = True
        for d in DIMS:
            ok, result = self.attempt(lambda: self._shift(d, sweep_seed))
            self.work += 1
            if not ok:
                seed_covered = False
                continue
            ref, op, shift, sigma = result
            scans[d] = (ref, op)
            for t, values in ((0.0, ref), (1.0, op)):
                chi2, n = checks.poisson_chi2(values, self.means[(d, t)])
                self.chi2[d][0] += chi2
                self.chi2[d][1] += n
            self.shifts[d].append(shift)
            seed_covered = seed_covered and checks.coverage_ok(shift, sigma, 360.0 / d)
        self.covered += seed_covered
        if k == 0:
            self.first_scans = scans

        self.attempted += 1
        mean = self.means[(2, 0.0)]  # t = 0 fringe is the same for every d
        if len(scans) == len(DIMS) and not all(
                checks.independent(scans[a][0], scans[b][0], mean)
                for a, b in ((2, 3), (2, 4), (3, 4))):
            self.fail("dim-shared-noise", f"seed {sweep_seed}")

    def finish(self) -> None:
        for d in DIMS:
            chi2, n = self.chi2[d]
            if n:
                self.add(checks.check_chi2(f"d={d} sampled counts", chi2, n))
            self.add(checks.check_shift_mean(f"d={d}", self.shifts[d], 360.0 / d))
        rounds = len(self.shifts[DIMS[0]])
        self.add(checks.check_coverage("sampled sweep", self.covered, rounds))
        for d, (ref, op) in self.first_scans.items():
            again = self._shift(d, self.base)
            if not (np.array_equal(ref, again[0]) and np.array_equal(op, again[1])):
                self.problem(f"d={d}: rerunning seed {self.base} changed the counts")


class KinematicLoop(Workload):
    """kinematic_phase at 10 000 steps: MES under the built-ins, and a random d = 6 loop."""

    name = "kinematic-loop"
    work_unit = "chain steps"
    STEPS = 10_000
    RANDOM_DIM = 6

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        d = self.RANDOM_DIM
        while True:
            amps = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            amps /= np.linalg.norm(amps)
            # Breakpoints on a 0.2 grid and phases within +/-600 deg keep every
            # chain step below ~0.011 rad, where 10 000 steps resolve the loop to
            # ~1e-11; steeper segments would measure the step size, not the code.
            inner = np.sort(rng.choice([0.2, 0.4, 0.6, 0.8], 3, replace=False))
            times = np.concatenate([[0.0], inner, [1.0]])
            phases = rng.uniform(-120.0, 120.0, size=(times.size, d)).round(4)
            phases[:, -1] = -phases[:, :-1].sum(axis=1)
            phases[0] = 0.0
            w = np.sum(np.abs(amps) ** 2, axis=1)
            if abs(np.sum(w * np.exp(1j * np.radians(phases[-1])))) > 0.05:
                break  # endpoints far from orthogonal, so the total phase is defined
        self.amps, self.times, self.phases = amps, times, phases
        self.expected = [checks.kinematic_closed_form(np.fliplr(np.eye(d)) / math.sqrt(d),
                                                      checks.builtin_xi(d, 1.0)) for d in DIMS]
        self.expected.append(checks.kinematic_closed_form(amps, np.radians(phases[-1])))

    def setup(self, work_dir: Path) -> None:
        super().setup(work_dir)
        schedule_path, state_path = work_dir / "schedule.json", work_dir / "state.json"
        schedule_path.write_text(json.dumps({
            "dim": self.RANDOM_DIM,
            "breakpoints": [[t, row.tolist()] for t, row in zip(self.times.tolist(), self.phases)],
        }))
        state_path.write_text(json.dumps({"dim": self.RANDOM_DIM, "real": self.amps.real.tolist(),
                                          "imag": self.amps.imag.tolist()}))
        pkg = self.pkg
        self.loops = [(pkg.make_antisymmetric_mes(d), pkg.builtin_schedule(d)) for d in DIMS]
        state = pkg.BipartiteQuditState.from_json_dict(json.loads(state_path.read_text()))
        self.loops.append((state, pkg.load_schedule(schedule_path)))

    def run_round(self, k: int) -> None:
        for (state, schedule), expected in zip(self.loops, self.expected):
            ok, kin = self.attempt(lambda: self.pkg.kinematic_phase(state, schedule, self.STEPS))
            self.work += self.STEPS
            if ok:
                self.add(checks.check_kinematic(
                    f"d={state.dim} loop", (kin.total, kin.dynamical, kin.geometric), expected))


class VerifySuite(Workload):
    """`sagnacsim verify --trials N --seed S`, a new seed every round."""

    name = "verify-suite"
    work_unit = "verify trials"
    TRIALS = 2000
    CHECKS = 5
    SAMPLE = 200

    def run_round(self, k: int) -> None:
        seed = self.seed * 1000 + k
        ok, result = self.attempt(
            lambda: self.run_cli("verify", "--trials", self.TRIALS, "--seed", seed))
        self.work += self.TRIALS
        if ok:
            code, out, _ = result
            if code != 0 or out.count("[PASS]") != self.CHECKS:
                self.problem(f"verify --seed {seed}: exit {code}\n{out}")

    def finish(self) -> None:
        rng = np.random.default_rng(self.seed)
        got, want = [], []
        for _ in range(self.SAMPLE):
            d = int(rng.integers(2, 7))
            amps = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            amps /= np.linalg.norm(amps)
            xi = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=d)
            theta, phi = rng.uniform(0.0, math.pi, size=2)
            state = self.pkg.BipartiteQuditState(d, amps)
            got += [self.pkg.coincidence_full(state, xi, theta),
                    self.pkg.circuit_oracle(state, xi, theta, phi)]
            want += [checks.coincidence_closed_form(amps, xi, theta)] * 2
        self.add(checks.check_close("coincidence_full and circuit_oracle vs the closed form",
                                    got, want))


WORKLOADS = {cls.name: cls for cls in (CampaignExact, SampledSweep, KinematicLoop, VerifySuite)}
