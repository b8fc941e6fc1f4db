"""Mutation probe: does the tier-1 suite fail when the code is wrong?

    python mutation/run.py

Copies ``src/``, ``tests/`` and ``pyproject.toml`` into ``.mutation_work/``
inside the checkout and runs the suite there, first on the unmutated copy and
then once per row of ``MUTANTS``.  A row is one exact text replacement in one
file of ``src/sagnacsim``; its old text must occur exactly once.  Each run is
``python -m pytest -q -x -p no:cacheprovider`` with ``PYTHONPATH`` on the
copy's ``src``, and a failing run means the mutant was ``caught``.  A row
expects ``caught``, or ``equivalent`` when the mutant cannot change behaviour,
with the reason why.  The work directory is removed on exit.

Exit codes: 0 every row behaved as expected; 1 some row did not (a mutant
marked ``caught`` survived, or one marked ``equivalent`` was caught); 2 the
probe could not run: the unmutated suite fails, which would make every mutant
read as caught, or a row's old text does not occur exactly once.
"""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".mutation_work"
# It checks this table against the unmutated source, so in a mutated copy it
# would fail on every row; the copy leaves it out.
GUARD_TEST = "test_mutation_table.py"

# (file in src/sagnacsim, old text, new text, expected, reason)
MUTANTS = [
    # the optics of the circuit oracle
    ("sagnac.py", "h8 = hwp(np.pi / 8.0)", "h8 = hwp(np.pi / 8.0 + 1e-6)", "caught",
     "the 22.5 deg plate off by 1e-6 rad"),
    ("sagnac.py", "eraser_2 = hwp(-np.pi / 8.0)", "eraser_2 = hwp(np.pi / 8.0)", "caught",
     "second eraser at +45 deg"),
    ("sagnac.py", "(1j * 1j)", "(1j)", "caught", "one factor i for two V reflections"),
    ("sagnac.py", "if xi.shape != (d,):", "if False:", "caught", "oracle phase length"),
    ("jones.py", "_QWP_IN = qwp(-np.pi / 4.0)", "_QWP_IN = qwp(-np.pi / 4.0 + 1e-9)",
     "caught", "fixed quarter wave plate off by 1e-9 rad"),
    ("jones.py", "if off > DIAG_OFFDIAG_TOL:", "if False:", "caught",
     "relative phase of a non-diagonal matrix"),
    # the closed forms and the state
    ("sagnac.py", "np.swapaxes(amplitudes, -1, -2)", "amplitudes", "caught",
     "closed form without the transpose"),
    ("sagnac.py", "if xi.shape[-1:] != (state.dim,):", "if False:", "caught",
     "coincidence_full phase length"),
    ("sagnac.py", "if xi.shape[-1:] != (d,):", "if False:", "caught",
     "coincidence_mes phase length"),
    ("qudit.py", "    if d < 2:", "    if False:", "caught", "MES of dimension below 2"),
    ("qudit.py", "if dim < 2:", "if False:", "caught", "state of dimension below 2"),
    ("qudit.py", "amps[np.arange(d), d - 1 - np.arange(d)]", "amps[np.arange(d), np.arange(d)]",
     "caught", "diagonal support in place of anti-diagonal"),
    # schedules
    ("schedule.py", "h = (t >= 0.5).astype(float)", "h = (t > 0.5).astype(float)", "equivalent",
     "every h-term carries a factor 2t - 1 or 1 - 2t, which is 0 at t = 0.5"),
    ("schedule.py", "if dim < 2:", "if False:", "caught", "custom schedule of dimension below 2"),
    ("schedule.py", "if times.size < 2:", "if False:", "caught",
     "custom schedule with no breakpoint"),
    ("schedule.py", "check_su(schedule) and", "True and", "caught",
     "schedule file checked only at its breakpoint rows"),
    ("schedule.py",
     "if times.ndim != 1 or values.ndim != 2 or values.shape != (times.size, self.dim):",
     "if False:", "caught", "breakpoint rows of the wrong width"),
    ("schedule.py", 'raise ScheduleError(f"unknown schedule kind {kind!r}")', "pass", "caught",
     "unknown schedule kind"),
    # scans: model, sampling and IO
    ("sagnac.py", "if grid.size == 0:", "if False:", "caught", "empty theta grid"),
    ("sagnac.py", "if (grid[1:] <= grid[:-1]).any():", "if False:", "caught",
     "non-increasing theta grid"),
    ("sagnac.py", "grid = np.array(self.theta_grid, dtype=float)",
     "grid = np.asarray(self.theta_grid, dtype=float)", "caught",
     "config freezes the caller's theta grid"),
    ("sagnac.py", "thetas = np.array(self.thetas, dtype=float)",
     "thetas = np.asarray(self.thetas, dtype=float)", "caught",
     "scan freezes the caller's thetas"),
    ("sagnac.py", "if not (np.isfinite(thetas).all() and np.isfinite(values).all()):",
     "if False:", "caught", "non-finite scan values"),
    ("sagnac.py", "if (thetas[1:] <= thetas[:-1]).any():", "if False:", "caught",
     "non-increasing scan thetas"),
    ("sagnac.py", "if values.shape != thetas.shape:", "if False:", "caught",
     "thetas and values of different shapes"),
    ("sagnac.py", 'raise ConfigError(f"unknown scan mode {self.mode!r}")',
     "values = values.astype(float)", "caught", "unknown mode read as exact"),
    ("sagnac.py", "return int(round(t * 1_000_000))", "return int(round(t * 1_000))", "caught",
     "RNG stream keyed by t at 1e-3"),
    ("sagnac.py", "{th:.10g},", "{th:.9g},", "caught", "thetas written with %.9g"),
    ("sagnac.py", "except UnicodeDecodeError as exc:", "except KeyError as exc:", "caught",
     "undecodable scan bytes"),
    ("sagnac.py", 'if header[0] != "theta_deg" or header[1:2]', "if header[1:2]", "caught",
     "scan header's first column unchecked"),
    # the fit and the shift
    ("analysis.py", "if y_max - y_min <= 1e-12 * max(1.0, abs(y_max)):",
     "if y_max - y_min <= 0.0:", "caught", "flat data only when exactly flat"),
    ("analysis.py", 'return self.termination != "flat"', "return True", "caught",
     "flat fit read as having a phase"),
    ("analysis.py", "if vis < 0.0:", "if False:", "caught", "negative visibility kept"),
    ("analysis.py", "if freq < 0.0:", "if freq < -1.0:", "caught",
     "negative frequency above -1 kept"),
    ("analysis.py", "MAX_HALVINGS = 8", "MAX_HALVINGS = 2", "caught", "two step halvings"),
    ("analysis.py", "return math.nan, math.nan, math.nan, math.nan", "raise", "caught",
     "singular normal matrix"),
    ("analysis.py", "except (ValueError, ZeroDivisionError):", "except ZeroDivisionError:",
     "caught", "indefinite normal matrix raises out of the step"),
    ("analysis.py", "except (ValueError, ZeroDivisionError) as exc:",
     "except ZeroDivisionError as exc:", "caught", "singular covariance"),
    ("analysis.py", "row_a[3] = 1.0", "row_a[3] = 0.0", "caught",
     "start solved with a zero a-row"),
    ("analysis.py", "l32, z2 = (n23 - l20 * l30 - l21 * l31) / l22",
     "l32, z2 = (n23 - l20 * l30) / l22", "caught", "Cholesky factor missing one term"),
    ("analysis.py", "h1, h2 = sb / (amp * vis), sign * cb / (amp * vis)",
     "h1, h2 = sb / (amp * vis), cb / (amp * vis)", "caught",
     "phase row of G not flipped with the frequency"),
    ("analysis.py", """raise FitError("the scan's angles resolve no fringe at a = 4")""",
     "pass", "caught", "singular start"),
    ("analysis.py", "if det <= 1e-12 * ((n00 + n11 + n22) / 3.0) ** 3:", "if det <= 0.0:",
     "caught", "start refused only when exactly singular, not on a 45-degree grid"),
    ("analysis.py", "freq, phase, sign = -freq, -phase, -1.0", "freq, phase = -freq, -phase",
     "caught", "covariance of a flipped frequency"),
    ("analysis.py", "* (rss / (n - 4))", "* (rss / n)", "caught",
     "covariance scaled by RSS / n"),
    ("analysis.py", "return 0.0 if y == TWO_PI else y", "return y", "caught",
     "phase of exactly 2 pi"),
    ("analysis.py", "fit.visibility <= MIN_VISIBILITY:", "fit.visibility < MIN_VISIBILITY:",
     "caught", "visibility exactly at the threshold accepted"),
    ("analysis.py", "_wrap(fit_ref.phase - fit_op.phase)",
     "_wrap(fit_op.phase - fit_ref.phase)", "caught", "shift of the wrong sign"),
    ("analysis.py", "if not fit.amplitude > 0.0:", "if False:", "caught",
     "fit with a negative amplitude accepted"),
    # the kinematic phase
    ("analysis.py", "dynamical = (4.0 * dynamical - dyn_coarse) / 3.0", "pass", "caught",
     "Richardson step dropped"),
    ("analysis.py", "increments[1::2]", "increments[0::2]", "caught",
     "half-resolution chain squares each even increment"),
    ("analysis.py", "if steps < 100:", "if False:", "caught", "too few steps"),
    ("analysis.py", "if schedule.dim != state.dim:", "if False:", "caught",
     "schedule and state of different dimensions"),
    # campaign, CLI and verify
    ("campaign.py", 'if self.mode not in ("exact", "sampled"):', "if False:", "caught",
     "campaign of an unknown mode"),
    ("campaign.py", "if not self.dims:", "if False:", "caught", "campaign with no dimension"),
    ("campaign.py", "if len(set(self.dims)) != len(self.dims):", "if False:", "caught",
     "repeated dimension"),
    ("campaign.py", 'if self.mode == "sampled" and len(set(keys)) != len(keys):', "if False:",
     "caught", "sampled t values sharing a noise stream"),
    ("campaign.py", "if self.schedule_file is not None and len(self.dims) != 1:", "if False:",
     "caught", "schedule file with two dimensions"),
    ("campaign.py", '"sigma_deg": float(np.rad2deg(sigma)),', '"sigma_deg": float(sigma),',
     "caught", "campaign sigma left in radians"),
    ("cli.py", '"sigma_deg": float(np.rad2deg(sigma)),', '"sigma_deg": float(sigma),',
     "caught", "fit sigma left in radians"),
    ("cli.py", 'if "dims" in fields or "t_values" in fields:', "if False:", "caught",
     "simulate config with dims or t_values"),
    ("cli.py", '_natural(args.seed, "--seed")', "None", "caught",
     "negative verify seed handed to the RNG"),
    ("verify.py", "if not diff <= ORACLE_TOL:", "if diff > ORACLE_TOL:", "caught",
     "NaN difference passes a cross-check"),
    ("verify.py", "precision=6, max_line_width=np.inf)", "precision=6)", "caught",
     "failure line wrapped at 75 characters"),
    ("verify.py", "abs(fold_angle(shift - kin.geometric))",
     "abs(shift - np.mod(kin.geometric, 2.0 * np.pi))", "caught",
     "shift and geometric phase compared off the circle"),
    ("verify.py", "if not check_su(sched):", "if False:", "caught",
     "built-in schedule with a nonzero phase sum passes"),
    ("verify.py", "err = abs(fold_angle(xi_k - 2.0 * np.pi / d))", "err = 0.0", "caught",
     "built-in schedule ending outside class 1 passes"),
    # the figure
    ("plotting.py", "if fit.b_defined:", "if True:", "caught",
     "fitted curve drawn through a flat fit"),
]


def suite_fails() -> tuple[bool, str]:
    """Run tier-1 on the copy; (failed, first failing test or else pytest's last line)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",  # no stale bytecode between mutants
               PYTHONPATH=os.pathsep.join(filter(None, [str(WORK / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
                          cwd=WORK, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))] or lines[-1:]
    return proc.returncode != 0, failed[0] if failed else ""


def main() -> int:
    start = time.perf_counter()
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "src", WORK / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", WORK / "tests",
                        ignore=shutil.ignore_patterns("__pycache__", GUARD_TEST))
        shutil.copy2(ROOT / "pyproject.toml", WORK)
        failed, first = suite_fails()
        if failed:
            print(f"the unmutated suite fails: {first}")
            return 2
        unexpected = 0
        for file, old, new, expected, reason in MUTANTS:
            path = WORK / "src" / "sagnacsim" / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{file}: {old!r} occurs {text.count(old)} times, not once")
                return 2
            path.write_text(text.replace(old, new))
            caught, first = suite_fails()
            path.write_text(text)
            ok = caught == (expected == "caught")
            unexpected += not ok
            print(f"{'caught' if caught else 'survived':8} {file}: {old!r} -> {new!r} ({reason})"
                  + ("" if ok else "  UNEXPECTED") + (f"\n         by {first}" if caught else ""),
                  flush=True)
        print(f"{len(MUTANTS)} mutants, {unexpected} unexpected, "
              f"{time.perf_counter() - start:.0f} s")
        return 1 if unexpected else 0
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
