"""Mutation probe: does the tier-1 suite fail when the code is wrong?

    python mutation/run.py

Copies ``src/``, ``tests/`` and ``pyproject.toml`` into ``.mutation_work/`` and
runs the suite there unmutated under the ``reach.py`` plugin.  Each mutant (a
``raise`` in ``src/sagnacsim`` made ``pass``, or a ``MUTANTS`` row) then runs
``pytest -q -x -p no:cacheprovider`` on the tests that reach its lines, and the
full suite if none does or it survives them; a failing run means ``caught``.

Exit codes: 0 every mutant behaved as expected (``caught``, or ``equivalent``
for a row that says why); 1 some did not; 2 the probe could not run: the
unmutated suite fails, or a row's old text does not occur exactly once.
"""

import ast
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".mutation_work"

# Source of a fringe memo keyed without argument ``index`` of ``_mes_fringe``: a miss
# computes with the caller's value, a hit returns a fringe computed for another one.
MEMO_WITHOUT = """def _memo_without(fringe, index={index}):
    last = [None]
    memo = functools.lru_cache(maxsize=8)(
        lambda *key: fringe(*key[:index], last[0], *key[index:]))

    def call(*args):
        last[0] = args[index]
        return memo(*args[:index], *args[index + 1:])
    call.cache_clear, call.cache_info = memo.cache_clear, memo.cache_info
    return call


@_memo_without
"""

# (file in src/sagnacsim, old text, new text, expected, reason); no row restates a raise mutant
MUTANTS = [
    # the optics, the closed forms and the state
    ("sagnac.py", "h8 = hwp(np.pi / 8.0)", "h8 = hwp(np.pi / 8.0 + 1e-6)", "caught",
     "the 22.5 deg plate off by 1e-6 rad"),
    ("sagnac.py", "eraser_2 = hwp(-np.pi / 8.0)", "eraser_2 = hwp(np.pi / 8.0)", "caught",
     "second eraser at +45 deg"),
    ("sagnac.py", "(1j * 1j)", "(1j)", "caught", "one factor i for two V reflections"),
    ("jones.py", "_QWP_IN = qwp(-np.pi / 4.0)", "_QWP_IN = qwp(-np.pi / 4.0 + 1e-9)", "caught",
     "fixed quarter wave plate off by 1e-9 rad"),
    ("jones.py", "return 0.0 if y == TWO_PI else y", "return y", "caught", "phase of exactly 2 pi"),
    ("sagnac.py", "np.swapaxes(amplitudes, -1, -2)", "amplitudes", "caught",
     "closed form without the transpose"),
    ("qudit.py", "amps[np.arange(d), d - 1 - np.arange(d)]", "amps[np.arange(d), np.arange(d)]",
     "caught", "diagonal support in place of anti-diagonal"),
    # schedules and scans: model, sampling and IO
    ("schedule.py", "bisect.bisect_right(self._times, x)", "bisect.bisect_left(self._times, x)",
     "caught", "scalar t on a knot evaluated on the segment before it"),
    ("schedule.py", "np.searchsorted(flat, self._times)",
     'np.searchsorted(flat, self._times, side="right")', "caught",
     "array t on a knot evaluated on the segment before it"),
    ("schedule.py", "xi[order] = xi.copy()", "pass", "caught",
     "unsorted t answered in sorted order"),
    ("schedule.py", "np.all(flat[1:] >= flat[:-1])", "np.all(flat[1:] > flat[:-1])", "equivalent",
     "a sorted t with ties is argsorted and scattered back, to the same phases"),
    ("schedule.py", "check_su(schedule) and", "True and", "caught",
     "schedule file checked only at its breakpoint rows"),
    ("schedule.py", "round(schedule.dim * xi[0] / TWO_PI) % schedule.dim",
     "round(schedule.dim * xi[0] / TWO_PI)", "caught", "sector not reduced mod d"),
    ("schedule.py", "phasors[0])) <= SU_TOL", "phasors[0])) <= 1e-6", "caught",
     "endpoints 2e-12 apart read as cyclic"),
    ("sagnac.py", "grid = np.array(self.theta_grid, dtype=float)",
     "grid = np.asarray(self.theta_grid, dtype=float)", "caught",
     "config freezes the caller's theta grid"),
    ("sagnac.py", "thetas = np.array(self.thetas, dtype=float)",
     "thetas = np.asarray(self.thetas, dtype=float)", "caught", "scan freezes the caller's thetas"),
    ("sagnac.py", 'raise ConfigError(f"unknown scan mode {self.mode!r}")',
     "values = values.astype(float)", "caught", "unknown mode read as exact"),
    ("sagnac.py", "return int(round(t * 1_000_000))", "return int(round(t * 1_000))", "caught",
     "RNG stream keyed by t at 1e-3"),
    ("sagnac.py", "{th:.10g},", "{th:.9g},", "caught", "thetas written with %.9g"),
    ("sagnac.py", "except UnicodeDecodeError as exc:", "except KeyError as exc:", "caught",
     "undecodable scan bytes"),
    ("sagnac.py", 'if header[0] != "theta_deg" or header[1:2]', "if header[1:2]", "caught",
     "scan header's first column unchecked"),
    ("sagnac.py", "@functools.lru_cache(maxsize=8)\n", MEMO_WITHOUT.format(index=3), "caught",
     "fringe memo keyed without the contrast"),
    ("sagnac.py", "@functools.lru_cache(maxsize=8)\n", MEMO_WITHOUT.format(index=2), "caught",
     "fringe memo keyed without the theta grid"),
    ("sagnac.py", "    values.setflags(write=False)\n    return values\n", "    return values\n",
     "caught", "fringe memo entry left writeable"),
    ("sagnac.py", "values = values.astype(float)", "values = values.astype(float, copy=False)",
     "caught", "exact scan keeps the array it is given, a fringe memo entry included"),
    # the fit, the shift and the kinematic phase
    ("analysis.py", "if y_max - y_min <= 1e-12 * max(1.0, abs(y_max)):", "if y_max - y_min <= 0.0:",
     "caught", "flat data only when exactly flat"),
    ("analysis.py", 'return self.termination != "flat"', "return True", "caught",
     "flat fit read as having a phase"),
    ("analysis.py", "if vis < 0.0:", "if False:", "caught", "negative visibility kept"),
    ("analysis.py", "if freq < 0.0:", "if freq < -1.0:", "caught", "frequency in (-1, 0) kept"),
    ("analysis.py", "MAX_HALVINGS = 8", "MAX_HALVINGS = 2", "caught", "two step halvings"),
    ("analysis.py", "if decrement <= DECREMENT_TOL * rss + floor:",
     "if decrement <= 1e-6 * rss + floor:", "caught", "decrement tolerance 1e-6"),
    ("analysis.py", "DECREMENT_FLOOR * float(y @ y)", "0.0", "caught",
     "no rounding floor: exact data steps on rounding noise"),
    ("analysis.py", "return (math.nan,) * 5", "raise", "caught", "singular normal matrix"),
    ("analysis.py", "except (ValueError, ZeroDivisionError):", "except ZeroDivisionError:",
     "caught", "indefinite normal matrix raises out of the step"),
    ("analysis.py", "except (ValueError, ZeroDivisionError) as exc:",
     "except ZeroDivisionError as exc:", "caught", "singular covariance"),
    ("analysis.py", "row_a[3] = 1.0", "row_a[3] = 0.0", "caught", "start solved with a zero a-row"),
    ("analysis.py", "l32, z2 = (n23 - l20 * l30 - l21 * l31) / l22",
     "l32, z2 = (n23 - l20 * l30) / l22", "caught", "Cholesky factor missing one term"),
    ("analysis.py", "h1, h2 = sb / (amp * vis), sign * cb / (amp * vis)",
     "h1, h2 = sb / (amp * vis), cb / (amp * vis)", "caught",
     "phase row of G not flipped with the frequency"),
    ("analysis.py", "if det <= 1e-12 * ((n00 + n11 + n22) / 3.0) ** 3:", "if det <= 0.0:", "caught",
     "start refused only when exactly singular, not on a 45-degree grid"),
    ("analysis.py", "freq, phase, sign = -freq, -phase, -1.0", "freq, phase = -freq, -phase",
     "caught", "covariance of a flipped frequency"),
    ("analysis.py", "* (rss / (n - 4))", "* (rss / n)", "caught", "covariance scaled by RSS / n"),
    ("analysis.py", "fit.visibility <= MIN_VISIBILITY:", "fit.visibility < MIN_VISIBILITY:",
     "caught", "visibility exactly at the threshold accepted"),
    ("analysis.py", "_wrap(fit_ref.phase - fit_op.phase)", "_wrap(fit_op.phase - fit_ref.phase)",
     "caught", "shift of the wrong sign"),
    ("analysis.py", "dynamical = (4.0 * dynamical - chain(pairs)) / 3.0", "pass", "caught",
     "Richardson step dropped"),
    ("analysis.py", "increments[1::2]", "increments[0::2]", "caught",
     "half-resolution chain squares each even increment"),
    # campaign, CLI, verify and the figure
    ("campaign.py", '"sigma_deg": float(np.rad2deg(sigma)),', '"sigma_deg": float(sigma),',
     "caught", "campaign sigma left in radians"),
    ("cli.py", '"sigma_deg": float(np.rad2deg(sigma)),', '"sigma_deg": float(sigma),', "caught",
     "fit sigma left in radians"),
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
    ("verify.py", "if (n := expected_shift(sched)[1]) != 1:",
     "if (n := expected_shift(sched)[1]) is None:", "caught",
     "built-in schedule ending cyclic in sector 2 passes"),
    ("plotting.py", "if fit.b_defined:", "if True:", "caught",
     "fitted curve drawn through a flat fit"),
]


def mutants(src: Path) -> list:
    """(file, start byte, end byte, new text, expected, reason) of every mutant of ``src``."""
    found = []
    for path in sorted(src.glob("*.py")):
        source = path.read_bytes()
        starts = [0, *itertools.accumulate(map(len, source.splitlines(keepends=True)))]
        found += sorted((path.name, starts[n.lineno - 1] + n.col_offset,  # ast counts bytes
                         starts[n.end_lineno - 1] + n.end_col_offset, "pass", "caught", "generated")
                        for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Raise))
    for file, old, new, expected, reason in MUTANTS:
        source, old = (src / file).read_bytes(), old.encode()
        if source.count(old) != 1:
            raise ValueError(f"{file}: {old.decode()!r} occurs {source.count(old)} times, not once")
        found.append((file, source.index(old), source.index(old) + len(old), new, expected, reason))
    return found


def suite_fails(*args: str) -> tuple[bool, str]:
    """Run pytest on the copy; (failed, first failing test or else pytest's last line)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",  # no stale bytecode between mutants
               PYTHONPATH=os.pathsep.join(filter(None, [str(WORK / "src"), str(ROOT / "mutation"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *args], cwd=WORK, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))] or lines[-1:]
    return proc.returncode != 0, failed[0] if failed else ""


def main() -> int:
    start = time.perf_counter()
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "src", WORK / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", WORK / "tests",  # not the table's check: it reads src
                        ignore=shutil.ignore_patterns("__pycache__", "test_mutation_table.py"))
        shutil.copy2(ROOT / "pyproject.toml", WORK)
        try:
            found = mutants(WORK / "src" / "sagnacsim")
        except ValueError as exc:  # a row's old text does not occur once
            print(exc)
            return 2
        failed, first = suite_fails("-p", "reach")
        if failed:
            print(f"the unmutated suite fails: {first}")
            return 2
        reach, unexpected = json.loads((WORK / "reach.json").read_text()), 0
        for file, begin, end, new, expected, reason in found:
            source = (path := WORK / "src" / "sagnacsim" / file).read_bytes()
            line, last = (source.count(b"\n", 0, i) + 1 for i in (begin, end))
            tests = [reach["tests"][i] for i in sorted(set().union(
                *(reach["lines"].get(f"{file}:{n}", ()) for n in range(line, last + 1))))]
            path.write_bytes(source[:begin] + new.encode() + source[end:])
            caught, first = suite_fails(*tests) if tests else (False, "")
            if not caught:  # a survivor, or a mutant no test reaches, runs the full suite
                tests, (caught, first) = [], suite_fails()
            path.write_bytes(source)
            ok = caught == (expected == "caught")
            unexpected += not ok
            print(f"{'caught' if caught else 'survived':8} {file}:{line}: "
                  f"{source[begin:end].decode().splitlines()[0]!r} -> {new!r} ({reason}; "
                  f"tests: {len(tests) or 'all'})" + ("" if ok else "  UNEXPECTED")
                  + (f"\n         by {first}" if caught else ""), flush=True)
        print(f"{len(found)} mutants, {unexpected} unexpected, {time.perf_counter() - start:.0f} s")
        return 1 if unexpected else 0
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
