"""Reference computations the benchmark checks the program against.

Everything here is written from the physics, not from the package: the
built-in schedules as breakpoint tables, the closed-form coincidence sum,
the maximally-entangled fringe, Poisson statistics and the kinematic
closed forms.  Only numpy and the standard library are used, so a fault in
the package cannot hide in its own reference.

Each ``check_*`` function returns a list of problem strings; an empty list
means the check passed.
"""

from __future__ import annotations

import math

import numpy as np

EXACT_TOL = 1e-12  # exact values against the closed forms, and flatness at t = 0.5
GEO_TOL = 1e-8  # kinematic total and geometric phases, radians
DYN_TOL = 1e-9  # kinematic dynamical phase, radians
COVERAGE_SHARE = 0.95  # share of seeds whose shifts must lie within 3 sigma
# Independent Poisson residuals over 37 points correlate with a spread of about
# 1/6, so this is never reached by chance; identical draws give 1.
SHARED_NOISE_CORR = 0.9

# Built-in SU(d) schedules as (t, phases in degrees) tables, linear in between.
BUILTIN_TABLES = {
    2: [(0.0, (0, 0)), (1.0, (180, -180))],
    3: [(0.0, (0, 0, 0)), (0.5, (120, -120, 0)), (1.0, (120, -240, 120))],
    4: [(0.0, (0, 0, 0, 0)), (0.5, (45, -45, 135, -135)), (1.0, (90, -270, 450, -270))],
}


def builtin_xi(d: int, t: float) -> np.ndarray:
    """Phases xi_m(t) in radians of the built-in schedule for dimension d."""
    table = BUILTIN_TABLES[d]
    times = [row[0] for row in table]
    out = []
    for m in range(d):
        out.append(math.radians(float(np.interp(t, times, [row[1][m] for row in table]))))
    return np.array(out)


def mes_fringe(xi, thetas, contrast: float) -> np.ndarray:
    """1/2 + c * ((1/d) sum_m sin^2((xi_m - 4 theta)/2) - 1/2) at every theta."""
    xi = np.asarray(xi, dtype=float)
    out = []
    for theta in np.asarray(thetas, dtype=float):
        ideal = sum(math.sin((x - 4.0 * theta) / 2.0) ** 2 for x in xi) / len(xi)
        out.append(0.5 + contrast * (ideal - 0.5))
    return np.array(out)


def coincidence_closed_form(amps, xi, theta: float) -> float:
    """C = 1/4 sum_mn |alpha_mn e^{i xi_m} - e^{4 i theta} alpha_nm|^2, by loops."""
    amps = np.asarray(amps, dtype=complex)
    d = amps.shape[0]
    ref = complex(math.cos(4.0 * theta), math.sin(4.0 * theta))
    total = 0.0
    for m in range(d):
        rot = complex(math.cos(xi[m]), math.sin(xi[m]))
        for n in range(d):
            total += abs(amps[m, n] * rot - ref * amps[n, m]) ** 2
    return 0.25 * total


def kinematic_closed_form(amps, xi_final) -> tuple[float, float, float]:
    """(total, dynamical, geometric) of a diagonal loop in its continuum limit.

    With w_m the row weight sum_n |alpha_mn|^2: total = arg sum_m w_m
    e^{i xi_m(1)}, dynamical = sum_m w_m xi_m(1), geometric = total -
    dynamical folded into (-pi, pi].
    """
    w = np.sum(np.abs(np.asarray(amps, dtype=complex)) ** 2, axis=1)
    xi_final = np.asarray(xi_final, dtype=float)
    total = math.atan2(float(np.sum(w * np.sin(xi_final))), float(np.sum(w * np.cos(xi_final))))
    dynamical = float(np.sum(w * xi_final))
    return total, dynamical, fold(total - dynamical)


def fold(x: float) -> float:
    """Angle folded into (-pi, pi]."""
    y = math.remainder(x, 2.0 * math.pi)
    return math.pi if y == -math.pi else y


def check_exact_scan(label, values, xi, thetas, contrast) -> list[str]:
    """Every exact scan value equals the maximally-entangled fringe."""
    want = mes_fringe(xi, thetas, contrast)
    values = np.asarray(values, dtype=float)
    if values.shape != want.shape:
        return [f"{label}: {values.size} values, expected {want.size}"]
    worst = float(np.max(np.abs(values - want)))
    return [f"{label}: deviates from the closed form by {worst:.3e}"] if worst > EXACT_TOL else []


def check_close(label, got, want) -> list[str]:
    worst = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    return [f"{label}: differs by {worst:.3e}"] if worst > EXACT_TOL else []


def check_flat(label, values) -> list[str]:
    spread = float(np.max(values) - np.min(values))
    return [f"{label}: fringe spread {spread:.3e} is not flat"] if spread > EXACT_TOL else []


def poisson_chi2(counts, means) -> tuple[float, int]:
    """Pooled chi^2 = sum (n - mu)^2 / mu and the number of terms."""
    counts = np.asarray(counts, dtype=float)
    means = np.asarray(means, dtype=float)
    return float(np.sum((counts - means) ** 2 / means)), int(counts.size)


def check_chi2(label, chi2: float, n: int) -> list[str]:
    """chi^2/N of independent Poisson draws lies within 5 sqrt(2/N) of 1."""
    ratio, limit = chi2 / n, 5.0 * math.sqrt(2.0 / n)
    if abs(ratio - 1.0) > limit:
        return [f"{label}: chi2/N = {ratio:.4f} over {n} counts, allowed 1 +/- {limit:.4f}"]
    return []


# The statistical checks on shifts judge at least this many seeds: with fewer,
# the sample standard error is itself too uncertain for a 4-SE limit.
MIN_SEEDS = 100


def check_shift_mean(label, shifts_deg, expected_deg) -> list[str]:
    """The mean shift lies within 4 standard errors of the theory."""
    shifts = np.asarray(shifts_deg, dtype=float)
    if shifts.size < MIN_SEEDS:
        return []
    mean = float(np.mean(shifts))
    se = float(np.std(shifts, ddof=1)) / math.sqrt(shifts.size)
    if abs(mean - expected_deg) > 4.0 * se:
        return [f"{label}: mean shift {mean:.4f} deg is more than 4 SE ({se:.4f}) "
                f"from {expected_deg:.4f}"]
    return []


def coverage_ok(shift_deg: float, sigma_deg: float, expected_deg: float) -> bool:
    err = abs(math.remainder(shift_deg - expected_deg, 360.0))
    return err <= 3.0 * sigma_deg


def check_coverage(label, hits: int, total: int) -> list[str]:
    if total >= MIN_SEEDS and hits < COVERAGE_SHARE * total:
        return [f"{label}: only {hits}/{total} seeds within 3 sigma of the theory"]
    return []


def residual_correlation(a, b, means) -> float:
    """Correlation of two count vectors' residuals about a common mean."""
    ra = np.asarray(a, dtype=float) - means
    rb = np.asarray(b, dtype=float) - means
    return float(np.dot(ra, rb) / math.sqrt(float(np.dot(ra, ra)) * float(np.dot(rb, rb))))


def independent(a, b, means) -> bool:
    """True unless two scans share their noise (residual correlation > SHARED_NOISE_CORR)."""
    return residual_correlation(a, b, means) <= SHARED_NOISE_CORR


def check_kinematic(label, got, closed) -> list[str]:
    """got and closed are (total, dynamical, geometric) in radians."""
    problems = []
    if abs(fold(got[0] - closed[0])) > GEO_TOL:
        problems.append(f"{label}: total {got[0]:.12f} vs closed form {closed[0]:.12f}")
    if abs(got[1] - closed[1]) > DYN_TOL:
        problems.append(f"{label}: dynamical {got[1]:.12e} vs closed form {closed[1]:.12e}")
    if abs(fold(got[2] - closed[2])) > GEO_TOL:
        problems.append(f"{label}: geometric {got[2]:.12f} vs closed form {closed[2]:.12f}")
    return problems
