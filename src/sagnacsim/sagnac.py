"""Coincidence probabilities for the Sagnac loop and noisy fringe scans.

Two independent routes compute the coincidence probability:

* ``coincidence_full``: closed-form sum over amplitude pairs,
  C = 1/4 * sum_mn |alpha_mn e^{i xi_m} - e^{4 i theta} alpha_nm|^2.
* ``circuit_oracle``: explicit propagation of the polarization (x) path ket
  through the interferometer optics, kept as a separate code path so the two
  can cross-check each other.

``generate_scan`` turns a schedule setting into an exact or Poisson-sampled
fringe scan over a grid of phase-shifter angles.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    _integral,
    _natural,
    _real,
    load_json_object,
)
from .jones import hwp, phase_shifter
from .qudit import BipartiteQuditState, make_antisymmetric_mes
from .schedule import PhaseSchedule

# scan defaults, shared with CampaignSpec; the grid as (start, stop, step) degrees
DEFAULT_THETA_DEG = (0.0, 180.0, 5.0)
DEFAULT_COUNTS = 1000
DEFAULT_CONTRAST = 0.35
MAX_THETA_POINTS = 100_000
# numpy's Poisson draw refuses a mean above ~9.2e18; p' <= 1 keeps the mean below this
MAX_COUNTS = 10**18
SCHEMA_VERSION = 1
# RNG layout of sampled scans, in their sidecars; 2 = one stream per (seed, dim, t)
STREAM_VERSION = 2


def _theta_grid(start_deg: float, stop_deg: float, step_deg: float) -> np.ndarray:
    """Plate angles in radians from ``start_deg`` to ``stop_deg`` inclusive.

    The points are counted before anything is allocated; a grid of more than
    ``MAX_THETA_POINTS`` points is a ConfigError.
    """
    if not (all(map(math.isfinite, (start_deg, stop_deg, step_deg)))
            and step_deg > 0.0 and stop_deg > start_deg):
        raise ConfigError(f"invalid theta grid ({start_deg}, {stop_deg}, {step_deg} deg): "
                          "need finite values, step > 0 and stop > start")
    stop = stop_deg + 1e-9
    if not (stop - start_deg) / step_deg <= MAX_THETA_POINTS:
        raise ConfigError(f"theta grid exceeds {MAX_THETA_POINTS} points")
    return np.deg2rad(np.arange(start_deg, stop, step_deg))


DEFAULT_THETA_GRID = _theta_grid(*DEFAULT_THETA_DEG)


def _stream_key(t: float) -> int:
    """The t part of a sampled scan's RNG stream key: t in micro-units."""
    return int(round(t * 1_000_000))


def _coincidence(amplitudes: np.ndarray, xi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Closed-form coincidence; ``amplitudes`` (..., d, d), ``xi`` (..., d) and
    ``theta`` (...) broadcast over their leading axes."""
    diff = (np.exp(1j * xi)[..., :, None] * amplitudes
            - np.exp(4j * theta)[..., None, None] * np.swapaxes(amplitudes, -1, -2))
    return 0.25 * (np.abs(diff) ** 2).sum(axis=(-2, -1))


def coincidence_full(state: BipartiteQuditState, xi, theta) -> float | np.ndarray:
    """Coincidence probability for an arbitrary two-qudit path state.

    ``xi`` holds phase vectors, shape (..., d); ``theta`` holds plate angles,
    shape (...).  The leading shapes broadcast and give the result's shape:
    one phase vector and a scalar angle give a float, one phase vector and a
    grid of angles give one probability per angle, and a stack of phase
    vectors with a matching stack of angles gives one probability per row.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1:] != (state.dim,):
        raise DimensionMismatchError(
            f"expected {state.dim} phases, got shape {xi.shape}"
        )
    p = _coincidence(state.amplitudes, xi, np.asarray(theta, dtype=float))
    return float(p) if p.ndim == 0 else p


def coincidence_mes(d: int, xi, theta) -> float | np.ndarray:
    """Closed form for the anti-diagonal maximally entangled state.

    C(theta) = (1/d) sum_m sin^2[(xi_m - 4*theta) / 2].  Shapes broadcast as
    in ``coincidence_full``: ``xi`` (..., d) against ``theta`` (...).
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1:] != (d,):
        raise DimensionMismatchError(f"expected {d} phases, got shape {xi.shape}")
    theta = np.asarray(theta, dtype=float)[..., None]
    p = np.mean(np.sin((xi - 4.0 * theta) / 2.0) ** 2, axis=-1)
    return float(p) if p.ndim == 0 else p


def circuit_oracle(state: BipartiteQuditState, xi, theta: float, phi: float = 0.0) -> float:
    """Propagate the full ket through the interferometer optics.

    Steps: polarizing splitter routes signal (H) and idler (V) into
    counter-propagating paths; each passes the 22.5deg half wave plate and
    the phase-shifter stack (V advanced by 4*theta for the signal, a global
    2*theta for the idler, which traverses the stack backwards); the
    programmable mirror adds xi_m to the signal's H component only.  At
    recombination H transmits and V reflects with factor i; coincidences
    keep the HH route (signal to D1, idler to D2) and the VV route with the
    photons swapped.  Polarization erasers at +/-45deg project both detectors
    on H, and slit-mode orthonormality reduces the detection integral to an
    incoherent sum over slit pairs.

    Agrees with ``coincidence_full`` to machine precision; ``phi`` is the
    fixed plate angle of the stack and must not affect the result.
    """
    xi = np.asarray(xi, dtype=float)
    d = state.dim
    if xi.shape != (d,):
        raise DimensionMismatchError(f"expected {d} phases, got shape {xi.shape}")

    psi = np.zeros((d, 2, d, 2), dtype=complex)  # [slit_s, pol_s, slit_i, pol_i]
    psi[:, 0, :, 1] = 1j * state.amplitudes      # signal H, idler V

    h8 = hwp(np.pi / 8.0)
    stack = phase_shifter(phi, theta)

    psi = np.einsum("ab,mbnv->manv", h8, psi)        # signal 45deg rotation
    psi = np.einsum("ab,mbnv->manv", stack, psi)     # signal phase shifter
    psi[:, 0, :, :] *= np.exp(1j * xi)[:, None, None]  # mirror phases on signal H
    psi = np.einsum("ab,msnb->msna", stack.T, psi)   # idler: reverse traversal
    psi = np.einsum("ab,msnb->msna", h8, psi)        # idler 45deg rotation

    eraser_1 = hwp(np.pi / 8.0)[0, :]    # <H| after +45deg rotation at D1
    eraser_2 = hwp(-np.pi / 8.0)[0, :]   # <H| after -45deg rotation at D2
    hh = psi[:, 0, :, 0] * (eraser_1[0] * eraser_2[0])
    vv = psi[:, 1, :, 1].T * ((1j * 1j) * eraser_1[1] * eraser_2[1])  # i per V reflection
    amplitude = hh + vv
    # factor 4 restores the closed form's normalization (unit span for a
    # maximally entangled input)
    return 4.0 * float(np.sum(np.abs(amplitude) ** 2))


@dataclass(frozen=True)
class ExperimentConfig:
    """Static description of one simulated experiment."""

    dim: int
    schedule: PhaseSchedule
    theta_grid: np.ndarray = field(default_factory=lambda: DEFAULT_THETA_GRID)
    counts_per_point: int = DEFAULT_COUNTS
    contrast: float = DEFAULT_CONTRAST
    rng_seed: int = 0

    def __post_init__(self) -> None:
        grid = np.array(self.theta_grid, dtype=float)  # a copy: the read-only flag stays ours
        if grid.size == 0:
            raise ConfigError("theta grid must not be empty")
        if (grid[1:] <= grid[:-1]).any():
            raise ConfigError("theta grid must be strictly increasing")
        contrast = _real(self.contrast, "contrast")
        if not 0.0 <= contrast <= 1.0:
            raise ConfigError(f"contrast must be in [0, 1], got {self.contrast}")
        counts = _integral(self.counts_per_point, "counts_per_point")
        if not 1 <= counts <= MAX_COUNTS:
            raise ConfigError(f"counts_per_point must be in [1, {MAX_COUNTS:.0e}]")
        seed = _natural(self.rng_seed, "seed")
        if self.schedule.dim != self.dim:
            raise DimensionMismatchError(
                f"schedule dimension {self.schedule.dim} != config dimension {self.dim}"
            )
        grid.setflags(write=False)
        object.__setattr__(self, "theta_grid", grid)
        # sidecars echo these; one type each keeps equal inputs byte-identical
        object.__setattr__(self, "contrast", contrast)
        object.__setattr__(self, "counts_per_point", counts)
        object.__setattr__(self, "rng_seed", seed)


@dataclass(frozen=True)
class FringeScan:
    """One sweep of the phase-shifter angle at fixed schedule setting t."""

    t: float
    thetas: np.ndarray
    values: np.ndarray
    mode: str  # "exact" (probabilities) or "sampled" (counts)

    def __post_init__(self) -> None:
        thetas = np.array(self.thetas, dtype=float)  # a copy: the read-only flag stays ours
        values = np.asarray(self.values)
        if not (np.isfinite(thetas).all() and np.isfinite(values).all()):
            raise ConfigError("scan thetas and values must be finite")
        if (thetas[1:] <= thetas[:-1]).any():
            raise ConfigError("scan thetas must be strictly increasing")
        if values.shape != thetas.shape:
            raise ConfigError("thetas and values must have matching shapes")
        if self.mode == "exact":
            values = values.astype(float)
            if (values < 0.0).any() or (values > 1.0).any():
                raise ConfigError("exact-mode probabilities must lie in [0, 1]")
        elif self.mode == "sampled":
            values = values.astype(np.int64)
            if (values < 0).any():
                raise ConfigError("sampled counts must be nonnegative")
        else:
            raise ConfigError(f"unknown scan mode {self.mode!r}")
        thetas.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "values", values)


def generate_scan(cfg: ExperimentConfig, t: float, mode: str = "sampled") -> FringeScan:
    """Simulate one fringe scan of the configured experiment.

    The ideal fringe p(theta) is degraded by the mode-mismatch contrast as
    p' = 1/2 + contrast * (p - 1/2).  Exact mode returns p'; sampled mode
    draws Poisson(counts_per_point * p') per point, reproducibly from the
    configured seed: one stream per scan, keyed by (seed, dim, t) with t at
    micro resolution, so distinct dimensions and settings never share noise
    (stream version ``STREAM_VERSION``).
    """
    xi = cfg.schedule(t)
    mes = make_antisymmetric_mes(cfg.dim)
    values = coincidence_full(mes, xi, cfg.theta_grid)
    # p' = 0.5 + contrast * (p - 0.5) in place; rounding can overshoot [0, 1] by ~1 ulp
    np.add(0.5, np.multiply(cfg.contrast, np.subtract(values, 0.5, out=values), out=values),
           out=values)
    np.minimum(np.maximum(values, 0.0, out=values), 1.0, out=values)
    if mode == "sampled":
        key = (cfg.dim, _stream_key(t))
        rng = np.random.default_rng(np.random.SeedSequence(cfg.rng_seed, spawn_key=key))
        values = rng.poisson(np.multiply(cfg.counts_per_point, values, out=values))
    # FringeScan refuses any other mode
    return FringeScan(t, cfg.theta_grid, values, mode)


def scan_metadata(cfg: ExperimentConfig, scan: FringeScan) -> dict:
    """Sidecar fields; sampled scans also record the RNG stream layout."""
    metadata = {
        "schema_version": SCHEMA_VERSION,
        "dim": cfg.dim,
        "t": scan.t,
        "seed": cfg.rng_seed,
        "contrast": cfg.contrast,
        "counts_per_point": cfg.counts_per_point,
        "mode": scan.mode,
    }
    if scan.mode == "sampled":
        metadata["stream_version"] = STREAM_VERSION
    return metadata


def write_scan(scan: FringeScan, path, metadata: dict | None = None) -> None:
    """Write a scan as CSV (theta in degrees) plus a JSON metadata sidecar.

    Lines end in ``\\r\\n``; theta is written with ``%.10g``, probabilities
    with ``%.17g`` (they read back exactly) and counts as integers.
    """
    path = Path(path)
    column, value_format = ("counts", "d") if scan.mode == "sampled" else ("probability", ".17g")
    rows = "".join(f"{th:.10g},{v:{value_format}}\r\n" for th, v in
                   zip(np.rad2deg(scan.thetas).tolist(), scan.values.tolist()))
    path.write_text(f"theta_deg,{column}\r\n{rows}", newline="")
    if metadata is not None:
        sidecar = path.with_suffix(".json")
        sidecar.write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")


def read_scan(path) -> tuple[FringeScan, dict | None]:
    """Read a scan CSV written by ``write_scan``; returns (scan, metadata).

    The header's first two columns must be ``theta_deg`` and ``counts`` or
    ``probability``; every other line holds at least those two numbers, and
    further columns are ignored.  Fields may be quoted with ``"``.  Any line
    ending is accepted, and empty lines are skipped.  Anything else is a
    ConfigError.
    """
    path = Path(path)
    with path.open() as fh:
        try:
            header = [cell.strip('"') for cell in fh.readline().rstrip("\n").split(",")]
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"corrupt scan data in {path}: {exc}") from exc
    if header[0] != "theta_deg" or header[1:2] not in (["counts"], ["probability"]):
        raise ConfigError(f"{path} is not a fringe scan CSV")
    mode = "sampled" if header[1] == "counts" else "exact"
    dtype = [("theta", float), ("value", np.int64 if mode == "sampled" else float)]
    try:
        with warnings.catch_warnings():
            # some numpy versions read "2.5" as the count 2, with only a DeprecationWarning
            warnings.simplefilter("error", DeprecationWarning)
            # loadtxt warns on input with no rows, so an empty body never reaches it
            rows = np.loadtxt(lines, dtype, delimiter=",", comments=None, quotechar='"',
                              usecols=(0, 1), ndmin=1) if any(lines) else np.empty(0, dtype)
    except (ValueError, DeprecationWarning) as exc:
        raise ConfigError(f"corrupt scan data in {path}: {exc}") from exc
    metadata = None
    sidecar = path.with_suffix(".json")
    if sidecar.exists():
        metadata = load_json_object(sidecar, "scan sidecar")
    t = 0.0
    if metadata and "t" in metadata:
        t = _real(metadata["t"], f"t in scan sidecar {sidecar}")
    return FringeScan(t, np.deg2rad(rows["theta"]), rows["value"], mode), metadata
