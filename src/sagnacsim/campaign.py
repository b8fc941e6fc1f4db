"""Batch runner: scans, fits, and a summary for a set of dimensions."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .analysis import FIT_VERSION, FitResult, fit_fringe, phase_shift
from .errors import ConfigError
from .plotting import render_campaign_svg
from .sagnac import (
    DEFAULT_CONTRAST,
    DEFAULT_COUNTS,
    DEFAULT_THETA_DEG,
    SCHEMA_VERSION,
    ExperimentConfig,
    FringeScan,
    _integral,
    _theta_grid,
    generate_scan,
    load_json_object,
    scan_metadata,
    write_scan,
)
from .schedule import builtin_schedule, load_schedule


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of a multi-dimension campaign."""

    dims: tuple[int, ...]
    mode: str = "exact"
    t_values: tuple[float, ...] = (0.0, 0.5, 1.0)
    theta_start_deg: float = DEFAULT_THETA_DEG[0]
    theta_stop_deg: float = DEFAULT_THETA_DEG[1]
    theta_step_deg: float = DEFAULT_THETA_DEG[2]
    counts_per_point: int = DEFAULT_COUNTS
    contrast: float = DEFAULT_CONTRAST
    seed: int = 0
    schedule_file: str | None = None
    out_dir: str = "."

    def __post_init__(self) -> None:
        if not self.dims:
            raise ConfigError("campaign needs at least one dimension")
        if self.mode not in ("exact", "sampled"):
            raise ConfigError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        for t in self.t_values:
            if not 0.0 <= t <= 1.0:
                raise ConfigError(f"t value out of range: {t}")
        # output files are named scan_d{d}_t{t:g}; a shared name would overwrite
        if len(set(self.dims)) != len(self.dims):
            raise ConfigError(f"dims must be distinct, got {list(self.dims)}")
        names = [f"t{t:g}" for t in self.t_values]
        if len(set(names)) != len(names):
            raise ConfigError(f"t values must give distinct output names, got {names}")
        # a bad or oversized grid fails here, before anything is created
        _theta_grid(self.theta_start_deg, self.theta_stop_deg, self.theta_step_deg)
        if self.schedule_file is not None and len(self.dims) != 1:
            raise ConfigError("a custom schedule file implies a single dimension")

    @classmethod
    def from_json_dict(cls, data: dict) -> "CampaignSpec":
        known = {f.name for f in fields(cls)}
        extra = set(data) - known - {"schema_version"}
        if extra:
            raise ConfigError(f"unknown campaign spec fields: {sorted(extra)}")
        kwargs = {k: v for k, v in data.items() if k in known}
        try:
            if "dims" in kwargs:
                kwargs["dims"] = tuple(_integral(d, "dim") for d in kwargs["dims"])
            if "t_values" in kwargs:
                kwargs["t_values"] = tuple(float(t) for t in kwargs["t_values"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                "invalid campaign spec: dims must list integers and t_values numbers"
            ) from exc
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"invalid campaign spec: {exc}") from exc


def load_campaign_spec(path) -> CampaignSpec:
    return CampaignSpec.from_json_dict(load_json_object(path, "campaign spec"))


def _experiment_config(spec: CampaignSpec, d: int) -> ExperimentConfig:
    if spec.schedule_file is not None:
        schedule = load_schedule(spec.schedule_file)
    else:
        schedule = builtin_schedule(d)
    return ExperimentConfig(
        dim=d,
        schedule=schedule,
        theta_grid=_theta_grid(spec.theta_start_deg, spec.theta_stop_deg, spec.theta_step_deg),
        counts_per_point=spec.counts_per_point,
        contrast=spec.contrast,
        rng_seed=spec.seed,
    )


def _fit_curve(fit: FitResult, theta_deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dense_deg = np.linspace(float(theta_deg[0]), float(theta_deg[-1]), 200)
    dense = np.deg2rad(dense_deg)
    curve = fit.amplitude * (1.0 - fit.visibility * np.cos(fit.frequency * dense + fit.phase))
    return dense_deg, curve


def run_campaign(spec: CampaignSpec) -> dict:
    """Run every (d, t) scan, fit, summarize, and render the figure.

    Writes per-scan CSV + metadata, per-fit JSON, ``campaign.svg``, and
    ``summary.json`` (written last).  A failure partway deletes whatever was
    already written so no half-finished campaign is left behind.
    """
    # the shift needs a reference scan and a cyclic one; a single scan does not
    if 0.0 not in spec.t_values or 1.0 not in spec.t_values:
        raise ConfigError("t values must include 0 (reference) and 1 (cyclic)")
    configs = [_experiment_config(spec, d) for d in spec.dims]
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        results = []
        panels = []
        for d, cfg in zip(spec.dims, configs):
            fits: dict[float, FitResult] = {}
            series = []
            for t in spec.t_values:
                scan = generate_scan(cfg, t, mode=spec.mode)
                stem = f"scan_d{d}_t{t:g}"
                csv_path = out_dir / f"{stem}.csv"
                write_scan(scan, csv_path, scan_metadata(cfg, scan))
                written += [csv_path, csv_path.with_suffix(".json")]
                fit = fit_fringe(scan)
                fits[t] = fit
                fit_path = out_dir / f"fit_d{d}_t{t:g}.json"
                fit_path.write_text(json.dumps(fit.to_json_dict(), indent=2) + "\n")
                written.append(fit_path)
                series.append(_panel_series(scan, fit, t))
            shift, sigma = phase_shift(fits[0.0], fits[1.0])
            results.append({
                "dim": d,
                "shift_deg": float(np.rad2deg(shift)),
                "sigma_deg": float(np.rad2deg(sigma)),
                "theory_deg": 360.0 / d,
            })
            panels.append({"title": f"d = {d} ({spec.mode})", "series": series})

        svg_path = out_dir / "campaign.svg"
        svg_path.write_text(render_campaign_svg(panels, results))
        written.append(svg_path)

        summary = {"schema_version": SCHEMA_VERSION, "fit_version": FIT_VERSION,
                   "mode": spec.mode, "results": results}
        summary_path = out_dir / "summary.json"
        summary_path.write_text(json.dumps(summary, indent=2) + "\n")
        return summary
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _panel_series(scan: FringeScan, fit: FitResult, t: float) -> dict:
    theta_deg = np.rad2deg(scan.thetas)
    series = {
        "label": f"t = {t:g}",
        "theta_deg": theta_deg,
        "values": scan.values.astype(float),
        "curve_theta_deg": None,
        "curve_values": None,
    }
    if fit.b_defined:
        series["curve_theta_deg"], series["curve_values"] = _fit_curve(fit, theta_deg)
    return series
