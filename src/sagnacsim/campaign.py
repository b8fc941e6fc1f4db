"""Batch runner: scans, fits, and a summary for a set of dimensions."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import FitResult, fit_fringe, phase_shift
from .errors import ConfigError
from .plotting import render_campaign_svg
from .sagnac import (
    SCHEMA_VERSION,
    ExperimentConfig,
    FringeScan,
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
    theta_start_deg: float = 0.0
    theta_stop_deg: float = 180.0
    theta_step_deg: float = 5.0
    counts_per_point: int = 1000
    contrast: float = 0.35
    seed: int = 0
    schedule_file: str | None = None
    out_dir: str = "."

    def __post_init__(self) -> None:
        if not self.dims:
            raise ConfigError("campaign needs at least one dimension")
        if self.mode not in ("exact", "sampled"):
            raise ConfigError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        if not self.t_values:
            raise ConfigError("campaign needs at least one t value")
        for t in self.t_values:
            if not 0.0 <= t <= 1.0:
                raise ConfigError(f"t value out of range: {t}")
        if 0.0 not in self.t_values or 1.0 not in self.t_values:
            raise ConfigError("t values must include 0 (reference) and 1 (cyclic)")
        # output files are named scan_d{d}_t{t:g}; a shared name would overwrite
        if len(set(self.dims)) != len(self.dims):
            raise ConfigError(f"dims must be distinct, got {list(self.dims)}")
        names = [f"t{t:g}" for t in self.t_values]
        if len(set(names)) != len(names):
            raise ConfigError(f"t values must give distinct output names, got {names}")
        if self.theta_step_deg <= 0.0 or self.theta_stop_deg <= self.theta_start_deg:
            raise ConfigError("invalid theta grid")
        if self.schedule_file is not None and len(self.dims) != 1:
            raise ConfigError("a custom schedule file implies a single dimension")

    @classmethod
    def from_json_dict(cls, data: dict) -> "CampaignSpec":
        known = {
            "dims", "mode", "t_values", "theta_start_deg", "theta_stop_deg",
            "theta_step_deg", "counts_per_point", "contrast", "seed",
            "schedule_file", "out_dir",
        }
        extra = set(data) - known - {"schema_version"}
        if extra:
            raise ConfigError(f"unknown campaign spec fields: {sorted(extra)}")
        kwargs = {k: v for k, v in data.items() if k in known}
        try:
            if "dims" in kwargs:
                kwargs["dims"] = tuple(int(d) for d in kwargs["dims"])
            if "t_values" in kwargs:
                kwargs["t_values"] = tuple(float(t) for t in kwargs["t_values"])
        except (TypeError, ValueError) as exc:
            raise ConfigError("invalid campaign spec: dims and t_values must list numbers") from exc
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
    grid = np.deg2rad(
        np.arange(spec.theta_start_deg, spec.theta_stop_deg + 1e-9, spec.theta_step_deg)
    )
    return ExperimentConfig(
        dim=d,
        schedule=schedule,
        theta_grid=grid,
        t_values=spec.t_values,
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
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        results = []
        panels = []
        for d in spec.dims:
            cfg = _experiment_config(spec, d)
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

        summary = {"schema_version": SCHEMA_VERSION, "mode": spec.mode, "results": results}
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
