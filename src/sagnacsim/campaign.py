"""Batch runner: scans, fits, and a summary for a set of dimensions."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .analysis import FIT_VERSION, FitResult, fit_fringe, phase_shift
from .errors import ConfigError, _integral, _items, _optional, _path, _real, load_json_object
from .sagnac import (
    DEFAULT_CONTRAST,
    DEFAULT_COUNTS,
    DEFAULT_THETA_DEG,
    SCHEMA_VERSION,
    ExperimentConfig,
    _stream_key,
    _theta_grid,
    generate_scan,
    scan_metadata,
    write_scan,
)
from .schedule import builtin_schedule, expected_shift, load_schedule


def _checked(check, **default):
    """A field that ``__post_init__`` replaces by ``check(value, what)``, ``what`` naming it."""
    return field(metadata={"check": check}, **default)


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of a multi-dimension campaign.

    Every field is type-checked on construction, and a value of the wrong
    type is a ConfigError naming the field.  ``contrast``, ``counts_per_point``
    and ``seed`` are the exception: ``ExperimentConfig`` checks them, with
    the same checkers, when a run builds its configs, before anything is
    written.
    """

    dims: tuple[int, ...] = _checked(_items(_integral, "integers"), default=())
    mode: str = "exact"  # __post_init__ refuses all but two strings
    t_values: tuple[float, ...] = _checked(_items(_real, "numbers"), default=(0.0, 0.5, 1.0))
    theta_start_deg: float = _checked(_real, default=DEFAULT_THETA_DEG[0])
    theta_stop_deg: float = _checked(_real, default=DEFAULT_THETA_DEG[1])
    theta_step_deg: float = _checked(_real, default=DEFAULT_THETA_DEG[2])
    counts_per_point: int = DEFAULT_COUNTS
    contrast: float = DEFAULT_CONTRAST
    seed: int = 0
    schedule_file: str | None = _checked(_optional(_path), default=None)
    out_dir: str = _checked(_path, default=".")

    def __post_init__(self) -> None:
        for f in fields(self):
            check = f.metadata.get("check")
            if check:
                what = f"invalid campaign spec: {f.name}"
                object.__setattr__(self, f.name, check(getattr(self, f.name), what))
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
        keys = [_stream_key(t) for t in self.t_values]
        if self.mode == "sampled" and len(set(keys)) != len(keys):
            raise ConfigError(f"sampled t values {names} share a noise stream (t keyed at 1e-6)")
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
        return cls(**{k: v for k, v in data.items() if k in known})


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


def run_campaign(spec: CampaignSpec) -> dict:
    """Run every (d, t) scan, fit, summarize, and render the figure.

    Everything is computed in memory before anything is written: a run that
    fails in the model, a fit or the figure leaves ``out_dir`` as it was.
    Then ``out_dir`` gets the per-scan CSV + metadata, the per-fit JSON,
    ``campaign.svg`` and, last, ``summary.json``.  Only a failing write (a
    full disk, say) can leave part of a run behind, and never a new summary.
    """
    from .plotting import render_campaign_svg  # loaded here, so `simulate` never compiles it

    # the shift needs a reference scan and a cyclic one; a single scan does not
    if 0.0 not in spec.t_values or 1.0 not in spec.t_values:
        raise ConfigError("t values must include 0 (reference) and 1 (cyclic)")
    configs = [_experiment_config(spec, d) for d in spec.dims]
    outputs = []
    results = []
    panels = []
    for d, cfg in zip(spec.dims, configs):
        fits: dict[float, FitResult] = {}
        pairs = []
        for t in spec.t_values:
            scan = generate_scan(cfg, t, mode=spec.mode)
            fit = fits[t] = fit_fringe(scan)
            outputs.append((f"d{d}_t{t:g}", cfg, scan, fit))
            pairs.append((scan, fit))
        shift, sigma = phase_shift(fits[0.0], fits[1.0])
        results.append({
            "dim": d,
            "shift_deg": float(np.rad2deg(shift)),
            "sigma_deg": float(np.rad2deg(sigma)),
            "theory_deg": expected_shift(cfg.schedule)[0],
        })
        panels.append((f"d = {d} ({spec.mode})", pairs))
    svg = render_campaign_svg(panels, results)
    summary = {"schema_version": SCHEMA_VERSION, "fit_version": FIT_VERSION,
               "mode": spec.mode, "results": results}

    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, cfg, scan, fit in outputs:
        write_scan(scan, out_dir / f"scan_{name}.csv", scan_metadata(cfg, scan))
        (out_dir / f"fit_{name}.json").write_text(json.dumps(fit.to_json_dict(), indent=2) + "\n")
    (out_dir / "campaign.svg").write_text(svg)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary
