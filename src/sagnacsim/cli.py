"""Command-line front end: simulate, fit, campaign, verify.

Angle flags and outputs are in degrees; everything internal is radians.
Exit codes: 0 success, 1 analysis failure (for example low visibility or a
failed verification), 2 usage or configuration error, 3 internal error (an
unexpected exception, reported on one line).  A command imports the
campaign runner or the verification suite only when it runs one.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import fit_fringe, phase_shift
from .errors import (
    ConfigError,
    DegenerateLoopError,
    FitError,
    LowVisibilityError,
    SagnacsimError,
    _natural,
    load_json_object,
)
from .qudit import BipartiteQuditState
from .sagnac import (
    DEFAULT_CONTRAST,
    DEFAULT_COUNTS,
    DEFAULT_THETA_DEG,
    generate_scan,
    read_scan,
    scan_metadata,
    write_scan,
)

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
OUTDIR_ENV = "SAGNACSIM_OUTDIR"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sagnacsim",
        description="Simulate and analyze two-photon interference of path-encoded qudits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # dests are the config-file keys, so flags overlay the file key by key
    sim = sub.add_parser("simulate", help="generate one fringe scan")
    sim.add_argument("--config", type=Path,
                     help="JSON config: campaign spec fields plus dim and t (flags override it)")
    sim.add_argument("--d", dest="dim", type=int,
                     help="qudit dimension (builtin schedules: 2, 3, 4)")
    sim.add_argument("--t", type=float, help="schedule setting in [0, 1]")
    mode = sim.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="mode", action="store_const", const="exact",
                      help="write exact probabilities")
    mode.add_argument("--sampled", dest="mode", action="store_const", const="sampled",
                      help="write Poisson counts (default)")
    sim.add_argument("--seed", type=int, help="RNG seed (default 0)")
    sim.add_argument("--contrast", type=float,
                     help=f"fringe contrast in [0, 1] (default {DEFAULT_CONTRAST})")
    sim.add_argument("--counts", dest="counts_per_point", type=int,
                     help=f"mean coincidences per point (default {DEFAULT_COUNTS})")
    start, stop, step = DEFAULT_THETA_DEG
    sim.add_argument("--theta-start", dest="theta_start_deg", type=float,
                     help=f"grid start in degrees (default {start:g})")
    sim.add_argument("--theta-stop", dest="theta_stop_deg", type=float,
                     help=f"grid stop in degrees (default {stop:g})")
    sim.add_argument("--theta-step", dest="theta_step_deg", type=float,
                     help=f"grid step in degrees (default {step:g})")
    sim.add_argument("--schedule-file", type=str, help="custom schedule JSON")
    sim.add_argument("--out", type=Path, help="output CSV path (default auto-named)")

    fit = sub.add_parser("fit", help="fit a scan, optionally against a reference")
    fit.add_argument("scan", type=Path, help="scan CSV to fit")
    fit.add_argument("--ref", type=Path, help="reference scan CSV for the phase shift")
    fit.add_argument("--out", type=Path, help="write the JSON report here instead of stdout")

    camp = sub.add_parser("campaign", help="run a full multi-dimension campaign")
    camp.add_argument("spec", type=Path, help="campaign spec JSON")
    camp.add_argument("--out", type=Path, help="override the spec's output directory")

    ver = sub.add_parser("verify", help="run the randomized cross-check suite")
    ver.add_argument("--trials", type=int, default=200, help="random trials per check")
    ver.add_argument("--seed", type=int, default=0, help="RNG seed")
    ver.add_argument("--state", type=Path, help="state JSON {dim, real, imag} to test")
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .campaign import CampaignSpec, _experiment_config

    fields = load_json_object(args.config, "config") if args.config else {}
    fields.update({key: value for key, value in vars(args).items()
                   if value is not None and key not in ("command", "config", "out")})
    if "dims" in fields or "t_values" in fields:
        raise ConfigError("simulate takes one 'dim' and one 't', not 'dims' or 't_values'")
    if "dim" not in fields or "t" not in fields:
        raise ConfigError("simulate needs a dimension and a t (--d/--t or config 'dim'/'t')")
    fields.setdefault("mode", "sampled")
    fields.setdefault("out_dir", os.environ.get(OUTDIR_ENV, "."))
    fields["dims"], fields["t_values"] = [fields.pop("dim")], [fields.pop("t")]
    spec = CampaignSpec.from_json_dict(fields)
    cfg = _experiment_config(spec, spec.dims[0])
    scan = generate_scan(cfg, spec.t_values[0], mode=spec.mode)

    out = args.out or Path(spec.out_dir) / f"scan_d{cfg.dim}_t{scan.t:g}.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_scan(scan, out, scan_metadata(cfg, scan))
    print(out)
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    scan, _ = read_scan(args.scan)
    fit = fit_fringe(scan)
    report: dict = {"fit": fit.to_json_dict()}
    if args.ref is not None:
        ref_scan, _ = read_scan(args.ref)
        ref_fit = fit_fringe(ref_scan)
        shift, sigma = phase_shift(ref_fit, fit)
        report["ref_fit"] = ref_fit.to_json_dict()
        report["shift"] = {
            "shift_deg": float(np.rad2deg(shift)),
            "sigma_deg": float(np.rad2deg(sigma)),
            "shift_rad": shift,
            "sigma_rad": sigma,
        }
    text = json.dumps(report, indent=2)
    if args.out is not None:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import load_campaign_spec, run_campaign

    spec = load_campaign_spec(args.spec)
    if args.out is not None:
        spec = dataclasses.replace(spec, out_dir=str(args.out))
    summary = run_campaign(spec)
    for entry in summary["results"]:
        print(
            f"d={entry['dim']}: shift = {entry['shift_deg']:.4f} deg "
            f"+/- {entry['sigma_deg']:.4f} (expected {entry['theory_deg']:.1f})"
        )
    print(Path(spec.out_dir) / "summary.json")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verification

    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    _natural(args.seed, "--seed")
    state = None
    if args.state is not None:
        state = BipartiteQuditState.from_json_dict(load_json_object(args.state, "state"))
    results = run_verification(args.trials, args.seed, state)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        failed = failed or not res.passed
    return EXIT_ANALYSIS if failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "fit": _cmd_fit,
        "campaign": _cmd_campaign,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (LowVisibilityError, FitError, DegenerateLoopError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except (SagnacsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug, not bad input: keep it apart from exits 1 and 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
