"""Two-photon Sagnac interferometry with path-encoded qudits.

Simulation of polarization-controlled two-photon interference under
diagonal SU(d) operations, fringe fitting, and kinematic geometric-phase
analysis, plus a reproducible campaign CLI.

Importing the package loads the computational core.  The campaign runner
and the verification suite load on first use of the names that reach them
(PEP 562), so a process that only scans, fits or chains compiles neither.
"""

from importlib import import_module

from .analysis import (
    FitResult,
    KinematicPhases,
    fit_fringe,
    fold_angle,
    kinematic_phase,
    phase_shift,
)
from .errors import (
    ConfigError,
    DegenerateLoopError,
    DimensionMismatchError,
    FitError,
    InvalidDimensionError,
    LowVisibilityError,
    NonDiagonalError,
    NormalizationError,
    SagnacsimError,
    ScheduleError,
)
from .jones import hwp, phase_shifter, qwp, relative_phase
from .qudit import BipartiteQuditState, make_antisymmetric_mes
from .sagnac import (
    ExperimentConfig,
    FringeScan,
    circuit_oracle,
    coincidence_full,
    coincidence_mes,
    generate_scan,
    read_scan,
    write_scan,
)
from .schedule import PhaseSchedule, builtin_schedule, check_su, load_schedule

__version__ = "0.1.0"

# public name -> the module that defines it, imported when the name is first read
_LAZY = {
    "CampaignSpec": "campaign",
    "load_campaign_spec": "campaign",
    "run_campaign": "campaign",
    "run_verification": "verify",
}

__all__ = [
    "BipartiteQuditState",
    "CampaignSpec",
    "ConfigError",
    "DegenerateLoopError",
    "DimensionMismatchError",
    "ExperimentConfig",
    "FitError",
    "FitResult",
    "FringeScan",
    "InvalidDimensionError",
    "KinematicPhases",
    "LowVisibilityError",
    "NonDiagonalError",
    "NormalizationError",
    "PhaseSchedule",
    "SagnacsimError",
    "ScheduleError",
    "builtin_schedule",
    "check_su",
    "circuit_oracle",
    "coincidence_full",
    "coincidence_mes",
    "fit_fringe",
    "fold_angle",
    "generate_scan",
    "hwp",
    "kinematic_phase",
    "load_campaign_spec",
    "load_schedule",
    "make_antisymmetric_mes",
    "phase_shift",
    "phase_shifter",
    "qwp",
    "read_scan",
    "relative_phase",
    "run_campaign",
    "run_verification",
    "write_scan",
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__():
    return globals().keys() | _LAZY.keys()
