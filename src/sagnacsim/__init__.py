"""Two-photon Sagnac interferometry with path-encoded qudits.

Simulation of polarization-controlled two-photon interference under
diagonal SU(d) operations, fringe fitting, and kinematic geometric-phase
analysis, plus a reproducible campaign CLI.
"""

from .analysis import (
    FitResult,
    KinematicPhases,
    fit_fringe,
    fold_angle,
    kinematic_phase,
    phase_shift,
)
from .campaign import CampaignSpec, load_campaign_spec, run_campaign
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
from .verify import run_verification

__version__ = "0.1.0"

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
