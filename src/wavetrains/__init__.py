"""Exact wave-packet trains of the periodically driven harmonic trap.

The package solves the classical envelope equation phi'' + k(t) phi = 0
with k(t) = U^2 + V cos(2 t) (Picard iteration and RK4), builds the exact
normalized wave-packet-train states psi_n on top of its polar form, and
certifies them against an independent split-step PDE propagator.
"""

from .errors import (
    AliasingRisk,
    BranchJump,
    Cancelled,
    ConfigError,
    GridMismatch,
    InvalidCount,
    NegativeIndex,
    NonFiniteValue,
    NonPositiveC0,
    NonZeroStart,
    NormDeficitWarning,
    NormDrift,
    OriginCrossing,
    StabilityRegionWarning,
    TooFewPoints,
    TooManySamples,
    UnknownPreset,
    WavetrainError,
)
from .numerics import (
    UniformGrid,
    build_space_grid,
    central_diff,
    cumulative_simpson,
    field_integral,
    is_power_of_two,
)
from .mathieu import (
    ClassicalInit,
    PolarTrajectory,
    Trajectory,
    TrapParameters,
    first_integral,
    picard_iterate,
    polar_decompose,
    solve_classical,
    unperturbed_solution,
)
from .trains import (
    CoefficientSet,
    FieldGrid,
    TrainFrame,
    TrainSpec,
    amplitude,
    auto_space_grid,
    center_orbit,
    coefficients,
    count_density_maxima,
    count_nodes,
    hermite_scaled,
    hermite_table,
    mean_energy_moments,
    overlap,
    phase,
    psi,
    psi_on_grid,
    train_frame,
    xi_of,
)
from .splitstep import (
    PropagatorConfig,
    l2_density_distance,
    propagation_grid,
    renormalized,
    split_step_evolve,
)
from .config import (
    RunConfig,
    parse_pi_times,
    preset,
)

__version__ = "0.1.0"

__all__ = [
    "AliasingRisk", "BranchJump", "Cancelled", "ConfigError", "GridMismatch",
    "InvalidCount", "NegativeIndex", "NonFiniteValue", "NonPositiveC0",
    "NonZeroStart", "NormDeficitWarning", "NormDrift", "OriginCrossing",
    "StabilityRegionWarning", "TooFewPoints", "TooManySamples",
    "UnknownPreset", "WavetrainError",
    "UniformGrid", "build_space_grid", "central_diff",
    "cumulative_simpson", "field_integral", "is_power_of_two",
    "ClassicalInit", "PolarTrajectory", "Trajectory", "TrapParameters",
    "first_integral", "picard_iterate", "polar_decompose", "solve_classical",
    "unperturbed_solution",
    "CoefficientSet", "FieldGrid", "TrainFrame", "TrainSpec", "amplitude",
    "auto_space_grid", "center_orbit", "coefficients",
    "count_density_maxima", "count_nodes", "hermite_scaled", "hermite_table",
    "mean_energy_moments", "overlap", "phase", "psi", "psi_on_grid",
    "train_frame", "xi_of",
    "PropagatorConfig", "l2_density_distance", "propagation_grid",
    "renormalized", "split_step_evolve",
    "RunConfig", "parse_pi_times", "preset",
    "__version__",
]
