"""Solver suite for the axisymmetric profile reduction of a spherical
ferromagnet energy: heat-flow relaxation, direct stationary solves,
second-variation spectra, saddle certification, and anisotropy sweeps."""

__version__ = "0.1.0"

from .energy import (EnergyParams, TridiagonalOperator,
                     assemble_second_variation, el_residual, reduced_energy,
                     residual_supnorm, second_variation_form,
                     wedge_certificates)
from .flow import (FlowConfig, FlowResult, FlowStatus, comparison_trial,
                   detect_blowup, run)
from .grid import Grid, make_grid, quad_sin
from .profile import (Profile, W1, W2, WedgeSpec, builtin_profile, degree,
                      hemispheric_deviation, is_hemispheric,
                      make_initial_first_type, make_initial_second_type,
                      make_profile, node_derivative, perturbation_direction,
                      read_profile_csv, wedge_check, write_profile_csv)
from .saddle import (FIRST, SECOND, BlowupError, ContinuationError,
                     SaddleReport, SaddleValidationError, SweepResult,
                     find_first_type, find_second_type,
                     probe_second_branch_floor, sweep)
from .spectrum import SpectrumResult, classify, eigs_lowest, legendre_validation
from .stationary import (Branch, BranchPoint, NewtonError, continue_branch,
                         newton_solve)

__all__ = [
    "EnergyParams", "TridiagonalOperator", "assemble_second_variation",
    "el_residual", "reduced_energy", "residual_supnorm",
    "second_variation_form", "wedge_certificates",
    "FlowConfig", "FlowResult", "FlowStatus", "comparison_trial",
    "detect_blowup", "run",
    "Grid", "make_grid", "quad_sin",
    "Profile", "W1", "W2", "WedgeSpec", "builtin_profile", "degree",
    "hemispheric_deviation", "is_hemispheric", "make_initial_first_type",
    "make_initial_second_type", "make_profile", "node_derivative",
    "perturbation_direction", "read_profile_csv", "wedge_check",
    "write_profile_csv",
    "FIRST", "SECOND", "BlowupError", "ContinuationError", "SaddleReport",
    "SaddleValidationError", "SweepResult", "find_first_type",
    "find_second_type", "probe_second_branch_floor", "sweep",
    "SpectrumResult", "classify", "eigs_lowest", "legendre_validation",
    "Branch", "BranchPoint", "NewtonError", "continue_branch", "newton_solve",
]
