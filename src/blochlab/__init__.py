"""Numerical laboratory for Bloch spectra of periodic conductivities.

Cell-centered finite-volume discretizations of shifted elliptic operators on
the torus, with hand-rolled Hermitian solvers, homogenized-tensor and
dispersion post-processing, weighted Poincare constants, and scripted
high-contrast experiment sweeps.
"""

from .grid import PeriodicGrid, ScalarGridField, make_grid
from .microstructure import (
    CoefficientField,
    Constant,
    FiberLattice,
    FromFile,
    TwoPhaseInclusion,
    default_beta,
    radius_for_gamma,
    rasterize,
    unit_pattern,
)
from .sparse_linalg import (
    ConvergenceError,
    EigSolveReport,
    cg_solve,
    dense_oracle,
    largest_geneig,
    smallest_eigpair,
)
from .bloch import (
    EigResult,
    ExpansionFit,
    assemble_shifted,
    bloch_lambda1,
    bloch_reduced,
    canonical_momentum,
    expansion_fit,
    fiber_lambda1_2d,
    reference_inverse,
)
from .cell_problems import (
    DispersionSample,
    HomogenizedMatrix,
    corrector,
    dispersion,
    homogenized,
    pw_constant,
)
from .capacity import CapacityProfile, annulus_energy, scaled_energy, vhat
from .experiments import (
    ExperimentTable,
    resolve_resolution,
    run_gap_map,
    run_pw,
    run_thm22,
    run_thm31,
)
from .config import ConfigError, RunConfig, parse_config
from .fieldio import read_field_dump, write_field_dump

__all__ = [
    "PeriodicGrid",
    "ScalarGridField",
    "make_grid",
    "CoefficientField",
    "Constant",
    "TwoPhaseInclusion",
    "FiberLattice",
    "FromFile",
    "default_beta",
    "radius_for_gamma",
    "rasterize",
    "unit_pattern",
    "ConvergenceError",
    "EigSolveReport",
    "cg_solve",
    "dense_oracle",
    "largest_geneig",
    "smallest_eigpair",
    "EigResult",
    "ExpansionFit",
    "assemble_shifted",
    "bloch_lambda1",
    "bloch_reduced",
    "canonical_momentum",
    "expansion_fit",
    "fiber_lambda1_2d",
    "reference_inverse",
    "DispersionSample",
    "HomogenizedMatrix",
    "corrector",
    "dispersion",
    "homogenized",
    "pw_constant",
    "CapacityProfile",
    "annulus_energy",
    "scaled_energy",
    "vhat",
    "ExperimentTable",
    "resolve_resolution",
    "run_gap_map",
    "run_pw",
    "run_thm22",
    "run_thm31",
    "ConfigError",
    "RunConfig",
    "parse_config",
    "read_field_dump",
    "write_field_dump",
]

__version__ = "0.1.0"
