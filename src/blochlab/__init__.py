"""Numerical laboratory for Bloch spectra of periodic conductivities.

Cell-centered finite-volume discretizations of shifted elliptic operators on
the torus, with hand-rolled Hermitian solvers, homogenized-tensor and
dispersion post-processing, weighted Poincare constants, and scripted
high-contrast experiment sweeps.
"""

from .grid import PeriodicGrid, make_grid
from .microstructure import (
    CoefficientField,
    Constant,
    FiberLattice,
    FromFile,
    TwoPhaseInclusion,
    radius_for_gamma,
    rasterize,
)
from .sparse_linalg import (
    ConvergenceError,
    EigSolveReport,
    cg_solve,
    largest_geneig,
    smallest_eigpair,
)
from .bloch import (
    assemble_shifted,
    bloch_lambda1,
    bloch_reduced,
    canonical_momentum,
    fiber_lambda1_2d,
    shifted_pencil,
)
from .cell_problems import (
    DispersionSample,
    HomogenizedMatrix,
    dispersion,
    homogenized,
    pw_constant,
)
from .capacity import CapacityProfile, annulus_energy, scaled_energy
from .experiments import (
    ExperimentTable,
    run_gap_map,
    run_pw,
    run_thm22,
    run_thm31,
)
from .plan import resolve_resolution
from .config import ConfigError, RunConfig, parse_config
from .fieldio import read_field_dump, write_field_dump

__all__ = [
    "PeriodicGrid",
    "make_grid",
    "CoefficientField",
    "Constant",
    "TwoPhaseInclusion",
    "FiberLattice",
    "FromFile",
    "radius_for_gamma",
    "rasterize",
    "ConvergenceError",
    "EigSolveReport",
    "cg_solve",
    "largest_geneig",
    "smallest_eigpair",
    "assemble_shifted",
    "bloch_lambda1",
    "bloch_reduced",
    "canonical_momentum",
    "fiber_lambda1_2d",
    "shifted_pencil",
    "DispersionSample",
    "HomogenizedMatrix",
    "dispersion",
    "homogenized",
    "pw_constant",
    "CapacityProfile",
    "annulus_energy",
    "scaled_energy",
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
