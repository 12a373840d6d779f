"""Simulation and verification toolkit for the matrix model X_n = P_n + i*Q_n.

P_n and Q_n are independently Haar-rotated Hermitian matrices with two-atom
spectra.  The package samples the model, builds the hyperbola-rectangle
support geometry and the corner atom weights of the limit law, verifies the
finite-n structure theorems (support, normality of the centered square, the
minimum-singular-value bound), runs the hermitization pipeline that recovers
the spectral measure from log potentials, and measures convergence across
dimensions.
"""

__version__ = "0.25.0"

from .model import (
    InvalidDimensionError,
    ModelRealization,
    ModelSpec,
    TwoAtomLaw,
    UsageError,
    assemble_model,
    pooled_eigenvalues,
    sample_haar_unitary,
    substream_rng,
    substream_seed,
    two_projection_eigenvalues,
)
from .geometry import (
    BrownAtomWeights,
    DegenerateGeometryError,
    HyperbolaRectangle,
    atom_weights,
    dist_to_hr_many,
    make_geometry,
)
from .spectra import (
    ComputationError,
    StructureReport,
    WeightedPointMeasure,
    esd,
    freeness_diagnostic,
    nu_n_z,
    structure_report,
    verify_sv_bound,
)
from .hermitization import (
    InvalidGridError,
    LaplacianRecovery,
    PerturbedNode,
    PotentialGrid,
    brown_pipeline,
    laplacian_recover,
    log_potential,
    potential_grid,
    sample_potential_grid,
)
from .convergence import (
    ConvergenceReport,
    CornerAtomMasses,
    bl_distance,
    convergence_run,
    corner_atom_masses,
    trend_acceptable,
)

from . import convergence, geometry, hermitization, model, spectra

__all__ = [
    name
    for module in (model, geometry, spectra, hermitization, convergence)
    for name in module.__all__
]
