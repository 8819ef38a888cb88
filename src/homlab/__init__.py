"""homlab: a numerical laboratory for correctors, flux potentials and
large-scale regularity diagnostics of random elliptic operators on
periodized boxes and no-flux half-boxes."""

from .grid import Grid
from .field import (
    CoefficientField,
    EllipticityError,
    EllipticityReport,
    EnsembleSpec,
    FieldFileError,
    load_field,
    restrict_to_half_box,
    sample_field,
    save_field,
    validate_ellipticity,
)
from .pde import (
    BoundarySpec,
    Dirichlet,
    NoFlux,
    Operator,
    ScalarField,
    SolverError,
    SolveStats,
    SourceTerm,
    VectorField,
    assemble,
    caccioppoli_ratio,
    flux,
    gradient,
    solve,
)
from .corrector import (
    CorrectorSet,
    FluxPotentialSet,
    HomogenizedMatrix,
    SublinearityCurve,
    dyadic_radii,
    flux_potential_residual,
    homogenized_matrix,
    monte_carlo_homogenized,
    solve_correctors,
    solve_flux_potential,
    solve_pair,
    sublinearity_curve,
)
from .halfspace import (
    DyadicConfig,
    HalfSpaceCorrectorSet,
    TangentialBasis,
    build_halfspace_set,
    dyadic_construction,
    half_sublinearity_curve,
    halfspace_residuals,
    solve_halfspace_correction,
    solve_vector_potentials,
    tangential_basis,
)
from .excess import (
    ExcessReport,
    ExcessValue,
    HarmonicSample,
    band_limited_trace,
    coercivity_check,
    excess,
    excess_decay_experiment,
    harmonic_sample,
    liouville_check,
    mean_value_check,
    smallness_radius,
    window_operator,
)

__version__ = "0.4.0"
