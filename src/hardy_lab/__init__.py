"""Numerical laboratory for operator-adapted Hardy and BMO spaces.

Discretized divergence-form operators L = -div(A grad) with complex
elliptic coefficients, their heat/Poisson/resolvent calculus, square and
maximal functionals, the molecular Hardy-space decomposition, BMO and
Carleson machinery, and the Riesz transform grad L^{-1/2}.
"""

from .grid import (
    CoefficientField,
    Cube,
    Grid,
    GridError,
    ScalarField,
    VectorField,
    check_ellipticity,
    full_grid_cube,
    identity_coefficients,
    lp_norm,
    random_elliptic_coefficients,
    restricted_lp_norm,
)
from .operator import DiscreteOperator, assemble_operator
from .semigroup import (
    TimeGrid,
    default_time_grid,
    heat_apply,
    heat_profile,
    mean_zero,
    neg_power_apply,
    poisson_apply,
    poisson_profile,
    resolvent_apply,
    sqrt_apply,
)
from .functionals import (
    ConeSpec,
    SpaceTimeField,
    aperture_compare,
    cone_integrate,
    hl_maximal,
    nontangential_max,
    square_function,
    vertical_square_function,
)
from .decomposition import (
    Molecule,
    MolecularDecomposition,
    calderon_constant,
    h1_norm_estimate,
    make_molecule,
    molecular_decompose,
    validate_molecule,
    whitney_decompose,
)
from .spaces import (
    bmo_norm,
    carleson_functional,
    duality_constant,
    duality_pair,
    dyadic_cubes,
    john_nirenberg_compare,
    tent_norms,
)
from .riesz import (
    GaffneyProfile,
    commutator_slope,
    gaffney_profile,
    inv_sqrt_apply,
    riesz_apply,
    riesz_h1_experiment,
)
from .corpus import generate_corpus, molecule_corpus

__version__ = "0.1.0"
