"""Vector-valued Schrodinger semigroups on truncated grids.

The generator is L = div(Q grad .) + V acting on m-component fields over a
box [-R, R]^d with zero Dirichlet truncation.  The package assembles the
discrete generator, evolves it by operator splitting, probes resolvents,
eigenvalues and integral kernels, and runs a suite of theorem-level property
checks (contraction, positivity, pointwise domination, ultracontractive
smoothing, compactness contrast, and the classical counterexamples).
"""

from vschro.mesh import Grid, VectorField, build_grid, dual_pairing, lp_norm
from vschro.fields import (
    HypothesisReport,
    MatrixField,
    matrix_exp,
    sample_field,
    validate_hypotheses,
)
from vschro.operators import (
    SparseOperator,
    assemble_diffusion,
    assemble_potential,
)
from vschro.evolve import SplitConfig, Trajectory, trotter_evolve

__all__ = [
    "Grid",
    "VectorField",
    "build_grid",
    "lp_norm",
    "dual_pairing",
    "MatrixField",
    "HypothesisReport",
    "sample_field",
    "matrix_exp",
    "validate_hypotheses",
    "SparseOperator",
    "assemble_diffusion",
    "assemble_potential",
    "SplitConfig",
    "Trajectory",
    "trotter_evolve",
]

__version__ = "0.1.0"
