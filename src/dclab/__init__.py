"""Finite element laboratory for Dirichlet boundary control on polygons.

Solves min 1/2 ||y - y_target||^2 + nu/2 ||u||^2 over controls u on the
boundary with -lap y = 0, y = u on the boundary and box constraints
a <= u <= b, then dissects the corner-singularity structure of the
state, adjoint, and control.
"""

from .geometry import (
    GeometryError,
    PolygonalDomain,
    SingularBoundaryData,
    build_domain,
    l_shape,
    sector,
    unit_square,
)
from .meshing import MeshError, TriMesh, structured_mesh, triangulate
from .fem import DiscontinuityLine, FemError, FemSystem, ScalarField, solve_dirichlet
from .control import (
    CallableTarget,
    ConstantTarget,
    ControlError,
    ControlProblem,
    solve_constrained,
    solve_unconstrained,
)
from .singular import (
    AnalysisError,
    classify_H_sets,
    extract_coefficients,
    flatness_diagnostic,
    rate_estimate,
    structural_fit_control,
    verify_singular_expansion,
)

__version__ = "0.1.0"
