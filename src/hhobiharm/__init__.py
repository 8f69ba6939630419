"""Hybrid high-order discretizations of the biharmonic problem on polygonal meshes.

The package solves Lap^2 u = f on (0,1)^2 with clamped boundary conditions
(strongly enforced or through a parameter-free Nitsche penalty) using cell
and face polynomial unknowns coupled by a local Hessian reconstruction, and
reduces every solve to a symmetric positive definite system on the face
unknowns by static condensation.
"""

from .common import AssemblyError, ConfigError, NumericalError, SolverError
from .mesh import (Mesh, MeshError, MeshFormatError,
                   SubTriangulation, ValidationReport, build_polygon_mesh,
                   build_rect_mesh, build_tri_mesh, build_voronoi_mesh,
                   load_mesh, save_mesh, subtriangulate, translation_classes,
                   validate, with_flipped_face)
from .quadrature import QuadratureRule, cell_rule, face_rule, segment_rule, triangle_rule
from .polyspace import (CellBasis, FaceBasis, PolyCoeffs, canonical_interp_face,
                        canonical_interp_matrix, cell_mass_matrix,
                        face_derivatives, hessian_traces_on_face,
                        normal_derivative_on_face, project_cell, project_face,
                        space_dim, tangential_derivative, trace_on_face)
from .localops import (LocalDofLayout, LocalOperators, build_local_matrices,
                       build_reconstruction, build_seminorm_gram,
                       build_stabilization, elliptic_projection_oracle,
                       local_seminorm, make_layout, reduce_cell, rigid_modes)
from .assembly import (BoundaryData, CondensedSystem, DofMap, HHOSolution,
                       assemble, recover_cells)
from .solving import (ErrorReport, RateTable, SolveConfig, convergence_study,
                      error_norms, projection_gap_sharp_norm,
                      reconstruct_field, solve, solve_and_measure)
from .manufactured import (ManufacturedCase, get_case, polynomial_case,
                           random_polynomial_case)

__version__ = "0.1.0"
