from .mesh import BoundaryMesh, CurveMesh, MeshControls, build_mesh
from .nystrom import (FieldSolution, GapGradient, SceneOperator,
                      max_gap_gradient, solve_h, solve_hc, solve_u)
from .fields import Representation, representation_coeffs
