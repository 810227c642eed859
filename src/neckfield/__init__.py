"""Exterior potential theory around near-touching perfect conductors.

The package solves the exterior conductivity problem for 2D inclusion
scenes, carries the closed-form two-disk machinery used as its oracle, and
verifies the narrow-gap gradient blow-up scales by parameter sweeps.
"""

from .errors import (DomainError, InvalidGeometryError, InvalidParameterError,
                     InvalidUsageError, NeckfieldError, NumericFailureError,
                     RefinementFailureError, ScaleRegimeWarning,
                     SingularInputError, SweepFailureError)
from .geometry.shapes import Disk, HarmonicBackground, SmoothBoundary
from .geometry.body import Body
from .geometry.gap import GapInfo, body_gap, gap
from .geometry.config import (Configuration, build_case_a, build_case_b,
                              build_case_c, build_case_d, build_two_disks)
from .images import (FixedPointPair, TwoDiskField, fixed_points,
                     psi_gap_difference, psi_two_disks, reflect,
                     two_disk_asymptotic_difference,
                     two_disk_potential_difference)
from .solver.mesh import BoundaryMesh, MeshControls, build_mesh
from .solver.nystrom import (FieldSolution, SceneOperator, max_gap_gradient,
                             solve_h, solve_hc, solve_u)
from .solver.fields import Representation, representation_coeffs
from .asymptotics import (BoundPrediction, DiagnosticReport, bound_case_a,
                          bound_case_b, bound_case_c, bound_case_d, lemma_suite)
from .sweeps import (RateFit, SandwichResult, SweepSpec, SweepTable, Tie,
                     fit_rate, log_grid, run_sweep, sandwich_check)

__version__ = "0.1.0"
