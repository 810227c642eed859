"""The three-conductor representation on top of the Nystrom solver:
the conductor potential through the single-constant field and two
unit-flux fields, all solved against one operator's factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import InvalidUsageError, NumericFailureError
from ..geometry.config import Configuration
from .mesh import MeshControls
from .nystrom import FieldSolution, SceneOperator


@dataclass
class Representation:
    """u = Hc + c1*h1 + c2*h2 for a three-conductor scene, where h1 splits
    {1 | 2,3}, h2 splits {1,2 | 3}, and Hc is the single-constant field.

    The coefficients solve the 2x2 flux system that zeroes the net flux of
    the right-hand side through the first and second conductor boundaries
    (the third follows since all pieces have zero total flux).
    """

    c1: float
    c2: float
    h1: FieldSolution
    h2: FieldSolution
    hc: FieldSolution
    flux_matrix: np.ndarray

    def potential(self, pts, check_domain: bool = True):
        return (self.hc.potential(pts, check_domain)
                + self.c1 * self.h1.potential(pts, check_domain=False)
                + self.c2 * self.h2.potential(pts, check_domain=False))


def representation_coeffs(cfg: Configuration,
                          controls: MeshControls = MeshControls(),
                          op: Optional[SceneOperator] = None) -> Representation:
    """Solve the three-conductor representation; requires conductors ordered
    left/middle/right as in the canonical three-body scenes."""
    if cfg.n_conductors != 3 or any(len(g) != 1 for g in cfg.groups):
        raise InvalidUsageError("representation needs exactly three single-body conductors")
    op = op or SceneOperator(cfg, controls)
    h1 = op.solve_h(((0,), (1, 2)))
    h2 = op.solve_h(((0, 1), (2,)))
    hc = op.solve_hc()
    A = np.array([[h1.boundary_flux(0), h2.boundary_flux(0)],
                  [h1.boundary_flux(1), h2.boundary_flux(1)]])
    rhs = -np.array([hc.boundary_flux(0), hc.boundary_flux(1)])
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(det) < 1e-12 * max(1.0, float(np.max(np.abs(A)))) ** 2:
        raise NumericFailureError("singular flux system in the representation",
                                  {"matrix": A.tolist()})
    c = np.linalg.solve(A, rhs)
    return Representation(float(c[0]), float(c[1]), h1, h2, hc, A)
