"""Higher-level field constructions on top of the Nystrom solver: the
three-conductor representation through unit-flux fields and the interior
harmonic-basis decomposition inside an enclosing disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import InvalidGeometryError, InvalidUsageError, NumericFailureError
from ..geometry.body import Body
from ..geometry.config import Configuration
from ..geometry.shapes import Disk, HarmonicBackground
from .mesh import MeshControls, build_mesh
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

    def gradient(self, pts, check_domain: bool = True):
        return (self.hc.gradient(pts, check_domain)
                + self.c1 * self.h1.gradient(pts, check_domain=False)
                + self.c2 * self.h2.gradient(pts, check_domain=False))


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


@dataclass
class Decomposition:
    """u = C0 + v0 + C1*v1 + C3*v3 inside the enclosing disk, where v1 and
    v3 are the harmonic basis functions of the first and third conductor
    (value 1 there, 0 on the other boundaries), v0 carries u's trace on the
    enclosing circle, and C0 is u's constant on the middle conductor.

    C1 = u|_1 - u|_2 and C3 = u|_3 - u|_2, so |C1| and |C3| equal the
    adjacent-pair potential differences.
    """

    C0: float
    C1: float
    C3: float
    v0: FieldSolution
    v1: FieldSolution
    v3: FieldSolution
    u: FieldSolution
    disk0: Disk

    def reconstructed(self, pts):
        return (self.C0 + self.v0.potential(pts, check_domain=False)
                + self.C1 * self.v1.potential(pts, check_domain=False)
                + self.C3 * self.v3.potential(pts, check_domain=False))

    def residual(self, pts) -> float:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        u_vals = self.u.potential(pts)
        return float(np.max(np.abs(u_vals - self.reconstructed(pts))))


def decompose_u(cfg: Configuration, disk0: Disk,
                controls: MeshControls = MeshControls(),
                u: Optional[FieldSolution] = None) -> Decomposition:
    """Interior harmonic-basis decomposition of the conductor potential.

    Requires the enclosing disk to contain every body with clearance at
    least twice the largest body diameter.
    """
    if cfg.n_conductors != 3 or any(len(g) != 1 for g in cfg.groups):
        raise InvalidUsageError("decomposition needs exactly three single-body conductors")
    max_diam = max(b.diameter() for b in cfg.bodies)
    for b in cfg.bodies:
        c, r = b.bounding_circle()
        clearance = disk0.radius - (float(np.hypot(*(c - disk0.c))) + r)
        if clearance < 2.0 * max_diam:
            raise InvalidGeometryError(
                f"enclosing disk clearance {clearance:.3g} below twice the "
                f"largest body diameter {max_diam:.3g}")
    u = u or SceneOperator(cfg, controls).solve_u()
    C0 = u.constant(1)
    C1 = u.constant(0) - C0
    C3 = u.constant(2) - C0
    op = SceneOperator(cfg, controls, mesh=build_mesh(
        cfg, controls, extra_bodies=(Body.from_disk(disk0),)))
    mesh = op.mesh
    ring = mesh.curve_slice(len(cfg.bodies))
    everything = (tuple(range(len(mesh.curves))),)

    def dirichlet(body_values, ring_values) -> FieldSolution:
        # S g - c = data with zero total charge, so v = S[g] - c
        data = np.append(body_values, 0.0)[mesh.body_of_node]
        data[ring] = ring_values
        g, c = op._solve(np.zeros(mesh.n_total, dtype=int), data, np.zeros(1))
        return FieldSolution(op, "v", everything, g, -c,
                             HarmonicBackground.constant(-c[0]))

    u_ring = u.potential(mesh.nodes[ring], check_domain=False)
    v0 = dirichlet(np.zeros(3), u_ring - C0)
    v1 = dirichlet([1.0, 0.0, 0.0], 0.0)
    v3 = dirichlet([0.0, 0.0, 1.0], 0.0)
    return Decomposition(C0, float(C1), float(C3), v0, v1, v3, u, disk0)
