"""Closed-form machinery for two disjoint disks: circle inversions, the
common inverse-point pair, and the log-pair field

    Psi(x) = (1/2pi) (log|x - p1| - log|x - p2|),

which is constant on each circle, decays like 1/|x| at infinity, and carries
unit fluxes of opposite sign through the two boundaries. It doubles as the
oracle for the boundary-integral solver on two-disk scenes.

Flux sign convention throughout the package: the normal on a body boundary
points INTO the body (outward normal of the exterior domain), so the flux of
a field with enclosed charge q through that boundary is -q. Psi has charge
+1 at p1 (inside disk 1), hence flux -1 through boundary 1 and +1 through
boundary 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidGeometryError, InvalidParameterError,
                     SingularInputError)
from .geometry.shapes import Disk, HarmonicBackground

_TWO_PI = 2.0 * np.pi


def reflect(d: Disk, x):
    """Circle inversion with respect to the disk's boundary:
    x -> r^2 (x - c)/|x - c|^2 + c. An involution; boundary points are fixed."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    v = x - d.c
    n2 = np.einsum("ij,ij->i", v, v)
    if np.any(n2 == 0.0):
        raise SingularInputError("cannot reflect the disk center")
    out = d.c + (d.radius**2 / n2)[:, None] * v
    return out[0] if single else out


@dataclass(frozen=True)
class FixedPointPair:
    """The common inverse points of two disjoint circles: each point is the
    inversion image of the other with respect to both circles, equivalently
    the fixed points of the composed reflections."""

    p1: tuple[float, float]
    p2: tuple[float, float]

    @property
    def a1(self) -> np.ndarray:
        return np.array(self.p1)

    @property
    def a2(self) -> np.ndarray:
        return np.array(self.p2)


def fixed_points(d1: Disk, d2: Disk) -> FixedPointPair:
    """Common inverse-point pair of two disjoint disks.

    Reduced to the center line: with centers at a1 = 0 and a2 = d on that
    axis, the two conditions (f - a_i)(g - a_i) = r_i^2 give a quadratic
    whose roots are the two points, s/2 -+ sqrt((s/2 - r1)(s/2 + r1)) with
    s = f + g. Its factor s/2 - r1 = gap (d - r1 + r2) / (2d) is formed
    from the gap, not by cancellation. Near-tangent pairs (gap below 1e-12
    of the smaller radius) are rejected; the discriminant degenerates there.
    """
    c1, c2 = d1.c, d2.c
    axis = c2 - c1
    dist_centers = float(np.hypot(*axis))
    gap = dist_centers - d1.radius - d2.radius
    if gap <= 0:
        raise InvalidGeometryError("disks must be disjoint with a positive gap")
    if gap < 1e-12 * min(d1.radius, d2.radius):
        raise InvalidGeometryError("disks are numerically tangent; inverse points degenerate")
    e = axis / dist_centers
    # s/2 - r1, the distance from circle 1 to the midpoint of the two roots
    h = gap * (dist_centers - d1.radius + d2.radius) / (2 * dist_centers)
    root = np.sqrt(h * (h + 2 * d1.radius))
    f = d1.radius + h - root   # inside disk 1
    g = d1.radius + h + root   # inside disk 2
    p1 = c1 + f * e
    p2 = c1 + g * e
    return FixedPointPair((float(p1[0]), float(p1[1])), (float(p2[0]), float(p2[1])))


@dataclass(frozen=True)
class TwoDiskField:
    """The log-pair field of two disjoint disks, with evaluators for the
    potential and its gradient and the constant boundary values."""

    d1: Disk
    d2: Disk
    points: FixedPointPair

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        r1 = np.hypot(x[:, 0] - self.points.p1[0], x[:, 1] - self.points.p1[1])
        r2 = np.hypot(x[:, 0] - self.points.p2[0], x[:, 1] - self.points.p2[1])
        out = (np.log(r1) - np.log(r2)) / _TWO_PI
        return float(out[0]) if single else out

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        v1 = x - self.points.a1
        v2 = x - self.points.a2
        g = (v1 / np.einsum("ij,ij->i", v1, v1)[:, None]
             - v2 / np.einsum("ij,ij->i", v2, v2)[:, None]) / _TWO_PI
        return g[0] if single else g

    @property
    def boundary_value_1(self) -> float:
        """Constant value on circle 1 (evaluated at its gap-side point)."""
        e = (self.d2.c - self.d1.c)
        e = e / np.hypot(*e)
        return self.potential(self.d1.c + self.d1.radius * e)

    @property
    def boundary_value_2(self) -> float:
        e = (self.d1.c - self.d2.c)
        e = e / np.hypot(*e)
        return self.potential(self.d2.c + self.d2.radius * e)


def psi_two_disks(d1: Disk, d2: Disk) -> TwoDiskField:
    return TwoDiskField(d1, d2, fixed_points(d1, d2))


def psi_gap_difference(d1: Disk, d2: Disk) -> float:
    """Difference of the two constant boundary values (circle 2 minus
    circle 1), always positive; scales like sqrt((r1+r2)/(r1 r2)) sqrt(eps)
    for small gaps."""
    f = psi_two_disks(d1, d2)
    return f.boundary_value_2 - f.boundary_value_1


def two_disk_potential_difference(d1: Disk, d2: Disk,
                                  background: HarmonicBackground) -> float:
    """Exact potential difference u|_2 - u|_1 of the exterior conductor
    problem for two disks under the given background: H(p2) - H(p1).

    The identity is exact (Green's identity applied to H against the
    log-pair field inside each disk), and expands to

        2 sqrt(2) dH/dx1(0,0) sqrt(r1 r2/(r1+r2)) sqrt(eps) + O(eps)

    in the collinear small-gap normalization.
    """
    fp = fixed_points(d1, d2)
    return float(background(fp.a2) - background(fp.a1))


def two_disk_asymptotic_difference(r1: float, r2: float, eps: float,
                                   dH_dx1: float = 1.0) -> float:
    """Leading-order potential difference for the collinear two-disk scene."""
    if min(r1, r2, eps) <= 0:
        raise InvalidParameterError("radii and gap must be positive")
    return 2 * np.sqrt(2.0) * dH_dx1 * np.sqrt(r1 * r2 / (r1 + r2)) * np.sqrt(eps)
