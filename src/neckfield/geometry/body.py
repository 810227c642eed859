"""Bodies: connected inclusion cross-sections built from one disk, one smooth
curve, or the union of two overlapping disks (a lens with two corners).

A body exposes its boundary as a list of ``BoundaryChart`` pieces traversed
counterclockwise; meshing and gap location work only through that interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import InvalidGeometryError
from .shapes import Disk, SmoothBoundary, curvature


@dataclass(frozen=True)
class BoundaryChart:
    """One smooth piece of a body boundary.

    ``point`` and ``jet`` (the point, first and second derivative, from one
    trigonometric table) are vectorized over the chart parameter u in
    [u0, u1]; for full closed curves the parameter is 2*pi-periodic and
    ``closed`` is True. ``corner_start`` marks a chart whose start is a
    genuine corner of the body boundary. ``circle``
    is the disk whose circle the chart traces (a disk's one chart, both
    arcs of a lens), and None for a smooth curve: the gap search takes its
    closed form from it.
    """

    point: Callable[[np.ndarray], np.ndarray]
    jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    u0: float
    u1: float
    closed: bool = False
    corner_start: bool = False
    circle: Optional[Disk] = None

    @property
    def span(self) -> float:
        return self.u1 - self.u0

    def curvature(self, u):
        return curvature(*self.jet(u)[1:])


def lens_corners(d1: Disk, d2: Disk) -> tuple[np.ndarray, np.ndarray]:
    """Intersection points of the two circles, upper one first.

    Requires genuine overlap: the circles intersect transversally and
    neither disk contains the other.
    """
    c1, c2 = d1.c, d2.c
    d = float(np.hypot(*(c2 - c1)))
    if d >= d1.radius + d2.radius:
        raise InvalidGeometryError("lens disks do not overlap")
    if d <= abs(d1.radius - d2.radius):
        raise InvalidGeometryError("one lens disk contains the other")
    e = (c2 - c1) / d
    e_perp = np.array([-e[1], e[0]])
    along = (d * d + d1.radius**2 - d2.radius**2) / (2 * d)
    h2 = d1.radius**2 - along**2
    if h2 <= 0:
        raise InvalidGeometryError("lens disks are tangent (degenerate corners)")
    h = np.sqrt(h2)
    base = c1 + along * e
    upper = base + h * e_perp
    lower = base - h * e_perp
    return upper, lower


class Body:
    """A single conductor cross-section.

    Construct with :meth:`from_disk`, :meth:`from_smooth`, or :meth:`lens`.
    """

    def __init__(self, kind: str, disk: Optional[Disk] = None,
                 smooth: Optional[SmoothBoundary] = None,
                 lens_disks: Optional[tuple[Disk, Disk]] = None):
        self.kind = kind
        self.disk = disk
        self.smooth = smooth
        self.lens_disks = lens_disks
        self.corners: tuple[np.ndarray, ...] = ()
        if kind == "lens":
            assert lens_disks is not None
            self.corners = lens_corners(*lens_disks)

    @staticmethod
    def from_disk(d: Disk) -> "Body":
        return Body("disk", disk=d)

    @staticmethod
    def from_smooth(s: SmoothBoundary) -> "Body":
        return Body("smooth", smooth=s)

    @staticmethod
    def lens(da: Disk, db: Disk) -> "Body":
        """Union of two overlapping disks; boundary has exactly two corners."""
        return Body("lens", lens_disks=(da, db))

    # -- identity / transforms -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Body) or self.kind != other.kind:
            return NotImplemented if not isinstance(other, Body) else False
        if self.kind == "disk":
            return self.disk == other.disk
        if self.kind == "smooth":
            return self.smooth == other.smooth
        return self.lens_disks == other.lens_disks

    def __repr__(self):
        if self.kind == "disk":
            return f"Body.from_disk({self.disk!r})"
        if self.kind == "smooth":
            return f"Body.from_smooth({self.smooth!r})"
        return f"Body.lens({self.lens_disks[0]!r}, {self.lens_disks[1]!r})"

    def translated(self, v) -> "Body":
        if self.kind == "disk":
            return Body.from_disk(self.disk.translated(v))
        if self.kind == "smooth":
            return Body.from_smooth(self.smooth.translated(v))
        return Body.lens(self.lens_disks[0].translated(v), self.lens_disks[1].translated(v))

    # -- geometry queries --------------------------------------------------

    def contains(self, pts, pad: float = 0.0):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "disk":
            return self.disk.contains(pts, pad)
        if self.kind == "smooth":
            return self.smooth.contains(pts, pad)
        da, db = self.lens_disks
        return da.contains(pts, pad) | db.contains(pts, pad)

    @property
    def convex(self) -> bool:
        """Whether the body is convex: a disk is, a lens is not (its two
        corners are reentrant), a smooth body as ``SmoothBoundary.convex``
        reads."""
        if self.kind == "disk":
            return True
        return self.kind == "smooth" and self.smooth.convex

    def bounding_circle(self) -> tuple[np.ndarray, float]:
        """A circle containing the body: exact for a disk and a lens; for a
        smooth curve it is sampled (``SmoothBoundary.bounding_circle``)."""
        if self.kind == "disk":
            return self.disk.c, self.disk.radius
        if self.kind == "smooth":
            return self.smooth.bounding_circle()
        da, db = self.lens_disks
        c = 0.5 * (da.c + db.c)
        r = max(float(np.hypot(*(da.c - c))) + da.radius,
                float(np.hypot(*(db.c - c))) + db.radius)
        return c, r

    def diameter(self) -> float:
        _, r = self.bounding_circle()
        return 2.0 * r

    def charts(self) -> list[BoundaryChart]:
        if self.kind == "disk":
            d = self.disk
            return [BoundaryChart(d.point, d.jet, 0.0, 2 * np.pi, closed=True, circle=d)]
        if self.kind == "smooth":
            s = self.smooth
            return [BoundaryChart(s.point, s.jet, 0.0, 2 * np.pi, closed=True)]
        return self._lens_charts()

    def _lens_charts(self) -> list[BoundaryChart]:
        """The two outer arcs as one counterclockwise loop, each starting at
        a corner. ``lens_corners`` puts the upper corner to the left of the
        line from the first centre to the second, and each disk's point that
        faces the other centre lies inside the other disk. So the first
        disk's outer arc runs counterclockwise from the upper corner to the
        lower, and the second disk's from the lower corner to the upper."""
        upper, lower = self.corners

        def outer_arc(d: Disk, start, end) -> BoundaryChart:
            lo = float(np.arctan2(start[1] - d.center[1], start[0] - d.center[0]))
            hi = float(np.arctan2(end[1] - d.center[1], end[0] - d.center[0]))
            while hi <= lo:
                hi += 2 * np.pi
            return BoundaryChart(d.point, d.jet, lo, hi, corner_start=True, circle=d)

        da, db = self.lens_disks
        return [outer_arc(da, upper, lower), outer_arc(db, lower, upper)]
