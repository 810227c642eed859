"""Gap measurement between bodies: distance, closest points, neck segment.

Each body declares which of its charts are circular arcs
(``BoundaryChart.circle``: a disk's one chart, both arcs of a lens) and
whether it is convex (``Body.convex``). Two circular arcs take the closed
form; every other chart pair a Newton search on the squared distance whose
damped (Levenberg-Marquardt) steps never raise it, so every search ends on
a pair of boundary points. Two convex bodies, not both disks, take one run
from the nearest sampled start pair. Its result is certified when the run
has converged and the outward normals at its two feet face each other: the
supporting lines there separate the bodies by the distance of the feet, so
the gap is the global one and the bodies are disjoint. Every other pair,
and a convex pair whose run is not certified, first rules out containment
by a one-point probe per body, then runs the six best starts at once. All
return the chart and chart parameter of the two closest points, which the
mesh planner grades toward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import InvalidGeometryError, InvalidParameterError
from .body import Body, BoundaryChart
from .shapes import Disk

# A gap at or below this fraction of the larger body diameter is read as
# boundaries that cross or touch: a Newton run that lands on a crossing
# returns a distance of rounding size. The chain-map floor of the mesh
# planner stops two unit disks near 1.3e-12, far above it.
_TOUCH = 1e-14
# the Newton search samples each chart at this many starts and runs from
# this many of the closest start pairs
_STARTS, _RUNS = 8, 6
# a run has converged once a step it takes moves (u, v) by less than this
_STOP = 1e-14
# a step that D rejects multiplies a run's damping by _RAISE, from at least
# _DAMP0; a step it takes divides the damping by _LOWER
_DAMP0, _RAISE, _LOWER = 1e-3, 4.0, 3.0


class GapFoot(NamedTuple):
    """Where a closest point lies: ``Body.charts()[chart].point(u)`` of body
    ``body``. Every ``Configuration`` accessor (:func:`gap`,
    ``conductor_gap``, ``body_pair_gap``) gives the configuration's body
    index; only :func:`body_gap` gives 0 for ``body_a`` and 1 for
    ``body_b``."""

    body: int
    chart: int
    u: float


@dataclass(frozen=True)
class GapInfo:
    """Gap between two bodies: the closest boundary points, the straight
    neck segment joining them and, from the gap search, one :class:`GapFoot`
    per point. A hand-built GapInfo has no feet: it cannot be meshed, and
    ``max_gap_gradient`` takes both its ends to lie in the exterior."""

    distance: float
    point_i: tuple[float, float]
    point_j: tuple[float, float]
    feet: tuple[GapFoot, ...] = ()

    def __post_init__(self):
        if not (self.distance > 0):
            raise InvalidGeometryError(f"gap distance must be positive, got {self.distance}")

    def _relabeled(self, a: int, b: int, shift=(0.0, 0.0)) -> "GapInfo":
        """This gap moved by ``shift``, its first foot put on body a and its
        second on body b."""
        pi, pj = (tuple(float(c + d) for c, d in zip(p, shift))
                  for p in (self.point_i, self.point_j))
        fi, fj = self.feet
        return GapInfo(self.distance, pi, pj, (fi._replace(body=a), fj._replace(body=b)))

    def _reversed(self) -> "GapInfo":
        """This gap with its ends swapped."""
        return GapInfo(self.distance, self.point_j, self.point_i, self.feet[::-1])

    @property
    def segment(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.point_i), np.array(self.point_j)

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (np.array(self.point_i) + np.array(self.point_j))

    @property
    def direction(self) -> np.ndarray:
        """Unit vector from point_i toward point_j."""
        d = np.array(self.point_j) - np.array(self.point_i)
        return d / np.hypot(*d)


def _disk_disk(da: Disk, db: Disk):
    e = db.c - da.c
    d = float(np.hypot(*e))
    if d == 0:
        raise InvalidGeometryError("concentric disks have no gap direction")
    e = e / d
    dist = d - da.radius - db.radius
    pa = da.c + da.radius * e
    pb = db.c - db.radius * e
    ua = math.atan2(e[1], e[0]) % (2 * np.pi)
    return dist, pa, pb, ua, (ua + np.pi) % (2 * np.pi)


def _point_to_arc(p: np.ndarray, chart: BoundaryChart):
    """Closest point of a circular arc chart to the point p (closed form:
    clamp the angle of p into the arc's angle range)."""
    circle = chart.circle
    ang = float(np.arctan2(p[1] - circle.center[1], p[0] - circle.center[0]))
    lo, hi = chart.u0, chart.u1
    a = ang
    while a < lo:
        a += 2 * np.pi
    if a <= hi:
        u = a
    else:
        # outside the range: nearer endpoint wins
        u = lo if _ang_dist(ang, lo) <= _ang_dist(ang, hi) else hi
    q = chart.point(np.array([u]))[0]
    return float(np.hypot(*(p - q))), q, u


def _ang_dist(a: float, b: float) -> float:
    d = abs((a - b) % (2 * np.pi))
    return min(d, 2 * np.pi - d)


def _arc_arc_closed_form(ca: BoundaryChart, cb: BoundaryChart):
    """Exact gap between two circular arcs, as (distance, point on a, point
    on b, u on a, u on b): the circle-circle feet of ``_disk_disk`` if both
    lie on their arcs, else the best arc end against the other arc. A
    closed chart is its whole circle and has no ends."""
    circles = _disk_disk(ca.circle, cb.circle)
    if ca.closed and cb.closed:
        return circles
    dist, pa, pb, ua, ub = circles
    on_arcs = True
    if not ca.closed:
        miss, _, ua = _point_to_arc(pa, ca)
        on_arcs &= miss < 1e-12 * ca.circle.radius
    if not cb.closed:
        miss, _, ub = _point_to_arc(pb, cb)
        on_arcs &= miss < 1e-12 * cb.circle.radius
    candidates = [(dist, pa, pb, ua, ub)] if on_arcs else []
    # an arc end (corner) against the other arc, both ways
    for ua in () if ca.closed else (ca.u0, ca.u1):
        p = ca.point(np.array([ua]))[0]
        dist, q, ub = _point_to_arc(p, cb)
        candidates.append((dist, p, q, ua, ub))
    for ub in () if cb.closed else (cb.u0, cb.u1):
        p = cb.point(np.array([ub]))[0]
        dist, q, ua = _point_to_arc(p, ca)
        candidates.append((dist, q, p, ua, ub))
    return min(candidates, key=lambda c: c[0])


def _arc_arc_newton(ca: BoundaryChart, cb: BoundaryChart, touch: float = 0.0,
                    runs: int = _RUNS):
    """Levenberg-Marquardt on D(u, v) = |A(u) - B(v)|^2 from the ``runs``
    best of ``_STARTS``^2 sampled start pairs, all runs at once: each
    iteration evaluates each chart's ``jet`` once on the moving runs, and
    each run tries one ``_newton_step`` at its own damping. A run takes its
    step if D does not rise, and its damping falls; else it stays and its
    damping grows, until the step descends, at a saddle of D too. Where the
    step would leave an open chart (a lens arc), the run holds that end and
    the other parameter takes its own 1-D step. A run stops once a step it
    takes moves (u, v) by less than ``_STOP``, or at a distance of at most
    ``touch``: the boundaries touch or cross there, and the Hessian of D is
    singular where they touch. Returns (distance, point on a, point on b,
    u, v) of the closest run."""
    us = np.linspace(ca.u0, ca.u1, _STARTS, endpoint=not ca.closed)
    vs = np.linspace(cb.u0, cb.u1, _STARTS, endpoint=not cb.closed)
    d2 = ((ca.point(us)[:, None, :] - cb.point(vs)[None, :, :]) ** 2).sum(axis=2)
    iu, iv = np.unravel_index(np.argsort(d2, axis=None)[:runs], d2.shape)
    u, v = us[iu], vs[iv]
    damping = np.zeros(u.size)
    moving = np.ones(u.size, dtype=bool)
    for _ in range(60):
        k = np.flatnonzero(moving)
        if k.size == 0:
            break
        uk, vk, mu = u[k], v[k], damping[k]
        jet_a, jet_b = ca.jet(uk), cb.jet(vk)
        r, du, dv = _newton_step(jet_a, jet_b, mu)
        _, du1, dv1 = _newton_step(jet_a, jet_b, mu, coupled=False)
        ua, vb = uk + du, vk + dv
        hold_a = (not ca.closed) & ((ua < ca.u0) | (ua > ca.u1))
        hold_b = (not cb.closed) & ((vb < cb.u0) | (vb > cb.u1))
        du = np.where(hold_b & ~hold_a, du1, du)
        dv = np.where(hold_a & ~hold_b, dv1, dv)
        f0 = _dot(r, r)
        touched = f0 <= touch * touch
        # a non-finite step is not tried and fails
        trying = np.isfinite(du) & np.isfinite(dv) & ~touched
        un = _clamp(uk + np.where(trying, du, 0.0), ca)
        vn = _clamp(vk + np.where(trying, dv, 0.0), cb)
        rn = ca.point(un) - cb.point(vn)
        ok = trying & (_dot(rn, rn) <= f0 + 1e-15)
        u[k[ok]], v[k[ok]] = un[ok], vn[ok]
        damping[k] = np.where(ok, mu / _LOWER, np.maximum(_RAISE * mu, _DAMP0))
        moved = _param_move(uk, un, ca) + _param_move(vk, vn, cb)
        moving[k[(ok & (moved < _STOP)) | touched]] = False
    pa, pb = ca.point(u), cb.point(v)
    dist = np.hypot(*(pa - pb).T)
    i = int(np.argmin(dist))
    return float(dist[i]), pa[i], pb[i], float(u[i]), float(v[i])


def _newton_step(jet_a, jet_b, damping=0.0, coupled: bool = True):
    """Damped Newton step on D/2 at the chart jets ``jet_a`` and ``jet_b``:
    the solution (du, dv) of (H + damping max(|haa|, |hbb|) I) step = -g for
    the gradient g = (ga, gb) and the Hessian H = [[haa, hab], [hab, hbb]],
    as (A - B, du, dv). Without ``coupled``, hab is left out: each
    parameter takes its own 1-D step with the other held. The step is not
    finite where the damped Hessian is singular."""
    (pa, ta, sa), (pb, tb, sb) = jet_a, jet_b
    r = pa - pb
    ga, gb = _dot(r, ta), -_dot(r, tb)
    haa, hbb = _dot(ta, ta) + _dot(r, sa), _dot(tb, tb) - _dot(r, sb)
    hab = -_dot(ta, tb) if coupled else 0.0
    shift = damping * np.maximum(np.abs(haa), np.abs(hbb))
    haa, hbb = haa + shift, hbb + shift
    det = haa * hbb - hab * hab
    with np.errstate(divide="ignore", invalid="ignore"):
        du = (hab * gb - hbb * ga) / det
        dv = (hab * ga - haa * gb) / det
    return r, du, dv


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]


def _clamp(u: np.ndarray, chart: BoundaryChart) -> np.ndarray:
    """u brought onto the chart: modulo the period on a closed chart,
    clipped to [u0, u1] on an open one."""
    if chart.closed:
        return chart.u0 + (u - chart.u0) % chart.span
    return np.clip(u, chart.u0, chart.u1)


def _param_move(u: np.ndarray, un: np.ndarray, chart: BoundaryChart) -> np.ndarray:
    """Length of the parameter moves u -> un; on a closed chart each is
    taken modulo the period, so a start converging to u = 0 = 2 pi is not
    seen as jumping a whole period."""
    d = un - u
    if chart.closed:
        d = d - chart.span * np.round(d / chart.span)
    return np.abs(d)


def _certified_newton(ca: BoundaryChart, cb: BoundaryChart, touch: float):
    """The gap between the one charts of two convex bodies from a single
    Newton run, from the nearest sampled start pair, or None unless the run
    certifies it: its distance is above ``touch``, a Newton step from its
    feet moves (u, v) by less than ``_STOP``, so they are a stationary pair
    of D, and the outward normal at each foot points across the gap toward
    the other foot. The supporting lines at the two feet then separate the
    bodies by the distance of the feet: the bodies are disjoint and no other
    pair of points is closer."""
    dist, _, _, u, v = found = _arc_arc_newton(ca, cb, touch, runs=1)
    if not dist > touch:
        return None
    jet_a, jet_b = ca.jet(np.array([u])), cb.jet(np.array([v]))
    r, du, dv = _newton_step(jet_a, jet_b)
    # on a counterclockwise boundary the outward normal is the tangent
    # turned clockwise; r = A - B points from the foot on b to the foot on a
    ta, tb = jet_a[1][0], jet_b[1][0]
    a_faces_b = ta[0] * r[0, 1] - ta[1] * r[0, 0] > 0
    b_faces_a = tb[0] * r[0, 1] - tb[1] * r[0, 0] < 0
    if abs(du[0]) + abs(dv[0]) < _STOP and a_faces_b and b_faces_a:
        return found
    return None


def body_gap(body_a: Body, body_b: Body) -> GapInfo:
    """Gap between two bodies (positive distance required).

    Two convex bodies (``Body.convex``), not both disks, take one damped
    Newton run, accepted when ``_certified_newton`` certifies it: its feet
    are stationary and their outward normals face each other, which proves
    the gap global and the bodies disjoint. Every other pair, and a convex
    pair whose run is not certified, rules out containment by a one-point
    probe per body, then gives each chart pair the search its charts
    declare: two circular arcs the closed form, any other pair the damped
    Newton from ``_RUNS`` starts. A gap at or below ``_TOUCH`` of the
    larger body diameter is two boundaries that cross or touch, and raises
    InvalidGeometryError.
    """
    charts_a, charts_b = body_a.charts(), body_b.charts()
    touch = _TOUCH * max(body_a.diameter(), body_b.diameter())
    if body_a.convex and body_b.convex:
        # a convex body has one chart; two circles take the closed form
        (ca,), (cb,) = charts_a, charts_b
        if ca.circle is None or cb.circle is None:
            found = _certified_newton(ca, cb, touch)
            if found is not None:
                return _gap_info(found, 0, 0)
    # boundary-to-boundary distance is positive even for nested bodies, so
    # rule out containment first
    probe_a = charts_a[0].point(np.array([charts_a[0].u0]))
    probe_b = charts_b[0].point(np.array([charts_b[0].u0]))
    if body_a.contains(probe_b)[0] or body_b.contains(probe_a)[0]:
        raise InvalidGeometryError("bodies overlap (one contains the other's boundary)")

    best = None
    for ia, ca in enumerate(charts_a):
        for ib, cb in enumerate(charts_b):
            if ca.circle is not None and cb.circle is not None:
                cand = _arc_arc_closed_form(ca, cb)
            else:
                cand = _arc_arc_newton(ca, cb, touch)
            if best is None or cand[0] < best[0][0]:
                best = (cand, ia, ib)
    if best[0][0] <= touch:
        raise InvalidGeometryError("bodies overlap or touch")
    return _gap_info(*best)


def _gap_info(found, ia: int, ib: int) -> GapInfo:
    """The GapInfo of a search result (distance, point on a, point on b, u,
    v) on chart ia of body a and chart ib of body b."""
    dist, pa, pb, ua, ub = found
    return GapInfo(dist, (float(pa[0]), float(pa[1])), (float(pb[0]), float(pb[1])),
                   (GapFoot(0, ia, float(ua)), GapFoot(1, ib, float(ub))))


def gap(cfg, i: int, j: int) -> GapInfo:
    """Gap between conductors i and j of a configuration (0-based indices
    in conductor order; equal indices are rejected): the closest of the
    body-pair gaps the configuration measured when it was built, with its
    feet in the configuration's body indices."""
    if i == j:
        raise InvalidParameterError("gap requires two distinct conductor indices")
    groups = cfg.groups
    for k in (i, j):
        if not (0 <= k < len(groups)):
            raise InvalidParameterError(f"conductor index {k} out of range")
    return min((cfg.body_pair_gap(a, b) for a in groups[i] for b in groups[j]),
               key=lambda g: g.distance)
