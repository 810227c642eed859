"""Gap measurement between bodies: distance, closest points, neck segment.

Each body declares which of its charts are circular arcs
(``BoundaryChart.circle``: a disk's one chart, both arcs of a lens). A pair
of circular arcs takes the closed form; every other chart pair takes one
damped Newton search on the squared distance that runs all its starts at
once. Both return the chart and chart parameter of the two closest points,
which the mesh planner grades toward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import InvalidGeometryError, InvalidParameterError, NumericFailureError
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


def _arc_arc_newton(ca: BoundaryChart, cb: BoundaryChart):
    """Damped Newton on D(u, v) = |A(u) - B(v)|^2 from the ``_RUNS`` best of
    ``_STARTS``^2 sampled start pairs, all runs at once: each iteration
    evaluates ``point``, ``deriv`` and ``second`` of each chart once on the
    array of live runs, and each run tries its full step, then halves it
    until D does not increase. A failed full step that does not descend
    (g . step >= 0 for the gradient g, as at a saddle, where the Hessian
    is indefinite) is not halved. A run with a non-finite step, or whose
    full step or damping fails, is dropped. Returns (distance, point on a,
    point on b, u, v) of the best run."""
    us = np.linspace(ca.u0, ca.u1, _STARTS, endpoint=not ca.closed)
    vs = np.linspace(cb.u0, cb.u1, _STARTS, endpoint=not cb.closed)
    d2 = ((ca.point(us)[:, None, :] - cb.point(vs)[None, :, :]) ** 2).sum(axis=2)
    iu, iv = np.unravel_index(np.argsort(d2, axis=None)[:_RUNS], d2.shape)
    u, v = us[iu], vs[iv]
    live = np.ones(u.size, dtype=bool)     # not dropped
    moving = live.copy()                   # live and not yet converged
    for _ in range(60):
        k = np.flatnonzero(moving)
        if k.size == 0:
            break
        uk, vk = u[k], v[k]
        r = ca.point(uk) - cb.point(vk)
        ta, tb = ca.deriv(uk), cb.deriv(vk)
        sa, sb = ca.second(uk), cb.second(vk)
        # Newton step on D/2: gradient (ga, gb), Hessian [[haa, hab], [hab, hbb]]
        ga, gb = _dot(r, ta), -_dot(r, tb)
        haa, hab, hbb = _dot(ta, ta) + _dot(r, sa), -_dot(ta, tb), _dot(tb, tb) - _dot(r, sb)
        det = haa * hbb - hab * hab
        with np.errstate(divide="ignore", invalid="ignore"):
            du = (hab * gb - hbb * ga) / det
            dv = (hab * ga - haa * gb) / det
            descends = ga * du + gb * dv < 0
        f0 = _dot(r, r)
        un, vn = uk.copy(), vk.copy()
        lam = np.ones(k.size)
        # damping: a non-finite step is not tried and fails
        trying = np.isfinite(du + dv)
        failed = np.ones(k.size, dtype=bool)
        for _ in range(30):
            j = np.flatnonzero(failed & trying)
            if j.size == 0:
                break
            un[j] = _clamp(uk[j] + lam[j] * du[j], ca)
            vn[j] = _clamp(vk[j] + lam[j] * dv[j], cb)
            rn = ca.point(un[j]) - cb.point(vn[j])
            done = _dot(rn, rn) <= f0[j] + 1e-15
            failed[j[done]] = False
            lam[j[~done]] *= 0.5
            # only a descent direction is worth halving
            trying &= descends
        live[k[failed]] = moving[k[failed]] = False
        ok = ~failed
        moved = _param_move(uk, un, ca) + _param_move(vk, vn, cb)
        u[k[ok]], v[k[ok]] = un[ok], vn[ok]
        moving[k[ok & (moved < 1e-14)]] = False
    k = np.flatnonzero(live)
    if k.size == 0:
        raise NumericFailureError("gap search failed: every Newton run was dropped",
                                  {"chart_a": (ca.u0, ca.u1), "chart_b": (cb.u0, cb.u1)})
    pa, pb = ca.point(u[k]), cb.point(v[k])
    dist = np.hypot(*(pa - pb).T)
    i = int(np.argmin(dist))
    return float(dist[i]), pa[i], pb[i], float(u[k[i]]), float(v[k[i]])


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


def body_gap(body_a: Body, body_b: Body) -> GapInfo:
    """Gap between two bodies (positive distance required).

    Each chart pair takes its search from what its charts declare: two
    circular arcs the closed form, any other pair the batched Newton. A gap
    at or below ``_TOUCH`` of the larger body diameter is two boundaries
    that cross or touch, and raises InvalidGeometryError.
    """
    charts_a, charts_b = body_a.charts(), body_b.charts()
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
                cand = _arc_arc_newton(ca, cb)
            if best is None or cand[0] < best[0][0]:
                best = (cand, ia, ib)
    (dist, pa, pb, ua, ub), ia, ib = best
    if dist <= _TOUCH * max(body_a.diameter(), body_b.diameter()):
        raise InvalidGeometryError("bodies overlap or touch")
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
