"""Gap measurement between bodies: distance, closest points, neck segment.

Disk pairs and circular-arc pairs are handled in closed form; smooth curves
use damped Newton on the squared distance with multistart and a sampling
fallback. Every path also returns the chart and chart parameter of both
closest points, which the mesh planner grades toward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ..errors import InvalidGeometryError, InvalidParameterError, NumericFailureError
from .body import Body, BoundaryChart
from .shapes import Disk


class GapFoot(NamedTuple):
    """Where a closest point lies: ``Body.charts()[chart].point(u)`` of body
    ``body``. From :func:`gap` the body index is the configuration's; from
    :func:`body_gap` it is 0 for ``body_a`` and 1 for ``body_b``."""

    body: int
    chart: int
    u: float


@dataclass(frozen=True)
class GapInfo:
    """Gap between two bodies: the closest boundary points, the straight
    neck segment joining them and, from the gap search, one :class:`GapFoot`
    per point. A hand-built GapInfo has no feet and cannot be meshed."""

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


def _point_to_arc(p: np.ndarray, chart: BoundaryChart, circle: Disk):
    """Closest point of a circular arc chart to the point p (closed form:
    clamp the angle of p into the arc's angle range)."""
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


def _chart_circle(chart: BoundaryChart) -> Disk | None:
    """Recover the circle if the chart is a circular arc (second derivative
    antiparallel to position offset, constant radius); else None."""
    u = np.linspace(chart.u0, chart.u1, 7)
    p = chart.point(u)
    s = chart.second(u)
    c = p + s  # for a circle chart, P'' = -(P - center)
    # an axis-aligned ellipse (a cos t, b sin t) also has P'' = -(P - c),
    # so the radius must be checked as well
    r = np.hypot(*(p - c[0]).T)
    tol = 1e-10 * (1 + np.max(np.abs(p)))
    if np.max(np.abs(c - c[0])) < tol and np.max(np.abs(r - r[0])) < tol:
        return Disk((c[0][0], c[0][1]), float(r[0]))
    return None


def _arc_arc_closed_form(ca: BoundaryChart, cb: BoundaryChart, circ_a: Disk, circ_b: Disk):
    """Exact gap between two circular arcs via angle clamping, as
    (distance, point on a, point on b, u on a, u on b)."""
    candidates = []
    # unconstrained circle-circle solution if both feet are in range
    e = circ_b.c - circ_a.c
    d = float(np.hypot(*e))
    if d > 0:
        pa = circ_a.c + circ_a.radius * e / d
        pb = circ_b.c - circ_b.radius * e / d
        da_, _, ua = _point_to_arc(pa, ca, circ_a)
        db_, _, ub = _point_to_arc(pb, cb, circ_b)
        if da_ < 1e-12 * circ_a.radius and db_ < 1e-12 * circ_b.radius:
            candidates.append((float(np.hypot(*(pb - pa))), pa, pb, ua, ub))
    # endpoint (corner) against the other arc, both ways
    for ua in (ca.u0, ca.u1):
        p = ca.point(np.array([ua]))[0]
        dist, q, ub = _point_to_arc(p, cb, circ_b)
        candidates.append((dist, p, q, ua, ub))
    for ub in (cb.u0, cb.u1):
        p = cb.point(np.array([ub]))[0]
        dist, q, ua = _point_to_arc(p, ca, circ_a)
        candidates.append((dist, q, p, ua, ub))
    return min(candidates, key=lambda c: c[0])


def _arc_arc_newton(ca: BoundaryChart, cb: BoundaryChart, starts_per_curve: int = 8):
    """Damped Newton on D(u,v) = |A(u) - B(v)|^2 with multistart; sampling
    plus golden-section refinement as fallback. Returns (distance, point on
    a, point on b, u, v)."""
    us = np.linspace(ca.u0, ca.u1, starts_per_curve, endpoint=not ca.closed)
    vs = np.linspace(cb.u0, cb.u1, starts_per_curve, endpoint=not cb.closed)
    # rank all start pairs by sampled distance, run Newton from the best few
    A, B = ca.point(us), cb.point(vs)
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    order = np.dstack(np.unravel_index(np.argsort(d2, axis=None), d2.shape))[0]

    def clamp(u, chart):
        if chart.closed:
            return chart.u0 + (u - chart.u0) % chart.span
        return min(max(u, chart.u0), chart.u1)

    best = None
    for iu, iv in order[:6]:
        u, v = float(us[iu]), float(vs[iv])
        ok = True
        for _ in range(60):
            pa, pb = ca.point(np.array([u]))[0], cb.point(np.array([v]))[0]
            ta, tb = ca.deriv(np.array([u]))[0], cb.deriv(np.array([v]))[0]
            sa, sb = ca.second(np.array([u]))[0], cb.second(np.array([v]))[0]
            r = pa - pb
            g = np.array([2 * r @ ta, -2 * r @ tb])
            Hm = np.array([
                [2 * (ta @ ta + r @ sa), -2 * ta @ tb],
                [-2 * ta @ tb, 2 * (tb @ tb - r @ sb)],
            ])
            try:
                step = np.linalg.solve(Hm, -g)
            except np.linalg.LinAlgError:
                ok = False
                break
            # damping: halve until the squared distance does not increase
            f0 = r @ r
            lam = 1.0
            for _ in range(30):
                un = clamp(u + lam * step[0], ca)
                vn = clamp(v + lam * step[1], cb)
                rn = ca.point(np.array([un]))[0] - cb.point(np.array([vn]))[0]
                if rn @ rn <= f0 + 1e-15:
                    break
                lam *= 0.5
            else:
                ok = False
                break
            moved = _param_move(u, un, ca) + _param_move(v, vn, cb)
            u, v = un, vn
            if moved < 1e-14:
                break
        if ok:
            pa, pb = ca.point(np.array([u]))[0], cb.point(np.array([v]))[0]
            cand = (float(np.hypot(*(pa - pb))), pa, pb, u, v)
            if best is None or cand[0] < best[0]:
                best = cand
    if best is None:
        # fallback: dense sampling, then local golden-section in each variable
        us = np.linspace(ca.u0, ca.u1, 512, endpoint=not ca.closed)
        vs = np.linspace(cb.u0, cb.u1, 512, endpoint=not cb.closed)
        A, B = ca.point(us), cb.point(vs)
        d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        iu, iv = np.unravel_index(np.argmin(d2), d2.shape)
        u, v = float(us[iu]), float(vs[iv])
        for _ in range(200):
            u = _golden_1d(lambda uu: float(((ca.point(np.array([uu]))[0]
                                              - cb.point(np.array([v]))[0]) ** 2).sum()),
                           u - 0.01 * ca.span, u + 0.01 * ca.span)
            v = _golden_1d(lambda vv: float(((ca.point(np.array([u]))[0]
                                              - cb.point(np.array([vv]))[0]) ** 2).sum()),
                           v - 0.01 * cb.span, v + 0.01 * cb.span)
        u, v = clamp(u, ca), clamp(v, cb)
        pa, pb = ca.point(np.array([u]))[0], cb.point(np.array([v]))[0]
        best = (float(np.hypot(*(pa - pb))), pa, pb, u, v)
        if not np.isfinite(best[0]):
            raise NumericFailureError("gap search failed to converge",
                                      {"chart_a": (ca.u0, ca.u1), "chart_b": (cb.u0, cb.u1)})
    return best


def _param_move(u: float, un: float, chart: BoundaryChart) -> float:
    """Length of the parameter move u -> un; on a closed chart it is taken
    modulo the period, so a start converging to u = 0 = 2 pi is not seen
    as jumping a whole period."""
    d = un - u
    return abs(math.remainder(d, chart.span) if chart.closed else d)


def _golden_1d(f, a, b, iters=60):
    phi = (np.sqrt(5) - 1) / 2
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def body_gap(body_a: Body, body_b: Body, force_generic: bool = False) -> GapInfo:
    """Gap between two bodies (positive distance required).

    ``force_generic`` routes disk pairs through the Newton path, used by
    tests to reconcile the generic search with the closed form.
    """
    if body_a.kind == "disk" and body_b.kind == "disk" and not force_generic:
        dist, pa, pb, ua, ub = _disk_disk(body_a.disk, body_b.disk)
        if dist <= 0:
            raise InvalidGeometryError("bodies overlap or touch")
        return GapInfo(dist, tuple(pa), tuple(pb),
                       (GapFoot(0, 0, float(ua)), GapFoot(1, 0, float(ub))))

    # boundary-to-boundary distance is positive even for nested bodies, so
    # rule out containment first
    probe_a = body_a.charts()[0].point(np.array([body_a.charts()[0].u0]))
    probe_b = body_b.charts()[0].point(np.array([body_b.charts()[0].u0]))
    if body_a.contains(probe_b)[0] or body_b.contains(probe_a)[0]:
        raise InvalidGeometryError("bodies overlap (one contains the other's boundary)")

    best = None
    for ia, ca in enumerate(body_a.charts()):
        circ_a = _chart_circle(ca)
        for ib, cb in enumerate(body_b.charts()):
            circ_b = _chart_circle(cb)
            if circ_a is not None and circ_b is not None and not force_generic:
                cand = _arc_arc_closed_form(ca, cb, circ_a, circ_b)
            else:
                cand = _arc_arc_newton(ca, cb)
            if best is None or cand[0] < best[0][0]:
                best = (cand, ia, ib)
    (dist, pa, pb, ua, ub), ia, ib = best
    if dist <= 0:
        raise InvalidGeometryError("bodies overlap or touch")
    return GapInfo(dist, (float(pa[0]), float(pa[1])), (float(pb[0]), float(pb[1])),
                   (GapFoot(0, ia, float(ua)), GapFoot(1, ib, float(ub))))


def gap(cfg, i: int, j: int, force_generic: bool = False) -> GapInfo:
    """Gap between conductors i and j of a configuration (0-based indices
    in conductor order; equal indices are rejected). Its feet carry the
    configuration's body indices. Body pairs reuse the gaps the
    configuration measured when it was built, unless ``force_generic``."""
    if i == j:
        raise InvalidParameterError("gap requires two distinct conductor indices")
    groups = cfg.groups
    for k in (i, j):
        if not (0 <= k < len(groups)):
            raise InvalidParameterError(f"conductor index {k} out of range")
    best = None
    for a in groups[i]:
        for b in groups[j]:
            g = (body_gap(cfg.bodies[a], cfg.bodies[b], force_generic=True)
                 if force_generic else cfg.body_pair_gap(a, b))
            if best is None or g.distance < best[0].distance:
                best = (g, a, b)
    g, a, b = best
    foot_a, foot_b = g.feet
    return replace(g, feet=(foot_a._replace(body=a), foot_b._replace(body=b)))
