"""Boundary meshes for the Nystrom solver.

Each body boundary is one closed curve with a global parameter t in
[0, 2*pi) and midpoint-offset nodes t_j = (j + 1/2) h, so the log-kernel
quadrature keeps its periodic-trapezoid form. Nodes are clustered by an
analytic reparameterization: the node density over the chain coordinate v is

    rho(v) = 1 + sum_f A_f / sqrt(sin^2((v - v_f)/2) + b_f^2),

one term per gap closest point and per lens corner. Away from a feature the
term decays like 1/distance, so panel lengths grow linearly with distance to
the feature (the continuous analogue of dyadic refinement); at the feature
they bottom out at a floor length (a fraction of the gap width, or
2^-levels of the arc length at corners). The cumulative density is a sum of
incomplete elliptic integrals, evaluated in Carlson's symmetric form R_F,
which keeps full relative accuracy as the floor parameter b -> 0; so node
placement is exact and the map stays analytic, which the global quadrature
rule requires.

Node counts double until measured targets hold:

  * panels within one gap distance of a gap point are shorter than gap/4,
  * at least ``_PEAK_NODES`` nodes lie within the neck scale
    sqrt(gap * curvature radius) on each side of a gap point,
  * panels elsewhere resolve the body at the base density,
  * toward each corner the innermost panels decay geometrically.

Exceeding the total node cap raises RefinementFailureError rather than
returning a silently under-resolved mesh; so does a gap whose floor panel
the clamped b cannot bring below gap/4, which no node count mends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import elliprf

from ..errors import InvalidParameterError, RefinementFailureError
from ..geometry.body import Body, BoundaryChart
from ..geometry.config import Configuration
from ..geometry.gap import GapFoot

_TWO_PI = 2.0 * np.pi

# Grading toward features (see the module docstring)
_PEAK_NODES = 12                   # nodes within the neck scale, each side of a gap point
_GAP_PANEL_GROWTH = 1.0 / 6.0      # panel length per unit distance from a gap point
_CORNER_PANEL_GROWTH = 1.0 / 4.0
_GAP_FLOOR_FRACTION = 1.0 / 12.0   # floor panel length as a fraction of the gap
# Corner floor = arc length * 2**-levels. The chain map's speed at a corner
# is about this floor, and any integrand holding the normal jumps there, so
# trapezoid sums over a lens carry an error on its scale: 20 levels leave
# 2.7e-10 in the lens's flux quadrature on case A at eps 1e-2, 40 levels
# 3.5e-14.
_CORNER_FLOOR_LEVELS = 40
# Smallest floor parameter b: the smallest at which the Carlson form of the
# chain map is verified against quadrature (TestChainMap). Gaps that need
# a finer floor raise instead.
_B_MIN = 1e-12


@dataclass(frozen=True)
class MeshControls:
    """Named mesh parameters: ``base_n`` is the starting node count per
    curve and ``cap_total`` the hard cap over all curves of one scene."""

    base_n: int = 192               # below 64: taken literally, resolution targets bypassed
    cap_total: int = 65536

    def __post_init__(self):
        for name in ("base_n", "cap_total"):
            if getattr(self, name) < 1:
                raise InvalidParameterError(
                    f"mesh {name} must be at least 1, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class FeatureSpec:
    """A clustering target on a body boundary: a gap closest point or a
    corner, with the floor panel length and growth slope it requires."""

    kind: str                # "gap" or "corner"
    v: float                 # chain coordinate
    point: np.ndarray
    floor_arc: float
    growth: float
    gap: float = np.inf
    peak_length: float = 0.0


def _clustered_mass(x, b: float):
    """I(x) = int_0^x dv / sqrt(sin^2(v/2) + b^2) for |x| <= 2 pi, odd in x:
    2 sign(x) G(|x|/2) with G(y) = sin y R_F(b^2 cos^2 y, b^2 + sin^2 y, b^2)
    on y <= pi/2 (Carlson's form, DLMF 19.25(i), free of cancellation as
    b -> 0) and G(y) = 2 G(pi/2) - G(pi - y) beyond, where
    G(pi/2) = R_F(0, 1 + b^2, b^2)."""
    x = np.asarray(x, dtype=float)
    y = 0.5 * np.abs(x)
    far = y > np.pi / 2
    y = np.where(far, np.pi - y, y)
    s, c = np.sin(y), np.cos(y)
    bb = b * b
    g = s * elliprf(bb * c * c, bb + s * s, bb)
    g = np.where(far, 2.0 * elliprf(0.0, 1.0 + bb, bb) - g, g)
    return 2.0 * np.sign(x) * g


class _ChainMap:
    """Analytic clustering map for one closed curve.

    The chain coordinate v traverses the body's charts linearly and is
    rescaled to the angle x = v * (2 pi / v_total); t is the mesh parameter.
    t(x) is proportional to the integrated density rho(x), so equispaced
    t-nodes cluster where the density is large. Amplitudes are calibrated so
    panels grow like ``growth * (distance to feature)`` with the requested
    floor at the feature itself; because every amplitude is proportional to
    the total mass, the total solves in closed form.
    """

    def __init__(self, charts: Sequence[BoundaryChart], features: Sequence[FeatureSpec],
                 n_nodes: int):
        self.charts = list(charts)
        spans = np.array([ch.span for ch in charts])
        self.v_edges = np.concatenate([[0.0], np.cumsum(spans)])
        self.v_total = float(self.v_edges[-1])
        self.scale = _TWO_PI / self.v_total
        h = _TWO_PI / n_nodes
        v_f = np.array([f.v for f in features])
        self.x_f = v_f * self.scale
        # corners join charts of possibly very different speeds; size the
        # floor for the faster side (the slower side only over-refines)
        def speed(v):
            return np.hypot(*self.frame_of_v(v)[1].T)

        tiny = 1e-9 * self.v_total
        corner = np.array([f.kind == "corner" for f in features], dtype=bool)
        speeds = np.where(corner, np.maximum(speed((v_f - tiny) % self.v_total),
                                             speed((v_f + tiny) % self.v_total)), speed(v_f))
        self.b = np.clip([f.floor_arc * self.scale / (2 * f.growth * sp)
                          for f, sp in zip(features, speeds)], _B_MIN, 0.5)
        masses = 4.0 * elliprf(0.0, 1.0 + self.b ** 2, self.b ** 2)
        coef = np.array([h / (4 * np.pi * f.growth) for f in features])
        denom = 1.0 - float(np.sum(coef * masses))
        # a small denominator means the clustering would eat the whole node
        # budget; report unresolved so the planner doubles n
        self.resolved = denom > 0.3
        denom = max(denom, 0.3)
        self.mass_total = _TWO_PI / denom
        self.amps = coef * self.mass_total
        self._m_tab, self._v_tab = self._seed_table()

    def rho(self, v):
        x = np.asarray(v, dtype=float) * self.scale
        out = np.ones_like(x)
        for xf, A, b in zip(self.x_f, self.amps, self.b):
            out = out + A / np.sqrt(np.sin((x - xf) / 2) ** 2 + b * b)
        return out

    def mass(self, v):
        x = np.asarray(v, dtype=float) * self.scale
        out = x.astype(float).copy()
        for xf, A, b in zip(self.x_f, self.amps, self.b):
            out = out + A * (_clustered_mass(x - xf, b) - _clustered_mass(-xf, b))
        return out

    def _seed_table(self):
        """Forward table (mass(v), v) from one mass evaluation: uniform in v,
        plus x-offsets graded geometrically from b/100 to pi on both sides of
        each feature, so every density bump (width about b) is sampled on
        its own scale. Its last entry is v_total."""
        x_off = [b * np.geomspace(1e-2, np.pi / b, 256) for b in self.b]
        v = np.concatenate([np.linspace(0.0, self.v_total, 1025)] + [
            ((xf + s * off) / self.scale) % self.v_total
            for xf, off in zip(self.x_f, x_off) for s in (1.0, -1.0)])
        v = np.unique(v)
        return self.mass(v), v

    def t_of_v(self, v):
        """The mesh parameter t = 2 pi * mass(v) / mass(v_total) of chain
        coordinates v in [0, v_total]."""
        return _TWO_PI * self.mass(v) / self._m_tab[-1]

    def v_of_t(self, t):
        """Invert t = 2 pi * mass(v) / mass(v_total): seed by interpolating
        the forward table, then three Newton steps (quadratic from a seed
        that is close on the scale of every bump)."""
        t = np.asarray(t, dtype=float) % _TWO_PI
        target = t / _TWO_PI * self._m_tab[-1]
        v = np.interp(target, self._m_tab, self._v_tab)
        for _ in range(3):
            r = self.mass(v) - target
            v = np.clip(v - r / (self.rho(v) * self.scale), 0.0, self.v_total)
        return v

    def frame_of_v(self, v):
        """Points, chart derivatives and curvature at chain coordinates."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        pts = np.empty((v.size, 2))
        der = np.empty((v.size, 2))
        kap = np.empty(v.size)
        idx = np.clip(np.searchsorted(self.v_edges, v, side="right") - 1,
                      0, len(self.charts) - 1)
        for i, ch in enumerate(self.charts):
            m = idx == i
            if not np.any(m):
                continue
            u = ch.u0 + (v[m] - self.v_edges[i])
            pts[m] = ch.point(u)
            der[m] = ch.deriv(u)
            kap[m] = ch.curvature(u)
        return pts, der, kap

    def dvdt(self, v):
        return self.mass_total / (_TWO_PI * self.rho(v) * self.scale)


@dataclass
class CurveMesh:
    """Discretization of one closed body boundary."""

    body_index: int
    chain: _ChainMap
    n: int
    h: float
    t: np.ndarray
    v: np.ndarray
    nodes: np.ndarray
    velocity: np.ndarray       # dx/dt including the clustering factor
    speed: np.ndarray
    normal_out: np.ndarray     # outward normal of the body
    curvature: np.ndarray
    weights: np.ndarray        # speed * h (arclength weights, local panel lengths)
    arc_position: np.ndarray   # cumulative arclength at each node
    perimeter: float
    features: list[FeatureSpec]

    def frame_at(self, t):
        """Points, velocities and speeds at arbitrary mesh parameters."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        v = self.chain.v_of_t(t)
        pts, der, _ = self.chain.frame_of_v(v)
        vel = der * self.chain.dvdt(v)[:, None]
        return pts, vel, np.hypot(vel[:, 0], vel[:, 1])

    def point_at(self, t):
        return self.frame_at(t)[0]

    def feature_node_index(self, feat: FeatureSpec) -> int:
        p = feat.point
        return int(np.argmin((self.nodes[:, 0] - p[0]) ** 2 + (self.nodes[:, 1] - p[1]) ** 2))

    def arc_distance_to(self, feat: FeatureSpec) -> np.ndarray:
        """Arclength distance of every node to a feature point, along the
        curve (shorter way around)."""
        j = self.feature_node_index(feat)
        d = np.abs(self.arc_position - self.arc_position[j])
        return np.minimum(d, self.perimeter - d)


def _body_features(body: Body,
                   gap_entries: Sequence[tuple[GapFoot, np.ndarray, float]]) -> list[FeatureSpec]:
    charts = body.charts()
    spans = np.concatenate([[0.0], np.cumsum([ch.span for ch in charts])])
    perimeter = sum(ch.arclength() for ch in charts)
    feats: list[FeatureSpec] = []
    for foot, point, gap_dist in gap_entries:
        ch = charts[foot.chart]
        kappa = float(ch.curvature(np.array([foot.u]))[0])
        _, brad = body.bounding_circle()
        rho_c = 1.0 / kappa if kappa > 1.0 / (20 * brad) else 20 * brad
        peak = float(np.sqrt(gap_dist * rho_c) + 2 * gap_dist)
        v = spans[foot.chart] + (foot.u - ch.u0)
        feats.append(FeatureSpec("gap", v, np.asarray(point, float),
                                 floor_arc=gap_dist * _GAP_FLOOR_FRACTION,
                                 growth=_GAP_PANEL_GROWTH,
                                 gap=gap_dist, peak_length=peak))
    # merge gap features that crowd each other; the tighter gap wins
    feats.sort(key=lambda f: f.gap)
    kept: list[FeatureSpec] = []
    for f in feats:
        if all(np.hypot(*(f.point - k.point)) > 0.5 * max(f.peak_length, k.peak_length)
               for k in kept):
            kept.append(f)
    # corners of the chart chain
    floor = perimeter * 2.0 ** (-_CORNER_FLOOR_LEVELS)
    for ci, ch in enumerate(charts):
        if ch.corner_start:
            p = ch.point(np.array([ch.u0]))[0]
            kept.append(FeatureSpec("corner", spans[ci], p, floor_arc=floor,
                                    growth=_CORNER_PANEL_GROWTH))
    return kept


def _mesh_curve(body: Body, body_index: int, feats: list[FeatureSpec],
                controls: MeshControls, n_start: int) -> CurveMesh:
    charts = body.charts()
    # a base count below 64 requests a deliberately coarse mesh: use it
    # literally instead of refining to the resolution targets
    literal = controls.base_n < 64
    n = n_start + (n_start % 2) if literal else max(64, n_start)
    while True:
        chain = _ChainMap(charts, feats, n)
        h = _TWO_PI / n
        t = (np.arange(n) + 0.5) * h
        v = chain.v_of_t(t)
        pts, der, kap = chain.frame_of_v(v)
        vel = der * chain.dvdt(v)[:, None]
        speed = np.hypot(vel[:, 0], vel[:, 1])
        normal = np.stack([vel[:, 1], -vel[:, 0]], axis=-1) / speed[:, None]
        weights = speed * h
        arc = np.cumsum(weights) - 0.5 * weights
        perimeter = float(np.sum(weights))
        cm = CurveMesh(body_index, chain, n, h, t, v, pts, vel, speed, normal,
                       kap, weights, arc, perimeter, feats)
        if literal or (chain.resolved and _resolution_ok(cm, controls.base_n)):
            return cm
        n *= 2
        if n > controls.cap_total:
            raise RefinementFailureError(
                "node cap reached before gap resolution",
                {"body": body_index, "requested_n": n, "cap": controls.cap_total})


def _resolution_ok(cm: CurveMesh, base_n: int) -> bool:
    """Targets of the module docstring; raises where doubling cannot help."""
    if np.max(cm.weights) > 3.0 * cm.perimeter / base_n:
        return False
    for f, b in zip(cm.features, cm.chain.b):
        d = cm.arc_distance_to(f)
        if f.kind == "gap":
            near = d <= f.gap
            if np.any(near) and np.max(cm.weights[near]) > f.gap / 4:
                if b <= _B_MIN:
                    # the floor panel is about 2 growth b |P'| / scale at
                    # every n once b is clamped
                    raise RefinementFailureError(
                        "gap below the chain-map floor: its panels cannot reach "
                        "gap/4 at any node count",
                        {"body": cm.body_index, "gap": f.gap, "b": float(b)})
                return False
            for side in (1, -1):
                j = cm.feature_node_index(f)
                idx = (j + side * np.arange(1, cm.n // 2)) % cm.n
                within = d[idx] <= f.peak_length
                if np.count_nonzero(within) < _PEAK_NODES:
                    return False
        else:
            # toward the corner, panels shrink proportionally to the
            # distance (the continuous form of dyadic refinement) and
            # bottom out at the floor length
            j = cm.feature_node_index(f)
            inner = (d <= cm.perimeter / 8) & (d > 0)
            bound = np.maximum(2.0 * f.growth * d[inner], 8.0 * f.floor_arc)
            if np.any(cm.weights[inner] > bound):
                return False
            if np.min(cm.weights[[(j - 1) % cm.n, j, (j + 1) % cm.n]]) \
                    > 4.0 * f.floor_arc:
                return False
    return True


@dataclass
class BoundaryMesh:
    """All curve meshes of a scene, with concatenated node arrays for
    assembly."""

    curves: list[CurveMesh]
    controls: MeshControls

    def __post_init__(self):
        ns = [c.n for c in self.curves]
        self.offsets = np.concatenate([[0], np.cumsum(ns)]).astype(int)
        self.n_total = int(self.offsets[-1])
        self.nodes = np.concatenate([c.nodes for c in self.curves])
        self.normals = np.concatenate([c.normal_out for c in self.curves])
        self.weights = np.concatenate([c.weights for c in self.curves])
        # the parameter step of each node's curve: g times it is the charge
        self.step = np.concatenate([np.full(c.n, c.h) for c in self.curves])
        self.speed = np.concatenate([c.speed for c in self.curves])
        self.body_of_node = np.concatenate([
            np.full(c.n, c.body_index, dtype=int) for c in self.curves])

    def curve_slice(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i + 1])

    def body_nodes(self, body_index: int) -> np.ndarray:
        return np.nonzero(self.body_of_node == body_index)[0]


def build_mesh(cfg: Configuration, controls: MeshControls = MeshControls(),
               extra_bodies: Sequence[Body] = ()) -> BoundaryMesh:
    """Mesh every body of the configuration (and any extra enclosing bodies,
    used by the interior decomposition solver)."""
    per_body: dict[int, list] = {i: [] for i in range(len(cfg.bodies))}
    for info in cfg.all_conductor_gaps().values():
        for foot, point in zip(info.feet, (info.point_i, info.point_j)):
            per_body[foot.body].append((foot, np.asarray(point), info.distance))

    curves = []
    budget_used = 0
    for i, body in enumerate(cfg.bodies):
        feats = _body_features(body, per_body[i])
        cm = _mesh_curve(body, i, feats, controls, controls.base_n)
        budget_used += cm.n
        if budget_used > controls.cap_total:
            raise RefinementFailureError("total node cap exceeded",
                                         {"used": budget_used, "cap": controls.cap_total})
        curves.append(cm)
    for k, body in enumerate(extra_bodies):
        feats = _body_features(body, [])
        cm = _mesh_curve(body, len(cfg.bodies) + k, feats, controls, controls.base_n)
        curves.append(cm)
    return BoundaryMesh(curves, controls)

