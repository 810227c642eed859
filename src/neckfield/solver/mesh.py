"""Boundary meshes for the Nystrom solver.

Each body boundary is one closed curve with a global parameter t in
[0, 2*pi) and midpoint-offset nodes t_j = (j + 1/2) h, so the log-kernel
quadrature keeps its periodic-trapezoid form. Nodes are clustered by an
analytic reparameterization: the node density over the chain coordinate v is

    rho(v) = 1 + sum_f A_f / sqrt(sin^2((v - v_f)/2) + b_f^2),

one term per gap closest point and per lens corner. Away from a feature the
term decays like 1/distance, so panel lengths grow linearly with distance to
the feature (the continuous analogue of dyadic refinement); at the feature
they bottom out at a floor length (a fraction of the gap width, or at a
lens corner 2^-levels of the lens perimeter, the sum of r times the angular
span of its two circular arcs). The cumulative density is a sum of
incomplete elliptic integrals of the first kind in Legendre form,
F(y | -1/b^2) / b, with the large negative parameter -1/b^2 (``_clustered_mass``);
it keeps full relative accuracy as the floor parameter b -> 0, so node
placement is exact and the map stays analytic, which the global quadrature
rule requires.

Every mesh must meet these measured targets:

  * panels within one gap distance of a gap point are shorter than gap/4,
  * at least ``_PEAK_NODES`` nodes lie within the neck scale
    sqrt(gap * curvature radius) on each side of a gap point,
  * panels elsewhere resolve the body at the base density,
  * toward each corner the innermost panels decay geometrically.

Node counts lie on a ladder of multiples of ``_NODE_LADDER``. The clustering
spends a share sum_f masses_f / (2 growth_f n) of the node budget on its
features, and the map needs that share below 1 - ``_BUDGET_FLOOR``; the
tables give each curve's least count on the ladder, at least the base
count. A scene with a lens corner stays on the counts base * 2^k instead,
the counts doubling reaches: next to a corner the close evaluator's error
is first order in n, so any other count moves its answers. A curve is
meshed once, at that count; the targets are checked on the mesh, and only
a mesh that misses them doubles its count.

Exceeding the total node cap raises RefinementFailureError rather than
returning a silently under-resolved mesh; so does a gap whose floor panel
the clamped b cannot bring below gap/4, which no node count mends.

What does not depend on the node count is built once per curve
(``_ChainTables``), the inversion's forward seed table among it: 129 points
uniform over the chain plus 48 on each side of each feature. A chain map
at one count only forms its amplitudes and the seed's masses, and inverts
its nodes.

A curve that is its own mirror image across the x-axis is meshed on its
upper half only and reflected, and its mesh records it (``mirrored``).
Such a curve is a disk, or a smooth curve whose sin_x and cos_y terms are
all zero or absent, centred on the axis to ``_MIRROR_ULPS`` ulps of its
bounding radius, so that its chain starts on the axis (t = 0), and
v -> v_total - v maps its density terms onto themselves (``_mirrored``);
then t_{N-1-k} = 2 pi - t_k lies at v_total - v_k. The nodes k < N/2 are
inverted and framed as on any curve, bit for bit, and node N-1-k is node
k reflected exactly: its point (x, -y), velocity (-x', y'), normal
(n_x, -n_y), and the same speed, curvature and weight. So the lower half
costs no inversion, and its speeds do not carry the rounding of v near
v_total. The solver folds a scene exactly when every curve is mirrored
and the background is real. A scene with a lens corner inverts every node
of every curve, which keeps its meshes those of doubling bit for bit; its
lens chain starts at a corner, so the scene does not fold anyway.

A scene whose bodies come in mirror pairs across the vertical line x = a,
a the mean x of the body centres, meshes one curve of each pair and
reflects it onto its partner (``_mirror_partners``; ``CurveMesh.partner``
records the pair). Today that is the two-disk pair with r1 = r2. A partner
is a disk of the same radius, or a smooth curve whose Fourier terms of
order k are its source's times +-(-1)^(k+1), so that its point at t is
its source's at pi - t reflected; its centre lies within ``_MIRROR_ULPS``
ulps of its bounding radius of the reflected centre, and each of its
density terms has a twin of the same growth and floor length at
v_total/2 - v. Then its chain map is its source's shifted by pi in t, and
on a mirrored source node k of the partner is node (N/2 - 1 - k) mod N of
the source reflected: its point (2a - x, y), velocity (x', -y'), normal
(-n_x, n_y), and the same speed, curvature and weight. So a mirrored
source's upper half maps onto the partner's upper half in reverse order,
and the partner costs no inversion; its chain map, which only a gap foot
on it reads, is built on first use. The decision reads the bodies and the
density terms alone. A pair whose source is not mirrored meshes both
curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .. import _scipy_ext
from ..errors import InvalidParameterError, RefinementFailureError
from ..geometry.body import Body, BoundaryChart
from ..geometry.shapes import curvature
from ..geometry.config import Configuration
from ..geometry.gap import GapFoot

_TWO_PI = 2.0 * np.pi

# Grading toward features (see the module docstring)
_PEAK_NODES = 12                   # nodes within the neck scale, each side of a gap point
_GAP_PANEL_GROWTH = 1.0 / 6.0      # panel length per unit distance from a gap point
_CORNER_PANEL_GROWTH = 1.0 / 4.0
_GAP_FLOOR_FRACTION = 1.0 / 12.0   # floor panel length as a fraction of the gap
# Corner floor = lens perimeter * 2**-levels. The chain map's speed at a corner
# is about this floor, and any integrand holding the normal jumps there, so
# trapezoid sums over a lens carry an error on its scale: 20 levels leave
# 2.7e-10 in the lens's flux quadrature on case A at eps 1e-2, 40 levels
# 3.5e-14.
_CORNER_FLOOR_LEVELS = 40
# Smallest floor parameter b: the smallest at which the elliptic form of the
# chain map is verified against quadrature (TestChainMap). Gaps that need
# a finer floor raise instead.
_B_MIN = 1e-12
# Forward seed table of the chain-map inversion: uniform points over the
# chain, and graded points on each side of each feature. From it the three
# Newton steps of ``_ChainMap.v_of_t`` reach rounding level on every
# benchmark scene and on the lens (1025 and 256 points gave the same node
# counts, and nodes within 7e-16 of the perimeter).
_SEED_UNIFORM, _SEED_GRADED = 129, 48
# Node counts of a graded mesh are multiples of this step (so even, as the
# log-kernel rule requires).
_NODE_LADDER = 16
# Least share of a chain map's node budget left to the uniform term: below
# it the clustering would eat the whole budget.
_BUDGET_FLOOR = 0.3
# A curve is mirrored when its centre and its density terms sit within this
# many ulps of their mirror images.
_MIRROR_ULPS = 16
_ULP = np.finfo(float).eps


@dataclass(frozen=True)
class MeshControls:
    """Named mesh parameters: ``base_n`` is the least node count per curve
    (rounded up to the node ladder; the chain budget may ask for more) and
    ``cap_total`` the hard cap over all curves of one scene."""

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


def _feature_mass(b):
    """The mass of one density term over the whole chain, I(2 pi) (see
    ``_clustered_mass``): 4 G(pi/2) = 4 K(-1/b^2) / b."""
    return 4.0 * _scipy_ext.ellipk(-1.0 / (b * b)) / b


def _clustered_mass(x, b: float, mass: float):
    """I(x) = int_0^x dv / sqrt(sin^2(v/2) + b^2) for |x| <= 2 pi, odd in x,
    from the term's ``mass`` I(2 pi) (``_feature_mass``): 2 sign(x) G(|x|/2)
    with G(y) = mass/2 - G(pi - y) beyond pi/2 and, on y <= pi/2,

        G(y) = int_0^y dz / sqrt(b^2 + sin^2 z) = F(y | -1/b^2) / b,

    Carlson's sin y R_F(b^2 cos^2 y, b^2 + sin^2 y, b^2) (DLMF 19.25.5 and
    the homogeneity of R_F) in Legendre form, as ``ellipkinc`` takes it.
    For a negative parameter ``ellipkinc`` evaluates R_F itself, or its
    asymptotic series where -m y^2 is large, and -1/b^2 is formed without
    cancellation, so G keeps full relative accuracy as b -> 0: within
    9e-16 of the R_F form for b in [1e-12, 0.5]."""
    x = np.asarray(x, dtype=float)
    y = 0.5 * np.abs(x)
    far = y > np.pi / 2
    y = np.where(far, np.pi - y, y)
    g = _scipy_ext.ellipkinc(y, -1.0 / (b * b)) / b
    g = np.where(far, 0.5 * mass - g, g)
    return 2.0 * np.sign(x) * g


class _ChainTables:
    """The parts of one curve's chain map that do not depend on the node
    count, built once per curve: the chain coordinates of the charts, the
    floor parameters b_f (from the curve's speed at each feature, probed on
    both sides of a corner only where the curve has one), the masses
    I(2 pi, b_f) = 4 K(-1/b_f^2) / b_f of the density terms, each term's constant
    I(-x_f, b_f) and the forward seed table's per-feature columns
    J_f = I(x - x_f, b_f) - I(-x_f, b_f). The seed table is uniform in v
    plus x-offsets graded geometrically from b/100 to pi on both sides of
    each feature, so every density bump (width about b) is sampled on its
    own scale; its last entry is v_total.

    The features take the share sum_f masses_f / (2 growth_f n) of a map's
    node budget (``budget``), so ``least_n`` finds the least count that
    leaves the budget above its floor from the tables, without a map."""

    def __init__(self, charts: Sequence[BoundaryChart], features: Sequence[FeatureSpec]):
        self.charts = list(charts)
        spans = np.array([ch.span for ch in charts])
        self.v_edges = np.concatenate([[0.0], np.cumsum(spans)])
        self.v_total = float(self.v_edges[-1])
        self.scale = _TWO_PI / self.v_total
        self.growth = [f.growth for f in features]
        v_f = np.array([f.v for f in features])
        self.x_f = v_f * self.scale
        # corners join charts of possibly very different speeds; size the
        # floor for the faster side (the slower side only over-refines)
        def speed(v):
            return np.hypot(*self.frame_of_v(v)[1].T)

        speeds = speed(v_f)
        corner = np.array([f.kind == "corner" for f in features], dtype=bool)
        if np.any(corner):
            tiny = 1e-9 * self.v_total
            speeds = np.where(corner, np.maximum(speed((v_f - tiny) % self.v_total),
                                                 speed((v_f + tiny) % self.v_total)), speeds)
        self.b = np.clip([f.floor_arc * self.scale / (2 * f.growth * sp)
                          for f, sp in zip(features, speeds)], _B_MIN, 0.5)
        self.masses = _feature_mass(self.b)
        self.origin = [_clustered_mass(-xf, b, m)
                       for xf, b, m in zip(self.x_f, self.b, self.masses)]
        x_off = [b * np.geomspace(1e-2, np.pi / b, _SEED_GRADED) for b in self.b]
        self.v_seed = np.unique(np.concatenate(
            [np.linspace(0.0, self.v_total, _SEED_UNIFORM)]
            + [((xf + s * off) / self.scale) % self.v_total
               for xf, off in zip(self.x_f, x_off) for s in (1.0, -1.0)]))
        self.x_seed = self.v_seed * self.scale
        self.j_seed = [_clustered_mass(self.x_seed - xf, b, m) - c
                       for xf, b, m, c in zip(self.x_f, self.b, self.masses, self.origin)]

    def budget(self, n_nodes: int):
        """Each density term's amplitude per unit total mass,
        h / (4 pi growth_f), and the share of the node budget that the
        uniform term keeps at this count, 1 - sum_f of them times masses_f."""
        h = _TWO_PI / n_nodes
        coef = np.array([h / (4 * np.pi * growth) for growth in self.growth])
        return coef, 1.0 - float(np.sum(coef * self.masses))

    def least_n(self, n_min: int, doubling: bool) -> int:
        """The least count whose budget stays above the floor, stepping from
        ``n_min`` (on the node ladder) up the ladder, or with ``doubling``
        through n_min 2^k: the features' share falls like 1/n."""
        n = n_min
        while self.budget(n)[1] <= _BUDGET_FLOOR:
            n = 2 * n if doubling else n + _NODE_LADDER
        return n

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
            p, d, s = ch.jet(ch.u0 + (v[m] - self.v_edges[i]))
            pts[m], der[m], kap[m] = p, d, curvature(d, s)
        return pts, der, kap


class _ChainMap:
    """Analytic clustering map for one closed curve at one node count.

    The chain coordinate v traverses the body's charts linearly and is
    rescaled to the angle x = v * (2 pi / v_total); t is the mesh parameter.
    t(x) is proportional to the integrated density rho(x), so equispaced
    t-nodes cluster where the density is large. Amplitudes are calibrated so
    panels grow like ``growth * (distance to feature)`` with the requested
    floor at the feature itself; because every amplitude is proportional to
    the total mass, the total solves in closed form. All that does not
    depend on the node count comes from the curve's ``_ChainTables``; the
    map adds the amplitudes and the forward seed table's masses, x plus
    sum_f A_f J_f.
    """

    def __init__(self, tables: _ChainTables, n_nodes: int):
        self.tables = tables
        self.charts, self.v_edges, self.v_total = tables.charts, tables.v_edges, tables.v_total
        self.scale, self.x_f, self.b = tables.scale, tables.x_f, tables.b
        coef, denom = tables.budget(n_nodes)
        # the planner's counts keep the budget above its floor (``least_n``,
        # and doubling only lowers the features' share); a literal count
        # (base_n < 64) skips that test, so its clustering is clamped here
        # rather than left to eat the whole node budget
        denom = max(denom, _BUDGET_FLOOR)
        self.mass_total = _TWO_PI / denom
        self.amps = coef * self.mass_total
        m_tab = tables.x_seed.copy()
        for A, j in zip(self.amps, tables.j_seed):
            m_tab = m_tab + A * j
        self._m_tab = m_tab

    def rho(self, v):
        x = np.asarray(v, dtype=float) * self.scale
        out = np.ones_like(x)
        for xf, A, b in zip(self.x_f, self.amps, self.b):
            out = out + A / np.sqrt(np.sin((x - xf) / 2) ** 2 + b * b)
        return out

    def mass(self, v):
        x = np.asarray(v, dtype=float) * self.scale
        out = x.astype(float).copy()
        tables = self.tables
        for xf, A, b, m, c in zip(self.x_f, self.amps, self.b, tables.masses, tables.origin):
            out = out + A * (_clustered_mass(x - xf, b, m) - c)
        return out

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
        v = np.interp(target, self._m_tab, self.tables.v_seed)
        for _ in range(3):
            r = self.mass(v) - target
            v = np.clip(v - r / (self.rho(v) * self.scale), 0.0, self.v_total)
        return v

    def frame_of_v(self, v):
        return self.tables.frame_of_v(v)

    def dvdt(self, v):
        return self.mass_total / (_TWO_PI * self.rho(v) * self.scale)


@dataclass
class CurveMesh:
    """Discretization of one closed body boundary. ``chain`` is the chain
    map that placed the nodes, or on a reflected partner its own map at the
    same count, built on first use (``chain_map``)."""

    body_index: int
    chain_map: Callable[[], _ChainMap] = field(repr=False, compare=False)
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
    mirrored: bool             # node N-1-k is node k reflected across the x-axis
    partner: Optional[int] = None  # the curve that is this one's mirror image across x = a

    @cached_property
    def chain(self) -> _ChainMap:
        return self.chain_map()

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
    feats: list[FeatureSpec] = []
    _, brad = body.bounding_circle()
    for foot, point, gap_dist in gap_entries:
        ch = charts[foot.chart]
        kappa = float(ch.curvature(np.array([foot.u]))[0])
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
    # corners of the chart chain: only a lens has them, and its charts are
    # circular arcs, so its perimeter is the sum of r * span
    for ci, ch in enumerate(charts):
        if ch.corner_start:
            perimeter = sum(c.circle.radius * c.span for c in charts)
            floor = perimeter * 2.0 ** (-_CORNER_FLOOR_LEVELS)
            p = ch.point(np.array([ch.u0]))[0]
            kept.append(FeatureSpec("corner", spans[ci], p, floor_arc=floor,
                                    growth=_CORNER_PANEL_GROWTH))
    return kept


def _mirrored(body: Body, tables: _ChainTables) -> bool:
    """Whether the curve is its own mirror image across the x-axis with a
    density that v -> v_total - v keeps: a disk, or a smooth curve whose
    sin_x and cos_y terms are all zero or absent, centred within
    ``_MIRROR_ULPS`` ulps of its bounding radius of the axis, each of whose
    density terms has a twin of the same growth and floor parameter at the
    mirrored chain coordinate. Decided from the body and its density terms
    alone, without sampling the curve."""
    if body.kind == "disk":
        centre = body.disk.center
    elif body.kind == "smooth" and not any(body.smooth.sin_x + body.smooth.cos_y):
        centre = body.smooth.center
    else:
        return False
    if abs(centre[1]) > _MIRROR_ULPS * _ULP * body.bounding_circle()[1]:
        return False
    terms = list(zip(tables.x_f, tables.growth, tables.b))
    tol = _MIRROR_ULPS * _ULP * _TWO_PI
    return all(any(abs((x + xt + np.pi) % _TWO_PI - np.pi) <= tol and g == gt
                   and abs(b - bt) <= _MIRROR_ULPS * _ULP * b for xt, gt, bt in terms)
               for x, g, b in terms)


def _mirror_image(body: Body, other: Body, mirror_x: float) -> bool:
    """Whether ``other`` is ``body`` reflected across x = mirror_x with its
    parameter t taken to pi - t: a disk of the same radius, or a smooth
    curve whose order-k terms are body's times (-1)^(k+1) (cos_x, sin_y) and
    (-1)^k (sin_x, cos_y), centred within ``_MIRROR_ULPS`` ulps of its
    bounding radius of body's centre reflected."""
    if body.kind != other.kind or body.kind not in ("disk", "smooth"):
        return False
    if body.kind == "disk":
        same = body.disk.radius == other.disk.radius
        (x, y), (xo, yo) = body.disk.center, other.disk.center
    else:
        s, o = body.smooth, other.smooth
        same = True
        for name, parity in (("cos_x", 1), ("sin_x", 0), ("cos_y", 0), ("sin_y", 1)):
            a, b = np.array(getattr(s, name)), np.array(getattr(o, name))
            k = np.arange(1, a.size + 1)
            same &= a.size == b.size and np.array_equal(b, (-1.0) ** (k + parity) * a)
        (x, y), (xo, yo) = s.center, o.center
    if not same:
        return False
    tol = _MIRROR_ULPS * _ULP * body.bounding_circle()[1]
    return abs(xo - (2.0 * mirror_x - x)) <= tol and abs(yo - y) <= tol


def _mirror_partners(bodies: Sequence[Body],
                     feats: Sequence[list[FeatureSpec]]) -> Optional[tuple[float, list[int]]]:
    """The line x = a, a the mean x of the body centres, and each curve's
    partner, when every body has a mirror image across that line among the
    others (``_mirror_image``) whose density terms mirror its own: the same
    kind, growth and floor length, within ``_MIRROR_ULPS`` ulps, at chain
    coordinate v_total/2 - v. None for any other scene. Decided from the
    bodies and their density terms alone, without sampling a curve."""
    if any(b.kind not in ("disk", "smooth") for b in bodies):
        return None
    centres = [b.disk.center if b.kind == "disk" else b.smooth.center for b in bodies]
    mirror_x = float(np.mean([c[0] for c in centres]))
    tol = _MIRROR_ULPS * _ULP * _TWO_PI

    def twins(f: FeatureSpec, g: FeatureSpec) -> bool:
        # chain coordinates of disks and smooth curves run over [0, 2 pi)
        return (f.kind == g.kind and f.growth == g.growth
                and abs(f.floor_arc - g.floor_arc) <= _MIRROR_ULPS * _ULP * f.floor_arc
                and abs((f.v + g.v) % _TWO_PI - np.pi) <= tol)

    partners = []
    for i, body in enumerate(bodies):
        found = [j for j, other in enumerate(bodies)
                 if j != i and len(feats[i]) == len(feats[j])
                 and _mirror_image(body, other, mirror_x)
                 and all(any(twins(f, g) for g in feats[j]) for f in feats[i])]
        if not found:
            return None
        partners.append(found[0])
    return mirror_x, partners


def _curve_mesh(tables: _ChainTables, body_index: int, feats: list[FeatureSpec],
                n: int, mirrored: bool = False) -> CurveMesh:
    """The curve's mesh at one node count; a ``mirrored`` curve's upper
    half reflected (see the module docstring)."""
    chain = _ChainMap(tables, n)
    h = _TWO_PI / n
    t = (np.arange(n) + 0.5) * h
    v = chain.v_of_t(t[:n // 2] if mirrored else t)
    pts, der, kap = chain.frame_of_v(v)
    vel = der * chain.dvdt(v)[:, None]
    if mirrored:
        # P(2 pi - t) = R P(t) with R the reflection, so P' there is -R P'(t)
        v = np.concatenate([v, chain.v_total - v[::-1]])
        pts = np.concatenate([pts, pts[::-1] * [1.0, -1.0]])
        vel = np.concatenate([vel, vel[::-1] * [-1.0, 1.0]])
        kap = np.concatenate([kap, kap[::-1]])
    speed = np.hypot(vel[:, 0], vel[:, 1])
    normal = np.stack([vel[:, 1], -vel[:, 0]], axis=-1) / speed[:, None]
    weights = speed * h
    arc = np.cumsum(weights) - 0.5 * weights
    perimeter = float(np.sum(weights))
    return CurveMesh(body_index, lambda: chain, n, h, t, v, pts, vel, speed, normal,
                     kap, weights, arc, perimeter, feats, mirrored)


def _reflected(source: CurveMesh, body: Body, body_index: int, feats: list[FeatureSpec],
               mirror_x: float) -> CurveMesh:
    """The mesh of ``source``'s partner, its mirror image across x =
    mirror_x: node k is source node (N/2 - 1 - k) mod N reflected (see the
    module docstring). Its chain map is built from the body on first use."""
    n = source.n
    k = (n // 2 - 1 - np.arange(n)) % n
    flip = np.array([-1.0, 1.0])
    nodes = source.nodes[k] * flip
    nodes[:, 0] += 2.0 * mirror_x
    v_total = source.chain.v_total
    weights = source.weights[k]
    return CurveMesh(body_index, lambda: _ChainMap(_ChainTables(body.charts(), feats), n),
                     n, source.h, source.t, (0.5 * v_total - source.v[k]) % v_total,
                     nodes, source.velocity[k] * -flip, source.speed[k],
                     source.normal_out[k] * flip, source.curvature[k], weights,
                     np.cumsum(weights) - 0.5 * weights, float(np.sum(weights)), feats,
                     True, partner=source.body_index)


def _mesh_curve(body: Body, body_index: int, feats: list[FeatureSpec],
                controls: MeshControls, doubling: bool) -> CurveMesh:
    """Mesh one curve at the least count its chain budget allows, on the
    node ladder from ``base_n`` up (or with ``doubling`` on base_n 2^k),
    doubling only while the mesh misses a target."""
    tables = _ChainTables(body.charts(), feats)
    # a scene with a corner keeps doubling's meshes bit for bit (see the
    # module docstring)
    mirrored = not doubling and _mirrored(body, tables)
    base = controls.base_n
    # a base count below 64 requests a deliberately coarse mesh: use it
    # literally instead of refining to the resolution targets
    literal = base < 64
    if literal:
        n = n_base = base + (base % 2)
    else:
        n_base = -(-base // _NODE_LADDER) * _NODE_LADDER
        n = tables.least_n(n_base, doubling)
    while True:
        # a count beyond the base, predicted or doubled, must fit the cap
        if n > max(n_base, controls.cap_total):
            raise RefinementFailureError(
                "node cap reached before the mesh met its resolution targets "
                "(base density, gap panels, neck nodes, corner grading)",
                {"body": body_index, "requested_n": n, "cap": controls.cap_total})
        cm = _curve_mesh(tables, body_index, feats, n, mirrored)
        if literal or _resolution_ok(cm, base):
            return cm
        n *= 2


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
    # the line x = mirror_x across which every curve's partner mirrors it,
    # or None unless every curve has a partner
    mirror_x: Optional[float] = None

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


def build_mesh(cfg: Configuration, controls: MeshControls = MeshControls()) -> BoundaryMesh:
    """Mesh every body of the configuration, one curve per body with the
    body's index, graded toward the gap points of every conductor pair and
    toward lens corners."""
    per_body: dict[int, list] = {i: [] for i in range(len(cfg.bodies))}
    for info in cfg.all_conductor_gaps().values():
        for foot, point in zip(info.feet, (info.point_i, info.point_j)):
            per_body[foot.body].append((foot, np.asarray(point), info.distance))

    feats = [_body_features(body, per_body[i]) for i, body in enumerate(cfg.bodies)]
    # next to a lens corner the close evaluator's error is first order in n,
    # and through the cross blocks every curve's count moves the answers:
    # a scene with a corner keeps the counts that doubling reaches
    doubling = any(f.kind == "corner" for fs in feats for f in fs)
    pairs = None if doubling else _mirror_partners(cfg.bodies, feats)
    mirror_x, partners = pairs or (None, [None] * len(cfg.bodies))
    curves = []
    budget_used = 0
    for i, body in enumerate(cfg.bodies):
        j = partners[i]
        if j is not None and j < i and curves[j].mirrored:
            cm = _reflected(curves[j], body, i, feats[i], mirror_x)
            curves[j].partner = i
        else:
            cm = _mesh_curve(body, i, feats[i], controls, doubling)
        budget_used += cm.n
        if budget_used > controls.cap_total:
            raise RefinementFailureError("total node cap exceeded",
                                         {"used": budget_used, "cap": controls.cap_total})
        curves.append(cm)
    paired = all(cm.partner is not None for cm in curves)
    return BoundaryMesh(curves, controls, mirror_x if paired else None)
