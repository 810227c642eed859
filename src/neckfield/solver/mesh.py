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

Mirror images. Two reflections take the parameter t to s - t, which keeps
the counterclockwise sense: across the x-axis, s = 0, (x, y) -> (x, -y),
and across the line x = a, a the mean x of the body centres, s = pi,
(x, y) -> (2a - x, y). The first maps a mirrored curve onto itself
(``CurveMesh.mirrored``), node N-1-k onto node k; the second maps a curve
onto its partner (``CurveMesh.partner``), node k of the partner onto node
(N/2 - 1 - k) mod N of its source. One predicate decides both from the
bodies and their density terms alone (``_is_image``): the image is a disk
of the same radius, or a Fourier curve whose order-k terms, zero-padded to
a common degree, are the source's times the reflection's signs times
cos(k s); half the distance from its centre to the source's centre
reflected is within ``_MIRROR_ULPS`` ulps of the source's bounding radius;
and each density term has a twin of the same kind, growth and floor length
at chain coordinate s - v. One reflected build serves both (``_mesh_of``):
a reflected node's point and velocity are flipped, the velocity negated,
its chain coordinate taken to s - v, and its speed, curvature and weight
are the source node's, all exactly. So a mirrored curve inverts and frames
its upper half only, bit for bit as any curve, and its lower half's speeds
do not carry the rounding of v near v_total; a mirrored source's partner
inverts no node, and its chain map, which only a gap foot on it reads, is
built on first use. A pair whose source is not mirrored meshes both
curves. A scene with a lens corner reflects nothing, which keeps its
meshes those of doubling bit for bit (its lens chain starts at a corner,
so it would not fold anyway).

The mesh hands the solver both maps (``BoundaryMesh``): ``fold``, when
every curve is mirrored, the upper-half nodes, the first half of every
curve, and their mirrors; ``split``, when every curve also has a partner,
the folded unknowns (the upper-half nodes, in order) of the first curve of
every pair, and the image of every folded unknown, row k of a curve
mapping to row N/2 - 1 - k of its partner's.
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
# Least base count per curve. Coarser meshes are refused: on case B (r2
# 0.05, eps1 1e-5, eps2 1e-3) a 72-node mesh gave u2 - u1 = 0.859 against
# 0.01601, with a flux residual of 0.045.
_BASE_FLOOR = 64
# A curve is mirrored when its centre and its density terms sit within this
# many ulps of their mirror images.
_MIRROR_ULPS = 16
_ULP = np.finfo(float).eps


@dataclass(frozen=True)
class MeshControls:
    """Named mesh parameters: ``base_n`` is the least node count per curve,
    at least 64 (rounded up to the node ladder; the chain budget may ask
    for more), and ``cap_total`` the hard cap over all curves of one
    scene."""

    base_n: int = 192
    cap_total: int = 65536

    def __post_init__(self):
        for name, least in (("base_n", _BASE_FLOOR), ("cap_total", 1)):
            if getattr(self, name) < least:
                raise InvalidParameterError(
                    f"{name} must be at least {least}, got {getattr(self, name)!r}")


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
        # the planner's counts keep the budget above its floor (``least_n``,
        # and doubling only lowers the features' share)
        coef, denom = tables.budget(n_nodes)
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


def _reflection(mirror_x: Optional[float]) -> tuple[float, np.ndarray]:
    """The parameter s of a reflection, which takes t to s - t, and its
    signs of x and y: across the x-axis (mirror_x None) s = 0 and (1, -1),
    across x = mirror_x s = pi and (-1, 1)."""
    return (0.0, np.array([1.0, -1.0])) if mirror_x is None else (np.pi, np.array([-1.0, 1.0]))


def _centre(body: Body) -> np.ndarray:
    return np.array(body.disk.center if body.kind == "disk" else body.smooth.center)


def _is_image(body: Body, feats: Sequence[FeatureSpec], other: Body,
              other_feats: Sequence[FeatureSpec], mirror_x: Optional[float] = None) -> bool:
    """Whether ``other`` with its density terms ``other_feats`` is ``body``'s
    mirror image with t taken to s - t: across the x-axis (mirror_x None),
    where a mirrored curve is its own image, or across x = mirror_x (see
    ``_reflection`` and the module docstring)."""
    if body.kind != other.kind or body.kind not in ("disk", "smooth") \
            or len(feats) != len(other_feats):
        return False
    s, flip = _reflection(mirror_x)
    if body.kind == "disk":
        same = body.disk.radius == other.disk.radius
    else:
        # the (cos, sin) x (x, y) tables of both curves, zero-padded
        terms = np.zeros((2, 2, max(body.smooth.degree, other.smooth.degree), 2))
        for table, curve in zip(terms, (body.smooth, other.smooth)):
            table[:, :curve.degree] = curve._tables[1][0]
        # cos(kt) terms take the reflection's signs, sin(kt) terms theirs negated
        turn = np.cos(s * np.arange(1, terms.shape[2] + 1))[:, None]
        same = np.array_equal(terms[1], np.stack([flip, -flip])[:, None] * turn * terms[0])
    image = _centre(body) * flip
    if mirror_x is not None:
        image[0] += 2.0 * mirror_x
    tol = _MIRROR_ULPS * _ULP
    # half the distance to the image: a curve on the axis to rounding is mirrored
    if not (same and np.all(0.5 * np.abs(_centre(other) - image)
                            <= tol * body.bounding_circle()[1])):
        return False

    def twins(f: FeatureSpec, g: FeatureSpec) -> bool:
        # chain coordinates of disks and smooth curves run over [0, 2 pi)
        return (f.kind == g.kind and f.growth == g.growth
                and abs(f.floor_arc - g.floor_arc) <= tol * f.floor_arc
                and abs((f.v + g.v + (np.pi - s)) % _TWO_PI - np.pi) <= tol * _TWO_PI)

    return all(any(twins(f, g) for g in other_feats) for f in feats)


def _curve_mesh(tables: _ChainTables, body_index: int, feats: list[FeatureSpec],
                n: int, mirrored: bool = False) -> CurveMesh:
    """The curve's mesh at one node count; of a ``mirrored`` curve the
    upper half, with its lower half reflected (``_mesh_of``)."""
    chain = _ChainMap(tables, n)
    t = (np.arange(n) + 0.5) * (_TWO_PI / n)
    kept = n // 2 if mirrored else n
    v = chain.v_of_t(t[:kept])
    pts, der, kap = chain.frame_of_v(v)
    return _mesh_of(body_index, lambda: chain, t, feats,
                    (v, pts, der * chain.dvdt(v)[:, None], kap), kept)


def _reflected(source: CurveMesh, body: Body, body_index: int, feats: list[FeatureSpec],
               mirror_x: float) -> CurveMesh:
    """The mesh of ``source``'s partner, its mirror image across x =
    mirror_x (``_mesh_of``). Its chain map is built from the body on first
    use."""
    n = source.n
    return _mesh_of(body_index, lambda: _ChainMap(_ChainTables(body.charts(), feats), n),
                    source.t, feats, (source.v, source.nodes, source.velocity, source.curvature),
                    0, mirror_x, partner=source.body_index)


def _mesh_of(body_index: int, chain_map: Callable[[], _ChainMap], t: np.ndarray,
             feats: list[FeatureSpec], frame: tuple, kept: int,
             mirror_x: Optional[float] = None, partner: Optional[int] = None) -> CurveMesh:
    """The mesh of the nodes at t. ``frame`` holds chain coordinates,
    points, velocities and curvatures: node j < ``kept`` is frame node j,
    and node j >= ``kept`` is frame node (s N/(2 pi) - 1 - j) mod N
    reflected (``_reflection`` of ``mirror_x``; see the module docstring).
    Then what every mesh derives from its frame: speeds, outward normals,
    weights, arc positions and the perimeter."""
    n = t.size
    v, pts, vel, kap = frame
    if kept < n:
        s, flip = _reflection(mirror_x)
        k = ((0 if mirror_x is None else n // 2) - 1 - np.arange(kept, n)) % n
        # P(s - t) = R P(t) with R the reflection, so P' there is -R P'(t)
        image = [(s - v[k]) % _TWO_PI, pts[k] * flip, vel[k] * -flip, kap[k]]
        if mirror_x is not None:
            image[1][:, 0] += 2.0 * mirror_x
        v, pts, vel, kap = (np.concatenate([a[:kept], b]) for a, b in zip(frame, image))
    h = _TWO_PI / n
    speed = np.hypot(vel[:, 0], vel[:, 1])
    normal = np.stack([vel[:, 1], -vel[:, 0]], axis=-1) / speed[:, None]
    weights = speed * h
    return CurveMesh(body_index, chain_map, n, h, t, v, pts, vel, speed, normal, kap, weights,
                     np.cumsum(weights) - 0.5 * weights, float(np.sum(weights)), feats,
                     kept < n, partner)


def _mesh_curve(body: Body, body_index: int, feats: list[FeatureSpec],
                controls: MeshControls, doubling: bool, mirrored: bool) -> CurveMesh:
    """Mesh one curve at the least count its chain budget allows, on the
    node ladder from ``base_n`` up (or with ``doubling`` on base_n 2^k),
    doubling only while the mesh misses a target; a ``mirrored`` curve on
    its upper half, its lower half reflected."""
    tables = _ChainTables(body.charts(), feats)
    base = controls.base_n
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
        if _resolution_ok(cm, base):
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
    assembly, and the maps of its reflections (see the module docstring):
    ``fold``, the upper-half nodes and their mirrors, when every curve is
    mirrored, and ``split``, the sources' folded unknowns and the image of
    every folded unknown, when every curve also has a partner. Either is
    None otherwise."""

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
        self.fold = self.split = None
        if all(c.mirrored for c in self.curves):
            top = [np.arange(a, a + c.n // 2) for a, c in zip(self.offsets, self.curves)]
            self.fold = (np.concatenate(top), np.concatenate(
                [2 * a + c.n - 1 - k for a, c, k in zip(self.offsets, self.curves, top)]))
            if self.mirror_x is not None:
                # a curve's folded unknowns, in the order of its upper-half nodes
                own = [np.arange(a // 2, (a + c.n) // 2) for a, c in zip(self.offsets, self.curves)]
                self.split = (np.concatenate([o for i, (o, c) in enumerate(zip(own, self.curves))
                                              if i < c.partner]),
                              np.concatenate([own[c.partner][::-1] for c in self.curves]))

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
    # such a scene reflects nothing, which keeps doubling's meshes bit for
    # bit; any other scene has only disks and smooth curves
    bodies = cfg.bodies
    mirror_x, partners = None, [None] * len(bodies)
    if not doubling:
        mirror_x = float(np.mean([_centre(body)[0] for body in bodies]))
        found = [next((j for j, other in enumerate(bodies)
                       if j != i and _is_image(body, feats[i], other, feats[j], mirror_x)), None)
                 for i, body in enumerate(bodies)]
        if None not in found:
            partners = found
    curves = []
    budget_used = 0
    for i, body in enumerate(bodies):
        j = partners[i]
        if j is not None and j < i and curves[j].mirrored:
            cm = _reflected(curves[j], body, i, feats[i], mirror_x)
            curves[j].partner = i
        else:
            mirrored = not doubling and _is_image(body, feats[i], body, feats[i])
            cm = _mesh_curve(body, i, feats[i], controls, doubling, mirrored)
        budget_used += cm.n
        if budget_used > controls.cap_total:
            raise RefinementFailureError("total node cap exceeded",
                                         {"used": budget_used, "cap": controls.cap_total})
        curves.append(cm)
    paired = all(cm.partner is not None for cm in curves)
    return BoundaryMesh(curves, controls, mirror_x if paired else None)
