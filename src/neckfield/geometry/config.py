"""Validated multi-conductor scenes, the canonical builders and ``build_case``.

Case layouts (all centers on the x-axis, gap between the first pair
straddling the origin):

  A: disk D1 against a lens D2 (small disk protruding from a large one)
  B: three disjoint disks, a small one in the middle
  C: like A but with a general smooth left body
  D: three disjoint smooth bodies, a small one in the middle

The rate laws behind these layouts are asymptotic in ``eps << r2 << r1 ~ r3``;
violating that regime only emits :class:`ScaleRegimeWarning`, never an error,
so sweeps can traverse the crossover.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import (InvalidGeometryError, InvalidParameterError,
                      ScaleRegimeWarning)
from .body import Body
from .gap import GapInfo, body_gap, gap
from .shapes import Disk, HarmonicBackground, SmoothBoundary


# A gap is held only to about u_mach |x| / gap relative, |x| the largest
# coordinate of its two bodies: their points are formed in absolute
# coordinates. A conductor gap whose estimate exceeds this warns.
_GAP_ROUNDING_LIMIT = 1e-8


@dataclass(frozen=True)
class Configuration:
    """An ordered list of bodies partitioned into equipotential conductors,
    plus the applied harmonic background."""

    bodies: tuple[Body, ...]
    groups: tuple[tuple[int, ...], ...]
    background: HarmonicBackground
    case_tag: str = "free"
    params: dict = field(default_factory=dict, compare=False)
    # GapInfo of every ordered body pair (a, b), a != b, from the
    # disjointness check or, for a placed scene, from its builder: point_i
    # and feet[0] on body a, feet in the configuration's body indices
    _body_gaps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._check({})

    @classmethod
    def _placed(cls, bodies: tuple[Body, ...], measured: dict, groups, background,
                case_tag: str, params: dict) -> "Configuration":
        """The configuration of bodies whose builder measured some of their
        gaps (``place_around``): ``measured`` maps body pairs (a, b), a < b,
        to their GapInfo, point_i and the first foot on body a, feet in the
        configuration's body indices. Those pairs are taken as measured;
        every other pair is searched."""
        out = cls.__new__(cls)
        for name, value in (("bodies", bodies), ("groups", groups), ("background", background),
                            ("case_tag", case_tag), ("params", params), ("_body_gaps", {})):
            object.__setattr__(out, name, value)
        out._check(measured)
        return out

    def _check(self, measured: dict) -> None:
        if len(self.bodies) == 0:
            raise InvalidParameterError("configuration needs at least one body")
        seen = sorted(i for g in self.groups for i in g)
        if seen != list(range(len(self.bodies))):
            raise InvalidParameterError("groups must partition the body indices")
        # conductor closures pairwise disjoint: every body pair has a
        # positive gap (raises InvalidGeometryError through GapInfo if not)
        for a in range(len(self.bodies)):
            for b in range(a + 1, len(self.bodies)):
                g = measured.get((a, b))
                if g is None:
                    g = body_gap(self.bodies[a], self.bodies[b])._relabeled(a, b)
                self._body_gaps[(a, b)] = g
                self._body_gaps[(b, a)] = g._reversed()
        for (i, j), info in self.all_conductor_gaps().items():
            size = max(float(np.max(np.abs(c))) + r
                       for c, r in (self.bodies[f.body].bounding_circle() for f in info.feet))
            estimate = np.finfo(float).eps * size / info.distance
            if estimate > _GAP_ROUNDING_LIMIT:
                warnings.warn(f"the gap between conductors {i + 1} and {j + 1} is held only to "
                              f"about {estimate:.1g} relative: coordinates reach {size:.3g} "
                              f"beside a gap of {info.distance:.3g}",
                              ScaleRegimeWarning, stacklevel=4)

    def body_pair_gap(self, a: int, b: int) -> GapInfo:
        """Gap between bodies a and b as measured on construction, with
        point_i and the first foot on body a; the feet carry the
        configuration's body indices."""
        return self._body_gaps[(a, b)]

    @property
    def n_conductors(self) -> int:
        return len(self.groups)

    def conductor_gap(self, i: int, j: int) -> GapInfo:
        return gap(self, i, j)

    def all_conductor_gaps(self) -> dict[tuple[int, int], GapInfo]:
        out = {}
        for i in range(self.n_conductors):
            for j in range(i + 1, self.n_conductors):
                out[(i, j)] = gap(self, i, j)
        return out

    def translated(self, v) -> "Configuration":
        """Translate the scene; the background is re-expanded about the new
        origin so the physical field is unchanged."""
        return Configuration(tuple(b.translated(v) for b in self.bodies),
                             self.groups, self.background.shifted(v),
                             self.case_tag, dict(self.params))

    def mirrored_x(self) -> "Configuration":
        return Configuration(tuple(b.mirrored_x() for b in self.bodies),
                             self.groups, self.background, self.case_tag,
                             dict(self.params))

    def exterior_mask(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        inside = np.zeros(pts.shape[0], dtype=bool)
        for b in self.bodies:
            inside |= b.contains(pts)
        return ~inside

    def scene_radius(self) -> float:
        r = 0.0
        for b in self.bodies:
            c, br = b.bounding_circle()
            r = max(r, float(np.hypot(*c)) + br)
        return r


def _check_positive(**kwargs) -> None:
    for name, v in kwargs.items():
        if not (np.isfinite(v) and v > 0):
            raise InvalidParameterError(f"{name} must be a positive finite length, got {v!r}")


def _regime_warnings(eps_list, r2, r_outer) -> None:
    r_lo, r_hi = min(r_outer), max(r_outer)
    if any(e > 0.2 * r2 for e in eps_list):
        warnings.warn("gap is not small against the middle radius (eps << r2 violated)",
                      ScaleRegimeWarning, stacklevel=3)
    if r2 > 0.2 * r_lo:
        warnings.warn("middle radius is not small against the outer radii (r2 << r1, r3 violated)",
                      ScaleRegimeWarning, stacklevel=3)
    if r_hi > 2.5 * r_lo:
        warnings.warn("outer radii are not comparable (r1 ~ r3 violated)",
                      ScaleRegimeWarning, stacklevel=3)


def build_case_a(r1: float, r2: float, r3: float, a: float, eps: float,
                 background: Optional[HarmonicBackground] = None) -> Configuration:
    """Disk of radius r1 facing, across a gap eps, a lens made of a small
    disk (radius r2) protruding by overlap parameter ``a`` from a large disk
    (radius r3). Centers are collinear on the x-axis and the gap straddles
    the origin.

    The outer-pair separation dist(D1, B_r3) ~ r2 is a consequence of
    0 < a < 2 r2 for these centers, so it is not enforced separately.
    """
    _check_positive(r1=r1, r2=r2, r3=r3, eps=eps)
    if not (0 < a < 2 * r2):
        raise InvalidGeometryError(f"overlap parameter must satisfy 0 < a < 2*r2, got a={a!r}")
    c1 = Disk((-r1 - eps / 2, 0.0), r1)
    c2 = Disk((r2 + eps / 2, 0.0), r2)
    c3 = Disk((r3 + a + eps / 2, 0.0), r3)
    _regime_warnings([eps], r2, (r1, r3))
    return Configuration(
        bodies=(Body.from_disk(c1), Body.lens(c2, c3)),
        groups=((0,), (1,)),
        background=background or HarmonicBackground.linear_x(),
        case_tag="A",
        params={"r1": r1, "r2": r2, "r3": r3, "a": a, "eps": eps},
    )


def build_two_disks(r1: float, r2: float, eps: float,
                    background: Optional[HarmonicBackground] = None) -> Configuration:
    """Two collinear disks with boundary gap eps straddling the origin (the
    normalized two-conductor scene all closed-form results refer to)."""
    _check_positive(r1=r1, r2=r2, eps=eps)
    c1 = Disk((-r1 - eps / 2, 0.0), r1)
    c2 = Disk((r2 + eps / 2, 0.0), r2)
    return Configuration(
        bodies=(Body.from_disk(c1), Body.from_disk(c2)),
        groups=((0,), (1,)),
        background=background or HarmonicBackground.linear_x(),
        case_tag="pair",
        params={"r1": r1, "r2": r2, "eps": eps},
    )


def build_case_b(r1: float, r2: float, r3: float, eps1: float, eps2: float,
                 background: Optional[HarmonicBackground] = None) -> Configuration:
    """Three disjoint collinear disks with boundary gaps eps1 (left pair)
    and eps2 (right pair); the small disk r2 sits in the middle."""
    _check_positive(r1=r1, r2=r2, r3=r3, eps1=eps1, eps2=eps2)
    c1 = Disk((-r1 - eps1 / 2, 0.0), r1)
    c2 = Disk((r2 + eps1 / 2, 0.0), r2)
    # center chosen so that the D2-D3 boundary gap equals eps2 exactly
    c3 = Disk((2 * r2 + r3 + eps1 / 2 + eps2, 0.0), r3)
    _regime_warnings([eps1, eps2], r2, (r1, r3))
    return Configuration(
        bodies=(Body.from_disk(c1), Body.from_disk(c2), Body.from_disk(c3)),
        groups=((0,), (1,), (2,)),
        background=background or HarmonicBackground.linear_x(),
        case_tag="B",
        params={"r1": r1, "r2": r2, "r3": r3, "eps1": eps1, "eps2": eps2},
    )


def _as_body(shape) -> Body:
    if isinstance(shape, Body):
        return shape
    if isinstance(shape, Disk):
        return Body.from_disk(shape)
    if isinstance(shape, SmoothBoundary):
        return Body.from_smooth(shape)
    raise InvalidParameterError(f"expected Disk, SmoothBoundary or Body, got {type(shape)!r}")


# The translation solve starts with the bounding circles eps plus this share
# of the scene size apart, more than a 512-sample circle misses (2e-5 of its
# radius). Newton from above takes a few steps; only a nonconvex body whose
# overlapping steps keep halving back reaches the step cap.
_START_MARGIN, _MAX_STEPS = 1e-3, 60


def _solve_translation(moving: Body, fixed: Body, direction: np.ndarray,
                       eps: float, tol: float = 1e-13) -> tuple[Body, GapInfo]:
    """Translate ``moving`` along ``direction`` until its gap to ``fixed``
    equals eps; returns the last translate measured and its gap.

    Newton solves g(t) = eps, g the gap of ``moving + t direction``, from
    the larger t where the bounding circles are eps plus a margin apart, so
    g >= eps at the start. The slope dg/dt = -direction . GapInfo.direction
    is exact by the envelope theorem: the closest points are stationary. For
    convex bodies g is the distance from the point t direction to the convex
    set fixed - moving, so g is convex in t: every tangent lies below g, and
    Newton approaches the root from above without measuring an overlap. An
    overlapping step, which only a nonconvex body allows, is halved back; an
    overlapping start (a sampled bounding circle missed an extreme) steps
    outward. The solve ends once a Newton step is below ``tol`` of the scene
    size, at the translate that step starts from.
    """
    direction = np.asarray(direction, dtype=float)
    (c_moving, r_moving), (c_fixed, r_fixed) = moving.bounding_circle(), fixed.bounding_circle()
    scale = max(2 * r_moving, 2 * r_fixed, eps)
    # the larger root t of |c_moving + t direction - c_fixed| = reach
    w = c_moving - c_fixed
    wd, dd = float(w @ direction), float(direction @ direction)
    reach = r_moving + r_fixed + eps + _START_MARGIN * scale
    radicand = wd * wd - dd * (float(w @ w) - reach * reach)
    if not radicand > 0:
        raise InvalidGeometryError("no translation brings the bodies within the requested gap")
    t, t_good, outward, last = (np.sqrt(radicand) - wd) / dd, None, _START_MARGIN * scale, None
    for _ in range(_MAX_STEPS):
        body = moving.translated(t * direction)
        try:
            info = body_gap(body, fixed)
        except InvalidGeometryError:
            t = t + outward if t_good is None else 0.5 * (t_good + t)
            outward *= 2
            continue
        last, slope = (body, info), -float(direction @ info.direction)
        if not slope > 0:
            raise InvalidGeometryError("the translation does not close the gap")
        step = (info.distance - eps) / slope
        if abs(step) < tol * max(1.0, scale):
            break
        t_good, t = t, t - step
    if last is None:
        raise InvalidGeometryError("every translate overlaps the fixed body")
    return last


def _halfplane_check(left: Body, rights: Sequence[Body]) -> None:
    def xs(b: Body) -> np.ndarray:
        return np.concatenate([ch.point(np.linspace(ch.u0, ch.u1, 1024))[:, 0]
                               for ch in b.charts()])

    if np.max(xs(left)) > 1e-9:
        raise InvalidGeometryError("left body crosses into the right half-plane")
    if any(np.min(xs(b)) < -1e-9 for b in rights):
        raise InvalidGeometryError("right-side body crosses into the left half-plane")


def place_around(mid: Body, left: Body, eps1: float, right: Optional[Body] = None,
                 eps2: float = 0.0) -> tuple[list[Body], dict]:
    """Translate ``left`` (and ``right``) along the x-axis until its gap to
    ``mid`` is eps1 (eps2) and recenter on the first gap. Each solve starts
    from bounding-circle contact and, for convex bodies, Newton approaches
    the gap from above, so a thin body never passes through ``mid``; a step
    into an overlap is halved back. Checks each gap, as the solve measured
    it, to 1e-10, the convexity at its gap foot of each smooth body not
    known to be convex, and the half-planes. Returns the bodies from left
    to right and the gaps the solves measured, moved with the recentering:
    body pair (a, b), a < b, in that order maps to its GapInfo, point_i and
    the first foot on body a, which ``Configuration._placed`` takes instead
    of searching them again."""
    left, gap_left = _solve_translation(left, mid, np.array([-1.0, 0.0]), eps1)
    # (moving body, fixed body, requested gap, measured gap), feet in body order
    placed = [(left, mid, eps1, gap_left)]
    if right is not None:
        right, gap_right = _solve_translation(right, mid, np.array([1.0, 0.0]), eps2)
        placed.append((right, mid, eps2, gap_right))
    for a, b, eps, g in placed:
        if abs(g.distance - eps) > 1e-10 * max(1.0, eps):
            raise InvalidGeometryError("gap positioning did not converge")
        for body, foot in zip((a, b), g.feet):
            # a convex body (an ellipse by construction) needs no sampling
            if body.kind == "smooth" and not body.convex:
                body.smooth.require_convex_arc(foot.u, half_width=0.35)
    shift = -gap_left.midpoint
    bodies = [b.translated(shift) for b in (left, mid, right) if b is not None]
    _halfplane_check(bodies[0], bodies[1:])
    gaps = {(0, 1): gap_left._relabeled(0, 1, shift)}
    if right is not None:
        gaps[(1, 2)] = gap_right._relabeled(2, 1, shift)._reversed()
    return bodies, gaps


def build_case_c(left, center: Disk, right: Disk, r2: float, eps: float,
                 background: Optional[HarmonicBackground] = None) -> Configuration:
    """General left body against a lens D2 = (r2-scaled center disk) united
    with a fixed right disk.

    ``center`` and ``right`` are given in a nominal frame; ``center`` is
    scaled about the origin by r2 and must then overlap ``right``. The left
    body is placed by :func:`place_around` so the gap is exactly eps and the
    gap midpoint is the origin. The union body keeps circular arcs so its
    two corners stay exact; a general smooth protrusion is out of scope.
    """
    _check_positive(r2=r2, eps=eps)
    if not isinstance(center, Disk) or not isinstance(right, Disk):
        raise InvalidParameterError("the protruding pair must be disks (lens union)")
    bodies, gaps = place_around(Body.lens(center.scaled(r2), right), _as_body(left), eps)
    # the narrow gap must face the scaled lump, not the big right disk
    lump, big = bodies[1].lens_disks
    foot = gaps[(0, 1)].point_j
    if abs(np.hypot(foot[0] - lump.center[0], foot[1] - lump.center[1]) - lump.radius) \
            > 1e-8 * lump.radius:
        raise InvalidGeometryError("closest approach is not on the protruding lump")
    eps_outer = body_gap(bodies[0], Body.from_disk(big)).distance
    if not (0.2 * r2 <= eps_outer <= 5 * r2):
        warnings.warn("outer-pair separation is not comparable to r2",
                      ScaleRegimeWarning, stacklevel=2)
    return Configuration._placed(tuple(bodies), gaps, ((0,), (1,)),
                                 background or HarmonicBackground.linear_x(), "C",
                                 {"r2": r2, "eps": eps})


def build_case_d(left, center, right, r2: float, eps1: float, eps2: float,
                 background: Optional[HarmonicBackground] = None) -> Configuration:
    """Three disjoint smooth bodies: ``center`` scaled by r2 in the middle,
    ``left`` and ``right`` placed by :func:`place_around` so the gaps are
    exactly eps1 and eps2."""
    _check_positive(r2=r2, eps1=eps1, eps2=eps2)
    mid = _as_body(center)
    if mid.kind == "disk":
        mid = Body.from_disk(mid.disk.scaled(r2))
    elif mid.kind == "smooth":
        mid = Body.from_smooth(mid.smooth.scaled(r2))
    else:
        raise InvalidParameterError("middle body must be a disk or a smooth curve")
    bodies, gaps = place_around(mid, _as_body(left), eps1, _as_body(right), eps2)
    return Configuration._placed(tuple(bodies), gaps, ((0,), (1,), (2,)),
                                 background or HarmonicBackground.linear_x(), "D",
                                 {"r2": r2, "eps1": eps1, "eps2": eps2})


def _nominal_disks(p: dict) -> tuple[Disk, Disk, Disk]:
    """The left, middle (before scaling by r2) and right disks of cases C and D."""
    return (Disk((p["left_x"], 0.0), p["r1"]), Disk((0.0, 0.0), p.get("center_radius", 1.0)),
            Disk((p["right_x"], 0.0), p["r3"]))


# Canonical case tag -> recipe (params, background) -> Configuration. Each
# builder is looked up by its module-level name when its recipe runs.
_RECIPES = {
    "pair": lambda p, bg: build_two_disks(p["r1"], p["r2"], p["eps"], background=bg),
    "A": lambda p, bg: build_case_a(p["r1"], p["r2"], p["r3"], p["a"], p["eps"],
                                    background=bg),
    "B": lambda p, bg: build_case_b(p["r1"], p["r2"], p["r3"], p["eps1"], p["eps2"],
                                    background=bg),
    "C": lambda p, bg: build_case_c(*_nominal_disks(p), p["r2"], p["eps"], background=bg),
    "D": lambda p, bg: build_case_d(*_nominal_disks(p), p["r2"], p["eps1"], p["eps2"],
                                    background=bg),
}
CASE_TAGS = tuple(_RECIPES)
# The parameters each recipe reads (``center_radius`` of cases C and D is
# optional): a run file's [case] section takes no other key.
CASE_KEYS = {"pair": {"r1", "r2", "eps"},
             "A": {"r1", "r2", "r3", "a", "eps"},
             "B": {"r1", "r2", "r3", "eps1", "eps2"},
             "C": {"r1", "r3", "left_x", "right_x", "center_radius", "r2", "eps"},
             "D": {"r1", "r3", "left_x", "right_x", "center_radius", "r2", "eps1", "eps2"}}


def build_case(tag: str, params: dict,
               background: Optional[HarmonicBackground] = None) -> Configuration:
    """The canonical scene ``tag`` (one of ``CASE_TAGS``) from its float
    parameters: a pair, A or B scene's ``params``, or a run file's [case]."""
    if tag not in _RECIPES:
        raise InvalidParameterError(f"no canonical case {tag!r}")
    try:
        return _RECIPES[tag](params, background)
    except KeyError as exc:
        raise InvalidParameterError(f"case {tag} missing parameter {exc}") from None
