"""Geometric primitives: disks, Fourier-parameterized smooth curves, and
harmonic polynomial background fields.

All closed curves are parameterized counterclockwise, so the outward normal
of a body is ``(y', -x') / |P'|``. ``contains(pts, pad)`` means "signed
distance below pad" (positive outside) for a disk and a smooth curve alike;
on a smooth curve the distance is exact, from a closest-point Newton.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from ..errors import InvalidGeometryError, InvalidParameterError

# closest-point Newton of SmoothBoundary.contains: the samples that seed
# it, its iterations at most, and the parameter step that ends a point's run
_FOOT_SAMPLES, _FOOT_ITERS, _FOOT_STEP_TOL = 256, 30, 1e-12

# samples of SmoothBoundary.validate and of its convexity test
_VALIDATE_SAMPLES = 720

# SmoothBoundary's coefficient fields, in order
_COEFFS = ("cos_x", "sin_x", "cos_y", "sin_y")


def _as_point(p, name: str = "point") -> np.ndarray:
    a = np.asarray(p, dtype=float).reshape(2)
    if not np.all(np.isfinite(a)):
        raise InvalidParameterError(f"{name} has non-finite entries: {p!r}")
    return a


@dataclass(frozen=True)
class Disk:
    """A disk given by its center and a positive radius."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        c = _as_point(self.center, "center")
        object.__setattr__(self, "center", (float(c[0]), float(c[1])))
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise InvalidParameterError(f"disk radius must be positive, got {self.radius!r}")
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def c(self) -> np.ndarray:
        return np.array(self.center, dtype=float)

    def point(self, theta):
        theta = np.asarray(theta, dtype=float)
        return np.stack([self.center[0] + self.radius * np.cos(theta),
                         self.center[1] + self.radius * np.sin(theta)], axis=-1)

    def jet(self, theta):
        """The point and its first and second derivatives at theta, from
        one cos and one sin."""
        theta = np.asarray(theta, dtype=float)
        rc, rs = self.radius * np.cos(theta), self.radius * np.sin(theta)
        return (np.stack([self.center[0] + rc, self.center[1] + rs], axis=-1),
                np.stack([-rs, rc], axis=-1), np.stack([-rc, -rs], axis=-1))

    def contains(self, pts, pad: float = 0.0):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        # hypot keeps radii near the float limit from overflowing a square
        return np.hypot(pts[:, 0] - self.center[0], pts[:, 1] - self.center[1]) \
            < self.radius + pad

    def translated(self, v) -> "Disk":
        v = _as_point(v)
        return Disk((self.center[0] + v[0], self.center[1] + v[1]), self.radius)

    def scaled(self, s: float) -> "Disk":
        """Scale about the origin (both center and radius)."""
        if s <= 0:
            raise InvalidParameterError("scale factor must be positive")
        return Disk((self.center[0] * s, self.center[1] * s), self.radius * s)


@dataclass(frozen=True)
class SmoothBoundary:
    """Closed curve given by a truncated Fourier series in the angle.

        P(t) = center + (sum_k cx_k cos(kt) + sx_k sin(kt),
                         sum_k cy_k cos(kt) + sy_k sin(kt)),  k = 1..K

    The coefficients must be finite. The parameterization must be
    counterclockwise, simple, and have a nonvanishing tangent;
    ``validate()`` checks all three by sampling on every construction.
    ``ellipse()`` with positive semi-axes has all three by construction, and
    ``translated()`` and ``scaled()`` (s > 0) keep them, so none of these is
    checked again.
    An axis-aligned ellipse with semi-axes (a, b) is ``cx = [a], sy = [b]``.
    """

    center: tuple[float, float]
    cos_x: tuple[float, ...] = ()
    sin_x: tuple[float, ...] = ()
    cos_y: tuple[float, ...] = ()
    sin_y: tuple[float, ...] = ()

    def __post_init__(self):
        c = _as_point(self.center, "center")
        object.__setattr__(self, "center", (float(c[0]), float(c[1])))
        for name in _COEFFS:
            vals = tuple(float(v) for v in getattr(self, name))
            if not all(np.isfinite(vals)):
                raise InvalidParameterError(f"{name} has non-finite coefficients: {vals!r}")
            object.__setattr__(self, name, vals)
        if self.degree == 0:
            raise InvalidParameterError("smooth boundary needs at least one Fourier mode")
        self.validate()

    @staticmethod
    def ellipse(center, a: float, b: float) -> "SmoothBoundary":
        """Axis-aligned ellipse; positive finite semi-axes make it simple,
        counterclockwise and regular, so it is not validated. Its speed
        ranges over [min(a, b), max(a, b)], so the regularity bound of
        ``validate()`` is the aspect check here."""
        if not (0 < a < np.inf and 0 < b < np.inf):
            raise InvalidParameterError(f"ellipse semi-axes must be positive and finite, "
                                        f"got {a!r}, {b!r}")
        if min(a, b) < 1e-8 * max(a, b):
            raise InvalidGeometryError("tangent vector vanishes (curve is not C^2-regular)")
        out = _unchecked(center, ((float(a),), (), (), (float(b),)))
        object.__setattr__(out, "convex", True)
        return out

    @property
    def degree(self) -> int:
        return max(len(self.cos_x), len(self.sin_x), len(self.cos_y), len(self.sin_y))

    @cached_property
    def _tables(self) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
        """The mode numbers k = 1..K and, per derivative order 0, 1, 2, the
        (K, 2) tables that multiply cos(kt) and sin(kt): the coefficients
        zero-padded to the degree, times k^order with the signs of d/dt."""
        def padded(name_x: str, name_y: str) -> np.ndarray:
            out = np.zeros((self.degree, 2))
            for col, name in enumerate((name_x, name_y)):
                vals = getattr(self, name)
                out[:len(vals), col] = vals
            return out

        on_cos, on_sin = padded("cos_x", "cos_y"), padded("sin_x", "sin_y")
        k = np.arange(1.0, self.degree + 1)
        k1, k2 = k[:, None], (k * k)[:, None]
        return k, ((on_cos, on_sin), (k1 * on_sin, -k1 * on_cos), (-k2 * on_cos, -k2 * on_sin))

    def _trig(self, t) -> tuple[np.ndarray, np.ndarray]:
        """cos(kt) and sin(kt), k = 1..K, the tables every series value
        multiplies."""
        kt = np.asarray(t, dtype=float)[..., None] * self._tables[0]
        return np.cos(kt), np.sin(kt)

    def _series(self, trig, mode: int):
        """mode 0: value less the center, 1: d/dt, 2: d2/dt2, as two
        products of ``_trig``'s tables with the mode's coefficient tables."""
        on_cos, on_sin = self._tables[1][mode]
        return trig[0] @ on_cos + trig[1] @ on_sin

    def point(self, t):
        return self._series(self._trig(t), 0) + self.center

    def deriv(self, t):
        return self._series(self._trig(t), 1)

    def second(self, t):
        return self._series(self._trig(t), 2)

    def jet(self, t):
        """``point``, ``deriv`` and ``second`` at t, bit for bit, from one
        cos and one sin table."""
        trig = self._trig(t)
        return self._series(trig, 0) + self.center, self._series(trig, 1), self._series(trig, 2)

    @cached_property
    def _bounding_offset(self) -> tuple[np.ndarray, float]:
        """Center, relative to ``center``, and radius of the bounding circle
        from 512 samples of the series."""
        p = self._series(self._trig(np.linspace(0, 2 * np.pi, 512, endpoint=False)), 0)
        c = 0.5 * (p.min(axis=0) + p.max(axis=0))
        return c, float(np.max(np.hypot(p[:, 0] - c[0], p[:, 1] - c[1])))

    def bounding_circle(self) -> tuple[np.ndarray, float]:
        """A circle containing the curve, taken from 512 samples, so it can
        miss an extreme between two samples by about 2e-5 of its radius.
        The samples are taken once per coefficient set: translates share
        them."""
        offset, r = self._bounding_offset
        return offset + self.center, r

    def curvature(self, t):
        """Signed curvature; positive where the curve is locally convex
        (counterclockwise parameterization)."""
        return curvature(*self.jet(t)[1:])

    def validate(self) -> None:
        t = np.linspace(0.0, 2 * np.pi, _VALIDATE_SAMPLES, endpoint=False)
        d = self.deriv(t)
        sp = np.hypot(d[:, 0], d[:, 1])
        scale = float(np.max(sp))
        if np.min(sp) < 1e-8 * scale:
            raise InvalidGeometryError("tangent vector vanishes (curve is not C^2-regular)")
        p = self.point(t)
        # counterclockwise orientation: positive signed area
        area = 0.5 * float(np.sum(p[:, 0] * np.roll(p[:, 1], -1) - np.roll(p[:, 0], -1) * p[:, 1]))
        if area <= 0:
            raise InvalidGeometryError("curve must be parameterized counterclockwise")
        if _polyline_self_intersects(p):
            raise InvalidGeometryError("curve is not simple (self-intersection detected)")

    @cached_property
    def convex(self) -> bool:
        """Whether the curvature is positive at the samples of
        ``validate()``, so that the curve, simple and counterclockwise,
        bounds a convex body. Sampled once per coefficient set: ``ellipse()``
        sets it without sampling, and ``translated()`` and ``scaled()``
        carry it over."""
        t = np.linspace(0.0, 2 * np.pi, _VALIDATE_SAMPLES, endpoint=False)
        return bool(np.min(self.curvature(t)) > 0)

    def require_convex_arc(self, t_center: float, half_width: float) -> None:
        """Raise unless curvature is strictly positive on the given arc.

        Used for arcs that face a narrow gap, where strict convexity is a
        standing hypothesis of the rate laws.
        """
        t = t_center + np.linspace(-half_width, half_width, 129)
        if np.min(self.curvature(t)) <= 0:
            raise InvalidGeometryError("gap-facing arc is not strictly convex")

    def contains(self, pts, pad: float = 0.0):
        """Points whose signed distance to the curve (positive outside) is
        below ``pad``, as for a :class:`Disk`. The distance is exact: Newton
        on (P(t) - p) . P'(t) = 0 from the nearest sampled curve point,
        vectorized over the points, with steps held to one sample spacing
        and taken downhill where the distance is not convex in t; its sign
        is the side of the outward normal at the foot."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        h = 2 * np.pi / _FOOT_SAMPLES
        ps = self.point(h * np.arange(_FOOT_SAMPLES))
        t = h * np.argmin((pts[:, 0, None] - ps[:, 0]) ** 2
                          + (pts[:, 1, None] - ps[:, 1]) ** 2, axis=1)
        run = np.arange(pts.shape[0])
        for _ in range(_FOOT_ITERS):
            tk = t[run]
            p, d1, d2 = self.jet(tk)
            r = p - pts[run]
            f, fp = np.sum(r * d1, axis=1), np.sum(d1 * d1 + r * d2, axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.clip(np.where(fp > 0, -f / fp, -h * np.sign(f)), -h, h)
            t[run] = tk + step
            run = run[np.abs(step) > _FOOT_STEP_TOL]
            if run.size == 0:
                break
        r, d = pts - self.point(t), self.deriv(t)
        return (r[:, 0] * d[:, 1] - r[:, 1] * d[:, 0]) / np.hypot(d[:, 0], d[:, 1]) < pad

    def translated(self, v) -> "SmoothBoundary":
        v = _as_point(v)
        return self._similar((self.center[0] + v[0], self.center[1] + v[1]), 1.0)

    def scaled(self, s: float) -> "SmoothBoundary":
        """Scale about the origin."""
        if not (s > 0 and np.isfinite(s)):
            raise InvalidParameterError(f"scale factor must be positive and finite, got {s!r}")
        return self._similar((self.center[0] * s, self.center[1] * s), s)

    def _similar(self, center, s: float) -> "SmoothBoundary":
        """This curve moved to ``center`` with its coefficients scaled by
        s > 0. A positive similarity keeps the curve simple, counterclockwise
        and regular, so ``validate()`` is not run again, and convex if this
        curve is. A translate (s == 1) shares this curve's coefficient tables
        and bounding-circle samples."""
        out = _unchecked(center, tuple(tuple(float(s * v) for v in getattr(self, name))
                                       for name in _COEFFS))
        object.__setattr__(out, "convex", self.convex)
        if s == 1.0:
            for name in ("_tables", "_bounding_offset"):
                object.__setattr__(out, name, getattr(self, name))
        return out


def _unchecked(center, coeffs) -> SmoothBoundary:
    """A SmoothBoundary from float coefficient tuples in ``_COEFFS`` order,
    built without ``validate()``, for curves valid by construction."""
    c = _as_point(center)
    out = object.__new__(SmoothBoundary)
    object.__setattr__(out, "center", (float(c[0]), float(c[1])))
    for name, vals in zip(_COEFFS, coeffs):
        object.__setattr__(out, name, vals)
    return out


def curvature(d: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Signed curvature from the first and second derivatives d and s of a
    parameterization; positive where a counterclockwise curve is convex."""
    sp = np.hypot(d[..., 0], d[..., 1])
    return (d[..., 0] * s[..., 1] - d[..., 1] * s[..., 0]) / sp**3


def _polyline_self_intersects(p: np.ndarray) -> bool:
    """Segment-pair intersection test for the closed polyline p (vectorized
    orientation tests, adjacent segments skipped)."""
    n = p.shape[0]
    a = p
    b = np.roll(p, -1, axis=0)
    # pairwise orientation of segment i = (a_i, b_i) against j = (a_j, b_j)
    def cross(o, q, r):
        return ((q[..., 0] - o[..., 0]) * (r[..., 1] - o[..., 1])
                - (q[..., 1] - o[..., 1]) * (r[..., 0] - o[..., 0]))

    ai = a[:, None, :]
    bi = b[:, None, :]
    aj = a[None, :, :]
    bj = b[None, :, :]
    d1 = cross(ai, bi, aj)
    d2 = cross(ai, bi, bj)
    d3 = cross(aj, bj, ai)
    d4 = cross(aj, bj, bi)
    hit = (d1 * d2 < 0) & (d3 * d4 < 0)
    idx = np.arange(n)
    adjacent = (np.abs(idx[:, None] - idx[None, :]) <= 1) | \
               (np.abs(idx[:, None] - idx[None, :]) == n - 1)
    hit &= ~adjacent
    return bool(np.any(hit))


@dataclass(frozen=True)
class HarmonicBackground:
    """Entire harmonic polynomial H(x) = Re( sum_k a_k z^k ), z = x1 + i x2.

    ``coeffs[k]`` is the complex coefficient a_k for degree k (k = 0..K).
    Harmonicity is automatic; H(x1, x2) = x1 is ``coeffs = (0, 1)``.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        if not np.all(np.isfinite(cs)):
            raise InvalidParameterError(f"non-finite coefficients: {cs!r}")
        if len(cs) == 0:
            cs = (0j,)
        object.__setattr__(self, "coeffs", cs)

    @staticmethod
    def linear_x() -> "HarmonicBackground":
        return HarmonicBackground((0j, 1 + 0j))

    @staticmethod
    def constant(c: float) -> "HarmonicBackground":
        return HarmonicBackground((complex(c),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        z = pts[:, 0] + 1j * pts[:, 1]
        val = np.zeros_like(z)
        for k in range(len(self.coeffs) - 1, -1, -1):
            val = val * z + self.coeffs[k]
        out = val.real
        return float(out[0]) if single else out

    def gradient(self, pts):
        """grad H = (Re f'(z), -Im f'(z)) for H = Re f."""
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        z = pts[:, 0] + 1j * pts[:, 1]
        dp = np.zeros_like(z)
        for k in range(len(self.coeffs) - 1, 0, -1):
            dp = dp * z + k * self.coeffs[k]
        g = np.stack([dp.real, -dp.imag], axis=-1)
        return g[0] if single else g

    def shifted(self, v) -> "HarmonicBackground":
        """Coefficients of x -> H(x + v), used when translating scenes."""
        v = _as_point(v)
        w = complex(v[0], v[1])
        k = len(self.coeffs)
        # binomial re-expansion of sum a_k (z + w)^k
        new = [0j] * k
        from math import comb

        for deg, a in enumerate(self.coeffs):
            for j in range(deg + 1):
                new[j] += a * comb(deg, j) * w ** (deg - j)
        return HarmonicBackground(tuple(new))

    def sup_on_disks(self, disks: Sequence[Disk]) -> float:
        """Sampled sup of |H| over a union of disks (max principle: the sup
        over a disk is attained on its circle)."""
        best = 0.0
        t = np.linspace(0, 2 * np.pi, 512, endpoint=False)
        for d in disks:
            best = max(best, float(np.max(np.abs(self(d.point(t))))))
        return best
