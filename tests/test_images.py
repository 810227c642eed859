from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckfield import (Disk, HarmonicBackground, InvalidGeometryError,
                       SingularInputError, fixed_points, psi_gap_difference,
                       psi_two_disks, reflect, two_disk_asymptotic_difference,
                       two_disk_potential_difference)


def pair(eps, r1=1.0, r2=1.0):
    return (Disk((-r1 - eps / 2, 0.0), r1), Disk((r2 + eps / 2, 0.0), r2))


class TestReflect:
    def test_unit_disk(self):
        d = Disk((0, 0), 1.0)
        assert np.allclose(reflect(d, (2.0, 0.0)), (0.5, 0.0))

    def test_boundary_fixed(self):
        d = Disk((0, 0), 1.0)
        assert np.allclose(reflect(d, (1.0, 0.0)), (1.0, 0.0))

    def test_off_center_formula(self):
        d = Disk((1, 0), 2.0)
        assert np.allclose(reflect(d, (4.0, 0.0)), (1 + 4 / 3, 0.0))

    def test_center_rejected(self):
        with pytest.raises(SingularInputError):
            reflect(Disk((0.5, 0.5), 1.0), (0.5, 0.5))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.1, 4),
           st.floats(-5, 5), st.floats(-5, 5))
    def test_involution(self, cx, cy, r, px, py):
        d = Disk((cx, cy), r)
        p = np.array([px, py])
        if np.hypot(*(p - d.c)) < 1e-6:
            return
        assert np.allclose(reflect(d, reflect(d, p)), p, atol=1e-9)

    def test_involution_batch(self):
        rng = np.random.default_rng(0)
        for d in (Disk((0, 0), 1.0), Disk((2, -1), 0.3)):
            pts = d.c + rng.normal(size=(1000, 2))
            pts = pts[np.hypot(pts[:, 0] - d.c[0], pts[:, 1] - d.c[1]) > 1e-3]
            back = reflect(d, reflect(d, pts))
            assert np.max(np.abs(back - pts)) < 1e-12 * max(1.0, np.max(np.abs(pts)))


class TestFixedPoints:
    def test_symmetric_quadratic(self):
        d1, d2 = pair(0.01)
        fp = fixed_points(d1, d2)
        s = np.sqrt(1.005**2 - 1)
        assert fp.p1[0] == pytest.approx(-s, abs=1e-14)
        assert fp.p2[0] == pytest.approx(s, abs=1e-14)
        assert fp.p1[1] == 0.0 and fp.p2[1] == 0.0

    def test_equal_radii_mirror(self):
        d1, d2 = pair(3e-3)
        fp = fixed_points(d1, d2)
        assert fp.p1[0] == pytest.approx(-fp.p2[0], rel=1e-14)

    def test_mutual_inversion(self):
        d1 = Disk((-1.2, 0.4), 0.8)
        d2 = Disk((1.0, -0.3), 1.1)
        fp = fixed_points(d1, d2)
        assert np.allclose(reflect(d2, fp.a1), fp.a2, atol=1e-12)
        assert np.allclose(reflect(d1, fp.a2), fp.a1, atol=1e-12)

    def test_small_gap_asymptotic(self):
        # leading order sqrt(2) sqrt(r1 r2/(r1+r2)) sqrt(eps)
        for eps in (1e-6, 1e-8):
            d1, d2 = pair(eps)
            s = fixed_points(d1, d2).p2[0]
            assert s / np.sqrt(eps) == pytest.approx(1.0, rel=2e-3)

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
    def test_separation_against_decimal_reference(self, eps):
        # the separation p2 - p1 = 2 sqrt(s^2/4 - r1^2) of the same float
        # disks in 50-digit arithmetic; forming s^2/4 - r1^2 by subtraction
        # in floats would lose 1.2e-9 of it at eps 1e-8
        d1, d2 = pair(eps)
        fp = fixed_points(d1, d2)
        with localcontext() as ctx:
            ctx.prec = 50
            d = Decimal(d2.center[0]) - Decimal(d1.center[0])
            r1, r2 = Decimal(d1.radius), Decimal(d2.radius)
            half_s = (d * d + r1 * r1 - r2 * r2) / (2 * d)
            ref = 2 * (half_s * half_s - r1 * r1).sqrt()
            err = abs(Decimal(fp.p2[0] - fp.p1[0]) - ref) / ref
        assert err < Decimal("1e-11")

    def test_overlapping_rejected(self):
        with pytest.raises(InvalidGeometryError):
            fixed_points(Disk((0, 0), 1.0), Disk((1.5, 0), 1.0))

    def test_near_tangency_rejected(self):
        with pytest.raises(InvalidGeometryError):
            fixed_points(*pair(1e-14))


class TestPsiTwoDisks:
    def test_boundary_constancy(self):
        f = psi_two_disks(*pair(1e-3))
        t = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        v1 = f.potential(f.d1.point(t))
        v2 = f.potential(f.d2.point(t))
        diff = v2.mean() - v1.mean()
        assert np.std(v1) <= 1e-12 * abs(diff)
        assert np.std(v2) <= 1e-12 * abs(diff)

    def test_unit_fluxes_by_quadrature(self):
        f = psi_two_disks(*pair(1e-2, r1=1.0, r2=0.7))
        t = np.linspace(0, 2 * np.pi, 512, endpoint=False)
        for d, expected in ((f.d1, -1.0), (f.d2, 1.0)):
            pts = d.point(t)
            nu = -(pts - d.c) / d.radius  # into the body
            flux = np.sum(np.einsum("ij,ij->i", f.gradient(pts), nu)) \
                * (2 * np.pi * d.radius / t.size)
            assert flux == pytest.approx(expected, abs=1e-10)

    def test_odd_symmetry(self):
        f = psi_two_disks(*pair(1e-3))
        rng = np.random.default_rng(1)
        pts = rng.normal(scale=3.0, size=(200, 2))
        keep = (np.abs(np.abs(pts[:, 0]) - 1.0005) > 1.2) | (np.abs(pts[:, 1]) > 1.2)
        pts = pts[keep]
        mirrored = pts * np.array([-1.0, 1.0])
        assert np.max(np.abs(f.potential(pts) + f.potential(mirrored))) < 1e-13

    def test_dipole_decay(self):
        f = psi_two_disks(*pair(1e-3))
        for radius in (1e3, 1e4):
            x = np.array([radius, radius * 0.3])
            assert abs(np.hypot(*x) * f.potential(x)) < 1.0


class TestGapDifference:
    def test_closed_form_value(self):
        d1, d2 = pair(0.01)
        s = np.sqrt(1.005**2 - 1)
        expected = np.log((s + 0.005) / (s - 0.005)) / np.pi
        val = psi_gap_difference(d1, d2)
        assert val == pytest.approx(expected, rel=1e-13)
        assert val == pytest.approx(0.031822, rel=2e-4)

    def test_two_sided_scale_bound(self):
        # ratio to sqrt((r1+r2)/(r1 r2)) sqrt(eps) stays in a fixed band
        ratios = []
        for eps in np.geomspace(1e-6, 1e-2, 5):
            for frac in (0.01, 0.1, 1.0):
                d1, d2 = pair(eps, r1=1.0, r2=frac)
                scale = np.sqrt((1 + frac) / frac) * np.sqrt(eps)
                ratios.append(psi_gap_difference(d1, d2) / scale)
        assert 0.1 <= min(ratios) and max(ratios) <= 10.0

    def test_sqrt_law_doubling(self):
        for eps in (1e-5, 1e-4):
            a = psi_gap_difference(*pair(eps))
            b = psi_gap_difference(*pair(2 * eps))
            assert b / a == pytest.approx(np.sqrt(2), rel=1e-2)


class TestPotentialDifference:
    def test_leading_order(self):
        d1, d2 = pair(1e-4)
        v = two_disk_potential_difference(d1, d2, HarmonicBackground.linear_x())
        assert v == pytest.approx(0.02, rel=2e-2)
        assert v == pytest.approx(two_disk_asymptotic_difference(1, 1, 1e-4),
                                  rel=np.sqrt(1e-4) * 2)

    def test_constant_background(self):
        d1, d2 = pair(1e-3)
        assert two_disk_potential_difference(
            d1, d2, HarmonicBackground.constant(3.7)) == 0.0

    def test_residual_rate(self):
        # relative deviation from the leading-order value decays like
        # sqrt(eps); the fitted slope must be at least 0.4
        eps = np.geomspace(1e-7, 1e-3, 7)
        resid = []
        for e in eps:
            d1, d2 = pair(e)
            v = two_disk_potential_difference(d1, d2, HarmonicBackground.linear_x())
            a = two_disk_asymptotic_difference(1, 1, e)
            resid.append(abs(v - a) / a)
        slope = np.polyfit(np.log10(eps), np.log10(resid), 1)[0]
        assert slope >= 0.4
