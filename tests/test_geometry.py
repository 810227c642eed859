import importlib
from dataclasses import replace
from unittest import mock
from functools import cached_property

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from neckfield import (Body, Configuration, Disk, HarmonicBackground,
                       InvalidGeometryError, InvalidParameterError,
                       ScaleRegimeWarning, SmoothBoundary, body_gap,
                       build_case_a, build_case_b, build_case_c, build_case_d,
                       build_two_disks, gap, log_grid)
from neckfield.geometry.config import CASE_KEYS, CASE_TAGS, build_case
from neckfield.geometry.serialize import (ConfigParseError, emit_configuration,
                                          parse_configuration, parse_run)
from neckfield.solver.mesh import build_mesh

# the package's ``gap`` function shadows the module of the same name
gap_module = importlib.import_module("neckfield.geometry.gap")
config_module = importlib.import_module("neckfield.geometry.config")


def peanut(scale=1.0):
    # waist facing +x: concave near theta = 0
    return SmoothBoundary((0.0, 0.0),
                          cos_x=(0.7 * scale, 0.0, -0.3 * scale),
                          sin_y=(1.3 * scale, 0.0, -0.3 * scale))


class TestCaseA:
    def test_valid_scene(self):
        cfg = build_case_a(1, 0.05, 1, 0.05, 0.001)
        assert cfg.case_tag == "A"
        lens = cfg.bodies[1]
        for c in lens.corners:
            assert abs(np.hypot(*(c - lens.lens_disks[0].c)) - 0.05) < 1e-12
            assert abs(np.hypot(*(c - lens.lens_disks[1].c)) - 1.0) < 1e-12

    def test_overlap_bound_rejected(self):
        with pytest.raises(InvalidGeometryError):
            build_case_a(1, 0.05, 1, 0.12, 0.001)
        with pytest.raises(InvalidGeometryError):
            build_case_a(1, 0.05, 1, -0.01, 0.001)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_case_a(1, -0.05, 1, 0.05, 0.001)

    def test_gap_closed_form(self):
        cfg = build_case_a(1, 0.05, 1, 0.05, 0.001)
        info = cfg.conductor_gap(0, 1)
        assert info.distance == pytest.approx(0.001, rel=1e-12)
        assert np.allclose(info.point_i, (-0.0005, 0.0), atol=1e-12)
        assert np.allclose(info.point_j, (0.0005, 0.0), atol=1e-12)


class TestLensCharts:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.01, 10.0), st.floats(0.01, 10.0), st.floats(0.02, 0.98),
           st.floats(0.0, 2 * np.pi), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_outer_arcs_form_one_counterclockwise_loop(self, r1, r2, frac, angle, x, y):
        # the arcs come from the corners in closed form, in either disk order
        lo, hi = abs(r1 - r2), r1 + r2
        d = lo + frac * (hi - lo)
        da = Disk((x, y), r1)
        db = Disk((x + d * np.cos(angle), y + d * np.sin(angle)), r2)
        for disks in ((da, db), (db, da)):
            try:
                charts = Body.lens(*disks).charts()
            except InvalidGeometryError:
                assume(False)
            # the first disk's arc first: the lens chain starts at the upper corner
            assert [ch.circle for ch in charts] == list(disks)
            loop = []
            for ch, other, after in zip(charts, disks[::-1], charts[::-1]):
                end = ch.point(np.array([ch.u1]))[0]
                start = after.point(np.array([after.u0]))[0]
                assert np.hypot(*(end - start)) <= 1e-12 * (r1 + r2)
                assert not other.contains(ch.point(np.array([0.5 * (ch.u0 + ch.u1)])))[0]
                loop.append(ch.point(np.linspace(ch.u0, ch.u1, 64, endpoint=False)))
            p = np.concatenate(loop)
            assert np.sum(p[:, 0] * np.roll(p[:, 1], -1) - np.roll(p[:, 0], -1) * p[:, 1]) > 0


class TestCaseB:
    def test_gaps_match_requests(self):
        cfg = build_case_b(1, 0.05, 1, 1e-3, 2e-3)
        assert cfg.conductor_gap(0, 1).distance == pytest.approx(1e-3, rel=1e-12)
        assert cfg.conductor_gap(1, 2).distance == pytest.approx(2e-3, rel=1e-12)

    def test_center_layout(self):
        # the right center is placed so the boundary gap is exactly eps2
        cfg = build_case_b(1, 0.05, 1, 1e-3, 2e-3)
        c3 = cfg.bodies[2].disk.center
        assert c3 == (2 * 0.05 + 1 + 5e-4 + 2e-3, 0.0)

    def test_scale_regime_warning(self):
        with pytest.warns(ScaleRegimeWarning):
            build_case_b(1, 1, 1, 1e-3, 1e-3)

    def test_no_warning_in_regime(self, recwarn):
        build_case_b(1, 0.05, 1, 1e-3, 1e-3)
        assert not [w for w in recwarn if issubclass(w.category, ScaleRegimeWarning)]

    def test_gap_rounding_warning(self):
        # beside a disk of radius 1e8 a gap of 1e-3 is held to about 4e-5
        # relative (its potential difference was 5.2e-6 off the closed form)
        with pytest.warns(ScaleRegimeWarning, match="conductors 1 and 2 is held only"):
            build_two_disks(1e8, 1, 1e-3)

    @pytest.mark.parametrize("build", [
        lambda: build_two_disks(1, 1, 1e-6),
        lambda: build_two_disks(1, 1, 0.86e-6),
        lambda: build_case_b(1, 0.05, 1, 0.85e-5, 1e-3),
        lambda: build_case_d(SmoothBoundary.ellipse((0.0, 0.0), 1.0, 0.8),
                             SmoothBoundary.ellipse((0.0, 0.0), 1.0, 1.0),
                             SmoothBoundary.ellipse((0.0, 0.0), 1.1, 0.9), 0.05,
                             0.85e-4, 0.85e-4)],
        ids=["pair", "pair at the benchmark's least gap", "B", "D"])
    def test_no_gap_rounding_warning(self, build, recwarn):
        # the benchmark's scenes down to their least jittered gaps
        build()
        assert not [w for w in recwarn if issubclass(w.category, ScaleRegimeWarning)]

    def test_mirror_symmetry_about_middle(self):
        cfg = build_case_b(1, 0.05, 1, 1e-3, 1e-3)
        centered = cfg.translated(-np.array(cfg.bodies[1].disk.center))
        mirrored = centered.mirrored_x()
        orig = [b.disk for b in centered.bodies]
        flip = [b.disk for b in mirrored.bodies]
        assert flip[1] == orig[1]
        assert np.allclose(flip[0].center, orig[2].center, atol=1e-12)
        assert np.allclose(flip[2].center, orig[0].center, atol=1e-12)


class TestGap:
    def test_two_unit_disks(self):
        eps = 0.01
        cfg = build_two_disks(1, 1, eps)
        info = cfg.conductor_gap(0, 1)
        assert info.distance == pytest.approx(eps, rel=1e-12)
        assert np.allclose(info.point_i, (-0.005, 0.0), atol=1e-12)
        assert np.allclose(info.point_j, (0.005, 0.0), atol=1e-12)

    def test_identical_indices_rejected(self):
        cfg = build_two_disks(1, 1, 0.01)
        with pytest.raises(InvalidParameterError):
            gap(cfg, 1, 1)

    def test_generic_newton_matches_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            c1 = rng.normal(size=2)
            r1, r2 = 0.3 + rng.random(2)
            direction = rng.normal(size=2)
            direction /= np.hypot(*direction)
            c2 = c1 + (r1 + r2 + 0.05 + rng.random()) * direction
            a = Body.from_disk(Disk(tuple(c1), r1))
            b = Body.from_disk(Disk(tuple(c2), r2))
            exact = body_gap(a, b)
            generic = gap_module._arc_arc_newton(a.charts()[0], b.charts()[0])
            assert generic[0] == pytest.approx(exact.distance, rel=1e-12)

    def test_smooth_pair_gap(self):
        e1 = SmoothBoundary.ellipse((-2.0, 0.0), 1.5, 1.0)
        e2 = SmoothBoundary.ellipse((1.0, 0.0), 1.0, 0.8)
        info = body_gap(Body.from_smooth(e1), Body.from_smooth(e2))
        assert info.distance == pytest.approx(0.5, rel=1e-9)

    def test_axis_aligned_ellipse_is_not_a_circle(self):
        # P'' = -(P - c) holds for (a cos t, b sin t) too; a smooth chart
        # declares no circle, so the generic search gives the true gap from
        # the ellipse's top to the disk
        a = Body.from_smooth(SmoothBoundary.ellipse((0.0, 0.0), 1.0, 0.5))
        b = Body.from_disk(Disk((0.0, 1.0), 0.1))
        assert a.charts()[0].circle is None
        assert abs(body_gap(a, b).distance - 0.4) < 1e-12

    def test_circular_arcs_take_closed_form(self, monkeypatch):
        def no_newton(*args):
            raise AssertionError("circular arcs must not reach the generic search")

        monkeypatch.setattr(gap_module, "_arc_arc_newton", no_newton)
        disk = Body.from_disk(Disk((2.5, 0.0), 1.0))
        assert body_gap(Body.from_disk(Disk((0.0, 0.0), 1.0)), disk).distance \
            == pytest.approx(0.5, rel=1e-14)
        # case A's disk against its lens, and the lens against a lens
        left, lens = build_case_a(1, 0.05, 1, 0.05, 1e-3).bodies
        assert body_gap(left, lens).distance == pytest.approx(1e-3, rel=1e-9)
        other = Body.lens(Disk((-0.0505, 0.0), 0.05), Disk((-1.0505, 0.0), 1.0))
        assert body_gap(other, lens).distance == pytest.approx(1e-3, rel=1e-9)

    @pytest.mark.parametrize("newton", [False, True])
    @pytest.mark.parametrize("scene", ["pair", "A", "B", "C", "D", "grouped", "reversed"])
    def test_feet_name_the_points(self, scene, newton):
        # with ``newton`` the generic chart-pair search is called directly on
        # the charts of the feet, disk and lens arcs included: it must find
        # the same gap, and its feet must name its points. On case B a body
        # pair is also read against the order it was measured in
        ell = SmoothBoundary.ellipse
        disk = Body.from_disk
        cfg = {
            "pair": lambda: build_two_disks(1, 1, 1e-3),
            "A": lambda: build_case_a(1, 0.05, 1, 0.05, 1e-3),
            "B": lambda: build_case_b(1, 0.05, 1, 1e-4, 1e-3),
            "C": lambda: build_case_c(ell((0.0, 0.0), 1.2, 0.9), Disk((0.0, 0.0), 1.0),
                                      Disk((1.0, 0.0), 1.0), 0.05, 1e-3),
            "D": lambda: build_case_d(ell((0.0, 0.0), 1.0, 0.8), ell((0.0, 0.0), 1.0, 1.0),
                                      ell((0.0, 0.0), 1.1, 0.9), 0.05, 1e-3, 1e-3),
            # the closest pair of two conductors is bodies 1 and 2
            "grouped": lambda: Configuration(
                (disk(Disk((-3.0, 0.0), 1.0)), disk(Disk((0.0, 0.0), 1.0)),
                 disk(Disk((2.01, 0.0), 1.0))), ((0, 1), (2,)),
                HarmonicBackground.linear_x()),
            # conductor 0 is the second body
            "reversed": lambda: Configuration(
                (disk(Disk((-1.0, 0.0), 1.0)), disk(Disk((1.01, 0.0), 1.0))), ((1,), (0,)),
                HarmonicBackground.linear_x()),
        }[scene]()
        scale = cfg.scene_radius()
        gaps = [(gap(cfg, i, j), cfg.groups[i], cfg.groups[j])
                for i in range(cfg.n_conductors) for j in range(i + 1, cfg.n_conductors)]
        if scene == "B":
            gaps.append((cfg.body_pair_gap(2, 1), (2,), (1,)))
        for info, group_i, group_j in gaps:
            if newton:
                charts = [cfg.bodies[f.body].charts()[f.chart] for f in info.feet]
                dist, pa, pb, ua, ub = gap_module._arc_arc_newton(*charts)
                assert dist == pytest.approx(info.distance, rel=1e-12)
                info = replace(info, distance=dist, point_i=tuple(pa), point_j=tuple(pb),
                               feet=(info.feet[0]._replace(u=ua),
                                     info.feet[1]._replace(u=ub)))
            assert len(info.feet) == 2
            for foot, p, group in zip(info.feet, (info.point_i, info.point_j),
                                      (group_i, group_j)):
                assert foot.body in group
                chart = cfg.bodies[foot.body].charts()[foot.chart]
                assert chart.u0 <= foot.u <= chart.u1
                q = chart.point(np.array([foot.u]))[0]
                assert np.hypot(*(q - p)) <= 1e-12 * scale
        if scene == "B":
            assert [f.body for f in info.feet] == [2, 1]
        if scene == "grouped":
            assert [f.body for f in info.feet] == [1, 2]
        if scene == "reversed":
            assert [f.body for f in info.feet] == [1, 0]

    def test_one_gap_search_per_body_pair(self, monkeypatch):
        # the configuration's disjointness check measures every pair once;
        # meshing and the conductor gaps reuse those measurements
        calls = []
        original = gap_module.body_gap

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(gap_module, "body_gap", counted)
        monkeypatch.setattr(config_module, "body_gap", counted)
        cfg = build_case_b(1, 0.05, 1, 1e-3, 1e-3)
        build_mesh(cfg)
        cfg.conductor_gap(0, 1)
        assert len(calls) == 3

    def test_neck_midpoint(self):
        info = build_two_disks(1, 1, 0.01).conductor_gap(0, 1)
        assert np.allclose(info.midpoint, (0.0, 0.0), atol=1e-13)
        assert np.allclose(info.direction, (1.0, 0.0), atol=1e-13)

    def test_overlapping_bodies_rejected(self):
        with pytest.raises(InvalidGeometryError):
            Configuration((Body.from_disk(Disk((0, 0), 1.0)),
                           Body.from_disk(Disk((1.5, 0), 1.0))),
                          ((0,), (1,)), HarmonicBackground.linear_x())

    @pytest.mark.parametrize("delta", [0.1, 1e-3, 1e-6])
    @pytest.mark.parametrize("lower", ["ellipse", "disk"])
    def test_crossing_boundaries_rejected(self, lower, delta):
        # the two boundaries cross: a Newton run that lands on a crossing
        # measures a gap of rounding size, which must read as an overlap
        upper = Body.from_smooth(SmoothBoundary.ellipse((0.0, 0.8 - delta / 2), 1.0, 0.8))
        center = (0.0, -0.9 + delta / 2)
        other = (Body.from_smooth(SmoothBoundary.ellipse(center, 1.1, 0.9))
                 if lower == "ellipse" else Body.from_disk(Disk(center, 0.9)))
        with pytest.raises(InvalidGeometryError, match="overlap or touch"):
            body_gap(upper, other)
        with pytest.raises(InvalidGeometryError):
            Configuration((upper, other), ((0,), (1,)), HarmonicBackground.linear_x())

    @pytest.mark.parametrize("left,right", [
        # an exact tangency on a start pair of the Newton search
        (SmoothBoundary.ellipse((-0.1, 0.0), 0.05, 1.0), Disk((0.0, 0.0), 0.05)),
        # disks on the outward normal of an ellipse, touching it between starts
        *[(SmoothBoundary.ellipse((0.0, 0.0), 1.0, 0.6), (u, r))
          for u in (0.3, 1.1) for r in (0.05, 0.5)]],
        ids=["tangent-at-starts", "u0.3-r0.05", "u0.3-r0.5", "u1.1-r0.05", "u1.1-r0.5"])
    def test_touching_boundaries_rejected(self, left, right):
        # where two boundaries touch, the Hessian of the squared distance is
        # singular: the search stops there and reads it as contact
        if not isinstance(right, Disk):
            u, r = right
            p, d = left.point(np.array([u]))[0], left.deriv(np.array([u]))[0]
            right = Disk(tuple(p + r * np.array([d[1], -d[0]]) / np.hypot(*d)), r)
        with pytest.raises(InvalidGeometryError, match="overlap or touch"):
            body_gap(Body.from_smooth(left), Body.from_disk(right))

    @pytest.mark.parametrize("gap_width", [0.3, 1e-3, 1e-6])
    @pytest.mark.parametrize("a,b", [(1.0, 0.8), (1.1, 0.9), (0.5, 1.0)])
    def test_newton_on_the_axis_matches_closed_form(self, a, b, gap_width):
        # an ellipse's tip facing a small disk across the x-axis: the feet
        # are u = 0 and v = pi and the gap is the axis distance
        info = body_gap(Body.from_smooth(SmoothBoundary.ellipse((-a, 0.0), a, b)),
                        Body.from_disk(Disk((0.05 + gap_width, 0.0), 0.05)))
        assert abs(info.distance - gap_width) <= 1e-15
        assert np.allclose(info.point_i, (0.0, 0.0), rtol=0, atol=1e-15)
        assert np.allclose(info.point_j, (gap_width, 0.0), rtol=0, atol=1e-15)
        for foot, u in zip(info.feet, (0.0, np.pi)):
            assert abs((foot.u - u + np.pi) % (2 * np.pi) - np.pi) <= 1e-15

    def test_case_d_newton_point_count(self, monkeypatch):
        # criterion 5's case-D grid: its convex pairs take one certified
        # run, and the Newton searches evaluate 550 chart parameters over
        # the five scenes
        count = {"on": False, "points": 0}
        trig, newton = SmoothBoundary._trig, gap_module._arc_arc_newton

        def counted_trig(self, t):
            count["points"] += np.size(t) if count["on"] else 0
            return trig(self, t)

        def counted_newton(*args, **kwargs):
            count["on"] = True
            try:
                return newton(*args, **kwargs)
            finally:
                count["on"] = False

        monkeypatch.setattr(SmoothBoundary, "_trig", counted_trig)
        monkeypatch.setattr(gap_module, "_arc_arc_newton", counted_newton)
        ell = SmoothBoundary.ellipse
        for eps in np.geomspace(1e-6, 1e-4, 5):
            cfg = build_case_d(ell((0.0, 0.0), 1.0, 0.8), ell((0.0, 0.0), 1.0, 1.0),
                               ell((0.0, 0.0), 1.1, 0.9), 0.05, eps, eps)
            assert cfg.conductor_gap(0, 1).distance == pytest.approx(eps, rel=1e-10)
        assert 0 < count["points"] <= 550

    def test_newton_search_is_batched(self, monkeypatch):
        # each Newton iteration evaluates the charts once on all its runs:
        # case D's three pairs at eps 1e-3 take 52 to 76 series products,
        # from 28 to 40 trigonometric tables
        ell = SmoothBoundary.ellipse
        cfg = build_case_d(ell((0.0, 0.0), 1.0, 0.8), ell((0.0, 0.0), 1.0, 1.0),
                           ell((0.0, 0.0), 1.1, 0.9), 0.05, 1e-3, 1e-3)
        calls = []
        series = SmoothBoundary._series

        def counted(self, t, mode):
            calls.append(mode)
            return series(self, t, mode)

        monkeypatch.setattr(SmoothBoundary, "_series", counted)
        for a, b in ((0, 1), (1, 2), (0, 2)):
            calls.clear()
            found = gap_module._arc_arc_newton(cfg.bodies[a].charts()[0],
                                               cfg.bodies[b].charts()[0])
            assert 0 < len(calls) <= 200
            assert found[0] == pytest.approx(cfg.body_pair_gap(a, b).distance, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-6, 1e-5, 1e-4])
    def test_ellipse_circle_search(self, eps):
        # criterion 5's left ellipse against the small circle. One of the
        # Newton starts sits at a saddle of the squared distance, where the
        # Newton step does not descend: that run stays put while its
        # damping grows, then descends, and the search still costs at most
        # 40 curve evaluations
        ell = SmoothBoundary.ellipse
        cfg = build_case_d(ell((0.0, 0.0), 1.0, 0.8), ell((0.0, 0.0), 1.0, 1.0),
                           ell((0.0, 0.0), 1.1, 0.9), 0.05, eps, eps)
        ellipse, circle = cfg.bodies[0].smooth, cfg.bodies[1].smooth
        chart = cfg.bodies[0].charts()[0]
        calls = []

        def counted(u):
            calls.append(u)
            return chart.point(u)

        dist, _, _, u, v = gap_module._arc_arc_newton(replace(chart, point=counted),
                                                      cfg.bodies[1].charts()[0])
        assert len(calls) <= 40

        # reference: the distance from the ellipse to the circle's center,
        # sampled densely and refined by golden-section search
        center, radius = np.array(circle.center), circle.cos_x[0]

        def reach(s):
            return float(np.hypot(*(ellipse.point(s) - center)))

        s = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        i = int(np.argmin(np.hypot(*(ellipse.point(s) - center).T)))
        lo, hi = s[i] - 2 * np.pi / 4096, s[i] + 2 * np.pi / 4096
        g = (np.sqrt(5.0) - 1) / 2
        while hi - lo > 1e-12:
            a, b = hi - g * (hi - lo), lo + g * (hi - lo)
            lo, hi = (lo, b) if reach(a) < reach(b) else (a, hi)
        u_ref = 0.5 * (lo + hi)
        foot = ellipse.point(u_ref) - center
        v_ref = np.arctan2(foot[1], foot[0]) % (2 * np.pi)
        assert dist == pytest.approx(reach(u_ref) - radius, rel=1e-9, abs=1e-15)
        assert abs((u - u_ref + np.pi) % (2 * np.pi) - np.pi) < 1e-6
        assert abs((v - v_ref + np.pi) % (2 * np.pi) - np.pi) < 1e-6


def newton_runs(monkeypatch):
    """Record the run count of every ``_arc_arc_newton`` call."""
    runs, newton = [], gap_module._arc_arc_newton

    def recorded(*args, **kwargs):
        runs.append(kwargs.get("runs", gap_module._RUNS))
        return newton(*args, **kwargs)

    monkeypatch.setattr(gap_module, "_arc_arc_newton", recorded)
    return runs


def six_run_gap(a: Body, b: Body):
    """The six-run Newton search on the one charts of a and b."""
    touch = gap_module._TOUCH * max(a.diameter(), b.diameter())
    return gap_module._arc_arc_newton(a.charts()[0], b.charts()[0], touch)


def assert_same_gap(info, found, tol):
    dist, pa, pb, ua, ub = found
    assert abs(info.distance - dist) <= tol
    assert np.allclose(info.point_i, pa, rtol=0, atol=tol)
    assert np.allclose(info.point_j, pb, rtol=0, atol=tol)
    for foot, u in zip(info.feet, (ua, ub)):
        assert abs((foot.u - u + np.pi) % (2 * np.pi) - np.pi) <= tol


def rotated_ellipse(a: float, b: float, angle: float) -> SmoothBoundary:
    c, s = np.cos(angle), np.sin(angle)
    return SmoothBoundary((0.0, 0.0), cos_x=(a * c,), sin_x=(-b * s,), cos_y=(a * s,),
                          sin_y=(b * c,))


class TestCertifiedGap:
    """Two convex bodies, one of them not a disk, take one damped Newton
    run, whose result stands when its feet are stationary and face each
    other; every other pair, and a convex pair whose run is not certified,
    takes the six-run search and the containment probe. No run is dropped,
    so every search ends on a pair of boundary points."""

    def test_convexity(self):
        ell = SmoothBoundary.ellipse((0.0, 0.0), 1.0, 0.4)
        assert Body.from_disk(Disk((0.0, 0.0), 1.0)).convex
        assert Body.from_smooth(ell).convex
        assert Body.from_smooth(rotated_ellipse(1.0, 0.05, 0.7)).convex
        assert not Body.from_smooth(peanut()).convex
        assert not build_case_a(1, 0.05, 1, 0.05, 1e-3).bodies[1].convex
        for similar in (peanut().translated((1.0, 2.0)), peanut().scaled(0.3),
                        peanut().mirrored_x()):
            assert not similar.convex
        for similar in (ell.translated((1.0, 2.0)), ell.scaled(0.3), ell.mirrored_x()):
            assert similar.convex

    @pytest.mark.parametrize("eps", log_grid(1e-6, 1e-4, 5))
    def test_case_d_pairs_take_one_run(self, monkeypatch, eps):
        # criterion 5's case-D grid: every pair is certified with one run,
        # and it finds the six-run search's gap
        ell = SmoothBoundary.ellipse
        cfg = build_case_d(ell((0.0, 0.0), 1.0, 0.8), ell((0.0, 0.0), 1.0, 1.0),
                           ell((0.0, 0.0), 1.1, 0.9), 0.05, eps, eps)
        runs = newton_runs(monkeypatch)
        for a, b in ((0, 1), (1, 2), (0, 2), (2, 1)):
            runs.clear()
            info = body_gap(cfg.bodies[a], cfg.bodies[b])
            assert runs == [1]
            assert_same_gap(info, six_run_gap(cfg.bodies[a], cfg.bodies[b]), 1e-15)

    def test_thin_ellipses_side_by_side(self, monkeypatch):
        # the one run's first Newton steps do not descend: its damped steps
        # still reach the gap, which is certified, at a dense sample's
        # minimum. The sample of 4000 points per curve misses the minimum by
        # 4.2e-6 relative; a sample refined around its best pair by 1e-10
        turn = 0.71875
        a = rotated_ellipse(0.25, 0.25 / 7, turn).translated((0.17813, 0.04548))
        b = rotated_ellipse(0.25, 0.25 / 9, turn)
        runs = newton_runs(monkeypatch)
        info = body_gap(Body.from_smooth(a), Body.from_smooth(b))
        assert runs == [1]

        def sampled(s, t):
            pa, pb = a.point(s), b.point(t)
            best = (np.inf, 0.0, 0.0)
            for i in range(0, s.size, 250):
                d = np.hypot(*(pa[i:i + 250, None, :] - pb[None, :, :]).transpose(2, 0, 1))
                j, k = np.unravel_index(np.argmin(d), d.shape)
                best = min(best, (float(d[j, k]), s[i + j], t[k]))
            return best

        h = 2 * np.pi / 4000
        coarse, s0, t0 = sampled(*2 * (np.arange(4000) * h,))
        fine = sampled(np.linspace(s0 - 2 * h, s0 + 2 * h, 801),
                       np.linspace(t0 - 2 * h, t0 + 2 * h, 801))[0]
        assert info.distance <= fine <= coarse
        assert coarse - info.distance <= 1e-5 * coarse
        assert fine - info.distance <= 1e-9 * fine

    def test_nonconvex_body_takes_the_six_run_search(self, monkeypatch):
        # the peanut's two lobes are equidistant from the disk
        runs = newton_runs(monkeypatch)
        a = Body.from_smooth(peanut())
        b = Body.from_disk(Disk((1.5, 0.0), 0.5))
        info = body_gap(a, b)
        assert runs == [gap_module._RUNS]
        assert info.distance == 0.458193978929682
        assert info.point_i == (0.6235835436233468, 0.3873369285896785)
        assert info.point_j == (1.042672738689287, 0.2021182229835863)

    @pytest.mark.parametrize("outcome", ["touch", "unconverged"])
    def test_uncertified_run_falls_back(self, monkeypatch, outcome):
        # a one-run result that is not certified is not returned: the pair
        # takes the probe and the six-run search (the nested-body tests
        # cover feet that do not face each other)
        a = Body.from_smooth(SmoothBoundary.ellipse((-1.0, 0.0), 1.0, 0.6))
        b = Body.from_disk(Disk((0.051, 0.0), 0.05))
        expected = six_run_gap(a, b)
        newton, calls = gap_module._arc_arc_newton, []

        def one_run_fails(ca, cb, touch=0.0, runs=gap_module._RUNS):
            calls.append(runs)
            found = newton(ca, cb, touch, runs=runs)
            if runs == gap_module._RUNS:
                return found
            _, pa, pb, u, v = found
            if outcome == "touch":
                return 0.5 * touch, pa, pb, u, v
            # a run stopped short of the stationary feet
            u = u + 1e-6
            pa = ca.point(np.array([u]))[0]
            return float(np.hypot(*(pa - pb))), pa, pb, u, v

        monkeypatch.setattr(gap_module, "_arc_arc_newton", one_run_fails)
        assert_same_gap(body_gap(a, b), expected, 0.0)
        assert calls == [1, gap_module._RUNS]

    @pytest.mark.parametrize("inner", [
        SmoothBoundary.ellipse((0.2, 0.1), 0.5, 0.3), Disk((0.3, 0.0), 0.2)],
        ids=["ellipse", "disk"])
    @pytest.mark.parametrize("order", [1, -1])
    def test_nested_bodies_rejected(self, monkeypatch, inner, order):
        # the one run's feet do not face each other, so the probe runs
        runs = newton_runs(monkeypatch)
        outer = Body.from_smooth(SmoothBoundary.ellipse((0.0, 0.0), 2.0, 1.5))
        inner = Body.from_disk(inner) if isinstance(inner, Disk) else Body.from_smooth(inner)
        with pytest.raises(InvalidGeometryError, match="contains"):
            body_gap(*(outer, inner)[::order])
        assert runs == [1]

    def test_lens_never_takes_one_run(self, monkeypatch):
        runs = newton_runs(monkeypatch)
        lens = build_case_a(1, 0.05, 1, 0.05, 1e-3).bodies[1]
        ell = Body.from_smooth(SmoothBoundary.ellipse((-1.2005, 0.0), 1.2, 0.9))
        assert body_gap(ell, lens).distance == pytest.approx(1e-3, rel=1e-9)
        assert runs and set(runs) == {gap_module._RUNS}

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.floats(0.05, 1.0), st.floats(1.0, 20.0),
                              st.floats(0.0, np.pi)), min_size=2, max_size=2),
           st.floats(-8.0, -1.0), st.floats(0.0, 2 * np.pi))
    def test_certified_gap_is_the_six_run_gap(self, shapes, log_eps, angle):
        # random disks and rotated ellipses, thin ones side by side among
        # them, placed at a random gap along a random direction: whichever
        # search body_gap takes, the placement ends as with the six-run
        # search alone, at the same gap
        assume(not all(disk for disk, *_ in shapes))
        moving, fixed = (Body.from_disk(Disk((0.0, 0.0), a)) if disk
                         else Body.from_smooth(rotated_ellipse(a, a / aspect, turn))
                         for disk, a, aspect, turn in shapes)
        direction = np.array([np.cos(angle), np.sin(angle)])

        def place():
            return config_module._solve_translation(moving, fixed, direction,
                                                    10.0 ** log_eps)

        body, info = place()
        with mock.patch.object(gap_module, "_certified_newton", lambda *args: None):
            _, six_run_info = place()
        size = max(body.diameter(), fixed.diameter())
        assert abs(info.distance - six_run_gap(body, fixed)[0]) <= 1e-15 * size
        assert abs(info.distance - six_run_info.distance) <= 1e-15 * size


class TestCaseCD:
    def test_case_c_reproduces_case_a(self):
        r1, r2, r3, a, eps = 1.0, 0.05, 1.0, 0.05, 1e-3
        cfg_a = build_case_a(r1, r2, r3, a, eps)
        cfg_c = build_case_c(Disk((0.0, 0.0), r1), Disk((0.0, 0.0), 1.0),
                             Disk((r3 + a - r2, 0.0), r3), r2, eps)
        ga = cfg_a.conductor_gap(0, 1)
        gc = cfg_c.conductor_gap(0, 1)
        assert gc.distance == pytest.approx(ga.distance, rel=1e-9)
        assert np.allclose(gc.point_i, ga.point_i, atol=1e-9)
        assert np.allclose(gc.point_j, ga.point_j, atol=1e-9)

    def test_case_c_with_ellipse_left(self):
        cfg = build_case_c(SmoothBoundary.ellipse((0.0, 0.0), 1.2, 0.9),
                           Disk((0.0, 0.0), 1.0), Disk((1.0, 0.0), 1.0),
                           0.05, 1e-3)
        assert cfg.conductor_gap(0, 1).distance == pytest.approx(1e-3, rel=1e-9)

    def test_case_d_three_ellipses(self):
        cfg = build_case_d(SmoothBoundary.ellipse((0.0, 0.0), 1.0, 0.8),
                           SmoothBoundary.ellipse((0.0, 0.0), 1.0, 1.0),
                           SmoothBoundary.ellipse((0.0, 0.0), 1.1, 0.9),
                           0.05, 1e-3, 1e-3)
        assert cfg.conductor_gap(0, 1).distance == pytest.approx(1e-3, rel=1e-9)
        assert cfg.conductor_gap(1, 2).distance == pytest.approx(1e-3, rel=1e-9)
        # half-plane separation
        left = cfg.bodies[0].smooth.point(np.linspace(0, 2 * np.pi, 1024))
        assert np.max(left[:, 0]) <= 1e-9
        for b in cfg.bodies[1:]:
            pts = b.smooth.point(np.linspace(0, 2 * np.pi, 1024))
            assert np.min(pts[:, 0]) >= -1e-9

    def test_case_d_geometry_work(self, monkeypatch):
        # the benchmark's case-D scene: its ellipses are valid by
        # construction and are not validated at all, and the translation
        # solve needs few gap searches (5 at eps 1e-3: a start and the root
        # on each side, and the configuration's search of the outer pair;
        # it takes the two gaps the solves measured as they are)
        calls = {"validate": 0, "body_gap": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SmoothBoundary, "validate",
                            counted("validate", SmoothBoundary.validate))
        counted_gap = counted("body_gap", gap_module.body_gap)
        for module in (gap_module, config_module):
            monkeypatch.setattr(module, "body_gap", counted_gap)
        eps = 1e-3
        ell = SmoothBoundary.ellipse
        cfg = build_case_d(ell((0.0, 0.0), 1.0, 0.8), ell((0.0, 0.0), 1.0, 1.0),
                           ell((0.0, 0.0), 1.1, 0.9), 0.05, eps, eps)
        assert calls["validate"] <= 4
        assert calls["body_gap"] == 5
        assert cfg.conductor_gap(0, 1).distance == pytest.approx(eps, rel=1e-12)
        assert cfg.conductor_gap(1, 2).distance == pytest.approx(eps, rel=1e-12)

    def test_case_d_builds_one_table_per_coefficient_set(self, monkeypatch):
        # the translates of the translation solve and of the recentering
        # share their curve's coefficient tables, so the three coefficient
        # sets (two ellipses, the scaled middle one) are tabulated once each
        ell = SmoothBoundary.ellipse
        shapes = (ell((0.0, 0.0), 1.0, 0.8), ell((0.0, 0.0), 1.0, 1.0),
                  ell((0.0, 0.0), 1.1, 0.9))
        built = []
        tables = SmoothBoundary._tables.func

        def counted(curve):
            built.append((curve.cos_x, curve.sin_x, curve.cos_y, curve.sin_y))
            return tables(curve)

        prop = cached_property(counted)
        prop.__set_name__(SmoothBoundary, "_tables")
        monkeypatch.setattr(SmoothBoundary, "_tables", prop)
        sampled = []
        convex = SmoothBoundary.convex.func

        def sampled_convex(curve):
            sampled.append((curve.cos_x, curve.sin_x, curve.cos_y, curve.sin_y))
            return convex(curve)

        prop = cached_property(sampled_convex)
        prop.__set_name__(SmoothBoundary, "convex")
        monkeypatch.setattr(SmoothBoundary, "convex", prop)
        build_case_d(*shapes, 0.05, 1e-3, 1e-3)
        assert len(built) == len(set(built)) == 3
        # ellipses are convex by construction, and their translates and
        # scalings carry the flag: the gap searches sample no curvature
        assert sampled == []
        # curves built from their coefficients are sampled once per
        # coefficient set, however many translates the placement measures
        build_case_d(*(SmoothBoundary(s.center, s.cos_x, s.sin_x, s.cos_y, s.sin_y)
                       for s in shapes), 0.05, 1e-3, 1e-3)
        assert 0 < len(sampled) == len(set(sampled)) <= 3

    @pytest.mark.parametrize("eps", [1e-6, 1e-3])
    def test_translation_returns_its_measured_gap(self, eps):
        ell = SmoothBoundary.ellipse
        mid = Body.from_smooth(ell((0.0, 0.0), 1.0, 1.0).scaled(0.05))
        for moving, direction in ((ell((0.0, 0.0), 1.0, 0.8), (-1.0, 0.0)),
                                  (ell((0.0, 0.0), 1.1, 0.9), (1.0, 0.0))):
            body, info = config_module._solve_translation(Body.from_smooth(moving), mid,
                                                          np.array(direction), eps)
            assert info == body_gap(body, mid)
            assert info.distance == pytest.approx(eps, rel=1e-9)

    def test_place_around_reuses_the_measured_gaps(self, monkeypatch):
        # the gap checks of place_around read the translation solves' last
        # probes: a two-sided placement makes the two solves' 2 gap searches
        # each, a start and the root, and no more (6 when both gaps were
        # searched again)
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return gap_module.body_gap(a, b)

        monkeypatch.setattr(config_module, "body_gap", counted)
        ell = SmoothBoundary.ellipse
        mid = Body.from_smooth(ell((0.0, 0.0), 1.0, 1.0).scaled(0.05))
        bodies, _ = config_module.place_around(mid, Body.from_smooth(ell((0.0, 0.0), 1.0, 0.8)),
                                               1e-3, Body.from_smooth(ell((0.0, 0.0), 1.1, 0.9)),
                                               1e-3)
        assert len(calls) == 4
        for pair in (bodies[:2], bodies[1:]):
            assert body_gap(*pair).distance == pytest.approx(1e-3, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-3, 1e-5])
    @pytest.mark.parametrize("width", [0.14, 0.1, 0.05])
    def test_thin_left_body_places(self, width, eps):
        # left bodies far thinner than the scene are placed from
        # bounding-circle contact: no step carries them across the middle
        ell = SmoothBoundary.ellipse
        cfg = build_case_d(ell((0.0, 0.0), width, 1.0), Disk((0.0, 0.0), 1.0),
                           ell((0.0, 0.0), 1.1, 0.9), 0.05, eps, eps)
        assert cfg.conductor_gap(0, 1).distance == pytest.approx(eps, rel=1e-10)
        assert cfg.conductor_gap(1, 2).distance == pytest.approx(eps, rel=1e-10)

    @pytest.mark.parametrize("eps", [1e-6, 1e-3])
    def test_tilted_offset_body_places(self, eps):
        # a 1.0 x 0.3 ellipse rotated by 1.4 rad, off the line of motion:
        # its gap direction is oblique to the translation
        c, s = np.cos(1.4), np.sin(1.4)
        tilted = SmoothBoundary((0.3, 0.2), cos_x=(c,), sin_x=(-0.3 * s,),
                                cos_y=(s,), sin_y=(0.3 * c,))
        disk = Body.from_disk(Disk((0.0, 0.0), 0.05))
        body, info = config_module._solve_translation(Body.from_smooth(tilted), disk,
                                                      np.array([-1.0, 0.0]), eps)
        assert info == body_gap(body, disk)
        assert info.distance == pytest.approx(eps, rel=1e-10)

    @pytest.mark.parametrize("offset", [5.0, 2.001])
    def test_translation_that_never_reaches_the_gap_rejected(self, offset):
        # at offset 5 the bounding circles never come within reach; at
        # 2.001 they do, but the disks pass 1e-3 apart and never reach 1e-4
        fixed = Body.from_disk(Disk((0.0, 0.0), 1.0))
        moving = Body.from_disk(Disk((0.0, offset), 1.0))
        with pytest.raises(InvalidGeometryError):
            config_module._solve_translation(moving, fixed, np.array([1.0, 0.0]), 1e-4)

    @pytest.mark.parametrize("overlapping_call", [0, 1])
    def test_translation_backs_off_an_overlap(self, monkeypatch, overlapping_call):
        # a gap search that reports an overlap at the start (steps outward)
        # or on the first Newton step (halves back) still ends at eps
        calls = []

        def overlap_once(a, b):
            calls.append(a)
            if len(calls) == overlapping_call + 1:
                raise InvalidGeometryError("gap distance must be positive")
            return gap_module.body_gap(a, b)

        monkeypatch.setattr(config_module, "body_gap", overlap_once)
        ell = SmoothBoundary.ellipse
        mid = Body.from_smooth(ell((0.0, 0.0), 1.0, 1.0).scaled(0.05))
        body, info = config_module._solve_translation(
            Body.from_smooth(ell((0.0, 0.0), 1.0, 0.8)), mid, np.array([-1.0, 0.0]), 1e-3)
        assert len(calls) > 2
        assert info == gap_module.body_gap(body, mid)
        assert info.distance == pytest.approx(1e-3, rel=1e-10)

    def test_nonconvex_gap_arc_rejected(self):
        with pytest.raises(InvalidGeometryError):
            build_case_d(peanut(), Disk((0.0, 0.0), 1.0),
                         Disk((0.0, 0.0), 1.0), 0.05, 1e-3, 1e-3)

    def test_convex_feet_take_no_curvature_samples(self, monkeypatch):
        # the ellipses of the benchmark's case-D scene are convex by
        # construction, so their four feet sample no curvature; the
        # peanut's foot on its waist still does, and raises
        sampled = []
        curvature = SmoothBoundary.curvature
        monkeypatch.setattr(SmoothBoundary, "curvature",
                            lambda self, t: sampled.append(t) or curvature(self, t))
        ell = SmoothBoundary.ellipse
        build_case_d(ell((0.0, 0.0), 1.0, 0.8), ell((0.0, 0.0), 1.0, 1.0),
                     ell((0.0, 0.0), 1.1, 0.9), 0.05, 1e-3, 1e-3)
        assert sampled == []
        with pytest.raises(InvalidGeometryError, match="gap-facing arc is not strictly convex"):
            build_case_d(peanut(), Disk((0.0, 0.0), 1.0),
                         Disk((0.0, 0.0), 1.0), 0.05, 1e-3, 1e-3)
        assert len(sampled) > 0

    def test_mirror_is_valid_by_construction(self, monkeypatch):
        # the benchmark's case-D scene: a reflected valid curve, its
        # parameter reversed, is valid and is not validated again
        ell = SmoothBoundary.ellipse
        cfg = build_case_d(ell((0.0, 0.0), 1.0, 0.8), ell((0.0, 0.0), 1.0, 1.0),
                           ell((0.0, 0.0), 1.1, 0.9), 0.05, 1e-3, 1e-3)
        validated = []
        validate = SmoothBoundary.validate
        monkeypatch.setattr(SmoothBoundary, "validate",
                            lambda self: validated.append(validate(self)))
        mirrored = cfg.mirrored_x()
        assert validated == []
        for body, flipped in zip(cfg.bodies, mirrored.bodies):
            s = body.smooth
            rebuilt = SmoothBoundary((-s.center[0], s.center[1]),
                                     tuple(-v for v in s.cos_x), s.sin_x, s.cos_y,
                                     tuple(-v for v in s.sin_y))
            assert flipped.smooth == rebuilt and hash(flipped.smooth) == hash(rebuilt)
        assert len(validated) == 3


class TestBuildCase:
    @pytest.mark.parametrize("build", [
        lambda: build_two_disks(1.0, 0.5, 1e-3),
        lambda: build_case_a(1.0, 0.05, 1.0, 0.05, 1e-3),
        lambda: build_case_b(1.0, 0.05, 1.0, 1e-3, 2e-3,
                             background=HarmonicBackground((0j, 0j, 1 + 0j))),
    ], ids=["pair", "A", "B"])
    def test_recorded_parameters_rebuild_the_scene(self, build):
        cfg = build()
        assert build_case(cfg.case_tag, cfg.params, cfg.background) == cfg

    def test_nominal_disks_of_cases_c_and_d(self):
        p = {"r1": 1.0, "r2": 0.05, "r3": 1.0, "left_x": -3.0, "right_x": 1.0}
        c = build_case("C", dict(p, eps=1e-3))
        assert c.case_tag == "C" and c.bodies[1].kind == "lens"
        assert c.conductor_gap(0, 1).distance == pytest.approx(1e-3, rel=1e-10)
        d = build_case("D", dict(p, right_x=3.0, eps1=1e-3, eps2=2e-3))
        assert d.case_tag == "D" and d.bodies[1].disk.radius == 0.05
        assert d.conductor_gap(0, 1).distance == pytest.approx(1e-3, rel=1e-10)
        assert d.conductor_gap(1, 2).distance == pytest.approx(2e-3, rel=1e-10)

    @pytest.mark.parametrize("tag", CASE_TAGS)
    def test_case_keys_are_the_keys_the_recipe_reads(self, tag):
        # a run file's [case] section takes only CASE_KEYS[tag]
        read = set()

        class Recorded(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                read.add(key)
                return super().get(key, default)

        p = {"r1": 1.0, "r2": 0.05, "r3": 1.0, "a": 0.05, "eps": 1e-3, "eps1": 1e-3,
             "eps2": 2e-3, "left_x": -3.0, "right_x": 1.0 if tag == "C" else 3.0}
        build_case(tag, Recorded(p))
        assert read == CASE_KEYS[tag]

    def test_unknown_tag_and_missing_parameter(self):
        with pytest.raises(InvalidParameterError, match="no canonical case 'BC'"):
            build_case("BC", {})
        with pytest.raises(InvalidParameterError, match="case A missing parameter 'a'"):
            build_case("A", {"r1": 1.0, "r2": 0.05, "r3": 1.0, "eps": 1e-3})


class TestSmoothBoundary:
    def test_ellipse_curvature(self):
        e = SmoothBoundary.ellipse((0, 0), 2.0, 1.0)
        assert e.curvature(0.0) == pytest.approx(2.0)
        assert e.curvature(np.pi / 2) == pytest.approx(0.25)

    def test_self_intersection_rejected(self):
        with pytest.raises(InvalidGeometryError):
            SmoothBoundary((0.0, 0.0), cos_x=(0.2, 0.0, 1.0), sin_y=(0.2, 0.0, 1.0))

    def test_orientation_rejected(self):
        with pytest.raises(InvalidGeometryError):
            SmoothBoundary((0.0, 0.0), cos_x=(1.0,), sin_y=(-1.0,))

    def test_similarity_keeps_validity(self, monkeypatch):
        p = peanut()
        validated = []
        monkeypatch.setattr(SmoothBoundary, "validate",
                            lambda self, samples=720: validated.append(self))
        moved = p.translated((0.25, -1.5))
        shrunk = p.scaled(0.05)
        assert validated == []
        rebuilt_moved = SmoothBoundary((0.25, -1.5), p.cos_x, p.sin_x, p.cos_y, p.sin_y)
        rebuilt_shrunk = SmoothBoundary((0.0, 0.0), *(tuple(0.05 * v for v in c)
                                                      for c in (p.cos_x, p.sin_x,
                                                                p.cos_y, p.sin_y)))
        assert len(validated) == 2
        assert moved == rebuilt_moved and hash(moved) == hash(rebuilt_moved)
        assert shrunk == rebuilt_shrunk and hash(shrunk) == hash(rebuilt_shrunk)
        with pytest.raises(InvalidParameterError):
            p.scaled(0.0)

    @pytest.mark.parametrize("coeffs", [{"cos_x": (np.inf,), "sin_y": (1.0,)},
                                        {"cos_x": (1.0, np.nan), "sin_y": (1.0,)},
                                        {"cos_x": (1.0,), "sin_y": (-np.inf,)}])
    def test_non_finite_coefficients_rejected(self, coeffs):
        with pytest.raises(InvalidParameterError):
            SmoothBoundary((0.0, 0.0), **coeffs)

    @pytest.mark.parametrize("a", [np.inf, np.nan, 0.0, -1.0])
    def test_non_finite_ellipse_rejected(self, a):
        with pytest.raises(InvalidParameterError):
            SmoothBoundary.ellipse((0.0, 0.0), a, 1.0)
        with pytest.raises(InvalidParameterError):
            SmoothBoundary.ellipse((0.0, 0.0), 1.0, a)

    def test_ellipse_is_valid_by_construction(self, monkeypatch):
        validated = []
        validate = SmoothBoundary.validate
        monkeypatch.setattr(SmoothBoundary, "validate",
                            lambda self: validated.append(validate(self)))
        e = SmoothBoundary.ellipse((0.5, -1.0), 1.5, 0.25)
        assert validated == []
        assert e == SmoothBoundary((0.5, -1.0), cos_x=(1.5,), sin_y=(0.25,))
        assert hash(e) == hash(SmoothBoundary((0.5, -1.0), cos_x=(1.5,), sin_y=(0.25,)))
        # the aspect bound is the regularity bound validate() applies
        for flat in ({"cos_x": (1.0,), "sin_y": (1e-9,)}, {"cos_x": (1e-9,), "sin_y": (1.0,)}):
            with pytest.raises(InvalidGeometryError):
                SmoothBoundary((0.0, 0.0), **flat)
            with pytest.raises(InvalidGeometryError):
                SmoothBoundary.ellipse((0.0, 0.0), flat["cos_x"][0], flat["sin_y"][0])

    @pytest.mark.parametrize("curve", [
        SmoothBoundary.ellipse((0.0, 0.0), 1.0, 0.8),
        SmoothBoundary((0.0, 0.0), cos_x=(1.2, 0.0, 0.2), sin_y=(0.8, 0.0, 0.2)),
    ], ids=["ellipse", "peanut"])
    def test_inside_test_is_exact(self, curve):
        # points pushed along the normal by a depth far below any sampling
        # of the curve, inward and outward, on convex and concave arcs; the
        # signed distance is the depth, so ``pad`` moves the verdict there
        t = np.linspace(0.0, 2 * np.pi, 2000, endpoint=False)
        d = curve.deriv(t)
        n_out = np.stack([d[:, 1], -d[:, 0]], axis=-1) / np.hypot(d[:, 0], d[:, 1])[:, None]
        for depth in 10.0 ** np.arange(-10, 0):
            inner = curve.point(t) - depth * n_out
            outer = curve.point(t) + depth * n_out
            assert np.all(curve.contains(inner))
            assert not np.any(curve.contains(outer))
            assert np.all(curve.contains(outer, pad=1.001 * depth))
            assert not np.any(curve.contains(outer, pad=0.999 * depth))
            assert np.all(curve.contains(inner, pad=-0.999 * depth))
            assert not np.any(curve.contains(inner, pad=-1.001 * depth))

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)], ids=["scalar", "1-D", "2-D"])
    def test_series_matches_per_mode_sum(self, shape):
        # a random degree-5 curve, an ellipse perturbed in every mode,
        # against the series summed mode by mode for each derivative order
        rng = np.random.default_rng(5)
        coeffs = [0.02 * rng.standard_normal(5) for _ in range(4)]
        coeffs[0][0] += 1.0
        coeffs[3][0] += 0.8
        curve = SmoothBoundary((0.3, -0.7), *coeffs)
        t = rng.uniform(-7.0, 7.0, shape)
        k = np.arange(1, 6)
        ckt, skt = np.cos(k * t[..., None]), np.sin(k * t[..., None])
        cx, sx, cy, sy = coeffs
        naive = {
            "point": (curve.center[0] + ckt @ cx + skt @ sx,
                      curve.center[1] + ckt @ cy + skt @ sy),
            "deriv": (skt @ (-k * cx) + ckt @ (k * sx), skt @ (-k * cy) + ckt @ (k * sy)),
            "second": (-(ckt @ (k * k * cx) + skt @ (k * k * sx)),
                       -(ckt @ (k * k * cy) + skt @ (k * k * sy))),
        }
        for name, (x, y) in naive.items():
            got = getattr(curve, name)(t)
            assert got.shape == shape + (2,)
            want = np.stack([x, y], axis=-1)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_ellipse_series_is_bit_identical(self):
        # degree 1 keeps the per-mode loop's arithmetic exactly: the loop
        # below is the earlier implementation of SmoothBoundary._series
        def per_mode(s, t, mode):
            x, y = np.zeros_like(t), np.zeros_like(t)
            for k in range(1, s.degree + 1):
                kk = float(k)
                cxk, sxk, cyk, syk = (c[k - 1] if k <= len(c) else 0.0
                                      for c in (s.cos_x, s.sin_x, s.cos_y, s.sin_y))
                ckt, skt = np.cos(kk * t), np.sin(kk * t)
                if mode == 0:
                    bx, by = cxk * ckt + sxk * skt, cyk * ckt + syk * skt
                elif mode == 1:
                    bx, by = kk * (-cxk * skt + sxk * ckt), kk * (-cyk * skt + syk * ckt)
                else:
                    bx, by = (-kk * kk * (cxk * ckt + sxk * skt),
                              -kk * kk * (cyk * ckt + syk * skt))
                x, y = x + bx, y + by
            if mode == 0:
                x, y = x + s.center[0], y + s.center[1]
            return np.stack([x, y], axis=-1)

        t = np.random.default_rng(1).uniform(-10.0, 10.0, 1000)
        base = SmoothBoundary.ellipse((0.3, -0.2), 1.1, 0.9)
        for curve in (base, base.scaled(0.05), base.mirrored_x().translated((-1.0, 0.5))):
            for mode, name in enumerate(("point", "deriv", "second")):
                assert np.array_equal(getattr(curve, name)(t), per_mode(curve, t, mode))
            # the gap search and the mesh take all three from one table
            for mode, got in enumerate(curve.jet(t)):
                assert np.array_equal(got, per_mode(curve, t, mode))

    def test_peanut_is_valid_but_not_convex(self):
        p = peanut()
        assert p.curvature(0.0) < 0
        with pytest.raises(InvalidGeometryError):
            p.require_convex_arc(0.0, 0.3)


class TestSerialization:
    def test_round_trip_case_b(self):
        cfg = build_case_b(1, 0.05, 1, 1e-3, 2e-3)
        text = emit_configuration(cfg)
        cfg2 = parse_configuration(text)
        assert emit_configuration(cfg2) == text
        assert cfg2.bodies == cfg.bodies
        assert cfg2.groups == cfg.groups

    def test_round_trip_free_form(self):
        cfg = Configuration(
            (Body.from_smooth(SmoothBoundary.ellipse((-2.5, 0.1), 1.0, 0.7)),
             Body.lens(Disk((0.1, 0.0), 0.2), Disk((0.5, 0.0), 0.6))),
            ((0,), (1,)), HarmonicBackground((0j, 1 + 0j, 0.25j)))
        text = emit_configuration(cfg)
        cfg2 = parse_configuration(text)
        assert emit_configuration(cfg2) == text

    def test_round_trip_pair(self):
        cfg = build_two_disks(1, 0.5, 1e-3)
        assert parse_configuration(emit_configuration(cfg)) == cfg

    def test_tag_outside_the_table_is_free(self):
        text = emit_configuration(build_case_b(1, 0.05, 1, 1e-3, 1e-3))
        assert parse_configuration(text).case_tag == "B"
        assert parse_configuration(text.replace("case = B", "case = BC")).case_tag == "free"
        with pytest.raises(InvalidParameterError, match="no canonical case 'E'"):
            parse_run("[scene]\ncase = E\n\n[case]\nr1 = 1.0\n")

    def test_parse_error_carries_position(self):
        with pytest.raises(ConfigParseError) as err:
            parse_run("[scene]\nnonsense without equals\n")
        assert "line 2" in str(err.value)

    def test_case_section(self):
        run = parse_run("""
[scene]
case = B

[case]
r1 = 1.0
r2 = 0.05
r3 = 1.0
eps1 = 0.001
eps2 = 0.001
""")
        assert run.cfg.case_tag == "B"
        assert run.cfg.conductor_gap(1, 2).distance == pytest.approx(1e-3, rel=1e-12)


class TestHarmonicBackground:
    def test_linear(self):
        H = HarmonicBackground.linear_x()
        assert H((3.0, 4.0)) == pytest.approx(3.0)
        assert np.allclose(H.gradient((3.0, 4.0)), (1.0, 0.0))

    def test_quadratic_harmonicity(self):
        # H = Re(z^2) = x^2 - y^2 has an explicit gradient
        H = HarmonicBackground((0j, 0j, 1 + 0j))
        assert H((2.0, 1.0)) == pytest.approx(3.0)
        assert np.allclose(H.gradient((2.0, 1.0)), (4.0, -2.0))

    def test_shifted_matches(self):
        H = HarmonicBackground((0.3 + 0.1j, 1 + 0.5j, -0.2j, 0.05 + 0j))
        v = np.array([0.4, -1.2])
        Hs = H.shifted(v)
        pts = np.random.default_rng(3).normal(size=(50, 2))
        assert np.allclose(Hs(pts), H(pts + v), atol=1e-12)
