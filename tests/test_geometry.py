import importlib
from dataclasses import replace

import numpy as np
import pytest

from neckfield import (Body, Configuration, Disk, HarmonicBackground,
                       InvalidGeometryError, InvalidParameterError,
                       ScaleRegimeWarning, SmoothBoundary, body_gap,
                       build_case_a, build_case_b, build_case_c, build_case_d,
                       build_two_disks, gap)
from neckfield.geometry.config import build_case
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

    def test_newton_search_is_batched(self, monkeypatch):
        # each Newton iteration evaluates the charts once on all its runs:
        # case D's three pairs at eps 1e-3 take 54 to 76 curve evaluations
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
        # step does not descend: the run is dropped after its full step
        # fails, where 30 halvings of it cost 30 curve evaluations alone
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
        # solve needs few gap searches (17 at eps 1e-3)
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
        assert calls["body_gap"] <= 60
        assert cfg.conductor_gap(0, 1).distance == pytest.approx(eps, rel=1e-12)
        assert cfg.conductor_gap(1, 2).distance == pytest.approx(eps, rel=1e-12)

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
        # probes: a two-sided placement makes the two solves' 7 gap searches
        # each and no more (16 when both gaps were searched again)
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
        assert len(calls) == 14
        for pair in (bodies[:2], bodies[1:]):
            assert body_gap(*pair).distance == pytest.approx(1e-3, rel=1e-12)

    def test_nonconvex_gap_arc_rejected(self):
        with pytest.raises(InvalidGeometryError):
            build_case_d(peanut(), Disk((0.0, 0.0), 1.0),
                         Disk((0.0, 0.0), 1.0), 0.05, 1e-3, 1e-3)

    def test_mirror_is_valid_by_construction(self, monkeypatch):
        # the benchmark's case-D scene: a reflected valid curve, its
        # parameter reversed, is valid and is not validated again
        ell = SmoothBoundary.ellipse
        cfg = build_case_d(ell((0.0, 0.0), 1.0, 0.8), ell((0.0, 0.0), 1.0, 1.0),
                           ell((0.0, 0.0), 1.1, 0.9), 0.05, 1e-3, 1e-3)
        validated = []
        validate = SmoothBoundary.validate
        monkeypatch.setattr(SmoothBoundary, "validate",
                            lambda self, samples=720: validated.append(validate(self, samples)))
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
                            lambda self, samples=720: validated.append(validate(self, samples)))
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
