import importlib

import numpy as np
import pytest

from neckfield import (Body, Configuration, Disk, HarmonicBackground,
                       InvalidGeometryError, InvalidParameterError,
                       ScaleRegimeWarning, SmoothBoundary, body_gap,
                       build_case_a, build_case_b, build_case_c, build_case_d,
                       build_two_disks, gap)
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
            generic = body_gap(a, b, force_generic=True)
            assert generic.distance == pytest.approx(exact.distance, rel=1e-12)

    def test_smooth_pair_gap(self):
        e1 = SmoothBoundary.ellipse((-2.0, 0.0), 1.5, 1.0)
        e2 = SmoothBoundary.ellipse((1.0, 0.0), 1.0, 0.8)
        info = body_gap(Body.from_smooth(e1), Body.from_smooth(e2))
        assert info.distance == pytest.approx(0.5, rel=1e-9)

    def test_axis_aligned_ellipse_is_not_a_circle(self):
        # P'' = -(P - c) holds for (a cos t, b sin t) too; only the generic
        # search gives the true gap from the ellipse's top to the disk
        a = Body.from_smooth(SmoothBoundary.ellipse((0.0, 0.0), 1.0, 0.5))
        b = Body.from_disk(Disk((0.0, 1.0), 0.1))
        assert abs(body_gap(a, b).distance - 0.4) < 1e-12
        assert abs(body_gap(a, b, force_generic=True).distance - 0.4) < 1e-12

    def test_circular_arcs_take_closed_form(self, monkeypatch):
        def no_newton(*args):
            raise AssertionError("circular arcs must not reach the generic search")

        monkeypatch.setattr(gap_module, "_arc_arc_newton", no_newton)
        circle = Body.from_smooth(SmoothBoundary.ellipse((0.0, 0.0), 1.0, 1.0))
        disk = Body.from_disk(Disk((2.5, 0.0), 1.0))
        assert body_gap(circle, disk).distance == pytest.approx(0.5, rel=1e-14)
        # case A with its left disk as a Fourier circle
        lens = build_case_a(1, 0.05, 1, 0.05, 1e-3).bodies[1]
        left = Body.from_smooth(SmoothBoundary.ellipse((-1.0005, 0.0), 1.0, 1.0))
        assert body_gap(left, lens).distance == pytest.approx(1e-3, rel=1e-9)

    @pytest.mark.parametrize("force_generic", [False, True])
    @pytest.mark.parametrize("scene", ["pair", "A", "C", "D", "grouped", "reversed"])
    def test_feet_name_the_points(self, scene, force_generic):
        ell = SmoothBoundary.ellipse
        disk = Body.from_disk
        cfg = {
            "pair": lambda: build_two_disks(1, 1, 1e-3),
            "A": lambda: build_case_a(1, 0.05, 1, 0.05, 1e-3),
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
        for i in range(cfg.n_conductors):
            for j in range(i + 1, cfg.n_conductors):
                info = gap(cfg, i, j, force_generic=force_generic)
                assert len(info.feet) == 2
                for foot, p, group in zip(info.feet, (info.point_i, info.point_j),
                                          (cfg.groups[i], cfg.groups[j])):
                    assert foot.body in group
                    chart = cfg.bodies[foot.body].charts()[foot.chart]
                    assert chart.u0 <= foot.u <= chart.u1
                    q = chart.point(np.array([foot.u]))[0]
                    assert np.hypot(*(q - p)) <= 1e-12 * scale
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
        # the benchmark's case-D scene: each curve is validated once, and
        # the translation solve needs few gap searches
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

    def test_nonconvex_gap_arc_rejected(self):
        with pytest.raises(InvalidGeometryError):
            build_case_d(peanut(), Disk((0.0, 0.0), 1.0),
                         Disk((0.0, 0.0), 1.0), 0.05, 1e-3, 1e-3)


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
