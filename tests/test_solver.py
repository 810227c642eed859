import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

import neckfield
from neckfield import (Body, Configuration, Disk, DomainError, FieldSolution,
                       GapInfo, HarmonicBackground, MeshControls,
                       RefinementFailureError, SceneOperator, SmoothBoundary,
                       SweepSpec, build_case_a, build_case_b, build_case_c,
                       body_gap, build_case_d, build_two_disks, decompose_u, images,
                       max_gap_gradient, representation_coeffs, run_sweep,
                       solve_h, solve_hc, solve_u)
from neckfield.errors import InvalidUsageError, NumericFailureError
from neckfield.solver import mesh as mesh_module
from neckfield.solver import nystrom
from neckfield.solver.mesh import _clustered_mass, build_mesh
from neckfield.solver.nystrom import _dirichlet_rows, kussmaul_row


def single_disk(radius=1.0):
    return Configuration((Body.from_disk(Disk((0, 0), radius)),), ((0,),),
                         HarmonicBackground.linear_x())


class TestQuadratureCore:
    def test_log_rule_eigenvalues(self):
        # on a circle of radius a the single layer maps cos(mt) to
        # -a cos(mt)/(2m) and constants to a log(a)
        for a in (1.0, 2.0):
            op = SceneOperator(single_disk(a), MeshControls(base_n=64))
            A = op._slp
            t = op.mesh.curves[0].t
            for m in (1, 3, 7):
                g = np.cos(m * t) * a
                err = np.max(np.abs(A @ g + a * np.cos(m * t) / (2 * m)))
                assert err < 1e-13
            assert np.max(np.abs(A @ (np.ones_like(t) * a) - a * np.log(a))) < 1e-13

    def test_log_rule_needs_even_count(self):
        with pytest.raises(Exception):
            kussmaul_row(33)

    def test_dirichlet_rows_reproduce_trig_polynomials(self):
        # on the midpoint grid the Nyquist mode samples as sin(N t/2),
        # which the evenly split interpolant reproduces between the nodes
        n = 384
        rng = np.random.default_rng(17)
        a, b = rng.standard_normal((2, n // 2))
        k = np.arange(n // 2)

        def poly(t):
            return (np.cos(np.outer(t, k)) @ a + np.sin(np.outer(t, k)) @ b
                    + 0.7 * np.sin(n * t / 2))

        t = (np.arange(n) + 0.5) * 2 * np.pi / n
        s = np.concatenate([t, np.random.default_rng(3).uniform(0, 2 * np.pi, 500)])
        exact = poly(s)
        assert np.max(np.abs(_dirichlet_rows(t, s) @ poly(t) - exact)) \
            < 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("factor", [4, 64])
    def test_resample_and_adjoint_match_dirichlet_rows(self, factor):
        # the closed-form rows on a fine midpoint grid, and their transpose,
        # against zero-padded FFT resampling and its adjoint. Random samples
        # are not band-limited: the Nyquist mode carries as much as any
        # other, so its even split is exercised. The closed-form rows round
        # to about N * 2.2e-16 (9e-14 here); the bound allows ten times that
        n, m = 384, 384 * factor
        t = (np.arange(n) + 0.5) * 2 * np.pi / n
        s = (np.arange(m) + 0.5) * 2 * np.pi / m
        phase = np.exp(1j * np.pi * np.arange(n // 2 + 1) * (1.0 / m - 1.0 / n))
        P = np.vstack([_dirichlet_rows(t, s[i:i + 4096]) for i in range(0, m, 4096)])
        rng = np.random.default_rng(17)
        v = rng.standard_normal(n)
        w = rng.standard_normal((3, m))

        spec = np.fft.rfft(v) * phase
        spec[-1] *= 0.5
        resampled = np.fft.irfft(spec, m) * (m / n)
        dense = P @ v
        assert np.max(np.abs(resampled - dense)) < 1e-12 * np.max(np.abs(dense))

        # irfft keeps the real part of the Nyquist bin, the split mode's
        # share on the node grid
        spec_t = np.fft.rfft(w, axis=-1)[:, :n // 2 + 1] * np.conj(phase)
        adjoint = np.fft.irfft(spec_t, n, axis=-1)
        dense_t = w @ P
        assert np.max(np.abs(adjoint - dense_t)) < 1e-12 * np.max(np.abs(dense_t))

    def test_spectral_derivative_and_antiderivative(self):
        # a real trigonometric polynomial with a Nyquist mode on the even
        # midpoint grid: the derivative and the zero-mean antiderivative
        # are exact for the modes below Nyquist, which alone they keep
        n = 384
        k = np.arange(1, n // 2)[:, None]
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((2, k.size, 2))
        nyquist = rng.standard_normal(2)
        t = (np.arange(n) + 0.5) * 2 * np.pi / n
        cos, sin = np.cos(np.outer(t, k)), np.sin(np.outer(t, k))
        values = 1.3 + cos @ a + sin @ b + np.outer(np.sin(n * t / 2), nyquist)
        deriv = sin @ (-k * a) + cos @ (k * b)
        anti = sin @ (a / k) - cos @ (b / k)
        for power, exact in ((1, deriv), (-1, anti)):
            got = nystrom._spectral(values, power)
            assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_on_surface_potential_at_nodes(self):
        # at the node parameters the interpolated rule is the node rule
        op = SceneOperator(single_disk(1.5))
        g = np.random.default_rng(5).standard_normal(op.mesh.n_total)
        ref = op._slp @ g
        got = op.on_surface_potential(g, 0, op.mesh.curves[0].t)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestSingleDisk:
    def test_classical_solution(self):
        # u = x (1 - 1/|x|^2) for the unit disk in H = x1; the unit circle
        # sits exactly at logarithmic capacity one, which the bordered
        # system must tolerate
        u = solve_u(single_disk(), MeshControls(base_n=64))
        assert abs(u.constant(0)) < 1e-12
        th = np.linspace(0, 2 * np.pi, 100, endpoint=False)
        pts = np.stack([1.9 * np.cos(th), 2.4 * np.sin(th)], -1)
        exact = pts[:, 0] * (1 - 1 / (pts[:, 0] ** 2 + pts[:, 1] ** 2))
        assert np.max(np.abs(u.potential(pts) - exact)) < 1e-8

    def test_gradient_value(self):
        u = solve_u(single_disk(), MeshControls(base_n=64))
        g = u.gradient(np.array([2.0, 0.0]))
        assert g[0] == pytest.approx(1.25, abs=1e-8)
        assert abs(g[1]) < 1e-10

    def test_flux_vanishes(self):
        u = solve_u(single_disk(), MeshControls(base_n=64))
        assert abs(u.boundary_flux(0)) < 1e-12

    def test_eval_inside_rejected(self):
        u = solve_u(single_disk(), MeshControls(base_n=64))
        with pytest.raises(DomainError):
            u.potential(np.array([[0.2, 0.1]]))


@pytest.fixture(scope="module")
def scene():
    cfg = build_two_disks(1, 1, 1e-3)
    op = SceneOperator(cfg)
    return cfg, op, op.solve_u(), op.solve_h(((0,), (1,)))


class TestTwoDisks:
    def test_oracle_equivalence(self, scene):
        cfg, op, u, h = scene
        f = images.psi_two_disks(*(b.disk for b in cfg.bodies))
        th = np.linspace(0, 2 * np.pi, 100, endpoint=False)
        pts = np.vstack([np.stack([3 * np.cos(th), 3 * np.sin(th)], -1),
                         np.stack([np.zeros(50), np.linspace(2.5e-3, 1.0, 50)], -1)])
        rel = np.max(np.abs(h.potential(pts) - f.potential(pts))) \
            / np.max(np.abs(f.potential(pts)))
        assert rel < 1e-10

    def test_h_constants_match_oracle(self, scene):
        cfg, op, u, h = scene
        f = images.psi_two_disks(*(b.disk for b in cfg.bodies))
        assert h.constant(0) == pytest.approx(f.boundary_value_1, rel=1e-10)
        assert h.constant(1) == pytest.approx(f.boundary_value_2, rel=1e-10)
        assert h.constant(1) - h.constant(0) > 0

    def test_h_unit_fluxes(self, scene):
        cfg, op, u, h = scene
        assert h.boundary_flux(0) == pytest.approx(-1.0, abs=1e-6)
        assert h.boundary_flux(1) == pytest.approx(1.0, abs=1e-6)

    def test_u_difference_exact_identity(self, scene):
        cfg, op, u, h = scene
        exact = images.two_disk_potential_difference(
            *(b.disk for b in cfg.bodies), cfg.background)
        assert u.potential_difference(1, 0) == pytest.approx(exact, rel=1e-9)

    def test_antisymmetric_constants(self, scene):
        cfg, op, u, h = scene
        assert abs(u.constant(0) + u.constant(1)) < 1e-10

    def test_flux_residual_independent_quadrature(self, scene):
        cfg, op, u, h = scene
        dnu = u.normal_derivative_nodes()
        for b in (0, 1):
            idx = u.mesh.body_nodes(b)
            assert abs(np.sum(u.mesh.weights[idx] * dnu[idx])) < 1e-8

    def test_weighted_flux_identity(self, scene):
        # sum of H-weighted fluxes of the unit-flux field equals the
        # potential difference of the conductor problem
        cfg, op, u, h = scene
        total = sum(h.boundary_flux_weighted(b, cfg.background) for b in (0, 1))
        du = u.potential_difference(1, 0)
        assert abs(total - du) / abs(du) < 1e-6

    def test_constant_weight_reduces_to_flux(self, scene):
        cfg, op, u, h = scene
        one = lambda pts: np.ones(pts.shape[0])
        assert h.boundary_flux_weighted(0, one) == pytest.approx(-1.0, abs=1e-6)
        assert u.boundary_flux_weighted(0, one) == pytest.approx(0.0, abs=1e-8)

    def test_boundary_constancy(self, scene):
        cfg, op, u, h = scene
        assert h.boundary_constancy_error() < 1e-8
        assert u.boundary_constancy_error() < 1e-8

    def test_maximum_principle(self, scene):
        cfg, op, u, h = scene
        rng = np.random.default_rng(11)
        pts = rng.uniform(-6, 6, size=(20000, 2))
        keep = cfg.exterior_mask(pts)
        for b in cfg.bodies:
            keep &= ~b.contains(pts, pad=1e-3)
        pts = pts[keep][:10000]
        vals = h.potential(pts)
        k1, k2 = h.constant(0), h.constant(1)
        tol = 1e-10 * (k2 - k1)
        assert np.all(vals >= k1 - tol) and np.all(vals <= k2 + tol)

    def test_far_field_decay(self, scene):
        cfg, op, u, h = scene
        # grad(u - H) decays like 1/|x|^2
        g3 = u.gradient(np.array([1e3, 2e2])) - cfg.background.gradient(np.array([1e3, 2e2]))
        g4 = u.gradient(np.array([1e4, 2e3])) - cfg.background.gradient(np.array([1e4, 2e3]))
        assert np.hypot(*g3) < 1e-4
        assert np.hypot(*g4) / np.hypot(*g3) == pytest.approx(1e-2, rel=0.2)

    def test_neck_gradient_profile(self, scene):
        cfg, op, u, h = scene
        info = cfg.conductor_gap(0, 1)
        mg = max_gap_gradient(u, info)
        # difference-quotient consistency (mean value theorem)
        du = u.potential_difference(1, 0)
        assert 0.8 <= mg.max_magnitude * info.distance / du <= 1.25
        # symmetric profile: midpoint gradient parallel to the axis, and
        # mirrored sample points agree
        gm = u.gradient(info.midpoint)
        assert abs(gm[1]) <= 1e-8 * np.hypot(*gm)
        s = np.linspace(0.15, 0.85, 15)
        pts = info.segment[0][None, :] + s[:, None] * (info.segment[1] - info.segment[0])
        mags = np.hypot(*u.gradient(pts).T)
        assert np.allclose(mags, mags[::-1], rtol=1e-6)

    def test_self_convergence(self):
        cfg = build_two_disks(1, 1, 1e-3)
        du = []
        for base in (192, 384):
            u = solve_u(cfg, MeshControls(base_n=base))
            du.append(u.potential_difference(1, 0))
        assert abs(du[1] - du[0]) / abs(du[1]) < 1e-7


class TestPartitionsAndGroups:
    def test_h_partition_validation(self):
        cfg = build_case_b(1, 0.05, 1, 1e-3, 1e-3)
        op = SceneOperator(cfg)
        with pytest.raises(InvalidUsageError):
            op.solve_h(((0,), (1,)))
        with pytest.raises(InvalidUsageError):
            op.solve_h(((0,), (1,), (2,)))

    def test_grouped_fluxes(self):
        cfg = build_case_b(1, 0.05, 1, 1e-3, 1e-3)
        op = SceneOperator(cfg)
        h1 = op.solve_h(((0,), (1, 2)))
        assert h1.group_flux(0) == pytest.approx(-1.0, abs=1e-8)
        assert h1.group_flux(1) == pytest.approx(1.0, abs=1e-8)
        # flux splits between the two right-hand bodies
        assert 0 < h1.boundary_flux(2) < 1

    def test_green_identity_pair(self):
        # int a dnu_b = int b dnu_a for two unit-flux fields on the same
        # geometry (both sides via constants times body fluxes)
        cfg = build_case_b(1, 0.05, 1, 1e-3, 1e-3)
        op = SceneOperator(cfg)
        a = op.solve_h(((0,), (1, 2)))
        b = op.solve_h(((0, 1), (2,)))

        def paired(f, g):
            total = 0.0
            for body in range(3):
                const = f.constants[[gi for gi, mem in enumerate(f.groups)
                                     if body in mem][0]]
                total += const * g.boundary_flux(body)
            return total

        lhs = paired(a, b)
        rhs = paired(b, a)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-3)


class TestHc:
    def test_constant_background(self):
        cfg = build_two_disks(1, 1, 1e-2,
                              background=HarmonicBackground.constant(2.5))
        hc = solve_hc(cfg, MeshControls(base_n=96))
        assert hc.constant(0) == pytest.approx(2.5, abs=1e-10)
        pts = np.array([[3.0, 1.0], [0.0, 2.0]])
        assert np.allclose(hc.potential(pts), 2.5, atol=1e-10)

    def test_mirror_symmetric_constant_vanishes(self):
        cfg = build_case_b(1, 0.05, 1, 1e-3, 1e-3)
        centered = cfg.translated(-np.array(cfg.bodies[1].disk.center))
        centered = Configuration(centered.bodies, centered.groups,
                                 HarmonicBackground.linear_x(), "B")
        hc = solve_hc(centered)
        assert abs(hc.constant(0)) < 1e-10

    def test_constant_within_background_range(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            disks = []
            while len(disks) < 3:
                c = rng.uniform(-2, 2, size=2)
                r = rng.uniform(0.2, 0.6)
                if all(np.hypot(*(c - d.c)) > r + d.radius + 0.05 for d in disks):
                    disks.append(Disk(tuple(c), r))
            coeffs = tuple(complex(a, b) for a, b in rng.normal(size=(3, 2)))
            H = HarmonicBackground(coeffs)
            cfg = Configuration(tuple(Body.from_disk(d) for d in disks),
                                tuple((i,) for i in range(3)), H)
            hc = solve_hc(cfg, MeshControls(base_n=96))
            assert abs(hc.constant(0)) <= H.sup_on_disks(disks) + 1e-9


class TestMeshInvariants:
    def test_nodes_on_boundary(self):
        cfg = build_case_a(1, 0.05, 1, 0.05, 1e-3)
        mesh = build_mesh(cfg)
        cm = mesh.curves[0]
        d1 = cfg.bodies[0].disk
        r = np.hypot(cm.nodes[:, 0] - d1.center[0], cm.nodes[:, 1] - d1.center[1])
        assert np.max(np.abs(r - d1.radius)) < 1e-12
        lens = cfg.bodies[1]
        cm2 = mesh.curves[1]
        r2 = np.hypot(cm2.nodes[:, 0] - lens.lens_disks[0].center[0],
                      cm2.nodes[:, 1] - lens.lens_disks[0].center[1])
        r3 = np.hypot(cm2.nodes[:, 0] - lens.lens_disks[1].center[0],
                      cm2.nodes[:, 1] - lens.lens_disks[1].center[1])
        on_either = np.minimum(np.abs(r2 - lens.lens_disks[0].radius),
                               np.abs(r3 - lens.lens_disks[1].radius))
        assert np.max(on_either) < 1e-12

    def test_positive_weights_and_gap_panels(self):
        eps = 1e-4
        cfg = build_two_disks(1, 1, eps)
        mesh = build_mesh(cfg)
        for cm in mesh.curves:
            assert np.all(cm.weights > 0)
            for f in cm.features:
                if f.kind != "gap":
                    continue
                d = cm.arc_distance_to(f)
                near = d <= f.gap
                assert np.max(cm.weights[near]) <= f.gap / 4

    def test_corner_grading(self):
        cfg = build_case_a(1, 0.05, 1, 0.05, 1e-3)
        mesh = build_mesh(cfg)
        cm = mesh.curves[1]
        corners = [f for f in cm.features if f.kind == "corner"]
        assert len(corners) == 2
        for f in corners:
            d = cm.arc_distance_to(f)
            inner = (d <= cm.perimeter / 8) & (d > 0)
            bound = np.maximum(2.0 * f.growth * d[inner], 8.0 * f.floor_arc)
            assert np.all(cm.weights[inner] <= bound)
            j = cm.feature_node_index(f)
            assert np.min(cm.weights[[j - 1, j, (j + 1) % cm.n]]) <= 4 * f.floor_arc

    def test_corner_floor_keeps_lens_flux_exact(self):
        # the chain map's speed at a lens corner is about the corner floor,
        # and the normal jumps there; with a floor of 2^-20 of the arc the
        # lens's flux quadrature was 2.7e-10
        u = solve_u(build_case_a(1, 0.05, 1, 0.05, 1e-2))
        assert np.max(np.abs(u.flux_quadrature())) <= 1e-12

    def test_refinement_failure_at_cap(self):
        with pytest.raises(RefinementFailureError):
            build_mesh(build_two_disks(1, 1, 1e-6), MeshControls(cap_total=128))

    @pytest.mark.parametrize("eps", [1e-12, 1.2e-12])
    def test_gap_below_chain_map_floor_raises_at_once(self, eps):
        # with b clamped the floor panel no longer shrinks as n doubles;
        # two unit disks need b = eps/4
        with pytest.raises(RefinementFailureError, match="chain-map floor") as err:
            build_mesh(build_two_disks(1, 1, eps))
        assert err.value.diagnostics["gap"] == pytest.approx(eps, rel=1e-3)
        assert err.value.diagnostics["b"] == 1e-12

    def test_clamped_gap_above_the_floor_meshes(self):
        mesh = build_mesh(build_two_disks(1, 1, 2e-7))
        assert [c.n for c in mesh.curves] == [384, 384]

    def test_near_boundary_evaluation(self):
        cfg = build_two_disks(1, 1, 1e-3)
        h = solve_h(cfg, ((0,), (1,)))
        f = images.psi_two_disks(*(b.disk for b in cfg.bodies))
        cm = h.mesh.curves[0]
        ts = np.linspace(0.3, 6.0, 25)
        pts, vel, sp = cm.frame_at(ts)
        n_out = np.stack([vel[:, 1], -vel[:, 0]], -1) / sp[:, None]
        for dist in (1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2):
            q = pts + dist * n_out
            keep = np.ones(len(q), dtype=bool)
            for b in cfg.bodies:
                keep &= ~b.contains(q)
            err = np.max(np.abs(h.potential(q[keep]) - f.potential(q[keep])))
            assert err < 1e-8
            exact = f.gradient(q[keep])
            err = np.max(np.hypot(*(h.gradient(q[keep]) - exact).T))
            assert err < 1e-8 * np.max(np.hypot(*exact.T))


class TestCloseEvaluation:
    """The compensated Cauchy sums at any distance from the curves."""

    @pytest.mark.parametrize("eps", [1e-6, 1e-7, 1e-8])
    def test_two_disk_oracle_below_the_old_floor(self, eps):
        cfg = build_two_disks(1, 1, eps)
        h = solve_h(cfg, ((0,), (1,)))
        f = images.psi_two_disks(*(b.disk for b in cfg.bodies))
        # criterion 1's probes
        th = np.linspace(0, 2 * np.pi, 120, endpoint=False)
        pts = np.vstack([np.stack([3 * np.cos(th), 3 * np.sin(th)], -1),
                         np.stack([np.zeros(80), np.linspace(2.5 * eps, 1.5, 80)], -1)])
        exact = f.potential(pts)
        assert np.max(np.abs(h.potential(pts) - exact)) <= 1e-7 * np.max(np.abs(exact))
        # along the normals of the 20 nodes nearest the gap, 1e-3 eps to
        # 0.4 eps off the disks
        mesh = h.mesh
        near = np.argsort(np.hypot(*(mesh.nodes - cfg.conductor_gap(0, 1).midpoint).T))[:20]
        dist = np.geomspace(1e-3 * eps, 0.4 * eps, 7)
        pts = (mesh.nodes[near][:, None, :]
               + dist[None, :, None] * mesh.normals[near][:, None, :]).reshape(-1, 2)
        exact = f.potential(pts)
        assert np.max(np.abs(h.potential(pts) - exact)) <= 1e-6 * np.max(np.abs(exact))
        exact = f.gradient(pts)
        assert np.max(np.hypot(*(h.gradient(pts) - exact).T)) \
            <= 1e-6 * np.max(np.hypot(*exact.T))

    @pytest.mark.parametrize("r2,eps,tol", [(1.0, 1e-2, 1e-11), (1.0, 1e-3, 1e-11),
                                            (1.0, 1e-6, 1e-8), (0.3, 1e-2, 1e-11),
                                            (0.3, 1e-3, 1e-11), (0.3, 1e-6, 1e-8)])
    def test_normal_derivative_at_every_node(self, r2, eps, tol):
        cfg = build_two_disks(1, r2, eps)
        h = solve_h(cfg, ((0,), (1,)))
        f = images.psi_two_disks(*(b.disk for b in cfg.bodies))
        mesh = h.mesh
        exact = -np.einsum("ij,ij->i", mesh.normals, f.gradient(mesh.nodes))
        err = np.max(np.abs(h.normal_derivative_nodes() - exact))
        assert err <= tol * np.max(np.abs(exact))

    def test_peanut_next_to_a_disk(self):
        # the log center must lie well inside the body: here a center 0.1
        # from the lobe's tip leaves 5e-6 in the potential below, and one
        # just outside the waist 6e-5 in the gradient
        pea = SmoothBoundary((0.0, 0.0), cos_x=(1.2, 0.0, 0.2), sin_y=(0.8, 0.0, 0.2))
        t0 = np.array([0.6])
        d = pea.deriv(t0)[0]
        nrm = np.array([d[1], -d[0]]) / np.hypot(*d)
        disk = Disk(tuple(pea.point(t0)[0] + 0.51 * nrm), 0.5)
        cfg = Configuration((Body.from_smooth(pea), Body.from_disk(disk)), ((0,), (1,)),
                            HarmonicBackground.linear_x())
        u, u_fine = (solve_u(cfg, MeshControls(base_n=base)) for base in (192, 384))
        cm = u.mesh.curves[0]
        pts, vel, sp = cm.frame_at(np.linspace(0.05, 2 * np.pi, 40, endpoint=False))
        n_out = np.stack([vel[:, 1], -vel[:, 0]], -1) / sp[:, None]
        q = pts + 1e-6 * n_out
        grad = u.gradient(q)
        fine = u_fine.gradient(q)
        assert np.max(np.hypot(*(grad - fine).T)) <= 1e-8 * np.max(np.hypot(*fine.T))
        # the potential continues the conductor's constant: F must vanish
        # at infinity for the exterior sum, or this misses by 0.38
        taylor = u.constant(0) + 1e-6 * np.einsum("ij,ij->i", grad, n_out)
        assert np.max(np.abs(u.potential(q) - taylor)) <= 1e-9

    @pytest.mark.parametrize("build", [
        lambda: build_case_b(1.0, 0.05, 1.0, 1e-5, 1e-3),
        lambda: build_case_d(SmoothBoundary.ellipse((0.0, 0.0), 1.0, 0.8),
                             SmoothBoundary.ellipse((0.0, 0.0), 1.0, 1.0),
                             SmoothBoundary.ellipse((0.0, 0.0), 1.1, 0.9), 0.05, 1e-4, 1e-4)],
        ids=["B", "D"])
    def test_cross_blocks_match_the_layer_of_a_density(self, build):
        # assembly takes each cross block as one real product with F's
        # stack; the layer of a given density sums F g in complex numbers
        op = SceneOperator(build())
        u = op.solve_u()
        z = op.mesh.nodes[:, 0] + 1j * op.mesh.nodes[:, 1]
        for ci in range(len(op.mesh.curves)):
            own = op.mesh.curve_slice(ci)
            others = op.mesh.body_of_node != ci
            block = op._slp[others, own] @ u.g[own]
            layer = op._layer(ci, z[others], u.g[own])
            assert np.max(np.abs(block - layer)) <= 1e-12 * np.max(np.abs(layer))


class TestChainMap:
    @pytest.mark.parametrize("b", [0.5, 1e-2, 1e-4, 1e-7, 1e-8, 1e-12])
    def test_mass_matches_quadrature(self, b):
        def integrand(s):
            # v = 2 b sinh(s) spreads the peak of width b at v = 0
            v = 2 * b * np.sinh(s)
            return 2 * b * np.cosh(s) / np.sqrt(np.sin(v / 2) ** 2 + b * b)

        for x in (1e-6, 1e-3, 0.5, 3.0, 4.5, -5.9):
            ref = np.sign(x) * quad(integrand, 0.0, np.arcsinh(abs(x) / (2 * b)),
                                    epsabs=0.0, epsrel=1e-13, limit=200)[0]
            assert _clustered_mass(x, b) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_one_mass_table_per_chain_map(self, monkeypatch):
        calls = {"maps": 0, "mass": 0}
        init, mass = mesh_module._ChainMap.__init__, mesh_module._ChainMap.mass

        def counted_init(self, *args, **kwargs):
            calls["maps"] += 1
            init(self, *args, **kwargs)

        def counted_mass(self, v):
            calls["mass"] += 1
            return mass(self, v)

        monkeypatch.setattr(mesh_module._ChainMap, "__init__", counted_init)
        monkeypatch.setattr(mesh_module._ChainMap, "mass", counted_mass)
        ell = SmoothBoundary.ellipse
        build_mesh(build_case_d(ell((0.0, 0.0), 1.0, 0.8), ell((0.0, 0.0), 1.0, 1.0),
                                ell((0.0, 0.0), 1.1, 0.9), 0.05, 1e-3, 1e-3))
        assert calls["maps"] >= 3
        assert calls["mass"] <= 6 * calls["maps"]


class TestGapMaximum:
    """The maximum over the closed neck segment, with the ends on the
    bodies taken from the on-surface normal derivative."""

    def test_case_c_scene_matches_independent_measures(self):
        # criterion 5's case-C scene at eps = 10^-2.5; the profile search
        # runs up to the lens, where the upsampled near field once
        # returned a quadrature spike (367.3 against 85.76)
        cfg = build_case_c(SmoothBoundary.ellipse((0.0, 0.0), 1.2, 0.9),
                           Disk((0.0, 0.0), 1.0), Disk((1.0, 0.0), 1.0),
                           0.05, 10 ** -2.5)
        u = SceneOperator(cfg).solve_u()
        info = cfg.conductor_gap(0, 1)
        a, b = info.segment
        dnu = u.normal_derivative_nodes()
        feet = [abs(dnu[np.argmin(np.hypot(*(u.mesh.nodes - p).T))]) for p in (a, b)]
        s = np.linspace(0.005, 0.995, 400)
        profile = np.hypot(*u.gradient(a + s[:, None] * (b - a), check_domain=False).T)
        expected = max(max(feet), float(np.max(profile)))
        assert max_gap_gradient(u, info).max_magnitude == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_two_disk_oracle_over_closed_segment(self, eps):
        cfg = build_two_disks(1, 1, eps)
        h = solve_h(cfg, ((0,), (1,)))
        f = images.psi_two_disks(*(b.disk for b in cfg.bodies))
        a, b = cfg.conductor_gap(0, 1).segment
        s = np.linspace(0.0, 1.0, 4001)
        exact = np.max(np.hypot(*f.gradient(a + s[:, None] * (b - a)).T))
        found = max_gap_gradient(h, cfg.conductor_gap(0, 1))
        assert found.max_magnitude == pytest.approx(exact, rel=1e-6)
        # the field is largest on the disks: the winner is a foot point
        assert any(np.allclose(found.argmax, p, rtol=0, atol=1e-15) for p in (a, b))
        # a segment whose ends lie in the exterior is searched up to them
        p, q = a + 0.1 * (b - a), b - 0.1 * (b - a)
        inner = max_gap_gradient(h, GapInfo(float(np.hypot(*(q - p))), tuple(p), tuple(q)))
        exact_inner = np.max(np.hypot(*f.gradient(p + s[:, None] * (q - p)).T))
        assert inner.max_magnitude == pytest.approx(exact_inner, rel=1e-6)


    @pytest.mark.filterwarnings("ignore::neckfield.ScaleRegimeWarning")
    def test_case_b_with_a_large_middle_disk(self):
        # the paper's singular function predicts 2098.3 here; the
        # upsampled near field reported 2101.5, and 2141.5 before the
        # exact chain map
        cfg = build_case_b(1.0, 0.3, 0.5, 1e-6, 2e-2)
        u = solve_u(cfg)
        found = max_gap_gradient(u, cfg.conductor_gap(0, 1)).max_magnitude
        assert found == pytest.approx(2098.305, rel=1e-6)

    def test_segment_through_a_conductor_raises(self):
        # case B's outer pair (0, 2) is joined through the middle disk. A
        # feet-less segment must end in the exterior, and feet must lie at
        # the segment ends: body_gap names bodies 1 and 2 as 0 and 1
        cfg = build_case_b(1, 0.05, 1, 1e-3, 1e-3)
        u = solve_u(cfg)
        with pytest.raises(DomainError, match="passes through body 1"):
            max_gap_gradient(u, cfg.conductor_gap(0, 2))
        info = cfg.conductor_gap(0, 1)
        with pytest.raises(DomainError, match="passes through body 0"):
            max_gap_gradient(u, GapInfo(info.distance, info.point_i, info.point_j))
        with pytest.raises(InvalidUsageError, match="gap foot on body 0"):
            max_gap_gradient(u, body_gap(cfg.bodies[1], cfg.bodies[2]))

    def test_foot_values_need_only_their_curves_rows(self, monkeypatch):
        # each foot's value is its own curve's normal derivative,
        # interpolated speed-weighted to the foot's mesh parameter
        cfg = build_case_c(SmoothBoundary.ellipse((0.0, 0.0), 1.2, 0.9),
                           Disk((0.0, 0.0), 1.0), Disk((1.0, 0.0), 1.0), 0.05, 1e-6)
        u = SceneOperator(cfg).solve_u()
        info = cfg.conductor_gap(0, 1)
        a, b = info.segment
        seg_len = float(np.hypot(*(b - a)))

        def all_nodes_refused(self):
            raise AssertionError("normal_derivative_nodes called")

        with monkeypatch.context() as m:
            m.setattr(FieldSolution, "normal_derivative_nodes", all_nodes_refused)
            max_gap_gradient(u, info)
            values = [nystrom._foot_gradient(u, foot, p, seg_len)
                      for foot, p in zip(info.feet, (a, b))]
        dnu = u.normal_derivative_nodes()
        for foot, value in zip(info.feet, values):
            cm = u.mesh.curves[foot.body]
            t = _foot_t(cm, foot)
            _, _, speed = cm.frame_at(t)
            weighted = _dirichlet_rows(cm.t, np.array([t]))[0] \
                @ (dnu[u.mesh.curve_slice(foot.body)] * cm.speed)
            assert value == pytest.approx(abs(weighted) / speed[0], rel=1e-13)

    def test_gap_ends_read_their_own_curve_once(self, monkeypatch):
        # each gap end reads the normal derivative of its own curve alone
        # and takes one chain-map frame there
        cfg = build_case_b(1, 0.05, 1, 1e-4, 1e-3)
        u = solve_u(cfg)
        curves, frames = [], []
        normal_derivative = FieldSolution._normal_derivative
        frame_at = mesh_module.CurveMesh.frame_at
        monkeypatch.setattr(FieldSolution, "_normal_derivative",
                            lambda sol, ci: curves.append(ci) or normal_derivative(sol, ci))
        monkeypatch.setattr(mesh_module.CurveMesh, "frame_at",
                            lambda cm, t: frames.append(cm.body_index) or frame_at(cm, t))
        for i, j in ((0, 1), (1, 2)):
            curves.clear()
            frames.clear()
            max_gap_gradient(u, cfg.conductor_gap(i, j))
            assert curves == [i, j] and frames == [i, j]

    @pytest.mark.parametrize("scene", ["pair", "A", "B", "C", "D"])
    def test_forward_map_puts_each_foot_at_its_gap_end(self, scene):
        ell = SmoothBoundary.ellipse
        cfg = {
            "pair": lambda: build_two_disks(1, 1, 1e-6),
            "A": lambda: build_case_a(1, 0.05, 1, 0.05, 1e-3),
            "B": lambda: build_case_b(1, 0.05, 1, 1e-4, 1e-3),
            "C": lambda: build_case_c(ell((0.0, 0.0), 1.2, 0.9), Disk((0.0, 0.0), 1.0),
                                      Disk((1.0, 0.0), 1.0), 0.05, 1e-6),
            "D": lambda: build_case_d(ell((0.0, 0.0), 1.0, 0.8), ell((0.0, 0.0), 1.0, 1.0),
                                      ell((0.0, 0.0), 1.1, 0.9), 0.05, 1e-3, 1e-3),
        }[scene]()
        mesh = build_mesh(cfg)
        for info in cfg.all_conductor_gaps().values():
            for foot, p in zip(info.feet, info.segment):
                cm = mesh.curves[foot.body]
                q = cm.point_at(_foot_t(cm, foot))[0]
                assert np.hypot(*(q - p)) <= 16 * np.finfo(float).eps * cm.perimeter


def _foot_t(cm, foot) -> float:
    """Mesh parameter of a gap foot by the chain map's forward map."""
    chain = cm.chain
    return float(chain.t_of_v(chain.v_edges[foot.chart]
                              + (foot.u - chain.charts[foot.chart].u0)))


@pytest.fixture
def lu_calls(monkeypatch):
    """Counts the LU factorizations made while a test runs."""
    calls = []
    original = scipy.linalg.lu_factor

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
    return calls


class TestOneFactorization:
    """Every field on one mesh is solved against the operator's one LU
    factor, followed by a step of iterative refinement."""

    def test_u_h_and_hc_share_one_factor(self, lu_calls):
        op = SceneOperator(build_two_disks(1, 1, 1e-2))
        op.solve_h(((0,), (1,)))
        op.solve_u()
        op.solve_hc()
        assert len(lu_calls) == 1

    def test_decomposition_and_representation(self, lu_calls):
        cfg = build_case_b(1, 0.05, 1, 1e-3, 1e-3)
        op = SceneOperator(cfg)
        u = op.solve_u()
        representation_coeffs(cfg, op=op)
        assert len(lu_calls) == 1
        # the three Dirichlet fields inside the enclosing disk: one more
        # mesh, one more factor
        decompose_u(cfg, Disk((0.5, 0.0), 8.0), u=u)
        assert len(lu_calls) == 2

    def test_sweep_row_decomposes_once(self, lu_calls):
        # the three decomposition quantities share one decomposition: the
        # scene's factor plus the enclosing-disk mesh's
        spec = SweepSpec(case_tag="B", vary="eps1", grid=(1e-3,),
                         fixed={"r1": 1.0, "r2": 0.05, "r3": 1.0, "eps2": 1e-3},
                         quantities=("potential_difference_21", "decomp_c1_abs",
                                     "decomp_c3_abs", "decomp_v0_max_grad"))
        table = run_sweep(spec)
        assert table.errors == [None]
        assert len(lu_calls) == 2

    def test_empty_group_is_a_singular_charge_system(self):
        # a group without nodes has a zero step column, so its charge
        # cannot be pinned
        op = SceneOperator(build_two_disks(1, 1, 1e-2))
        with pytest.raises(NumericFailureError):
            op.solve_u(((0, 1), ()))

    def test_ellipse_gap_keeps_mirror_symmetry(self):
        # case C's ellipse at eps 1e-6 is symmetric about the x-axis, and
        # so are its nodes (node j mirrors node n-1-j); without the
        # refinement step the normal derivative next to the gap breaks
        # the symmetry by 4.6e-5 of its maximum
        cfg = build_case_c(SmoothBoundary.ellipse((0.0, 0.0), 1.2, 0.9),
                           Disk((0.0, 0.0), 1.0), Disk((1.0, 0.0), 1.0),
                           0.05, 1e-6)
        u = SceneOperator(cfg).solve_u()
        nodes = u.mesh.nodes[u.mesh.curve_slice(0)]
        dnu = u.normal_derivative_nodes()[u.mesh.curve_slice(0)]
        assert np.max(np.abs(nodes[::-1] * [1, -1] - nodes)) < 1e-9
        assert np.max(np.abs(dnu - dnu[::-1])) <= 1e-6 * np.max(np.abs(dnu))

    def test_split_field_stays_nonnegative_on_the_middle_body(self):
        # d_nu h1 >= 0 on the middle body of case B (the lemma suite's
        # adjacent-pair domination); rounding made it -7.4e-9 of the
        # pair field's scale at eps 1e-5
        cfg = build_case_b(1.0, 0.05, 1.0, 1e-5, 1e-5)
        op = SceneOperator(cfg)
        h1 = op.solve_h(((0,), (1, 2)))
        cm = op.mesh.curves[1]
        pair = images.psi_two_disks(cfg.bodies[0].disk, cfg.bodies[1].disk)
        scale = np.max(np.abs(np.einsum("ij,ij->i", pair.gradient(cm.nodes),
                                        cm.normal_out)))
        dnu = h1.normal_derivative_nodes()[op.mesh.curve_slice(1)]
        assert np.min(dnu) >= -1e-10 * scale

    def test_same_result_at_any_blas_thread_count(self):
        # without refinement the gap maximum at eps 1e-6 was 2002.2582 on
        # one thread and 2002.0068 on two
        script = ("from neckfield import build_two_disks, max_gap_gradient, solve_u\n"
                  "cfg = build_two_disks(1.0, 1.0, 1e-6)\n"
                  "u = solve_u(cfg)\n"
                  "print(repr(max_gap_gradient(u, cfg.conductor_gap(0, 1)).max_magnitude))\n")
        src = str(Path(neckfield.__file__).resolve().parents[1])
        values = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            values.append(float(out.stdout.strip().splitlines()[-1]))
        assert values[1] == pytest.approx(values[0], rel=1e-9)
