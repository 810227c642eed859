import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

import neckfield
from neckfield import _scipy_ext
from neckfield import (Body, Configuration, Disk, DomainError, FieldSolution,
                       GapInfo, HarmonicBackground, MeshControls,
                       RefinementFailureError, SceneOperator, SmoothBoundary,
                       SweepSpec, build_case_a, build_case_b, build_case_c,
                       body_gap, build_case_d, build_two_disks, images,
                       log_grid, max_gap_gradient, representation_coeffs, run_sweep,
                       solve_h, solve_hc, solve_u)
from neckfield.errors import InvalidUsageError, NumericFailureError
from neckfield.solver import mesh as mesh_module
from neckfield.solver import nystrom
from neckfield.solver.mesh import _clustered_mass, _feature_mass, build_mesh
from neckfield.solver.nystrom import _dirichlet_rows, kussmaul_row


def single_disk(radius=1.0, center=(0, 0)):
    return Configuration((Body.from_disk(Disk(center, radius)),), ((0,),),
                         HarmonicBackground.linear_x())


# Moves a scene off the x-axis, so that it keeps the full system.
OFF_AXIS = (0.0, 0.37)


def kept_rows(op):
    """The nodes whose rows op._slp holds: all, or the upper-half nodes."""
    return np.arange(op.mesh.n_total) if op._fold is None else op._fold.top


_ULP = np.finfo(float).eps


def _reflected(cm) -> bool:
    """Whether the mesh reflected this curve from its partner, the earlier
    curve of a mirror pair across a vertical line."""
    return cm.partner is not None and cm.partner < cm.body_index


def folded(op, block):
    """One curve's own block of the full matrix as op._slp holds it: all
    of it, or on a mirror-symmetric scene its upper-half rows, each column
    plus its mirror's (node N-1-k mirrors node k)."""
    if op._fold is None:
        return block
    top = np.arange(block.shape[0] // 2)
    partner = block.shape[0] - 1 - top
    return block[top][:, top] + block[top][:, partner]


class TestQuadratureCore:
    def test_log_rule_eigenvalues(self):
        # on a circle of radius a the single layer maps cos(mt) to
        # -a cos(mt)/(2m) and constants to a log(a). Both are even in t,
        # so the folded rows of a centered disk map their upper halves alike
        for a, center in itertools.product((1.0, 2.0), ((0.0, 0.0), OFF_AXIS)):
            op = SceneOperator(single_disk(a, center), MeshControls(base_n=64))
            assert (op._fold is None) == (center == OFF_AXIS)
            A, keep = op._slp, kept_rows(op)
            t = op.mesh.curves[0].t
            for m in (1, 3, 7):
                g = np.cos(m * t) * a
                err = np.max(np.abs(A @ g[keep] + a * np.cos(m * t[keep]) / (2 * m)))
                assert err < 1e-13
            assert np.max(np.abs(A @ np.full(keep.size, a) - a * np.log(a))) < 1e-13

    def test_log_rule_needs_even_count(self):
        with pytest.raises(Exception):
            kussmaul_row(33)

    @pytest.mark.parametrize("scene", ["pair", "A", "D", "pair off axis"])
    def test_own_blocks_match_their_formulas(self, scene):
        # S's and K''s own blocks share their pairwise node differences; here
        # each is written out on its own, S's from real coordinate
        # differences and the full sin^2 table. A is a lens with corners,
        # D three ellipses; the pair and D keep the upper-half rows of both
        # blocks, with folded columns
        ell = SmoothBoundary.ellipse
        cfg = {
            "pair": lambda: build_two_disks(1, 1, 1e-6),
            "A": lambda: build_case_a(1, 0.05, 1, 0.05, 1e-3),
            "D": lambda: build_case_d(ell((0.0, 0.0), 1.0, 0.8), ell((0.0, 0.0), 1.0, 1.0),
                                      ell((0.0, 0.0), 1.1, 0.9), 0.05, 1e-3, 1e-3),
            "pair off axis": lambda: build_two_disks(1, 1, 1e-6).translated(OFF_AXIS),
        }[scene]()
        op = SceneOperator(cfg)
        assert (op._fold is None) == (scene in ("A", "pair off axis"))
        for ci, cm in enumerate(op.mesh.curves):
            dt = cm.t[:, None] - cm.t[None, :]
            s2 = 4.0 * np.sin(0.5 * dt) ** 2
            dx, dy = (cm.nodes[:, k][:, None] - cm.nodes[:, k][None, :] for k in (0, 1))
            d2 = dx * dx + dy * dy
            np.fill_diagonal(d2, 1.0)
            np.fill_diagonal(s2, 1.0)
            smooth = np.log(d2 / s2)
            np.fill_diagonal(smooth, 2.0 * np.log(cm.speed))
            slp = (scipy.linalg.circulant(kussmaul_row(cm.n)) + cm.h * smooth) / (4 * np.pi)
            y = cm.nodes[:, 0] + 1j * cm.nodes[:, 1]
            diff = y[:, None] - y[None, :]
            np.fill_diagonal(diff, 1.0)
            kprime = ((cm.normal_out[:, 0] + 1j * cm.normal_out[:, 1])[:, None] / diff).real
            kprime *= cm.h / (2 * np.pi)
            np.fill_diagonal(kprime, cm.curvature / (4 * np.pi) * cm.h)
            own = op._unknowns(ci)
            for built, ref in ((op._slp[own, own], folded(op, slp)),
                               (op._curves[ci].kprime, folded(op, kprime))):
                assert np.max(np.abs(built - ref)) <= 1e-14 * np.max(np.abs(ref))

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

    @pytest.mark.parametrize("groups", [((0,),), ((0,), (0, 1)), ((0,), (1,), (1,))],
                             ids=["missing", "repeated", "twice"])
    def test_u_groups_must_partition_the_bodies(self, groups):
        # groups that leave a body out or hold one twice are refused by the
        # check of solve_h's partition, before any solve
        op = SceneOperator(build_two_disks(1, 1, 1e-2))
        with pytest.raises(InvalidUsageError, match="cover all bodies exactly once"):
            op.solve_u(groups)

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
        assert [c.n for c in mesh.curves] == [320, 320]

    def test_near_boundary_evaluation(self):
        cfg = build_two_disks(1, 1, 1e-3)
        h = solve_h(cfg, ((0,), (1,)))
        f = images.psi_two_disks(*(b.disk for b in cfg.bodies))
        cm = h.mesh.curves[0]
        ts = np.linspace(0.3, 6.0, 25)
        pts, vel, sp = _frame_at(cm, ts)
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
        pts, vel, sp = _frame_at(cm, np.linspace(0.05, 2 * np.pi, 40, endpoint=False))
        n_out = np.stack([vel[:, 1], -vel[:, 0]], -1) / sp[:, None]
        q = pts + 1e-6 * n_out
        grad = u.gradient(q)
        fine = u_fine.gradient(q)
        assert np.max(np.hypot(*(grad - fine).T)) <= 1e-8 * np.max(np.hypot(*fine.T))
        # the potential continues the conductor's constant: F must vanish
        # at infinity for the exterior sum, or this misses by 0.38
        taylor = u.constant(0) + 1e-6 * np.einsum("ij,ij->i", grad, n_out)
        assert np.max(np.abs(u.potential(q) - taylor)) <= 1e-9

    def test_lens_log_center_is_its_larger_disks_center(self, monkeypatch):
        # the larger disk's center lies at least its radius inside the
        # union; the grid search over the lens's bounding box, which smooth
        # bodies keep, gives the same potential difference
        cfg = build_case_a(1.0, 0.05, 1.0, 0.05, 1e-4)
        op = SceneOperator(cfg)
        lens = cfg.bodies[1]
        assert op._fold is None and lens.kind == "lens"
        big = max(lens.lens_disks, key=lambda d: d.radius)
        assert op._curves[1].zc == complex(*big.center)
        du = op.solve_u().potential_difference(1, 0)
        center = nystrom.SceneOperator._log_center
        monkeypatch.setattr(nystrom.SceneOperator, "_log_center", lambda self, cm: (
            nystrom._farthest_inside(cm, lens) if cm.body_index == 1 else center(self, cm)))
        searched = SceneOperator(cfg)
        assert searched._curves[0].zc == op._curves[0].zc
        assert searched._curves[1].zc != op._curves[1].zc
        assert searched.solve_u().potential_difference(1, 0) == pytest.approx(du, rel=1e-12)

    @pytest.mark.parametrize("build", [
        lambda: build_case_b(1.0, 0.05, 1.0, 1e-5, 1e-3),
        lambda: build_case_d(SmoothBoundary.ellipse((0.0, 0.0), 1.0, 0.8),
                             SmoothBoundary.ellipse((0.0, 0.0), 1.0, 1.0),
                             SmoothBoundary.ellipse((0.0, 0.0), 1.1, 0.9), 0.05, 1e-4, 1e-4),
        lambda: build_case_b(1.0, 0.05, 1.0, 1e-5, 1e-3).translated(OFF_AXIS)],
        ids=["B", "D", "B off axis"])
    def test_cross_blocks_match_the_layer_of_a_density(self, build):
        # assembly takes each cross block as one real product with F's
        # stack, with folded columns at the upper-half rows of B and D; the
        # layer of a given density sums F g in complex numbers
        op = SceneOperator(build())
        u = op.solve_u()
        keep = kept_rows(op)
        z = op.mesh.nodes[keep, 0] + 1j * op.mesh.nodes[keep, 1]
        for ci in range(len(op.mesh.curves)):
            own = op.mesh.curve_slice(ci)
            others = op.mesh.body_of_node[keep] != ci
            cols = op._unknowns(ci)
            # an even g's upper half on a folded operator
            block = op._slp[others, cols] @ u.g[own][:cols.stop - cols.start]
            layer = op._layer(ci, z[others], u.g[own], fg=u._curve_values(ci, False))
            assert np.max(np.abs(block - layer)) <= 1e-12 * np.max(np.abs(layer))


# The benchmark's grids (pair, case B, case D), two case-A lenses and a
# case-C scene, with the node count of each curve.
GRID_SCENES = [
    *[pytest.param(lambda e=e: build_two_disks(1.0, 1.0, e), [n, n], id=f"pair-{e:.1e}")
      for e, n in zip(np.geomspace(1e-6, 1e-2, 9), [288, 272, 256, 240, 208] + [192] * 4)],
    *[pytest.param(lambda e=e: build_case_b(1.0, 0.05, 1.0, e, 1e-3), [n, m, 192],
                   id=f"B-{e:.1e}")
      for e, n, m in zip(np.geomspace(1e-5, 1e-3, 6), [256, 240, 224, 208, 192, 192],
                         [320, 304, 288, 272, 256, 240])],
    *[pytest.param(lambda e=e: build_case_d(SmoothBoundary.ellipse((0.0, 0.0), 1.0, 0.8),
                                            SmoothBoundary.ellipse((0.0, 0.0), 1.0, 1.0),
                                            SmoothBoundary.ellipse((0.0, 0.0), 1.1, 0.9),
                                            0.05, e, e), counts, id=f"D-{e:.1e}")
      for e, counts in zip(np.geomspace(1e-4, 1e-2, 5),
                           [[208, 320, 208], [192, 272, 192], [192, 240, 192]]
                           + [[192, 192, 192]] * 2)],
    *[pytest.param(lambda e=e: build_case_a(1.0, 0.05, 1.0, 0.05, e), counts,
                   id=f"A-{e:.1e}")
      for e, counts in ((1e-2, [192, 768]), (1e-5, [384, 1536]))],
    pytest.param(lambda: build_case_c(SmoothBoundary.ellipse((0.0, 0.0), 1.2, 0.9),
                                      Disk((0.0, 0.0), 1.0), Disk((1.0, 0.0), 1.0), 0.05, 1e-6),
                 [384, 1536], id="C-1.0e-06")]


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
            assert _clustered_mass(x, b, _feature_mass(b)) == pytest.approx(ref, rel=1e-12,
                                                                            abs=0)

    def test_mass_matches_the_carlson_form(self):
        # F(y | -1/b^2) / b is Carlson's sin y R_F(b^2 cos^2 y, b^2 + sin^2 y,
        # b^2) (DLMF 19.25.5), to rounding over the whole range of b
        from scipy.special import elliprf
        rng = np.random.default_rng(5)
        for b in np.geomspace(1e-12, 0.5, 23):
            y = np.concatenate([rng.uniform(0.0, np.pi / 2, 400),
                                np.geomspace(1e-16, 1.0, 40), [np.pi / 2]])
            s, c = np.sin(y), np.cos(y)
            ref = 2.0 * s * elliprf(b * b * c * c, b * b + s * s, b * b)
            got = _clustered_mass(2.0 * y, b, _feature_mass(b))
            assert np.max(np.abs(got / ref - 1.0)) <= 2e-15
            assert _feature_mass(b) == pytest.approx(4.0 * elliprf(0.0, 1.0 + b * b, b * b),
                                                     rel=2e-15, abs=0)

    def test_one_mass_table_per_chain_map(self, monkeypatch):
        # the n-independent tables (floor parameters, masses, feature
        # constants, seed columns) are built once per curve; the map forms
        # its seed masses from them and evaluates mass only in the three
        # Newton steps of its inversion
        calls = {"tables": 0, "maps": 0, "mass": 0}
        tables_init = mesh_module._ChainTables.__init__
        init, mass = mesh_module._ChainMap.__init__, mesh_module._ChainMap.mass

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mesh_module._ChainTables, "__init__", counted("tables", tables_init))
        monkeypatch.setattr(mesh_module._ChainMap, "__init__", counted("maps", init))
        monkeypatch.setattr(mesh_module._ChainMap, "mass", counted("mass", mass))
        ell = SmoothBoundary.ellipse
        mesh = build_mesh(build_case_d(ell((0.0, 0.0), 1.0, 0.8), ell((0.0, 0.0), 1.0, 1.0),
                                       ell((0.0, 0.0), 1.1, 0.9), 0.05, 1e-5, 1e-5))
        assert calls["tables"] == len(mesh.curves) == 3
        # one map per curve, at the count its chain budget predicts
        assert calls["maps"] == len(mesh.curves)
        assert calls["mass"] == 3 * calls["maps"]

    def test_shared_tables_give_a_fresh_chain(self):
        # build_mesh reads the node count from a curve's tables and builds
        # its chain from them; a chain built at that count from new tables
        # gives the same upper half, bit for bit. Every curve of case B is
        # mirrored, so its lower half is the exact mirror of the upper
        cfg = build_case_b(1.0, 0.05, 1.0, 1e-5, 1e-3)
        mesh = build_mesh(cfg)
        assert [cm.n for cm in mesh.curves] == [256, 320, 192]
        for cm, body in zip(mesh.curves, cfg.bodies):
            fresh = mesh_module._ChainMap(
                mesh_module._ChainTables(body.charts(), cm.features), cm.n)
            m = cm.n // 2
            v = fresh.v_of_t(cm.t[:m])
            assert np.array_equal(v, cm.v[:m])
            assert np.array_equal(fresh.frame_of_v(v)[0], cm.nodes[:m])
            assert np.array_equal(fresh.dvdt(v), cm.chain.dvdt(cm.v[:m]))
            assert np.array_equal(cm.v[m:], fresh.v_total - v[::-1])
            assert np.array_equal(cm.nodes[m:], cm.nodes[m - 1::-1] * [1.0, -1.0])

    @pytest.mark.parametrize("build,counts", GRID_SCENES)
    def test_inversion_at_rounding_level(self, build, counts):
        # the benchmark's grids and a lens: from the trimmed seed table the
        # three Newton steps of v_of_t reach t_of_v(v) = t to rounding. Its
        # residual is read through the map's slope dv/dt: next to a
        # feature t(v) is so steep that the nearest float v leaves a
        # residual in t of up to 1e5 ulps (two disks) and 3e9 (a lens
        # corner), while v is found within 8 ulps of the chain length
        mesh = build_mesh(build())
        assert [cm.n for cm in mesh.curves] == counts
        for cm in mesh.curves:
            chain = cm.chain
            v = chain.v_of_t(cm.t)
            miss = np.abs(chain.t_of_v(v) - cm.t) * chain.dvdt(v)
            assert np.max(miss) <= 8 * np.spacing(chain.v_total)


# The scenes of GRID_SCENES that fold: the pair, case B and case D.
MIRRORED_SCENES = [p for p in GRID_SCENES if p.id[0] in "pBD"]


def _is_mirrored(body, feats):
    return mesh_module._mirrored(body, mesh_module._ChainTables(body.charts(), feats))


class TestMirroredMesh:
    """A curve that is its own mirror image across the x-axis is inverted
    and framed on its upper half, then reflected."""

    @pytest.mark.parametrize("build,counts", MIRRORED_SCENES)
    def test_upper_half_inverted_lower_half_reflected(self, build, counts):
        # the upper half is the full inversion's, bit for bit; node N-1-k
        # is node k reflected, exactly, and so are its frame's vectors. The
        # pair's second disk is its first reflected across x = 0, whose
        # nodes lie within 16 ulps of its perimeter of the full inversion's
        cfg = build()
        mesh = build_mesh(cfg)
        assert [cm.n for cm in mesh.curves] == counts
        flip = np.array([1.0, -1.0])
        for cm, body in zip(mesh.curves, cfg.bodies):
            tables = mesh_module._ChainTables(body.charts(), cm.features)
            assert mesh_module._mirrored(body, tables)
            full = mesh_module._curve_mesh(tables, cm.body_index, cm.features, cm.n)
            m = cm.n // 2
            if _reflected(cm):
                assert np.max(np.abs(cm.nodes - full.nodes)) <= 16 * _ULP * cm.perimeter
            else:
                for name in ("v", "nodes", "velocity", "speed", "normal_out", "curvature",
                             "weights"):
                    assert np.array_equal(getattr(cm, name)[:m],
                                          getattr(full, name)[:m]), name
            assert np.array_equal(cm.nodes[::-1], cm.nodes * flip)
            assert np.array_equal(cm.velocity[::-1], -cm.velocity * flip)
            assert np.array_equal(cm.normal_out[::-1], cm.normal_out * flip)
            for name in ("speed", "curvature", "weights"):
                assert np.array_equal(getattr(cm, name)[::-1], getattr(cm, name))
            assert cm.mirrored
        assert nystrom._mirror_fold(cfg, mesh) is not None

    def test_only_mirror_images_are_mirrored(self):
        # decided from the body and its density terms: a disk or a Fourier
        # curve without sin_x and cos_y, on the axis, whose features
        # v -> v_total - v maps onto themselves
        def feats(*vs):
            return [mesh_module.FeatureSpec("gap", v, np.zeros(2), floor_arc=1e-4,
                                            growth=1.0 / 6.0, gap=1e-3) for v in vs]

        disk = Body.from_disk(Disk((0.0, 0.0), 1.0))
        ellipse = Body.from_smooth(SmoothBoundary.ellipse((0.0, 0.0), 1.2, 0.9))
        for v in ((0.0,), (np.pi,), (1.0, 2 * np.pi - 1.0), ()):
            assert _is_mirrored(disk, feats(*v)) and _is_mirrored(ellipse, feats(*v))
        assert not _is_mirrored(disk, feats(1.0))
        assert not _is_mirrored(disk.translated(OFF_AXIS), feats(0.0))
        assert not _is_mirrored(ellipse.translated(OFF_AXIS), feats(0.0))
        tilted = SmoothBoundary((0.0, 0.0), cos_x=(1.2,), sin_x=(0.1,), sin_y=(0.9,))
        assert not _is_mirrored(Body.from_smooth(tilted), feats(0.0))
        lens = build_case_a(1.0, 0.05, 1.0, 0.05, 1e-3).bodies[1]
        assert not _is_mirrored(lens, [])

    def test_zero_terms_keep_a_curve_mirrored(self):
        # sin_x = 0, as a run file may write it, is the curve without sin_x:
        # it is mirrored, the scene folds, and its answer is the same bits
        du = []
        for sin_x in ((0.0,), ()):
            left = SmoothBoundary((-1.0005, 0.0), cos_x=(1.0,), sin_x=sin_x, sin_y=(0.8,))
            bodies = (Body.from_smooth(left), Body.from_disk(Disk((0.5005, 0.0), 0.5)))
            cfg = Configuration(bodies, ((0,), (1,)), HarmonicBackground.linear_x())
            op = SceneOperator(cfg)
            assert op._fold is not None and all(cm.mirrored for cm in op.mesh.curves)
            du.append(op.solve_u().potential_difference(1, 0))
        assert du[0] == du[1]

    def test_scenes_with_a_corner_keep_the_full_inversion(self):
        # a scene with a lens keeps doubling's meshes bit for bit: its
        # disk, a mirror image, is still inverted on both halves
        cfg = build_case_a(1.0, 0.05, 1.0, 0.05, 1e-3)
        cm, body = build_mesh(cfg).curves[0], cfg.bodies[0]
        tables = mesh_module._ChainTables(body.charts(), cm.features)
        assert mesh_module._mirrored(body, tables)
        full = mesh_module._curve_mesh(tables, 0, cm.features, cm.n)
        assert np.array_equal(cm.nodes, full.nodes) and np.array_equal(cm.speed, full.speed)

    @pytest.mark.parametrize("build,counts", MIRRORED_SCENES)
    def test_folded_antiderivative_matches_the_fft(self, build, counts, monkeypatch):
        # Im F of a folded curve, one real product with the folded
        # circulant, against the FFT of the even extension
        seen = []
        antiderivative = nystrom._folded_antiderivative
        monkeypatch.setattr(nystrom, "_folded_antiderivative",
                            lambda flux: seen.append((flux, antiderivative(flux))) or seen[-1][1])
        op = SceneOperator(build())
        # a reflected partner copies its source's record
        built = [cm for cm in op.mesh.curves if op._split is None or not _reflected(cm)]
        assert op._fold is not None and len(seen) == len(built)
        for flux, got in seen:
            want = nystrom._spectral(np.vstack([flux, flux[::-1]]), -1)[:flux.shape[0]]
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestNodePrediction:
    """Each curve is meshed once, at the least count on the node ladder
    that its chain budget allows; in a scene with a lens corner, on the
    counts 192 2^k that doubling reaches."""

    @pytest.mark.parametrize("build", [pytest.param(p.values[0], id=p.id) for p in GRID_SCENES])
    def test_no_curve_is_over_resolved(self, build, monkeypatch):
        maps = []
        init = mesh_module._ChainMap.__init__
        monkeypatch.setattr(mesh_module._ChainMap, "__init__",
                            lambda self, *args: maps.append(init(self, *args)))
        cfg = build()
        mesh = build_mesh(cfg)
        # a reflected partner builds its chain map on first use only
        assert len(maps) == len([cm for cm in mesh.curves if not _reflected(cm)])
        monkeypatch.undo()
        doubling = any(f.kind == "corner" for cm in mesh.curves for f in cm.features)
        for cm, body in zip(mesh.curves, cfg.bodies):
            assert cm.n % mesh_module._NODE_LADDER == 0 and cm.n >= 192
            if doubling:
                k = cm.n // 192
                assert cm.n == 192 * k and k & (k - 1) == 0
            if cm.n == 192:
                continue
            tables = mesh_module._ChainTables(body.charts(), cm.features)
            lower = mesh_module._curve_mesh(tables, cm.body_index, cm.features,
                                            cm.n // 2 if doubling
                                            else cm.n - mesh_module._NODE_LADDER)
            assert not (tables.budget(lower.n)[1] > mesh_module._BUDGET_FLOOR
                        and mesh_module._resolution_ok(lower, 192))

    def test_pair_matches_the_closed_form(self):
        # criterion 1's probes and the potential difference, nine gaps down
        # to 1e-6, on the predicted meshes
        for eps in log_grid(1e-6, 1e-2, 9):
            cfg = build_two_disks(1.0, 1.0, eps)
            op = SceneOperator(cfg)
            h = op.solve_h(((0,), (1,)))
            f = images.psi_two_disks(*(b.disk for b in cfg.bodies))
            th = np.linspace(0, 2 * np.pi, 120, endpoint=False)
            pts = np.vstack([np.stack([3 * np.cos(th), 3 * np.sin(th)], -1),
                             np.stack([np.zeros(80), np.linspace(2.5 * eps, 1.5, 80)], -1)])
            exact = f.potential(pts)
            assert np.max(np.abs(h.potential(pts) - exact)) <= 1e-9 * np.max(np.abs(exact))
            du = images.two_disk_potential_difference(*(b.disk for b in cfg.bodies),
                                                      cfg.background)
            assert op.solve_u().potential_difference(1, 0) == pytest.approx(du, rel=1e-9)

    def test_predicted_count_over_the_cap_builds_no_chain(self, monkeypatch):
        maps = []
        init = mesh_module._ChainMap.__init__
        monkeypatch.setattr(mesh_module._ChainMap, "__init__",
                            lambda self, *args: maps.append(init(self, *args)))
        with pytest.raises(RefinementFailureError, match="node cap reached") as err:
            build_mesh(build_two_disks(1, 1, 1e-6), MeshControls(cap_total=128))
        assert err.value.diagnostics["requested_n"] == 288
        assert maps == []

    @staticmethod
    def _slow_start_circle():
        """The unit circle at a nonuniform parameter: phi(t) with speed
        0.3 + 0.7 F(t), F = 1 + 1.5 cos t + cos 2t + 0.5 cos 3t the Fejer
        kernel of order 3, fitted to degree 24 by FFT. Its peak speed is
        3.1 times its mean, so 192 uniform nodes miss the base density."""
        m = 256
        t = 2 * np.pi * np.arange(m) / m
        phi = t + 0.7 * (1.5 * np.sin(t) + 0.5 * np.sin(2 * t) + np.sin(3 * t) / 6)
        x, y = np.fft.rfft(np.cos(phi)) / m, np.fft.rfft(np.sin(phi)) / m
        k = slice(1, 25)
        curve = SmoothBoundary((x[0].real, y[0].real), 2 * x[k].real, -2 * x[k].imag,
                               2 * y[k].real, -2 * y[k].imag)
        p = curve.point(np.linspace(0, 2 * np.pi, 4001))
        assert np.max(np.abs(np.hypot(p[:, 0], p[:, 1]) - 1)) <= 1e-12
        return Configuration((Body.from_smooth(curve),), ((0,),),
                             HarmonicBackground.linear_x())

    def test_missed_base_density_doubles(self, monkeypatch):
        counts = []
        curve_mesh = mesh_module._curve_mesh
        monkeypatch.setattr(mesh_module, "_curve_mesh",
                            lambda tables, body, feats, n, *args:
                            counts.append(n) or curve_mesh(tables, body, feats, n, *args))
        u = solve_u(self._slow_start_circle())
        assert counts == [192, 384]
        th = np.linspace(0, 2 * np.pi, 100, endpoint=False)
        pts = np.stack([1.9 * np.cos(th), 2.4 * np.sin(th)], -1)
        exact = pts[:, 0] * (1 - 1 / (pts[:, 0] ** 2 + pts[:, 1] ** 2))
        assert np.max(np.abs(u.potential(pts) - exact)) <= 1e-12

    def test_doubling_over_the_cap_raises(self):
        with pytest.raises(RefinementFailureError,
                           match="node cap reached before the mesh met its resolution") as err:
            build_mesh(self._slow_start_circle(), MeshControls(cap_total=256))
        assert err.value.diagnostics["requested_n"] == 384

    def test_curves_over_the_total_cap_raise(self):
        # each curve's 192 nodes fit the cap, their total does not
        with pytest.raises(RefinementFailureError, match="total node cap exceeded") as err:
            build_mesh(build_two_disks(1, 1, 1e-3), MeshControls(cap_total=300))
        assert err.value.diagnostics == {"used": 384, "cap": 300}

    def test_odd_base_count_rounds_up_the_ladder(self):
        controls = MeshControls(base_n=101)
        for cfg in (build_two_disks(1, 1, 1e-2), build_two_disks(1, 1, 1e-5)):
            op = SceneOperator(cfg, controls)
            ns = [cm.n for cm in op.mesh.curves]
            assert all(n % mesh_module._NODE_LADDER == 0 and n >= 112 for n in ns), ns
            assert np.isfinite(op.solve_u().potential_difference(1, 0))


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
            _, _, speed = _frame_at(cm, t)
            weighted = _dirichlet_rows(cm.t, np.array([t]))[0] \
                @ (dnu[u.mesh.curve_slice(foot.body)] * cm.speed)
            assert value == pytest.approx(abs(weighted) / speed[0], rel=1e-13)

    def test_gap_ends_read_their_own_curve_once(self, monkeypatch):
        # each gap end reads the normal derivative of its own curve alone
        # and takes one chain-map frame there, at the foot's chain
        # coordinate, without inverting the chain map
        cfg = build_case_b(1, 0.05, 1, 1e-4, 1e-3)
        u = solve_u(cfg)
        curves, frames, inversions = [], [], []
        normal_derivative = FieldSolution._normal_derivative
        frame_of_v = mesh_module._ChainMap.frame_of_v
        v_of_t = mesh_module._ChainMap.v_of_t
        monkeypatch.setattr(FieldSolution, "_normal_derivative",
                            lambda sol, ci: curves.append(ci) or normal_derivative(sol, ci))
        monkeypatch.setattr(mesh_module._ChainMap, "frame_of_v",
                            lambda chain, v: frames.append(chain) or frame_of_v(chain, v))
        monkeypatch.setattr(mesh_module._ChainMap, "v_of_t",
                            lambda chain, t: inversions.append(chain) or v_of_t(chain, t))
        chains = [cm.chain for cm in u.mesh.curves]
        for i, j in ((0, 1), (1, 2)):
            curves.clear()
            frames.clear()
            max_gap_gradient(u, cfg.conductor_gap(i, j))
            assert curves == [i, j] and frames == [chains[i], chains[j]]
        assert inversions == []

    def test_boundary_reads_build_no_curve(self, monkeypatch):
        # every curve's own blocks are built with the operator; reading
        # nu.grad afterwards builds none again
        cfg = build_case_b(1, 0.05, 1, 1e-4, 1e-3)
        op = SceneOperator(cfg)
        u, h = op.solve_u(), op.solve_h(((0,), (1, 2)))
        builds = []
        build = SceneOperator._build_curve
        monkeypatch.setattr(SceneOperator, "_build_curve",
                            lambda op, ci: builds.append(ci) or build(op, ci))
        u.normal_derivative_nodes()
        max_gap_gradient(h, cfg.conductor_gap(0, 1))
        h.boundary_flux_weighted(2, cfg.background)
        assert builds == []

    def test_sweep_row_computes_each_curve_once(self, monkeypatch):
        # both gap maxima and the flux residual read the conductor field's
        # normal derivative; each curve's is computed once per field
        computed = []
        layers = SceneOperator._layers

        def counted(op, g, z, derivative=False, skip=None, **kwargs):
            if skip is not None:
                computed.append(skip)
            return layers(op, g, z, derivative, skip, **kwargs)

        monkeypatch.setattr(SceneOperator, "_layers", counted)
        spec = SweepSpec(case_tag="B", vary="eps1", grid=(1e-4,),
                         fixed={"r1": 1.0, "r2": 0.05, "r3": 1.0, "eps2": 1e-3},
                         quantities=("max_gap_gradient_12", "max_gap_gradient_23",
                                     "flux_residual_max"))
        assert run_sweep(spec).errors == [None]
        assert computed == [0, 1, 2]

    def test_sweep_row_computes_each_curve_value_once(self, monkeypatch):
        # the benchmark's three quantities on a case-B row: the gap maximum
        # evaluates the gradient many times, each of them through every
        # curve's F' g, which the field computes once per curve
        computed = []
        values = nystrom._CurveData.values

        def counted(record, g, derivative=False):
            computed.append((id(record), derivative))
            return values(record, g, derivative)

        monkeypatch.setattr(nystrom._CurveData, "values", counted)
        spec = SweepSpec(case_tag="B", vary="eps1", grid=(1e-4,),
                         fixed={"r1": 1.0, "r2": 0.05, "r3": 1.0, "eps2": 1e-3},
                         quantities=("max_gap_gradient_12", "potential_difference_21",
                                     "flux_residual_max"))
        assert run_sweep(spec).errors == [None]
        assert len(computed) == len(set(computed)) == 3

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
                q = _frame_at(cm, _foot_t(cm, foot))[0][0]
                assert np.hypot(*(q - p)) <= 16 * np.finfo(float).eps * cm.perimeter


def _frame_at(cm, t):
    """Points, velocities and speeds of a curve mesh at mesh parameters t,
    from its chain map."""
    v = cm.chain.v_of_t(np.atleast_1d(np.asarray(t, dtype=float)))
    pts, der, _ = cm.chain.frame_of_v(v)
    vel = der * cm.chain.dvdt(v)[:, None]
    return pts, vel, np.hypot(vel[:, 0], vel[:, 1])


def _foot_t(cm, foot) -> float:
    """Mesh parameter of a gap foot by the chain map's forward map."""
    chain = cm.chain
    return float(chain.t_of_v(chain.v_edges[foot.chart]
                              + (foot.u - chain.charts[foot.chart].u0)))


@pytest.fixture
def lu_calls(monkeypatch):
    """Counts the LU factorizations made while a test runs: the calls of
    the LAPACK ``getrf`` that the package loaded."""
    calls = []
    getrf = _scipy_ext.getrf

    def counted(*args, **kwargs):
        calls.append(1)
        return getrf(*args, **kwargs)

    monkeypatch.setattr(_scipy_ext, "getrf", counted)
    return calls


class TestOneFactorization:
    """Every field on one mesh is solved against the operator's one LU
    factor, followed by a step of iterative refinement."""

    def test_u_h_and_hc_share_one_factor(self, lu_calls):
        # the pair splits into an even and an odd half, one LU each
        op = SceneOperator(build_two_disks(1, 1, 1e-2))
        op.solve_h(((0,), (1,)))
        assert len(lu_calls) == 2
        op.solve_u()
        op.solve_hc()
        assert len(lu_calls) == 2

    def test_representation_shares_the_factor(self, lu_calls):
        # u and the representation's three fields h1, h2 and Hc
        cfg = build_case_b(1, 0.05, 1, 1e-3, 1e-3)
        op = SceneOperator(cfg)
        op.solve_u()
        representation_coeffs(cfg, op=op)
        assert len(lu_calls) == 1

    @pytest.mark.parametrize("build", [lambda: build_two_disks(1.0, 1.0, 1e-4),
                                       lambda: build_case_a(1.0, 0.05, 1.0, 0.05, 1e-3)],
                             ids=["folded pair", "A"])
    def test_lapack_calls_match_the_scipy_wrappers(self, build):
        # getrf and getrs, called directly, give lu_factor's factor and
        # lu_solve's solutions bit for bit. The folded pair factors two
        # halves: with r the first disk's unknowns and Pr their mirror
        # images, S[r, r] + S[r, Pr] bordered by the constant column and
        # twice the charge weights, and S[r, r] - S[r, Pr]
        op = SceneOperator(build())
        factors, _ = op._factor()
        getrs = _scipy_ext.getrs
        S, weights = op._slp, op._charge_weights()
        if op._split is None:
            blocks = [(S, weights)]
        else:
            # folded row k of the first disk mirrors row 2m-1-k, the second's
            r = np.arange(S.shape[0] // 2)
            same, cross = S[np.ix_(r, r)], S[np.ix_(r, S.shape[0] - 1 - r)]
            blocks = [(same + cross, 2 * weights[r]), (same - cross, None)]
        # the folded pair splits, case A neither folds nor splits
        assert (op._split is None) == (op._fold is None) and len(factors) == len(blocks)
        rng = np.random.default_rng(3)
        for (lu, piv), (block, border) in zip(factors, blocks):
            n = block.shape[0]
            M = block if border is None else np.block([[block, -np.ones((n, 1))],
                                                       [border[None, :], np.zeros((1, 1))]])
            lu_ref, piv_ref = scipy.linalg.lu_factor(M)
            assert np.array_equal(lu, lu_ref) and np.array_equal(piv, piv_ref)
            b = rng.standard_normal((M.shape[0], 2))
            for rhs in (b, b[:, 0]):
                got = getrs(lu, piv, rhs.copy(), overwrite_b=True)[0]
                assert np.array_equal(got, scipy.linalg.lu_solve((lu_ref, piv_ref), rhs))

    def test_non_finite_solve_is_refused(self, monkeypatch):
        # the last guard after the solve; solve_hc has one group, so no
        # group-charge system is checked first
        op = SceneOperator(build_two_disks(1, 1, 1e-2))
        monkeypatch.setattr(_scipy_ext, "getrs",
                            lambda lu, piv, b, overwrite_b=False: (np.full_like(b, np.nan), 0))
        with pytest.raises(NumericFailureError) as info:
            op.solve_hc()
        assert info.value.diagnostics["curves"] == [0, 1]

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
        values = []
        for threads in ("1", "2"):
            env = dict(_src_env(), OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            values.append(float(out.stdout.strip().splitlines()[-1]))
        assert values[1] == pytest.approx(values[0], rel=1e-9)


def _src_env():
    """The environment with the package's source directory on PYTHONPATH."""
    src = str(Path(neckfield.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


class TestCompiledRoutines:
    """The elliptic integrals and the LAPACK routines come from scipy's
    compiled extensions, loaded by file location (``_scipy_ext``)."""

    def test_import_loads_no_scipy_subpackage(self):
        # scipy.special and scipy.linalg load scipy's array-API layer,
        # which star-imports numpy and pulls in numpy.f2py and numpy.testing;
        # nothing needs numpy.polynomial's quadrature tables either
        script = ("import sys, neckfield\n"
                  "print([m for m in ('scipy.special', 'scipy.linalg', "
                  "'scipy._lib.array_api_compat', 'numpy.f2py', 'numpy.testing', "
                  "'numpy.polynomial') if m in sys.modules])\n")
        out = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "[]"

    def test_public_subpackages_give_the_same_numbers(self, monkeypatch):
        # where the direct load fails, scipy.special and get_lapack_funcs
        # serve the routines: the same chain maps, node counts, LU factors
        # and solves, bit for bit, on a folded and a full scene
        assert _scipy_ext._direct("special", "_no_such_module", ("ellipk",)) is None
        assert _scipy_ext._direct("linalg", "_flapack", ("no_such_routine",)) is None
        builds = (lambda: build_case_b(1.0, 0.05, 1.0, 1e-5, 1e-3),
                  lambda: build_case_a(1.0, 0.05, 1.0, 0.05, 1e-3))

        def results():
            out = []
            for build in builds:
                cfg = build()
                op = SceneOperator(cfg)
                curves = op.mesh.curves
                factors, _ = op._factor()
                h = op.solve_h(((0,), tuple(range(1, len(cfg.bodies)))))
                out.append([np.array([cm.n for cm in curves])]
                           + [cm.chain.tables.masses for cm in curves]
                           + [cm.v for cm in curves] + [a for f in factors for a in f]
                           + [op.solve_u().g, h.g])
            return out

        direct = results()
        monkeypatch.setattr(_scipy_ext, "_direct", lambda *args: None)
        names = ("ellipk", "ellipkinc", "getrf", "getrs", "gecon")
        for name, routine in zip(names, _scipy_ext._special() + _scipy_ext._lapack()):
            monkeypatch.setattr(_scipy_ext, name, routine)
        for got, ref in zip(results(), direct):
            assert all(np.array_equal(a, b) for a, b in zip(got, ref, strict=True))


def _pair_of(left: SmoothBoundary, right: SmoothBoundary, background=None) -> Configuration:
    return Configuration((Body.from_smooth(left), Body.from_smooth(right)), ((0,), (1,)),
                         background or HarmonicBackground.linear_x())


def _mirrored_ellipses():
    # two 1.2 x 0.9 ellipses 1e-3 apart across x = 0
    ell = SmoothBoundary.ellipse
    return _pair_of(ell((-1.2005, 0.0), 1.2, 0.9), ell((1.2005, 0.0), 1.2, 0.9))


def _mirrored_fourier_pair(right_cos_x=(1.0, -0.1), right_sin_y=(0.8, -0.05)):
    # x = c + cos t + 0.1 cos 2t, y = 0.8 sin t + 0.05 sin 2t, reaching
    # x = c + 1.1 at t = 0, and by default its mirror image across x = 0,
    # whose order-2 terms change sign; 1e-3 apart
    return _pair_of(SmoothBoundary((-1.1005, 0.0), cos_x=(1.0, 0.1), sin_y=(0.8, 0.05)),
                    SmoothBoundary((1.1005, 0.0), cos_x=right_cos_x, sin_y=right_sin_y))


# Mirror-symmetric scenes: the pair, case B's three disks, the benchmark's
# case-D ellipses, whose Fourier curves search a log center, and two
# ellipses that mirror each other across x = 0.
FOLDED_SCENES = pytest.mark.parametrize("build", [
    lambda: build_two_disks(1.0, 1.0, 1e-4),
    lambda: build_case_b(1.0, 0.05, 1.0, 1e-4, 1e-3),
    lambda: build_case_d(SmoothBoundary.ellipse((0.0, 0.0), 1.0, 0.8),
                         SmoothBoundary.ellipse((0.0, 0.0), 1.0, 1.0),
                         SmoothBoundary.ellipse((0.0, 0.0), 1.1, 0.9), 0.05, 1e-4, 1e-4),
    _mirrored_ellipses],
    ids=["pair", "B", "D", "mirrored ellipses"])

# Folded scenes whose bodies come in mirror pairs across a vertical line:
# the pair at three gaps, moved along the axis, and under a background
# neither even nor odd about that line, and two Fourier pairs.
SPLIT_SCENES = pytest.mark.parametrize("build", [
    *[lambda e=e: build_two_disks(1.0, 1.0, e) for e in (1e-6, 1e-4, 1e-2)],
    lambda: build_two_disks(1.0, 1.0, 1e-4).translated((0.3, 0.0)),
    lambda: build_two_disks(1.0, 1.0, 1e-4,
                            background=HarmonicBackground((0j, 1 + 0j, 0.5 + 0j))),
    _mirrored_ellipses, _mirrored_fourier_pair],
    ids=["pair-1e-06", "pair-1e-04", "pair-1e-02", "pair moved along x",
         "x + x^2 - y^2 background", "mirrored ellipses", "mirrored Fourier pair"])


class TestMirrorFold:
    """A scene even under y -> -y solves on its upper-half nodes; any other
    scene keeps the full system."""

    @FOLDED_SCENES
    def test_folded_and_full_paths_agree(self, build):
        # the twin moved off the axis has the same nodes up to the shift
        # and solves the full system. u has no charge on any body, the
        # unit-flux field h charges +-1. D's Fourier curves take their log
        # centers on the axis when folded and from the grid search when not
        cfg = build()
        twin = cfg.translated(OFF_AXIS)
        op, op_full = SceneOperator(cfg), SceneOperator(twin)
        assert op._fold is not None and op_full._fold is None
        u, u_full = op.solve_u(), op_full.solve_u()
        part = ((0,), tuple(range(1, len(cfg.bodies))))
        h, h_full = op.solve_h(part), op_full.solve_h(part)
        for f, f_full in ((u, u_full), (h, h_full)):
            assert np.max(np.abs(f.g - f_full.g)) <= 1e-10 * np.max(np.abs(f_full.g))
        assert h.potential_difference(1, 0) == pytest.approx(h_full.potential_difference(1, 0),
                                                             rel=1e-10, abs=0)
        for i in range(len(cfg.bodies) - 1):
            du, du_full = (f.potential_difference(i + 1, i) for f in (u, u_full))
            assert du == pytest.approx(du_full, rel=1e-10, abs=0)
            grad, grad_full = (max_gap_gradient(f, c.conductor_gap(i, i + 1)).max_magnitude
                               for f, c in ((u, cfg), (u_full, twin)))
            assert grad == pytest.approx(grad_full, rel=1e-10, abs=0)

    @FOLDED_SCENES
    def test_half_built_records_match_the_full_build(self, build, monkeypatch):
        # a folded operator builds the upper-half rows of each curve's
        # records with folded columns. The full build on the same mesh and
        # log centers, folded afterwards, must give the same tables, and
        # the lower rows rebuilt by conjugation the full rows
        cfg = build()
        op = SceneOperator(cfg)
        assert op._fold is not None
        centers = [d.zc for d in op._curves]
        assert all(zc.imag == 0.0 for zc in centers)
        monkeypatch.setattr(nystrom, "_mirror_fold", lambda cfg, mesh: None)
        monkeypatch.setattr(SceneOperator, "_log_center",
                            lambda self, cm: centers[cm.body_index])
        full = SceneOperator(cfg, mesh=op.mesh)
        assert full._fold is None
        rng = np.random.default_rng(7)
        for ci, cm in enumerate(op.mesh.curves):
            half, ref = op._curves[ci], full._curves[ci]
            m = cm.n // 2
            assert half.F.shape == (cm.n, m) and half.kprime.shape == (m, m)
            F = ref.F.reshape(cm.n, 2, cm.n)
            F = (F[:m, :, :m] + F[:m, :, :m - 1:-1]).reshape(cm.n, m)
            sl = op.mesh.curve_slice(ci)
            for built, want in ((op._slp[op._unknowns(ci), op._unknowns(ci)],
                                 folded(op, full._slp[sl, sl])),
                                (half.F, F), (half.kprime, folded(op, ref.kprime))):
                assert np.max(np.abs(built - want)) <= 1e-13 * np.max(np.abs(want))
            g = rng.standard_normal(cm.n)
            g += g[::-1]
            for derivative in (False, True):
                got, want = half.values(g, derivative), ref.values(g, derivative)
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_odd_density_raises(self):
        # a half-built record acts on the upper half of an even density;
        # evaluation refuses an odd one
        op = SceneOperator(build_two_disks(1.0, 1.0, 1e-2))
        u = op.solve_u()
        odd = dataclasses.replace(u, g=u.g * np.sign(op.mesh.nodes[:, 1]))
        with pytest.raises(InvalidUsageError):
            odd.potential(np.array([[0.0, 2.0]]))

    @pytest.mark.parametrize("build", [
        lambda: build_case_a(1, 0.05, 1, 0.05, 1e-3),
        lambda: build_two_disks(1.0, 1.0, 1e-3,
                                background=HarmonicBackground((0j, 1 + 0j, 0.25j)))],
        ids=["A", "odd background"])
    def test_no_fold(self, build):
        # case A's lens mesh does not mirror its nodes; x + 0.25i z^2 has
        # the odd part -xy/2
        op = SceneOperator(build())
        assert op._fold is None
        assert op._slp.shape == (op.mesh.n_total, op.mesh.n_total)

    def test_odd_data_raise(self):
        op = SceneOperator(build_two_disks(1.0, 1.0, 1e-2))
        n = op.mesh.n_total
        with pytest.raises(InvalidUsageError):
            op._solve(np.zeros(n, dtype=int), op.mesh.nodes[:, 1], np.zeros(1))


class TestMirrorSplit:
    """A folded scene whose bodies come in mirror pairs across a vertical
    line meshes, builds and factors one body of each pair and copies or
    splits the rest; any other scene keeps the folded or full system."""

    @SPLIT_SCENES
    def test_split(self, build):
        cfg = build()
        op = SceneOperator(cfg)
        centres = [b.disk.center if b.kind == "disk" else b.smooth.center for b in cfg.bodies]
        assert op._split is not None and op.mesh.mirror_x == np.mean([c[0] for c in centres])
        assert [cm.partner for cm in op.mesh.curves] == [1, 0]
        factors, _ = op._factor()
        m = op.mesh.curves[0].n // 2
        assert [lu.shape for lu, _ in factors] == [(m + 1, m + 1), (m, m)]

    @pytest.mark.parametrize("build", [
        lambda: build_two_disks(1.0, 0.5, 1e-3),
        lambda: build_two_disks(1.0, 1.0, 1e-3).translated(OFF_AXIS),
        lambda: build_case_a(1, 0.05, 1, 0.05, 1e-3),
        lambda: build_case_b(1, 0.05, 1, 1e-4, 1e-3),
        lambda: build_case_d(SmoothBoundary.ellipse((0.0, 0.0), 1.0, 0.8),
                             SmoothBoundary.ellipse((0.0, 0.0), 1.0, 1.0),
                             SmoothBoundary.ellipse((0.0, 0.0), 1.1, 0.9), 0.05, 1e-4, 1e-4),
        lambda: _mirrored_fourier_pair(right_cos_x=(1.0, 0.1), right_sin_y=(0.8, 0.05))],
        ids=["unequal pair", "pair off axis", "A", "B", "D", "Fourier translate"])
    def test_no_split(self, build):
        # unequal radii; a pair off the axis does not fold; a lens, a
        # middle body that no other body mirrors; and a Fourier body beside
        # its translate, which is not its mirror image
        op = SceneOperator(build())
        assert op._split is None and op.mesh.mirror_x is None
        assert all(cm.partner is None for cm in op.mesh.curves)
        assert len(op._factor()[0]) == 1

    @SPLIT_SCENES
    def test_split_and_unsplit_paths_agree(self, build, monkeypatch):
        # on the same mesh, the operator without its partner decision
        # builds every record and factors the folded matrix. hc has no gap
        # gradient on these scenes, so its gap maxima are rounding on both
        # paths
        cfg = build()
        op = SceneOperator(cfg)
        monkeypatch.setattr(nystrom, "_mirror_split", lambda mesh: None)
        ref = SceneOperator(cfg, mesh=op.mesh)
        assert op._split is not None and ref._split is None
        gap = cfg.conductor_gap(0, 1)
        pairs = [(op.solve_u(), ref.solve_u()), (op.solve_h(((0,), (1,))),
                                                 ref.solve_h(((0,), (1,)))),
                 (op.solve_hc(), ref.solve_hc())]
        scale = max_gap_gradient(pairs[0][1], gap).max_magnitude
        for f, f_ref in pairs:
            assert np.max(np.abs(f.g - f_ref.g)) <= 1e-10 * np.max(np.abs(f_ref.g))
            assert np.allclose(f.constants, f_ref.constants, rtol=1e-10, atol=1e-10)
            grad, grad_ref = (max_gap_gradient(x, gap).max_magnitude for x in (f, f_ref))
            if f.kind == "hc":
                assert max(grad, grad_ref) <= 1e-10 * scale
            else:
                assert grad == pytest.approx(grad_ref, rel=1e-10, abs=0)

    @SPLIT_SCENES
    def test_partner_mesh_matches_a_direct_build(self, build, monkeypatch):
        # the second curve, reflected from the first, against its own
        # inversion: the same count and nodes within 16 ulps of its
        # perimeter, and a chain map, built on first use, equal to the
        # direct build's on the inverted upper half
        cfg = build()
        mesh = build_mesh(cfg)
        monkeypatch.setattr(mesh_module, "_mirror_partners", lambda bodies, feats: None)
        direct = build_mesh(cfg)
        assert direct.mirror_x is None and direct.curves[1].partner is None
        cm, ref = mesh.curves[1], direct.curves[1]
        assert _reflected(cm) and cm.n == ref.n and cm.mirrored
        assert np.max(np.abs(cm.nodes - ref.nodes)) <= 16 * _ULP * cm.perimeter
        assert cm.perimeter == pytest.approx(ref.perimeter, rel=16 * _ULP)
        m = cm.n // 2
        assert np.array_equal(cm.chain.v_of_t(cm.t[:m]), ref.v[:m])
