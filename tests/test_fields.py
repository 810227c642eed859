import numpy as np
import pytest

from neckfield import (Configuration, Disk, HarmonicBackground,
                       InvalidGeometryError, MeshControls, SceneOperator,
                       build_case_b, decompose_u, representation_coeffs)
from neckfield.errors import InvalidUsageError
from neckfield.sweeps import _exterior_probes


@pytest.fixture(scope="module")
def case_b():
    cfg = build_case_b(1, 0.05, 1, 1e-3, 1e-3)
    op = SceneOperator(cfg)
    return cfg, op, op.solve_u()


def exterior_probes(cfg, count, seed=0):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        cand = (rng.random((1000, 2)) - 0.5) * 8
        ok = cfg.exterior_mask(cand)
        for b in cfg.bodies:
            ok &= ~b.contains(cand, pad=0.02)
        pts.extend(cand[ok][:count - len(pts)])
    return np.array(pts)


class TestRepresentation:
    def test_reconstruction(self, case_b):
        cfg, op, u = case_b
        rep = representation_coeffs(cfg, op=op)
        pts = exterior_probes(cfg, 200)
        uv = u.potential(pts)
        scale = np.max(np.abs(uv - rep.hc.potential(pts)))
        assert np.max(np.abs(uv - rep.potential(pts))) <= 1e-6 * scale

    def test_first_flux_entry_is_unit(self, case_b):
        cfg, op, u = case_b
        rep = representation_coeffs(cfg, op=op)
        assert rep.flux_matrix[0, 0] == pytest.approx(-1.0, abs=1e-10)

    def test_mirror_symmetry_equal_coefficients(self, case_b):
        cfg, op, u = case_b
        rep = representation_coeffs(cfg, op=op)
        assert rep.c1 == pytest.approx(rep.c2, rel=1e-8)

    def test_constant_background_zero_coefficients(self):
        cfg = build_case_b(1, 0.05, 1, 1e-2, 1e-2,
                           background=HarmonicBackground.constant(1.3))
        rep = representation_coeffs(cfg, MeshControls(base_n=96))
        assert abs(rep.c1) < 1e-8 and abs(rep.c2) < 1e-8

    def test_requires_three_conductors(self):
        from neckfield import build_two_disks
        with pytest.raises(InvalidUsageError):
            representation_coeffs(build_two_disks(1, 1, 1e-2))


class TestDecomposition:
    def test_reconstruction_residual(self, case_b):
        cfg, op, u = case_b
        dec = decompose_u(cfg, Disk((0.5, 0.0), 8.0), u=u)
        pts = _exterior_probes(cfg, 200, np.random.default_rng(2))
        assert np.all(dec.disk0.contains(pts))
        scale = np.max(np.abs(u.potential(pts)))
        assert dec.residual(pts) <= 1e-6 * scale

    def test_constants_are_potential_differences(self, case_b):
        cfg, op, u = case_b
        dec = decompose_u(cfg, Disk((0.5, 0.0), 8.0), u=u)
        assert dec.C0 == pytest.approx(u.constant(1), abs=1e-12)
        assert dec.C1 == pytest.approx(-u.potential_difference(1, 0), abs=1e-12)
        assert dec.C3 == pytest.approx(u.potential_difference(2, 1), abs=1e-12)

    def test_normal_derivative_on_the_enclosing_circle(self, case_b):
        # nu is the domain's outward normal, out of the enclosing circle:
        # the interior-side value there matches the gradient just inside,
        # and the harmonic basis has no net flux through the whole boundary
        cfg, op, u = case_b
        dec = decompose_u(cfg, Disk((0.5, 0.0), 8.0), u=u)
        for v in (dec.v0, dec.v1, dec.v3):
            ring = v.mesh.curve_slice(3)
            nodes, nu = v.mesh.nodes[ring], v.mesh.normals[ring]
            dnu = v.normal_derivative_nodes()[ring]
            inside = np.einsum("ij,ij->i", v.gradient(nodes - 1e-4 * nu), nu)
            assert np.max(np.abs(dnu - inside)) <= 1e-4 * np.max(np.abs(dnu))
            assert abs(v.flux_quadrature()[0]) < 1e-10

    def test_clearance_enforced(self, case_b):
        cfg, op, u = case_b
        with pytest.raises(InvalidGeometryError):
            decompose_u(cfg, Disk((0.5, 0.0), 3.0), u=u)

    def test_basis_boundary_values(self, case_b):
        cfg, op, u = case_b
        dec = decompose_u(cfg, Disk((0.5, 0.0), 8.0), u=u)
        # v1 is 1 on the first conductor, 0 on the others and the ring;
        # probe slightly off-surface, away from the necks where the trace
        # genuinely transitions over the gap width
        for body, expected in ((0, 1.0), (1, 0.0), (2, 0.0)):
            d = cfg.bodies[body].disk
            theta = np.linspace(0, 2 * np.pi, 32, endpoint=False)
            q = d.c + (d.radius + 1e-6) * np.stack([np.cos(theta), np.sin(theta)], -1)
            far = np.ones(len(q), dtype=bool)
            for other in range(3):
                if other == body:
                    continue
                oc, orad = cfg.bodies[other].bounding_circle()
                margin = 0.25 * cfg.bodies[body].diameter()
                far &= np.hypot(q[:, 0] - oc[0], q[:, 1] - oc[1]) > orad + margin
            assert np.count_nonzero(far) > 8
            assert np.allclose(dec.v1.potential(q[far]), expected, atol=1e-3)
