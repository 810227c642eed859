import numpy as np
import pytest

from neckfield import (HarmonicBackground, MeshControls, SceneOperator, build_case_b,
                       representation_coeffs)
from neckfield.errors import InvalidUsageError


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
