import numpy as np
import pytest

from neckfield import (InvalidParameterError, SmoothBoundary, bound_case_a,
                       bound_case_b, bound_case_c, bound_case_d, build_case_a,
                       build_case_b, build_case_d, build_two_disks, lemma_suite)
from neckfield import sweeps
from neckfield.asymptotics import DiagnosticCheck
from neckfield.cli import main
from neckfield.errors import InvalidUsageError, NeckfieldError, NumericFailureError
from neckfield.solver.mesh import MeshControls
from neckfield.solver.nystrom import SceneOperator


class TestBoundFormulas:
    def test_case_a_values(self):
        p = bound_case_a(1, 0.05, 1, 1e-4)
        assert p.potential_scale == pytest.approx(0.5 * 0.05**-0.5 * 1e-2, rel=1e-12)
        assert p.potential_scale == pytest.approx(0.02236, rel=1e-3)
        assert p.lower_scale == p.upper_scale

    def test_equal_outer_radii_prefactor(self):
        p = bound_case_a(2.0, 0.05, 2.0, 1e-4)
        q = bound_case_a(1.0, 0.05, 1.0, 1e-4)
        assert p.potential_scale / q.potential_scale == pytest.approx(2.0)

    def test_sqrt_law(self):
        a = bound_case_a(1, 0.05, 1, 1e-4)
        b = bound_case_a(1, 0.05, 1, 4e-4)
        assert b.potential_scale / a.potential_scale == pytest.approx(2.0)

    def test_case_b_per_gap(self):
        p1, p2 = bound_case_b(1, 0.05, 1, 1e-4, 4e-4)
        assert p2.potential_scale / p1.potential_scale == pytest.approx(2.0)
        assert p1.lower_scale == pytest.approx(223.60679, rel=1e-6)
        q1, q2 = bound_case_b(1, 0.05, 1, 2e-4, 2e-4)
        assert q1 == q2

    def test_case_c_values(self):
        p = bound_case_c(0.05, 1e-4)
        assert p.potential_scale == pytest.approx(np.sqrt(1e-4 / 0.05), rel=1e-12)
        assert p.potential_scale == pytest.approx(0.04472, rel=1e-3)
        half = bound_case_c(0.025, 1e-4)
        assert half.potential_scale / p.potential_scale == pytest.approx(np.sqrt(2))

    def test_case_d_symmetry(self):
        p1, p2 = bound_case_d(0.05, 1e-4, 1e-4)
        assert p1.lower_scale == p2.lower_scale
        assert p1.potential_scale == p2.potential_scale

    def test_r2_equal_one_matches_general(self):
        # with a middle body of unit size the small-lump law reduces to the
        # comparable-bodies law 1/sqrt(eps) times the radii prefactor 1/2
        assert bound_case_b(1, 1, 1, 1e-4, 1e-4)[0].lower_scale == 50

    def test_homogeneity(self):
        # all lengths scaled by lam: potential scale gains lam, gradient
        # scale is invariant
        lam = 3.7
        p = bound_case_a(1, 0.05, 1, 1e-4)
        q = bound_case_a(lam, lam * 0.05, lam, lam * 1e-4)
        assert q.potential_scale == pytest.approx(lam * p.potential_scale, rel=1e-12)
        assert q.lower_scale == pytest.approx(p.lower_scale, rel=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            bound_case_a(1, -0.05, 1, 1e-4)
        with pytest.raises(InvalidParameterError):
            bound_case_d(0.05, 0.0, 1e-4)


class TestDiagnostics:
    def test_case_mismatch(self):
        with pytest.raises(InvalidUsageError):
            lemma_suite(build_two_disks(1, 1, 1e-3))

    def test_case_a_suite_small_grid(self):
        cfg = build_case_a(1, 0.05, 1, 0.05, 1e-3)
        rep = lemma_suite(cfg, eps_grid=[1e-4, 1e-3])
        assert rep.passed, [c.name for c in rep.checks if not c.passed]
        names = {c.name for c in rep.checks}
        assert "potential_difference_identity" in names
        assert "pair_difference_monotonicity" in names

    def test_report_csv(self):
        cfg = build_case_a(1, 0.05, 1, 0.05, 1e-3)
        rep = lemma_suite(cfg, eps_grid=[1e-4, 1e-3])
        text = rep.to_csv()
        assert text.startswith("check,spread,passed")
        assert text.count("\n") == len(rep.checks) + 1

    def test_deterministic(self):
        cfg = build_case_a(1, 0.05, 1, 0.05, 1e-3)
        a = lemma_suite(cfg, eps_grid=[1e-3]).to_csv()
        b = lemma_suite(cfg, eps_grid=[1e-3]).to_csv()
        assert a == b

    def test_case_d_suite_regaps_both_gaps(self, monkeypatch):
        # the benchmark's case-D scene; the suite moves the outer ellipses
        ell = SmoothBoundary.ellipse
        cfg = build_case_d(ell((0.0, 0.0), 1.0, 0.8), ell((0.0, 0.0), 1.0, 1.0),
                           ell((0.0, 0.0), 1.1, 0.9), 0.05, 1e-3, 1e-3)
        scenes = []
        operator = sweeps.SceneOperator

        def spy(c, *args, **kwargs):
            scenes.append(c)
            return operator(c, *args, **kwargs)

        monkeypatch.setattr(sweeps, "SceneOperator", spy)
        grid = [1e-4, 1e-3]
        a = lemma_suite(cfg, eps_grid=grid).to_csv()
        assert lemma_suite(cfg, eps_grid=grid).to_csv() == a
        assert len(scenes) == 4
        for c, eps in zip(scenes, grid + grid):
            assert c.case_tag == "D" and (c.params["eps1"], c.params["eps2"]) == (eps, eps)
            for i in (0, 1):
                assert abs(c.body_pair_gap(i, i + 1).distance - eps) <= 1e-10

    def test_a_failed_row_stays_loud(self, tmp_path, monkeypatch, capsys):
        # a solve that fails at one gap of the grid is an error of the
        # suite, never a failed check
        solve_h = SceneOperator.solve_h

        def failing(op, partition):
            if op.cfg.params["eps1"] == 1e-4:
                raise NumericFailureError("injected solve failure")
            return solve_h(op, partition)

        monkeypatch.setattr(SceneOperator, "solve_h", failing)
        cfg = build_case_b(1.0, 0.05, 1.0, 1e-3, 1e-3)
        with pytest.raises(NeckfieldError, match="injected solve failure"):
            lemma_suite(cfg, eps_grid=[1e-4, 1e-3])
        path = tmp_path / "b.cfg"
        path.write_text("[scene]\ncase = B\n\n[case]\nr1 = 1.0\nr2 = 0.05\n"
                        "r3 = 1.0\neps1 = 0.001\neps2 = 0.001\n")
        assert main(["verify", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "injected solve failure" in capsys.readouterr().err
        assert not (tmp_path / "o" / "verify.csv").exists()

    @pytest.mark.parametrize("grid", [[1e-3, 1e-4], [1e-4, 1e-4], [1e-4, np.inf], []])
    def test_bad_gap_grid(self, grid):
        with pytest.raises(InvalidParameterError):
            lemma_suite(build_case_b(1.0, 0.05, 1.0, 1e-3, 1e-3), eps_grid=grid)

    def test_upper_ratio_check_semantics(self):
        shrinking = DiagnosticCheck.from_upper_ratios("x", [1e-5, 1e-4, 1e-3],
                                                      [1e-3, 1e-2, 0.5])
        assert shrinking.passed
        growing = DiagnosticCheck.from_upper_ratios("x", [1e-5, 1e-4, 1e-3],
                                                    [200.0, 20.0, 2.0])
        assert not growing.passed

    def test_a_ratio_that_cannot_be_judged_fails(self):
        # a suite writes nan where its sign condition fails at one gap
        spread = DiagnosticCheck.from_ratios("x", [3.0, np.nan, 3.1], 10.0, "d_nu ratio")
        assert not spread.passed
        assert "non-finite ratio" in spread.detail and "d_nu ratio" in spread.detail
        upper = DiagnosticCheck.from_upper_ratios("x", [1e-5, 1e-4, 1e-3], [np.nan, 2.0, 2.1])
        assert not upper.passed and upper.detail == "non-finite ratio"
        signed = DiagnosticCheck.from_upper_ratios("x", [1e-5, 1e-4, 1e-3], [-1.0, 2.0, 2.1])
        assert not signed.passed and signed.detail == "nonpositive ratio"
        assert DiagnosticCheck.from_ratios("x", [3.0, 3.1], 10.0).passed
