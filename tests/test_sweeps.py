from dataclasses import replace

import numpy as np
import pytest

from neckfield import (DomainError, InvalidParameterError, MeshControls,
                       SweepSpec, SweepTable, Tie, build_case_b, fit_rate, log_grid,
                       representation_coeffs, run_sweep, sandwich_check, solve_hc)
from neckfield.sweeps import parse_table_csv, serialize_table


# the synthetic column; any registered quantity name serves
Q = "psi_gap_difference"


def synthetic_table(x, y, errors=None):
    spec = SweepSpec(case_tag="pair", vary="eps", grid=tuple(x),
                     quantities=(Q,), fixed={"r1": 1.0, "r2": 1.0})
    n = len(x)
    return SweepTable(spec, np.asarray(x, float), {Q: np.asarray(y, float)},
                      np.zeros(n, dtype=int), np.full(n, np.nan),
                      errors or [None] * n, np.zeros(n))


class TestFitRate:
    def test_exact_power_law(self):
        x = np.geomspace(1e-4, 1e-1, 6)
        fit = fit_rate(synthetic_table(x, 3 * x**0.5), "eps", Q)
        assert fit.exponent == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_data(self):
        x = np.geomspace(1e-4, 1e-1, 5)
        fit = fit_rate(synthetic_table(x, np.full(5, 2.5)), "eps", Q)
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_refit_is_idempotent(self):
        x = np.geomspace(1e-5, 1e-2, 8)
        y = 0.7 * x**-0.43 * (1 + 0.05 * np.sin(np.arange(8)))
        fit = fit_rate(synthetic_table(x, y), "eps", Q)
        refit = fit_rate(synthetic_table(x, 10.0**(fit.intercept + fit.exponent
                                                   * np.log10(x))), "eps", Q)
        assert refit.exponent == pytest.approx(fit.exponent, abs=1e-12)

    def test_needs_four_rows(self):
        x = np.geomspace(1e-3, 1e-1, 3)
        with pytest.raises(InvalidParameterError):
            fit_rate(synthetic_table(x, x), "eps", Q)

    def test_nonpositive_rejected(self):
        x = np.geomspace(1e-3, 1e-1, 5)
        y = np.array([1.0, 2.0, -3.0, 4.0, 5.0])
        with pytest.raises(DomainError):
            fit_rate(synthetic_table(x, y), "eps", Q)


class TestSandwich:
    def test_trivial_identity(self):
        x = np.geomspace(1e-4, 1e-1, 5)
        t = synthetic_table(x, 2 * np.sqrt(x))
        res = sandwich_check(t, Q, 2 * np.sqrt(x))
        assert res.spread == pytest.approx(1.0)
        assert res.passed

    def test_zero_prediction_rejected(self):
        x = np.geomspace(1e-4, 1e-1, 5)
        t = synthetic_table(x, np.sqrt(x))
        with pytest.raises(DomainError):
            sandwich_check(t, Q, np.zeros(5))

    def test_threshold(self):
        x = np.geomspace(1e-4, 1e-1, 5)
        t = synthetic_table(x, x)  # prediction sqrt(x): spread = x range^0.5
        res = sandwich_check(t, Q, np.sqrt(x), threshold=5.0)
        assert not res.passed


class TestSpec:
    def test_grid_validation(self):
        with pytest.raises(InvalidParameterError):
            SweepSpec(case_tag="pair", vary="eps", grid=(),
                      quantities=("psi_gap_difference",))
        with pytest.raises(InvalidParameterError):
            SweepSpec(case_tag="pair", vary="eps", grid=(1e-2, 1e-3),
                      quantities=("psi_gap_difference",))

    def test_quantities_of_another_case(self):
        # the verify suites' quantities read one case's bodies by position
        for tag, q in (("pair", "far_flux"), ("B", "flux_off_lump"), ("D", "enclosing_pair_ratio")):
            with pytest.raises(InvalidParameterError, match="another case"):
                SweepSpec(case_tag=tag, vary="eps", grid=(1e-3,), quantities=(q,))

    def test_log_grid(self):
        g = log_grid(1e-4, 1e-2, 5)
        assert len(g) == 5
        assert g[0] == pytest.approx(1e-4) and g[-1] == pytest.approx(1e-2)
        for lo, hi in ((1e-2, 1e-4), (1e-4, np.inf), (np.nan, 1e-2), (1e-4, np.nan),
                       (0.0, 1e-2), (-np.inf, 1e-2)):
            with pytest.raises(InvalidParameterError):
                log_grid(lo, hi, 5)
        for bad in (np.inf, np.nan):
            with pytest.raises(InvalidParameterError):
                SweepSpec(case_tag="pair", vary="eps", grid=(1e-4, bad),
                          quantities=("psi_gap_difference",))

    def test_tie(self):
        spec = SweepSpec(case_tag="pair", vary="r2",
                         grid=log_grid(1e-2, 1e-1, 4),
                         fixed={"r1": 1.0, "eps": Tie(1e-3)},
                         quantities=("psi_gap_difference",))
        p = spec.params_at(0.05)
        assert p["eps"] == pytest.approx(5e-5)
        assert p["r1"] == 1.0


class TestRunSweep:
    def test_closed_form_sweep(self):
        spec = SweepSpec(case_tag="pair", vary="eps",
                         grid=log_grid(1e-5, 1e-2, 6),
                         fixed={"r1": 1.0, "r2": 1.0},
                         quantities=("psi_gap_difference", "u_difference_oracle"))
        table = run_sweep(spec)
        assert table.n_failed == 0
        fit = fit_rate(table, "eps", "psi_gap_difference")
        assert fit.exponent == pytest.approx(0.5, abs=0.02)

    def test_failed_rows_recorded(self):
        # the overlap parameter walks past its validity bound midway
        spec = SweepSpec(case_tag="A", vary="a",
                         grid=(0.04, 0.08, 0.12),
                         fixed={"r1": 1.0, "r2": 0.05, "r3": 1.0, "eps": 1e-2},
                         quantities=("gap_distance_12",))
        table = run_sweep(spec)
        assert table.n_failed == 1
        assert table.errors[0] is None and table.errors[1] is None
        assert "InvalidGeometryError" in table.errors[2]
        assert np.isnan(table.columns["gap_distance_12"][2])

    def test_all_failed_raises(self):
        from neckfield import SweepFailureError
        spec = SweepSpec(case_tag="A", vary="a", grid=(0.12, 0.14),
                         fixed={"r1": 1.0, "r2": 0.05, "r3": 1.0, "eps": 1e-2},
                         quantities=("gap_distance_12",))
        with pytest.raises(SweepFailureError):
            run_sweep(spec)

    def test_determinism_bit_identical(self):
        spec = SweepSpec(case_tag="pair", vary="eps",
                         grid=log_grid(1e-3, 1e-2, 4),
                         fixed={"r1": 1.0, "r2": 0.7},
                         quantities=("potential_difference_21",),
                         controls=MeshControls(base_n=96), seed=3)
        a = run_sweep(spec)
        b = run_sweep(spec)

        def body(t):
            return [ln for ln in serialize_table(t).splitlines()
                    if not ln.startswith("#")]

        assert body(a) == body(b)

    def test_representation_quantities(self):
        # the rows give what direct solves give; a row that solves no u
        # still reports the rcond of the operator its solves factored
        spec = SweepSpec(case_tag="B", vary="eps1", grid=(1e-3,),
                         fixed={"r1": 1.0, "r2": 0.05, "r3": 1.0, "eps2": 1e-3},
                         quantities=("rep_c1", "rep_c2", "hc_constant"))
        table = run_sweep(spec)
        cfg = build_case_b(1.0, 0.05, 1.0, 1e-3, 1e-3)
        rep = representation_coeffs(cfg)
        hc = solve_hc(cfg)
        assert table.columns["rep_c1"][0] == rep.c1
        assert table.columns["rep_c2"][0] == rep.c2
        assert table.columns["hc_constant"][0] == hc.constant(0)
        assert table.mesh_nodes[0] == hc.mesh.n_total
        # a condition estimate, reproducible to roundoff across factorizations
        assert table.rcond[0] == pytest.approx(hc.rcond, rel=1e-9)
        residual = run_sweep(replace(spec, quantities=("rep_residual",)))
        assert residual.columns["rep_residual"][0] < 1e-10

    def test_exponent_stability_drop_largest(self):
        spec = SweepSpec(case_tag="pair", vary="eps",
                         grid=log_grid(1e-5, 1e-2, 8),
                         fixed={"r1": 1.0, "r2": 1.0},
                         quantities=("u_difference_oracle",))
        table = run_sweep(spec)
        full = fit_rate(table, "eps", "u_difference_oracle")
        spec2 = SweepSpec(case_tag="pair", vary="eps",
                          grid=tuple(table.values[:-1]),
                          fixed={"r1": 1.0, "r2": 1.0},
                          quantities=("u_difference_oracle",))
        dropped = fit_rate(run_sweep(spec2), "eps", "u_difference_oracle")
        assert abs(full.exponent - dropped.exponent) <= 0.02


class TestSerialization:
    def test_round_trip(self):
        spec = SweepSpec(case_tag="pair", vary="eps",
                         grid=log_grid(1e-4, 1e-2, 5),
                         fixed={"r1": 1.0, "r2": 1.0},
                         quantities=("psi_gap_difference",))
        table = run_sweep(spec)
        text = serialize_table(table)
        vary, cols, errors = parse_table_csv(text)
        assert vary == "eps"
        assert np.allclose(cols["eps"], table.values)
        assert np.allclose(cols["psi_gap_difference"],
                           table.columns["psi_gap_difference"])
        assert errors == table.errors
