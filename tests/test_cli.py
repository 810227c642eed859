import numpy as np
import pytest

from neckfield import SmoothBoundary, asymptotics, build_case_a, build_case_d
from neckfield import cli
from neckfield.cli import main
from neckfield.geometry.serialize import emit_configuration
from neckfield.sweeps import parse_table_csv
from neckfield.svgplot import log_log_plot

CASE_B_CFG = """
[scene]
case = B

[case]
r1 = 1.0
r2 = 0.05
r3 = 1.0
eps1 = 0.001
eps2 = 0.001

[background]
coeffs = 0, 1

[sweep]
vary = eps1
grid = 1e-4, 1e-2, 4
quantities = potential_difference_21, max_gap_gradient_12
plot_quantity = max_gap_gradient_12
"""

PAIR_CFG = """
[scene]
case = pair

[case]
r1 = 1.0
r2 = 1.0
eps = 0.001

[sweep]
vary = eps
grid = 1e-3, 1e-2, 4
quantities = potential_difference_21

[mesh]
base_n = 96
"""


def body_lines(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


@pytest.fixture
def pair_cfg(tmp_path):
    p = tmp_path / "pair.cfg"
    p.write_text(PAIR_CFG)
    return p


@pytest.fixture
def case_b_cfg(tmp_path):
    p = tmp_path / "b.cfg"
    p.write_text(CASE_B_CFG)
    return p


class TestSolve:
    def test_case_b_summary(self, case_b_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", str(case_b_cfg), "--out", str(out)]) == 0
        text = (out / "solution.csv").read_text()
        assert "potential_difference_21" in text
        assert "potential_difference_32" in text
        assert "max_gap_gradient_12" in text
        assert "max_gap_gradient_23" in text
        # the outer pair's segment crosses the middle disk
        assert "max_gap_gradient_13" not in text
        assert "gap_distance_13" in text
        assert "flux_residual_" in text
        assert (out / "summary.txt").exists()

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scene\ncase = pair\n")
        assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("old,new,named", [
        ("r1 = 1.0", "r1 = abc", "[case] r1"),
        ("base_n = 96", "base_n = abc", "[mesh] base_n"),
        ("base_n = 96", "cap = 1e5", "[mesh] cap"),
        ("base_n = 96", "base_n = 0", "base_n must be at least 1"),
        ("[case]\nr1 = 1.0\nr2 = 1.0\neps = 0.001\n",
         "[body x]\ncenter = 0, 0\nradius = 1\n", "[body x]"),
    ], ids=["case_value", "mesh_base_n", "mesh_cap", "mesh_base_n_zero", "body_section"])
    def test_malformed_values(self, tmp_path, capsys, old, new, named):
        assert old in PAIR_CFG
        bad = tmp_path / "bad.cfg"
        bad.write_text(PAIR_CFG.replace(old, new))
        assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("flag,nodes", [("0", None), ("-4", None), ("1", 4), ("3", 8)])
    def test_mesh_base_floor(self, pair_cfg, tmp_path, capsys, flag, nodes):
        # a base count below 1 is a usage error; 1 and 3 are taken
        # literally, rounded up to an even count per curve
        out = tmp_path / "o"
        code = main(["solve", str(pair_cfg), "--out", str(out), "--mesh-base", flag])
        if nodes is None:
            assert code == 2
            assert "base_n must be at least 1" in capsys.readouterr().err
        else:
            assert code == 0
            assert f"mesh_nodes,{nodes}" in (out / "solution.csv").read_text()

    def test_overwrite_refused_then_forced(self, pair_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", str(pair_cfg), "--out", str(out)]) == 0
        assert main(["solve", str(pair_cfg), "--out", str(out)]) == 3
        assert main(["solve", str(pair_cfg), "--out", str(out), "--force"]) == 0


class TestSweepPipeline:
    def test_deterministic_bodies(self, pair_cfg, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["sweep", str(pair_cfg), "--out", str(out1)]) == 0
        assert main(["sweep", str(pair_cfg), "--out", str(out2)]) == 0
        assert body_lines(out1 / "sweep.csv") == body_lines(out2 / "sweep.csv")

    def test_rates_and_plot_from_precomputed(self, pair_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", str(pair_cfg), "--out", str(out)]) == 0
        assert main(["rates", str(pair_cfg), "--out", str(out)]) == 0
        rates = (out / "rates.csv").read_text()
        assert "potential_difference_21" in rates
        exponent = float([ln for ln in rates.splitlines()
                          if ln.startswith("potential_difference_21")][0].split(",")[1])
        assert abs(exponent - 0.5) < 0.03
        # plot built from the stored table equals the pipelined plot
        assert main(["plot", str(pair_cfg), "--out", str(out)]) == 0
        svg_stored = (out / "plot.svg").read_bytes()
        out_direct = tmp_path / "direct"
        assert main(["sweep", str(pair_cfg), "--out", str(out_direct)]) == 0
        assert main(["plot", str(pair_cfg), "--out", str(out_direct)]) == 0
        assert (out_direct / "plot.svg").read_bytes() == svg_stored

    def test_background_reaches_the_rows(self, tmp_path):
        # two equal disks in x^2 - y^2: equal potentials by symmetry
        cfg = tmp_path / "quad.cfg"
        cfg.write_text(PAIR_CFG + "\n[background]\ncoeffs = 0, 0, 1\n")
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 0
        _, cols, errors = parse_table_csv((out / "sweep.csv").read_text())
        assert errors == [None] * 4
        assert np.max(np.abs(cols["potential_difference_21"])) <= 1e-12

    def test_missing_sweep_section(self, tmp_path):
        cfg = tmp_path / "nosweep.cfg"
        cfg.write_text("[scene]\ncase = pair\n\n[case]\nr1 = 1.0\nr2 = 1.0\neps = 0.001\n")
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("old,new", [
        ("grid = 1e-3, 1e-2, 4\n", ""),
        ("quantities = potential_difference_21\n", ""),
        ("potential_difference_21", "no_such_quantity"),
    ], ids=["no_grid", "no_quantities", "unknown_quantity"])
    def test_malformed_sweep_section(self, tmp_path, old, new):
        assert old in PAIR_CFG
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(PAIR_CFG.replace(old, new))
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_non_finite_grid_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(PAIR_CFG.replace("grid = 1e-3, 1e-2, 4", "grid = 1e-4, inf, 4"))
        out = tmp_path / "o"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 2
        assert "bad log grid" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_suite_quantities_sweep_and_fit(self, tmp_path):
        # the verify suite's per-gap values are sweep columns: the split
        # field's far flux and difference scale like sqrt(eps1), its own
        # gap maximum like 1/sqrt(eps1)
        cfg = tmp_path / "split.cfg"
        cfg.write_text(CASE_B_CFG.replace("grid = 1e-4, 1e-2, 4",
                                          "tie = eps2:1\ngrid = 1e-5, 1e-3, 4")
                       .replace("potential_difference_21, max_gap_gradient_12",
                                "far_flux, split_difference_12, h1_gap_gradient_12")
                       .replace("plot_quantity = max_gap_gradient_12\n", ""))
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 0
        assert main(["rates", str(cfg), "--out", str(out)]) == 0
        rates = {ln.split(",")[0]: float(ln.split(",")[1])
                 for ln in (out / "rates.csv").read_text().splitlines()
                 if not ln.startswith(("#", "quantity"))}
        assert abs(rates["far_flux"] - 0.5) <= 0.1
        assert abs(rates["split_difference_12"] - 0.5) <= 0.1
        assert abs(rates["h1_gap_gradient_12"] + 0.5) <= 0.1

    @pytest.mark.parametrize("line,named", [
        ("plot_quantity = bogus\n", "[sweep] plot_quantity"),
        ("guide_slope = steep\n", "[sweep] guide_slope"),
    ], ids=["plot_quantity", "guide_slope"])
    def test_malformed_plot_keys(self, tmp_path, capsys, monkeypatch, line, named):
        # a bad key is refused before any sweep runs
        sweeps = []
        run_sweep = cli.run_sweep
        monkeypatch.setattr(cli, "run_sweep", lambda spec: sweeps.append(spec) or run_sweep(spec))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(PAIR_CFG.replace("[mesh]", line + "\n[mesh]"))
        assert main(["plot", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err
        assert sweeps == []

    def test_plot_reads_the_same_columns_with_or_without_a_table(self, tmp_path):
        # the freshly run sweep has every column of a written sweep.csv
        cfg = tmp_path / "rcond.cfg"
        cfg.write_text(PAIR_CFG.replace("[mesh]", "plot_quantity = rcond\n\n[mesh]"))
        fresh, stored = tmp_path / "fresh", tmp_path / "stored"
        assert main(["plot", str(cfg), "--out", str(fresh)]) == 0
        assert main(["sweep", str(cfg), "--out", str(stored)]) == 0
        assert main(["plot", str(cfg), "--out", str(stored)]) == 0
        assert (fresh / "plot.svg").read_bytes() == (stored / "plot.svg").read_bytes()


class TestVerify:
    def test_case_a_passes(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("[scene]\ncase = A\n\n[case]\nr1 = 1.0\nr2 = 0.05\n"
                       "r3 = 1.0\na = 0.05\neps = 0.001\n")
        out = tmp_path / "out"
        assert main(["verify", str(cfg), "--out", str(out)]) == 0
        text = (out / "verify.csv").read_text()
        assert "flux_residual_quadrature" in text

    def test_seed_reaches_the_suite(self, tmp_path, monkeypatch):
        # case A's random nestings draw from the run's --seed
        seen = []
        check = asymptotics._monotonicity_check
        monkeypatch.setattr(asymptotics, "_monotonicity_check",
                            lambda seed: seen.append(seed) or check(seed))
        cfg = tmp_path / "a.cfg"
        cfg.write_text("[scene]\ncase = A\n\n[case]\nr1 = 1.0\nr2 = 0.05\n"
                       "r3 = 1.0\na = 0.05\neps = 0.001\n")
        main(["verify", str(cfg), "--out", str(tmp_path / "out"), "--seed", "7"])
        assert seen == [7]

    def test_coarse_mesh_fails(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("[scene]\ncase = A\n\n[case]\nr1 = 1.0\nr2 = 0.05\n"
                       "r3 = 1.0\na = 0.05\neps = 0.001\n")
        out = tmp_path / "outc"
        assert main(["verify", str(cfg), "--out", str(out),
                     "--mesh-base", "24"]) == 1


class TestEmittedScene:
    """An emitted scene is free-form: it keeps its case tag but not the
    case parameters that sweeps and the verify suite rebuild it from."""

    @pytest.fixture
    def emitted_a(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text(emit_configuration(build_case_a(1.0, 0.05, 1.0, 0.05, 1e-3))
                     + "\n[sweep]\nvary = eps\ngrid = 1e-4, 1e-3, 4\n"
                       "quantities = potential_difference_21\n")
        return p

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_case_a_exits_with_usage_error(self, emitted_a, tmp_path, capsys, command):
        assert main([command, str(emitted_a), "--out", str(tmp_path / "o")]) == 2
        assert "case A missing parameter 'r1'" in capsys.readouterr().err

    def test_case_d_verify_exits_with_usage_error(self, tmp_path, capsys):
        ell = SmoothBoundary.ellipse
        p = tmp_path / "d.cfg"
        p.write_text(emit_configuration(build_case_d(
            ell((0.0, 0.0), 1.0, 0.8), ell((0.0, 0.0), 1.0, 1.0),
            ell((0.0, 0.0), 1.1, 0.9), 0.05, 1e-3, 1e-3)))
        assert main(["verify", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "case D missing parameter 'r2'" in capsys.readouterr().err


class TestSvg:
    def test_deterministic_output(self):
        x = np.geomspace(1e-4, 1e-2, 5)
        y = 2 * np.sqrt(x)
        a = log_log_plot(x, y, fit_slope=0.5, fit_intercept=0.3, guide_slope=0.5,
                         title="t", x_label="x", y_label="y", caption="c")
        b = log_log_plot(x, y, fit_slope=0.5, fit_intercept=0.3, guide_slope=0.5,
                         title="t", x_label="x", y_label="y", caption="c")
        assert a == b
        assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
        assert a.count("<circle") == 5
