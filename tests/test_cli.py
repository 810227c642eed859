import numpy as np
import pytest

from neckfield import SmoothBoundary, asymptotics, build_case_a, build_case_d
from neckfield import cli
from neckfield.cli import main
from neckfield.geometry.serialize import emit_configuration
from neckfield.solver import nystrom
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
PAIR_CASE = "[case]\nr1 = 1.0\nr2 = 1.0\neps = 0.001\n"
FREE_CFG = "[body 1]\ncenter = -1.5, 0\nradius = 1\n\n[body 2]\ncenter = 1.5, 0\nradius = 1\n"


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
        (PAIR_CASE, "[body x]\ncenter = 0, 0\nradius = 1\n", "[body x]"),
    ], ids=["case_value", "mesh_base_n", "mesh_cap", "mesh_base_n_zero", "body_section"])
    def test_malformed_values(self, tmp_path, capsys, old, new, named):
        assert old in PAIR_CFG
        bad = tmp_path / "bad.cfg"
        bad.write_text(PAIR_CFG.replace(old, new))
        assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,named", [
        ("base_n = 96", "base = 24", "[mesh] unknown key 'base'"),
        ("[mesh]", "[mseh]", "unknown section [mseh]"),
        ("vary = eps", "vary = eps\nseeds = 3", "[sweep] unknown key 'seeds'"),
        # the seed is --seed's alone
        ("vary = eps", "vary = eps\nseed = 3", "[sweep] unknown key 'seed'"),
        ("case = pair", "case = pair\ncases = B", "[scene] unknown key 'cases'"),
        ("[sweep]", "[background]\ncoefs = 0, 1\n\n[sweep]",
         "[background] unknown key 'coefs'"),
        ("[sweep]", "[groups]\nconductor = 1 | 2\n\n[sweep]",
         "[groups] unknown key 'conductor'"),
        # sinx would drop the body's sin_x term, a different curve
        (PAIR_CASE, "[body 1]\nkind = smooth\ncenter = -1.5, 0\ncos_x = 1.0\nsinx = 0.2\n"
         "sin_y = 0.5\n\n[body 2]\ncenter = 1.5, 0\nradius = 1\n", "[body 1] unknown key 'sinx'"),
        (PAIR_CASE, "[body 1]\ncenter = -1.5, 0\nradius = 1\n\n[body 2]\ncenter = 1.5, 0\n"
         "radius = 1\nradious = 0.5\n", "[body 2] unknown key 'radious'"),
        ("eps = 0.001", "eps = 0.001\nepss = 0.5", "[case] unknown key 'epss'"),
        ("[sweep]", "[body 1]\ncenter = 0, 0\nradius = 1\n\n[sweep]",
         "[body 1] beside [case]"),
    ], ids=["mesh_key", "section", "sweep_key", "sweep_seed", "scene_key", "background_key",
            "groups_key", "smooth_body_key", "disk_body_key", "case_key", "body_beside_case"])
    def test_unknown_names_refused(self, tmp_path, capsys, old, new, named):
        # a mistyped section or key is refused, not ignored: [mesh] base = 24
        # would solve at the default 384 nodes, where base_n = 24 gives 48
        assert old in PAIR_CFG
        bad = tmp_path / "bad.cfg"
        bad.write_text(PAIR_CFG.replace(old, new, 1))
        assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        (FREE_CFG.replace("[body 1]\n", "[body 1]\nkind = blob\n"),
         "[body 1] kind: unknown body kind 'blob'"),
        (FREE_CFG + "\n[background]\ncoeffs = 0, 1x\n",
         "[background] coeffs: bad coefficient list '0, 1x'"),
        ("[mesh]\nbase_n = 96\n", "no [case] section and no [body N] section"),
        (FREE_CFG + "\n[body 2]\ncenter = 0, 3\nradius = 1\n", "duplicate section [body 2]"),
        ("radius = 1\n" + FREE_CFG, "line 1, column 1: key outside any [section]"),
        (FREE_CFG.replace("-1.5, 0", "-1.5, zero"),
         "[body 1] center: bad number list '-1.5, zero'"),
        (FREE_CFG.replace("radius = 1\n", "", 1), "[body 1] missing key 'radius'"),
        (FREE_CFG.replace("-1.5, 0", "-1.5"), "[body 1] center: '-1.5' is not 2 number(s)"),
        (FREE_CFG + "\n[background]\ncoeffs = nan\n",
         "[background] coeffs: non-finite coefficients"),
        (FREE_CFG + "\n[background]\ncoeffs = 0, inf\n",
         "[background] coeffs: non-finite coefficients"),
        (FREE_CFG.replace("-1.5, 0", "nan, 0"), "[body 1] center has non-finite entries"),
        (FREE_CFG.replace("[body 1]\n", "[body 1]\nkind = smooth\ncos_x = 1, nan\n"
                          "sin_y = 1\n").replace("radius = 1\n", "", 1),
         "[body 1] cos_x has non-finite coefficients"),
    ], ids=["body_kind", "background_coeffs", "no_scene", "duplicate_section",
            "key_outside_section", "number_list", "missing_body_key", "number_count",
            "background_nan", "background_inf", "center_nan", "cos_x_nan"])
    def test_run_file_refusals(self, tmp_path, capsys, text, message):
        # every refusal of the run file is a configuration error
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err, err

    @pytest.mark.parametrize("old,new", [("vary = eps", "vary = epss"),
                                         ("vary = eps", "vary = r2\ntie = epss:1")],
                             ids=["vary", "tie"])
    def test_sweep_names_refused(self, tmp_path, capsys, old, new):
        # a name the recipe does not read would sweep one scene on every row
        bad = tmp_path / "bad.cfg"
        bad.write_text(PAIR_CFG.replace(old, new, 1))
        assert main(["sweep", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "'epss' is not a parameter of case pair" in capsys.readouterr().err

    @pytest.mark.parametrize("base,nodes", [("0", None), ("-4", None), ("1", 4), ("3", 8)])
    def test_mesh_base_floor(self, tmp_path, capsys, base, nodes):
        # a base count below 1 is a usage error; 1 and 3 are taken
        # literally, rounded up to an even count per curve
        cfg = tmp_path / "pair.cfg"
        cfg.write_text(PAIR_CFG.replace("base_n = 96", f"base_n = {base}"))
        out = tmp_path / "o"
        code = main(["solve", str(cfg), "--out", str(out)])
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

    @pytest.mark.parametrize("text,old,new,message", [
        (PAIR_CFG, "grid = 1e-3, 1e-2, 4\n", "", "the [sweep] section needs a 'grid' key"),
        (PAIR_CFG, "quantities = potential_difference_21\n", "",
         "the [sweep] section needs a 'quantities' key"),
        (PAIR_CFG, "potential_difference_21", "no_such_quantity",
         "unknown sweep quantities: no_such_quantity"),
        (CASE_B_CFG, "max_gap_gradient_12\nplot", "decomp_c1_abs\nplot",
         "unknown sweep quantities: decomp_c1_abs"),
    ], ids=["no_grid", "no_quantities", "unknown_quantity", "removed_quantity"])
    def test_malformed_sweep_section(self, tmp_path, capsys, text, old, new, message):
        assert old in text
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace(old, new))
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err, err

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


    def test_plot_with_no_plottable_row(self, tmp_path, capsys):
        # a zero background solves to u = 0: no row has a potential
        # difference a log-log plot can show, which is a usage error
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(PAIR_CFG.replace("[sweep]", "[background]\ncoeffs = 0, 0, 0\n\n[sweep]"))
        assert main(["plot", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "'potential_difference_21'" in capsys.readouterr().err


class TestVerify:
    def test_case_a_passes(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("[scene]\ncase = A\n\n[case]\nr1 = 1.0\nr2 = 0.05\n"
                       "r3 = 1.0\na = 0.05\neps = 0.001\n")
        out = tmp_path / "out"
        assert main(["verify", str(cfg), "--out", str(out)]) == 0
        text = (out / "verify.csv").read_text()
        assert "flux_residual_quadrature" in text

    def test_one_operator_per_suite_row(self, tmp_path, monkeypatch):
        # the flux check, last in the report, reads the suite's own rows:
        # verify builds no operator beyond one per row
        built = []
        init = nystrom.SceneOperator.__init__
        monkeypatch.setattr(nystrom.SceneOperator, "__init__",
                            lambda self, *args, **kw: built.append(init(self, *args, **kw)))
        cfg = tmp_path / "b.cfg"
        cfg.write_text("[scene]\ncase = B\n\n[case]\nr1 = 1.0\nr2 = 0.05\n"
                       "r3 = 1.0\neps1 = 0.001\neps2 = 0.001\n")
        out = tmp_path / "out"
        assert main(["verify", str(cfg), "--out", str(out)]) == 0
        # one row per gap of the suite's grid, 1e-5, 1e-4 and 1e-3
        assert len(built) == 3
        assert body_lines(out / "verify.csv")[-1].startswith("flux_residual_quadrature,1.0,1,")

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
                       "r3 = 1.0\na = 0.05\neps = 0.001\n\n[mesh]\nbase_n = 24\n")
        out = tmp_path / "outc"
        assert main(["verify", str(cfg), "--out", str(out)]) == 1


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
