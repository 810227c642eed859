import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CASE_A, CASE_B, run_cli
from neckfield import SmoothBoundary, asymptotics, build_case_a, build_case_d
from neckfield import cli, sweeps
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


@pytest.fixture
def pair_cfg(tmp_path):
    p = tmp_path / "pair.cfg"
    p.write_text(PAIR_CFG)
    return p


class TestSolve:
    def test_case_b_summary(self, tmp_path):
        code, text = run_cli(tmp_path, "solve", CASE_B_CFG)
        assert code == 0
        assert "potential_difference_21" in text
        assert "potential_difference_32" in text
        assert "max_gap_gradient_12" in text
        assert "max_gap_gradient_23" in text
        # the outer pair's segment crosses the middle disk
        assert "max_gap_gradient_13" not in text
        assert "gap_distance_13" in text
        assert "flux_residual_" in text
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_malformed_config(self, tmp_path):
        assert run_cli(tmp_path, "solve", "[scene\ncase = pair\n")[0] == 2

    def test_missing_config(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("old,new,named", [
        ("r1 = 1.0", "r1 = abc", "[case] r1"),
        ("base_n = 96", "base_n = abc", "[mesh] base_n"),
        ("base_n = 96", "cap = 1e5", "[mesh] cap"),
        ("base_n = 96", "base_n = 0", "[mesh] base_n must be at least 64"),
        (PAIR_CASE, "[body x]\ncenter = 0, 0\nradius = 1\n", "[body x]"),
    ], ids=["case_value", "mesh_base_n", "mesh_cap", "mesh_base_n_zero", "body_section"])
    def test_malformed_values(self, tmp_path, capsys, old, new, named):
        assert old in PAIR_CFG
        assert run_cli(tmp_path, "solve", PAIR_CFG.replace(old, new))[0] == 2
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
        assert run_cli(tmp_path, "solve", PAIR_CFG.replace(old, new, 1))[0] == 2
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
        # a radius near the float limit leaves no gap to rounding: refused,
        # not an overflow
        (PAIR_CFG.replace("r1 = 1.0", "r1 = 1e300"), "[case] bodies overlap or touch"),
        (CASE_B_CFG.replace("r3 = 1.0", "r3 = 1e200"), "[case] bodies overlap or touch"),
        # a radius whose cube underflows would make the curvature 0/0
        (PAIR_CFG.replace("r1 = 1.0", "r1 = 1e-300"),
         "[case] r1 must be a radius of at least 2.81e-103"),
        (PAIR_CFG.replace("r2 = 1.0", "r2 = 5e-324"),
         "[case] r2 must be a radius of at least 2.81e-103"),
        (CASE_B_CFG.replace("r2 = 0.05", "r2 = 1e-300"),
         "[case] r2 must be a radius of at least 2.81e-103"),
        (CASE_B_CFG.replace("r1 = 1.0", "r1 = 5e-324"),
         "[case] r1 must be a radius of at least 2.81e-103"),
        # a gap held to no digit: coordinates of 2 beside a radius whose
        # rounding estimate reaches 1 (a log of zero at 1e-100; at 1e-16 a
        # gap maximum of 40.7 where 3.02 is right)
        (PAIR_CFG.replace("r1 = 1.0", "r1 = 1e-100"),
         "[case] the gap between conductors 1 and 2 is held only to about 4e+84"),
        (CASE_B_CFG.replace("r2 = 0.05", "r2 = 1e-100"),
         "[case] the gap between conductors 1 and 2 is held only to about 4e+84"),
        (PAIR_CFG.replace("r1 = 1.0", "r1 = 1e-16"), "body of radius 1e-16, so it holds no digit"),
        (FREE_CFG.replace("center = 1.5, 0\nradius = 1", "center = 0.5, 0\nradius = 1e-16"),
         "body of radius 1e-16, so it holds no digit"),
    ], ids=["body_kind", "background_coeffs", "no_scene", "duplicate_section",
            "key_outside_section", "number_list", "missing_body_key", "number_count",
            "background_nan", "background_inf", "center_nan", "cos_x_nan", "pair_r1_huge",
            "case_b_r3_huge", "pair_r1_tiny", "pair_r2_subnormal", "case_b_r2_tiny",
            "case_b_r1_subnormal", "pair_r1_no_digit", "case_b_r2_no_digit",
            "pair_r1_1e-16", "free_disk_no_digit"])
    def test_run_file_refusals(self, tmp_path, capsys, text, message):
        # every refusal of the run file is a configuration error
        assert run_cli(tmp_path, "solve", text)[0] == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err, err

    @pytest.mark.parametrize("old,new", [("vary = eps", "vary = epss"),
                                         ("vary = eps", "vary = r2\ntie = epss:1")],
                             ids=["vary", "tie"])
    def test_sweep_names_refused(self, tmp_path, capsys, old, new):
        # a name the recipe does not read would sweep one scene on every row
        assert run_cli(tmp_path, "sweep", PAIR_CFG.replace(old, new, 1))[0] == 2
        assert "'epss' is not a parameter of case pair" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
    @pytest.mark.parametrize("base", ["-4", "0", "1", "3", "63"])
    def test_mesh_base_floor(self, tmp_path, capsys, base, command):
        # a base count below 64 is a configuration error: a mesh that coarse
        # gives wrong numbers (72 nodes on case B put u2 - u1 at 0.859, not
        # 0.01601)
        text = PAIR_CFG.replace("base_n = 96", f"base_n = {base}")
        assert run_cli(tmp_path, command, text)[0] == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: [mesh] base_n must be at least 64"), err

    def test_overwrite_refused_then_forced(self, pair_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", str(pair_cfg), "--out", str(out)]) == 0
        assert main(["solve", str(pair_cfg), "--out", str(out)]) == 3
        assert main(["solve", str(pair_cfg), "--out", str(out), "--force"]) == 0

    # the draws leave the asymptotic regime on purpose
    @pytest.mark.filterwarnings("ignore::neckfield.errors.ScaleRegimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_finite_answer_or_typed_refusal(self, data):
        # a pair or case-B run file whose every [case] value is ordinary,
        # huge, tiny, negative, zero or non-finite: it solves to finite
        # numbers or is refused with a typed message, never a traceback
        defaults = {"pair": {"r1": "1.0", "r2": "1.0", "eps": "0.001"},
                    "B": {"r1": "1.0", "r2": "0.05", "r3": "1.0", "eps1": "0.001",
                          "eps2": "0.001"}}
        extremes = ("0.05", "10", "1e20", "1e200", "1e300", "1.7976931348623157e308",
                    "1e-12", "1e-20", "1e-300", "5e-324", "-1.0", "0", "nan", "inf", "-inf")
        tag = data.draw(st.sampled_from(sorted(defaults)))
        # each value is its default half of the time, so that most draws
        # move one or two values and many of them solve
        values = {k: data.draw(st.one_of(st.just(v), st.sampled_from(extremes)), label=k)
                  for k, v in defaults[tag].items()}
        text = f"[scene]\ncase = {tag}\n\n[case]\n" + "".join(
            f"{k} = {v}\n" for k, v in values.items())
        with tempfile.TemporaryDirectory() as tmp:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, body = run_cli(Path(tmp), "solve", text)
            if code == 0:
                rows = [ln.split(",") for ln in body.splitlines()[1:]]
                assert all(np.isfinite(float(value)) for _, value in rows), rows
            else:
                assert code == 2 and err.getvalue().startswith(
                    ("configuration error: ", "error: ")), (code, err.getvalue())


class TestSweepPipeline:
    def test_deterministic_bodies(self, tmp_path):
        first = run_cli(tmp_path / "1", "sweep", PAIR_CFG)
        assert first[0] == 0 and run_cli(tmp_path / "2", "sweep", PAIR_CFG) == first

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
        code, body = run_cli(tmp_path, "sweep", PAIR_CFG + "\n[background]\ncoeffs = 0, 0, 1\n")
        assert code == 0
        _, cols, errors = parse_table_csv(body)
        assert errors == [None] * 4
        assert np.max(np.abs(cols["potential_difference_21"])) <= 1e-12

    def test_floating_point_failure_fails_its_row(self, tmp_path, monkeypatch):
        # the CLI raises on floating-point overflow: a quantity that
        # overflows at eps = 1e-2 fails that row while the others solve
        monkeypatch.setitem(sweeps.QUANTITIES, "potential_difference_21",
                            lambda ctx: np.exp(1e5 * ctx.cfg.params["eps"]))
        code, body = run_cli(tmp_path, "sweep",
                             PAIR_CFG.replace("grid = 1e-3, 1e-2, 4", "grid = 1e-3, 1e-2, 3"))
        assert code == 0
        _, _, errors = parse_table_csv(body)
        assert errors[:2] == [None, None] and errors[2].startswith("FloatingPointError: ")

    def test_missing_sweep_section(self, tmp_path):
        assert run_cli(tmp_path, "sweep", "[scene]\ncase = pair\n\n" + PAIR_CASE)[0] == 2

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
        assert run_cli(tmp_path, "sweep", text.replace(old, new))[0] == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err, err

    def test_non_finite_grid_is_refused(self, tmp_path, capsys):
        assert run_cli(tmp_path, "sweep", PAIR_CFG.replace("grid = 1e-3, 1e-2, 4",
                                                           "grid = 1e-4, inf, 4")) == (2, None)
        assert "bad log grid" in capsys.readouterr().err

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
        assert run_cli(tmp_path, "plot", PAIR_CFG.replace("[mesh]", line + "\n[mesh]"))[0] == 2
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
        zero = PAIR_CFG.replace("[sweep]", "[background]\ncoeffs = 0, 0, 0\n\n[sweep]")
        assert run_cli(tmp_path, "plot", zero)[0] == 2
        assert "'potential_difference_21'" in capsys.readouterr().err


class TestVerify:
    def test_one_operator_per_suite_row(self, tmp_path, monkeypatch):
        # the flux check, last in the report, reads the suite's own rows:
        # verify builds no operator beyond one per row
        built = []
        init = nystrom.SceneOperator.__init__
        monkeypatch.setattr(nystrom.SceneOperator, "__init__",
                            lambda self, *args, **kw: built.append(init(self, *args, **kw)))
        # the count is of this process's operators: run every row here
        monkeypatch.setattr(sweeps, "_process_count", lambda rows: 1)
        code, body = run_cli(tmp_path, "verify", CASE_B)
        assert code == 0
        # one row per gap of the suite's grid, 1e-5, 1e-4 and 1e-3
        assert len(built) == 3
        assert body.splitlines()[-1].startswith("flux_residual_quadrature,1.0,1,")

    def test_seed_reaches_the_suite(self, tmp_path, monkeypatch):
        # case A's random nestings draw from the run's --seed
        seen = []
        check = asymptotics._monotonicity_check
        monkeypatch.setattr(asymptotics, "_monotonicity_check",
                            lambda seed: seen.append(seed) or check(seed))
        run_cli(tmp_path, "verify", CASE_A, "--seed", "7")
        assert seen == [7]

    def test_coarse_mesh_fails(self, tmp_path, capsys):
        # refused before any solve, as a configuration error
        assert run_cli(tmp_path, "verify", CASE_A + "\n[mesh]\nbase_n = 24\n")[0] == 2
        assert "[mesh] base_n must be at least 64, got 24" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_check_exits_1(self, tmp_path, monkeypatch, capsys):
        # a flux residual above the check's 1e-8 fails verify, which still
        # writes its report
        monkeypatch.setitem(sweeps.QUANTITIES, "flux_residual_rel", lambda ctx: 1e-6)
        code, body = run_cli(tmp_path, "verify", CASE_B)
        assert code == 1
        assert "FAIL  flux_residual_quadrature" in capsys.readouterr().out
        assert body.splitlines()[-1].startswith("flux_residual_quadrature,")


class TestEmittedScene:
    """An emitted scene is free-form: it keeps its case tag but not the
    case parameters that sweeps and the verify suite rebuild it from."""

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_case_a_exits_with_usage_error(self, tmp_path, capsys, command):
        text = (emit_configuration(build_case_a(1.0, 0.05, 1.0, 0.05, 1e-3))
                + "\n[sweep]\nvary = eps\ngrid = 1e-4, 1e-3, 4\n"
                  "quantities = potential_difference_21\n")
        assert run_cli(tmp_path, command, text)[0] == 2
        assert "case A missing parameter 'r1'" in capsys.readouterr().err

    def test_case_d_verify_exits_with_usage_error(self, tmp_path, capsys):
        ell = SmoothBoundary.ellipse
        text = emit_configuration(build_case_d(ell((0.0, 0.0), 1.0, 0.8), ell((0.0, 0.0), 1.0, 1.0),
                                               ell((0.0, 0.0), 1.1, 0.9), 0.05, 1e-3, 1e-3))
        assert run_cli(tmp_path, "verify", text)[0] == 2
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
