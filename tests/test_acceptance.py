"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Tolerances are fixed here, not tuned at runtime.
"""

import time

import numpy as np
import pytest

from conftest import run_cli
from neckfield import (Disk, HarmonicBackground, MeshControls, SceneOperator,
                       SmoothBoundary, SweepSpec, Tie, bound_case_a,
                       bound_case_b, bound_case_c, build_case_a, build_case_b,
                       build_case_c, build_case_d, build_two_disks, fit_rate,
                       images, log_grid, max_gap_gradient,
                       representation_coeffs, run_sweep, sandwich_check,
                       solve_h, solve_hc)


def report(num: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} {status}  {description}" + (f"  [{detail}]" if detail else ""))
    assert passed, f"criterion {num}: {description} {detail}"


def probe_ring(count: int, radius: float = 3.0) -> np.ndarray:
    th = np.linspace(0, 2 * np.pi, count, endpoint=False)
    return np.stack([radius * np.cos(th), radius * np.sin(th)], axis=-1)


def test_criterion_1_oracle_equivalence():
    worst_rel = 0.0
    worst_t = 0.0
    for eps in (1e-2, 1e-3, 1e-4):
        cfg = build_two_disks(1.0, 1.0, eps)
        t0 = time.perf_counter()
        h = solve_h(cfg, ((0,), (1,)))
        f = images.psi_two_disks(*(b.disk for b in cfg.bodies))
        pts = np.vstack([probe_ring(120, 3.0),
                         np.stack([np.zeros(80),
                                   np.linspace(2.5 * eps, 1.5, 80)], axis=-1)])
        rel = float(np.max(np.abs(h.potential(pts) - f.potential(pts)))
                    / np.max(np.abs(f.potential(pts))))
        elapsed = time.perf_counter() - t0
        worst_rel = max(worst_rel, rel)
        worst_t = max(worst_t, elapsed)
    report(1, "two-disk solve matches the closed form at 200 probes",
           worst_rel <= 1e-7 and worst_t <= 10.0,
           f"max rel err {worst_rel:.2e}, max time {worst_t:.1f}s")


def test_criterion_2_potential_difference_rate():
    spec = SweepSpec(case_tag="pair", vary="eps", grid=log_grid(1e-5, 1e-2, 8),
                     fixed={"r1": 1.0, "r2": 1.0},
                     quantities=("potential_difference_21",))
    table = run_sweep(spec)
    fit = fit_rate(table, "eps", "potential_difference_21")
    du_small = table.columns["potential_difference_21"][0]
    asym = images.two_disk_asymptotic_difference(1.0, 1.0, table.values[0])
    ratio = du_small / asym
    report(2, "pair potential difference follows the sqrt-gap law",
           abs(fit.exponent - 0.5) <= 0.03 and abs(ratio - 1.0) <= 0.03,
           f"exponent {fit.exponent:.4f}, ratio at 1e-5 {ratio:.4f}")


def test_criterion_3_case_a_tied_sweep():
    rho = 1e-3
    spec = SweepSpec(case_tag="A", vary="r2", grid=log_grid(5e-3, 5e-2, 6),
                     fixed={"r1": 1.0, "r3": 1.0, "a": Tie(1.0), "eps": Tie(rho)},
                     quantities=("potential_difference_21",))
    table = run_sweep(spec)
    assert table.n_failed == 0, table.errors
    fit = fit_rate(table, "r2", "potential_difference_21")
    # the tied prediction (r1 r3/(r1+r3)) r2^-1/2 sqrt(rho r2) is flat in r2
    pred = [bound_case_a(1.0, r2, 1.0, rho * r2).potential_scale
            for r2 in table.values]
    sw = sandwich_check(table, "potential_difference_21", np.asarray(pred),
                        threshold=5.0)
    report(3, "protruding-lump difference follows the tied composite scale",
           abs(fit.exponent - 0.0) <= 0.1 and sw.passed,
           f"exponent {fit.exponent:+.4f} (predicted 0), spread {sw.spread:.2f}")


def test_criterion_4_case_b_scaling():
    t0 = time.perf_counter()
    spec = SweepSpec(case_tag="B", vary="eps1", grid=log_grid(1e-5, 1e-3, 6),
                     fixed={"r1": 1.0, "r2": 0.05, "r3": 1.0, "eps2": 1e-3},
                     quantities=("max_gap_gradient_12",))
    table = run_sweep(spec)
    assert table.n_failed == 0, table.errors
    fit = fit_rate(table, "eps1", "max_gap_gradient_12")

    rho = 1e-3
    spec2 = SweepSpec(case_tag="B", vary="r2", grid=log_grid(5e-3, 5e-2, 6),
                      fixed={"r1": 1.0, "r3": 1.0, "eps1": Tie(rho),
                             "eps2": Tie(rho)},
                      quantities=("max_gap_gradient_12",))
    table2 = run_sweep(spec2)
    assert table2.n_failed == 0, table2.errors
    pred = [bound_case_b(1.0, r2, 1.0, rho * r2, rho * r2)[0].lower_scale
            for r2 in table2.values]
    sw = sandwich_check(table2, "max_gap_gradient_12", np.asarray(pred),
                        threshold=5.0)
    elapsed = time.perf_counter() - t0
    report(4, "middle-disk gradient blow-up follows the amplified rate",
           abs(fit.exponent + 0.5) <= 0.05 and sw.passed and elapsed <= 900.0,
           f"exponent {fit.exponent:+.4f}, tied spread {sw.spread:.2f}, "
           f"{elapsed:.0f}s")


def _case_c_builder(params):
    return build_case_c(SmoothBoundary.ellipse((0.0, 0.0), 1.2, 0.9),
                        Disk((0.0, 0.0), 1.0), Disk((1.0, 0.0), 1.0),
                        params["r2"], params["eps"])


def _case_d_builder(params):
    return build_case_d(SmoothBoundary.ellipse((0.0, 0.0), 1.0, 0.8),
                        SmoothBoundary.ellipse((0.0, 0.0), 1.0, 1.0),
                        SmoothBoundary.ellipse((0.0, 0.0), 1.1, 0.9),
                        params["r2"], params["eps"], params["eps"])


@pytest.mark.parametrize("tag,builder", [("C", _case_c_builder),
                                         ("D", _case_d_builder)])
def test_criterion_5_general_shapes(tag, builder):
    r2 = 0.05
    # The -1/2 law is a limit for eps << r2, so the fit stays in the regime
    # eps/r2 <= 2e-3. The grid stops at 1e-4 because above it the local
    # slopes still drift: -0.68 at eps = 1e-2 (eps/r2 = 0.2), closing in on
    # -1/2 like sqrt(eps/r2) to -0.51 at 1e-6.
    spec = SweepSpec(case_tag=tag, vary="eps", grid=log_grid(1e-6, 1e-4, 5),
                     fixed={"r2": r2}, quantities=("max_gap_gradient_12",),
                     builder=builder)
    table = run_sweep(spec)
    assert table.n_failed == 0, table.errors
    fit = fit_rate(table, "eps", "max_gap_gradient_12")
    pred = [bound_case_c(r2, eps).lower_scale for eps in table.values]
    sw = sandwich_check(table, "max_gap_gradient_12", np.asarray(pred),
                        threshold=8.0)
    report(5, f"case {tag} ellipse-geometry gradient follows the general law",
           abs(fit.exponent + 0.5) <= 0.05 and sw.passed,
           f"exponent {fit.exponent:+.4f}, spread {sw.spread:.2f}")


def test_criterion_6_representation_identity():
    worst_resid = 0.0
    cs = []
    for eps1 in np.geomspace(1e-5, 1e-3, 5):
        cfg = build_case_b(1.0, 0.05, 1.0, float(eps1), 1e-3)
        op = SceneOperator(cfg)
        u = op.solve_u()
        rep = representation_coeffs(cfg, op=op)
        rng = np.random.default_rng(0)
        pts = []
        while len(pts) < 200:
            cand = (rng.random((1000, 2)) - 0.5) * 8
            ok = cfg.exterior_mask(cand)
            for b in cfg.bodies:
                ok &= ~b.contains(cand, pad=0.02)
            pts.extend(cand[ok][:200 - len(pts)])
        pts = np.asarray(pts)
        uv = u.potential(pts)
        scale = float(np.max(np.abs(uv - rep.hc.potential(pts))))
        worst_resid = max(worst_resid,
                          float(np.max(np.abs(uv - rep.potential(pts)))) / scale)
        cs.extend([rep.c1, rep.c2])
    band = max(cs) / min(cs)
    report(6, "split-field representation reconstructs the conductor field",
           worst_resid <= 1e-6 and band <= 2.0,
           f"max residual {worst_resid:.2e}, coefficient band {band:.2f}")


def test_criterion_7_verify_command(verify_ab):
    # the golden record (test_golden.py) checks what the two reports hold
    rc_a, rc_b = verify_ab["A"][0], verify_ab["B"][0]
    report(7, "diagnostic suites pass on the standard scenes",
           rc_a == 0 and rc_b == 0, f"exit codes {rc_a}, {rc_b}")


def test_criterion_8_conservation_and_range():
    cfg = build_case_b(1.0, 0.05, 1.0, 1e-3, 1e-3)
    op = SceneOperator(cfg)
    u = op.solve_u()
    dnu = u.normal_derivative_nodes()
    flux_ok = all(abs(np.sum(u.mesh.weights[u.mesh.body_nodes(b)]
                             * dnu[u.mesh.body_nodes(b)])) <= 1e-8
                  for b in range(3))
    h = op.solve_h(((0,), (1, 2)))
    h_flux_ok = (abs(h.group_flux(0) + 1) <= 1e-6
                 and abs(h.group_flux(1) - 1) <= 1e-6)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-6, 6, size=(40000, 2))
    keep = cfg.exterior_mask(pts)
    for b in cfg.bodies:
        keep &= ~b.contains(pts, pad=1e-3)
    pts = pts[keep][:10000]
    vals = h.potential(pts)
    k1, k2 = h.constant(0), h.constant(1)
    principle_ok = bool(np.all(vals >= k1 - 1e-10) and np.all(vals <= k2 + 1e-10))

    range_ok = True
    rng = np.random.default_rng(123)
    for _ in range(50):
        disks = []
        n_bodies = int(rng.integers(2, 4))
        while len(disks) < n_bodies:
            c = rng.uniform(-2, 2, size=2)
            r = rng.uniform(0.2, 0.7)
            if all(np.hypot(*(c - d.c)) > r + d.radius + 0.05 for d in disks):
                disks.append(Disk(tuple(c), r))
        coeffs = tuple(complex(a, b) for a, b in rng.normal(size=(3, 2)))
        H = HarmonicBackground(coeffs)
        from neckfield import Body, Configuration
        cfg_r = Configuration(tuple(Body.from_disk(d) for d in disks),
                              tuple((i,) for i in range(n_bodies)), H)
        hc = solve_hc(cfg_r, MeshControls(base_n=96))
        if abs(hc.constant(0)) > H.sup_on_disks(disks) + 1e-9:
            range_ok = False
            break
    report(8, "fluxes, the maximum principle and the shared-constant range hold",
           flux_ok and h_flux_ok and principle_ok and range_ok,
           f"fluxes {flux_ok}, unit fluxes {h_flux_ok}, principle "
           f"{principle_ok}, constant range {range_ok}")


def test_criterion_9_sweep_determinism(tmp_path):
    text = ("[scene]\ncase = pair\n\n[case]\nr1 = 1.0\nr2 = 1.0\n"
            "eps = 0.001\n\n[sweep]\nvary = eps\ngrid = 1e-3, 1e-2, 4\n"
            "quantities = potential_difference_21\n\n[mesh]\nbase_n = 96\n")
    (rc1, body1), (rc2, body2) = (run_cli(tmp_path / run, "sweep", text) for run in "12")
    same = body1 == body2
    report(9, "repeated sweep runs produce identical table bodies",
           rc1 == 0 and rc2 == 0 and same, f"identical {same}")
