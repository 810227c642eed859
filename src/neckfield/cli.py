"""Command-line interface.

Subcommands: ``solve`` (one scene, constants/differences/gradients CSV),
``sweep`` (parameter sweep CSV), ``rates`` (power-law fits CSV), ``plot``
(log-log SVG with fit and guide lines), ``verify`` (diagnostic suite CSV).

Every subcommand takes the run file and ``--out`` (the output directory),
``--force`` (overwrite existing outputs) and ``--seed`` (the seed of the
random probes of sweeps and verify suites). The mesh controls come from the
run file's ``[mesh]`` section only.

Exit status contract: 0 success, 1 a verification check failed, 2 usage or
configuration error, or a numeric failure (a floating-point overflow,
division by zero or invalid operation among them), 3 refusal to overwrite
existing output (pass --force).
Outputs are deterministic for fixed inputs; timestamps only appear in
comment headers.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .asymptotics import lemma_suite
from .errors import DomainError, InvalidParameterError, NeckfieldError
from .geometry.config import CASE_KEYS, build_case
from .geometry.serialize import ConfigParseError, RunInput, _number, parse_run
from .solver.mesh import MeshControls
from .solver.nystrom import SceneOperator, max_gap_gradient
from .svgplot import log_log_plot
from .sweeps import (RateFit, SweepSpec, Tie, fit_power_law, log_grid,
                     parse_table_csv, run_sweep, serialize_table)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3


@dataclass
class RunManifest:
    config: Path
    out: Path
    force: bool = False
    seed: int = 0


def _write(manifest: RunManifest, name: str, content: str) -> Path:
    manifest.out.mkdir(parents=True, exist_ok=True)
    path = manifest.out / name
    if path.exists() and not manifest.force:
        raise FileExistsError(str(path))
    path.write_text(content)
    return path


def _stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S")


def _load(manifest: RunManifest) -> RunInput:
    text = manifest.config.read_text()
    return parse_run(text)


def _controls_for(run: RunInput) -> MeshControls:
    """The run file's [mesh] base_n and cap, the defaults where absent."""
    values = {"base_n": run.mesh.get("base_n"), "cap_total": run.mesh.get("cap")}
    try:
        return MeshControls(**{k: v for k, v in values.items() if v is not None})
    except InvalidParameterError as exc:
        raise ConfigParseError(f"[mesh] {exc}") from None


def cmd_solve(manifest: RunManifest) -> int:
    run = _load(manifest)
    cfg = run.cfg
    controls = _controls_for(run)
    op = SceneOperator(cfg, controls)
    u = op.solve_u()
    lines = [f"# neckfield-solve v1", f"# generated: {_stamp()}",
             "key,value"]
    for g in range(cfg.n_conductors):
        lines.append(f"constant_{g + 1},{u.constant(g)!r}")
    for j in range(1, cfg.n_conductors):
        for i in range(j):
            lines.append(f"potential_difference_{j + 1}{i + 1},"
                         f"{u.potential_difference(j, i)!r}")
    for g, res in enumerate(u.flux_quadrature()):
        lines.append(f"flux_residual_{g + 1},{float(res)!r}")
    for (i, j), info in sorted(cfg.all_conductor_gaps().items()):
        lines.append(f"gap_distance_{i + 1}{j + 1},{info.distance!r}")
        try:
            mg = max_gap_gradient(u, info)
        except DomainError:
            # the segment crosses another conductor: not a gap of the domain
            continue
        lines.append(f"max_gap_gradient_{i + 1}{j + 1},{mg.max_magnitude!r}")
    lines.append(f"mesh_nodes,{op.mesh.n_total}")
    # the condition estimate is a diagnostic: written as sweep.csv writes
    # it, so the body is reproducible across BLAS thread schedules
    lines.append(f"rcond,{u.rcond:.6e}")
    _write(manifest, "solution.csv", "\n".join(lines) + "\n")
    summary = [f"conductors: {cfg.n_conductors}",
               f"mesh nodes: {op.mesh.n_total}"]
    for j in range(1, cfg.n_conductors):
        summary.append(f"u|{j + 1} - u|{j}: "
                       f"{u.potential_difference(j, j - 1):.9g}")
    _write(manifest, "summary.txt", "\n".join(summary) + "\n")
    return EXIT_OK


def _spec_from_run(run: RunInput, seed: int) -> SweepSpec:
    sweep = run.sweep
    if not sweep or "vary" not in sweep:
        raise ConfigParseError("missing [sweep] section with a 'vary' key")
    case_tag = run.cfg.case_tag if run.cfg.case_tag in ("A", "B", "pair") else None
    if case_tag is None:
        raise ConfigParseError("sweeps need a canonical case (A, B or pair)")
    for key in ("grid", "quantities"):
        if key not in sweep:
            raise ConfigParseError(f"the [sweep] section needs a {key!r} key")
    controls = _controls_for(run)
    vary = sweep["vary"].strip()
    ties = [t.split(":") for t in sweep.get("tie", "").split(",") if t.strip()]
    for name in [vary] + [t[0].strip() for t in ties]:
        if name not in CASE_KEYS[case_tag]:
            raise ConfigParseError(f"[sweep] {name!r} is not a parameter of case {case_tag}")
    try:
        lo, hi, pts = (s.strip() for s in sweep["grid"].split(","))
        grid = log_grid(float(lo), float(hi), int(pts))
        quantities = tuple(q.strip() for q in sweep["quantities"].split(",") if q.strip())
        fixed = {k: v for k, v in run.cfg.params.items() if k != vary}
        for name, ratio in ties:
            fixed[name.strip()] = Tie(float(ratio))
        return SweepSpec(case_tag=case_tag, vary=vary, grid=grid, fixed=fixed,
                         quantities=quantities,
                         controls=controls, seed=seed,
                         builder=partial(build_case, case_tag,
                                         background=run.cfg.background))
    except ValueError as exc:
        raise ConfigParseError(f"bad [sweep] section: {exc}") from exc


def cmd_sweep(manifest: RunManifest) -> int:
    run = _load(manifest)
    spec = _spec_from_run(run, manifest.seed)
    table = run_sweep(spec)
    _write(manifest, "sweep.csv", serialize_table(
        table, comments=[f"generated: {_stamp()}",
                         f"case: {spec.case_tag}", f"vary: {spec.vary}"]))
    return EXIT_OK


def _sweep_source(manifest: RunManifest):
    """The run, the varying parameter, the column names and a thunk for the
    columns and row errors. Fits and plots reuse a written sweep.csv so they
    are pure functions of it; else the thunk runs the sweep and reads its
    table back as that file would hold it."""
    path = manifest.out / "sweep.csv"
    run = _load(manifest)
    if path.exists():
        vary, cols, errors = parse_table_csv(path.read_text())
        return run, vary, list(cols), lambda: (cols, errors)
    spec = _spec_from_run(run, manifest.seed)
    names = [spec.vary, *spec.quantities, "mesh_nodes", "rcond"]
    return run, spec.vary, names, \
        lambda: parse_table_csv(serialize_table(run_sweep(spec)))[1:]


def _fit_columns(vary, cols, errors) -> dict[str, RateFit]:
    skip = {vary, "mesh_nodes", "rcond"}
    ok = np.array([e is None for e in errors])
    out: dict[str, RateFit] = {}
    for name, vals in cols.items():
        if name in skip:
            continue
        try:
            out[name] = fit_power_law(np.asarray(cols[vary]), np.asarray(vals), ok)
        except NeckfieldError:
            continue
    return out


def cmd_rates(manifest: RunManifest) -> int:
    _, vary, _, table = _sweep_source(manifest)
    fits = _fit_columns(vary, *table())
    lines = ["# neckfield-rates v1", f"# generated: {_stamp()}",
             "quantity,exponent,intercept,r_squared,n_points"]
    for name, f in fits.items():
        lines.append(f"{name},{f.exponent!r},{f.intercept!r},{f.r_squared!r},{f.n_points}")
    _write(manifest, "rates.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def _guide_slope_for(name: str, run: RunInput) -> float:
    if "guide_slope" in run.sweep:
        return _number("sweep", "guide_slope", run.sweep["guide_slope"])
    return -0.5 if "gradient" in name else 0.5


def cmd_plot(manifest: RunManifest) -> int:
    # both keys are checked before a sweep runs
    run, vary, names, table = _sweep_source(manifest)
    quantity = run.sweep.get("plot_quantity")
    if not quantity:
        quantity = next(c for c in names if c not in (vary, "mesh_nodes", "rcond"))
    if quantity not in names:
        raise ConfigParseError(f"[sweep] plot_quantity: {quantity!r} is not a column "
                               "of the sweep")
    guide = _guide_slope_for(quantity, run)
    cols, errors = table()
    fits = _fit_columns(vary, cols, errors)
    fit = fits.get(quantity)
    x = np.asarray(cols[vary])
    y = np.abs(np.asarray(cols[quantity]))
    good = np.array([e is None for e in errors]) & np.isfinite(y) & (y > 0)
    if not good.any():
        raise ConfigParseError(f"[sweep] plot_quantity: no row of {quantity!r} is finite, "
                               "nonzero and without error, so there is nothing to plot")
    ratios = y[good] / (y[good][0] * (x[good] / x[good][0]) ** guide)
    spread = float(np.max(ratios) / np.min(ratios))
    caption = (f"fit slope {fit.exponent:.3f}" if fit else "fit n/a")
    caption += f", guide {guide:+.2f}, spread vs guide {spread:.2f}"
    svg = log_log_plot(x[good], y[good],
                       fit_slope=fit.exponent if fit else None,
                       fit_intercept=fit.intercept if fit else None,
                       guide_slope=guide,
                       title=f"{quantity} vs {vary}",
                       x_label=vary, y_label=quantity, caption=caption)
    _write(manifest, "plot.svg", svg)
    return EXIT_OK


def cmd_verify(manifest: RunManifest) -> int:
    run = _load(manifest)
    report = lemma_suite(run.cfg, _controls_for(run), seed=manifest.seed)
    body = report.to_csv()
    _write(manifest, "verify.csv",
           f"# neckfield-verify v1\n# generated: {_stamp()}\n" + body)
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        print(f"{status}  {c.name} (spread {c.spread:.3g}) {c.detail}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="neckfield",
        description="Exterior potential fields around near-touching conductors")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, fn in (("solve", cmd_solve), ("sweep", cmd_sweep),
                     ("rates", cmd_rates), ("plot", cmd_plot),
                     ("verify", cmd_verify)):
        p = sub.add_parser(name)
        p.add_argument("config", type=Path)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--force", action="store_true")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    manifest = RunManifest(args.config, args.out, args.force, args.seed)
    try:
        # an overflow, a division by zero or an invalid operation can leave
        # a silently wrong number: each ends the run as a numeric failure
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.fn(manifest)
    except FileExistsError as exc:
        print(f"refusing to overwrite {exc} (use --force)", file=sys.stderr)
        return EXIT_REFUSED
    except (ConfigParseError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NeckfieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: floating-point failure: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
