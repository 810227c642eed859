"""Parameter-sweep harness: run solve families over log-spaced grids, fit
power-law exponents, and check bounded ratios against predicted scales.

Failed rows are kept in the table with their failure cause and excluded
from fits; identical specs (including the seed and the mesh controls)
reproduce tables exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (DomainError, InvalidParameterError, NeckfieldError,
                     SweepFailureError)
from .geometry.config import Configuration, build_case
from .geometry.shapes import Disk
from . import images
from .solver.fields import decompose_u, representation_coeffs
from .solver.mesh import MeshControls
from .solver.nystrom import SceneOperator, max_gap_gradient


@dataclass(frozen=True)
class Tie:
    """A fixed parameter tied multiplicatively to the varying one, used for
    joint sweeps that must stay inside the small-gap regime (for example
    eps = ratio * r2 while sweeping r2)."""

    ratio: float


@dataclass(frozen=True)
class SweepSpec:
    case_tag: str
    vary: str
    grid: tuple[float, ...]
    fixed: dict = field(default_factory=dict)
    quantities: tuple[str, ...] = ()
    controls: MeshControls = MeshControls()
    seed: int = 0
    builder: Optional[Callable[[dict], Configuration]] = None

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.size == 0:
            raise InvalidParameterError("sweep grid is empty")
        if np.any(np.diff(g) <= 0):
            raise InvalidParameterError("sweep grid must be strictly increasing")
        if not self.quantities:
            raise InvalidParameterError("sweep needs at least one quantity")
        unknown = [q for q in self.quantities if q not in QUANTITIES]
        if unknown:
            raise InvalidParameterError(f"unknown sweep quantities: {', '.join(unknown)}")

    def params_at(self, value: float) -> dict:
        p = {self.vary: float(value)}
        for k, v in self.fixed.items():
            p[k] = v.ratio * float(value) if isinstance(v, Tie) else float(v)
        return p


def log_grid(lo: float, hi: float, points: int) -> tuple[float, ...]:
    if points < 1 or lo <= 0 or hi <= lo:
        raise InvalidParameterError("bad log grid specification")
    return tuple(float(v) for v in np.geomspace(lo, hi, points))


class RowContext:
    """Lazy per-row solves shared by the recorded quantities: each is made
    on first use and kept for the rest of the row. The mesh size and rcond
    are those of the operator, which every solve factors, once it is built."""

    def __init__(self, cfg: Configuration, controls: MeshControls, seed: int):
        self.cfg = cfg
        self.controls = controls
        self.seed = seed

    @cached_property
    def op(self) -> SceneOperator:
        return SceneOperator(self.cfg, self.controls)

    @cached_property
    def u(self):
        return self.op.solve_u()

    @cached_property
    def rep(self):
        return representation_coeffs(self.cfg, self.controls, op=self.op)

    @cached_property
    def hc(self):
        return self.op.solve_hc()

    @cached_property
    def dec(self):
        max_diam = max(b.diameter() for b in self.cfg.bodies)
        disk0 = Disk((0.0, 0.0), self.cfg.scene_radius() + 2.5 * max_diam)
        return decompose_u(self.cfg, disk0, self.controls, u=self.u)

    def mesh_nodes(self) -> int:
        return self.op.mesh.n_total if "op" in vars(self) else 0

    def rcond(self) -> float:
        return self.op.rcond if "op" in vars(self) else np.nan


def _pair_disks(cfg: Configuration) -> list:
    disks = [b.disk for b in cfg.bodies[:2]]
    if any(d is None for d in disks):
        raise InvalidParameterError("closed-form pair quantities need disk bodies")
    return disks


def _rep_residual(ctx: RowContext) -> float:
    """Probe-point residual of the reconstruction, relative to the
    conductor-induced part of the field."""
    rep = ctx.rep
    pts = _exterior_probes(ctx.cfg, 200, np.random.default_rng(ctx.seed))
    uv = ctx.u.potential(pts)
    scale = float(np.max(np.abs(uv - rep.hc.potential(pts))))
    return float(np.max(np.abs(uv - rep.potential(pts)))) / max(scale, 1e-300)


def _v0_max_grad(ctx: RowContext) -> float:
    """Max |grad v0| on a deterministic probe ring between the bodies and
    the enclosing circle."""
    dec = ctx.dec
    radius = 0.5 * (ctx.cfg.scene_radius() + dec.disk0.radius)
    th = np.random.default_rng(ctx.seed).uniform(0, 2 * np.pi, 100)
    gr = dec.v0.gradient(radius * np.stack([np.cos(th), np.sin(th)], axis=-1))
    return float(np.max(np.hypot(gr[:, 0], gr[:, 1])))


def _exterior_probes(cfg: Configuration, count: int, rng) -> np.ndarray:
    r_scene = cfg.scene_radius()
    pts = []
    while len(pts) < count:
        cand = (rng.random((4 * count, 2)) - 0.5) * 4 * r_scene
        ok = ~np.any([b.contains(cand, pad=0.02 * b.diameter()) for b in cfg.bodies],
                     axis=0)
        pts.extend(cand[ok][: count - len(pts)])
    return np.asarray(pts[:count])


# The entries are lambdas, so each looks up max_gap_gradient and the images
# functions by module-level name when it runs. The benchmark's tracer
# (benchmarks/spans.py) replaces those names with timing wrappers; a table
# that held the function objects themselves would bypass them.
QUANTITIES: dict[str, Callable[[RowContext], float]] = {
    "gap_distance_12": lambda ctx: ctx.cfg.conductor_gap(0, 1).distance,
    "gap_distance_23": lambda ctx: ctx.cfg.conductor_gap(1, 2).distance,
    "potential_difference_21": lambda ctx: ctx.u.potential_difference(1, 0),
    "potential_difference_32": lambda ctx: ctx.u.potential_difference(2, 1),
    "max_gap_gradient_12":
        lambda ctx: max_gap_gradient(ctx.u, ctx.cfg.conductor_gap(0, 1)).max_magnitude,
    "max_gap_gradient_23":
        lambda ctx: max_gap_gradient(ctx.u, ctx.cfg.conductor_gap(1, 2)).max_magnitude,
    "psi_gap_difference": lambda ctx: images.psi_gap_difference(*_pair_disks(ctx.cfg)),
    "u_difference_oracle": lambda ctx: images.two_disk_potential_difference(
        *_pair_disks(ctx.cfg), ctx.cfg.background),
    "rep_c1": lambda ctx: ctx.rep.c1,
    "rep_c2": lambda ctx: ctx.rep.c2,
    "rep_residual": _rep_residual,
    "hc_constant": lambda ctx: ctx.hc.constant(0),
    "flux_residual_max": lambda ctx: float(np.max(np.abs(ctx.u.flux_quadrature()))),
    "decomp_c1_abs": lambda ctx: abs(ctx.dec.C1),
    "decomp_c3_abs": lambda ctx: abs(ctx.dec.C3),
    "decomp_v0_max_grad": _v0_max_grad,
}


@dataclass
class SweepTable:
    spec: SweepSpec
    values: np.ndarray
    columns: dict[str, np.ndarray]
    mesh_nodes: np.ndarray
    rcond: np.ndarray
    errors: list[Optional[str]]
    wall_times: np.ndarray

    @property
    def ok_mask(self) -> np.ndarray:
        return np.array([e is None for e in self.errors])

    @property
    def n_failed(self) -> int:
        return int(np.count_nonzero(~self.ok_mask))

    def column(self, name: str) -> np.ndarray:
        if name in ("param", self.spec.vary):
            return self.values
        return self.columns[name]


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Execute the sweep row by row in grid order; failures are recorded,
    never silently dropped."""
    values = np.asarray(spec.grid, dtype=float)
    columns = {q: np.full(values.size, np.nan) for q in spec.quantities}
    mesh_nodes = np.zeros(values.size, dtype=int)
    rcond = np.full(values.size, np.nan)
    errors: list[Optional[str]] = [None] * values.size
    wall = np.zeros(values.size)
    for k, val in enumerate(values):
        t0 = time.perf_counter()
        try:
            p = spec.params_at(val)
            cfg = spec.builder(p) if spec.builder else build_case(spec.case_tag, p)
            ctx = RowContext(cfg, spec.controls, spec.seed)
            for q in spec.quantities:
                columns[q][k] = QUANTITIES[q](ctx)
            mesh_nodes[k] = ctx.mesh_nodes()
            rcond[k] = ctx.rcond()
        except NeckfieldError as exc:
            errors[k] = f"{type(exc).__name__}: {exc}"
        wall[k] = time.perf_counter() - t0
    if all(e is not None for e in errors):
        raise SweepFailureError(f"all {values.size} sweep rows failed; first: {errors[0]}")
    return SweepTable(spec, values, columns, mesh_nodes, rcond, errors, wall)


@dataclass(frozen=True)
class RateFit:
    exponent: float
    intercept: float
    r_squared: float
    residuals: tuple[float, ...]
    n_points: int


def fit_rate(table: SweepTable, x: str, y: str) -> RateFit:
    """Power-law fit (see ``fit_power_law``) of two columns of a table
    over its valid rows."""
    return fit_power_law(table.column(x), table.column(y), table.ok_mask)


def fit_power_law(xv: np.ndarray, yv: np.ndarray, ok: np.ndarray) -> RateFit:
    """Least-squares line through (log x, log y) over the rows that are
    ``ok`` and finite; the exponent is the slope."""
    mask = ok & np.isfinite(xv) & np.isfinite(yv)
    if np.any(mask & ((xv <= 0) | (yv <= 0))):
        raise DomainError("rate fits need positive data")
    if np.count_nonzero(mask) < 4:
        raise InvalidParameterError("rate fit needs at least 4 valid rows")
    lx, ly = np.log10(xv[mask]), np.log10(yv[mask])
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), float(r2),
                   tuple(float(v) for v in (ly - pred)), int(np.count_nonzero(mask)))


@dataclass(frozen=True)
class SandwichResult:
    min_ratio: float
    max_ratio: float
    spread: float
    threshold: float
    passed: bool
    ratios: tuple[float, ...]


def sandwich_check(table: SweepTable, quantity: str, prediction,
                   threshold: float = 5.0) -> SandwichResult:
    """Bounded-ratio check of a measured quantity against a predicted scale
    column (array, or callable mapping the varying parameter to the scale).
    The spread max/min over valid rows is the verdict statistic."""
    q = np.abs(table.column(quantity))
    if callable(prediction):
        pred = np.array([prediction(v) for v in table.values], dtype=float)
    else:
        pred = np.asarray(prediction, dtype=float)
    if pred.shape != table.values.shape:
        raise InvalidParameterError("prediction column length mismatch")
    if np.any(table.ok_mask & (pred == 0)):
        raise DomainError("prediction column contains zeros")
    mask = table.ok_mask & np.isfinite(q)
    ratios = q[mask] / pred[mask]
    if ratios.size == 0:
        raise InvalidParameterError("no valid rows for the sandwich check")
    mn, mx = float(np.min(ratios)), float(np.max(ratios))
    spread = mx / mn if mn > 0 else np.inf
    return SandwichResult(mn, mx, float(spread), threshold,
                          bool(spread <= threshold and mn > 0),
                          tuple(float(r) for r in ratios))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize_table(table: SweepTable, fits: Optional[dict[str, RateFit]] = None,
                    sandwiches: Optional[dict[str, SandwichResult]] = None,
                    comments: Sequence[str] = ()) -> str:
    """Fixed-column-order CSV with an optional key=value footer; everything
    run-dependent (timestamps, wall times) lives in comment lines."""
    lines = ["# neckfield-sweep v1"]
    for c in comments:
        lines.append(f"# {c}")
    lines.append("# wall_times_s: " + ",".join(f"{t:.3f}" for t in table.wall_times))
    names = list(table.spec.quantities)
    lines.append(",".join([f"param:{table.spec.vary}"] + names
                          + ["mesh_nodes", "rcond", "error"]))
    for k, v in enumerate(table.values):
        row = [repr(float(v))]
        row += [repr(float(table.columns[q][k])) for q in names]
        row.append(str(int(table.mesh_nodes[k])))
        # the condition estimate is a diagnostic; 6 digits keeps the body
        # reproducible across BLAS thread schedules
        row.append(f"{table.rcond[k]:.6e}")
        row.append("" if table.errors[k] is None else table.errors[k].replace(",", ";"))
        lines.append(",".join(row))
    if fits:
        lines.append("[fits]")
        for name, f in fits.items():
            lines.append(f"{name}.exponent = {f.exponent!r}")
            lines.append(f"{name}.intercept = {f.intercept!r}")
            lines.append(f"{name}.r_squared = {f.r_squared!r}")
            lines.append(f"{name}.n_points = {f.n_points}")
    if sandwiches:
        lines.append("[sandwich]")
        for name, s in sandwiches.items():
            lines.append(f"{name}.min_ratio = {s.min_ratio!r}")
            lines.append(f"{name}.max_ratio = {s.max_ratio!r}")
            lines.append(f"{name}.spread = {s.spread!r}")
            lines.append(f"{name}.threshold = {s.threshold!r}")
            lines.append(f"{name}.passed = {int(s.passed)}")
    return "\n".join(lines) + "\n"


def parse_table_csv(text: str) -> tuple[str, dict[str, np.ndarray], list[Optional[str]]]:
    """Read back the tabular part of a sweep CSV: the varying parameter
    name, numeric columns (parameter included under its own name), and the
    per-row error strings."""
    rows = []
    header = None
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            break
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    if header is None:
        raise InvalidParameterError("no CSV header found")
    vary = header[0].split(":", 1)[1]
    names = [vary] + header[1:-1]
    cols: dict[str, np.ndarray] = {}
    for j, name in enumerate(names):
        cols[name] = np.array([float(r[j]) if r[j] != "" else np.nan for r in rows])
    errors = [r[-1] if r[-1] != "" else None for r in rows]
    return vary, cols, errors
