"""Parameter-sweep harness: run solve families over log-spaced grids, fit
power-law exponents, and check bounded ratios against predicted scales.

Failed rows are kept in the table with their failure cause and excluded
from fits; identical specs (including the seed and the mesh controls)
reproduce tables exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
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


def build_scene(case_tag: str, params: dict,
                builder: Optional[Callable] = None) -> Configuration:
    return builder(params) if builder is not None else build_case(case_tag, params)


class RowContext:
    """Lazy per-row solves shared by the recorded quantities."""

    def __init__(self, cfg: Configuration, controls: MeshControls, seed: int):
        self.cfg = cfg
        self.controls = controls
        self.seed = seed
        self._op = None
        self._u = None
        self._rep = None
        self._hc = None
        self._dec = None

    @property
    def op(self) -> SceneOperator:
        if self._op is None:
            self._op = SceneOperator(self.cfg, self.controls)
        return self._op

    @property
    def u(self):
        if self._u is None:
            self._u = self.op.solve_u()
        return self._u

    @property
    def rep(self):
        if self._rep is None:
            self._rep = representation_coeffs(self.cfg, self.controls, op=self.op)
        return self._rep

    @property
    def hc(self):
        if self._hc is None:
            self._hc = self.op.solve_hc()
        return self._hc

    @property
    def dec(self):
        if self._dec is None:
            max_diam = max(b.diameter() for b in self.cfg.bodies)
            disk0 = Disk((0.0, 0.0), self.cfg.scene_radius() + 2.5 * max_diam)
            self._dec = decompose_u(self.cfg, disk0, self.controls, u=self.u)
        return self._dec

    def gap(self, i: int, j: int):
        return self.cfg.conductor_gap(i, j)

    def mesh_nodes(self) -> int:
        return self.op.mesh.n_total if self._op is not None else 0

    def rcond(self) -> float:
        return self._u.rcond if self._u is not None else np.nan


def _q_potential_difference(j, i):
    def fn(ctx: RowContext) -> float:
        return ctx.u.potential_difference(j, i)
    return fn


def _q_max_gradient(i, j):
    def fn(ctx: RowContext) -> float:
        return max_gap_gradient(ctx.u, ctx.gap(i, j)).max_magnitude
    return fn


def _q_gap_distance(i, j):
    def fn(ctx: RowContext) -> float:
        return ctx.gap(i, j).distance
    return fn


def _require_disks(cfg, count) -> list:
    disks = [b.disk for b in cfg.bodies[:count]]
    if any(d is None for d in disks):
        raise InvalidParameterError("closed-form pair quantities need disk bodies")
    return disks


def _q_psi_gap_difference(ctx: RowContext) -> float:
    d1, d2 = _require_disks(ctx.cfg, 2)
    return images.psi_gap_difference(d1, d2)


def _q_u_difference_oracle(ctx: RowContext) -> float:
    d1, d2 = _require_disks(ctx.cfg, 2)
    return images.two_disk_potential_difference(d1, d2, ctx.cfg.background)


def _q_rep(name):
    def fn(ctx: RowContext) -> float:
        rep = ctx.rep
        if name == "c1":
            return rep.c1
        if name == "c2":
            return rep.c2
        # probe-point residual of the reconstruction, relative to the
        # conductor-induced part of the field
        rng = np.random.default_rng(ctx.seed)
        pts = _exterior_probes(ctx.cfg, 200, rng)
        uv = ctx.u.potential(pts)
        rv = rep.potential(pts)
        scale = float(np.max(np.abs(uv - rep.hc.potential(pts))))
        return float(np.max(np.abs(uv - rv))) / max(scale, 1e-300)
    return fn


def _q_hc_constant(ctx: RowContext) -> float:
    return ctx.hc.constant(0)


def _q_flux_residual_max(ctx: RowContext) -> float:
    return float(np.max(np.abs(ctx.u.flux_quadrature())))


def _q_decomp(name):
    def fn(ctx: RowContext) -> float:
        dec = ctx.dec
        if name == "c1_abs":
            return abs(dec.C1)
        if name == "c3_abs":
            return abs(dec.C3)
        # max |grad v0| on a deterministic probe ring between the bodies
        # and the enclosing circle
        rng = np.random.default_rng(ctx.seed)
        radius = 0.5 * (ctx.cfg.scene_radius() + dec.disk0.radius)
        pts = _exterior_probes(ctx.cfg, 100, rng, radius=radius)
        gr = dec.v0.gradient(pts)
        return float(np.max(np.hypot(gr[:, 0], gr[:, 1])))
    return fn


def _exterior_probes(cfg: Configuration, count: int, rng,
                     radius: Optional[float] = None) -> np.ndarray:
    if radius is not None:
        th = rng.uniform(0, 2 * np.pi, count)
        return np.stack([radius * np.cos(th), radius * np.sin(th)], axis=-1)
    r_scene = cfg.scene_radius()
    pts = []
    while len(pts) < count:
        cand = (rng.random((4 * count, 2)) - 0.5) * 4 * r_scene
        ok = cfg.exterior_mask(cand)
        for b in cfg.bodies:
            ok &= ~b.contains(cand, pad=0.02 * b.diameter())
        pts.extend(cand[ok][: count - len(pts)])
    return np.asarray(pts[:count])


QUANTITIES: dict[str, Callable[[RowContext], float]] = {
    "gap_distance_12": _q_gap_distance(0, 1),
    "gap_distance_23": _q_gap_distance(1, 2),
    "potential_difference_21": _q_potential_difference(1, 0),
    "potential_difference_32": _q_potential_difference(2, 1),
    "max_gap_gradient_12": _q_max_gradient(0, 1),
    "max_gap_gradient_23": _q_max_gradient(1, 2),
    "psi_gap_difference": _q_psi_gap_difference,
    "u_difference_oracle": _q_u_difference_oracle,
    "rep_c1": _q_rep("c1"),
    "rep_c2": _q_rep("c2"),
    "rep_residual": _q_rep("residual"),
    "hc_constant": _q_hc_constant,
    "flux_residual_max": _q_flux_residual_max,
    "decomp_c1_abs": _q_decomp("c1_abs"),
    "decomp_c3_abs": _q_decomp("c3_abs"),
    "decomp_v0_max_grad": _q_decomp("v0_max_grad"),
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
            cfg = build_scene(spec.case_tag, spec.params_at(val), spec.builder)
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
