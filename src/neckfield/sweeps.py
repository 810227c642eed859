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

from .errors import (DomainError, InvalidParameterError, InvalidUsageError,
                     NeckfieldError, SweepFailureError)
from .geometry.config import Configuration, build_case
from .geometry.shapes import Disk
from . import images
from .solver.fields import representation_coeffs
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
        if not np.all(np.isfinite(g)):
            raise InvalidParameterError("sweep grid values must be finite")
        if np.any(np.diff(g) <= 0):
            raise InvalidParameterError("sweep grid must be strictly increasing")
        if not self.quantities:
            raise InvalidParameterError("sweep needs at least one quantity")
        unknown = [q for q in self.quantities if q not in QUANTITIES]
        if unknown:
            raise InvalidParameterError(f"unknown sweep quantities: {', '.join(unknown)}")
        wrong = [q for q in self.quantities if _CASE_OF.get(q, self.case_tag) != self.case_tag]
        if wrong:
            raise InvalidParameterError(f"quantities of another case: {', '.join(wrong)}")

    def params_at(self, value: float) -> dict:
        p = {self.vary: float(value)}
        for k, v in self.fixed.items():
            p[k] = v.ratio * float(value) if isinstance(v, Tie) else float(v)
        return p


def log_grid(lo: float, hi: float, points: int) -> tuple[float, ...]:
    if points < 1 or not 0 < lo < hi < np.inf:
        raise InvalidParameterError("bad log grid specification")
    return tuple(float(v) for v in np.geomspace(lo, hi, points))


class RowContext:
    """Lazy per-row solves shared by the recorded quantities: each is made
    on first use and kept for the rest of the row. h1 and h2 are the
    unit-flux fields of the first and of the last body against the rest;
    u_split is u with h1's two groups as its conductors. The mesh size and
    rcond are those of the operator, which every solve factors, once it is
    built."""

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
    def u_split(self):
        return self.op.solve_u(groups=self._first_split)

    @cached_property
    def h1(self):
        return self.op.solve_h(self._first_split)

    @cached_property
    def h2(self):
        n = len(self.cfg.bodies)
        return self.op.solve_h((tuple(range(n - 1)), (n - 1,)))

    @property
    def _first_split(self):
        return (0,), tuple(range(1, len(self.cfg.bodies)))

    @cached_property
    def rep(self):
        return representation_coeffs(self.cfg, self.controls, op=self.op)

    @cached_property
    def hc(self):
        return self.op.solve_hc()

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


def _exterior_probes(cfg: Configuration, count: int, rng) -> np.ndarray:
    r_scene = cfg.scene_radius()
    pts = []
    while len(pts) < count:
        cand = (rng.random((4 * count, 2)) - 0.5) * 4 * r_scene
        ok = ~np.any([b.contains(cand, pad=0.02 * b.diameter()) for b in cfg.bodies],
                     axis=0)
        pts.extend(cand[ok][: count - len(pts)])
    return np.asarray(pts[:count])


def _gap_gradient(name: str, i: int) -> Callable[[RowContext], float]:
    """Max |grad| of the row's field ``name`` in the gap of conductors i, i + 1."""
    return lambda ctx: max_gap_gradient(getattr(ctx, name),
                                        ctx.cfg.conductor_gap(i, i + 1)).max_magnitude


def _weighted_flux(ctx: RowContext) -> float:
    """Sum of h1's H-weighted fluxes; it equals u_split's difference."""
    return sum(ctx.h1.boundary_flux_weighted(b, ctx.cfg.background)
               for b in range(len(ctx.cfg.bodies)))


def _identity_residual(ctx: RowContext) -> float:
    du = ctx.u_split.constants[1] - ctx.u_split.constants[0]
    return abs(_weighted_flux(ctx) - du) / max(abs(du), 1e-300)


def _flux_residual_rel(ctx: RowContext) -> float:
    """u's largest group flux by node quadrature over its total absolute
    flux, the node quadrature of |nu.grad u|."""
    u = ctx.u
    scale = float(np.sum(u.mesh.weights * np.abs(u.normal_derivative_nodes())))
    return float(np.max(np.abs(u.flux_quadrature()))) / max(scale, 1e-300)


def _dnu_h1_and(ctx: RowContext, pair, curve: int) -> tuple[np.ndarray, np.ndarray]:
    """nu.grad of h1 and of the images field ``pair`` at one curve's nodes,
    nu pointing into the body."""
    cm = ctx.op.mesh.curves[curve]
    return (ctx.h1.normal_derivative_nodes()[ctx.op.mesh.curve_slice(curve)],
            -np.einsum("ij,ij->i", pair.gradient(cm.nodes), cm.normal_out))


def _flux_off_lump(ctx: RowContext) -> float:
    """Max |nu.grad h1| on the lens away from its small disk (case A)."""
    dnu = ctx.h1.normal_derivative_nodes()[ctx.op.mesh.curve_slice(1)]
    on_big = ~ctx.cfg.bodies[1].lens_disks[0].contains(ctx.op.mesh.curves[1].nodes, pad=1e-12)
    return float(np.max(np.abs(dnu[on_big])))


def _outer_pair(ctx: RowContext):
    """Pair field of the left disk and the lens's big disk (case A), and
    h1's difference over the pair's boundary-value difference."""
    psi = images.psi_two_disks(ctx.cfg.bodies[0].disk, ctx.cfg.bodies[1].lens_disks[1])
    return psi, ctx.h1.potential_difference(1, 0) / (psi.boundary_value_2 - psi.boundary_value_1)


def _outer_pair_sign(ctx: RowContext) -> float:
    """1 if d_nu h1 <= M d_nu psi_outer on the left boundary; else 0."""
    psi, m = _outer_pair(ctx)
    lhs, rhs = _dnu_h1_and(ctx, psi, 0)
    return float(np.all(lhs - m * rhs <= 1e-8 * np.max(np.abs(lhs))))


def _adjacent_pair_domination(ctx: RowContext) -> float:
    """1 if 0 <= d_nu h1 <= d_nu of the adjacent pair field on the middle
    boundary and h1's difference lies in (0, the pair's]; else 0 (case B)."""
    pair = images.psi_two_disks(ctx.cfg.bodies[0].disk, ctx.cfg.bodies[1].disk)
    lhs, rhs = _dnu_h1_and(ctx, pair, 1)
    tol = 1e-8 * np.max(np.abs(rhs))
    diff = ctx.h1.potential_difference(1, 0)
    return float(np.all(lhs >= -tol) and np.all(lhs - rhs <= tol) and 0 < diff
                 <= (pair.boundary_value_2 - pair.boundary_value_1) * (1 + 1e-9))


def _enclosing_disks(ctx: RowContext) -> tuple[Disk, Disk]:
    """The left disk and a disk of radius 1.75 r3 around the middle and
    right bodies, whose gap to the left disk is eps1 (case B)."""
    p, bodies = ctx.cfg.params, ctx.cfg.bodies
    radius = 1.75 * p["r3"]
    x = p["eps1"] / 2 + radius
    # containment is tangential at the gap point by construction: allow roundoff
    for b in (bodies[1].disk, bodies[2].disk):
        if np.hypot(b.center[0] - x, b.center[1]) + b.radius - radius > 1e-9 * radius:
            raise InvalidUsageError("enclosing comparison disk does not contain the bodies")
    return bodies[0].disk, Disk((x, 0.0), radius)


def _enclosing_pair_ratio(ctx: RowContext) -> float:
    """Max of d_nu h1 over d_nu of the enclosing pair field on the left
    boundary where the latter is not negligible; nan if d_nu h1 > 0 there."""
    lhs, rhs = _dnu_h1_and(ctx, images.psi_two_disks(*_enclosing_disks(ctx)), 0)
    if not np.all(lhs <= 1e-8 * np.max(np.abs(lhs))):
        return np.nan
    meaningful = np.abs(rhs) >= 1e-3 * np.max(np.abs(rhs))
    return float(np.max(lhs[meaningful] / rhs[meaningful]))


# Each entry is a raw per-row value. The verify suites are check tables
# over these columns (asymptotics.lemma_suite), so a value a suite judges
# can be swept, fitted and plotted too. Entries look up max_gap_gradient and
# the images functions by module-level name when they run: the benchmark's
# tracer (benchmarks/spans.py) replaces those names with timing wrappers,
# and a table that held the function objects themselves would bypass them.
QUANTITIES: dict[str, Callable[[RowContext], float]] = {
    "gap_distance_12": lambda ctx: ctx.cfg.conductor_gap(0, 1).distance,
    "gap_distance_23": lambda ctx: ctx.cfg.conductor_gap(1, 2).distance,
    "potential_difference_21": lambda ctx: ctx.u.potential_difference(1, 0),
    "potential_difference_32": lambda ctx: ctx.u.potential_difference(2, 1),
    "max_gap_gradient_12": _gap_gradient("u", 0),
    "max_gap_gradient_23": _gap_gradient("u", 1),
    "psi_gap_difference": lambda ctx: images.psi_gap_difference(*_pair_disks(ctx.cfg)),
    "u_difference_oracle": lambda ctx: images.two_disk_potential_difference(
        *_pair_disks(ctx.cfg), ctx.cfg.background),
    "rep_c1": lambda ctx: ctx.rep.c1,
    "rep_c2": lambda ctx: ctx.rep.c2,
    "rep_residual": _rep_residual,
    "hc_constant": lambda ctx: ctx.hc.constant(0),
    "flux_residual_max": lambda ctx: float(np.max(np.abs(ctx.u.flux_quadrature()))),
    "flux_residual_rel": _flux_residual_rel,
    "identity_residual": _identity_residual,
    "far_flux": lambda ctx: ctx.h1.boundary_flux(2),
    "weighted_flux": lambda ctx: abs(_weighted_flux(ctx)),
    "split_difference_12": lambda ctx: ctx.h1.potential_difference(1, 0),
    "split_difference_23": lambda ctx: ctx.h2.potential_difference(1, 0),
    "h1_gap_gradient_12": _gap_gradient("h1", 0),
    "h2_gap_gradient_12": _gap_gradient("h2", 0),
    "h1_gap_gradient_23": _gap_gradient("h1", 1),
    "h2_gap_gradient_23": _gap_gradient("h2", 1),
    "flux_off_lump": _flux_off_lump,
    "outer_pair_ratio": lambda ctx: _outer_pair(ctx)[1],
    "outer_pair_sign": _outer_pair_sign,
    "lump_pair_mismatch": lambda ctx: abs(ctx.h1.potential_difference(1, 0) - (
        images.psi_gap_difference(ctx.cfg.bodies[0].disk, ctx.cfg.bodies[1].lens_disks[0]))),
    "adjacent_pair_domination": _adjacent_pair_domination,
    "enclosing_pair_ratio": _enclosing_pair_ratio,
    # 1 if h1's difference is at least the enclosing pair's; else 0
    "enclosing_pair_difference": lambda ctx: float(ctx.h1.potential_difference(1, 0) >= (
        images.psi_gap_difference(*_enclosing_disks(ctx)) * (1 - 1e-9))),
}
# The quantities that read one case's bodies by position, and that case.
_CASE_OF = dict.fromkeys(("flux_off_lump", "outer_pair_ratio", "outer_pair_sign",
                          "lump_pair_mismatch"), "A") | dict.fromkeys(
    ("far_flux", "adjacent_pair_domination", "enclosing_pair_ratio",
     "enclosing_pair_difference"), "B")


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
        if name == self.spec.vary:
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
    return RateFit(float(slope), float(intercept), float(r2), int(np.count_nonzero(mask)))


@dataclass(frozen=True)
class SandwichResult:
    spread: float
    passed: bool


def sandwich_check(table: SweepTable, quantity: str, prediction,
                   threshold: float = 5.0) -> SandwichResult:
    """Bounded-ratio check of a measured quantity against a predicted scale
    column, one value per row. The spread max/min over valid rows is the
    verdict statistic."""
    q = np.abs(table.column(quantity))
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
    return SandwichResult(float(spread), bool(spread <= threshold and mn > 0))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize_table(table: SweepTable, comments: Sequence[str] = ()) -> str:
    """Fixed-column-order CSV: a header, then one row per grid value with
    its mesh size, condition estimate and error. Everything run-dependent
    (timestamps, wall times, ``comments``) lives in comment lines; fits are
    written apart (the CLI's rates.csv)."""
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
    return "\n".join(lines) + "\n"


def parse_table_csv(text: str) -> tuple[str, dict[str, np.ndarray], list[Optional[str]]]:
    """Read back a sweep CSV: the varying parameter name, numeric columns
    (parameter included under its own name), and the per-row error
    strings."""
    rows = []
    header = None
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
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
