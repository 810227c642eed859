"""Predicted blow-up scales for the canonical cases and the named
diagnostic suite that checks the supporting comparison estimates
numerically.

All rate statements carry unknown constants, so every check is a
bounded-ratio (sandwich) verdict over a small gap sweep, never an assertion
of a specific constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidParameterError, InvalidUsageError
from .geometry.config import Configuration, build_case, place_around
from .geometry.shapes import Disk
from . import images
from .solver.mesh import MeshControls
from .solver.nystrom import SceneOperator, max_gap_gradient


@dataclass(frozen=True)
class BoundPrediction:
    """Gradient scale shared by the lower and upper bounds of one gap (both
    carry free constants, so lower_scale == upper_scale as formulas), plus
    the matching potential-difference scale."""

    case_tag: str
    lower_scale: float
    upper_scale: float
    potential_scale: float
    formula: str

    def __post_init__(self):
        if not (self.lower_scale > 0 and self.upper_scale > 0):
            raise InvalidParameterError("bound scales must be positive")


def _scale_law(tag: str, formula: str, gaps: dict[str, float], r2: float = 1.0,
               radii: tuple[float, ...] = ()) -> tuple[BoundPrediction, ...]:
    """One prediction per gap eps: gradient pref / sqrt(r2 eps) and potential
    difference pref sqrt(eps / r2), where pref = r1 r3 / (r1 + r3) for the
    given outer radii and 1 without them. Every input must be positive; a
    ``{i}`` in the formula becomes the gap's index."""
    for name, v in dict(zip(("r1", "r3"), radii), r2=r2, **gaps).items():
        if v <= 0:
            raise InvalidParameterError(f"{name} must be positive")
    pref = radii[0] * radii[1] / (radii[0] + radii[1]) if radii else 1.0
    out = []
    for i, eps in enumerate(gaps.values(), 1):
        grad = pref / np.sqrt(r2 * eps)
        out.append(BoundPrediction(tag, grad, grad, pref * np.sqrt(eps / r2),
                                   formula.format(i=i)))
    return tuple(out)


def bound_case_a(r1: float, r2: float, r3: float, eps: float) -> BoundPrediction:
    """Scales (r1 r3/(r1+r3)) r2^(-1/2) eps^(-1/2) for the gradient and
    (r1 r3/(r1+r3)) r2^(-1/2) eps^(+1/2) for the potential difference."""
    return _scale_law("A", "r1*r3/(r1+r3) / sqrt(r2*eps)", {"eps": eps}, r2, (r1, r3))[0]


def bound_case_b(r1: float, r2: float, r3: float, eps1: float,
                 eps2: float) -> tuple[BoundPrediction, BoundPrediction]:
    return _scale_law("B", "r1*r3/(r1+r3) / sqrt(r2*eps_i)",
                      {"eps1": eps1, "eps2": eps2}, r2, (r1, r3))


def bound_case_c(r2: float, eps: float) -> BoundPrediction:
    """General shapes absorb the radii prefactor into the constant."""
    return _scale_law("C", "1/sqrt(r2*eps)", {"eps": eps}, r2)[0]


def bound_case_d(r2: float, eps1: float, eps2: float) -> tuple[BoundPrediction, BoundPrediction]:
    return _scale_law("D", "1/sqrt(r2*eps_{i})", {"eps1": eps1, "eps2": eps2}, r2)


def bound_three_general(eps1: float, eps2: float) -> tuple[BoundPrediction, BoundPrediction]:
    """Three comparable conductors: the middle body is not assumed small, so
    the scales carry no r2 factor."""
    return _scale_law("three", "1/sqrt(eps_{i})", {"eps1": eps1, "eps2": eps2})


# ---------------------------------------------------------------------------
# diagnostic suite
# ---------------------------------------------------------------------------


@dataclass
class DiagnosticCheck:
    name: str
    ratios: np.ndarray
    spread: float
    passed: bool
    detail: str = ""

    @staticmethod
    def from_ratios(name: str, ratios, limit: float, detail: str = "") -> "DiagnosticCheck":
        r = np.asarray(ratios, dtype=float)
        finite = r[np.isfinite(r)]
        if finite.size == 0 or np.any(finite <= 0):
            return DiagnosticCheck(name, r, np.inf, False, detail or "nonpositive ratio")
        spread = float(np.max(finite) / np.min(finite))
        return DiagnosticCheck(name, r, spread, spread <= limit, detail)

    @staticmethod
    def from_flag(name: str, passed: bool, value: float, detail: str = "") -> "DiagnosticCheck":
        return DiagnosticCheck(name, np.array([value]), 1.0, passed, detail)

    @staticmethod
    def from_upper_ratios(name: str, eps_grid, ratios,
                          detail: str = "") -> "DiagnosticCheck":
        """One-sided boundedness: the measured ratio may shrink as the gap
        closes (the bound is then slack) but must not grow; tested as a
        nonnegative fitted slope of log(ratio) against log(gap)."""
        r = np.asarray(ratios, dtype=float)
        e = np.asarray(eps_grid, dtype=float)
        good = np.isfinite(r) & (r > 0)
        if np.count_nonzero(good) < 2:
            return DiagnosticCheck(name, r, np.inf, False, detail or "no data")
        slope = np.polyfit(np.log(e[good]), np.log(r[good]), 1)[0]
        spread = float(np.max(r[good]) / np.min(r[good]))
        # pass when the ratio stays under the scale outright (the true
        # quantity may sit below the numerical floor, leaving noise-driven
        # slopes), or when it at least does not grow as the gap closes
        passed = bool(np.max(r[good]) <= 1.0) or bool(slope >= -0.1)
        return DiagnosticCheck(name, r, spread, passed,
                               detail + f" (ratio-vs-gap slope {slope:.2f})")


@dataclass
class DiagnosticReport:
    case_tag: str
    checks: list[DiagnosticCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_csv(self) -> str:
        lines = ["check,spread,passed,ratios,detail"]
        for c in self.checks:
            vals = ";".join(repr(float(v)) for v in np.atleast_1d(c.ratios))
            lines.append(f"{c.name},{c.spread!r},{int(c.passed)},{vals},{c.detail}")
        return "\n".join(lines) + "\n"


# Largest spread max/min over the gap grid of a ratio checked as bounded.
_SPREAD_LIMIT = 10.0


def _nu_grad(field, pts, normals_out):
    """nu . grad of an images field, with nu pointing into the body."""
    return -np.einsum("ij,ij->i", field.gradient(pts), normals_out)


def lemma_suite(cfg: Configuration, controls: MeshControls = MeshControls(),
                eps_grid: Optional[Sequence[float]] = None,
                seed: int = 0) -> DiagnosticReport:
    """Run the named comparison diagnostics appropriate to the scene's case
    over a gap sweep (the case parameters stored by the builder are reused
    with the gap replaced by each grid value)."""
    if cfg.case_tag == "A":
        return _suite_case_a(cfg, controls, eps_grid, seed)
    if cfg.case_tag == "B":
        return _suite_case_b(cfg, controls, eps_grid)
    if cfg.case_tag == "D":
        return _suite_case_d(cfg, controls, eps_grid)
    raise InvalidUsageError(f"no diagnostic suite for case {cfg.case_tag!r}")


def _eps_grid(eps_grid) -> np.ndarray:
    if eps_grid is None:
        return np.array([1e-5, 1e-4, 1e-3])
    g = np.asarray(list(eps_grid), dtype=float)
    if np.any(g <= 0):
        raise InvalidParameterError("gap grid must be positive")
    return g


def _identity_residual(op: SceneOperator, h, u, groups) -> float:
    """Relative residual of the two-conductor potential-difference identity:
    the difference of u's boundary constants against the weighted fluxes of
    the unit-flux field."""
    H = op.cfg.background
    total = sum(h.boundary_flux_weighted(b, H) for g in groups for b in g)
    du = u.constants[1] - u.constants[0]
    return abs(total - du) / max(abs(du), 1e-300)


def _suite_case_a(cfg, controls, eps_grid, seed) -> DiagnosticReport:
    p = cfg.params
    grid = _eps_grid(eps_grid)
    rep = DiagnosticReport("A")
    ident, corner_decay, m_vals, sign_ok, gapdiff = [], [], [], [], []
    for eps in grid:
        c = build_case("A", dict(p, eps=eps), cfg.background)
        op = SceneOperator(c, controls)
        h = op.solve_h(((0,), (1,)))
        u = op.solve_u()
        ident.append(_identity_residual(op, h, u, ((0,), (1,))))

        # flux density away from the protruding lump decays like sqrt(eps)
        mesh = op.mesh
        lens_cm = mesh.curves[1]
        dnu = h.normal_derivative_nodes()[mesh.curve_slice(1)]
        small = c.bodies[1].lens_disks[0]
        on_big = ~small.contains(lens_cm.nodes, pad=1e-12)
        corner_decay.append(float(np.max(np.abs(dnu[on_big]))) / np.sqrt(eps))

        # comparison against the pair field of the outer disks
        d1 = c.bodies[0].disk
        b3 = c.bodies[1].lens_disks[1]
        psi3 = images.psi_two_disks(d1, b3)
        h_diff = h.constants[1] - h.constants[0]
        psi3_diff = psi3.boundary_value_2 - psi3.boundary_value_1
        m = h_diff / psi3_diff
        m_vals.append(m)
        cm1 = mesh.curves[0]
        lhs = h.normal_derivative_nodes()[mesh.curve_slice(0)]
        rhs = m * _nu_grad(psi3, cm1.nodes, cm1.normal_out)
        scale = float(np.max(np.abs(lhs)))
        sign_ok.append(bool(np.all(lhs - rhs <= 1e-8 * scale)))

        # the pair field of the small lump alone carries the same difference
        b2 = c.bodies[1].lens_disks[0]
        h2_diff = images.psi_gap_difference(d1, b2)
        gapdiff.append(abs(h_diff - h2_diff) / eps)

    rep.checks.append(DiagnosticCheck.from_flag(
        "potential_difference_identity", max(ident) <= 1e-6, max(ident),
        "max relative residual over sweep"))
    rep.checks.append(DiagnosticCheck.from_ratios(
        "flux_decay_off_lump", corner_decay, _SPREAD_LIMIT,
        "max |d_nu h| off the lump / sqrt(eps)"))
    rep.checks.append(DiagnosticCheck.from_flag(
        "comparison_ratio_range", all(0 < m <= 1 + 1e-9 for m in m_vals),
        max(m_vals), "h difference over outer-pair difference in (0, 1]"))
    rep.checks.append(DiagnosticCheck.from_flag(
        "comparison_sign_condition", all(sign_ok), float(all(sign_ok)),
        "d_nu h <= M d_nu psi_outer on the left boundary"))
    rep.checks.append(DiagnosticCheck.from_ratios(
        "lump_pair_difference_match", gapdiff, _SPREAD_LIMIT,
        "|h diff - lump-pair diff| / eps"))
    rep.checks.append(_monotonicity_check(seed))
    return rep


def _monotonicity_check(seed: int, trials: int = 20) -> DiagnosticCheck:
    """Nested disk pairs: enlarging either body can only lower the pair
    field's boundary-value difference (checked in closed form)."""
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(trials):
        r_a, r_b = 0.5 + rng.random(2)
        gap = 10.0 ** rng.uniform(-4, -1)
        big_a = Disk((-r_a - gap / 2, 0.0), r_a)
        big_b = Disk((r_b + gap / 2, 0.0), r_b)
        shrink_a, shrink_b = 0.3 + 0.7 * rng.random(2)
        off_a = (1 - shrink_a) * r_a * rng.uniform(-1, 1)
        off_b = (1 - shrink_b) * r_b * rng.uniform(-1, 1)
        small_a = Disk((big_a.center[0] + off_a, 0.0), shrink_a * r_a)
        small_b = Disk((big_b.center[0] + off_b, 0.0), shrink_b * r_b)
        d_big = images.psi_gap_difference(big_a, big_b)
        d_small = images.psi_gap_difference(small_a, small_b)
        ok &= bool(0 <= d_big <= d_small * (1 + 1e-12))
    return DiagnosticCheck.from_flag("pair_difference_monotonicity", ok, float(ok),
                                     f"{trials} random nestings")


def _enclosing_disk(c: Configuration, factor: float = 1.75) -> Disk:
    """Disk around the middle and right bodies whose gap to the left body
    equals the first gap (radius factor * r3, inside the sanctioned range)."""
    p = c.params
    eps1, r3 = p["eps1"], p["r3"]
    radius = factor * r3
    center = (eps1 / 2 + radius, 0.0)
    d4 = Disk(center, radius)
    # containment is tangential at the gap point by construction, so allow
    # roundoff slack
    for b in (c.bodies[1].disk, c.bodies[2].disk):
        excess = np.hypot(b.center[0] - center[0], b.center[1] - center[1]) \
            + b.radius - radius
        if excess > 1e-9 * radius:
            raise InvalidUsageError("enclosing comparison disk does not contain the bodies")
    return d4


def _suite_case_b(cfg, controls, eps_grid) -> DiagnosticReport:
    p = cfg.params
    grid = _eps_grid(eps_grid)
    rep = DiagnosticReport("B")
    ident = []
    d3_flux, wflux = [], []
    h1_diff_ratio, h2_diff_ratio = [], []
    grad_h1_gap12, grad_h2_gap12, grad_h1_gap23, grad_h2_gap23 = [], [], [], []
    dominate_ok, enclose_ratio, enclose_diff_ok = [], [], []
    for eps in grid:
        c = build_case("B", dict(p, eps1=eps, eps2=eps), cfg.background)
        op = SceneOperator(c, controls)
        h1 = op.solve_h(((0,), (1, 2)))
        h2 = op.solve_h(((0, 1), (2,)))
        u_grouped = op.solve_u(groups=((0,), (1, 2)))
        ident.append(_identity_residual(op, h1, u_grouped, ((0,), (1, 2))))

        # unit-flux field of the far pair leaks only O(sqrt(eps)) through D3
        f3 = h1.boundary_flux(2)
        d3_flux.append(f3 / np.sqrt(eps))
        wf = sum(h1.boundary_flux_weighted(b, cfg.background) for b in range(3))
        wflux.append(abs(wf) / np.sqrt(eps))

        h1_diff = h1.constants[1] - h1.constants[0]
        h2_diff = h2.constants[1] - h2.constants[0]
        h1_diff_ratio.append(h1_diff / np.sqrt(eps))
        h2_diff_ratio.append(h2_diff / np.sqrt(eps))

        g12 = c.conductor_gap(0, 1)
        g23 = c.conductor_gap(1, 2)
        grad_h1_gap12.append(max_gap_gradient(h1, g12).max_magnitude * np.sqrt(eps))
        grad_h2_gap12.append(max_gap_gradient(h2, g12).max_magnitude / np.sqrt(eps))
        grad_h1_gap23.append(max_gap_gradient(h1, g23).max_magnitude / np.sqrt(eps))
        grad_h2_gap23.append(max_gap_gradient(h2, g23).max_magnitude * np.sqrt(eps))

        # pointwise domination by the adjacent pair field on the middle body
        d1, d2 = c.bodies[0].disk, c.bodies[1].disk
        pair = images.psi_two_disks(d1, d2)
        mesh = op.mesh
        cm2 = mesh.curves[1]
        lhs = h1.normal_derivative_nodes()[mesh.curve_slice(1)]
        rhs = _nu_grad(pair, cm2.nodes, cm2.normal_out)
        scale = float(np.max(np.abs(rhs)))
        dominate_ok.append(bool(np.all(lhs >= -1e-8 * scale))
                           and bool(np.all(lhs - rhs <= 1e-8 * scale)))
        pair_diff = pair.boundary_value_2 - pair.boundary_value_1
        dominate_ok[-1] &= bool(0 < h1_diff <= pair_diff * (1 + 1e-9))

        # comparison with the enclosing disk of the right-hand pair
        d4 = _enclosing_disk(c)
        psi4 = images.psi_two_disks(d1, d4)
        cm1 = mesh.curves[0]
        lhs1 = h1.normal_derivative_nodes()[mesh.curve_slice(0)]
        rhs1 = _nu_grad(psi4, cm1.nodes, cm1.normal_out)
        ok = bool(np.all(lhs1 <= 1e-8 * np.max(np.abs(lhs1))))
        # compare only where the comparison density is not negligible
        meaningful = np.abs(rhs1) >= 1e-3 * np.max(np.abs(rhs1))
        ratios = lhs1[meaningful] / rhs1[meaningful]
        enclose_ratio.append(float(np.max(ratios)) if ok else np.nan)
        psi4_diff = psi4.boundary_value_2 - psi4.boundary_value_1
        enclose_diff_ok.append(bool(h1_diff >= psi4_diff * (1 - 1e-9)))

    rep.checks.append(DiagnosticCheck.from_flag(
        "potential_difference_identity", max(ident) <= 1e-6, max(ident),
        "grouped conductors, max relative residual"))
    rep.checks.append(DiagnosticCheck.from_flag(
        "far_boundary_flux_sign", all(v >= -1e-10 for v in d3_flux), min(d3_flux),
        "flux of the split field through the far boundary is nonnegative"))
    rep.checks.append(DiagnosticCheck.from_ratios(
        "far_boundary_flux_decay", d3_flux, _SPREAD_LIMIT,
        "flux through far boundary / sqrt(eps1)"))
    rep.checks.append(DiagnosticCheck.from_ratios(
        "weighted_flux_decay", wflux, _SPREAD_LIMIT,
        "|sum of H-weighted fluxes| / sqrt(eps1)"))
    rep.checks.append(DiagnosticCheck.from_ratios(
        "split_difference_scale_12", h1_diff_ratio, _SPREAD_LIMIT,
        "first split-field difference / sqrt(eps1)"))
    rep.checks.append(DiagnosticCheck.from_ratios(
        "split_difference_scale_23", h2_diff_ratio, _SPREAD_LIMIT,
        "second split-field difference / sqrt(eps2)"))
    rep.checks.append(DiagnosticCheck.from_ratios(
        "own_gap_gradient_growth_12", grad_h1_gap12, _SPREAD_LIMIT,
        "max |grad h1| in gap12 * sqrt(eps1)"))
    rep.checks.append(DiagnosticCheck.from_upper_ratios(
        "cross_gap_gradient_decay_12", grid, grad_h2_gap12,
        "max |grad h2| in gap12 / sqrt(eps2)"))
    rep.checks.append(DiagnosticCheck.from_ratios(
        "own_gap_gradient_growth_23", grad_h2_gap23, _SPREAD_LIMIT,
        "max |grad h2| in gap23 * sqrt(eps2)"))
    rep.checks.append(DiagnosticCheck.from_upper_ratios(
        "cross_gap_gradient_decay_23", grid, grad_h1_gap23,
        "max |grad h1| in gap23 / sqrt(eps1)"))
    rep.checks.append(DiagnosticCheck.from_flag(
        "adjacent_pair_domination", all(dominate_ok), float(all(dominate_ok)),
        "0 <= d_nu h1 <= d_nu pair field on the middle boundary"))
    rep.checks.append(DiagnosticCheck.from_ratios(
        "enclosing_disk_comparison", enclose_ratio, _SPREAD_LIMIT,
        "d_nu h1 / d_nu enclosing-pair field on the left boundary"))
    rep.checks.append(DiagnosticCheck.from_flag(
        "enclosing_disk_difference", all(enclose_diff_ok), float(all(enclose_diff_ok)),
        "split difference dominates the enclosing-pair difference"))
    return rep


def _suite_case_d(cfg, controls, eps_grid) -> DiagnosticReport:
    """Reports the first-gap potential difference against both candidate
    lower-bound scales side by side (their ratio is left unjudged; the
    statement and its derivation disagree on the radius entering the
    scale)."""
    p = cfg.params
    if "r2" not in p:
        raise InvalidParameterError("case D missing parameter 'r2'")
    grid = _eps_grid(eps_grid)
    rep = DiagnosticReport("D")
    per_r2, per_r1 = [], []
    r1_est = cfg.bodies[0].diameter() / 2
    left, mid, right = cfg.bodies
    for eps in grid:
        # a case-D scene records no recipe for its shapes: re-gap the bodies
        bodies, _ = place_around(mid, left, eps, right, eps)
        c = Configuration(tuple(bodies), cfg.groups, cfg.background, "D",
                          dict(p, eps1=eps, eps2=eps))
        op = SceneOperator(c, controls)
        u = op.solve_u()
        du = u.constants[1] - u.constants[0]
        per_r2.append(du / np.sqrt(eps / p["r2"]))
        per_r1.append(du / np.sqrt(eps / r1_est))
    rep.checks.append(DiagnosticCheck.from_ratios(
        "difference_vs_sqrt_eps_over_r2", per_r2, np.inf, "informational"))
    rep.checks.append(DiagnosticCheck.from_ratios(
        "difference_vs_sqrt_eps_over_r1", per_r1, np.inf, "informational"))
    return rep
