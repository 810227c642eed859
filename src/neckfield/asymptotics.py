"""Predicted blow-up scales for the canonical cases and the named
diagnostic suite that checks the supporting comparison estimates
numerically.

All rate statements carry unknown constants, so every check is a
bounded-ratio (sandwich) verdict over a small gap sweep, never an assertion
of a specific constant. A suite is one ``sweeps.run_sweep`` over its gap
grid plus a table of checks; each check reads one column of
``sweeps.QUANTITIES``, so every value a suite judges can also be swept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidParameterError, InvalidUsageError, SweepFailureError
from .geometry.config import Configuration, build_case, place_around
from .geometry.shapes import Disk
from . import images
from .solver.mesh import MeshControls
from .sweeps import SweepSpec, Tie, run_sweep


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
    def _unjudged(name: str, r: np.ndarray, least: int,
                  detail: str) -> Optional["DiagnosticCheck"]:
        """A failed check if the ratios cannot be judged: one is not finite
        or not positive, or there are fewer than ``least``; else None."""
        fault = ("non-finite ratio" if not np.all(np.isfinite(r))
                 else "nonpositive ratio" if np.any(r <= 0)
                 else "no data" if r.size < least else "")
        if not fault:
            return None
        return DiagnosticCheck(name, r, np.inf, False, f"{detail} ({fault})" if detail else fault)

    @staticmethod
    def from_ratios(name: str, ratios, limit: float, detail: str = "") -> "DiagnosticCheck":
        r = np.asarray(ratios, dtype=float)
        if failed := DiagnosticCheck._unjudged(name, r, 1, detail):
            return failed
        spread = float(np.max(r) / np.min(r))
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
        if failed := DiagnosticCheck._unjudged(name, r, 2, detail):
            return failed
        e = np.asarray(eps_grid, dtype=float)
        slope = np.polyfit(np.log(e), np.log(r), 1)[0]
        spread = float(np.max(r) / np.min(r))
        # pass when the ratio stays under the scale outright (the true
        # quantity may sit below the numerical floor, leaving noise-driven
        # slopes), or when it at least does not grow as the gap closes
        passed = bool(np.max(r) <= 1.0) or bool(slope >= -0.1)
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

# Check tables: (check, quantity, gap scaling, verdict, detail). The
# quantity names a column of sweeps.QUANTITIES; the scaling turns it into
# its ratio (see _ratio); the verdict is a spread limit, "upper" or a flag:
# the reported reduction of the column and the condition every row meets.
_ALL = (np.min, lambda v: v > 0)  # a 0/1 column
_CHECKS = {
    "A": (
        ("potential_difference_identity", "identity_residual", 0, (np.max, lambda v: v <= 1e-6),
         "max relative residual over sweep"),
        ("flux_decay_off_lump", "flux_off_lump", 0.5, _SPREAD_LIMIT,
         "max |d_nu h| off the lump / sqrt(eps)"),
        ("comparison_ratio_range", "outer_pair_ratio", 0,
         (np.max, lambda v: (0 < v) & (v <= 1 + 1e-9)),
         "h difference over outer-pair difference in (0, 1]"),
        ("comparison_sign_condition", "outer_pair_sign", 0, _ALL,
         "d_nu h <= M d_nu psi_outer on the left boundary"),
        ("lump_pair_difference_match", "lump_pair_mismatch", 1, _SPREAD_LIMIT,
         "|h diff - lump-pair diff| / eps"),
    ),
    "B": (
        ("potential_difference_identity", "identity_residual", 0, (np.max, lambda v: v <= 1e-6),
         "grouped conductors, max relative residual"),
        ("far_boundary_flux_sign", "far_flux", 0.5, (np.min, lambda v: v >= -1e-10),
         "flux of the split field through the far boundary is nonnegative"),
        ("far_boundary_flux_decay", "far_flux", 0.5, _SPREAD_LIMIT,
         "flux through far boundary / sqrt(eps1)"),
        ("weighted_flux_decay", "weighted_flux", 0.5, _SPREAD_LIMIT,
         "|sum of H-weighted fluxes| / sqrt(eps1)"),
        ("split_difference_scale_12", "split_difference_12", 0.5, _SPREAD_LIMIT,
         "first split-field difference / sqrt(eps1)"),
        ("split_difference_scale_23", "split_difference_23", 0.5, _SPREAD_LIMIT,
         "second split-field difference / sqrt(eps2)"),
        ("own_gap_gradient_growth_12", "h1_gap_gradient_12", -0.5, _SPREAD_LIMIT,
         "max |grad h1| in gap12 * sqrt(eps1)"),
        ("cross_gap_gradient_decay_12", "h2_gap_gradient_12", 0.5, "upper",
         "max |grad h2| in gap12 / sqrt(eps2)"),
        ("own_gap_gradient_growth_23", "h2_gap_gradient_23", -0.5, _SPREAD_LIMIT,
         "max |grad h2| in gap23 * sqrt(eps2)"),
        ("cross_gap_gradient_decay_23", "h1_gap_gradient_23", 0.5, "upper",
         "max |grad h1| in gap23 / sqrt(eps1)"),
        ("adjacent_pair_domination", "adjacent_pair_domination", 0, _ALL,
         "0 <= d_nu h1 <= d_nu pair field on the middle boundary"),
        ("enclosing_disk_comparison", "enclosing_pair_ratio", 0, _SPREAD_LIMIT,
         "d_nu h1 / d_nu enclosing-pair field on the left boundary"),
        ("enclosing_disk_difference", "enclosing_pair_difference", 0, _ALL,
         "split difference dominates the enclosing-pair difference"),
    ),
    # The first-gap potential difference against both candidate lower-bound
    # scales, unjudged: the statement and its derivation disagree on the
    # radius in the scale. "r1" is half the left body's diameter.
    "D": (
        ("difference_vs_sqrt_eps_over_r2", "potential_difference_21", (0.5, "r2"), np.inf,
         "informational"),
        ("difference_vs_sqrt_eps_over_r1", "potential_difference_21", (0.5, "r1"), np.inf,
         "informational"),
    ),
}


def _ratio(col: np.ndarray, eps: np.ndarray, scaling, radii: dict) -> np.ndarray:
    """A column as its ratio: exponent 1 divides it by eps, +1/2 divides it by
    sqrt(eps / r), -1/2 multiplies it by that, 0 keeps it; (k, name) sets r."""
    k, r = (scaling[0], radii[scaling[1]]) if isinstance(scaling, tuple) else (scaling, 1.0)
    if k == 1:
        return col / eps
    root = np.sqrt(eps / r)
    return col / root if k > 0 else col * root if k < 0 else col


def _check(name: str, col: np.ndarray, eps: np.ndarray, verdict, detail: str) -> DiagnosticCheck:
    if isinstance(verdict, tuple):
        reduce, condition = verdict
        return DiagnosticCheck.from_flag(name, bool(np.all(condition(col))),
                                         float(reduce(col)), detail)
    if verdict == "upper":
        return DiagnosticCheck.from_upper_ratios(name, eps, col, detail)
    return DiagnosticCheck.from_ratios(name, col, verdict, detail)


def lemma_suite(cfg: Configuration, controls: MeshControls = MeshControls(),
                eps_grid: Optional[Sequence[float]] = None,
                seed: int = 0) -> DiagnosticReport:
    """Run the named comparison diagnostics of the scene's case over a gap
    sweep: one ``run_sweep`` over the grid, which rebuilds the scene with
    both gaps set to each grid value, then one check per row of the case's
    table. A row that fails raises its error."""
    tag, p = cfg.case_tag, cfg.params
    if tag not in _CHECKS:
        raise InvalidUsageError(f"no diagnostic suite for case {tag!r}")
    gaps = ("eps",) if tag == "A" else ("eps1", "eps2")
    fixed = {k: v for k, v in p.items() if k not in gaps}
    fixed.update({g: Tie(1.0) for g in gaps[1:]})
    if tag == "D":
        if "r2" not in p:
            raise InvalidParameterError("case D missing parameter 'r2'")
        left, mid, right = cfg.bodies

        def builder(q: dict) -> Configuration:
            # a case-D scene records no recipe for its shapes: re-gap the bodies
            bodies, _ = place_around(mid, left, q["eps1"], right, q["eps2"])
            return Configuration(tuple(bodies), cfg.groups, cfg.background, "D", q)
    else:
        builder = partial(build_case, tag, background=cfg.background)
    checks = _CHECKS[tag]
    table = run_sweep(SweepSpec(
        tag, gaps[0], (1e-5, 1e-4, 1e-3) if eps_grid is None else tuple(eps_grid),
        fixed, tuple(dict.fromkeys(c[1] for c in checks)), controls, seed, builder))
    if table.n_failed:
        raise SweepFailureError(next(e for e in table.errors if e is not None))
    radii = {"r1": cfg.bodies[0].diameter() / 2, "r2": p.get("r2")}
    rep = DiagnosticReport(tag, [
        _check(name, _ratio(table.columns[q], table.values, scaling, radii),
               table.values, verdict, detail)
        for name, q, scaling, verdict, detail in checks])
    if tag == "A":
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
