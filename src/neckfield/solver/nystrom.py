"""Single-layer Nystrom solver for the exterior and interior Laplace
problems of the package.

Representation: fields are ``S[sigma](x) = (1/2pi) int log|x-y| sigma(y) ds(y)``
(plus the harmonic background where one applies), discretized with the
periodic trapezoid rule and the Kussmaul-Martensen log-singularity weights on
each curve's own block. The unknown per node is ``g = sigma * |dx/dt|``, the
density times the parameterization speed, which keeps columns uniformly
scaled under heavy grading.

Fourier convention: every trigonometric interpolation here is the one the
Kussmaul-Martensen weights integrate exactly, the Dirichlet kernel of the
even midpoint grid with the Nyquist mode split evenly between +N/2 and
-N/2 (``_dirichlet_rows``, in closed form at arbitrary parameters). The
spectral derivative and antiderivative in t (``_spectral``) drop the
Nyquist mode, whose derivative on the grid is ambiguous.

Off-curve rule: one evaluator serves every target of every curve, the
cross blocks of S in assembly as much as ``potential``, ``gradient`` and
the normal derivative on the boundary, at any distance. K' is never
assembled: its cross part is this evaluator's derivative applied to the
other curves' densities, its own-curve part a block applied to the curve's
own density. Each curve's single layer is written as
``Re F + (Q/2pi) log|z - z_c|`` with F analytic off the curve, Q the
curve's charge and z_c a point well inside its body. F is built once per
operator at the nodes as a linear map of the curve's g, stored once as the
real stack [Re F; -Im F]; F' g is taken per call as the spectral derivative
of F g over y' (``_CurveData``). Off the curve both follow from the globally
compensated Cauchy sum
``F(z) = sum_j F_j w_j/(y_j - z) / (sum_j w_j/(y_j - z) - 2pi i)``,
``w_j = y'(t_j) h`` (Helsing & Ojala, J. Comput. Phys. 227 (2008) 2899;
Barnett, SIAM J. Sci. Comput. 36 (2014) A427), whose errors in numerator
and denominator cancel next to the curve. That sum takes F to vanish at
infinity, so the exterior data are shifted to make it so. The enclosing
curve of ``decompose_u`` is seen from inside: no log term and no -2pi i.
Inside a body the exterior denominator vanishes; ``potential`` and
``gradient`` check the domain.

Sign conventions (used consistently everywhere):

  * the boundary normal ``nu`` points INTO a body (outward normal of the
    exterior domain), so the flux of the field through a body boundary is
    minus the enclosed single-layer charge: ``int_dB nu.grad u dS = -q_B``;
  * exterior-side jump relation: d/dn_out S = +sigma/2 + K'sigma, hence
    ``nu.grad u = -(dH/dn_out + sigma/2 + K'sigma)`` on body boundaries.

Every problem is a bordered system: collocation rows hold the field at a
constant per group of bodies, plus the group's given data, and one charge
row per group pins the group's total charge (0 for the conductor problem,
+/-1 for the two-group unit-flux problem, 0 in total for single-constant
and Dirichlet problems). Pinned charges make the field decay at infinity
and keep the system nonsingular even for a curve at logarithmic capacity
one, where the bare single layer degenerates. All of them go through one
LU factorization per operator, of the single-constant matrix
``[[S, -1], [h, 0]]``: group 0 takes its shared constant, every further
group adds a right-hand column with a unit potential step on its nodes,
and a small system of group charges fixes the step heights. One step of
iterative refinement on the problem's own system, through the same
factor, follows every solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

from ..errors import (DomainError, InvalidParameterError, InvalidUsageError,
                      NumericFailureError)
from ..geometry.config import Configuration
from ..geometry.gap import GapFoot, GapInfo
from ..geometry.shapes import HarmonicBackground
from .mesh import BoundaryMesh, CurveMesh, MeshControls, build_mesh

_TWO_PI = 2.0 * np.pi
# Bordered systems with a smaller reciprocal condition number raise.
_RCOND_FLOOR = 1e-16
# Candidate log centers per axis of a body's bounding box (see _log_center).
_CENTER_GRID = 17


def kussmaul_row(n_nodes: int) -> np.ndarray:
    """First row of the circulant quadrature for
    int_0^{2pi} log(4 sin^2((t-s)/2)) f(s) ds on an even equispaced grid
    (any offset); exact for trigonometric polynomials below the Nyquist
    degree."""
    if n_nodes % 2 != 0:
        raise InvalidParameterError("log-kernel rule needs an even node count")
    # rho_k = -(4pi/N) [ sum_{0<m<N/2} cos(m k h)/m + cos(N k h/2)/N ], h = 2pi/N:
    # the inverse real FFT of the coefficients 1/m, m = 1 .. N/2
    coef = np.zeros(n_nodes // 2 + 1)
    coef[1:] = 1.0 / np.arange(1, coef.size)
    return -_TWO_PI * np.fft.irfft(coef, n_nodes)


def _dirichlet_rows(t_nodes: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Interpolation rows from an even equispaced grid t_nodes to
    arbitrary parameters s (Dirichlet kernel in closed form)."""
    n_nodes = t_nodes.size
    delta = np.subtract.outer(np.asarray(s, dtype=float), t_nodes)
    den = np.sin(delta / 2)
    on_node = den == 0.0
    rows = np.sin((n_nodes - 1) * delta / 2) / np.where(on_node, 1.0, den)
    rows[on_node] = n_nodes - 1.0
    return (rows + np.cos(n_nodes * delta / 2)) / n_nodes


def _complex(xy: np.ndarray) -> np.ndarray:
    """Points or vectors of shape (m, 2) as m complex numbers."""
    return xy[:, 0] + 1j * xy[:, 1]


def _spectral(values: np.ndarray, power: int) -> np.ndarray:
    """Spectral derivative (power 1) or zero-mean antiderivative (power -1)
    in t of the real columns of node values, without the Nyquist mode."""
    n = values.shape[0]
    mult = np.zeros(n // 2 + 1, dtype=complex)
    mult[1:n // 2] = (1j * np.arange(1, n // 2)) ** power
    return np.fft.irfft(np.fft.rfft(values, axis=0) * mult[:, None], n, axis=0)


def _kprime_self_block(cm: CurveMesh) -> np.ndarray:
    """Own-curve block of K' acting on g: (1/2pi) Re(nu_i/(y_i - y_j)) h,
    with the smooth diagonal limit kappa_i/(4pi) h."""
    y = _complex(cm.nodes)
    diff = y[:, None] - y[None, :]
    np.fill_diagonal(diff, 1.0)
    blk = _complex(cm.normal_out)[:, None] / diff
    blk = blk.real * (cm.h / _TWO_PI)
    np.fill_diagonal(blk, cm.curvature / (4.0 * np.pi) * cm.h)
    return blk


@dataclass(frozen=True)
class _CurveData:
    """Boundary data of one curve's single layer S_c g for the compensated
    Cauchy sums: ``S_c g = Re F + (Q/2pi) log|z - zc|`` off the curve, Q = h
    sum(g). ``F`` maps g to F at the nodes, stored once as a real stack:
    rows 2j and 2j+1 are Re F and -Im F at node j. F' g is taken per call,
    the spectral derivative of F g over y'. ``y`` are the nodes and ``w`` =
    y'(t_j) h the Cauchy weights, as complex numbers. ``zc`` is None on an
    enclosing curve, whose domain lies inside it."""

    y: np.ndarray
    w: np.ndarray
    zc: Optional[complex]
    h: float
    F: np.ndarray

    def values(self, g: np.ndarray, derivative: bool = False) -> np.ndarray:
        """F g at the nodes, or with ``derivative`` F' g."""
        fg = (self.F @ g).reshape(-1, 2)
        if derivative:
            fg = _spectral(fg, 1)
        out = fg[:, 0] - 1j * fg[:, 1]
        return out * (self.h / self.w) if derivative else out


class SceneOperator:
    """Assembled single-layer operator for one mesh; solves the exterior
    problems of a configuration and evaluates the represented fields."""

    def __init__(self, cfg: Configuration, controls: MeshControls = MeshControls(),
                 mesh: Optional[BoundaryMesh] = None):
        self.cfg = cfg
        self.controls = controls
        self.mesh = mesh if mesh is not None else build_mesh(cfg, controls)
        self._data: dict[int, _CurveData] = {}
        self._lu = None
        self._assemble_slp()

    # -- close evaluation ----------------------------------------------------

    def _log_center(self, cm: CurveMesh) -> complex:
        """A point well inside the curve's body: of the area centroid and a
        grid over the nodes' bounding box, the point inside the body that
        lies farthest from the nodes."""
        x, y = cm.nodes.T
        vx, vy = cm.velocity.T
        area = 0.5 * cm.h * np.sum(x * vy - y * vx)
        centroid = np.array([np.sum(x * x * vy), -np.sum(y * y * vx)]) * cm.h / (2 * area)
        axes = [np.linspace(lo, hi, _CENTER_GRID)
                for lo, hi in zip(cm.nodes.min(axis=0), cm.nodes.max(axis=0))]
        cand = np.vstack([centroid, np.stack(np.meshgrid(*axes), -1).reshape(-1, 2)])
        cand = cand[self.cfg.bodies[cm.body_index].contains(cand)]
        if cand.shape[0] == 0:
            raise NumericFailureError("no interior point found for the log center",
                                      {"body": cm.body_index})
        clearance = np.min(np.hypot(*(cand[:, None, :] - cm.nodes[None, :, :]).T), axis=0)
        return complex(*cand[int(np.argmax(clearance))])

    def _curve_data(self, curve_index: int) -> _CurveData:
        """F of one curve at its nodes, as a map of its g, built on first
        use. Re F is the own-block rule minus the log term; Im F is the
        antiderivative in t of speed * d(Re F)/dn_out, the normal
        derivative on the curve's side of the domain (all curves run
        counterclockwise). Exterior data are shifted so F vanishes at
        infinity, which the exterior Cauchy sum assumes."""
        if curve_index not in self._data:
            cm = self.mesh.curves[curve_index]
            sl = self.mesh.curve_slice(curve_index)
            y = _complex(cm.nodes)
            dy = _complex(cm.velocity)
            w = dy * cm.h
            enclosing = curve_index >= len(self.cfg.bodies)
            # jump relation with sigma = g/speed: speed (+-sigma/2 + K' sigma)
            flux = cm.speed[:, None] * _kprime_self_block(cm)
            flux[np.diag_indices(cm.n)] += -0.5 if enclosing else 0.5
            re = self._slp[sl, sl].copy()
            zc = None
            if not enclosing:
                zc = self._log_center(cm)
                re -= (cm.h / _TWO_PI) * np.log(np.abs(y - zc))[:, None]
                flux -= (cm.h / _TWO_PI) * (dy / (y - zc)).imag[:, None]
            F = np.stack([re, -_spectral(flux, -1)], axis=1)
            if zc is not None:
                # F(inf) is the Cauchy integral at the interior point zc
                c = w / (y - zc) / (2j * np.pi)
                shift = c @ F[:, 0] - 1j * (c @ F[:, 1])
                F -= np.stack([shift.real, -shift.imag])
            self._data[curve_index] = _CurveData(y, w, zc, cm.h, F.reshape(2 * cm.n, cm.n))
        return self._data[curve_index]

    def _layer(self, curve_index: int, z: np.ndarray, g: Optional[np.ndarray] = None,
               derivative: bool = False) -> np.ndarray:
        """One curve's single layer at complex targets z by the compensated
        Cauchy sum: S_c g, or with ``derivative`` its u_x - i u_y. With g
        None, the block acting on the curve's g: the Cauchy weights are
        scaled by the denominator first, so Re(c F) is one real product of
        [Re c, Im c] with the stack [Re F; -Im F]."""
        d = self._curve_data(curve_index)
        c = d.y[None, :] - z[:, None]
        np.divide(d.w, c, out=c)
        den = c.sum(axis=1) - (0.0 if d.zc is None else 2j * np.pi)
        if g is None:
            c /= den[:, None]
            out = c.view(float) @ d.F
            if d.zc is not None:
                out += (np.log(np.abs(z - d.zc)) / _TWO_PI * d.h)[:, None]
            return out
        out = c @ d.values(g, derivative) / den
        if d.zc is not None:
            log_part = 1.0 / (z - d.zc) if derivative else np.log(np.abs(z - d.zc))
            out += log_part / _TWO_PI * (d.h * g.sum())
        return out if derivative else out.real

    # -- assembly ---------------------------------------------------------

    def _assemble_slp(self) -> None:
        """Own blocks by the Kussmaul-Martensen rule, then each curve's
        cross column block at the nodes of all other curves."""
        mesh = self.mesh
        self._slp = np.empty((mesh.n_total, mesh.n_total))
        z = _complex(mesh.nodes)
        for ci, cm in enumerate(mesh.curves):
            si = mesh.curve_slice(ci)
            self._slp[si, si] = self._self_block(cm)
        for cj in range(len(mesh.curves)):
            others = mesh.body_of_node != cj
            self._slp[others, mesh.curve_slice(cj)] = self._layer(cj, z[others])

    def _self_block(self, cm: CurveMesh) -> np.ndarray:
        R = scipy.linalg.circulant(kussmaul_row(cm.n))
        dt = cm.t[:, None] - cm.t[None, :]
        s2 = 4.0 * np.sin(0.5 * dt) ** 2
        dx = cm.nodes[:, 0][:, None] - cm.nodes[:, 0][None, :]
        dy = cm.nodes[:, 1][:, None] - cm.nodes[:, 1][None, :]
        d2 = dx * dx + dy * dy
        np.fill_diagonal(d2, 1.0)
        np.fill_diagonal(s2, 1.0)
        K2 = np.log(d2 / s2)
        np.fill_diagonal(K2, 2.0 * np.log(cm.speed))
        return (R + cm.h * K2) / (4.0 * np.pi)

    # -- bordered solves -----------------------------------------------------

    def _factor(self):
        """LU factors and reciprocal condition number of the single-constant
        bordered matrix [[S, -1], [h, 0]], built on first use."""
        if self._lu is None:
            n_tot = self.mesh.n_total
            M = np.zeros((n_tot + 1, n_tot + 1))
            M[:n_tot, :n_tot] = self._slp
            M[:n_tot, n_tot] = -1.0
            M[n_tot, :n_tot] = self.mesh.step
            norm = np.linalg.norm(M, 1)
            lu, piv = scipy.linalg.lu_factor(M, overwrite_a=True, check_finite=False)
            gecon = scipy.linalg.get_lapack_funcs("gecon", (lu,))
            rcond, _ = gecon(lu, norm, norm="1")
            if not np.isfinite(rcond) or rcond < _RCOND_FLOOR:
                raise NumericFailureError("linear system too ill-conditioned",
                                          {"rcond": float(rcond), "n": int(n_tot)})
            self._lu = (lu, piv, float(rcond))
        return self._lu

    @property
    def rcond(self) -> float:
        """Reciprocal 1-norm condition number of the bordered factor.

        LAPACK's estimate is not bit-reproducible: two operators of one
        scene in one process can differ in its last bit while their fields
        agree exactly. Compare it relatively, never exactly."""
        return self._factor()[2]

    def _solve(self, node_group: np.ndarray, rhs: np.ndarray, charges: np.ndarray):
        """g and the group constants c of S g - c[node_group] = rhs with
        group k's charge sum(h g) equal to charges[k]."""
        lu, piv, _ = self._factor()
        n_tot, h = self.mesh.n_total, self.mesh.step
        unit_steps = (node_group[:, None] == np.arange(1, charges.size)).astype(float)
        step_sols = scipy.linalg.lu_solve(
            (lu, piv), np.vstack([unit_steps, np.zeros((1, charges.size - 1))]),
            check_finite=False)
        step_charges = (unit_steps * h[:, None]).T
        Q = step_charges @ step_sols[:n_tot]
        if Q.size and not (np.all(np.isfinite(Q))
                           and 1.0 / np.linalg.cond(Q, 1) >= _RCOND_FLOOR):
            raise NumericFailureError("singular group charge system",
                                      {"matrix": Q.tolist()})

        def apply(b, q):
            x = scipy.linalg.lu_solve((lu, piv), np.append(b, q.sum()),
                                      check_finite=False)
            heights = np.linalg.solve(Q, q[1:] - step_charges @ x[:n_tot])
            x += step_sols @ heights
            return x[:n_tot], x[n_tot] + np.append(0.0, heights)

        g, c = apply(rhs, charges)
        # one step of iterative refinement on this problem's own system
        g_fix, c_fix = apply(rhs - self._slp @ g + c[node_group],
                             charges - np.bincount(node_group, h * g, charges.size))
        return g + g_fix, c + c_fix

    # -- problem frontends --------------------------------------------------

    def solve_u(self, groups: Optional[Sequence[Sequence[int]]] = None) -> "FieldSolution":
        """Conductor problem: u = H + S[sigma], constant per conductor,
        zero net flux per conductor. ``groups`` overrides the configuration's
        conductor partition (equipotential unions of bodies)."""
        groups = tuple(tuple(g) for g in (groups or self.cfg.groups))
        return self._field("u", groups, -self.cfg.background(self.mesh.nodes),
                           np.zeros(len(groups)), self.cfg.background)

    def solve_h(self, partition: Sequence[Sequence[int]]) -> "FieldSolution":
        """Two-group unit-flux problem: h = S[sigma] with h -> 0 at
        infinity, flux -1 through the first group and +1 through the second
        (charges +1 and -1)."""
        part = tuple(tuple(p) for p in partition)
        if len(part) != 2:
            raise InvalidUsageError("partition must have exactly two groups")
        if sorted(i for p in part for i in p) != list(range(len(self.cfg.bodies))):
            raise InvalidUsageError("partition must cover all bodies exactly once")
        return self._field("h", part, np.zeros(self.mesh.n_total),
                           np.array([1.0, -1.0]), None)

    def solve_hc(self) -> "FieldSolution":
        """Single-constant problem: H^c = H + S[sigma] with one shared
        boundary constant and zero total charge."""
        return self._field("hc", (tuple(range(len(self.cfg.bodies))),),
                           -self.cfg.background(self.mesh.nodes), np.zeros(1),
                           self.cfg.background)

    def _field(self, kind, groups, rhs, charges, background) -> "FieldSolution":
        g, consts = self._solve(self._node_group(groups), rhs, charges)
        return FieldSolution(self, kind, groups, g, consts, background, self.rcond)

    def _node_group(self, groups: Sequence[Sequence[int]]) -> np.ndarray:
        body_to_group = {}
        for gi, members in enumerate(groups):
            for b in members:
                body_to_group[b] = gi
        return np.array([body_to_group[b] for b in self.mesh.body_of_node])

    # -- evaluation --------------------------------------------------------

    def _layers(self, g: np.ndarray, z: np.ndarray, derivative: bool = False,
                skip: Optional[int] = None) -> np.ndarray:
        """Sum of the curves' single layers of g at complex targets z, or
        with ``derivative`` of their u_x - i u_y; curve ``skip`` left out."""
        return sum(self._layer(ci, z, g[self.mesh.curve_slice(ci)], derivative)
                   for ci in range(len(self.mesh.curves)) if ci != skip)

    def on_surface_potential(self, g: np.ndarray, curve_index: int,
                             ts: np.ndarray) -> np.ndarray:
        """S[sigma] evaluated at arbitrary parameters of one curve: the own
        curve's Re F interpolated in t plus its log term, the other curves
        through their compensated Cauchy sums."""
        cm = self.mesh.curves[curve_index]
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        z = _complex(cm.point_at(ts))
        d = self._curve_data(curve_index)
        g_own = g[self.mesh.curve_slice(curve_index)]
        own = _dirichlet_rows(cm.t, ts) @ d.values(g_own).real
        if d.zc is not None:
            own += d.h * g_own.sum() / _TWO_PI * np.log(np.abs(z - d.zc))
        return own + self._layers(g, z, skip=curve_index)


@dataclass
class FieldSolution:
    """A solved field with its boundary constants.

    ``kind`` is "u" (conductor problem), "h" (two-group unit-flux problem),
    "hc" (single shared constant) or "v" (Dirichlet data, see
    ``decompose_u``); ``groups`` lists body indices per constant. ``rcond``
    is the reciprocal 1-norm condition number of the operator's one
    factorization, the same for every field solved on it.
    """

    op: SceneOperator
    kind: str
    groups: tuple[tuple[int, ...], ...]
    g: np.ndarray
    constants: np.ndarray
    background: Optional[HarmonicBackground]
    rcond: float

    @property
    def mesh(self) -> BoundaryMesh:
        return self.op.mesh

    @property
    def sigma(self) -> np.ndarray:
        return self.g / self.mesh.speed

    def constant(self, group: int) -> float:
        return float(self.constants[group])

    def potential_difference(self, group_b: int, group_a: int) -> float:
        """Boundary constant of group_b minus that of group_a."""
        return float(self.constants[group_b] - self.constants[group_a])

    def _evaluate(self, pts, check_domain: bool, derivative: bool) -> np.ndarray:
        """The field at (m, 2) points, or with ``derivative`` its gradient
        as an (m, 2) array."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if check_domain and not np.all(self.op.cfg.exterior_mask(pts)):
            raise DomainError("evaluation point lies inside a body")
        out = self.op._layers(self.g, _complex(pts), derivative)
        if derivative:
            out = np.stack([out.real, -out.imag], axis=-1)
        if self.background is not None:
            out = out + (self.background.gradient(pts) if derivative
                         else self.background(pts))
        return out

    def potential(self, pts, check_domain: bool = True):
        out = self._evaluate(pts, check_domain, derivative=False)
        return float(out[0]) if np.ndim(pts) == 1 else out

    def gradient(self, pts, check_domain: bool = True):
        out = self._evaluate(pts, check_domain, derivative=True)
        return out[0] if np.ndim(pts) == 1 else out

    # -- boundary functionals ------------------------------------------------

    def body_charge(self, body_index: int) -> float:
        idx = self.mesh.body_nodes(body_index)
        return float(np.sum(self.g[idx] * self.mesh.step[idx]))

    def boundary_flux(self, body_index: int) -> float:
        """int_dB nu.grad field dS with nu into the body; equals minus the
        enclosed layer charge (entire backgrounds contribute nothing)."""
        return -self.body_charge(body_index)

    def group_flux(self, group: int) -> float:
        return sum(self.boundary_flux(b) for b in self.groups[group])

    def normal_derivative_nodes(self) -> np.ndarray:
        """nu.grad of the field at all nodes (exterior-side limit)."""
        return np.concatenate([self._normal_derivative(ci)
                               for ci in range(len(self.mesh.curves))])

    def _normal_derivative(self, curve_index: int) -> np.ndarray:
        """nu.grad of the field at one curve's nodes: the jump sigma/2 and
        the curve's own K' block applied to its g, plus the normal
        component of the other curves' layer gradients there."""
        cm = self.mesh.curves[curve_index]
        own = self.mesh.curve_slice(curve_index)
        cross = self.op._layers(self.g, _complex(cm.nodes), True, skip=curve_index)
        val = (self.sigma[own] / 2 + _kprime_self_block(cm) @ self.g[own]
               + (cross * _complex(cm.normal_out)).real)
        if self.background is not None:
            val = val + np.einsum("ij,ij->i", self.background.gradient(cm.nodes),
                                  cm.normal_out)
        return -val

    def flux_quadrature(self) -> np.ndarray:
        """Flux through each group's boundary by node quadrature of the
        normal derivative (jump relation plus adjoint double layer), which
        the solve does not enforce directly."""
        return self._group_quadrature(self.normal_derivative_nodes())

    def _group_quadrature(self, dnu: np.ndarray) -> np.ndarray:
        """Node quadrature of the normal derivative dnu over each group."""
        wd = self.mesh.weights * dnu
        return np.array([np.sum(wd[np.concatenate([self.mesh.body_nodes(b) for b in m])])
                         for m in self.groups])

    def boundary_flux_weighted(self, body_index: int, f: Callable) -> float:
        """int_dB f nu.grad field dS by node quadrature; f maps (m,2) points
        to values. A body's curve has the body's index."""
        idx = self.mesh.body_nodes(body_index)
        dnu = self._normal_derivative(body_index)
        fv = np.asarray(f(self.mesh.nodes[idx]), dtype=float)
        return float(np.sum(self.mesh.weights[idx] * fv * dnu))

    def boundary_constancy_error(self) -> float:
        """Max deviation of the boundary trace from its group constant at 64
        off-node points per curve, relative to the constants' spread (floored)."""
        scale = max(float(np.max(self.constants) - np.min(self.constants)), 1e-12)
        worst = 0.0
        node_group = self.op._node_group(self.groups)
        ts = (np.arange(64) + 0.31) * (_TWO_PI / 64)
        for ci, cm in enumerate(self.mesh.curves):
            vals = self.op.on_surface_potential(self.g, ci, ts)
            if self.background is not None:
                pts, _, _ = cm.frame_at(ts)
                vals = vals + self.background(pts)
            c = self.constants[node_group[self.mesh.curve_slice(ci)][0]]
            worst = max(worst, float(np.max(np.abs(vals - c))))
        return worst / scale


def solve_u(cfg: Configuration, controls: MeshControls = MeshControls()) -> FieldSolution:
    return SceneOperator(cfg, controls).solve_u()


def solve_h(cfg: Configuration, partition: Sequence[Sequence[int]],
            controls: MeshControls = MeshControls()) -> FieldSolution:
    return SceneOperator(cfg, controls).solve_h(partition)


def solve_hc(cfg: Configuration, controls: MeshControls = MeshControls()) -> FieldSolution:
    return SceneOperator(cfg, controls).solve_hc()


@dataclass(frozen=True)
class GapGradient:
    max_magnitude: float
    argmax: tuple[float, float]


# A gap foot's mesh point must lie this close to its segment end, relative
# to the segment length; farther, the foot names the wrong body. A
# hand-built segment without feet must end at least this far outside every
# body. Boundary points carry rounding errors on the scale of the body, so
# the foot tolerance never drops below a few ulps of its curve's perimeter.
_ON_BODY_TOL = 1e-9
# Profile points evaluated per refinement round of the search.
_REFINE_POINTS = 16
# Points of the segment tested against the bodies it must not cross.
_CROSSING_PROBES = 129
# Chebyshev points of the first profile round of the gap-maximum search.
_PROFILE_SAMPLES = 33


def _foot_gradient(sol: FieldSolution, foot: GapFoot, p: np.ndarray,
                   seg_len: float) -> float:
    """|grad| of the field at the gap foot that ends the segment at p.

    On a body the field is constant, so grad = (d_nu field) nu. The foot's
    chain coordinate maps to its mesh parameter t by the chain map's
    forward map, and the normal derivative on the foot's curve alone is
    interpolated there, speed-weighted since g = sigma |dx/dt| is the
    smooth quantity in t. A foot whose mesh point misses p names the wrong
    body and raises InvalidUsageError."""
    cm = sol.mesh.curves[foot.body]
    chain = cm.chain
    t = chain.t_of_v(chain.v_edges[foot.chart] + (foot.u - chain.charts[foot.chart].u0))
    q, _, speed = cm.frame_at(t)
    miss = float(np.hypot(*(q[0] - p)))
    if miss > max(_ON_BODY_TOL * seg_len, 16 * np.finfo(float).eps * cm.perimeter):
        raise InvalidUsageError(f"the gap foot on body {foot.body} lies {miss:.3g} "
                                "from its segment end")
    weighted = _dirichlet_rows(cm.t, np.atleast_1d(t))[0] \
        @ (sol._normal_derivative(foot.body) * cm.speed)
    return abs(float(weighted)) / float(speed[0])


def _profile_max(mag: Callable, lo: float, hi: float, samples: int):
    """Largest sample of a profile on [lo, hi]: the ends and Chebyshev
    points, then rounds of equispaced points between the neighbours of the
    running maximum until they lie within 1e-6 of the interval."""
    k = np.arange(1, samples + 1)
    xi = np.cos((2 * k - 1) * np.pi / (2 * samples))[::-1]
    s = np.concatenate([[lo], lo + 0.5 * (hi - lo) * (1 + xi), [hi]])
    vals = mag(s)
    while True:
        i = int(np.argmax(vals))
        left, right = max(i - 1, 0), min(i + 1, s.size - 1)
        if s[right] - s[left] <= 1e-6 * (hi - lo):
            return float(s[i]), float(vals[i])
        new = np.linspace(s[left], s[right], _REFINE_POINTS + 2)[1:-1]
        s, idx = np.unique(np.concatenate([s[left:right + 1], new]), return_index=True)
        vals = np.concatenate([vals[left:right + 1], mag(new)])[idx]


def max_gap_gradient(sol: FieldSolution, gap_info: GapInfo) -> GapGradient:
    """Maximum of |grad field| over the closed neck segment.

    An end at a gap foot (every ``Configuration`` gap has both) takes its
    value from the on-surface normal derivative there; ``argmax`` is that
    foot point when it wins. The rest of the segment is searched on batched
    profile evaluations (see ``_profile_max``). A hand-built GapInfo has no
    feet; its ends are sampled and must lie in the exterior. A segment that
    passes through a body other than its feet's raises DomainError: it is
    not a gap of the exterior domain. Feet away from the segment ends raise
    InvalidUsageError."""
    a, b = gap_info.segment
    seg_len = float(np.hypot(*(b - a)))
    ends = [_foot_gradient(sol, foot, p, seg_len) for foot, p in zip(gap_info.feet, (a, b))]
    carriers = {foot.body for foot in gap_info.feet}
    probes = a + np.outer(np.linspace(0.0, 1.0, _CROSSING_PROBES), b - a)
    for k, body in enumerate(sol.op.cfg.bodies):
        if k not in carriers and np.any(body.contains(probes, _ON_BODY_TOL * seg_len)):
            raise DomainError(f"the gap segment passes through body {k}")

    def mag(sv):
        out = np.empty(sv.size)
        inner = np.ones(sv.size, dtype=bool)
        for s_end, value in zip((0.0, 1.0), ends):
            at = sv == s_end
            out[at] = value
            inner &= ~at
        gr = sol.gradient(a + np.outer(sv[inner], b - a), check_domain=False)
        out[inner] = np.hypot(gr[:, 0], gr[:, 1])
        return out

    s_best, v_best = _profile_max(mag, 0.0, 1.0, _PROFILE_SAMPLES)
    p = (1.0 - s_best) * a + s_best * b
    return GapGradient(v_best, (float(p[0]), float(p[1])))
