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
cross blocks of S and K' in assembly as much as ``potential`` and
``gradient``, at any distance. Each curve's single layer is written as
``Re F + (Q/2pi) log|z - z_c|`` with F analytic off the curve, Q the
curve's charge and z_c a point well inside its body. F and F' are built
once per operator at the nodes, as linear maps of the curve's g
(``_CurveData``); off the curve they follow from the globally compensated
Cauchy sum ``F(z) = sum_j F_j w_j/(y_j - z) / (sum_j w_j/(y_j - z) - 2pi i)``,
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
from ..geometry.gap import GapInfo
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
    n = n_nodes // 2
    k = np.arange(n_nodes)
    m = np.arange(1, n)
    # rho_k = -(4pi/N) [ sum_m cos(m k h)/m + cos(n k h)/(2n) ],  h = 2pi/N
    cos_table = np.cos(np.outer(k, m) * (_TWO_PI / n_nodes))
    rho = cos_table @ (1.0 / m) + np.cos(k * np.pi) / (2.0 * n)
    return -(4.0 * np.pi / n_nodes) * rho


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
    in t of node values along the first axis, without the Nyquist mode."""
    n = values.shape[0]
    k = np.fft.fftfreq(n, 1.0 / n)
    k[n // 2] = 0.0
    mult = np.zeros(n, dtype=complex)
    mult[k != 0] = (1j * k[k != 0]) ** power
    return np.fft.ifft(np.fft.fft(values, axis=0) * mult[:, None], axis=0)


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
    sum(g). ``F`` and ``dF`` map g to F and F' at the nodes; ``y`` are the
    nodes and ``w`` = y'(t_j) h the Cauchy weights, as complex numbers.
    ``zc`` is None on an enclosing curve, whose domain lies inside it."""

    y: np.ndarray
    w: np.ndarray
    zc: Optional[complex]
    h: float
    F: np.ndarray
    dF: np.ndarray


class SceneOperator:
    """Assembled single-layer operator for one mesh; solves the exterior
    problems of a configuration and evaluates the represented fields."""

    def __init__(self, cfg: Configuration, controls: MeshControls = MeshControls(),
                 mesh: Optional[BoundaryMesh] = None):
        self.cfg = cfg
        self.controls = controls
        self.mesh = mesh if mesh is not None else build_mesh(cfg, controls)
        self._data: dict[int, _CurveData] = {}
        self._kprime_rows: dict[int, np.ndarray] = {}
        self._kprime: Optional[np.ndarray] = None
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
        """F and F' of one curve at its nodes, as maps of its g, built on
        first use. Re F is the own-block rule minus the log term; Im F is
        the antiderivative in t of speed * d(Re F)/dn_out, the normal
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
            F = re + 1j * _spectral(flux, -1).real
            if zc is not None:
                # F(inf) is the Cauchy integral at the interior point zc
                F -= ((w / (y - zc)) @ F / (2j * np.pi))[None, :]
            self._data[curve_index] = _CurveData(y, w, zc, cm.h, F,
                                                 _spectral(F, 1) / dy[:, None])
        return self._data[curve_index]

    def _layer(self, curve_index: int, z: np.ndarray, g: Optional[np.ndarray] = None,
               derivative: bool = False) -> np.ndarray:
        """One curve's single layer at complex targets z by the compensated
        Cauchy sum: S_c g, or with ``derivative`` its u_x - i u_y. With g
        None, the block acting on the curve's g."""
        d = self._curve_data(curve_index)
        data = d.dF if derivative else d.F
        if g is not None:
            data = (data @ g)[:, None]
        charge = d.h * (np.ones(data.shape[1]) if g is None else np.array([g.sum()]))
        c = d.y[None, :] - z[:, None]
        np.divide(d.w, c, out=c)
        out = c @ data
        den = c.sum(axis=1) - (0.0 if d.zc is None else 2j * np.pi)
        out /= den[:, None]
        if not derivative:
            out = out.real
        if d.zc is not None:
            log_part = 1.0 / (z - d.zc) if derivative else np.log(np.abs(z - d.zc))
            out += np.outer(log_part / _TWO_PI, charge)
        return out if g is None else out[:, 0]

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

    def kprime_rows(self, curve_index: int) -> np.ndarray:
        """Rows of ``kprime_matrix`` at one curve's nodes; from the full
        matrix when it is built, else assembled alone and kept."""
        if self._kprime is not None:
            return self._kprime[self.mesh.curve_slice(curve_index)]
        if curve_index not in self._kprime_rows:
            mesh = self.mesh
            cm = mesh.curves[curve_index]
            z = _complex(cm.nodes)
            nu = _complex(cm.normal_out)
            rows = np.empty((cm.n, mesh.n_total))
            for cj in range(len(mesh.curves)):
                sj = mesh.curve_slice(cj)
                if cj == curve_index:
                    rows[:, sj] = _kprime_self_block(cm)
                else:
                    rows[:, sj] = (self._layer(cj, z, derivative=True) * nu[:, None]).real
            self._kprime_rows[curve_index] = rows
        return self._kprime_rows[curve_index]

    def kprime_matrix(self) -> np.ndarray:
        """Adjoint double-layer matrix acting on g: (K'sigma)(x_i) =
        sum_j (1/2pi) n_i.(x_i - y_j)/|x_i - y_j|^2 g_j h_j on each curve's
        own block (smooth diagonal limit kappa_i/(4pi)), and the normal
        derivative of the compensated Cauchy sums across curves."""
        if self._kprime is None:
            self._kprime = np.vstack([self.kprime_rows(ci)
                                      for ci in range(len(self.mesh.curves))])
            self._kprime_rows.clear()
        return self._kprime

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
        """Reciprocal 1-norm condition number of the bordered factor."""
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

    def layer_field(self, g: np.ndarray, pts: np.ndarray, kind: str = "log") -> np.ndarray:
        """S[g] at points (``kind`` "log"), or its gradient as an (m, 2)
        array (``kind`` "grad")."""
        z = _complex(np.atleast_2d(pts))
        grad = kind == "grad"
        out = sum(self._layer(ci, z, g[self.mesh.curve_slice(ci)], grad)
                  for ci in range(len(self.mesh.curves)))
        return np.stack([out.real, -out.imag], axis=-1) if grad else out

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
        own = _dirichlet_rows(cm.t, ts) @ (d.F @ g_own).real
        if d.zc is not None:
            own += d.h * g_own.sum() / _TWO_PI * np.log(np.abs(z - d.zc))
        return own + sum(self._layer(cj, z, g[self.mesh.curve_slice(cj)])
                         for cj in range(len(self.mesh.curves)) if cj != curve_index)


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

    def _check_exterior(self, pts: np.ndarray) -> None:
        for b in self.op.cfg.bodies:
            if np.any(b.contains(pts)):
                raise DomainError("evaluation point lies inside a body")

    def potential(self, pts, check_domain: bool = True):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if check_domain:
            self._check_exterior(pts)
        out = self.op.layer_field(self.g, pts, "log")
        if self.background is not None:
            out = out + self.background(pts)
        return float(out[0]) if single else out

    def gradient(self, pts, check_domain: bool = True):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if check_domain:
            self._check_exterior(pts)
        out = self.op.layer_field(self.g, pts, "grad")
        if self.background is not None:
            out = out + self.background.gradient(pts)
        return out[0] if single else out

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
        return self._normal_derivative(slice(None), self.op.kprime_matrix())

    def _normal_derivative(self, rows: slice, kprime_rows: np.ndarray) -> np.ndarray:
        """nu.grad of the field at the nodes ``rows``, given those rows of
        the K' matrix."""
        val = self.sigma[rows] / 2 + kprime_rows @ self.g
        if self.background is not None:
            val = val + np.einsum("ij,ij->i",
                                  self.background.gradient(self.mesh.nodes[rows]),
                                  self.mesh.normals[rows])
        return -val

    def flux_quadrature(self) -> np.ndarray:
        """Flux through each group's boundary by node quadrature of the
        normal derivative (jump relation plus adjoint double layer), which
        the solve does not enforce directly."""
        dnu = self.normal_derivative_nodes()
        w = self.mesh.weights
        out = []
        for members in self.groups:
            idx = np.concatenate([self.mesh.body_nodes(b) for b in members])
            out.append(float(np.sum(w[idx] * dnu[idx])))
        return np.array(out)

    def boundary_flux_weighted(self, body_index: int, f: Callable) -> float:
        """int_dB f nu.grad field dS by node quadrature; f maps (m,2) points
        to values."""
        idx = self.mesh.body_nodes(body_index)
        dnu = self.normal_derivative_nodes()[idx]
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


# A segment end closer than this to a curve, relative to the segment
# length, is a foot point on that body; farther, it lies in the exterior.
# Boundary points carry rounding errors on the scale of the body, so the
# tolerance never drops below a few ulps of its perimeter.
_ON_BODY_TOL = 1e-9
# Profile points evaluated per refinement round of the search.
_REFINE_POINTS = 16
# Points of the segment tested against the bodies it must not cross.
_CROSSING_PROBES = 129
# Chebyshev points of the first profile round of the gap-maximum search.
_PROFILE_SAMPLES = 33


def _end_on_body(sol: FieldSolution, p: np.ndarray, seg_len: float):
    """For a segment end on a body: that body's index and |grad| there;
    None for an end in the exterior.

    On a body the field is constant, so grad = (d_nu field) nu. The
    normal derivative is interpolated to the foot point in the curve
    parameter, speed-weighted since g = sigma |dx/dt| is the smooth
    quantity in t. It needs only the K' rows of the foot's curve."""
    mesh = sol.mesh
    for ci, cm in enumerate(mesh.curves):
        t, dist = cm.foot_parameter(p)
        if dist > max(_ON_BODY_TOL * seg_len, 16 * np.finfo(float).eps * cm.perimeter):
            continue
        rows = mesh.curve_slice(ci)
        dnu = sol._normal_derivative(rows, sol.op.kprime_rows(ci))
        _, _, speed = cm.frame_at(t)
        weighted = _dirichlet_rows(cm.t, np.array([t]))[0] @ (dnu * cm.speed)
        return cm.body_index, abs(float(weighted)) / float(speed[0])
    return None


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

    An end of the segment that lies on a body takes its value from the
    on-surface normal derivative; there ``argmax`` is that foot point when
    it wins. The rest of the segment, up to such an end, is searched on
    batched profile evaluations (see ``_profile_max``); an end in the
    exterior is sampled itself. A segment that passes through a body
    raises DomainError: it is not a gap of the exterior domain."""
    a, b = gap_info.segment
    seg_len = float(np.hypot(*(b - a)))
    ends = [_end_on_body(sol, p, seg_len) for p in (a, b)]
    carriers = {found[0] for found in ends if found is not None}
    probes = a + np.outer(np.linspace(0.0, 1.0, _CROSSING_PROBES), b - a)
    for k, body in enumerate(sol.op.cfg.bodies):
        if k not in carriers and np.any(body.contains(probes)):
            raise DomainError(f"the gap segment passes through body {k}")

    def mag(sv):
        out = np.empty(sv.size)
        inner = np.ones(sv.size, dtype=bool)
        for s_end, found in zip((0.0, 1.0), ends):
            if found is not None:
                at = sv == s_end
                out[at] = found[1]
                inner &= ~at
        gr = sol.gradient(a + np.outer(sv[inner], b - a), check_domain=False)
        out[inner] = np.hypot(gr[:, 0], gr[:, 1])
        return out

    s_best, v_best = _profile_max(mag, 0.0, 1.0, _PROFILE_SAMPLES)
    p = (1.0 - s_best) * a + s_best * b
    return GapGradient(v_best, (float(p[0]), float(p[1])))
