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
-N/2. ``trig_resample`` applies it by FFT onto a finer midpoint grid and
``trig_resample_adjoint`` is its transpose; ``_dirichlet_rows`` gives the
same interpolation at a few arbitrary parameters in closed form. Off the
nodes, the own-curve single layer is therefore the node rule interpolated
(``on_surface_potential``).

Near-field rule: the node rule serves a target while the panels in the arc
window its kernel sees (4x its distance around the nearest node) are
shorter than the distance over ``_NEAR_RULE``. Nearer targets get the
kernel on the midpoint grid 2^k times finer, with the smallest k that
brings those panels below a third of the distance, capped at
``_ASSEMBLY_UPSAMPLE_MAX`` in assembly and ``_EVAL_UPSAMPLE_MAX`` in field
evaluation (``SceneOperator._kernel_rows``). Assembly maps the fine rows
back onto the node columns with the adjoint resample; evaluation resamples
the density instead.

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

# A target is near a curve when the panels it sees are longer than its
# distance over this ratio.
_NEAR_RULE = 5.0
# Caps of the upsampling factor for near targets, in assembly (cross
# blocks) and in field evaluation.
_ASSEMBLY_UPSAMPLE_MAX = 64
_EVAL_UPSAMPLE_MAX = 512
# Bordered systems with a smaller reciprocal condition number raise.
_RCOND_FLOOR = 1e-16


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


def _midpoint_phase(n_nodes: int, m_fine: int) -> np.ndarray:
    """Spectral shift between the midpoint grids of N and M points, for
    the modes 0..N/2 of the real FFT."""
    k = np.arange(n_nodes // 2 + 1)
    return np.exp(1j * np.pi * k * (1.0 / m_fine - 1.0 / n_nodes))


def trig_resample(values: np.ndarray, m_fine: int) -> np.ndarray:
    """Trigonometric interpolant of samples on the midpoint grid
    t_j = (j+1/2) 2pi/N (last axis, N even), evaluated on the finer
    midpoint grid of m_fine > N points."""
    v = np.asarray(values, dtype=float)
    n_nodes = v.shape[-1]
    if m_fine <= n_nodes:
        raise InvalidParameterError("resampling needs a finer grid")
    spec = np.fft.rfft(v, axis=-1) * _midpoint_phase(n_nodes, m_fine)
    # the Nyquist mode is split between +N/2 and -N/2, and the fine grid
    # resolves both
    spec[..., -1] *= 0.5
    return np.fft.irfft(spec, m_fine, axis=-1) * (m_fine / n_nodes)


def trig_resample_adjoint(fine: np.ndarray, n_nodes: int) -> np.ndarray:
    """Transpose of ``trig_resample`` onto N nodes along the last axis:
    for kernel rows on the fine grid, the rows acting on node values."""
    w = np.asarray(fine, dtype=float)
    m_fine = w.shape[-1]
    spec = np.fft.rfft(w, axis=-1)[..., :n_nodes // 2 + 1]
    spec *= np.conj(_midpoint_phase(n_nodes, m_fine))
    # irfft keeps the real part of the Nyquist bin, which is the split
    # mode's share on the node grid
    return np.fft.irfft(spec, n_nodes, axis=-1)


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


def _kernel(kind: str, targets: np.ndarray, sources: np.ndarray, weight: float,
            normals: Optional[np.ndarray] = None) -> np.ndarray:
    """Kernel values times the quadrature weight, targets by sources:
    ``kind`` "log" is the single-layer kernel (1/2pi) log|x-y|, "grad" its
    gradient in x (a leading axis of two components) and "dnu" its
    derivative along ``normals``, one per target. Coincident points give
    inf or nan."""
    d = np.empty((2, targets.shape[0], sources.shape[0]))
    np.subtract.outer(targets[:, 0], sources[:, 0], out=d[0])
    np.subtract.outer(targets[:, 1], sources[:, 1], out=d[1])
    r2 = d[0] * d[0]
    r2 += d[1] * d[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "log":
            r2 = np.log(r2, out=r2)
            r2 *= 0.5 * weight / _TWO_PI
            return r2
        r2 *= _TWO_PI / weight
        d /= r2
    if kind == "grad":
        return d
    return normals[:, 0][:, None] * d[0] + normals[:, 1][:, None] * d[1]


class SceneOperator:
    """Assembled single-layer operator for one mesh; solves the exterior
    problems of a configuration and evaluates the represented fields."""

    def __init__(self, cfg: Configuration, controls: MeshControls = MeshControls(),
                 mesh: Optional[BoundaryMesh] = None):
        self.cfg = cfg
        self.controls = controls
        self.mesh = mesh if mesh is not None else build_mesh(cfg, controls)
        self._fine_cache: dict[tuple[int, int], np.ndarray] = {}
        self._slp = self._assemble_slp()
        self._kprime: Optional[np.ndarray] = None
        self._lu = None

    def _fine_points(self, curve_index: int, factor: int) -> np.ndarray:
        key = (curve_index, factor)
        if key not in self._fine_cache:
            cm = self.mesh.curves[curve_index]
            m_fine = factor * cm.n
            t_f = (np.arange(m_fine) + 0.5) * (_TWO_PI / m_fine)
            self._fine_cache[key] = cm.point_at(t_f)
        return self._fine_cache[key]

    # -- near-field rule ---------------------------------------------------

    def _near_targets(self, cm: CurveMesh, pts: np.ndarray):
        """For each target point: distance to the source curve, and the
        largest panel length in the arc window the log kernel actually sees
        (4x the distance around the nearest node). A target is 'near' when
        that window is too coarse for plain quadrature."""
        d2 = ((pts[:, None, :] - cm.nodes[None, :, :]) ** 2).sum(axis=2)
        idx = np.arange(pts.shape[0])
        j_near = np.argmin(d2, axis=1)
        d_node = np.sqrt(d2[idx, j_near])
        # the nearest node may sit tangentially off the foot point; the
        # normal component is the honest curve distance for near targets
        delta = pts - cm.nodes[j_near]
        d_perp = np.abs(np.einsum("ij,ij->i", delta, cm.normal_out[j_near]))
        d_min = np.where(d_node < 3.0 * cm.weights[j_near],
                         np.maximum(d_perp, 1e-3 * d_node), d_node)
        s_win = np.empty(pts.shape[0])
        coarse = float(np.max(cm.weights))
        maybe = d_min < _NEAR_RULE * coarse
        s_win[~maybe] = 0.0
        for i in np.nonzero(maybe)[0]:
            da = np.abs(cm.arc_position - cm.arc_position[j_near[i]])
            da = np.minimum(da, cm.perimeter - da)
            s_win[i] = np.max(cm.weights[da <= 4.0 * d_min[i] + cm.weights[j_near[i]]])
        active = maybe & (d_min < _NEAR_RULE * s_win)
        return active, d_min, s_win

    def _kernel_rows(self, curve_index: int, pts: np.ndarray, kind: str, cap: int,
                     normals: Optional[np.ndarray] = None):
        """Quadrature rows of a kernel (see ``_kernel``) from one curve to
        target points. Returns the node-rule rows for every target, the
        mask of near targets, and the upsampling factor with the near
        targets' rows on the midpoint grid that much finer (1 and None when
        no target is near)."""
        cm = self.mesh.curves[curve_index]
        rows = _kernel(kind, pts, cm.nodes, cm.h, normals)
        near, d_min, s_win = self._near_targets(cm, pts)
        if not np.any(near):
            return rows, near, 1, None
        needed = float(np.max(3.0 * s_win[near] / np.maximum(d_min[near], 1e-300)))
        factor = 2
        while factor < needed and factor < cap:
            factor *= 2
        fine = _kernel(kind, pts[near], self._fine_points(curve_index, factor),
                       _TWO_PI / (factor * cm.n),
                       None if normals is None else normals[near])
        return rows, near, factor, fine

    def resolved_distance(self, curve_index: int, node: int) -> float:
        """Smallest distance from a curve, next to one of its nodes, at
        which field evaluation still resolves the panels: the capped
        upsampling factor keeps fine panels within a third of the
        distance."""
        cm = self.mesh.curves[curve_index]
        w = float(np.max(cm.weights[np.arange(node - 1, node + 2) % cm.n]))
        return 3.0 * w / _EVAL_UPSAMPLE_MAX

    # -- assembly ---------------------------------------------------------

    def _assemble_slp(self) -> np.ndarray:
        mesh = self.mesh
        n_tot = mesh.n_total
        A = np.empty((n_tot, n_tot))
        for ci, cm in enumerate(mesh.curves):
            si = mesh.curve_slice(ci)
            for cj, cm2 in enumerate(mesh.curves):
                sj = mesh.curve_slice(cj)
                if ci == cj:
                    A[si, sj] = self._self_block(cm)
                else:
                    A[si, sj] = self._cross_block(cj, cm.nodes)
        return A

    def _cross_block(self, src_index: int, targets: np.ndarray,
                     normals: Optional[np.ndarray] = None) -> np.ndarray:
        """Single-layer block from one source curve to the nodes of another
        curve, or with ``normals`` its normal-derivative (K') block."""
        rows, near, _, fine = self._kernel_rows(
            src_index, targets, "log" if normals is None else "dnu",
            _ASSEMBLY_UPSAMPLE_MAX, normals)
        if fine is not None:
            rows[near] = trig_resample_adjoint(fine, rows.shape[1])
        return rows

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

    def kprime_matrix(self) -> np.ndarray:
        """Adjoint double-layer matrix acting on g: (K'sigma)(x_i) =
        sum_j (1/2pi) n_i.(x_i - y_j)/|x_i - y_j|^2 g_j h_j, with the smooth
        diagonal limit kappa_i/(4pi) on each curve's own block."""
        if self._kprime is not None:
            return self._kprime
        mesh = self.mesh
        n_tot = mesh.n_total
        K = np.empty((n_tot, n_tot))
        for ci, cm in enumerate(mesh.curves):
            si = mesh.curve_slice(ci)
            for cj, cm2 in enumerate(mesh.curves):
                sj = mesh.curve_slice(cj)
                if ci == cj:
                    blk = _kernel("dnu", cm.nodes, cm.nodes, cm.h, cm.normal_out)
                    np.fill_diagonal(blk, cm.curvature / (4.0 * np.pi) * cm.h)
                    K[si, sj] = blk
                else:
                    K[si, sj] = self._cross_block(cj, cm.nodes, normals=cm.normal_out)
        self._kprime = K
        return K

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

    def layer_field(self, g: np.ndarray, pts: np.ndarray, kind: str = "log",
                    cache: Optional[dict] = None) -> np.ndarray:
        """S[g] at points (``kind`` "log"), or its gradient as an (m, 2)
        array (``kind`` "grad"). ``cache`` keeps the resampled densities of
        one g between calls."""
        pts = np.atleast_2d(pts)
        out = sum(self._curve_field(ci, g[self.mesh.curve_slice(ci)], pts, kind, cache)
                  for ci in range(len(self.mesh.curves)))
        return out.T if kind == "grad" else out

    def _curve_field(self, curve_index: int, g: np.ndarray, pts: np.ndarray,
                     kind: str, cache: Optional[dict] = None) -> np.ndarray:
        rows, near, factor, fine = self._kernel_rows(curve_index, pts, kind,
                                                     _EVAL_UPSAMPLE_MAX)
        out = rows @ g
        if fine is not None:
            cache = {} if cache is None else cache
            key = (curve_index, factor)
            if key not in cache:
                cache[key] = trig_resample(g, factor * g.size)
            out[..., near] = fine @ cache[key]
        return out

    def on_surface_potential(self, g: np.ndarray, curve_index: int,
                             ts: np.ndarray) -> np.ndarray:
        """S[sigma] evaluated at arbitrary parameters of one curve: on the
        own curve the Kussmaul-Martensen rule interpolated to ``ts`` plus
        its smooth log part, other curves through the near-field rule."""
        cm = self.mesh.curves[curve_index]
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        g_own = g[self.mesh.curve_slice(curve_index)]
        pts, _, speeds = cm.frame_at(ts)
        node_rule = scipy.linalg.circulant(kussmaul_row(cm.n)) @ g_own
        singular = _dirichlet_rows(cm.t, ts) @ node_rule
        dt = ts[:, None] - cm.t[None, :]
        d2 = ((pts[:, None, :] - cm.nodes[None, :, :]) ** 2).sum(axis=2)
        s2 = 4.0 * np.sin(0.5 * dt) ** 2
        # within ~1e-6 of a node the difference quotient loses digits to
        # cancellation; switch to the diagonal limit there
        tiny = np.abs(dt) < 1e-6
        ratio = np.where(tiny, 1.0, d2 / np.where(tiny, 1.0, s2))
        K2 = np.log(ratio)
        if np.any(tiny):
            rows, cols = np.nonzero(tiny)
            K2[rows, cols] = 2.0 * np.log(np.maximum(speeds[rows], 1e-300))
        own = (singular + cm.h * K2 @ g_own) / (4.0 * np.pi)
        other = sum(self._curve_field(cj, g[self.mesh.curve_slice(cj)], pts, "log")
                    for cj in range(len(self.mesh.curves)) if cj != curve_index)
        return own + other


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

    def __post_init__(self):
        self._fine_cache: dict = {}

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
        out = self.op.layer_field(self.g, pts, "log", self._fine_cache)
        if self.background is not None:
            out = out + self.background(pts)
        return float(out[0]) if single else out

    def gradient(self, pts, check_domain: bool = True):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if check_domain:
            self._check_exterior(pts)
        out = self.op.layer_field(self.g, pts, "grad", self._fine_cache)
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
        kp = self.op.kprime_matrix()
        val = self.sigma / 2 + kp @ self.g
        if self.background is not None:
            hn = np.einsum("ij,ij->i", self.background.gradient(self.mesh.nodes),
                           self.mesh.normals)
            val = val + hn
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

    def boundary_constancy_error(self, samples_per_curve: int = 64) -> float:
        """Max off-node deviation of the boundary trace from its group
        constant, relative to the spread of the constants (floored)."""
        scale = max(float(np.max(self.constants) - np.min(self.constants)), 1e-12)
        worst = 0.0
        node_group = self.op._node_group(self.groups)
        for ci, cm in enumerate(self.mesh.curves):
            ts = (np.arange(samples_per_curve) + 0.31) * (_TWO_PI / samples_per_curve)
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
# Next to a body the profile search stays this many resolved distances
# (SceneOperator.resolved_distance) away from it.
_BODY_MARGIN = 4.0
# Profile points evaluated per refinement round of the search.
_REFINE_POINTS = 16


def _end_on_body(sol: FieldSolution, p: np.ndarray, seg_len: float):
    """For a segment end on a body: |grad| there and the distance the
    profile search keeps from the body; None for an end in the exterior.

    On a body the field is constant, so grad = (d_nu field) nu. The
    normal derivative is interpolated to the foot point in the curve
    parameter, speed-weighted since g = sigma |dx/dt| is the smooth
    quantity in t."""
    mesh = sol.mesh
    for ci, cm in enumerate(mesh.curves):
        t, dist = cm.foot_parameter(p)
        if dist > max(_ON_BODY_TOL * seg_len, 16 * np.finfo(float).eps * cm.perimeter):
            continue
        dnu = sol.normal_derivative_nodes()[mesh.curve_slice(ci)]
        _, _, speed = cm.frame_at(t)
        weighted = _dirichlet_rows(cm.t, np.array([t]))[0] @ (dnu * cm.speed)
        nearest_node = int(t // cm.h) % cm.n
        return abs(float(weighted)) / float(speed[0]), \
            _BODY_MARGIN * sol.op.resolved_distance(ci, nearest_node)
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


def max_gap_gradient(sol: FieldSolution, gap_info: GapInfo,
                     samples: int = 33) -> GapGradient:
    """Maximum of |grad field| over the closed neck segment.

    An end of the segment that lies on a body takes its value from the
    on-surface normal derivative; there ``argmax`` is that foot point when
    it wins. The rest of the segment is searched on batched profile
    evaluations (see ``_profile_max``), which keep a distance from such an
    end at which the near-field rule still resolves the panels. An end in
    the exterior is sampled itself."""
    if samples < 5:
        raise InvalidParameterError("need at least 5 samples")
    a, b = gap_info.segment
    seg_len = float(np.hypot(*(b - a)))
    bounds = [0.0, 1.0]
    best_v, best_p = -np.inf, a
    for end, p in enumerate((a, b)):
        found = _end_on_body(sol, p, seg_len)
        if found is None:
            continue
        val, margin = found
        bounds[end] = margin / seg_len if end == 0 else 1.0 - margin / seg_len
        if val > best_v:
            best_v, best_p = val, p

    def mag(sv):
        pts = a[None, :] + np.outer(sv, b - a)
        gr = sol.gradient(pts, check_domain=False)
        return np.hypot(gr[:, 0], gr[:, 1])

    if bounds[0] < bounds[1]:
        s_best, v_best = _profile_max(mag, bounds[0], bounds[1], samples)
        if v_best > best_v:
            best_v, best_p = v_best, a + s_best * (b - a)
    return GapGradient(float(best_v), (float(best_p[0]), float(best_p[1])))
