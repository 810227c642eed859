"""Single-layer Nystrom solver for the exterior Laplace problems of the
package.

Representation: fields are ``S[sigma](x) = (1/2pi) int log|x-y| sigma(y) ds(y)``
(plus the harmonic background where one applies) outside the bodies,
discretized with the periodic trapezoid rule and the Kussmaul-Martensen
log-singularity weights on each curve's own block. The unknown per node
is ``g = sigma * |dx/dt|``, the density times the parameterization speed,
which keeps columns uniformly scaled under heavy grading.

Fourier convention: every trigonometric interpolation here is the one the
Kussmaul-Martensen weights integrate exactly, the Dirichlet kernel of the
even midpoint grid with the Nyquist mode split evenly between +N/2 and
-N/2 (``_dirichlet_rows``, in closed form at arbitrary parameters). The
spectral derivative and antiderivative in t (``_spectral``) drop the
Nyquist mode, whose derivative on the grid is ambiguous.

Off-curve rule: one evaluator serves every target of every curve, the
cross blocks of S in assembly as much as ``potential``, ``gradient`` and
the normal derivative on the boundary, at any distance. Only K''s own
blocks are assembled, each once per curve with S's from the same pairwise
node differences (``SceneOperator._build_curve``); K''s cross part is this
evaluator's derivative applied to the other curves' densities. Each
curve's single layer is written as
``Re F + (Q/2pi) log|z - z_c|`` with F analytic off the curve, Q the
curve's charge and z_c a point well inside its body. F is built once per
operator at the nodes as a linear map of the curve's g, stored once as the
real stack [Re F; -Im F]; F' g is the spectral derivative of F g over y'
(``_CurveData``). A field computes each curve's F g and F' g of its own g
once, on first use, and every later evaluation of it reuses them
(``FieldSolution._curve_values``). Off the curve both follow from the globally
compensated Cauchy sum
``F(z) = sum_j F_j w_j/(y_j - z) / (sum_j w_j/(y_j - z) - 2pi i)``,
``w_j = y'(t_j) h`` (Helsing & Ojala, J. Comput. Phys. 227 (2008) 2899;
Barnett, SIAM J. Sci. Comput. 36 (2014) A427), whose errors in numerator
and denominator cancel next to the curve. That sum takes F to vanish at
infinity, so each curve's data are shifted to make it so. Inside a body
the denominator vanishes; ``potential`` and ``gradient`` check the domain.

Sign conventions (used consistently everywhere):

  * the boundary normal ``nu`` is the domain's outward normal, INTO the
    body, so nu = -n_out; the flux of the field through a body boundary is
    minus the enclosed single-layer charge: ``int_dB nu.grad u dS = -q_B``;
  * jump relation on the exterior side: d/dn_out S = sigma/2 + K'sigma,
    hence ``nu.grad u = -(dH/dn_out + sigma/2 + K'sigma)``.

Every problem is a bordered system: collocation rows hold the field at a
constant per group of bodies, plus the group's given data, and one charge
row per group pins the group's total charge (0 for the conductor problem,
+/-1 for the two-group unit-flux problem, 0 in total for the
single-constant problem). Pinned charges make the field decay at infinity
and keep the system nonsingular even for a curve at logarithmic capacity
one, where the bare single layer degenerates. All of them go through one
LU factorization per operator, of the single-constant matrix
``[[S, -1], [h, 0]]``: group 0 takes its shared constant, every further
group adds a right-hand column with a unit potential step on its nodes,
and a small system of group charges fixes the step heights. One step of
iterative refinement on the problem's own system, through the same
factor, follows every solve. The factor and its solves call LAPACK's
``dgetrf``, ``dgetrs`` and ``dgecon`` directly, loaded once with the
package from scipy's compiled LAPACK module (``neckfield._scipy_ext``), with
no fetch per factor: ``lu_factor`` and ``lu_solve`` make the same calls,
bit for bit, behind argument checks that cost half as much as the solve
itself at the folded pair's size (about 10 us against 20 us for 273
unknowns, one BLAS thread on a 2-vCPU host).

The mesh decides the scene's two reflections, across the x-axis and
across a vertical line x = a, and hands the operator their index maps,
``BoundaryMesh.fold`` and ``BoundaryMesh.split`` (see the mesh module);
the operator samples no node for them. It folds where the mesh gives a
fold and the background has real coefficients, so that all its data are
even. A folded operator factors the rows of the upper-half nodes, each
column plus its mirror's, S[top, top] + S[top, mirror(top)], bordered by a
charge row of weight 2h. It is a quarter of the full matrix, and its rcond
is about twice the full matrix's (1.75-2.14x over the two-disk pair and the
acceptance grids of cases B and D). Each curve's record is half-built
alike: F and K' hold the rows of the upper-half nodes with folded columns,
(N/2)^2 entries per table, a quarter of the full ones, built from the
N^2/2 differences of the upper-half nodes to the upper-half nodes and to
their mirrors. Every log center lies on the axis, so F(conj z) = conj F(z):
the lower rows of F g are the mirrored conjugates of the upper rows, and a
cross block folds the Cauchy weights of mirror nodes onto the upper rows
instead of expanding F. The circulant parts of a folded column are a
Toeplitz plus a Hankel view of one circulant column: S's
Kussmaul-Martensen row, and for Im F the spectral antiderivative's column,
so Im F is one real product with the folded columns instead of FFTs of
their even extensions. Evaluation takes the full g and refuses an odd one;
the normal derivative is computed at the upper-half nodes and mirrored.

A folded operator whose mesh also gives a split commutes with its map P
of folded unknowns. A partner copies its source's record and column block
(``SceneOperator._mirrored_curve``) instead of building them, and the
factor splits into two half-size LUs, with r the source unknowns: the even
block S[r, r] + S[r, Pr], bordered by the constant column and a charge row
of twice the folded weights, and the odd block S[r, r] - S[r, Pr], which
carries no constant and no charge. Every solve splits its data into even
and odd parts and solves each block (``SceneOperator._lu_solve``), so the
data need no symmetry under x -> 2a - x. Any other operator keeps the
folded or full system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .. import _scipy_ext
from ..errors import (DomainError, InvalidParameterError, InvalidUsageError,
                      NumericFailureError)
from ..geometry.body import Body
from ..geometry.config import Configuration
from ..geometry.gap import GapFoot, GapInfo
from ..geometry.shapes import HarmonicBackground
from .mesh import BoundaryMesh, CurveMesh, MeshControls, build_mesh

_TWO_PI = 2.0 * np.pi
# Bordered systems with a smaller reciprocal condition number raise.
_RCOND_FLOOR = 1e-16
# Candidate log centers per axis of a body's bounding box (see _log_center).
_CENTER_GRID = 17
# Data of a folded solve must be even to this fraction of their largest
# entry.
_EVEN_TOL = 1e-12


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


def _multiplier(n: int, power: int) -> np.ndarray:
    """Fourier multiplier of the spectral derivative (power 1) or zero-mean
    antiderivative (power -1) in t on n nodes, without the Nyquist mode."""
    mult = np.zeros(n // 2 + 1, dtype=complex)
    ik = 1j * np.arange(1, n // 2)
    mult[1:n // 2] = ik if power == 1 else 1.0 / ik
    return mult


def _spectral(values: np.ndarray, power: int) -> np.ndarray:
    """Spectral derivative (power 1) or zero-mean antiderivative (power -1)
    in t of the real columns of node values, without the Nyquist mode."""
    n = values.shape[0]
    return np.fft.irfft(np.fft.rfft(values, axis=0) * _multiplier(n, power)[:, None],
                        n, axis=0)


def _circulant(col: np.ndarray, m: int, fold: bool) -> np.ndarray:
    """Rows and columns i, j < m of the circulant matrix col[(i - j) % n],
    n = col.size, and with ``fold`` (m = n/2) each column plus its
    mirror's, col[i + j + 1]: a Toeplitz and a Hankel view of col, read
    through strides rather than index tables."""
    col = np.ascontiguousarray(col)
    n, step = col.size, col.itemsize
    # wrapped[n - 1 + d] = col[d % n] for |d| < n
    wrapped = np.concatenate([col[1:], col])
    out = as_strided(wrapped[n - 1:], (m, m), (step, -step), writeable=False).copy()
    if fold:
        out += as_strided(col[1:], (m, m), (step, step), writeable=False)
    return out


def _folded_antiderivative(flux: np.ndarray) -> np.ndarray:
    """``_spectral(ext, -1)`` at the upper-half nodes for the even extension
    ext = [flux; flux reversed] of folded columns on N = 2m nodes: the
    antiderivative's circulant column folded (``_circulant``), times flux,
    one real product instead of 2m-point FFTs."""
    n = 2 * flux.shape[0]
    return _circulant(np.fft.irfft(_multiplier(n, -1), n), n // 2, True) @ flux


def _odd(values: np.ndarray, upper, mirror) -> bool:
    """Whether values differ between the upper-half nodes and their mirrors
    by more than ``_EVEN_TOL`` of their largest entry."""
    return bool(np.max(np.abs(values[upper] - values[mirror]), initial=0.0)
                > _EVEN_TOL * np.max(np.abs(values), initial=0.0))


@dataclass(frozen=True)
class _CurveData:
    """One curve's record, built with its block of S (``_build_curve``).
    Off the curve ``S_c g = Re F + (Q/2pi) log|z - zc|``, Q = h sum(g).
    ``F`` maps g to F at the nodes as a real stack: rows 2j and 2j+1 are
    Re F and -Im F at node j; F' g is the spectral derivative of F g over
    y'. ``kprime`` is K''s own block acting on g, (1/2pi) Re(n_out_i/(y_i -
    y_j)) h with the diagonal limit kappa_i/(4pi) h. ``y`` are the nodes and
    ``w`` = y'(t_j) h the Cauchy weights, as complex numbers.

    On a folded operator the record is half-built: ``F`` and ``kprime``
    hold the rows of the N/2 upper-half nodes, and their columns act on the
    upper half of an even g, each column plus its mirror's; F is an
    N x N/2 stack, (N/2)^2 per part, and K' is (N/2)^2, a quarter of the
    full tables each. ``zc`` lies on the axis, so F(conj z) = conj F(z):
    the lower rows of F g are the conjugates of the upper rows, in mirror
    order."""

    y: np.ndarray
    w: np.ndarray
    zc: complex
    h: float
    F: np.ndarray
    kprime: np.ndarray

    def kept(self, g: np.ndarray) -> np.ndarray:
        """The part of the curve's g that the record's columns act on: all
        of it, or on a half-built record the upper half of an even g. An
        odd g raises InvalidUsageError, since only its even part would
        act."""
        m = self.F.shape[1]
        if m < g.size and _odd(g, np.s_[:m], np.s_[:m - 1:-1]):
            raise InvalidUsageError("a density on a mirror-symmetric scene must be "
                                    "even under y -> -y")
        return g[:m]

    def values(self, g: np.ndarray, derivative: bool = False) -> np.ndarray:
        """F g at the nodes, or with ``derivative`` F' g."""
        fg = (self.F @ self.kept(g)).reshape(-1, 2)
        if fg.shape[0] < g.size:
            fg = np.vstack([fg, fg[::-1] * [1.0, -1.0]])
        if derivative:
            fg = _spectral(fg, 1)
        out = fg[:, 0] - 1j * fg[:, 1]
        return out * (self.h / self.w) if derivative else out


def _farthest_inside(cm: CurveMesh, body: Body) -> complex:
    """Of the area centroid and a grid over the nodes' bounding box, the
    point inside the body that lies farthest from the nodes."""
    x, y = cm.nodes.T
    vx, vy = cm.velocity.T
    area = 0.5 * cm.h * np.sum(x * vy - y * vx)
    centroid = np.array([np.sum(x * x * vy), -np.sum(y * y * vx)]) * cm.h / (2 * area)
    axes = [np.linspace(lo, hi, _CENTER_GRID)
            for lo, hi in zip(cm.nodes.min(axis=0), cm.nodes.max(axis=0))]
    cand = np.vstack([centroid, np.stack(np.meshgrid(*axes), -1).reshape(-1, 2)])
    cand = cand[body.contains(cand)]
    if cand.shape[0] == 0:
        raise NumericFailureError("no interior point found for the log center",
                                  {"body": cm.body_index})
    clearance = np.min(np.hypot(*(cand[:, None, :] - cm.nodes[None, :, :]).T), axis=0)
    return complex(*cand[int(np.argmax(clearance))])


class SceneOperator:
    """Assembled single-layer operator for one mesh; solves the exterior
    problems of a configuration and evaluates the represented fields. On a
    mirror-symmetric scene (``_fold`` not None) ``_slp`` holds the folded
    rows of the upper-half nodes, (n/2)^2 entries for n nodes in all, and
    each curve's record its half-built F and K', (N/2)^2 entries per table
    for a curve of N nodes (see the module docstring and ``_CurveData``)."""

    def __init__(self, cfg: Configuration, controls: MeshControls = MeshControls(),
                 mesh: Optional[BoundaryMesh] = None):
        self.cfg = cfg
        self.mesh = mesh if mesh is not None else build_mesh(cfg, controls)
        # the mesh's reflections, and the fold only where the background's
        # coefficients are real, which makes its data even under y -> -y
        real = all(c.imag == 0.0 for c in cfg.background.coeffs)
        self._fold = self.mesh.fold if real else None
        self._split = None if self._fold is None else self.mesh.split
        self._lu = None
        self._assemble_slp()

    # -- close evaluation ----------------------------------------------------

    def _log_center(self, cm: CurveMesh) -> complex:
        """A point well inside the curve's body: a disk's center, or the
        center of a lens's larger disk, which lies at least that disk's
        radius inside the union; for a smooth body the point of
        ``_farthest_inside``. On a folded operator the point lies on the
        axis, which makes the curve's F conjugate-symmetric: for a smooth
        body the point of a grid between the curve's two axis crossings, at
        t = 0 and pi, that lies farthest from the nodes. The segment between
        the crossings lies inside the body, since a simple curve meets its
        mirror image on the axis alone."""
        body = self.cfg.bodies[cm.body_index]
        if body.kind != "smooth":
            disk = body.disk if body.kind == "disk" else max(body.lens_disks,
                                                             key=lambda d: d.radius)
            x, y = disk.center
            return complex(x, 0.0 if self._fold is not None else y)
        if self._fold is not None:
            # nodes 0 and N/2-1 are the nodes next to the crossings
            x = np.linspace(cm.nodes[0, 0], cm.nodes[cm.n // 2 - 1, 0], _CENTER_GRID + 2)[1:-1]
            clearance = np.min(np.hypot(x[:, None] - cm.nodes[:, 0], cm.nodes[:, 1]), axis=1)
            return complex(x[int(np.argmax(clearance))], 0.0)
        return _farthest_inside(cm, body)

    def _unknowns(self, curve_index: int) -> slice:
        """The curve's unknowns in ``_slp``: all its nodes, or on a folded
        operator the upper half of them."""
        sl = self.mesh.curve_slice(curve_index)
        return sl if self._fold is None else slice(sl.start // 2, sl.stop // 2)

    def _build_curve(self, curve_index: int) -> _CurveData:
        """Write the curve's own block of S into ``_slp`` and return its
        record, both from the pairwise node differences y_i - y_j, formed
        once in real arithmetic with their squared lengths. S's block is
        the Kussmaul-Martensen rule plus the smooth part
        log|y_i - y_j|^2 - log 4 sin^2((t_i - t_j)/2), whose second term is
        circulant in t and joins the rule's row. K' is
        (n_out_i . d)/|d|^2 on the same differences. Re F is S's block minus
        the log term; Im F is the antiderivative in t of speed *
        d(Re F)/dn_out, the normal derivative on the exterior side (all
        curves run counterclockwise). The data are shifted so F vanishes at
        infinity, which the Cauchy sum assumes.

        On a folded operator only the rows i of the upper-half nodes are
        built, with folded columns: node j plus its mirror N-1-j, from the
        differences y_i - y_j and y_i - y_{N-1-j}, N^2/2 entries in all;
        the log term takes one log of the two halves' |d|^2 product. The
        circulant parts of a folded column, S's row and the spectral
        antiderivative's column, are col[(i - j) % N] + col[i + j + 1]
        (``_circulant``), so Im F is one real product of the latter with
        the folded columns (``_folded_antiderivative``). The shift, the sum
        over all rows, is 2 Re sum_top c F, since the mirror rows add its
        conjugate."""
        cm = self.mesh.curves[curve_index]
        n = cm.n
        fold = self._fold is not None
        m = n // 2 if fold else n
        y = _complex(cm.nodes)
        dy = _complex(cm.velocity)
        w = dy * cm.h
        row = kussmaul_row(n)
        row[1:] -= cm.h * np.log(4.0 * np.sin(0.5 * cm.h * np.arange(1, n)) ** 2)
        re = _circulant(row, m, fold)
        (x, yy), (nx, ny) = cm.nodes[:m].T, cm.normal_out[:m].T

        def differences(other):
            # components and squared lengths of y_i - y_j, i over the upper
            # nodes, j over ``other``; K' before its diagonal and scaling
            dx, dv = x[:, None] - other[:, 0], yy[:, None] - other[:, 1]
            r2 = dx * dx + dv * dv
            return r2, (nx[:, None] * dx + ny[:, None] * dv)

        r2, kprime = differences(cm.nodes[:m])
        np.fill_diagonal(r2, 1.0)
        kprime /= r2
        np.fill_diagonal(kprime, 0.5 * cm.curvature[:m])
        if fold:
            r2_mirror, k_mirror = differences(cm.nodes[:m - 1:-1])
            kprime += k_mirror / r2_mirror
            r2 *= r2_mirror
            del r2_mirror, k_mirror
        smooth = np.log(r2)
        # the log term's diagonal limit is 2 log(speed)
        smooth[np.diag_indices(m)] += 2.0 * np.log(cm.speed[:m])
        re += cm.h * smooth
        re /= 4.0 * np.pi
        kprime *= cm.h / _TWO_PI
        del r2, smooth
        own = self._unknowns(curve_index)
        self._slp[own, own] = re
        # jump relation with sigma = g/speed: speed (sigma/2 + K' sigma)
        flux = cm.speed[:m, None] * kprime
        flux[np.diag_indices(m)] += 0.5
        zc = self._log_center(cm)
        # a folded column carries a node's charge and its mirror's
        charge = self._nodes_per_unknown * cm.h / _TWO_PI
        re -= charge * np.log(np.abs(y[:m] - zc))[:, None]
        flux -= charge * (dy[:m] / (y[:m] - zc)).imag[:, None]
        im = _folded_antiderivative(flux) if fold else _spectral(flux, -1)
        F = np.stack([re, -im], axis=1)
        # F(inf) is the Cauchy integral at the interior point zc, taken in
        # real arithmetic on the stack [Re F; -Im F]
        c = w[:m] / (y[:m] - zc) / (2j * np.pi)
        (a0, a1), (b0, b1) = (np.stack([c.real, c.imag])
                              @ F.reshape(m, 2 * m)).reshape(2, 2, m)
        if not fold:
            F -= np.stack([a0 + b1, a1 - b0])
        else:
            F[:, 0] -= 2.0 * (a0 + b1)
        return _CurveData(y, w, zc, cm.h, F.reshape(2 * m, m), kprime)

    def _layer(self, curve_index: int, z: np.ndarray, g: Optional[np.ndarray] = None,
               derivative: bool = False, fg: Optional[np.ndarray] = None) -> np.ndarray:
        """One curve's single layer at complex targets z by the compensated
        Cauchy sum: S_c g, or with ``derivative`` its u_x - i u_y, from
        ``fg``, the record's ``values`` of g. With g None, the block acting
        on the curve's g, its columns folded on a folded operator: the
        Cauchy weights are scaled by the reciprocal of the denominator
        first, so Re(c F) is one real product of [Re c, Im c] with the stack
        [Re F; -Im F]. A half-built record's mirror rows are the conjugates
        of its rows, so the mirror weights fold onto them in place: Re c_top
        + Re c_mirror against Re F, Im c_top - Im c_mirror against Im F."""
        d = self._curves[curve_index]
        c = d.y[None, :] - z[:, None]
        np.divide(d.w, c, out=c)
        den = c.sum(axis=1) - 2j * np.pi
        if g is None:
            c *= (1.0 / den)[:, None]
            m = d.F.shape[1]
            if m < d.y.size:
                c_re, c_im = c.real, c.imag
                np.add(c_re[:, :m], c_re[:, :m - 1:-1], out=c_re[:, :m])
                np.subtract(c_im[:, :m], c_im[:, :m - 1:-1], out=c_im[:, :m])
                c = c[:, :m]
            out = c.view(float) @ d.F
            charge = d.h * self._nodes_per_unknown
            out += (np.log(np.abs(z - d.zc)) / _TWO_PI * charge)[:, None]
            return out
        out = c @ fg / den
        log_part = 1.0 / (z - d.zc) if derivative else np.log(np.abs(z - d.zc))
        out += log_part / _TWO_PI * (d.h * g.sum())
        return out if derivative else out.real

    # -- assembly ---------------------------------------------------------

    @property
    def _nodes_per_unknown(self) -> float:
        """1, or 2 on a folded operator: a node and its mirror."""
        return 1.0 if self._fold is None else 2.0

    def _rows(self) -> np.ndarray:
        """The nodes whose equations the system keeps: all, or on a folded
        operator the upper-half nodes."""
        return np.arange(self.mesh.n_total) if self._fold is None else self._fold[0]

    def _assemble_slp(self) -> None:
        """Curve by curve: its own block and record (``_build_curve``),
        then its cross column block at the kept nodes of all other curves.
        On a split operator a partner copies both from its source
        (``_mirrored_curve``)."""
        mesh, rows = self.mesh, self._rows()
        self._slp = np.empty((rows.size, rows.size))
        self._curves: list[_CurveData] = []
        z = _complex(mesh.nodes[rows])
        owner = mesh.body_of_node[rows]
        for cj, cm in enumerate(mesh.curves):
            if self._split is not None and cm.partner < cj:
                self._curves.append(self._mirrored_curve(cj))
                continue
            self._curves.append(self._build_curve(cj))
            others = owner != cj
            self._slp[others, self._unknowns(cj)] = self._layer(cj, z[others])

    def _mirrored_curve(self, curve_index: int) -> _CurveData:
        """A partner's column block of ``_slp`` and record, copied from its
        source's, both built before it. Mirror images across x = a have the
        same single layer at mirror points, so the block's rows are its
        source's at the mirror rows, with columns reversed; the record's Re
        F and K' are its source's with rows and columns reversed. A mirror
        image's F is z -> conj F_source(2a - conj z), with its log center
        reflected, so the -Im F rows are negated."""
        cm = self.mesh.curves[curve_index]
        src = self._curves[cm.partner]
        cols = self._unknowns(cm.partner)
        self._slp[:, self._unknowns(curve_index)] = \
            self._slp[self._split[1], cols.start:cols.stop][:, ::-1]
        m = src.kprime.shape[0]
        F = src.F.reshape(m, 2, m)[::-1, :, ::-1] * np.array([[1.0], [-1.0]])
        return _CurveData(_complex(cm.nodes), _complex(cm.velocity) * cm.h,
                          complex(2.0 * self.mesh.mirror_x - src.zc.real, 0.0), cm.h,
                          F.reshape(2 * m, m), src.kprime[::-1, ::-1].copy())

    # -- bordered solves -----------------------------------------------------

    def _charge_weights(self) -> np.ndarray:
        """The charge per unit g of each unknown: h, or on a folded
        operator 2h, a node's and its mirror's."""
        return self.mesh.step[self._rows()] * self._nodes_per_unknown

    def _blocks(self) -> list[np.ndarray]:
        """The matrices the factor splits the single-constant bordered
        matrix [[S, -1], [h, 0]] (folded on a mirror-symmetric scene) into,
        in Fortran order: the matrix itself, or on a split operator, with r
        the source unknowns and Pr their images, the even block
        S[r, r] + S[r, Pr] bordered by the constant column and a charge row
        of twice the unknowns' weights, and the odd block S[r, r] - S[r, Pr],
        whose densities carry no charge and no constant."""
        def bordered(block, charge_row):
            m = block.shape[0]
            M = np.zeros((m + 1, m + 1), order="F")
            M[:m, :m], M[:m, m], M[m, :m] = block, -1.0, charge_row
            return M

        if self._split is None:
            return [bordered(self._slp, self._charge_weights())]
        src, image = self._split
        kept = self._slp[src]
        same, cross = kept[:, src], kept[:, image[src]]
        return [bordered(same + cross, 2.0 * self._charge_weights()[src]),
                np.asfortranarray(same - cross)]

    def _factor(self):
        """LU factors of each of ``_blocks`` and the reciprocal condition
        number, built on first use. LAPACK's ``dgetrf`` and ``dgecon`` (and
        ``dgetrs`` for the solves) are called directly, as loaded with the
        package, with no fetch per factor: the same LAPACK calls as
        ``scipy.linalg.lu_factor`` and ``lu_solve``, bit for bit, without
        their argument checks."""
        if self._lu is None:
            factors, rcond = [], np.inf
            for M in self._blocks():
                norm = np.linalg.norm(M, 1)
                lu, piv, info = _scipy_ext.getrf(M, overwrite_a=True)
                # an exactly singular factor (info > 0) has no condition number
                rcond = min(rcond, _scipy_ext.gecon(lu, norm, norm="1")[0] if info == 0 else 0.0)
                factors.append((lu, piv))
            if not np.isfinite(rcond) or rcond < _RCOND_FLOOR:
                raise NumericFailureError("linear system too ill-conditioned",
                                          {"rcond": float(rcond), "n": self._slp.shape[0]})
            self._lu = (factors, float(rcond))
        return self._lu

    def _lu_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solutions of the bordered system for the columns of ``rhs``, its
        collocation rows and then the charge row, through the factor. A
        split operator solves the even part of the rows, (b + b[image])/2,
        with the charge in the even block and the odd part in the odd block:
        the even solution holds at an unknown and its image, the odd one
        with opposite signs."""
        getrs = _scipy_ext.getrs
        factors, _ = self._factor()
        if self._split is None:
            (lu, piv), = factors
            return getrs(lu, piv, rhs, overwrite_b=True)[0]
        (lu_e, piv_e), (lu_o, piv_o) = factors
        src, image = self._split
        img = image[src]
        b = rhs[:-1]
        even = getrs(lu_e, piv_e, np.concatenate([0.5 * (b[src] + b[img]), rhs[-1:]]),
                     overwrite_b=True)[0]
        odd = getrs(lu_o, piv_o, 0.5 * (b[src] - b[img]), overwrite_b=True)[0]
        out = np.empty_like(rhs)
        out[src], out[img], out[-1] = even[:-1] + odd, even[:-1] - odd, even[-1]
        return out

    @property
    def rcond(self) -> float:
        """Reciprocal 1-norm condition number of the bordered factor. On a
        mirror-symmetric scene that is the folded matrix, whose rcond is
        about twice the full matrix's (1.75-2.14x over the two-disk pair
        and the acceptance grids of cases B and D). On a split operator it
        is the smaller of its two blocks' estimates, 2.2x (eps 1e-2) to
        54x (eps 1e-6) the folded matrix's on the same mesh over the
        two-disk pair's benchmark grid.

        LAPACK's estimate is not bit-reproducible: two operators of one
        scene in one process can differ in its last bit while their fields
        agree exactly. Compare it relatively, never exactly."""
        return self._factor()[1]

    def _solve(self, node_group: np.ndarray, rhs: np.ndarray, charges: np.ndarray):
        """g and the group constants c of S g - c[node_group] = rhs with
        group k's charge sum(h g) equal to charges[k]. A folded operator
        solves for g on the upper-half nodes and mirrors it, so its data
        must be even in y; odd data raise InvalidUsageError."""
        fold = self._fold
        if fold is not None:
            top, mirror = fold
            if np.any(node_group[top] != node_group[mirror]) or _odd(rhs, top, mirror):
                raise InvalidUsageError("the data of a mirror-symmetric scene must be "
                                        "even under y -> -y")
            node_group, rhs = node_group[top], rhs[top]
        n_tot, h = node_group.size, self._charge_weights()
        unit_steps = (node_group[:, None] == np.arange(1, charges.size)).astype(float)
        step_sols = self._lu_solve(np.vstack([unit_steps, np.zeros((1, charges.size - 1))]))
        step_charges = (unit_steps * h[:, None]).T
        Q = step_charges @ step_sols[:n_tot]
        if Q.size and not (np.all(np.isfinite(Q))
                           and 1.0 / np.linalg.cond(Q, 1) >= _RCOND_FLOOR):
            raise NumericFailureError("singular group charge system",
                                      {"matrix": Q.tolist()})

        def apply(b, q):
            x = self._lu_solve(np.append(b, q.sum()))
            heights = np.linalg.solve(Q, q[1:] - step_charges @ x[:n_tot])
            x += step_sols @ heights
            return x[:n_tot], x[n_tot] + np.append(0.0, heights)

        g, c = apply(rhs, charges)
        # one step of iterative refinement on this problem's own system
        g_fix, c_fix = apply(rhs - self._slp @ g + c[node_group],
                             charges - np.bincount(node_group, h * g, charges.size))
        g += g_fix
        if fold is not None:
            half, g = g, np.empty(self.mesh.n_total)
            g[top] = half
            g[mirror] = half
        return g, c + c_fix

    # -- problem frontends --------------------------------------------------

    def solve_u(self, groups: Optional[Sequence[Sequence[int]]] = None) -> "FieldSolution":
        """Conductor problem: u = H + S[sigma], constant per conductor,
        zero net flux per conductor. ``groups`` overrides the configuration's
        conductor partition (equipotential unions of bodies)."""
        groups = self._partition(groups or self.cfg.groups, "groups")
        return self._field("u", groups, -self.cfg.background(self.mesh.nodes),
                           np.zeros(len(groups)), self.cfg.background)

    def solve_h(self, partition: Sequence[Sequence[int]]) -> "FieldSolution":
        """Two-group unit-flux problem: h = S[sigma] with h -> 0 at
        infinity, flux -1 through the first group and +1 through the second
        (charges +1 and -1)."""
        part = self._partition(partition, "partition")
        if len(part) != 2:
            raise InvalidUsageError("partition must have exactly two groups")
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
        # the last guard: no field carries a non-finite density or constant
        bad = ~np.isfinite(g)
        if bad.any() or not np.all(np.isfinite(consts)):
            raise NumericFailureError(
                f"the {kind} solve returned a non-finite density or constant",
                {"curves": np.unique(self.mesh.body_of_node[bad]).tolist(),
                 "constants": consts.tolist(), "rcond": self.rcond})
        return FieldSolution(self, kind, groups, g, consts, background)

    def _partition(self, groups: Sequence[Sequence[int]], name: str):
        """``groups`` as a tuple of tuples; raises InvalidUsageError unless
        they hold every body of the configuration exactly once."""
        part = tuple(tuple(g) for g in groups)
        if sorted(i for p in part for i in p) != list(range(len(self.cfg.bodies))):
            raise InvalidUsageError(f"{name} must cover all bodies exactly once")
        return part

    def _node_group(self, groups: Sequence[Sequence[int]]) -> np.ndarray:
        """The group of every node, from the group of every curve."""
        group_of = np.empty(len(self.mesh.curves), dtype=int)
        for gi, members in enumerate(groups):
            group_of[list(members)] = gi
        return group_of[self.mesh.body_of_node]

    # -- evaluation --------------------------------------------------------

    def _layers(self, g: np.ndarray, z: np.ndarray, derivative: bool = False,
                skip: Optional[int] = None, *,
                values: Callable[[int, bool], np.ndarray]) -> np.ndarray:
        """Sum of the curves' single layers of g at complex targets z, or
        with ``derivative`` of their u_x - i u_y; curve ``skip`` left out.
        ``values(curve, derivative)`` supplies each curve's F g or F' g (a
        field's memo)."""
        return sum(self._layer(ci, z, g[self.mesh.curve_slice(ci)], derivative,
                               values(ci, derivative))
                   for ci in range(len(self.mesh.curves)) if ci != skip)


@dataclass
class FieldSolution:
    """A solved field with its boundary constants.

    ``kind`` is "u" (conductor problem), "h" (two-group unit-flux problem)
    or "hc" (single shared constant); ``groups`` lists body indices per
    constant. ``rcond`` is the operator's, the same for every field solved
    on it.

    A field keeps what its evaluations share, each computed on first use:
    per curve the normal derivative at the nodes, and the record's F g and
    F' g of the field's g (``_curve_values``), which every ``potential``,
    ``gradient`` and normal-derivative call sums against its Cauchy
    weights. So a gap-maximum search's many gradient calls apply each
    curve's F once, with one FFT for F'.
    """

    op: SceneOperator
    kind: str
    groups: tuple[tuple[int, ...], ...]
    g: np.ndarray
    constants: np.ndarray
    background: Optional[HarmonicBackground]
    # nu.grad of the field per curve, computed on first use
    _dnu: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # each curve's F g and F' g, by (curve, derivative), computed on first use
    _fg: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def mesh(self) -> BoundaryMesh:
        return self.op.mesh

    @property
    def rcond(self) -> float:
        return self.op.rcond

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
        out = self.op._layers(self.g, _complex(pts), derivative, values=self._curve_values)
        if derivative:
            out = np.stack([out.real, -out.imag], axis=-1)
        if self.background is not None:
            out = out + (self.background.gradient(pts) if derivative
                         else self.background(pts))
        return out

    def _curve_values(self, curve_index: int, derivative: bool) -> np.ndarray:
        """The curve record's ``values`` of the field's g, F g or with
        ``derivative`` F' g, computed once per field."""
        key = (curve_index, derivative)
        if key not in self._fg:
            g = self.g[self.mesh.curve_slice(curve_index)]
            self._fg[key] = self.op._curves[curve_index].values(g, derivative)
        return self._fg[key]

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
        """nu.grad of the field at all nodes, nu the domain's outward normal."""
        return np.concatenate([self._normal_derivative(ci)
                               for ci in range(len(self.mesh.curves))])

    def _normal_derivative(self, curve_index: int) -> np.ndarray:
        """nu.grad of the field at one curve's nodes, computed once: the
        jump term sigma/2 and the curve's own K' block applied to its g,
        plus the normal component of the other curves' layer gradients
        there, give d/dn_out on the exterior side; nu = -n_out. On a
        folded operator, where the record's K' block holds the rows of the
        upper-half nodes, all but the jump term are computed there and
        mirrored. The jump term sigma/2 = g/(2 speed) keeps each node's own
        speed, so that times the quadrature weight speed h it stays h g/2."""
        if curve_index not in self._dnu:
            cm, d = self.mesh.curves[curve_index], self.op._curves[curve_index]
            own = self.mesh.curve_slice(curve_index)
            g = self.g[own]
            top = d.kept(g)
            nodes, normal = cm.nodes[:top.size], cm.normal_out[:top.size]
            cross = self.op._layers(self.g, _complex(nodes), True, skip=curve_index,
                                    values=self._curve_values)
            val = d.kprime @ top + (cross * _complex(normal)).real
            if self.background is not None:
                val += np.einsum("ij,ij->i", self.background.gradient(nodes), normal)
            if top.size < g.size:
                val = np.concatenate([val, val[::-1]])
            self._dnu[curve_index] = -(self.sigma[own] / 2 + val)
        return self._dnu[curve_index]

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

    On a body the field is constant, so grad = (d_nu field) nu. The
    foot's point and speed |dx/dt| are framed at its chain coordinate v,
    and v maps to its mesh parameter t by the chain map's forward map; the
    normal derivative on the foot's curve alone is interpolated there,
    speed-weighted since g = sigma |dx/dt| is the smooth quantity in t. A
    foot whose mesh point misses p names the wrong body and raises
    InvalidUsageError."""
    cm = sol.mesh.curves[foot.body]
    chain = cm.chain
    v = chain.v_edges[foot.chart] + (foot.u - chain.charts[foot.chart].u0)
    t = chain.t_of_v(v)
    q, der, _ = chain.frame_of_v(v)
    speed = np.hypot(*der.T) * chain.dvdt(v)
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
