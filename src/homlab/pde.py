"""Divergence-form elliptic solver on structured grids.

Discretization: cell-centered finite volumes with face-sampled tensor
coefficients.  The current of face values g (a gradient: two-point
differences, zero on boundary faces) has one definition,
``face_current``: ``a_kk g_k`` through a k-face plus, with off-diagonal
entries, the cross part ``face_current_map``.  ``flux``,
``corrector.coefficient_times_vector`` and the operator all read it, so
``A u = -div flux(u)`` up to Dirichlet ghost terms, and symmetric face
matrices give a symmetric matrix as assembled.

The matrix is stored by diagonals (scipy's ``dia_matrix``), their flat
steps ascending.  Assembly slices the diagonal part (face couplings,
Dirichlet ghost weights on the centre) into the 2d+1 stencil bands and
writes each into the cell-shaped view of its diagonal; on a periodic seam
the edge layer of a band goes into its wrap diagonal.  The cross part
``G^T X G`` (G the sparse face gradient) is added one diagonal at a time.
As the steps ascend, each row of a product sums in ascending column
order, as a CSR product with sorted columns does.

Boundary conditions on half-boxes:

* ``Dirichlet(g)``: second-order ghost values at face centers,
  eliminated into the right-hand side (keeps symmetry);
* ``NoFlux(g)``: the total outward current ``e . (a grad u + F)`` is
  prescribed to ``g`` on the face; the term enters the right-hand side
  only, mirroring the weak formulation in which the boundary flux term
  is simply absent.

Pure-periodic (and pure-Neumann) systems are singular with constant null
space; the solver pins the mean-zero representative by projecting out
the constant mode of every float64 residual and iterate.

An ``Operator`` is built once per (field, boundary kinds) and holds the
matrix and the preconditioner; its ``system`` turns boundary data and
sources into right-hand sides, so many solves share one assembly.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _transforms as ft
from .grid import Grid, HALF_BOX, TORUS, cell_offsets, face_offsets

log = logging.getLogger(__name__)

Datum = Union[float, np.ndarray, Callable]


# ---------------------------------------------------------------------------
# field containers
# ---------------------------------------------------------------------------


@dataclass
class ScalarField:
    """Scalar values on a staggered home (cells by default)."""

    grid: Grid
    values: np.ndarray
    offsets: tuple = None

    def __post_init__(self):
        if self.offsets is None:
            self.offsets = cell_offsets(self.grid.dim)
        self.values = np.asarray(self.values, dtype=float)
        expect = self.grid.home_shape(self.offsets)
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape} != home shape {expect}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")

    def mean(self):
        return float(self.values.mean())

    def copy(self):
        return ScalarField(self.grid, self.values.copy(), self.offsets)


@dataclass
class VectorField:
    """One normal component per face, stored per axis.

    On non-periodic axes the component array includes the two boundary
    face layers (size m+1 along its own axis).
    """

    grid: Grid
    comps: list

    def __post_init__(self):
        d = self.grid.dim
        if len(self.comps) != d:
            raise ValueError("need one component per axis")
        self.comps = [np.asarray(c, dtype=float) for c in self.comps]
        for k, c in enumerate(self.comps):
            expect = self.grid.face_shape(k)
            if c.shape != expect:
                raise ValueError(f"component {k} shape {c.shape} != {expect}")

    @staticmethod
    def zeros(grid):
        return VectorField(grid, [np.zeros(grid.face_shape(k)) for k in range(grid.dim)])

    def copy(self):
        return VectorField(self.grid, [c.copy() for c in self.comps])


# ---------------------------------------------------------------------------
# boundary conditions and sources
# ---------------------------------------------------------------------------


@dataclass
class Dirichlet:
    value: Datum = 0.0


@dataclass
class NoFlux:
    """Prescribed outward total current e . (a grad u + F) = value."""

    value: Datum = 0.0


@dataclass
class PeriodicBC:
    pass


@dataclass
class BoundarySpec:
    """Per-side boundary conditions; torus grids admit only periodic."""

    sides: dict = dc_field(default_factory=dict)  # (axis, side) -> bc

    @staticmethod
    def periodic():
        return BoundarySpec({})

    @staticmethod
    def half_box(grid, flat=None, top=None, lateral=None):
        """Default closure of the truncated half-space: homogeneous
        no-flux on the flat side, zero Dirichlet on top, lateral sides
        periodic (slab grids) or zero Dirichlet (plain half-box)."""
        d = grid.dim
        sides = {}
        for a in range(d - 1):
            if grid.periodic_axis(a):
                if lateral is not None:
                    raise ValueError("lateral data given on a periodic slab axis")
                sides[(a, 0)] = PeriodicBC()
                sides[(a, 1)] = PeriodicBC()
            else:
                lat = lateral if lateral is not None else Dirichlet(0.0)
                sides[(a, 0)] = lat
                sides[(a, 1)] = lat
        sides[(d - 1, 0)] = flat if flat is not None else NoFlux(0.0)
        sides[(d - 1, 1)] = top if top is not None else Dirichlet(0.0)
        return BoundarySpec(sides)

    def bc(self, axis, side):
        return self.sides.get((axis, side), PeriodicBC())


@dataclass
class SourceTerm:
    """Right-hand side f + div F (F enters weakly through face fluxes)."""

    volume: Optional[np.ndarray] = None
    divergence_form: Optional[VectorField] = None


@dataclass
class SolveStats:
    iterations: int
    relative_residual: float  # |b - Ax| / |b| at exit, computed in float64
    energy: float
    true_residual: float  # |b - Ax| / |b| at exit


class SolverError(RuntimeError):
    def __init__(self, message, best_x=None, history=None):
        super().__init__(message)
        self.best_x = best_x
        self.history = history or []


def _boundary_datum(value, grid, axis, side):
    """Evaluate a boundary datum on the face layer (axis, side)."""
    offs = face_offsets(grid.dim, axis)
    want = tuple(s for a, s in enumerate(grid.face_shape(axis)) if a != axis)
    if callable(value):
        # layer coordinates from the 1-D points of the other axes and the
        # side's fixed coordinate, not from full-box meshgrids
        pts = [grid.points_along(a, offs[a]) for a in range(grid.dim)]
        pts[axis] = pts[axis][0 if side == 0 else -1]
        coords = [c.reshape(want) for c in np.meshgrid(*pts, indexing="ij")]
        out = np.asarray(value(*coords), dtype=float)
    else:
        out = np.asarray(value, dtype=float)
    if out.ndim == 0:
        out = np.full(want, float(out))
    if out.shape != want:
        raise ValueError(f"boundary datum shape {out.shape} != {want}")
    return out


def _transform_bcs(grid, bc):
    out = []
    for a in range(grid.dim):
        if grid.periodic_axis(a):
            out.append((ft.PERIODIC, ft.PERIODIC))
        else:
            pair = []
            for s in (0, 1):
                b = bc.bc(a, s)
                if isinstance(b, Dirichlet):
                    pair.append(ft.DIRICHLET)
                elif isinstance(b, NoFlux):
                    pair.append(ft.NEUMANN)
                else:
                    raise ValueError("periodic side on a non-periodic axis")
            out.append(tuple(pair))
    return tuple(out)


def _side_cells(L, k, side):
    """Flat indices of the cell layer next to side (k, side)."""
    return np.take(L, 0 if side == 0 else L.shape[k] - 1, axis=k).ravel()


class Operator:
    """-div(a grad u) for one coefficient field and one set of boundary
    kinds: the matrix by diagonals, its symmetric and singular flags, the
    mean coefficient and transform bcs of the fast solve, and (built on
    first use) its float32 cast for the inner CG solves and their
    preconditioner, the fast solve between two l1-Jacobi smoothing steps.
    Only the kinds of ``bc`` enter; ``system`` turns boundary data and
    sources into right-hand sides, so one operator serves every
    right-hand side.
    """

    def __init__(self, field, bc):
        grid = field.grid
        d = grid.dim
        shape = grid.shape
        n_cells = int(np.prod(shape))
        inv_h2 = 1.0 / (grid.h * grid.h)
        if grid.topology == TORUS:
            if any(not isinstance(b, PeriodicBC) for b in bc.sides.values()):
                raise ValueError("torus grids admit only periodic conditions")
            self.axis_bcs = ((ft.PERIODIC, ft.PERIODIC),) * d
        else:
            self.axis_bcs = _transform_bcs(grid, bc)  # validates side kinds
        self.field, self.grid, self.bc = field, grid, bc

        per = [grid.periodic_axis(a) for a in range(d)]
        stride = [int(np.prod(shape[a + 1:])) for a in range(d)]
        # the flat steps of the bands: the centre, the neighbours and, on
        # periodic axes, the wrap steps of the layers next to the seam
        steps = {0} | {s * stride[k] for k in range(d) for s in (-1, 1)}
        steps |= {s * (shape[k] - 1) * stride[k] for k in range(d) if per[k] for s in (-1, 1)}
        cross_steps = []
        if not field.diagonal:
            # -div of the cross current: G^T X G, as X has zero boundary rows
            diff = [_face_from_cells(grid, a, -1.0 / grid.h, 1.0 / grid.h) for a in range(d)]
            G = sp.vstack([_on_axes(grid, [diff[a] if a == k else None for a in range(d)])
                           for k in range(d)])
            cross = G.T @ face_current_map(field) @ G
            entries = cross.tocoo()
            cross_steps = np.unique(entries.col - entries.row).tolist()
            steps.update(cross_steps)
        offsets = sorted(steps)
        data = np.zeros((len(offsets), n_cells))
        # diag[o] views the diagonal of step o by cells: at the cell of
        # column c it holds the coefficient of column c in row c - o
        diag = {o: row.reshape(shape) for o, row in zip(offsets, data)}
        centre = diag[0]

        def facing(a, k, s):  # interior k-face values above (s=1) or below each cell
            if per[k]:
                return np.roll(a, -1, axis=k) if s > 0 else a
            out = np.zeros(shape)
            out[(slice(None),) * k + (slice(0, -1) if s > 0 else slice(1, None),)] = a
            return out

        self._dirichlet_weight = {}  # (axis, side) -> ghost weight 2 a_kk / h^2
        for k in range(d):
            a_kk = field.entry(k, k)
            t = (a_kk if per[k] else a_kk[(slice(None),) * k + (slice(1, shape[k]),)]) * inv_h2
            lo, hi, first, last = ((slice(None),) * k + (i,) for i in
                                   (slice(0, -1), slice(1, None), slice(0, 1), slice(-1, None)))
            for s in (-1, 1):
                ts = facing(t, k, s)
                centre += ts
                # row c couples to column c + s e_k; the edge layer's column
                # wraps across a periodic side, and past another side the
                # band is zero and skipped
                rows, cols, edge, seam = (lo, hi, last, first) if s > 0 else (hi, lo, first, last)
                diag[s * stride[k]][cols] -= ts[rows]
                if per[k]:
                    diag[-s * (shape[k] - 1) * stride[k]][seam] -= ts[edge]
            for side in (i for i in (0, 1) if isinstance(bc.bc(k, i), Dirichlet)):
                t_b = a_kk[(slice(None),) * k + (side * shape[k],)]
                w = self._dirichlet_weight[k, side] = 2.0 * (t_b * inv_h2)
                centre[(slice(None),) * k + (-side,)] += w
        for o in cross_steps:
            data[offsets.index(o), max(o, 0):n_cells + min(o, 0)] += cross.diagonal(o)
        self.matrix = sp.dia_matrix((data, offsets), shape=(n_cells, n_cells))
        self.symmetric = field.is_symmetric()
        self.singular = grid.topology == TORUS or not any(
            isinstance(b, Dirichlet) for b in bc.sides.values())
        self.mean_coeff = float(np.mean([field.entry(k, k).mean() for k in range(d)]))

    @cached_property
    def matrix32(self):
        """The matrix in float32, for the inner CG solves."""
        return self.matrix.astype(np.float32)

    @cached_property
    def preconditioner(self):
        """The symmetric two-level preconditioner of the inner CG solves
        (Tang, Nabben, Vuik and Erlangga, J. Sci. Comput. 39, 2009):
        ``M(r, norm)`` smooths with l1-Jacobi ``S = SMOOTH_WEIGHT / l1``,
        ``l1`` the row sums of ``|A|`` (Baker, Falgout, Kolev and Yang,
        SIAM J. Sci. Comput. 33, 2011), corrects with the fast
        constant-coefficient solve ``F`` of the operator's kinds and mean
        coefficient, and smooths again:

            z1 = S r,  z2 = z1 + F(r - A z1),  z = z2 + S(r - A z2).

        A symmetric A satisfies A <= diag(l1), so ``2S - SAS`` and with it
        M are positive definite for weights below 2, whatever the boundary
        kinds.  All of it runs in single precision on the float32 residuals
        of the inner CG solves, whose norm (``norm``) is about 1 or less and
        more than ``INNER_TOL``, so the transforms need no scaling."""
        shape = self.grid.shape
        solver = ft.FastConstSolver(self.grid, cell_offsets(self.grid.dim), self.axis_bcs,
                                    shape, project_mean=self.singular,
                                    coeff=max(self.mean_coeff, 1e-30), dtype=np.float32)
        A32 = self.matrix32
        n = A32.shape[0]
        s = np.zeros(n, np.float32)  # l1 summed one diagonal at a time, no |A| copy
        for o, diagonal in zip(A32.offsets.tolist(), A32.data):
            s[max(-o, 0):n - max(o, 0)] += np.abs(diagonal[max(o, 0):n + min(o, 0)])
        np.divide(SMOOTH_WEIGHT, s, out=s)

        def apply(r, norm):  # the residuals r - A z overwrite the products A z
            z = s * r
            t = A32 @ z
            z += solver.solve(np.subtract(r, t, out=t).reshape(shape)).ravel()
            t = A32 @ z
            z += np.multiply(s, np.subtract(r, t, out=t), out=t)
            return z

        return apply

    def system(self, bc=None, src=None):
        """The LinearSystem of boundary data ``bc`` (the operator's kinds;
        default its own data) and source ``src``: Dirichlet data through
        the ghost weights, no-flux data as prescribed currents that
        absorb the divergence-form source on their faces."""
        bc = self.bc if bc is None else bc
        for key in set(bc.sides) | set(self.bc.sides):
            if type(bc.bc(*key)) is not type(self.bc.bc(*key)):
                raise ValueError(f"side {key} has another boundary kind than the operator")
        grid = self.grid
        shape = grid.shape
        h = grid.h
        L = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
        rhs = np.zeros(L.size)
        if src is not None and src.volume is not None:
            vol = np.asarray(src.volume, dtype=float)
            if vol.shape != shape:
                raise ValueError("volume source shape mismatch")
            rhs += vol.ravel()
        F = src.divergence_form if src is not None else None
        for k in range(grid.dim):
            if grid.periodic_axis(k):
                if F is not None:
                    Fk = F.comps[k]
                    rhs += ((np.roll(Fk, -1, axis=k) - Fk) / h).ravel()
                continue
            Fk = F.comps[k].copy() if F is not None else None
            for side in (0, 1):
                b_side = bc.bc(k, side)
                g = _boundary_datum(b_side.value, grid, k, side)
                cells = _side_cells(L, k, side)
                if isinstance(b_side, Dirichlet):
                    rhs[cells] += (self._dirichlet_weight[k, side] * g).ravel()
                else:
                    rhs[cells] += (g / h).ravel()
                    if Fk is not None:  # absorbed into the datum
                        Fk[(slice(None),) * k + (side * shape[k],)] = 0.0
            if Fk is not None:
                rhs += (np.diff(Fk, axis=k) / h).ravel()
        shift = 0.0
        if self.singular:
            shift = float(rhs.mean())
            rhs -= shift
            if abs(shift) > 1e-12 * (1.0 + np.abs(rhs).max()):
                log.info("subtracted rhs mean %.3e for singular system", shift)
        return LinearSystem(self, rhs, bc, shift)


@dataclass
class LinearSystem:
    """One right-hand side on an Operator, whose matrix, flags and
    preconditioner it shares."""

    operator: Operator
    rhs: np.ndarray
    bc: BoundarySpec
    rhs_mean_shift: float = 0.0  # mean removed from an incompatible rhs

    matrix = property(lambda self: self.operator.matrix)
    grid = property(lambda self: self.operator.grid)
    symmetric = property(lambda self: self.operator.symmetric)
    singular = property(lambda self: self.operator.singular)
    axis_bcs = property(lambda self: self.operator.axis_bcs)  # per-axis (low, high)

    @property
    def n_unknowns(self):
        return self.matrix.shape[0]


def assemble(field, bc, src=None):
    """Assemble -div(a grad u) = f + div F into a sparse linear system on
    a one-use Operator; callers with several right-hand sides on one
    operator build the Operator once and call its ``system``.

    ``field`` is a CoefficientField (faces attribute per axis),
    ``bc`` a BoundarySpec, ``src`` a SourceTerm.
    """
    return Operator(field, bc).system(bc, src)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


# Relative target of one float32 inner solve.  Float32 CG attains about
# kappa * eps32 (eps32 = 6e-8, kappa the preconditioned condition number,
# about the coefficient contrast): asking more of it costs iterations that
# do not lower the true residual.  The float64 outer loop does the rest.
INNER_TOL = 1e-4

# Weight of the l1-Jacobi smoothing steps of ``Operator.preconditioner``.
# Any weight below 2 keeps the preconditioner positive definite.
SMOOTH_WEIGHT = 1.5


def _norm(v):
    """|v|, computed again on v / max |v| when the sum of squares may have
    under- or overflowed; inf or nan when v holds a non-finite entry."""
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(v))
    if 1e-150 < n < 1e150:
        return n
    m = float(np.abs(v).max())
    return m * float(np.linalg.norm(v / m)) if 0.0 < m < np.inf else m


def _bicgstab(A, b, nb, tol, max_iter):
    """scipy's BiCGSTAB, restarted from its last iterate while the true
    residual is above ``tol`` (scipy stops on its recursive residual)."""
    x, it, history = np.zeros_like(b), 0, []

    def count(xk):
        nonlocal it
        it += 1

    while True:
        x_prev = x
        x, info = spla.bicgstab(A, b, x0=x, rtol=tol, maxiter=max_iter - it, callback=count)
        Ax = A @ x
        true = _norm(b - Ax) / nb
        history.append(true)
        if true <= tol:
            return x, Ax, it, true
        if len(history) > 1 and true >= history[-2]:
            raise SolverError(f"bicgstab restart stalled at true residual {true:.3e} > tol={tol}",
                              best_x=x_prev, history=history)
        if info != 0 or it >= max_iter:
            raise SolverError(f"bicgstab failed with code {info} at true residual {true:.3e}",
                              best_x=x, history=history)


def solve(system, tol=1e-10, max_iter=20000):
    """Solve the assembled system to a true residual |b - Ax| / |b| of at
    most ``tol``.

    Returns (ScalarField, SolveStats).  Semi-definite systems return the
    mean-zero representative.  Non-convergence raises SolverError with
    the best iterate and the residual history attached.

    Symmetric systems: mixed-precision iterative refinement (Carson and
    Higham, SIAM J. Sci. Comput. 40, 2018).  A float64 loop computes
    r = b - Ax (mean-free on singular systems), returns once |r| / |b| <=
    tol, and otherwise adds |r| d, where float32 PCG solves A d = r / |r|
    to the relative target max(INNER_TOL, tol |b| / (2 |r|)).  Inner CG
    takes the flexible (Polak-Ribiere) beta, which tolerates a
    preconditioner that is not exactly symmetric (Notay, SIAM J. Sci.
    Comput. 22, 2000), and projects nothing: A annihilates constants, so
    the constant part that the smoothing steps of the preconditioner add
    to the correction leaves r alone, and the outer loop projects r and x.
    A correction that does not lower |r|, or ``max_iter`` spent inner
    iterations, raises SolverError, and so does a non-finite |b|, |r| or
    p.Ap.  Nonsymmetric systems: scipy's BiCGSTAB, restarted from its
    iterate under the same two rules.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    grid = system.grid
    b = system.rhs
    nb = _norm(b)
    if not np.isfinite(nb):
        raise SolverError(f"right-hand side is not finite (|b| = {nb})")
    if nb == 0.0:
        zero = ScalarField(grid, np.zeros(grid.shape))
        return zero, SolveStats(0, 0.0, 0.0, 0.0)

    if not system.symmetric:
        x, Ax, it, true = _bicgstab(system.matrix, b, nb, tol, max_iter)
        energy = 0.5 * float(x @ Ax) - float(x @ b)
        return ScalarField(grid, x.reshape(grid.shape)), SolveStats(it, true, energy, true)

    M = system.operator.preconditioner
    A, A32 = system.matrix, system.operator.matrix32
    project = system.singular
    x, r = np.zeros_like(b), b.copy()
    history = []
    it, x_prev = 0, None
    while True:
        if project:
            r -= r.mean()
        nr = _norm(r)
        if not np.isfinite(nr):
            raise SolverError(f"residual is not finite (|r| = {nr})", best_x=x_prev,
                              history=history)
        true = nr / nb
        history.append(true)
        if true <= tol:
            break
        if len(history) > 1 and true >= history[-2]:
            raise SolverError(f"refinement stalled at true residual {true:.3e} > tol={tol}",
                              best_x=x_prev, history=history)
        if it >= max_iter:
            raise SolverError(f"CG did not reach tol={tol} in {max_iter} iterations "
                              f"(best residual {true:.3e})", best_x=x, history=history)
        # float32 PCG for A d = r / |r|, buffers allocated once per correction
        target = max(INNER_TOL, 0.5 * tol / true)
        r32 = np.divide(r, nr, out=np.empty(r.shape, np.float32), casting="same_kind")
        d = np.zeros_like(r32)
        scratch = np.empty_like(r32)
        z = M(r32, 1.0)
        p = z.astype(np.float32)
        rz = float(r32 @ z)
        while it < max_iter:
            Ap = A32 @ p
            pAp = float(p @ Ap)
            if not pAp > 0.0:  # also a nan from a non-finite product
                raise SolverError(f"operator lost positivity in CG (pAp = {pAp})",
                                  best_x=x, history=history)
            alpha = rz / pAp
            d += np.multiply(p, alpha, out=scratch)
            r32 -= np.multiply(Ap, alpha, out=scratch)
            rel = float(np.sqrt(r32 @ r32))
            it += 1
            if rel <= target:
                break
            z = M(r32, rel)
            beta = -alpha * float(z @ Ap) / rz
            rz = float(r32 @ z)
            p *= beta
            p += z
        x_prev = x
        # in float64: nr * d would be float32 (NEP 50) and under- or overflow
        x = x + np.multiply(d, nr, dtype=np.float64)
        if project:
            x -= x.mean()
        r = b - A @ x
    energy = -0.5 * nb * float((x / nb) @ (b + r))  # x.Ax / 2 - x.b with Ax = b - r
    stats = SolveStats(it, true, energy, true)
    return ScalarField(grid, x.reshape(grid.shape)), stats


def dense_solve(system):
    """Direct dense solve, the oracle for small systems (<= a few 1e3)."""
    A = system.matrix.toarray()
    b = system.rhs
    if system.singular:
        # pin the mean-zero representative via least squares
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        x -= x.mean()
        return x.reshape(system.grid.shape)
    return np.linalg.solve(A, b).reshape(system.grid.shape)


def residual_norm(system, x):
    r = system.rhs - system.matrix @ np.ravel(x)
    nb = np.linalg.norm(system.rhs)
    return float(np.linalg.norm(r) / (nb if nb > 0 else 1.0))


# ---------------------------------------------------------------------------
# field calculus
# ---------------------------------------------------------------------------


def gradient(u):
    """Face-homed gradient of a cell field.

    Boundary faces of non-periodic axes are set to zero; diagnostics
    exclude boundary planes, and flux conditions there are handled by
    the assembler, not by this helper.
    """
    grid = u.grid
    h = grid.h
    comps = []
    for k in range(grid.dim):
        if grid.periodic_axis(k):
            comps.append((u.values - np.roll(u.values, 1, axis=k)) / h)
        else:
            g = np.zeros(grid.face_shape(k))
            sl = [slice(None)] * grid.dim
            sl[k] = slice(1, grid.shape[k])
            g[tuple(sl)] = np.diff(u.values, axis=k) / h
            comps.append(g)
    return VectorField(grid, comps)


def divergence(vf):
    """Cell-homed divergence of a face field (uses boundary faces)."""
    out = np.zeros(vf.grid.shape)
    for k in range(vf.grid.dim):
        out += diff_to_half(vf.comps[k], vf.grid, k)
    return out


def diff_to_integer(vals, grid, axis):
    """Difference of a half-offset axis toward the integer home.  A
    non-periodic axis gains one layer, closed by odd ghosts (zero
    Dirichlet data)."""
    h = grid.h
    if grid.periodic_axis(axis):
        return (vals - np.roll(vals, 1, axis=axis)) / h
    m = vals.shape[axis]
    inner = np.diff(vals, axis=axis) / h
    lo = 2.0 * np.take(vals, [0], axis=axis) / h
    hi = -2.0 * np.take(vals, [m - 1], axis=axis) / h
    return np.concatenate([lo, inner, hi], axis=axis)


def diff_to_half(vals, grid, axis):
    """Difference of an integer-offset axis toward the half home."""
    h = grid.h
    if grid.periodic_axis(axis):
        return (np.roll(vals, -1, axis=axis) - vals) / h
    return np.diff(vals, axis=axis) / h


def _face_from_cells(grid, axis, below, above):
    """The sparse (faces, cells) matrix along one axis that weighs the
    cells below and above each interior face; boundary faces are zero
    rows."""
    n = grid.shape[axis]
    f = np.arange(0 if grid.periodic_axis(axis) else 1, n)
    return sp.csr_matrix((np.repeat([below, above], f.size), (np.r_[f, f], np.r_[(f - 1) % n, f])),
                         shape=(grid.face_shape(axis)[axis], n))


def _on_axes(grid, mats):
    """The Kronecker product of one matrix per axis (the identity for
    None), acting on C-ordered flat arrays."""
    out = sp.identity(1, format="csr")
    for n, m in zip(grid.shape, mats):
        out = sp.kron(out, sp.identity(n) if m is None else m, format="csr")
    return out


def face_current_map(field):
    """The cross part X of ``face_current``, over the face families
    stacked in axis order and flattened:

        (X g)_k = sum_{m != k} 1/2 (a_km|k P_km g_m + P_km (a_km|m g_m)),

    a_km|k the (k, m) entries of the k-face matrices, a_km|m the same
    entries on the m-faces, P_km the mean of the four m-faces nearest
    each k-face; boundary faces are zero rows and columns.  Symmetric face
    matrices give X_mk = X_km^T.  Built on first use and kept on the
    field, whose values never change."""
    X = vars(field).get("_face_current_map")
    if X is not None:
        return X
    grid = field.grid
    d = grid.dim
    mean = [_face_from_cells(grid, a, 0.5, 0.5) for a in range(d)]
    blocks = [[None] * d for _ in range(d)]
    for k, m in itertools.permutations(range(d), 2):
        P = _on_axes(grid, [mean[a] if a == k else mean[a].T if a == m else None
                            for a in range(d)])
        blocks[k][m] = 0.5 * (sp.diags(field.entry(k, m).ravel()) @ P
                              + P @ sp.diags(field.matrices(m)[..., k, m].ravel()))
    X = field._face_current_map = sp.bmat(blocks, format="csr")
    X.eliminate_zeros()
    return X


def face_current(field, comps):
    """The discrete current of face values ``comps`` (one array or
    constant per face family): a_kk g_k, plus the cross part of
    ``face_current_map`` for a field with off-diagonal entries."""
    q = [field.entry(k, k) * g for k, g in enumerate(comps)]
    if not field.diagonal:
        g = np.concatenate([np.broadcast_to(c, f.shape).ravel() for c, f in zip(comps, q)])
        parts = np.split(face_current_map(field) @ g, np.cumsum([f.size for f in q])[:-1])
        q = [f + x.reshape(f.shape) for f, x in zip(q, parts)]
    return q


def flux(field, u):
    """Current a grad u as a face field: the ``face_current`` of the
    gradient, boundary faces zero."""
    return VectorField(field.grid, face_current(field, gradient(u).comps))


# ---------------------------------------------------------------------------
# averages and diagnostics
# ---------------------------------------------------------------------------


def _interior_mask(grid, offsets):
    """Mask removing boundary-plane layers on non-periodic integer axes."""
    shape = grid.home_shape(offsets)
    mask = np.ones(shape, dtype=bool)
    for a in range(grid.dim):
        if offsets[a] == 0.0 and not grid.periodic_axis(a):
            sl = [slice(None)] * grid.dim
            sl[a] = 0
            mask[tuple(sl)] = False
            sl[a] = shape[a] - 1
            mask[tuple(sl)] = False
    return mask


def interior_ball_mask(grid, offsets, r, half=None):
    """``grid.ball_mask`` without the boundary-plane layers of
    ``_interior_mask``: the home points a ball quadrature sums over.

    ``half=None`` is the grid's default, half balls on a half-box.  Masks
    are cached by value of (grid, offsets, r, half), the last 16 of them,
    and are read-only."""
    half = grid.topology == HALF_BOX if half is None else half
    return _cached_ball_mask(grid, tuple(offsets), r, half)


@lru_cache(maxsize=16)  # a 3d excess table of three radii and a coercivity radius take 12
def _cached_ball_mask(grid, offsets, r, half):
    mask = grid.ball_mask(offsets, r, half=half) & _interior_mask(grid, offsets)
    mask.flags.writeable = False
    return mask


def ball_values(f, grid, r, half=None):
    """The values of f at the home points of the (half-)ball, one array
    per home: one for a ScalarField, one per face family of a
    VectorField."""
    if isinstance(f, VectorField):
        return [c[interior_ball_mask(grid, face_offsets(grid.dim, k), r, half)]
                for k, c in enumerate(f.comps)]
    return [f.values[interior_ball_mask(grid, f.offsets, r, half)]]


def mean_product(a, b):
    """Sum over the homes of the mean of a * b, from values gathered by
    ``ball_values``; empty homes add nothing."""
    out = 0.0
    for x, y in zip(a, b):
        if x.size:
            out += float((x * y).mean())
    return out


def ball_mean_square(f, grid, r, half=None):
    """Mean of |f|^2 over the (half-)ball; vector fields average each
    face component on its own home and sum the component means."""
    v = ball_values(f, grid, r, half=half)
    return mean_product(v, v)


@dataclass
class CaccioppoliResult:
    ratio: float
    warning: bool
    equation_residual: float


def caccioppoli_ratio(u, field, r):
    """Energy ratio int_{B_r^+} |grad u|^2 / (r^-2 int_{B_2r^+} |u|^2).

    ``u`` should be discrete a-harmonic with no-flux flat data on
    B_{2r}^+; if the relative interior equation residual there exceeds
    1e-6 the result is flagged.
    """
    grid = u.grid
    vol = grid.cell_volume()
    num = 0.0
    for c in ball_values(gradient(u), grid, r):
        num += float((c * c).sum()) * vol
    [u2] = ball_values(u, grid, 2 * r)
    den = float((u2 ** 2).sum()) * vol / (r * r)
    # a-harmonicity check away from the outer rim
    q = flux(field, u)
    div_q = divergence(q)
    inner = interior_ball_mask(grid, cell_offsets(grid.dim), 2 * r - 2 * grid.h)
    # exclude the flat-adjacent layer: its balance involves the boundary flux
    xd = grid.coords(cell_offsets(grid.dim))[grid.dim - 1]
    inner = inner & (xd > grid.h)
    scale = max(np.abs(div_q).max(), 1e-30)
    res = float(np.abs(div_q[inner]).max() / scale) if inner.any() else 0.0
    warning = res > 1e-6
    ratio = num / den if den > 0 else 0.0
    return CaccioppoliResult(ratio, warning, res)
