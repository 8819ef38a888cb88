"""Divergence-form elliptic solver on structured grids.

Discretization: cell-centered finite volumes with face-sampled tensor
coefficients.  The current of face values g (a gradient: two-point
differences, zero on boundary faces) has one definition,
``face_current``: ``a_kk g_k`` through a k-face plus, with off-diagonal
entries, the cross part ``face_current_map``.  ``flux``,
``corrector.coefficient_times_vector`` and the operator all read it, so
``A u = -div flux(u)`` up to Dirichlet ghost terms, and symmetric face
matrices give a symmetric matrix as assembled.

The matrix (``StencilMatrix``) keeps the 2d+1 stencil bands by diagonals
(scipy's ``dia_matrix``), their flat steps ascending, and one seam per
periodic axis.  Assembly slices the diagonal part (face couplings,
Dirichlet ghost weights on the centre) into the bands and writes each
into the cell-shaped view of its diagonal; a band stops at every side.
The coupling across a periodic seam is kept as the face weights
``a_kk / h^2`` of that one face layer, and a product adds it by slices
after the bands, instead of storing a full-length wrap diagonal that is
zero but on one layer.  The cross part ``G^T X G`` (G the sparse face
gradient) is added one diagonal at a time, its wrap offsets included.
As the steps ascend, each row of the bands' product sums in ascending
column order, as a CSR product with sorted columns does; without a
periodic axis the products are those of a CSR copy bit for bit.

Boundary conditions on half-boxes:

* ``Dirichlet(g)``: second-order ghost values at face centers,
  eliminated into the right-hand side (keeps symmetry);
* ``NoFlux(g)``: the total outward current ``e . (a grad u + F)`` is
  prescribed to ``g`` on the face; the term enters the right-hand side
  only, mirroring the weak formulation in which the boundary flux term
  is simply absent.

A datum ``g`` is a scalar, an array of the face layer's shape, or a
callable.  ``Operator.system`` calls each callable once per system, on
the face points of every non-periodic side that carries it, whatever
the side's kind: it receives d 1-D coordinate arrays, must act
elementwise, and returns one value per point or a scalar.

Pure-periodic (and pure-Neumann) systems are singular with constant null
space; the solver pins the mean-zero representative by projecting out
the constant mode of every float64 residual and iterate.

An ``Operator`` is built once per (field, boundary kinds) and holds the
matrix and the preconditioner; its ``system`` turns boundary data and
sources into right-hand sides, so many solves share one assembly.

``solve_many`` solves the independent right-hand sides of one operator
concurrently: the calling thread and up to one helper thread per further
CPU take systems from a shared queue, each solve the same as a
sequential one bit for bit.  Every solve runs there: ``solve`` is
``solve_many`` of one system, which runs in its caller's thread, and the
whole-space correctors (``corrector.solve_correctors``), the half-space
corrections (``halfspace.build_halfspace_set``) and the dyadic annuli
(``halfspace.dyadic_construction``) are solved together.  A call from any
thread but the main one, such as a seed of the pipeline's pool at
``threads`` > 1, solves in that thread, so ``threads`` still schedules
seeds only and pools never nest.
"""

from __future__ import annotations

import importlib
import itertools
import logging
import os
import threading
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp

from . import _transforms as ft
from .grid import Grid, cell_offsets, face_offsets

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
    """Per-side boundary conditions; periodic axes take none."""

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

    def dirichlet_sides(self):
        """The (axis, side) keys of the Dirichlet sides."""
        return [key for key, b in self.sides.items() if isinstance(b, Dirichlet)]


@dataclass
class SourceTerm:
    """Right-hand side f + div F (F enters weakly through face fluxes)."""

    volume: Optional[np.ndarray] = None
    divergence_form: Optional[VectorField] = None


@dataclass
class SolveStats:
    iterations: int
    relative_residual: float  # |b - Ax| / |b| at exit, computed in float64


class SolverError(RuntimeError):
    def __init__(self, message, best_x=None, history=None):
        super().__init__(message)
        self.best_x = best_x
        self.history = history or []


def _boundary_datum(value, grid, axis):
    """A scalar or array boundary datum as a face layer of ``axis``."""
    want = tuple(s for a, s in enumerate(grid.face_shape(axis)) if a != axis)
    out = np.asarray(value, dtype=float)
    if out.ndim == 0:
        out = np.full(want, float(out))
    if out.shape != want:
        raise ValueError(f"boundary datum shape {out.shape} != {want}")
    return out


def _callable_data(bc, grid):
    """The face layers of the callable data of ``bc`` by (axis, side).
    Each callable is called once: on the 1-D coordinates of the face
    points of every non-periodic side that carries it, side after side,
    and its values (one per point, or a scalar) are split back into the
    layers."""
    sides = {}  # id -> (callable, its sides)
    for k in range(grid.dim):
        if grid.periodic_axis(k):
            continue
        for side in (0, 1):
            value = bc.bc(k, side).value
            if callable(value):
                sides.setdefault(id(value), (value, []))[1].append((k, side))
    out = {}
    for value, keys in sides.values():
        layers, shapes = [], []
        for k, side in keys:
            offs = face_offsets(grid.dim, k)
            pts = [grid.points_along(a, offs[a]) for a in range(grid.dim)]
            pts[k] = pts[k][0 if side == 0 else -1]
            layers.append([c.ravel() for c in np.meshgrid(*pts, indexing="ij")])
            shapes.append(tuple(len(p) for a, p in enumerate(pts) if a != k))
        coords = [np.concatenate(c) for c in zip(*layers)]
        n = coords[0].size
        vals = np.asarray(value(*coords), dtype=float)
        if vals.ndim == 0:
            vals = np.full(n, float(vals))
        if vals.shape != (n,):
            raise ValueError(f"boundary datum shape {vals.shape} != {(n,)}")
        parts = np.split(vals, np.cumsum([int(np.prod(w)) for w in shapes])[:-1])
        out.update((key, part.reshape(w)) for key, part, w in zip(keys, parts, shapes))
    return out


def _transform_bcs(grid, bc):
    """The (low, high) transform bcs of each axis of ``grid`` under the
    kinds of ``bc``; a periodic axis takes no side data, a non-periodic
    one no periodic side, and ``bc`` no side of an axis the grid lacks."""
    stray = set(bc.sides) - {(a, s) for a in range(grid.dim) for s in (0, 1)}
    if stray:
        raise ValueError(f"sides {stray} are not sides of a {grid.dim}d grid")
    out = []
    for a in range(grid.dim):
        kinds = [bc.bc(a, s) for s in (0, 1)]
        if grid.periodic_axis(a):
            if not all(isinstance(b, PeriodicBC) for b in kinds):
                raise ValueError(f"periodic axis {a} takes no side data")
            out.append((ft.PERIODIC, ft.PERIODIC))
        elif all(isinstance(b, (Dirichlet, NoFlux)) for b in kinds):
            out.append(tuple(ft.DIRICHLET if isinstance(b, Dirichlet) else ft.NEUMANN
                             for b in kinds))
        else:
            raise ValueError("periodic side on a non-periodic axis")
    return tuple(out)


class StencilMatrix:
    """The matrix of an ``Operator``: the stencil bands by diagonals
    (``bands``, a scipy ``dia_matrix``) and one seam per periodic axis k,
    ``(first, last, w)``: the index tuples of the first and the last cell
    layer along k and ``w``, the ``a_kk / h^2`` of the face layer between
    them, which couples the two layers by ``-w`` both ways.  ``A @ x`` (x
    one vector or a stack of columns) is ``bands @ x`` with the seam
    couplings added by slices."""

    def __init__(self, bands, seams, cells):
        self.bands, self.seams, self.cells = bands, seams, cells

    shape = property(lambda self: self.bands.shape)

    def astype(self, dtype):
        return StencilMatrix(self.bands.astype(dtype),
                             [(first, last, w.astype(dtype)) for first, last, w in self.seams],
                             self.cells)

    def __matmul__(self, x):
        y = self.bands @ x
        if self.seams:
            cells = self.cells + x.shape[1:]
            xs, ys = x.reshape(cells), y.reshape(cells)
            for first, last, w in self.seams:
                if x.ndim > 1:
                    w = w[..., None]
                ys[first] -= w * xs[last]
                ys[last] -= w * xs[first]
        return y


class Operator:
    """-div(a grad u) for one coefficient field and one set of boundary
    kinds: the matrix (bands and seams), its symmetric and singular flags,
    the mean coefficient and transform bcs of the fast solve, and (built on
    first use) its float32 cast for the inner solves and their
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
        self.axis_bcs = _transform_bcs(grid, bc)  # validates side kinds
        self.field, self.grid, self.bc = field, grid, bc

        per = [grid.periodic_axis(a) for a in range(d)]
        stride = [int(np.prod(shape[a + 1:])) for a in range(d)]
        # the flat steps of the bands: the centre and the neighbours
        steps = {0} | {s * stride[k] for k in range(d) for s in (-1, 1)}
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

        seams = []
        self._dirichlet_weight = {}  # (axis, side) -> ghost weight 2 a_kk / h^2
        for k in range(d):
            a_kk = field.entry(k, k)
            t = (a_kk if per[k] else a_kk[(slice(None),) * k + (slice(1, shape[k]),)]) * inv_h2
            lo, hi = ((slice(None),) * k + (i,) for i in (slice(0, -1), slice(1, None)))
            for s in (-1, 1):
                ts = facing(t, k, s)
                centre += ts
                # row c couples to column c + s e_k; past a side the band is
                # zero, and across a periodic seam the coupling is a seam's
                rows, cols = (lo, hi) if s > 0 else (hi, lo)
                diag[s * stride[k]][cols] -= ts[rows]
            if per[k]:  # the seam faces, between the last and the first layer
                first, last = (slice(None),) * k + (0,), (slice(None),) * k + (-1,)
                seams.append((first, last, t[first].copy()))
            for side in (i for i in (0, 1) if isinstance(bc.bc(k, i), Dirichlet)):
                t_b = a_kk[(slice(None),) * k + (side * shape[k],)]
                w = self._dirichlet_weight[k, side] = 2.0 * (t_b * inv_h2)
                centre[(slice(None),) * k + (-side,)] += w
        for o in cross_steps:
            data[offsets.index(o), max(o, 0):n_cells + min(o, 0)] += cross.diagonal(o)
        self.matrix = StencilMatrix(sp.dia_matrix((data, offsets), shape=(n_cells, n_cells)),
                                    seams, shape)
        self.symmetric = field.is_symmetric()
        self.singular = not bc.dirichlet_sides()
        self.mean_coeff = float(np.mean([field.entry(k, k).mean() for k in range(d)]))

    @cached_property
    def matrix32(self):
        """The matrix in float32 (bands and seams), for the inner solves."""
        return self.matrix.astype(np.float32)

    @cached_property
    def preconditioner(self):
        """The two-level preconditioner of the inner solves (Tang, Nabben,
        Vuik and Erlangga, J. Sci. Comput. 39, 2009): ``M(r)`` smooths
        with l1-Jacobi ``S = SMOOTH_WEIGHT / l1``, ``l1`` the row sums
        of ``|A|``, seams included (Baker, Falgout, Kolev and Yang, SIAM
        J. Sci. Comput. 33, 2011), corrects with the fast
        constant-coefficient solve ``F`` of the operator's kinds and mean
        coefficient, and smooths again:

            z1 = S r,  z2 = z1 + F(r - A z1),  z = z2 + S(r - A z2).

        A symmetric A satisfies A <= diag(l1), so ``2S - SAS`` and with it
        M are symmetric positive definite for weights below 2, whatever the
        boundary kinds, as CG needs.  The l1 weights stay defined for a
        nonsymmetric A, and BiCGSTAB asks no symmetry of M.  All of it runs
        in single precision on the float32 residuals of the inner solves,
        whose norm is about 1 or less and more than ``INNER_TOL``, so the
        transforms need no scaling.  ``M(r, out)`` writes z into ``out``
        when given; r is only read, and the residual r - A z overwrites the
        product A z and then the fast solve's input."""
        shape = self.grid.shape
        solver = ft.FastConstSolver(self.grid, cell_offsets(self.grid.dim), self.axis_bcs,
                                    shape, project_mean=self.singular,
                                    coeff=max(self.mean_coeff, 1e-30), dtype=np.float32)
        A32 = self.matrix32
        n = A32.shape[0]
        s = np.zeros(n, np.float32)  # l1 summed one diagonal at a time, no |A| copy
        for o, diagonal in zip(A32.bands.offsets.tolist(), A32.bands.data):
            s[max(-o, 0):n - max(o, 0)] += np.abs(diagonal[max(o, 0):n + min(o, 0)])
        for first, last, w in A32.seams:  # the seam couplings of both layers
            s.reshape(shape)[first] += np.abs(w)
            s.reshape(shape)[last] += np.abs(w)
        np.divide(SMOOTH_WEIGHT, s, out=s)

        def apply(r, out=None):
            z = np.multiply(s, r, out=out)
            t = A32 @ z
            z += solver.solve(np.subtract(r, t, out=t).reshape(shape), overwrite=True).ravel()
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
        rhs = np.zeros(int(np.prod(shape)))
        if src is not None and src.volume is not None:
            vol = np.asarray(src.volume, dtype=float)
            if vol.shape != shape:
                raise ValueError("volume source shape mismatch")
            rhs += vol.ravel()
        F = src.divergence_form if src is not None else None
        called = _callable_data(bc, grid)
        for k in range(grid.dim):
            if grid.periodic_axis(k):
                if F is not None:
                    Fk = F.comps[k]
                    rhs += ((np.roll(Fk, -1, axis=k) - Fk) / h).ravel()
                continue
            Fk = F.comps[k].copy() if F is not None else None
            for side in (0, 1):
                b_side = bc.bc(k, side)
                g = called.get((k, side))
                if g is None:
                    g = _boundary_datum(b_side.value, grid, k)
                cells = rhs.reshape(shape)[(slice(None),) * k + (-side,)]  # the side's cell layer
                if isinstance(b_side, Dirichlet):
                    cells += self._dirichlet_weight[k, side] * g
                else:
                    cells += g / h
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


# Relative target of one float32 inner solve.  Float32 CG or BiCGSTAB
# attains about kappa * eps32 (eps32 = 6e-8, kappa the preconditioned
# condition number, about the coefficient contrast): asking more of it
# costs iterations that do not lower the true residual.  The float64 outer
# loop does the rest.
INNER_TOL = 1e-4

# Inner iterations a solve may spend in all.
MAX_ITER = 20000

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


def solve(system, tol=1e-10):
    """Solve the assembled system to a true residual |b - Ax| / |b| of at
    most ``tol``: ``solve_many`` of the one system.

    Returns (ScalarField, SolveStats).  Semi-definite systems return the
    mean-zero representative.  Non-convergence raises SolverError with
    the best iterate and the residual history attached.

    Mixed-precision iterative refinement (Carson and Higham, SIAM J. Sci.
    Comput. 40, 2018), one loop for every system.  A float64 loop computes
    r = b - Ax (mean-free on singular systems), returns once |r| / |b| <=
    tol, and otherwise adds |r| d, where a float32 Krylov method with the
    operator's preconditioner solves A d = r / |r| to the relative target
    max(INNER_TOL, tol |b| / (2 |r|)).  Symmetric systems use PCG with the
    flexible (Polak-Ribiere) beta, which tolerates a preconditioner that is
    not exactly symmetric (Notay, SIAM J. Sci. Comput. 22, 2000);
    nonsymmetric ones use scipy's BiCGSTAB (van der Vorst, SIAM J. Sci.
    Stat. Comput. 13, 1992), whose iterations are its steps, a final half
    step included (two preconditioner applies per full step).  Neither
    projects: A annihilates constants, so the constant part that the
    smoothing steps of the preconditioner add to the correction leaves r
    alone, and the outer loop projects r and x.  A correction that does
    not lower |r|, or ``MAX_ITER`` spent inner iterations, raises
    SolverError, and so does a non-finite |b|, |r|, p.Ap (in CG) or
    preconditioned residual (in BiCGSTAB).
    """
    return solve_many([system], tol)[0]


class _WorkArrays:
    """The n-sized arrays one solve works in, reused by every solve of a
    ``solve_many`` slot: the float64 residual, and the float32 residual,
    correction, preconditioned residual and search direction of the inner
    CG.  The preconditioned residual is free while CG updates the
    correction and the residual, so it is their scratch; z and p are free
    from the end of one inner solve to the start of the next, so their
    bytes hold the previous float64 iterate of the outer loop."""

    def __init__(self, n):
        self.r = np.empty(n)
        self.r32, self.d, self.z, self.p = f32 = np.empty((4, n), np.float32)
        self.x_prev = f32[2:].reshape(-1).view(np.float64)


def _refine(system, tol, work):
    """The refinement loop of ``solve`` in the arrays of ``work``, with at
    most ``MAX_ITER`` inner iterations; returns the flat solution and the
    SolveStats.  Beyond ``work`` it allocates only the solution, the
    matrix products and the fast solves' transforms (and BiCGSTAB's own
    vectors)."""
    b = system.rhs
    nb = _norm(b)
    if not np.isfinite(nb):
        raise SolverError(f"right-hand side is not finite (|b| = {nb})")
    x = np.zeros(b.size)
    if nb == 0.0:
        return x, SolveStats(0, 0.0)

    M = system.operator.preconditioner
    A, A32 = system.matrix, system.operator.matrix32
    project = system.singular
    r = work.r
    np.copyto(r, b)
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
        if it >= MAX_ITER:
            raise SolverError(f"inner solves did not reach tol={tol} in {MAX_ITER} iterations "
                              f"(best residual {true:.3e})", best_x=x, history=history)
        # a float32 solve of A d = r / |r|: PCG on symmetric systems,
        # BiCGSTAB otherwise
        target = max(INNER_TOL, 0.5 * tol / true)
        r32 = np.divide(r, nr, out=work.r32, casting="same_kind")
        if system.symmetric:
            d, scratch, p = work.d, work.z, work.p
            d.fill(0.0)
            z = M(r32, out=work.z)
            np.copyto(p, z)
            rz = float(r32 @ z)
            while it < MAX_ITER:
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
                z = M(r32, out=work.z)
                beta = -alpha * float(z @ Ap) / rz
                rz = float(r32 @ z)
                p *= beta
                p += z
        else:  # BiCGSTAB asks no symmetry of M
            applies = 0

            def precondition(v):  # two applies per full step, one per half step
                nonlocal applies
                applies += 1
                z = M(v)
                if not np.isfinite(z).all():
                    raise SolverError("preconditioned residual is not finite in BiCGSTAB",
                                      best_x=x, history=history)
                return z

            import scipy.sparse.linalg as spla  # loaded by nonsymmetric solves only
            d, _ = spla.bicgstab(spla.LinearOperator(A32.shape, matvec=A32.__matmul__,
                                                     dtype=np.float32),
                                 r32, rtol=target, atol=0.0, maxiter=MAX_ITER - it,
                                 M=spla.LinearOperator(A32.shape, matvec=precondition,
                                                       dtype=np.float32))
            it += (applies + 1) // 2
        x_prev = work.x_prev
        np.copyto(x_prev, x)
        # in float64 (nr * d would be float32 by NEP 50 and under- or
        # overflow), into r, which r32 holds now
        x += np.multiply(d, nr, out=r, dtype=np.float64)
        if project:
            x -= x.mean()
        np.subtract(b, A @ x, out=r)
    return x, SolveStats(it, true)


def _cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def solve_many(systems, tol=1e-10):
    """The solutions of ``systems``, right-hand sides of one Operator, each
    solved as ``solve`` states, as a list of (ScalarField, SolveStats) in
    their order.

    The calling thread and ``min(len(systems), CPUs) - 1`` helper threads
    take the systems from a shared queue; a call from any thread but the
    main thread solves them all in that thread.  The preconditioner, one
    ``_WorkArrays`` per thread and, for a nonsymmetric operator, the
    module of BiCGSTAB are allocated or imported here, in the calling
    thread, before a helper starts, so a helper allocates only its
    solutions and the products and transforms of its solves, and its heap
    stays small.  Each solve runs the refinement loop on its own arrays,
    so iterates, iteration counts and results are those of sequential
    solves bit for bit.  After an error no system is started, and the
    error of the first failing system by order is raised once every helper
    has joined."""
    systems = list(systems)
    if not systems:
        return []
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    op = systems[0].operator
    if any(s.operator is not op for s in systems):
        raise ValueError("solve_many takes systems of one Operator")
    slots = min(len(systems), _cpus())
    if threading.current_thread() is not threading.main_thread():
        slots = 1
    op.preconditioner  # built once, before any helper reads it
    if not op.symmetric:
        importlib.import_module("scipy.sparse.linalg")
    work = [_WorkArrays(systems[0].rhs.size) for _ in range(slots)]
    results = [None] * len(systems)
    pending = list(range(len(systems)))[::-1]
    failed = []  # (index, error)
    lock = threading.Lock()

    def run(arrays):
        while True:
            with lock:
                if failed or not pending:
                    return
                i = pending.pop()
            try:
                results[i] = _refine(systems[i], tol, arrays)
            except Exception as e:
                with lock:
                    failed.append((i, e))
                return

    helpers = [threading.Thread(target=run, args=(arrays,), name=f"homlab-solve-{k}")
               for k, arrays in enumerate(work[1:], 1)]
    for t in helpers:
        t.start()
    try:
        run(work[0])
    finally:
        with lock:
            pending.clear()
        for t in helpers:
            t.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return [(ScalarField(op.grid, x.reshape(op.grid.shape)), stats) for x, stats in results]


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


def interior_ball_mask(grid, offsets, r):
    """``grid.ball_mask`` without the boundary-plane layers of
    ``_interior_mask``: the home points a ball quadrature sums over, half
    balls on a half-box.  Masks are cached by value of (grid, offsets, r),
    the last 16 of them, and are read-only."""
    return _cached_ball_mask(grid, tuple(offsets), r)


# a benchmark operation: torus2d-c100 16 lookups, 0 misses; pipeline2d-dyadic 84, 34 misses
# (4-5 ms of builds); excess3d-traces 9, 0 misses.  64 entries cost +66 MB ru_maxrss at 128^3
@lru_cache(maxsize=16)
def _cached_ball_mask(grid, offsets, r):
    mask = grid.ball_mask(offsets, r) & _interior_mask(grid, offsets)
    mask.flags.writeable = False
    return mask


def ball_values(f, grid, r):
    """The values of f at the home points of the (half-)ball, one array
    per home: one for a ScalarField, one per face family of a
    VectorField."""
    if isinstance(f, VectorField):
        return [c[interior_ball_mask(grid, face_offsets(grid.dim, k), r)]
                for k, c in enumerate(f.comps)]
    return [f.values[interior_ball_mask(grid, f.offsets, r)]]


def mean_product(a, b):
    """Sum over the homes of the mean of a * b, from values gathered by
    ``ball_values``; empty homes add nothing."""
    out = 0.0
    for x, y in zip(a, b):
        if x.size:
            out += float((x * y).mean())
    return out


def ball_mean_square(f, grid, r):
    """Mean of |f|^2 over the (half-)ball; vector fields average each
    face component on its own home and sum the component means."""
    v = ball_values(f, grid, r)
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
    inner = inner.copy()
    inner[..., 0] = False
    scale = max(np.abs(div_q).max(), 1e-30)
    res = float(np.abs(div_q[inner]).max() / scale) if inner.any() else 0.0
    warning = res > 1e-6
    ratio = num / den if den > 0 else 0.0
    return CaccioppoliResult(ratio, warning, res)
