"""Fast transform solvers for constant-coefficient operators.

The structured grids admit fast direct solution of ``-lap_h u = b`` for
every boundary-condition combination used in the lab, by the classical
fast Poisson solver: each axis is diagonalized by a fast transform, the
transformed data is divided by the precomputed eigenvalue symbol, and the
transforms are undone.  Periodic axes go through one real FFT over all of
them at once; bounded axes, the vertical one included, go through the
real trig transform (DST/DCT of types I, II and IV) whose even or odd
extension matches the ghost closure of ``vertical_stencil``.

The same solver, in single precision (``dtype=np.float32``), is the
coarse step of the conjugate-gradient preconditioner on heterogeneous
systems, between two l1-Jacobi smoothing steps (``pde.Operator``):
inverting the constant-coefficient operator bounds the preconditioned
condition number by the coefficient contrast, so iteration counts stay
flat in the grid size.  It serves the float32 inner CG solves of
``pde.solve``, whose residuals are normalized to unit norm, so no scaling
is needed to stay inside the float32 range, and the float32 transforms
move half the bytes.  The float64 outer loop of ``pde.solve`` recomputes
the residual and adds the corrections, so single precision limits the
cost of a correction, not the accuracy of the solution.  The exact
solves (Hodge solves, vector potentials) use the float64 default.
``thomas_many`` remains as a tridiagonal utility for the stream
construction of the half-space skew correction.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy import fft as sfft

PERIODIC = "periodic"
DIRICHLET = "dirichlet"
NEUMANN = "neumann"


def _along(transform, **fixed):
    """``transform`` as a function of (x, axis), passing ``overwrite_x``
    and other keywords through."""
    return lambda x, axis, **kw: transform(x, axis=axis, **fixed, **kw)


def axis_modes(m, offset, bc_low, bc_high):
    """Forward/backward 1-D transform and stencil eigenvalues.

    The stencil is the [-1, 2, -1] second difference (unscaled by h) with
    the closure implied by the home offset and boundary conditions:

    * cell-like axis (offset 0.5, m points): Dirichlet ghost = odd mirror,
      Neumann ghost = even mirror;
    * node-like axis (offset 0.0): Dirichlet unknowns exclude the pinned
      boundary row, so callers pass the interior count m; a Neumann end
      keeps its boundary row with an even ghost.

    Returns (forward, backward, eigenvalues); backward is the exact
    inverse of forward.  The transforms are orthonormal (unitary FFT on
    periodic axes) except on the node-like Neumann/Dirichlet axis, whose
    eigenvectors ``cos(pi (k + 1/2) j / m)`` are not orthogonal in the
    plain inner product; there the unnormalized DCT-II synthesizes and its
    inverse analyzes.
    """
    if bc_low == PERIODIC:
        k = np.arange(m)
        lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * k / m)
        return _along(sfft.fft), _along(sfft.ifft), lam
    if offset == 0.5:
        if bc_low == DIRICHLET and bc_high == DIRICHLET:
            k = np.arange(1, m + 1)
            lam = 2.0 - 2.0 * np.cos(np.pi * k / m)
            return (_along(sfft.dst, type=2, norm="ortho"),
                    _along(sfft.idst, type=2, norm="ortho"), lam)
        if bc_low == NEUMANN and bc_high == NEUMANN:
            k = np.arange(m)
            lam = 2.0 - 2.0 * np.cos(np.pi * k / m)
            return (_along(sfft.dct, type=2, norm="ortho"),
                    _along(sfft.idct, type=2, norm="ortho"), lam)
        if bc_low == NEUMANN and bc_high == DIRICHLET:
            k = np.arange(m)
            lam = 2.0 - 2.0 * np.cos(np.pi * (k + 0.5) / m)
            return (_along(sfft.dct, type=4, norm="ortho"),
                    _along(sfft.idct, type=4, norm="ortho"), lam)
        if bc_low == DIRICHLET and bc_high == NEUMANN:
            k = np.arange(m)
            lam = 2.0 - 2.0 * np.cos(np.pi * (k + 0.5) / m)
            return (_along(sfft.dst, type=4, norm="ortho"),
                    _along(sfft.idst, type=4, norm="ortho"), lam)
    else:
        if bc_low == DIRICHLET and bc_high == DIRICHLET:
            # interior nodes of a pinned lattice
            k = np.arange(1, m + 1)
            lam = 2.0 - 2.0 * np.cos(np.pi * k / (m + 1))
            return (_along(sfft.dst, type=1, norm="ortho"),
                    _along(sfft.idst, type=1, norm="ortho"), lam)
        if bc_low == NEUMANN and bc_high == DIRICHLET:
            # boundary row kept at the Neumann end, pinned row dropped
            k = np.arange(m)
            lam = 2.0 - 2.0 * np.cos(np.pi * (k + 0.5) / m)
            return _along(sfft.idct, type=2), _along(sfft.dct, type=2), lam
    raise NotImplementedError(
        f"no fast transform for offset={offset} bc=({bc_low},{bc_high})"
    )


def vertical_stencil(m, offset, bc_low, bc_high):
    """Unscaled 1-D second-difference stencil as (sub, diag, super) arrays.

    node-like + Neumann keeps the boundary row as an unknown with an even
    ghost (row ``2 u0 - 2 u1``); node-like + Dirichlet drops the pinned
    row, leaving plain [−1, 2, −1] truncation.
    """
    sub = -np.ones(m)
    dia = 2.0 * np.ones(m)
    sup = -np.ones(m)
    sub[0] = 0.0
    sup[-1] = 0.0
    if offset == 0.5:
        if bc_low == DIRICHLET:
            dia[0] = 3.0
        elif bc_low == NEUMANN:
            dia[0] = 1.0
        else:
            raise ValueError(bc_low)
        if bc_high == DIRICHLET:
            dia[-1] = 3.0
        elif bc_high == NEUMANN:
            dia[-1] = 1.0
        else:
            raise ValueError(bc_high)
    else:
        if bc_low == NEUMANN:
            sup[0] = -2.0
        elif bc_low != DIRICHLET:
            raise ValueError(bc_low)
        if bc_high == NEUMANN:
            sub[-1] = -2.0
        elif bc_high != DIRICHLET:
            raise ValueError(bc_high)
    return sub, dia, sup


def thomas_many(sub, dia, sup, rhs):
    """Solve many tridiagonal systems that share sub/super diagonals but
    have per-system diagonal shifts.

    sub, sup: (m,), dia: (..., m) broadcast against rhs (..., m).
    """
    dia = np.broadcast_to(dia, rhs.shape).astype(rhs.dtype).copy()
    x = rhs.astype(np.result_type(rhs.dtype, dia.dtype)).copy()
    m = rhs.shape[-1]
    # forward elimination
    for i in range(1, m):
        w = sub[i] / dia[..., i - 1]
        dia[..., i] = dia[..., i] - w * sup[i - 1]
        x[..., i] = x[..., i] - w * x[..., i - 1]
    x[..., -1] = x[..., -1] / dia[..., -1]
    for i in range(m - 2, -1, -1):
        x[..., i] = (x[..., i] - sup[i] * x[..., i + 1]) / dia[..., i]
    return x


class FastConstSolver:
    """Direct solver for ``-coeff lap_h u = b`` on a structured home.

    Every axis is transformed: bounded axes by the real trig transform of
    ``axis_modes``, periodic axes by one real FFT over all of them, which
    stores and divides only half of the spectrum.  ``solve`` multiplies by
    the precomputed inverse symbol in between; there is no sweep.

    Parameters
    ----------
    grid : Grid
    offsets : staggered home of the unknowns
    bcs : per-axis (bc_low, bc_high) pairs; ``("periodic", "periodic")``
        on identified axes
    shape : unknown-array shape (node-like Dirichlet axes exclude pinned
        rows, so this may differ from ``grid.home_shape``)
    project_mean : drop the mean mode (singular pure-periodic /
        pure-Neumann operators); the result is then the mean-free solution
        for the mean-free part of the data
    coeff : constant coefficient, folded into the inverse symbol
    dtype : precision of the transforms, the symbol and the result;
        ``np.float32`` halves the memory traffic of a preconditioner apply,
        the float64 default is the exact solve
    """

    def __init__(self, grid, offsets, bcs, shape, project_mean=False, coeff=1.0,
                 dtype=np.float64):
        d = len(shape)
        periodic = [a for a in range(d) if bcs[a][0] == PERIODIC]
        self._forward = []
        self._backward = []
        symbol = np.zeros([1] * d)
        for a in range(d):
            fwd, bwd, lam = axis_modes(shape[a], offsets[a], *bcs[a])
            if a not in periodic:
                self._forward.append(partial(fwd, axis=a))
                self._backward.insert(0, partial(bwd, axis=a))
            elif a == periodic[-1]:
                lam = lam[: shape[a] // 2 + 1]  # rfftn keeps half the last axis
            symbol = symbol + lam.reshape([-1 if i == a else 1 for i in range(d)])
        if periodic:
            # after the real trig transforms, so rfftn still sees real data
            sizes = [shape[a] for a in periodic]
            self._forward.append(partial(sfft.rfftn, axes=periodic))
            self._backward.insert(0, partial(sfft.irfftn, s=sizes, axes=periodic))
        symbol = symbol * coeff / (grid.h * grid.h)
        if project_mean:
            symbol.flat[0] = np.inf  # the mean mode is projected away
        self.dtype = np.dtype(dtype)
        self._inverse_symbol = (1.0 / symbol).astype(self.dtype)

    def solve(self, b):
        """The solution for data ``b``, in the solver's dtype; ``b`` itself
        is never written."""
        x = np.array(b, dtype=self.dtype)
        for transform in self._forward:
            x = transform(x, overwrite_x=True)
        x *= self._inverse_symbol
        for transform in self._backward:
            x = transform(x, overwrite_x=True)
        return x
