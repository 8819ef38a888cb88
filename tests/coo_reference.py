"""Reference assembler: -div(a grad u) built from COO triplets.

This is the triplet assembly ``pde.Operator`` used before it assembled
stencil bands straight into CSR.  The property tests compare every
operator against it: equal CSR arrays for diagonal fields, equal entries
up to round-off for fields with cross terms.
"""

import numpy as np
import scipy.sparse as sp

from homlab.pde import Dirichlet


def _side_cells(L, k, side):
    return np.take(L, 0 if side == 0 else L.shape[k] - 1, axis=k).ravel()


def _tangential_pairs(grid, axis_m, idx):
    """Neighbor index pairs along axis m for centered differences."""
    if grid.periodic_axis(axis_m):
        return np.roll(idx, 1, axis=axis_m), np.roll(idx, -1, axis=axis_m)
    lo = np.concatenate(
        [np.take(idx, [0], axis=axis_m), np.take(idx, np.arange(idx.shape[axis_m] - 1), axis=axis_m)],
        axis=axis_m,
    )
    hi = np.concatenate(
        [np.take(idx, np.arange(1, idx.shape[axis_m]), axis=axis_m), np.take(idx, [-1], axis=axis_m)],
        axis=axis_m,
    )
    return lo, hi


def _cross_flux_entries(grid, m, a_km, cl, cu, add):
    """COO entries of the cross flux a_km * avg centered d_m u at k-faces,
    one-sided at non-periodic m-boundaries."""
    h = grid.h
    for cells in (cl, cu):
        lo, hi = _tangential_pairs(grid, m, cells)
        w = a_km / (2.0 * 2.0 * h * h)
        add(cl, hi, w)
        add(cl, lo, -w)
        add(cu, hi, -w)
        add(cu, lo, w)


def coo_operator_matrix(field, bc):
    """The CSR matrix of -div(a grad u) with the boundary kinds of ``bc``,
    assembled from COO triplets and symmetrized for symmetric cross
    fields."""
    grid = field.grid
    d = grid.dim
    shape = grid.shape
    n_cells = int(np.prod(shape))
    inv_h2 = 1.0 / (grid.h * grid.h)
    L = np.arange(n_cells, dtype=np.int64).reshape(shape)
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(np.ravel(r))
        cols.append(np.ravel(c))
        vals.append(np.ravel(v))

    has_cross = not field.diagonal
    for k in range(d):
        faces = field.matrices(k)
        if grid.periodic_axis(k):
            lower, upper = np.roll(L, 1, axis=k), L
        else:
            lower = np.take(L, np.arange(shape[k] - 1), axis=k)
            upper = np.take(L, np.arange(1, shape[k]), axis=k)
            faces = faces[(slice(None),) * k + (slice(1, shape[k]),)]
        t = faces[..., k, k] * inv_h2
        add(upper, upper, t)
        add(lower, lower, t)
        add(upper, lower, -t)
        add(lower, upper, -t)
        for side in (0, 1):
            if isinstance(bc.bc(k, side), Dirichlet):
                t_b = field.matrices(k)[(slice(None),) * k + (side * shape[k],)][..., k, k]
                cells = _side_cells(L, k, side)
                add(cells, cells, 2.0 * (t_b * inv_h2))
        for m in range(d):
            if has_cross and m != k and np.any(faces[..., k, m]):
                _cross_flux_entries(grid, m, faces[..., k, m], lower, upper, add)

    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_cells, n_cells),
    ).tocsr()
    if has_cross and field.is_symmetric():
        A = ((A + A.T) * 0.5).tocsr()
    return A
