"""Reference assembler: -div(a grad u) built from COO triplets.

The diagonal part is the triplet assembly ``pde.Operator`` used before it
assembled stencil bands straight into diagonals.  The cross part writes
the stencil of the face current out entry by entry: the current through
an interior k-face adds, for each m != k and each of the four nearest
interior m-faces, (a_km on the k-face + a_km on the m-face) / 8 times the
two-point m-difference across that m-face.  The property tests compare
every operator's CSR copy against it: equal CSR arrays and products for
diagonal fields, equal entries up to round-off for fields with cross
terms.
"""

import numpy as np
import scipy.sparse as sp

from homlab.pde import Dirichlet


def _side_cells(L, k, side):
    return np.take(L, 0 if side == 0 else L.shape[k] - 1, axis=k).ravel()


def _cell_faces(field, L, m):
    """Per cell and each of its two m-faces (below, above): the flat
    index of the cell across that face, a_km of that face for every k,
    and whether the face is interior."""
    grid = field.grid
    n = L.shape[m]
    mats = field.matrices(m)
    below, above = np.arange(n), np.arange(1, n + 1)
    if grid.periodic_axis(m):
        above = above % n
        ok = np.ones(n, bool), np.ones(n, bool)
    else:
        ok = below > 0, above < n
    out = []
    for faces, across, inner in ((below, np.roll(L, 1, axis=m), ok[0]),
                                 (above, np.roll(L, -1, axis=m), ok[1])):
        a = np.take(mats, faces, axis=m)
        inner = np.broadcast_to(inner.reshape((-1,) + (1,) * (L.ndim - m - 1)), L.shape)
        out.append((across.ravel(), a.reshape(L.size, *mats.shape[-2:]), inner.ravel()))
    return out


def _cross_entries(field, L, k, lower, upper, k_faces, add):
    """COO entries of the cross current through the interior k-faces
    between cells ``lower`` and ``upper``; ``k_faces`` holds the k-face
    matrices there.  The current q enters row ``lower`` as -q/h and row
    ``upper`` as +q/h."""
    h2 = field.grid.h ** 2
    lower, upper = lower.ravel(), upper.ravel()
    for m in range(field.grid.dim):
        if m == k:
            continue
        a_k = k_faces[..., k, m].ravel()
        for side, (across, a_m, inner) in enumerate(_cell_faces(field, L, m)):
            for cell in (lower, upper):
                ok = inner[cell]
                w = (a_k[ok] + a_m[cell[ok], k, m]) / (8.0 * h2)
                # the m-difference across the face: +1 above it, -1 below
                hi, lo = (cell[ok], across[cell[ok]]) if side == 0 else (across[cell[ok]], cell[ok])
                add(lower[ok], hi, -w)
                add(lower[ok], lo, w)
                add(upper[ok], hi, w)
                add(upper[ok], lo, -w)


def coo_operator_matrix(field, bc):
    """The CSR matrix of -div(a grad u) with the boundary kinds of ``bc``,
    assembled from COO triplets."""
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
        if not field.diagonal:
            _cross_entries(field, L, k, lower, upper, faces, add)

    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_cells, n_cells),
    ).tocsr()
