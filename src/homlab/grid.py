"""Structured grids for the homogenization laboratory.

Two domain types are supported, both with cell spacing ``h`` and unit
coefficient cells (the coefficient field oscillates at scale 1, so
``1/h`` grid cells resolve one coefficient cell):

* ``torus``: the periodized box ``[0, n*h)^d``, cells indexed ``0..n-1``
  per axis.
* ``half_box``: the truncated half-space ``[-L, L]^(d-1) x [0, L]`` with
  ``L = n*h/2``.  The flat boundary sits in the grid plane ``x_d = 0``.
  The tangential sides are either closed by Dirichlet data (plain
  half-box) or identified periodically (``tangential_periodic=True``,
  a slab matching the periodization of the ambient torus field).

All fields live on staggered homes described by per-axis offsets: ``0.5``
for a cell-like axis (points at ``(i + 1/2) h``) and ``0.0`` for a
face/node-like axis (points at ``i h``).  Cell centers are offset
``(0.5, ..., 0.5)``; a ``k``-face is offset ``0.0`` on axis ``k`` only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TORUS = "torus"
HALF_BOX = "half_box"


def cell_offsets(dim):
    return (0.5,) * dim


def face_offsets(dim, axis):
    return tuple(0.0 if k == axis else 0.5 for k in range(dim))


def pair_offsets(dim, j, k):
    """Home of a rank-2 skew component: staggered in both j and k."""
    return tuple(0.0 if a in (j, k) else 0.5 for a in range(dim))


def is_dyadic(r):
    """Whether r is a finite positive power of two; log2 of r <= 0 is nan or
    -inf, which the remainder test alone lets through."""
    r = float(r)
    return bool(0 < r < np.inf and abs(np.log2(r) % 1.0) <= 1e-9)


@dataclass(frozen=True)
class Grid:
    """Regular grid on a periodized box or a truncated half-box."""

    dim: int
    n: int
    h: float = 1.0
    topology: str = TORUS
    tangential_periodic: bool = True

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 4:
            raise ValueError(f"need n >= 4, got {self.n}")
        if self.topology == TORUS and self.n & (self.n - 1):
            raise ValueError(f"torus cells_per_side must be a power of two, got {self.n}")
        if self.topology == HALF_BOX and self.n % 2:
            raise ValueError("half_box needs even n (height is n/2 cells)")
        if self.h <= 0:
            raise ValueError("h must be positive")
        if self.topology not in (TORUS, HALF_BOX):
            raise ValueError(f"unknown topology {self.topology!r}")

    # -- constructors -------------------------------------------------

    @staticmethod
    def torus(dim, n, h=1.0):
        return Grid(dim, n, h, TORUS)

    @staticmethod
    def half_box(dim, n, h=1.0, tangential_periodic=True):
        return Grid(dim, n, h, HALF_BOX, tangential_periodic)

    # -- geometry -----------------------------------------------------

    @property
    def side(self):
        """Physical side length of the full box (period of the torus)."""
        return self.n * self.h

    @property
    def height(self):
        """Height L of the half-box (n/2 cells)."""
        return self.n * self.h / 2.0

    @property
    def shape(self):
        if self.topology == TORUS:
            return (self.n,) * self.dim
        return (self.n,) * (self.dim - 1) + (self.n // 2,)

    @property
    def origin(self):
        if self.topology == TORUS:
            return (0.0,) * self.dim
        return (-self.height,) * (self.dim - 1) + (0.0,)

    def periodic_axis(self, axis):
        if self.topology == TORUS:
            return True
        return self.tangential_periodic and axis < self.dim - 1

    def points_along(self, axis, offset):
        """Coordinates of home points along one axis (length may exceed
        the cell count by one on a non-periodic integer-offset axis)."""
        m = self.shape[axis]
        if offset == 0.0 and not self.periodic_axis(axis):
            idx = np.arange(m + 1)
        else:
            idx = np.arange(m)
        return self.origin[axis] + (idx + offset) * self.h

    def home_shape(self, offsets):
        """The lengths of ``points_along`` per axis: m, or m + 1 on a
        non-periodic axis with integer offset."""
        return tuple(m + 1 if offsets[a] == 0.0 and not self.periodic_axis(a) else m
                     for a, m in enumerate(self.shape))

    def face_shape(self, axis):
        return self.home_shape(face_offsets(self.dim, axis))

    def coords(self, offsets):
        """Meshgrid (ij indexing) of home-point coordinates."""
        axes = [self.points_along(a, offsets[a]) for a in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij")

    def ball_mask(self, offsets, r):
        """Boolean mask of home points with |x| < r (the minimum image on a
        periodic axis), and x_d > 0 on a half-box (the flat plane excluded).
        The squared 1-D displacements are summed in axis order by
        broadcasting: no full-shape array."""
        rho2 = 0
        for a in range(self.dim):
            x = self.points_along(a, offsets[a])
            if self.periodic_axis(a):
                x = (x + self.side / 2.0) % self.side - self.side / 2.0
            rho2 = rho2 + (x * x).reshape([-1 if b == a else 1 for b in range(self.dim)])
        mask = rho2 < r * r
        if self.topology == HALF_BOX:
            # the vertical axis is the last one, so its 1-D test broadcasts
            mask &= self.points_along(self.dim - 1, offsets[self.dim - 1]) > 0.0
        return mask

    def cell_volume(self):
        return self.h**self.dim
