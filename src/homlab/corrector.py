"""Whole-space correctors, flux potentials and sublinearity diagnostics
on periodized boxes.

The corrector in direction xi solves the periodic cell problem

    -div(a grad phi_xi) = div(a xi),       mean(phi_xi) = 0,

and the corrected current is q_xi = a(grad phi_xi + xi) - a_hom xi with
a_hom read off column-wise as the exact spatial average of the corrected
current over each face family.  Flux potentials are skew fields
sigma_{xi jk} with row divergences reproducing q: they are constructed
on the staggered lattice (nodes in 2d, edges in 3d) by inverting the
periodic Laplacian of the discrete curl of q,

    -lap sigma_jk = d_j q_k - d_k q_j,

which makes the identity sum_k d_k sigma_jk = q_j exact up to the
corrector solver residual (discrete Hodge decomposition on the torus).
Note the curl orientation: with the opposite sign the row divergence
returns -q, which the residual check rejects.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from ._transforms import PERIODIC, FastConstSolver
from .field import CoefficientField, sample_field
from .grid import Grid, TORUS, cell_offsets, face_offsets, is_dyadic, pair_offsets
from .pde import (
    BoundarySpec,
    Operator,
    ScalarField,
    SourceTerm,
    VectorField,
    diff_to_half,
    diff_to_integer,
    divergence,
    face_current,
    flux,
    interior_ball_mask,
    solve_many,
)

DEFAULT_TOL = 1e-12  # corrector solves feed the flux-potential identity


def coefficient_times_vector(field, xi):
    """(a xi) sampled per face: component k on the k-face family, the
    ``face_current`` of the constant face field xi."""
    return VectorField(field.grid, face_current(field, list(xi)))


def periodic_operator(field):
    """The corrector operator -div(a grad .) of a torus field."""
    if field.grid.topology != TORUS:
        raise ValueError("whole-space correctors live on the torus")
    return Operator(field, BoundarySpec.periodic())


def _corrector_system(field, xi, op):
    """The corrector system of unit direction xi on ``op``, the field's
    ``periodic_operator``."""
    xi = np.asarray(xi, dtype=float)
    if abs(np.linalg.norm(xi) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    return op.system(src=SourceTerm(divergence_form=coefficient_times_vector(field, xi)))


@dataclass
class CorrectorSet:
    """Correctors for the coordinate directions; other directions by
    superposition (the map xi -> phi_xi is linear by construction)."""

    field: CoefficientField
    phi: dict  # i -> ScalarField (cell home, zero mean)
    stats: dict = dc_field(default_factory=dict)

    @property
    def grid(self):
        return self.field.grid

    def phi_for(self, b):
        b = np.asarray(b, dtype=float)
        vals = sum(b[i] * self.phi[i].values for i in range(self.grid.dim))
        return ScalarField(self.grid, vals)

    def current(self, b):
        """Corrected current a(grad phi_b + b) of direction b as a face
        field."""
        q = flux(self.field, self.phi_for(b))
        for c, ab in zip(q.comps, coefficient_times_vector(self.field, b).comps):
            c += ab
        return q


def solve_correctors(field, tol=DEFAULT_TOL):
    """The zero-mean correctors of the coordinate directions, solved
    concurrently on one operator (``pde.solve_many``)."""
    op = periodic_operator(field)
    systems = [_corrector_system(field, e, op) for e in np.eye(field.grid.dim)]
    phi = {}
    stats = {}
    for i, (u, st) in enumerate(solve_many(systems, tol=tol)):
        u.values -= u.values.mean()
        phi[i], stats[i] = u, st
    return CorrectorSet(field, phi, stats)


# ---------------------------------------------------------------------------
# homogenized matrix
# ---------------------------------------------------------------------------


@dataclass
class HomogenizedMatrix:
    matrix: np.ndarray
    samples: list  # per-realization matrices
    stderr: np.ndarray

    @staticmethod
    def from_samples(samples):
        """Entrywise mean and standard error of per-realization matrices
        (standard error zero for a single sample)."""
        arr = np.asarray(samples, dtype=float)
        mean = arr.mean(axis=0)
        stderr = arr.std(axis=0, ddof=1) / np.sqrt(len(arr)) if len(arr) > 1 else 0.0 * mean
        return HomogenizedMatrix(mean, list(samples), stderr)


def _a_hom_column(cur):
    """The column of a_hom of one direction: the exact face-family
    averages of its corrected current."""
    return np.array([float(c.mean()) for c in cur.comps])


def homogenized_matrix(cset):
    """Columns are the exact face-family averages of the corrected
    currents of the coordinate correctors."""
    return np.column_stack([_a_hom_column(cset.current(e)) for e in np.eye(cset.grid.dim)])


def monte_carlo_homogenized(spec, grid, seeds, tol=DEFAULT_TOL):
    """Independent realizations; mean and standard error per entry."""
    samples = []
    for s in seeds:
        f = sample_field(replace(spec, seed=int(s)), grid)
        cset = solve_correctors(f, tol=tol)
        samples.append(homogenized_matrix(cset))
    return HomogenizedMatrix.from_samples(samples)


def flux_correction(cset, a_hom, i):
    """q_i = a(grad phi_i + e_i) - a_hom e_i as a face field."""
    return _less_mean(cset.current(np.eye(cset.grid.dim)[i]), a_hom[:, i])


def _less_mean(cur, column):
    """The current ``cur`` less its column of a_hom, written in place."""
    for c, a in zip(cur.comps, column):
        c -= a
    return cur


# ---------------------------------------------------------------------------
# flux potentials (staggered Hodge construction)
# ---------------------------------------------------------------------------


@dataclass
class FluxPotentialSet:
    """Skew field sigma_jk on the staggered pair homes, stored once per
    j < k; sigma_kj = -sigma_jk exactly by access."""

    grid: Grid
    sigma: dict  # (j, k) with j < k -> ScalarField at pair home

    def row_divergence(self, j):
        """sum_k d_k sigma_jk at the j-face family, a pair the set does not
        hold counting as zero.  Interior layers are exact; non-periodic
        boundary layers carry one-sided values."""
        out = 0.0
        for (a, k), f in self.sigma.items():
            if a == j:
                out = out + diff_to_half(f.values, self.grid, k)
            elif k == j:
                out = out - diff_to_half(f.values, self.grid, a)
        return out


def solve_flux_potential(grid, q):
    """Flux potential of a divergence-free, mean-free face field q.

    Solves the gauge Poisson problem -lap sigma_jk = d_j q_k - d_k q_j on
    the staggered pair homes by FFT; the row-divergence identity then
    holds up to the divergence residual of q, at most 1e-6 |q|.
    """
    return _flux_potential(grid, q, _norm(q))


def _norm(v):
    return np.sqrt(sum(float((c * c).sum()) for c in v.comps))


def _flux_potential(grid, q, size):
    """``solve_flux_potential`` with |div q| h held to 1e-6 ``size``, in
    ``solve_pair`` the size of the current before a_hom is subtracted."""
    div = divergence(q)
    ndiv = float(np.linalg.norm(div)) * grid.h
    floor = 1e-13 * np.sqrt(div.size)  # all-round-off currents are fine
    if size > floor and ndiv > 1e-6 * size + floor:
        raise ValueError(f"current is not divergence-free: |div q| h = {ndiv:.3e} vs size {size:.3e}")
    sigma = {}
    d = grid.dim
    # one periodic symbol serves every staggered home of the torus
    inverse_laplacian = FastConstSolver(grid, cell_offsets(d), ((PERIODIC, PERIODIC),) * d,
                                        grid.shape, project_mean=True)
    for j in range(d):
        for k in range(j + 1, d):
            omega = diff_to_integer(q.comps[k], grid, j) - diff_to_integer(q.comps[j], grid, k)
            vals = inverse_laplacian.solve(omega)
            sigma[(j, k)] = ScalarField(grid, vals, pair_offsets(d, j, k))
    return FluxPotentialSet(grid, sigma)


def flux_potential_residual(fps, q_comps, inner_radius=None):
    """Relative L2 residual of the row-divergence identity over the whole
    grid, or over the (half-)ball of ``inner_radius`` about the origin,
    whose quadrature drops the one-sided boundary layers of each row."""
    grid = fps.grid
    num = 0.0
    den = 0.0
    for j in range(grid.dim):
        r = fps.row_divergence(j) - q_comps[j]
        qj = q_comps[j]
        if inner_radius is not None:
            mask = interior_ball_mask(grid, face_offsets(grid.dim, j), inner_radius)
            r, qj = r[mask], qj[mask]
        num += float((r * r).sum())
        den += float((qj * qj).sum())
    return float(np.sqrt(num / den)) if den > 0 else float(np.sqrt(num))


class _Currents(Mapping):
    """Read-only ``i -> flux_correction(cset, a_hom, i)``, each read
    computing direction i alone; nothing is kept."""

    def __init__(self, pair):
        self._pair = pair

    def __getitem__(self, i):
        if i not in range(len(self)):
            raise KeyError(i)
        return flux_correction(self._pair.cset, self._pair.a_hom, i)

    def __len__(self):
        return self._pair.cset.grid.dim

    def __iter__(self):
        return iter(range(len(self)))


@dataclass
class WholeSpacePair:
    """Corrector/flux-potential pair for all coordinate directions.  The
    corrected currents are not kept: ``q[i]`` computes q_i from the
    correctors on each read."""

    cset: CorrectorSet
    a_hom: np.ndarray
    sigmas: dict  # i -> FluxPotentialSet

    @property
    def q(self):
        """i -> q_i = a(grad phi_i + e_i) - a_hom e_i (``flux_correction``)."""
        return _Currents(self)


def solve_pair(field, tol=DEFAULT_TOL):
    """Correctors, a_hom and flux potentials; each direction's current is
    built once, for its column of a_hom and its flux potential."""
    cset = solve_correctors(field, tol=tol)
    d = field.grid.dim
    a_hom = np.zeros((d, d))
    sigmas = {}
    for i in range(d):  # one current per direction: its a_hom column and its potential
        cur = cset.current(np.eye(d)[i])
        a_hom[:, i] = _a_hom_column(cur)
        size = _norm(cur)
        sigmas[i] = _flux_potential(field.grid, _less_mean(cur, a_hom[:, i]), size)
    return WholeSpacePair(cset, a_hom, sigmas)


# ---------------------------------------------------------------------------
# sublinearity diagnostics
# ---------------------------------------------------------------------------


def dyadic_radii(grid, r_min=None, r_max=None):
    """Radii 8h * 2^k up to the torus half-side (or r_max); none from an r_min <= 0."""
    r = 8.0 * grid.h if r_min is None else float(r_min)
    stop = grid.side / 2.0 if r_max is None else float(r_max)
    out = []
    while 0.0 < r <= stop + 1e-12:
        out.append(r)
        r *= 2.0
    return out


@dataclass
class SublinearityCurve:
    radii: np.ndarray
    delta: np.ndarray
    delta_gno: np.ndarray
    partial_sums: np.ndarray  # cumulative sum of log2(r) * delta^(1/3)
    # the same measurement (pair, directions) at other radii while the pair
    # is alive: a weak reference, so a kept curve keeps no pair
    remeasure: object = dc_field(default=None, repr=False, compare=False)

    def ratio(self, r_num, r_den):
        i = int(np.argmin(np.abs(self.radii - r_num)))
        j = int(np.argmin(np.abs(self.radii - r_den)))
        return self.delta[i] / self.delta[j]


def sublinearity_curve(pair, radii, basis=None):
    """delta_r and its mean-subtracted variant on dyadic balls around the
    origin, plus the partial sums of the quantified-ergodicity series
    (weights log2 r, increments log2(r) * delta_r^(1/3)), accumulated
    over the radii, which must increase strictly.  The sum runs
    over the directions b given as rows of ``basis`` (default: the
    coordinate frame), through ``_ball_terms``."""
    grid = pair.cset.grid
    radii = np.asarray(radii)
    basis = np.eye(grid.dim) if basis is None else np.asarray(basis, dtype=float)
    for r in radii:
        if not is_dyadic(r / grid.h):
            raise ValueError(f"radius {r} is not a positive dyadic multiple of h")
    if np.any(np.diff(radii) <= 0):
        raise ValueError(f"radii {radii.tolist()} do not increase strictly")
    sums = np.asarray([_ball_sums(pair, r, basis) for r in radii]).reshape(len(radii), 2)
    delta, delta_gno = np.sqrt(sums.T) / radii
    partial = np.cumsum(np.log2(radii) * delta ** (1.0 / 3.0))
    return SublinearityCurve(radii, delta, delta_gno, partial, _remeasure(weakref.ref(pair), basis))


def _remeasure(pair_ref, basis):
    """``sublinearity_curve`` on the pair of ``pair_ref`` while it is alive."""
    def remeasure(radii):
        pair = pair_ref()
        if pair is None:
            raise ValueError("the pair of this sublinearity curve is gone; measure it again")
        return sublinearity_curve(pair, radii, basis)
    return remeasure


def _ball_terms(pair, r, basis):
    """The terms of the sums over the rows b of ``basis`` of fint
    |phi_b|^2 + sum_{j,k} fint |sigma_b,jk|^2 on the torus ball
    of radius r: for each b, one (weight, values on the ball) per stored
    home.  Each stored field is gathered once and the values of b are
    formed on the ball, one b and home at a time; sigma_kj = -sigma_jk, so
    each stored pair has weight 2."""
    grid = pair.cset.grid
    d = grid.dim
    homes = [(1.0, [pair.cset.phi[i] for i in range(d)])]
    homes += [(2.0, [pair.sigmas[w].sigma[key] for w in range(d)]) for key in pair.sigmas[0].sigma]
    gathered = [(w, [f.values[interior_ball_mask(grid, f.offsets, r)] for f in fs])
                for w, fs in homes]
    for b in basis:
        for w, vals in gathered:
            yield w, sum(b[i] * vals[i] for i in range(d))


def _ball_sums(pair, r, basis):
    """The sums of ``_ball_terms``, raw and with each ball mean subtracted."""
    raw = centred = 0.0
    for w, v in _ball_terms(pair, r, basis):
        msq, csq = _raw_and_centered(v)
        raw += w * msq
        centred += w * csq
    return raw, centred


def _raw_and_centered(v):
    """Means of v^2 and of (v - mean)^2 over ball values v, the latter
    computed directly to avoid cancellation."""
    if not v.size:
        return 0.0, 0.0
    m = float(v.mean())
    return float((v * v).mean()), float(((v - m) ** 2).mean())
