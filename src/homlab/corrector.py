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

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from ._transforms import PERIODIC, FastConstSolver
from .field import CoefficientField, restrict_to_half_box, restrict_values, sample_field
from .grid import Grid, TORUS, cell_offsets, face_offsets, is_dyadic, pair_offsets
from .pde import (
    BoundarySpec,
    Dirichlet,
    Operator,
    ScalarField,
    SourceTerm,
    VectorField,
    _interior_mask,
    assemble,
    diff_to_half,
    diff_to_integer,
    divergence,
    face_current,
    flux,
    gradient,
    interior_ball_mask,
    solve,
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


def solve_corrector(field, xi, tol=DEFAULT_TOL, op=None):
    """Zero-mean corrector for one unit direction on a torus field; ``op``
    is the field's ``periodic_operator`` when the caller holds one."""
    xi = np.asarray(xi, dtype=float)
    if abs(np.linalg.norm(xi) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    op = periodic_operator(field) if op is None else op
    src = SourceTerm(divergence_form=coefficient_times_vector(field, xi))
    phi, stats = solve(op.system(src=src), tol=tol)
    phi.values -= phi.values.mean()
    return phi, stats


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
        ab = coefficient_times_vector(self.field, b)
        return VectorField(self.grid, [q.comps[k] + ab.comps[k] for k in range(self.grid.dim)])


def solve_correctors(field, tol=DEFAULT_TOL):
    op = periodic_operator(field)
    phi = {}
    stats = {}
    for i in range(field.grid.dim):
        phi[i], stats[i] = solve_corrector(field, np.eye(field.grid.dim)[i], tol=tol, op=op)
    return CorrectorSet(field, phi, stats)


# ---------------------------------------------------------------------------
# homogenized matrix
# ---------------------------------------------------------------------------


@dataclass
class HomogenizedMatrix:
    matrix: np.ndarray
    samples: list  # per-realization matrices
    stderr: np.ndarray

    @property
    def sample_count(self):
        return len(self.samples)

    @staticmethod
    def from_samples(samples):
        """Entrywise mean and standard error of per-realization matrices
        (standard error zero for a single sample)."""
        arr = np.asarray(samples, dtype=float)
        mean = arr.mean(axis=0)
        stderr = arr.std(axis=0, ddof=1) / np.sqrt(len(arr)) if len(arr) > 1 else 0.0 * mean
        return HomogenizedMatrix(mean, list(samples), stderr)


def homogenized_matrix(cset):
    """Columns are the exact face-family averages of the corrected
    currents of the coordinate correctors."""
    d = cset.grid.dim
    a_hom = np.zeros((d, d))
    for i in range(d):
        cur = cset.current(np.eye(d)[i])
        for k in range(d):
            a_hom[k, i] = float(cur.comps[k].mean())
    return a_hom


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
    d = cset.grid.dim
    cur = cset.current(np.eye(d)[i])
    comps = [cur.comps[k] - a_hom[k, i] for k in range(d)]
    return VectorField(cset.grid, comps)


# ---------------------------------------------------------------------------
# flux potentials (staggered Hodge construction)
# ---------------------------------------------------------------------------


@dataclass
class FluxPotentialSet:
    """Skew field sigma_jk on the staggered pair homes, stored once per
    j < k; sigma_kj = -sigma_jk exactly by access."""

    grid: Grid
    sigma: dict  # (j, k) with j < k -> ScalarField at pair home

    def component(self, j, k):
        if j == k:
            return np.zeros(self.grid.home_shape(pair_offsets(self.grid.dim, j, k)))
        if j < k:
            return self.sigma[(j, k)].values
        return -self.sigma[(k, j)].values

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
    h = grid.h
    div = divergence(q)
    nq = np.sqrt(sum(float((c * c).sum()) for c in q.comps))
    ndiv = float(np.linalg.norm(div)) * h
    floor = 1e-13 * np.sqrt(div.size)  # all-round-off currents are fine
    if nq > floor and ndiv > 1e-6 * nq + floor:
        raise ValueError(f"current is not divergence-free: |div q| h = {ndiv:.3e} vs |q| = {nq:.3e}")
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


@dataclass
class WholeSpacePair:
    """Corrector/flux-potential pair for all coordinate directions."""

    cset: CorrectorSet
    a_hom: np.ndarray
    q: dict  # i -> VectorField
    sigmas: dict  # i -> FluxPotentialSet

    def sigma_for(self, b):
        """The flux potential sum_w b_w sigma_w of direction b (linear in b,
        like ``CorrectorSet.phi_for``)."""
        b = np.asarray(b, dtype=float)
        d = len(self.sigmas)
        return FluxPotentialSet(self.cset.grid, {
            key: ScalarField(f.grid, sum(b[w] * self.sigmas[w].sigma[key].values for w in range(d)),
                             f.offsets)
            for key, f in self.sigmas[0].sigma.items()})


def solve_pair(field, tol=DEFAULT_TOL):
    cset = solve_correctors(field, tol=tol)
    a_hom = homogenized_matrix(cset)
    q = {}
    sigmas = {}
    for i in range(field.grid.dim):
        q[i] = flux_correction(cset, a_hom, i)
        sigmas[i] = solve_flux_potential(field.grid, q[i])
    return WholeSpacePair(cset, a_hom, q, sigmas)


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
    partial_sums_gno: np.ndarray = None  # same series on the mean-subtracted curve
    # the same measurement (pair, directions) at other radii
    remeasure: object = dc_field(default=None, repr=False, compare=False)

    def ratio(self, r_num, r_den):
        i = int(np.argmin(np.abs(self.radii - r_num)))
        j = int(np.argmin(np.abs(self.radii - r_den)))
        return self.delta[i] / self.delta[j]


def sublinearity_curve(pair, radii, basis=None):
    """delta_r and its mean-subtracted variant on dyadic balls around the
    origin, plus the partial sums of the quantified-ergodicity series
    (weights log2 r, increments log2(r) * delta_r^(1/3)).  The sum runs
    over the directions b given as rows of ``basis`` (default: the
    coordinate frame), each through the ball values of ``phi_for(b)`` and
    ``sigma_for(b)``, formed from each stored field gathered once per
    (home, radius)."""
    grid = pair.cset.grid
    d = grid.dim
    radii = np.asarray(radii)
    basis = np.eye(d) if basis is None else np.asarray(basis, dtype=float)
    for r in radii:
        if not is_dyadic(r / grid.h):
            raise ValueError(f"radius {r} is not a positive dyadic multiple of h")
    # per home, its weight and the stored fields of the d coordinate
    # directions; sigma_kj = -sigma_jk: each stored pair enters twice
    homes = [(1.0, [pair.cset.phi[i] for i in range(d)])]
    homes += [(2.0, [pair.sigmas[w].sigma[key] for w in range(d)]) for key in pair.sigmas[0].sigma]
    tot = np.zeros(len(radii))
    tot_g = np.zeros(len(radii))
    for m, r in enumerate(radii):
        gathered = [(w, [f.values[interior_ball_mask(grid, f.offsets, r)] for f in fs])
                    for w, fs in homes]
        for b in basis:
            for w, vals in gathered:
                msq, csq = _raw_and_centered(sum(b[i] * vals[i] for i in range(d)))
                tot[m] += w * msq
                tot_g[m] += w * csq
    delta = np.sqrt(tot) / radii
    delta_gno = np.sqrt(tot_g) / radii
    weights = np.log2(radii)
    partial = np.cumsum(weights * delta ** (1.0 / 3.0))
    partial_gno = np.cumsum(weights * delta_gno ** (1.0 / 3.0))
    return SublinearityCurve(radii, delta, delta_gno, partial, partial_gno,
                             lambda rs: sublinearity_curve(pair, rs, basis))


def _raw_and_centered(v):
    """Means of v^2 and of (v - mean)^2 over ball values v, the latter
    computed directly to avoid cancellation."""
    if not v.size:
        return 0.0, 0.0
    m = float(v.mean())
    return float((v * v).mean()), float(((v - m) ** 2).mean())


def basis_change_check(pair, basis, r):
    """Evaluates the rotated-direction functional and the bound
    sqrt(d(d+1)/2) delta_r; returns (lhs, bound)."""
    d = pair.cset.grid.dim
    B = np.asarray(basis, dtype=float)
    if B.shape != (d, d) or np.abs(B @ B.T - np.eye(d)).max() > 1e-10:
        raise ValueError("basis must be orthonormal (rows)")
    lhs = sublinearity_curve(pair, [r], basis=B).delta[0]
    bound = np.sqrt(d * (d + 1) / 2.0) * sublinearity_curve(pair, [r]).delta[0]
    return lhs, bound


# ---------------------------------------------------------------------------
# two-scale expansion error
# ---------------------------------------------------------------------------


@dataclass
class TwoScaleReport:
    grad_w: float
    grad_diff: float
    cutoff_width: float
    scale_warning: bool


def two_scale_error(field, pair, R, trace, tol=1e-10):
    """Homogenization error on a Dirichlet window of half-width R.

    The window is the box [-R, R]^(d-1) x [0, R] cut from the torus; the
    heterogeneous solution u and the homogenized solution share the trace
    on all window sides.  Returns the gradient norms of the two-scale
    remainder w = u - u_hom - eta sum_i phi_i d_i u_hom (with a boundary
    cutoff eta of width R^(2/3)) and of the plain difference u - u_hom.
    """
    grid = field.grid
    if grid.topology != TORUS:
        raise ValueError("two-scale window is cut from a torus field")
    warn = R / 1.0 < 8.0
    window_field = restrict_to_half_box(field, R, tangential_periodic=False)
    wgrid = window_field.grid
    bc = BoundarySpec.half_box(
        wgrid, flat=Dirichlet(trace), top=Dirichlet(trace), lateral=Dirichlet(trace)
    )
    u, _ = solve(assemble(window_field, bc), tol=tol)
    d = grid.dim
    a_hom = pair.a_hom
    hom_faces = []
    for k in range(d):
        hom_faces.append(np.broadcast_to(a_hom, wgrid.face_shape(k) + (d, d)).copy())
    hom_field = CoefficientField(wgrid, hom_faces, lam=min(np.linalg.eigvalsh(0.5 * (a_hom + a_hom.T))))
    u_hom, _ = solve(assemble(hom_field, bc), tol=tol)

    rho = R ** (2.0 / 3.0)
    eta = _boundary_cutoff(wgrid, rho)
    du_hom = _cell_gradient(u_hom)
    corr = np.zeros(wgrid.shape)
    for i in range(d):
        phi_w = restrict_values(pair.cset.phi[i].values, grid, wgrid, cell_offsets(d))
        corr += phi_w * du_hom[i]
    w = ScalarField(wgrid, u.values - u_hom.values - eta * corr)
    diff = ScalarField(wgrid, u.values - u_hom.values)
    return TwoScaleReport(_grad_norm(w), _grad_norm(diff), rho, warn)


def _cell_gradient(u):
    g = gradient(u)
    grid = u.grid
    out = []
    for k in range(grid.dim):
        c = g.comps[k]
        if grid.periodic_axis(k):
            out.append(0.5 * (c + np.roll(c, -1, axis=k)))
        else:
            out.append(0.5 * (np.take(c, np.arange(grid.shape[k]), axis=k)
                              + np.take(c, np.arange(1, grid.shape[k] + 1), axis=k)))
    return out


def _boundary_cutoff(grid, rho):
    """Piecewise-linear ramp from 0 on the window boundary to 1 at
    distance rho inside."""
    dist = None
    for a in range(grid.dim):
        x = grid.coords(cell_offsets(grid.dim))[a]
        lo = x - (grid.origin[a])
        hi = (grid.origin[a] + grid.shape[a] * grid.h) - x
        d_a = np.minimum(lo, hi)
        dist = d_a if dist is None else np.minimum(dist, d_a)
    return np.clip(dist / rho, 0.0, 1.0)


def _grad_norm(u):
    g = gradient(u)
    grid = u.grid
    tot = 0.0
    for k in range(grid.dim):
        mask = _interior_mask(grid, face_offsets(grid.dim, k))
        c = g.comps[k][mask]
        tot += float((c * c).sum())
    return float(np.sqrt(tot * grid.cell_volume()))
