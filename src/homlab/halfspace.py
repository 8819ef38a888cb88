"""Half-space-adapted corrector/vector-potential pairs on truncated
half-boxes with a no-flux flat boundary.

Construction per tangential direction b (a direction with vanishing
homogenized conormal, e_d . a_hom b = 0):

* the correction varphi solves the heterogeneous equation with
  inhomogeneous no-flux data -e_d . a (grad phi_b + b) on the flat
  boundary, closing the far field with zero Dirichlet (plain half-box)
  or tangential periodicity matching the ambient torus (slab, default);
* vector potentials v_j solve face-homed constant-coefficient Poisson
  problems -lap v_j = G_j with G = a grad varphi, Dirichlet data on the
  flat boundary for tangential j and a Neumann row for the vertical
  component;
* the skew correction psi making sigma_h = sigma + psi satisfy the
  half-space flux-potential identity sum_k d_k sigma_h_jk = q_h_j is
  built in the axial gauge, the same way in every dimension: psi_jk = 0
  for tangential j, k, and psi_jd is a vertical cumulative sum of G_j
  started from the gradient of one tangential Poisson solve of the flat
  row of G_d.  The identity then holds to solver precision;
* the curl of the v fields is a skew correction too, but it meets the
  identity only up to the divergence of v, which vanishes in the
  infinite-domain limit.  Its identity residual is the Liouville-gap
  diagnostic; it does not depend on the gauge of psi.

The direction completing the tangential basis needs no solve: its
corrector and potential are plain restrictions of the whole-space
fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _transforms as ft
from .corrector import (
    FluxPotentialSet,
    WholeSpacePair,
    _ball_raw_and_centered,
    coefficient_times_vector,
    flux_potential_residual,
)
from .field import restrict_to_half_box, restrict_values
from .grid import Grid, cell_offsets, face_offsets, is_dyadic, pair_offsets
from .pde import (
    BoundarySpec,
    NoFlux,
    Operator,
    ScalarField,
    SourceTerm,
    VectorField,
    ball_mean_square,
    ball_values,
    diff_to_integer,
    flux,
    gradient,
    solve,
    _interior_mask,
)

DEFAULT_TOL = 1e-12  # the sigma_h identity budget amplifies solver residuals


# ---------------------------------------------------------------------------
# tangential basis
# ---------------------------------------------------------------------------


@dataclass
class TangentialBasis:
    """Orthonormal rows b_0..b_{d-1}; the first d-1 have vanishing
    homogenized conormal, the last completes the basis."""

    vectors: np.ndarray
    a_hom: np.ndarray

    @property
    def normal_like(self):
        return self.vectors[-1]


def tangential_basis(a_hom):
    """Deterministic orthonormal basis of {b : e_d . a_hom b = 0},
    completed by one transversal direction (orientation: first nonzero
    component positive, coordinate pivots away from the largest
    conormal component)."""
    a_hom = np.asarray(a_hom, dtype=float)
    d = a_hom.shape[0]
    v = a_hom.T @ np.eye(d)[d - 1]
    nv = np.linalg.norm(v)
    if nv <= 1e-14:
        raise ValueError("degenerate homogenized conormal row")
    vhat = v / nv
    pivot = int(np.argmax(np.abs(vhat)))
    rows = []
    for i in range(d):
        if i == pivot:
            continue
        e = np.eye(d)[i]
        w = e - (e @ vhat) * vhat
        for r in rows:
            w = w - (w @ r) * r
        nw = np.linalg.norm(w)
        if nw <= 1e-13:
            raise ValueError("basis construction degenerated")
        rows.append(w / nw)
    rows.append(vhat.copy())
    B = np.stack([_orient(r) for r in rows])
    for i in range(d - 1):
        if abs(v @ B[i]) > 1e-10 * max(nv, 1.0):
            raise ValueError("tangential vector fails the conormal condition")
    return TangentialBasis(B, a_hom)


def _orient(r):
    for c in r:
        if abs(c) > 1e-13:
            return r if c > 0 else -r
    return r


# ---------------------------------------------------------------------------
# correction solve
# ---------------------------------------------------------------------------


@dataclass
class CorrectionResult:
    varphi: ScalarField
    current: VectorField  # G = a grad varphi, flat layer carrying the datum
    datum: np.ndarray  # prescribed conormal on the flat boundary
    stats: object


def _flat_datum_on(field_torus, pair, b, grid):
    """e_d . a (grad phi_b + b) on the flat face layer of a half-box cut
    from the torus of ``pair``."""
    d = grid.dim
    total_d = pair.cset.current(b).comps[d - 1]
    total_half = restrict_values(total_d, field_torus.grid, grid, face_offsets(d, d - 1))
    return np.take(total_half, 0, axis=d - 1)


def solve_halfspace_correction(field_hb, field_torus, pair, b, tol=DEFAULT_TOL, op=None):
    """Correction enforcing the no-flux condition for phi_b + b.x on the
    flat boundary of the half-box.  ``op`` is the half-box operator with
    the default closure (no-flux flat, Dirichlet top) when the caller
    holds one."""
    grid = field_hb.grid
    # e_d . a grad varphi = -e_d . a (grad phi_b + b); with the outward
    # normal -e_d of the flat side this is a prescribed current +total
    g_flat = _flat_datum_on(field_torus, pair, b, grid)
    if op is None:
        op = Operator(field_hb, BoundarySpec.half_box(grid))
    varphi, stats = solve(op.system(BoundarySpec.half_box(grid, flat=NoFlux(g_flat))), tol=tol)
    # the far-field Dirichlet truncation pins the additive constant, so no
    # unit-ball normalization is applied: shifting the solution would break
    # its own top rows and the ghost-closed current below
    G = correction_current(field_hb, varphi, g_flat)
    return CorrectionResult(varphi, G, g_flat, stats)


def correction_current(field_hb, varphi, g_flat):
    """a grad varphi as a face field with boundary layers closed the way
    the assembled operator sees them: the flat layer carries the
    prescribed datum (+e_d oriented, the negative of the outward-normal
    value) and Dirichlet-0 truncation sides carry the ghost fluxes.
    This keeps the discrete divergence of the current at the solver
    residual everywhere, which the skew correction construction needs.
    """
    grid = field_hb.grid
    d = grid.dim
    h = grid.h
    G = flux(field_hb, varphi)
    sl = [slice(None)] * d
    sl[d - 1] = 0
    G.comps[d - 1][tuple(sl)] = -g_flat
    for k in range(d):
        if grid.periodic_axis(k):
            continue
        a_kk = field_hb.entry(k, k)
        m = grid.shape[k]
        hi_face = [slice(None)] * d
        hi_face[k] = m
        hi_cell = [slice(None)] * d
        hi_cell[k] = m - 1
        G.comps[k][tuple(hi_face)] = (
            -2.0 * a_kk[tuple(hi_face)] * varphi.values[tuple(hi_cell)] / h
        )
        if k < d - 1:
            lo_face = [slice(None)] * d
            lo_face[k] = 0
            lo_cell = [slice(None)] * d
            lo_cell[k] = 0
            G.comps[k][tuple(lo_face)] = (
                2.0 * a_kk[tuple(lo_face)] * varphi.values[tuple(lo_cell)] / h
            )
    return G


# ---------------------------------------------------------------------------
# vector potentials
# ---------------------------------------------------------------------------


def face_poisson_solve(grid, j, rhs):
    """-lap v = rhs for a j-face-homed field with the flat-boundary
    conditions of the vector potentials (Dirichlet for tangential j,
    Neumann row for vertical j) and zero Dirichlet far-field closure."""
    d = grid.dim
    offs = face_offsets(d, j)
    full = grid.home_shape(offs)
    slices = [slice(None)] * d
    bcs = []
    for a in range(d):
        if grid.periodic_axis(a):
            bcs.append((ft.PERIODIC, ft.PERIODIC))
            continue
        if offs[a] == 0.5:
            bcs.append((ft.DIRICHLET, ft.DIRICHLET))
        else:
            if a == d - 1 and j == d - 1:
                bcs.append((ft.NEUMANN, ft.DIRICHLET))
                slices[a] = slice(0, full[a] - 1)
            else:
                bcs.append((ft.DIRICHLET, ft.DIRICHLET))
                slices[a] = slice(1, full[a] - 1)
    sub = np.asarray(rhs)[tuple(slices)]
    solver = ft.FastConstSolver(grid, offs, tuple(bcs), sub.shape)
    sol = solver.solve(sub)
    out = np.zeros(full)
    out[tuple(slices)] = sol
    return out


def solve_vector_potentials(grid, G):
    """Direct-mode potentials v_j, one constant-coefficient solve per
    component with rhs G_j (equal to div(x_j G) up to the divergence
    residual of G); the vertical component is normalized to zero average
    over the unit half-ball, tangential components are pinned by their
    Dirichlet data.  No per-annulus linear growth is subtracted here."""
    d = grid.dim
    v = {}
    for j in range(d):
        vals = face_poisson_solve(grid, j, G.comps[j])
        if j == d - 1:
            vals = _unit_ball_centred(vals, grid, face_offsets(d, j))
        v[j] = ScalarField(grid, vals, face_offsets(d, j))
    return v


def _unit_ball_centred(vals, grid, offs):
    """Values of the vertical potential less their mean over the full
    ball of radius max(1, 2h) about the origin."""
    [ball] = ball_values(ScalarField(grid, vals, offs), grid, max(1.0, 2 * grid.h), half=False)
    return vals - ball.mean() if ball.size else vals


def curl_of_potentials(v, grid):
    """The skew field psi_jk = d_j v_k - d_k v_j on the staggered pair
    homes.  Every axis a potential is differentiated along carries
    Dirichlet data (the Neumann row only concerns the vertical potential
    along its own axis, which never appears in the skew combination), so
    odd ghosts close both differences."""
    d = grid.dim
    out = {}
    for j in range(d):
        for k in range(j + 1, d):
            psi = diff_to_integer(v[k].values, grid, j) - diff_to_integer(v[j].values, grid, k)
            out[(j, k)] = ScalarField(grid, psi, pair_offsets(d, j, k))
    return FluxPotentialSet(grid, out)


# ---------------------------------------------------------------------------
# skew correction (axial gauge)
# ---------------------------------------------------------------------------


def skew_correction(grid, G):
    """Skew psi with sum_k d_k psi_jk = G_j for a discretely divergence-free
    face current G, in the axial gauge: psi_jk = 0 for tangential j, k, and
    psi_jd = f_j + h cumsum_d G_j grows from the flat node layer.  There
    f = grad' w with -lap' w = G_d on the flat layer, one tangential
    (d-1)-dimensional solve: periodic with the mean projected on a slab,
    zero Dirichlet on a plain half-box.  The set holds the components
    (j, d), each shifted to zero mean; the tangential ones are zero and
    left out."""
    d = grid.dim
    flat = np.take(G.comps[d - 1], 0, axis=d - 1)
    bcs = [(ft.PERIODIC, ft.PERIODIC) if grid.periodic_axis(a) else (ft.DIRICHLET, ft.DIRICHLET)
           for a in range(d - 1)]
    w = ft.FastConstSolver(grid, cell_offsets(d - 1), bcs, flat.shape,
                           project_mean=grid.tangential_periodic).solve(flat)
    psi = {}
    for j in range(d - 1):
        offs = pair_offsets(d, j, d - 1)
        col = np.zeros(grid.home_shape(offs))
        np.cumsum(G.comps[j], axis=d - 1, out=col[..., 1:])
        col *= grid.h
        col += np.expand_dims(diff_to_integer(w, grid, j), d - 1)
        col -= col.mean()
        psi[(j, d - 1)] = ScalarField(grid, col, offs)
    return FluxPotentialSet(grid, psi)


# ---------------------------------------------------------------------------
# assembled half-space set
# ---------------------------------------------------------------------------


@dataclass
class HalfSpaceCorrectorSet:
    """Correctors and flux potentials for one realization.

    Directions are indexed by rows of the tangential basis; the last row
    needs no solve (restriction only).  sigma_h holds one
    ``FluxPotentialSet`` per row.  liouville_gap holds, per tangential
    row, the identity residual of sigma built with psi = curl v instead
    of the axial-gauge skew correction.
    """

    grid: Grid
    basis: TangentialBasis
    torus_pair: WholeSpacePair
    phi_h: dict
    varphi: dict
    sigma_h: dict
    q_h: dict
    liouville_gap: dict
    stats: dict = dc_field(default_factory=dict)


def restrict_pair(pair, b, half_grid):
    """The whole-space corrector phi_b, flux potential ``sigma_for(b)`` and
    current q_b = sum_w b_w q_w restricted to a half-box cut from the
    torus of the pair; each array is a new one."""
    torus = pair.cset.grid
    d = half_grid.dim
    phi = ScalarField(half_grid, restrict_values(pair.cset.phi_for(b).values, torus, half_grid,
                                                 cell_offsets(d)))
    sigma = FluxPotentialSet(half_grid, {
        key: ScalarField(half_grid, restrict_values(f.values, torus, half_grid, f.offsets),
                         f.offsets)
        for key, f in pair.sigma_for(b).sigma.items()})
    q = [restrict_values(sum(b[w] * pair.q[w].comps[k] for w in range(d)), torus, half_grid,
                         face_offsets(d, k)) for k in range(d)]
    return phi, sigma, VectorField(half_grid, q)


def build_halfspace_set(field_torus, pair, L, tangential_periodic=True, tol=DEFAULT_TOL):
    """Construct the full half-space-adapted set on a half-box of height
    L cut from the torus field.  Each tangential direction adds its
    correction to the restricted whole-space pair; the transversal one
    is the restriction alone (no solve, Theorem-style)."""
    d = field_torus.grid.dim
    field_hb = restrict_to_half_box(field_torus, L, tangential_periodic)
    grid = field_hb.grid
    basis = tangential_basis(pair.a_hom)
    op = Operator(field_hb, BoundarySpec.half_box(grid))
    phi_h, varphi, sigma_h, q_h, gap, stats = {}, {}, {}, {}, {}, {}
    for i in range(d - 1):
        b = basis.vectors[i]
        corr = solve_halfspace_correction(field_hb, field_torus, pair, b, tol=tol, op=op)
        varphi[i] = corr.varphi
        stats[i] = corr.stats
        # the restricted whole-space pair plus the correction
        phi_h[i], sigma_h[i], q_h[i] = restrict_pair(pair, b, grid)
        phi_h[i].values += corr.varphi.values
        for j in range(d):
            q_h[i].comps[j] += corr.current.comps[j]
        # the Liouville gap: sigma with psi = curl v, measured and dropped
        sigma_v = curl_of_potentials(solve_vector_potentials(grid, corr.current), grid)
        for key, f in sigma_v.sigma.items():
            f.values += sigma_h[i].sigma[key].values
        gap[i] = flux_potential_residual(sigma_v, q_h[i].comps, grid.height / 2.0)
        del sigma_v
        for key, f in skew_correction(grid, corr.current).sigma.items():
            sigma_h[i].sigma[key].values += f.values
    # transversal direction, without the slab's operator, field and last
    # correction alive
    del op, field_hb, corr
    phi_h[d - 1], sigma_h[d - 1], q_h[d - 1] = restrict_pair(pair, basis.normal_like, grid)
    return HalfSpaceCorrectorSet(grid, basis, pair, phi_h, varphi, sigma_h, q_h, gap, stats)


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------


@dataclass
class HalfSpaceResiduals:
    flat_flux_max: float
    flat_flux_scale: float
    interior_relative: float
    sigma_identity: float

    @property
    def flat_flux_relative(self):
        return self.flat_flux_max / self.flat_flux_scale if self.flat_flux_scale > 0 else 0.0


def halfspace_residuals(field_hb, hset, i, inner_radius=None, op=None):
    """Residuals of the defining problem for tangential direction i.

    flat flux: the implied conormal of phi_h + b.x through flat faces,
    from the cell balances of the assembled no-flux problem (top layer
    excluded); interior: relative equation residual; sigma identity:
    relative L2 defect of the row-divergence identity on the inner
    half-ball (default L/2).  ``op`` is the half-box operator with the
    default closure when the caller holds one.
    """
    grid = field_hb.grid
    d = grid.dim
    b = hset.basis.vectors[i]
    if op is None:
        op = Operator(field_hb, BoundarySpec.half_box(grid))
    sys = op.system(src=SourceTerm(divergence_form=coefficient_times_vector(field_hb, b)))
    u = hset.phi_h[i].values.ravel()
    r = (sys.matrix @ u - sys.rhs).reshape(grid.shape)
    # rows inside Dirichlet truncation layers are determined by the trace
    # and excluded: the top layer always, plus one cell on non-periodic
    # lateral sides of a plain half-box
    keep = np.ones(grid.shape, dtype=bool)
    sl_top = [slice(None)] * d
    sl_top[d - 1] = grid.shape[d - 1] - 1
    keep[tuple(sl_top)] = False
    for a in range(d - 1):
        if not grid.periodic_axis(a):
            sl = [slice(None)] * d
            sl[a] = 0
            keep[tuple(sl)] = False
            sl[a] = grid.shape[a] - 1
            keep[tuple(sl)] = False
    sl_flat = [slice(None)] * d
    sl_flat[d - 1] = 0
    flat_flux = np.abs(np.where(keep, r, 0.0)[tuple(sl_flat)]) * grid.h
    # scale: sup norm of the corrected gradient b + grad phi_h
    g = gradient(hset.phi_h[i])
    scale = 0.0
    for k in range(d):
        mask = _interior_mask(grid, face_offsets(d, k))
        scale = max(scale, float(np.abs(g.comps[k][mask] + b[k]).max()))
    interior = np.where(keep, r, 0.0)
    interior[tuple(sl_flat)] = 0.0
    nb = np.linalg.norm(sys.rhs)
    interior_rel = float(np.linalg.norm(interior) / nb) if nb > 0 else 0.0
    sigma_res = sigma_identity_residual(hset, i, inner_radius=inner_radius)
    return HalfSpaceResiduals(float(flat_flux.max()), scale, interior_rel, sigma_res)


def sigma_identity_residual(hset, i, inner_radius=None):
    """Relative L2 residual of sum_k d_k sigma_h_jk = q_h_j for direction
    i over the inner half-ball (default radius L/2), normalised by q_h
    there (``flux_potential_residual``)."""
    r = hset.grid.height / 2.0 if inner_radius is None else inner_radius
    return flux_potential_residual(hset.sigma_h[i], hset.q_h[i].comps, r)


# ---------------------------------------------------------------------------
# half-space sublinearity
# ---------------------------------------------------------------------------


@dataclass
class HalfSublinearityCurve:
    radii: np.ndarray
    delta_h: np.ndarray          # transversal term over the full torus ball
    delta_h_halfball: np.ndarray  # variant: transversal term on the half-ball

    def ratio(self, r_num, r_den):
        i = int(np.argmin(np.abs(self.radii - r_num)))
        j = int(np.argmin(np.abs(self.radii - r_den)))
        return self.delta_h[i] / self.delta_h[j]


def half_sublinearity_curve(hset, radii):
    """delta_h_r: tangential rows enter with mean-subtracted correctors
    over the half-ball; the transversal row is evaluated without mean
    subtraction over the full torus ball (with the half-ball variant
    reported alongside, both emitted, no intent guessed)."""
    grid = hset.grid
    d = grid.dim
    i_d = d - 1
    torus = hset.torus_pair.cset.grid
    b = hset.basis.normal_like
    phi_d_torus = hset.torus_pair.cset.phi_for(b)
    sigma_d_torus = hset.torus_pair.sigma_for(b)
    out_full = []
    out_half = []
    for r in radii:
        if r > grid.height + 1e-12:
            raise ValueError(f"radius {r} exceeds the half-box height")
        tot_tang = 0.0
        for i in range(d - 1):
            tot_tang += _ball_raw_and_centered(hset.phi_h[i], grid, r)[1]
            for f in hset.sigma_h[i].sigma.values():
                tot_tang += 2.0 * ball_mean_square(f, grid, r)
        # transversal term, full-ball (torus fields) and half-ball variant
        full = ball_mean_square(phi_d_torus, torus, r, half=False)
        halfv = ball_mean_square(hset.phi_h[i_d], grid, r)
        for key, f_t in sigma_d_torus.sigma.items():
            full += 2.0 * ball_mean_square(f_t, torus, r, half=False)
            halfv += 2.0 * ball_mean_square(hset.sigma_h[i_d].sigma[key], grid, r)
        out_full.append(np.sqrt(tot_tang + full) / r)
        out_half.append(np.sqrt(tot_tang + halfv) / r)
    return HalfSublinearityCurve(np.asarray(radii), np.asarray(out_full), np.asarray(out_half))


# ---------------------------------------------------------------------------
# dyadic-annuli construction
# ---------------------------------------------------------------------------


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


@dataclass
class DyadicConfig:
    """Radial partition of unity on the doubling annuli n = -1..n_max,
    with heights l_n = delta(r_0 2^(n+1))^(2/3) * r_0 2^(n+1) taken from
    a measured whole-space sublinearity curve."""

    r0: float
    n_max: int
    heights: np.ndarray
    delta_at: np.ndarray

    @staticmethod
    def from_curve(curve, r0, n_max):
        """The config whose heights read ``curve`` at the annulus radii;
        a curve that lacks one of them is measured again at those radii,
        and one that cannot be (built by hand) raises ValueError."""
        if not is_dyadic(r0):
            raise ValueError(f"r0 {r0} is not a positive power of two")
        if n_max < -1:
            raise ValueError(f"n_max {n_max} leaves no annulus; the least is -1")
        radii = [r0 * 2.0 ** (n + 1) for n in range(-1, n_max + 1)]
        if not all(np.any(np.abs(curve.radii - R) <= 1e-9 * R) for R in radii):
            if curve.remeasure is None:
                raise ValueError(f"the sublinearity curve lacks an annulus radius of {radii}")
            curve = curve.remeasure(radii)
        heights = []
        deltas = []
        for R in radii:
            dlt = float(curve.delta[np.argmin(np.abs(curve.radii - R))])
            deltas.append(dlt)
            heights.append(min(dlt ** (2.0 / 3.0) * R, 0.999 * R))
        return DyadicConfig(r0, n_max, np.asarray(heights), np.asarray(deltas))

    def annuli(self):
        return list(range(-1, self.n_max + 1))

    def cutoff(self, n, rho):
        """Radial partition member eta_n evaluated at radii rho."""
        def c(level, t):
            R = self.r0 * 2.0 ** level
            return _smoothstep((R - t) / (R / 2.0))

        if n == -1:
            return c(0, rho)
        return c(n + 1, rho) - c(n, rho)

    def validate(self, grid):
        """Grid-sampled invariants: partition sums to one inside the
        outermost annulus and discrete slopes respect the stated
        bounds."""
        t = np.linspace(0.0, self.r0 * 2.0 ** (self.n_max + 1), 4096)
        total = sum(self.cutoff(n, t) for n in self.annuli())
        inside = t <= self.r0 * 2.0 ** self.n_max
        if np.abs(total[inside] - 1.0).max() > 1e-12:
            raise ValueError("radial cutoffs do not sum to one")
        for n in self.annuli():
            vals = self.cutoff(n, t)
            slope = np.abs(np.diff(vals) / np.diff(t)).max()
            if slope > 4.0 / (self.r0 * 2.0 ** max(n, 0)) + 1e-9:
                raise ValueError(f"radial cutoff {n} violates its gradient bound")
            if not self.heights[n + 1] < self.r0 * 2.0 ** (n + 1):
                raise ValueError("cutoff height must stay below the annulus radius")
        return True


@dataclass
class DyadicResult:
    config: DyadicConfig
    varphi_n: dict            # n -> ScalarField
    energies: dict            # (n, r) -> measured (fint |grad varphi_n|^2)^(1/2)
    bound_shape: dict         # (n, r) -> (r0 2^(n+1)/r)^(d/2) delta^(1/3)
    consistency_r0: float     # rel gradient difference on B_{r0}^+
    consistency_quarter: float  # same on B_{L/4}^+

    @property
    def empirical_constant(self):
        vals = [self.energies[k] / self.bound_shape[k]
                for k in self.energies if self.bound_shape[k] > 0]
        return max(vals) if vals else 0.0


def dyadic_construction(field_hb, field_torus, pair, b, config, tol=DEFAULT_TOL,
                        radii=None, direct=None, op=None):
    """Annulus-by-annulus boundary corrections: each solve carries the
    flux datum cut off by one radial partition member; energies are
    tabulated against the bound shape with the measured sublinearity
    values, and the partial sum is compared with the direct solve.
    ``direct`` is that single-solve correction varphi for b on this
    half-box at this tol (``solve_halfspace_correction``, as in
    ``HalfSpaceCorrectorSet.varphi``); it is solved here when not given.
    All solves share one operator, ``op`` (the half-box operator with the
    default closure) when the caller holds one."""
    grid = field_hb.grid
    d = grid.dim
    if config.r0 * 2.0 ** (config.n_max + 1) > grid.height * 2.0 + 1e-9:
        raise ValueError("outermost annulus exceeds the domain")
    config.validate(grid)
    g_full = _flat_datum_on(field_torus, pair, b, grid)
    coords = grid.coords(face_offsets(d, d - 1))
    sl = [slice(None)] * d
    sl[d - 1] = 0
    rho = np.sqrt(sum(coords[a][tuple(sl)] ** 2 for a in range(d - 1)))
    if radii is None:
        radii = [config.r0]
    if op is None:
        op = Operator(field_hb, BoundarySpec.half_box(grid))
    varphi_n = {}
    energies = {}
    shapes = {}
    total = np.zeros(grid.shape)
    for n in config.annuli():
        g_n = config.cutoff(n, rho) * g_full
        sol, _ = solve(op.system(BoundarySpec.half_box(grid, flat=NoFlux(g_n))), tol=tol)
        varphi_n[n] = sol
        total += sol.values
        R = config.r0 * 2.0 ** (n + 1)
        dlt = config.delta_at[n + 1]
        for r in radii:
            energies[(n, r)] = float(np.sqrt(ball_mean_square(gradient(sol), sol.grid, r)))
            shapes[(n, r)] = (R / r) ** (d / 2.0) * dlt ** (1.0 / 3.0)
    if direct is None:
        direct = solve_halfspace_correction(field_hb, field_torus, pair, b, tol=tol, op=op).varphi
    total_f = ScalarField(grid, total)
    c_r0 = _relative_gradient_difference(total_f, direct, config.r0)
    c_quarter = _relative_gradient_difference(total_f, direct, grid.height / 4.0)
    return DyadicResult(config, varphi_n, energies, shapes, c_r0, c_quarter)


def _relative_gradient_difference(u_a, u_b, r):
    diff = ScalarField(u_a.grid, u_a.values - u_b.values)
    num = ball_mean_square(gradient(diff), diff.grid, r)
    den = ball_mean_square(gradient(u_b), u_b.grid, r)
    return float(np.sqrt(num / den)) if den > 0 else float(np.sqrt(num))
