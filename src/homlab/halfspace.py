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
    _ball_terms,
    _less_mean,
    _raw_and_centered,
    coefficient_times_vector,
    flux_potential_residual,
)
from .field import half_box_grid, restrict_to_half_box, restrict_values
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
    mean_product,
    solve,
    solve_many,
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
    stats: object


def half_box_operator(field_hb):
    """The operator of the half-box field ``field_hb`` with the default
    closure (no-flux flat, Dirichlet top), or ``field_hb`` itself when it
    is such an Operator already: the half-space functions take either."""
    if isinstance(field_hb, Operator):
        return field_hb
    return Operator(field_hb, BoundarySpec.half_box(field_hb.grid))


def solve_halfspace_correction(field_hb, g_flat, tol=DEFAULT_TOL):
    """Correction enforcing the no-flux condition for phi_b + b.x on the
    flat boundary of the half-box, whose flat datum g_flat = e_d . a
    (grad phi_b + b) on the flat face layer is the fourth value of
    ``restrict_pair``.  ``field_hb`` is the half-box field or its
    ``half_box_operator``."""
    op = half_box_operator(field_hb)
    # e_d . a grad varphi = -e_d . a (grad phi_b + b); with the outward
    # normal -e_d of the flat side this is a prescribed current +g_flat
    bc = _correction_bc(op.grid, g_flat)
    varphi, stats = solve(op.system(bc), tol=tol)
    # the far-field Dirichlet truncation pins the additive constant, so no
    # unit-ball normalization is applied: shifting the solution would break
    # its own top rows and the ghost-closed current below
    return CorrectionResult(varphi, correction_current(op.field, varphi, bc), stats)


def _correction_bc(grid, g_flat):
    """The boundary data of the correction: the flat datum ``g_flat`` as
    a prescribed current on the default closure."""
    return BoundarySpec.half_box(grid, flat=NoFlux(g_flat))


def correction_current(field_hb, varphi, bc):
    """a grad varphi as a face field with boundary layers closed the way
    the operator of ``bc`` sees them: the flat layer carries the
    prescribed datum of ``bc`` (+e_d oriented, the negative of the
    outward-normal value) and each zero-Dirichlet side of ``bc`` its
    ghost flux.  This keeps the discrete divergence of the current at the
    solver residual everywhere, which the skew correction construction
    needs.
    """
    grid = field_hb.grid
    d = grid.dim
    G = flux(field_hb, varphi)
    G.comps[d - 1][..., 0] = -bc.bc(d - 1, 0).value
    for k, side in bc.dirichlet_sides():
        face = (slice(None),) * k + (side * grid.shape[k],)
        cell = (slice(None),) * k + (-side,)
        a_kk = field_hb.entry(k, k)[face]
        G.comps[k][face] = (1 - 2 * side) * 2.0 * a_kk * varphi.values[cell] / grid.h
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
    residual of G); tangential components are pinned by their Dirichlet
    data, the vertical one by its far-field Dirichlet closure.  No
    per-annulus linear growth is subtracted here."""
    d = grid.dim
    return {j: ScalarField(grid, face_poisson_solve(grid, j, G.comps[j]), face_offsets(d, j))
            for j in range(d)}


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
    needs no solve (restriction only).  phi_h and sigma_h hold one
    ``ScalarField`` and one ``FluxPotentialSet`` per row; varphi, q_h and
    liouville_gap hold the tangential rows only: the correction, the
    current a(grad phi_h + b) - a_hom b, and the identity residual of sigma
    built with psi = curl v instead of the axial-gauge skew correction.
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


def _restricted_current(pair, b, half_grid):
    """Direction b's current a(grad phi_b + b), the one torus-sized array
    built, restricted to a half-box cut from the torus of ``pair``, and its
    flat layer, the datum of the half-space correction (a copy)."""
    d = half_grid.dim
    comps = [restrict_values(c, pair.cset.grid, half_grid, face_offsets(d, k))
             for k, c in enumerate(pair.cset.current(b).comps)]
    return VectorField(half_grid, comps), np.take(comps[d - 1], 0, axis=d - 1)


def _restricted_potentials(pair, b, half_grid):
    """The whole-space corrector phi_b and flux potential sigma_b
    restricted to a half-box cut from the torus of ``pair``, each a sum
    sum_w b_w f_w of the restricted coordinate fields f_w, value for value
    the restriction of the torus-sized sum."""
    torus = pair.cset.grid
    d = half_grid.dim

    def restricted(fields):
        offs = fields[0].offsets
        vals = sum(b[w] * restrict_values(fields[w].values, torus, half_grid, offs)
                   for w in range(d))
        return ScalarField(half_grid, vals, offs)

    phi = restricted(pair.cset.phi)
    sigma = FluxPotentialSet(half_grid, {
        key: restricted([pair.sigmas[w].sigma[key] for w in range(d)])
        for key in pair.sigmas[0].sigma})
    return phi, sigma


def restrict_pair(pair, b, half_grid):
    """``_restricted_potentials`` of b, the current of b restricted to the
    same half-box, q_b = a(grad phi_b + b) - a_hom b, and the flat datum of
    the correction, the flat layer of a(grad phi_b + b).  Each array is a
    new one, and the current of b is the one torus-sized array built."""
    phi, sigma = _restricted_potentials(pair, b, half_grid)
    q, datum = _restricted_current(pair, b, half_grid)
    _less_mean(q, pair.a_hom @ b)  # a gather commutes with the subtraction
    return phi, sigma, q, datum


def build_halfspace_set(field, pair, L, tangential_periodic=True, tol=DEFAULT_TOL):
    """Construct the full half-space-adapted set on a half-box of height
    L cut from the torus of ``pair``.  Each tangential direction adds its
    correction to the restricted whole-space pair and builds one
    torus-sized current, d - 1 in all; the transversal one restricts phi
    and sigma alone (no solve, no current).  The restrictions come first,
    then the d - 1 corrections are solved concurrently on one operator
    (``pde.solve_many``), each the same as ``solve_halfspace_correction``'s.
    ``field`` is the torus field of ``pair`` or the ``half_box_operator``
    of its restriction, which must lie on this half-box."""
    grid = half_box_grid(pair.cset.grid, L, tangential_periodic)
    d = grid.dim
    if not isinstance(field, Operator):
        if field is not pair.cset.field:
            raise ValueError("the torus field is not the field of the pair")
        field = restrict_to_half_box(field, L, tangential_periodic)
    op = half_box_operator(field)
    if op.grid != grid:
        raise ValueError(f"the operator is not on the half-box of height {L} of the pair")
    field_hb = op.field
    basis = tangential_basis(pair.a_hom)
    phi_h, varphi, sigma_h, q_h, gap, stats, bcs = {}, {}, {}, {}, {}, {}, {}
    for i in range(d - 1):
        # the restricted whole-space pair and the datum of its correction
        phi_h[i], sigma_h[i], q_h[i], g_flat = restrict_pair(pair, basis.vectors[i], grid)
        bcs[i] = _correction_bc(grid, g_flat)
    solved = solve_many([op.system(bcs[i]) for i in range(d - 1)], tol=tol)
    for i, (u, st) in enumerate(solved):
        varphi[i], stats[i] = u, st
        G = correction_current(field_hb, u, bcs[i])
        phi_h[i].values += u.values
        for j in range(d):
            q_h[i].comps[j] += G.comps[j]
        # the Liouville gap: sigma with psi = curl v, measured and dropped
        sigma_v = curl_of_potentials(solve_vector_potentials(grid, G), grid)
        for key, f in sigma_v.sigma.items():
            f.values += sigma_h[i].sigma[key].values
        gap[i] = flux_potential_residual(sigma_v, q_h[i].comps, grid.height / 2.0)
        del sigma_v
        for key, f in skew_correction(grid, G).sigma.items():
            sigma_h[i].sigma[key].values += f.values
    # the transversal direction: the restriction alone
    phi_h[d - 1], sigma_h[d - 1] = _restricted_potentials(pair, basis.normal_like, grid)
    return HalfSpaceCorrectorSet(grid, basis, pair, phi_h, varphi, sigma_h, q_h, gap, stats)


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------


@dataclass
class HalfSpaceResiduals:
    flat_flux_relative: float  # max flat flux over the sup of b + grad phi_h
    interior_relative: float
    sigma_identity: float


def halfspace_residuals(field_hb, hset, i):
    """Residuals of the defining problem for tangential direction i.

    flat flux: the implied conormal of phi_h + b.x through flat faces,
    from the cell balances of the assembled no-flux problem (top layer
    excluded); interior: relative equation residual; sigma identity:
    relative L2 defect of the row-divergence identity on the inner
    half-ball of radius L/2 (``flux_potential_residual``).  ``field_hb`` is the half-box field or its
    ``half_box_operator``.
    """
    op = half_box_operator(field_hb)
    grid = op.grid
    d = grid.dim
    b = hset.basis.vectors[i]
    sys = op.system(src=SourceTerm(divergence_form=coefficient_times_vector(op.field, b)))
    u = hset.phi_h[i].values.ravel()
    r = (sys.matrix @ u - sys.rhs).reshape(grid.shape)
    # rows inside Dirichlet truncation layers are determined by the trace
    # and excluded: the cell layer of each Dirichlet side
    keep = np.ones(grid.shape, dtype=bool)
    for k, side in sys.bc.dirichlet_sides():
        keep[(slice(None),) * k + (-side,)] = False
    flat_flux = float((np.abs(np.where(keep, r, 0.0)[..., 0]) * grid.h).max())
    # scale: sup norm of the corrected gradient b + grad phi_h
    g = gradient(hset.phi_h[i])
    scale = 0.0
    for k in range(d):
        mask = _interior_mask(grid, face_offsets(d, k))
        scale = max(scale, float(np.abs(g.comps[k][mask] + b[k]).max()))
    interior = np.where(keep, r, 0.0)
    interior[..., 0] = 0.0
    nb = np.linalg.norm(sys.rhs)
    interior_rel = float(np.linalg.norm(interior) / nb) if nb > 0 else 0.0
    sigma_res = flux_potential_residual(hset.sigma_h[i], hset.q_h[i].comps, grid.height / 2.0)
    return HalfSpaceResiduals(flat_flux / scale if scale > 0 else 0.0, interior_rel, sigma_res)


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
    b = hset.basis.normal_like
    out_full = []
    out_half = []
    for r in radii:
        if r > grid.height + 1e-12:
            raise ValueError(f"radius {r} exceeds the half-box height")
        tot_tang = 0.0
        for i in range(d - 1):
            tot_tang += _raw_and_centered(ball_values(hset.phi_h[i], grid, r)[0])[1]
            for f in hset.sigma_h[i].sigma.values():
                tot_tang += 2.0 * ball_mean_square(f, grid, r)
        # transversal term, full-ball (torus fields) and half-ball variant
        full = sum(w * mean_product([v], [v]) for w, v in _ball_terms(hset.torus_pair, r, [b]))
        halfv = ball_mean_square(hset.phi_h[i_d], grid, r)
        for f in hset.sigma_h[i_d].sigma.values():
            halfv += 2.0 * ball_mean_square(f, grid, r)
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
        a curve that lacks one of them is measured again at those radii
        while its pair is alive, and otherwise (or when built by hand)
        raises ValueError."""
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


@dataclass
class DyadicResult:
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
                        direct=None):
    """Annulus-by-annulus boundary corrections: each solve carries the
    flux datum cut off by one radial partition member; energies on
    B_{r0}^+ are tabulated against the bound shape with the measured
    sublinearity values, and the partial sum is compared with the direct
    solve.  The flux datum is the flat layer of b's current restricted from
    the torus of ``pair``, as in ``restrict_pair``; ``field_torus``, the
    field of that torus, is not read and stays for callers that pass the
    arguments by position.  ``direct`` is that single-solve correction
    varphi for b on this half-box at this tol
    (``solve_halfspace_correction``, as in ``HalfSpaceCorrectorSet.varphi``);
    when not given, its system joins the annuli's.  All solves share one
    operator, ``field_hb`` when it is the ``half_box_operator`` of the
    half-box field, and are solved concurrently on it
    (``pde.solve_many``)."""
    op = half_box_operator(field_hb)
    grid = op.grid
    d = grid.dim
    r0 = config.r0
    if r0 * 2.0 ** (config.n_max + 1) > grid.height * 2.0 + 1e-9:
        raise ValueError("outermost annulus exceeds the domain")
    _, g_full = _restricted_current(pair, b, grid)
    # tangential radius of the flat face layer
    axes = np.meshgrid(*(grid.points_along(a, 0.5) for a in range(d - 1)),
                       indexing="ij", sparse=True)
    rho = np.sqrt(sum(x ** 2 for x in axes))
    varphi_n = {}
    energies = {}
    shapes = {}
    total = np.zeros(grid.shape)
    data = [config.cutoff(n, rho) * g_full for n in config.annuli()]
    if direct is None:
        data.append(g_full)
    solved = solve_many([op.system(_correction_bc(grid, g)) for g in data], tol=tol)
    if direct is None:
        direct = solved.pop()[0]
    for n, (sol, _) in zip(config.annuli(), solved):
        varphi_n[n] = sol
        total += sol.values
        R = r0 * 2.0 ** (n + 1)
        dlt = config.delta_at[n + 1]
        energies[(n, r0)] = float(np.sqrt(ball_mean_square(gradient(sol), sol.grid, r0)))
        shapes[(n, r0)] = (R / r0) ** (d / 2.0) * dlt ** (1.0 / 3.0)
    total_f = ScalarField(grid, total)
    c_r0 = _relative_gradient_difference(total_f, direct, r0)
    c_quarter = _relative_gradient_difference(total_f, direct, grid.height / 4.0)
    return DyadicResult(varphi_n, energies, shapes, c_r0, c_quarter)


def _relative_gradient_difference(u_a, u_b, r):
    diff = ScalarField(u_a.grid, u_a.values - u_b.values)
    num = ball_mean_square(gradient(diff), diff.grid, r)
    den = ball_mean_square(gradient(u_b), u_b.grid, r)
    return float(np.sqrt(num / den)) if den > 0 else float(np.sqrt(num))
