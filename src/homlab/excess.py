"""Half-space tilt-excess, excess decay, coercivity, mean-value and
Liouville diagnostics for discrete a-harmonic functions with no-flux
flat-boundary data.

The excess at radius r measures the L2 distance of grad u over the
half-ball to the family of corrected tangential-affine gradients

    b + grad phi_h_b,   b in the tangential space,

minimized exactly through the (d-1)-dimensional normal equations.  The
harmonic samples solve the mixed problem on the box window
[-R, R]^(d-1) x [0, R] (Dirichlet trace on the far sides, no-flux on the
flat side); any such solution is a-harmonic with no-flux data on B_R^+,
which is all the decay theory needs.

Many harmonic samples on one window share its operator, and many excess
evaluations share the corrected-gradient family: the torus field keeps the
operator of its last window and the half-space set, for its last grid, the
family gathered on the half-ball of each radius with its Gram matrix, all
read-only, and both go with their owner.  A sample keeps the ball mean of
|grad u|^2 of each radius its excess table reads, for the mean-value check,
and a set its coercivity value of each radius.  Fields, sets and samples
are taken as immutable: a field changed in place after a sample keeps its
old window operator.  Every ball mean goes through ``homlab.pde``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import restrict_to_half_box, restrict_values
from .grid import cell_offsets, face_offsets
from .pde import (
    BoundarySpec,
    Dirichlet,
    NoFlux,
    Operator,
    ScalarField,
    VectorField,
    ball_mean_square,
    ball_values,
    gradient,
    interior_ball_mask,
    mean_product,
    solve,
)

EXCESS_FLOOR = 1e-14  # solver-noise floor excluded from log-log fits
# band of a random trace: wavenumbers |k_i| <= TRACE_MODES, amplitudes ~ (1 + |k|^2)^-TRACE_DECAY
TRACE_MODES = 4
TRACE_DECAY = 1.5
# round-off of a difference quotient of data of size |u|, in units of eps |u| / h
GRADIENT_ROUNDOFF_ULPS = 1e3


# ---------------------------------------------------------------------------
# boundary data and harmonic samples
# ---------------------------------------------------------------------------


def band_limited_trace(seed, box_half_width, dim=2):
    """Smooth random trace of ``dim`` coordinates with a fixed, seeded
    spectrum.

    A real cosine sum over a band of low wavenumbers; the decay exponent
    keeps the trace dominated by macroscopic scales so decay statistics
    are reproducible across seeds.  A term amp cos(pi k.x / 2w + phase)
    is Re c_k prod_a e^(i pi k_a x_a / 2w), c_k = amp e^(i phase): one
    einsum of the c_k with a phase table per axis.
    """
    rng = np.random.default_rng(seed)
    k = np.arange(-TRACE_MODES, TRACE_MODES + 1)
    k2 = sum(np.ix_(*[k * k] * dim))
    coef = np.zeros(k2.shape, complex)
    for idx in zip(*np.nonzero(k2)):  # in C order, each term's amplitude, then its phase
        amp = rng.standard_normal() / (1.0 + float(k2[idx])) ** TRACE_DECAY
        coef[idx] = amp * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    contraction = ",".join(["abc"[:dim]] + [a + "..." for a in "abc"[:dim]]) + "->..."

    def trace(*coords):
        if len(coords) != dim:
            raise TypeError(f"trace takes {dim} coordinates, got {len(coords)}")
        tables = [np.exp(1j * np.pi / (2.0 * box_half_width) * np.multiply.outer(k, c))
                  for c in np.broadcast_arrays(*coords)]
        return np.einsum(contraction, coef, *tables).real

    return trace


@dataclass
class HarmonicSample:
    u: ScalarField
    residual: float


def window_operator(field_torus, R):
    """Operator of the box window of half-width and height R cut from the
    torus field: no-flux flat side, Dirichlet far sides.  It serves every
    trace on that window and is kept on the field for the last R (a new R
    drops it before the new one is built)."""
    kept = vars(field_torus).get("_window_operator")
    if kept is not None and kept[0] == R:
        return kept[1]
    field_torus._window_operator = None
    window = restrict_to_half_box(field_torus, R, tangential_periodic=False)
    op = Operator(window, BoundarySpec.half_box(window.grid))
    field_torus._window_operator = (R, op)
    return op


def harmonic_sample(field_torus, R, trace, tol=1e-11):
    """Solve the mixed Dirichlet(round)/no-flux(flat) problem on the box
    window of half-width and height R cut from the torus field; repeated
    samples on one (field, R) share its ``window_operator``."""
    op = window_operator(field_torus, R)
    bc = BoundarySpec.half_box(
        op.grid, flat=NoFlux(0.0), top=Dirichlet(trace), lateral=Dirichlet(trace)
    )
    u, stats = solve(op.system(bc), tol=tol)
    return HarmonicSample(u, stats.relative_residual)


# ---------------------------------------------------------------------------
# corrected gradient family on a window
# ---------------------------------------------------------------------------


def _corrected_gradient(hset, i, grid):
    """Face components of b_i + grad phi_h_{b_i} on the faces of ``grid``,
    the set's own grid or a window inside it."""
    d = grid.dim
    g = gradient(hset.phi_h[i])
    b = hset.basis.vectors[i]
    return [restrict_values(g.comps[k], hset.grid, grid, face_offsets(d, k)) + b[k]
            for k in range(d)]


def _family(hset, grid, radii):
    """The set's record ``r -> (fam, M, cond)`` on ``grid`` for every r of
    ``radii``: the corrected-gradient family gathered on the half-ball of
    r (``ball_values`` per member), its Gram matrix M and cond M, all
    read-only.  Kept on the set for the last grid; a new grid drops the
    record.  A call that lacks radii builds the family on ``grid`` once,
    gathers it at each of them and drops it."""
    kept = vars(hset).get("_family_by_radius")
    if kept is None or kept[0] != grid:
        hset._family_by_radius = kept = (grid, {})
    record = kept[1]
    lacking = [r for r in radii if r not in record]
    full = [VectorField(grid, _corrected_gradient(hset, i, grid))
            for i in range(grid.dim - 1)] if lacking else []
    for r in lacking:
        if r < 4 * grid.h:
            raise ValueError("radius below the quadrature floor (need r >= 4h)")
        fam = [ball_values(f, grid, r) for f in full]
        if not any(x.size for x in fam[0]):
            raise ValueError("empty half-ball")
        M = np.array([[mean_product(a, b) for b in fam] for a in fam])
        for a in [M, *(x for comps in fam for x in comps)]:
            a.flags.writeable = False
        record[r] = (fam, M, float(np.linalg.cond(M)))
    return record


# ---------------------------------------------------------------------------
# excess
# ---------------------------------------------------------------------------


@dataclass
class ExcessValue:
    value: float
    minimizer: np.ndarray  # tangential vector in the ambient coordinates
    coefficients: np.ndarray  # coordinates in the tangential basis


def excess(u, r, hset):
    """Exact minimization of the tilt functional over the tangential
    space via the normal equations; singular Gram systems fall back to
    the minimum-norm solution."""
    return _excess(gradient(u), hset, u.grid, r)


def _excess(g, hset, grid, r, energies=None):
    """``excess`` from the gradient g of u, which does not depend on r;
    only g is gathered on the half-ball, the family's gathers and Gram
    matrix at r are read from the set's record.  ``energies``, when
    given, records the ball mean of |g|^2 at r."""
    d = grid.dim
    fam, M, cond = _family(hset, grid, [r])[r]
    m = len(fam)
    g = ball_values(g, grid, r)
    if energies is not None:
        energies[r] = mean_product(g, g)
    c = np.asarray([mean_product(g, f) for f in fam])
    if np.isfinite(cond) and cond < 1e12:
        t = np.linalg.solve(M, c)
    else:
        t, *_ = np.linalg.lstsq(M, c, rcond=None)
    resid = [g[k] - sum(t[i] * fam[i][k] for i in range(m)) for k in range(d)]
    val = mean_product(resid, resid)
    b_tilde = sum(t[i] * hset.basis.vectors[i] for i in range(m))
    return ExcessValue(max(val, 0.0), np.asarray(b_tilde), t)


@dataclass
class ExcessReport:
    radii: np.ndarray
    excess: np.ndarray
    minimizers: list
    fitted_alpha: float
    pair_ratios: dict  # r -> Exc(r)/Exc(2r)


def excess_decay_experiment(sample, hset, radii):
    """Excess table over dyadic radii with the fitted decay exponent
    (half the slope of log Exc over log r on every radius above
    ``EXCESS_FLOOR``)."""
    radii = sorted(float(r) for r in radii)
    grid = sample.u.grid
    _family(hset, grid, radii)  # the family is built once for every radius
    g = gradient(sample.u)
    energies = _ball_energies(sample)
    vals = []
    mins = []
    for r in radii:
        ev = _excess(g, hset, grid, r, energies)
        vals.append(ev.value)
        mins.append(ev.minimizer)
    vals = np.asarray(vals)
    rad = np.asarray(radii)
    keep = vals > EXCESS_FLOOR
    if keep.sum() >= 2:
        slope = np.polyfit(np.log(rad[keep]), np.log(vals[keep]), 1)[0]
        alpha = 0.5 * slope
    else:
        alpha = float("nan")
    ratios = {}
    for i, r in enumerate(rad):
        j = np.argmin(np.abs(rad - 2.0 * r))
        if abs(rad[j] - 2.0 * r) < 1e-9 and vals[j] > EXCESS_FLOOR:
            ratios[float(r)] = float(vals[i] / vals[j])
    return ExcessReport(rad, vals, mins, float(alpha), ratios)


# ---------------------------------------------------------------------------
# coercivity and mean value
# ---------------------------------------------------------------------------


@dataclass
class CoercivityReport:
    value: float  # fint_{B_r^+} |b_1 + grad phi_h_{b_1}|^2
    lower_bound: float  # (1/16)^(d+1)

    @property
    def ok(self):
        return bool(self.value >= self.lower_bound)


def coercivity_check(hset, r):
    """fint_{B_r^+} |b_1 + grad phi_h_{b_1}|^2 against (1/16)^(d+1); the
    corrected family is linear in b, so this one comparison covers every
    multiple t b_1 (both sides scale by t^2).  The value of each r is kept
    on the set as a scalar."""
    grid = hset.grid
    values = vars(hset).setdefault("_coercivity", {})
    if r not in values:
        values[r] = ball_mean_square(VectorField(grid, _corrected_gradient(hset, 0, grid)), grid, r)
    return CoercivityReport(values[r], (1.0 / 16.0) ** (grid.dim + 1))


def smallness_radius(hcurve, threshold):
    """Smallest measured radius with delta_h at or below the threshold
    (the empirical counterpart of the smallness radius; the constant
    behind the threshold is configuration, not a claimed value)."""
    for r, v in zip(hcurve.radii, hcurve.delta_h):
        if v <= threshold:
            return float(r)
    return None


@dataclass
class MeanValueReport:
    radii: np.ndarray
    ratios: np.ndarray
    c_mean: float
    zero_energy: bool


def _ball_energies(sample):
    """The ball means of |grad u|^2 of the sample by radius, kept on the
    sample as scalars (``excess_decay_experiment`` records those of its
    radii); samples are taken as immutable, like fields."""
    return vars(sample).setdefault("_ball_energies", {})


def mean_value_check(sample, radii):
    """Ratios fint_{B_r^+} |grad u|^2 / fint_{B_R^+} |grad u|^2 with R the
    largest radius; degenerate zero-energy samples report unit ratios
    with an explicit flag.  A sample counts as zero-energy when its energy
    is at the round-off level of its own gradient, so the flag does not
    depend on the scale of u.  Fewer than two radii compare nothing: the
    ratios and the constant are NaN.  The energies come from the sample's
    kept ones; the gradient is built only for a radius they lack."""
    grid = sample.u.grid
    radii = sorted(float(r) for r in radii)
    if len(radii) < 2:
        return MeanValueReport(np.asarray(radii), np.full(len(radii), np.nan), float("nan"), False)
    energies = _ball_energies(sample)
    lacking = [r for r in radii if r not in energies]
    if lacking:
        g = gradient(sample.u)
        for r in lacking:
            energies[r] = ball_mean_square(g, grid, r)
    R = radii[-1]
    den = energies[R]
    roundoff = GRADIENT_ROUNDOFF_ULPS * np.finfo(float).eps * np.abs(sample.u.values).max() / grid.h
    if den <= roundoff**2:
        return MeanValueReport(np.asarray(radii), np.ones(len(radii)), 1.0, True)
    ratios = np.asarray([energies[r] / den for r in radii])
    return MeanValueReport(np.asarray(radii), ratios, float(ratios.max()), False)


# ---------------------------------------------------------------------------
# Liouville diagnostics
# ---------------------------------------------------------------------------


@dataclass
class LiouvilleReport:
    b_tilde: np.ndarray
    constant: float
    residual_profile: dict  # r -> normalized L2 misfit
    subquadratic: bool  # r^-(3/2) rms(u) does not grow over the larger radii
    minimizer_drift: float  # max relative variation of b_r across radii


def liouville_check(u, hset, radii):
    """Least-squares fit of u by b.x + phi_h_b + c at the largest radius,
    with the growth diagnostic r^-(3/2) rms(u) of subquadratic behavior
    and the radius stability of the per-radius minimizers."""
    grid = u.grid
    d = grid.dim
    radii = sorted(float(r) for r in radii)
    cells = grid.coords(cell_offsets(d))
    basis_fields = []
    for i in range(d - 1):
        phi = restrict_values(hset.phi_h[i].values, hset.grid, grid, cell_offsets(d))
        lin = sum(hset.basis.vectors[i][a] * cells[a] for a in range(d))
        basis_fields.append(lin + phi)
    coeffs_by_r = {}
    for r in radii:
        mask = interior_ball_mask(grid, cell_offsets(d), r)
        cols = [bf[mask] for bf in basis_fields] + [np.ones(int(mask.sum()))]
        A = np.stack(cols, axis=1)
        sol, *_ = np.linalg.lstsq(A, u.values[mask], rcond=None)
        coeffs_by_r[r] = sol
    sol = coeffs_by_r[radii[-1]]
    t, cst = sol[:-1], float(sol[-1])
    b_tilde = (
        sum(t[i] * hset.basis.vectors[i] for i in range(d - 1))
        if d > 1
        else np.zeros(d)
    )
    fit = sum(t[i] * basis_fields[i] for i in range(d - 1)) + cst
    g = gradient(u)
    mis = ScalarField(grid, u.values - fit)
    residual_profile = {}
    gv = []
    for r in radii:
        grms = np.sqrt(max(ball_mean_square(g, grid, r), 1e-30))
        residual_profile[r] = float(np.sqrt(ball_mean_square(mis, grid, r)) / (r * grms))
        gv.append(float(np.sqrt(ball_mean_square(u, grid, r)) / r ** 1.5))
    half = max(1, len(gv) // 2)
    subquadratic = all(b <= a * (1.0 + 1e-9) for a, b in zip(gv[-half - 1 : -1], gv[-half:]))
    drift = 0.0
    ref = np.linalg.norm(coeffs_by_r[radii[-1]][:-1]) + 1e-30
    for r in radii:
        drift = max(
            drift,
            float(np.linalg.norm(coeffs_by_r[r][:-1] - coeffs_by_r[radii[-1]][:-1]) / ref),
        )
    return LiouvilleReport(np.asarray(b_tilde), cst, residual_profile, subquadratic, drift)
