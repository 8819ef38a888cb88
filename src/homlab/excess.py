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

Many harmonic samples on one window share one window record: the window
operator of the last (torus field, R) and the corrected-gradient family
of the last half-space set on that window, read-only.  There is one
record at a time: a new field, R or set replaces it, and it is released
when its field or set is garbage-collected.  Fields and sets are taken as
immutable: a field changed in place after a sample keeps its old window
operator.  Every ball mean goes through the quadrature of ``homlab.pde``,
whose half-ball masks are cached by value, so the record holds none.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
# round-off of a difference quotient of data of size |u|, in units of eps |u| / h
GRADIENT_ROUNDOFF_ULPS = 1e3


# ---------------------------------------------------------------------------
# boundary data and harmonic samples
# ---------------------------------------------------------------------------


def band_limited_trace(seed, box_half_width, n_modes=4, decay=1.5, amplitude=1.0, dim=2):
    """Smooth random trace of ``dim`` coordinates with a fixed, seeded
    spectrum.

    A real cosine sum over a band of low wavenumbers; the decay exponent
    keeps the trace dominated by macroscopic scales so decay statistics
    are reproducible across seeds.
    """
    rng = np.random.default_rng(seed)
    terms = []
    for k in np.ndindex(*([2 * n_modes + 1] * dim)):
        kv = np.array(k) - n_modes
        if not np.any(kv):
            continue
        amp = rng.standard_normal() / (1.0 + float(kv @ kv)) ** decay
        phase = rng.uniform(0.0, 2.0 * np.pi)
        terms.append((kv, amp, phase))

    def trace(*coords):
        if len(coords) != dim:
            raise TypeError(f"trace takes {dim} coordinates, got {len(coords)}")
        out = np.zeros(np.broadcast(*coords).shape)
        for kv, amp, phase in terms:
            arg = sum(k * c for k, c in zip(kv, coords))
            out = out + amp * np.cos(np.pi * arg / (2.0 * box_half_width) + phase)
        return amplitude * out

    return trace


@dataclass
class HarmonicSample:
    u: ScalarField
    field: object
    radius: float
    residual: float
    energy: float


def window_operator(field_torus, R):
    """Operator of the box window of half-width and height R cut from the
    torus field: no-flux flat side, Dirichlet far sides.  One serves the
    harmonic samples of every trace on that window."""
    window = restrict_to_half_box(field_torus, R, tangential_periodic=False)
    return Operator(window, BoundarySpec.half_box(window.grid))


def harmonic_sample(field_torus, R, trace, tol=1e-11, max_iter=20000):
    """Solve the mixed Dirichlet(round)/no-flux(flat) problem on the box
    window of half-width and height R cut from the torus field; repeated
    samples on one (field, R) share the window record's operator."""
    op = _window_for(field_torus, R).op
    bc = BoundarySpec.half_box(
        op.grid, flat=NoFlux(0.0), top=Dirichlet(trace), lateral=Dirichlet(trace)
    )
    u, stats = solve(op.system(bc), tol=tol, max_iter=max_iter)
    return HarmonicSample(u, op.field, R, stats.relative_residual, stats.energy)


# ---------------------------------------------------------------------------
# the window record
# ---------------------------------------------------------------------------


class _Window:
    """The box window of half-width and height R of one torus field: its
    operator and the corrected-gradient family of the last half-space set
    seen on it.  Only weak references to the field and the set are kept."""

    def __init__(self, field_torus, R):
        self.field = weakref.ref(field_torus, _forget)
        self.R = R
        self.op = window_operator(field_torus, R)
        self.grid = self.op.grid
        self.family = (None, None)  # (weak reference to the set, its family)


_window = None  # the one window record, or None
_lock = threading.Lock()  # serializes checking and replacing the record or its family


def _forget(ref):
    """Weak-reference callback: the record's field or set was collected."""
    global _window
    w = _window
    if w is not None and (w.field is ref or w.family[0] is ref):
        _window = None


def _window_for(field_torus, R):
    """The record of (field, R), replacing any other one."""
    global _window
    with _lock:
        w = _window
        if w is None or w.field() is not field_torus or w.R != R:
            _window = None  # release the old window before the new one is built
            w = _window = _Window(field_torus, R)
    return w


def _record_on(grid):
    """The record whose window grid is ``grid``, or None."""
    w = _window
    return w if w is not None and w.grid == grid else None


def _read_only(arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


# ---------------------------------------------------------------------------
# corrected gradient family on a window
# ---------------------------------------------------------------------------


def _corrected_gradient(hset, i, grid):
    """Face components of b_i + grad phi_h_{b_i} on the faces of ``grid``
    (the set's own grid needs no restriction)."""
    d = grid.dim
    g = gradient(hset.phi_h[i])
    b = hset.basis.vectors[i]
    if grid == hset.grid:
        return [g.comps[k] + b[k] for k in range(d)]
    return [restrict_values(g.comps[k], hset.grid, grid, face_offsets(d, k)) + b[k]
            for k in range(d)]


def corrected_gradient_family(hset, win_grid):
    """Per tangential direction, the face components of b + grad phi_h_b
    evaluated on the window face families."""
    return [_corrected_gradient(hset, i, win_grid) for i in range(win_grid.dim - 1)]


def _family(hset, grid):
    """``corrected_gradient_family``, kept read-only by the record when
    ``grid`` is its window."""
    w = _record_on(grid)
    if w is None:
        return corrected_gradient_family(hset, grid)
    with _lock:
        ref, fam = w.family
        if ref is None or ref() is not hset:
            w.family = (None, None)  # release the old family before the new one is built
            fam = [_read_only(comps) for comps in corrected_gradient_family(hset, grid)]
            w.family = (weakref.ref(hset, _forget), fam)
    return fam


# ---------------------------------------------------------------------------
# excess
# ---------------------------------------------------------------------------


@dataclass
class ExcessValue:
    value: float
    minimizer: np.ndarray  # tangential vector in the ambient coordinates
    coefficients: np.ndarray  # coordinates in the tangential basis
    gram_condition: float


def excess(u, r, hset, center=None):
    """Exact minimization of the tilt functional over the tangential
    space via the normal equations; singular Gram systems fall back to
    the minimum-norm solution."""
    grid = u.grid
    return _excess(gradient(u), _family(hset, grid), hset.basis, grid, r, center)


def _excess(g, fam, basis, grid, r, center=None):
    """``excess`` from the gradient g of u and the corrected gradient
    family on u's grid, which do not depend on r; g and each member are
    gathered on the half-ball once."""
    d = grid.dim
    if r < 4 * grid.h:
        raise ValueError("radius below the quadrature floor (need r >= 4h)")
    g = ball_values(g, grid, r, center=center)
    if not any(x.size for x in g):
        raise ValueError("empty half-ball")
    fam = [ball_values(VectorField(grid, f), grid, r, center=center) for f in fam]
    m = len(fam)
    M = np.zeros((m, m))
    c = np.zeros(m)
    for i in range(m):
        c[i] = mean_product(g, fam[i])
        for j in range(i, m):
            M[i, j] = M[j, i] = mean_product(fam[i], fam[j])
    cond = float(np.linalg.cond(M)) if m else 0.0
    if m:
        if np.isfinite(cond) and cond < 1e12:
            t = scipy.linalg.solve(M, c, assume_a="sym")
        else:
            t, *_ = np.linalg.lstsq(M, c, rcond=None)
    else:
        t = np.zeros(0)
    resid = [g[k] - sum(t[i] * fam[i][k] for i in range(m)) for k in range(d)]
    val = mean_product(resid, resid)
    b_tilde = sum(t[i] * basis.vectors[i] for i in range(m)) if m else np.zeros(d)
    return ExcessValue(max(val, 0.0), np.asarray(b_tilde), t, cond)


@dataclass
class ExcessReport:
    radii: np.ndarray
    excess: np.ndarray
    minimizers: list
    gram_condition: float
    fitted_alpha: float
    pair_ratios: dict  # r -> Exc(r)/Exc(2r)
    floored: list  # radii excluded from the fit


def excess_decay_experiment(sample, hset, radii, fit_window=None):
    """Excess table over dyadic radii with the fitted decay exponent
    (slope of log Exc over log r on the largest usable decade)."""
    radii = sorted(float(r) for r in radii)
    grid = sample.u.grid
    g = gradient(sample.u)
    fam = _family(hset, grid)
    vals = []
    mins = []
    cond = 0.0
    for r in radii:
        ev = _excess(g, fam, hset.basis, grid, r)
        vals.append(ev.value)
        mins.append(ev.minimizer)
        cond = max(cond, ev.gram_condition)
    vals = np.asarray(vals)
    rad = np.asarray(radii)
    floored = [float(r) for r, v in zip(rad, vals) if v <= EXCESS_FLOOR]
    keep = vals > EXCESS_FLOOR
    if fit_window is not None:
        keep &= (rad >= fit_window[0]) & (rad <= fit_window[1])
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
    return ExcessReport(rad, vals, mins, cond, float(alpha), ratios, floored)


# ---------------------------------------------------------------------------
# coercivity and mean value
# ---------------------------------------------------------------------------


@dataclass
class CoercivityReport:
    radius: float
    magnitudes: np.ndarray
    values: np.ndarray
    lower_bound: np.ndarray
    empirical_constant: float

    @property
    def ok(self):
        return bool(np.all(self.values >= self.lower_bound - 1e-12))


def coercivity_check(hset, r, magnitudes=(1.0, 4.0, 16.0, 64.0)):
    """fint |t b_1 + grad phi_h_{t b_1}|^2 against (1/16)^(d+1) t^2; the
    family is linear in t, so quadratic homogeneity is exact."""
    grid = hset.grid
    d = grid.dim
    base = ball_mean_square(VectorField(grid, _corrected_gradient(hset, 0, grid)), grid, r)
    mags = np.asarray(magnitudes, dtype=float)
    values = base * mags**2
    lower = (1.0 / 16.0) ** (d + 1) * mags**2
    return CoercivityReport(r, mags, values, lower, base)


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


def mean_value_check(sample, radii):
    """Ratios fint_{B_r^+} |grad u|^2 / fint_{B_R^+} |grad u|^2 with R the
    largest radius; degenerate zero-energy samples report unit ratios
    with an explicit flag.  A sample counts as zero-energy when its energy
    is at the round-off level of its own gradient, so the flag does not
    depend on the scale of u.  Fewer than two radii compare nothing: the
    ratios and the constant are NaN."""
    grid = sample.u.grid
    g = gradient(sample.u)
    radii = sorted(float(r) for r in radii)
    if len(radii) < 2:
        return MeanValueReport(np.asarray(radii), np.full(len(radii), np.nan), float("nan"), False)
    R = radii[-1]
    den = ball_mean_square(g, grid, R)
    roundoff = GRADIENT_ROUNDOFF_ULPS * np.finfo(float).eps * np.abs(sample.u.values).max() / grid.h
    if den <= roundoff**2:
        return MeanValueReport(np.asarray(radii), np.ones(len(radii)), 1.0, True)
    ratios = np.asarray([ball_mean_square(g, grid, r) / den for r in radii])
    return MeanValueReport(np.asarray(radii), ratios, float(ratios.max()), False)


# ---------------------------------------------------------------------------
# Liouville diagnostics
# ---------------------------------------------------------------------------


@dataclass
class LiouvilleReport:
    b_tilde: np.ndarray
    constant: float
    residual_profile: dict  # r -> normalized L2 misfit
    growth_profile: dict  # r -> r^-(1+alpha) rms(u)
    subquadratic: bool
    minimizer_drift: float  # max relative variation of b_r across radii


def liouville_check(u, hset, radii, alpha=0.5):
    """Least-squares fit of u by b.x + phi_h_b + c at the largest radius,
    with the growth diagnostic of subquadratic behavior and the radius
    stability of the per-radius minimizers."""
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
    growth = {}
    for r in radii:
        grms = np.sqrt(max(ball_mean_square(g, grid, r), 1e-30))
        residual_profile[r] = float(np.sqrt(ball_mean_square(mis, grid, r)) / (r * grms))
        growth[r] = float(np.sqrt(ball_mean_square(u, grid, r)) / r ** (1.0 + alpha))
    gv = [growth[r] for r in radii]
    half = max(1, len(gv) // 2)
    subquadratic = all(b <= a * (1.0 + 1e-9) for a, b in zip(gv[-half - 1 : -1], gv[-half:]))
    drift = 0.0
    ref = np.linalg.norm(coeffs_by_r[radii[-1]][:-1]) + 1e-30
    for r in radii:
        drift = max(
            drift,
            float(np.linalg.norm(coeffs_by_r[r][:-1] - coeffs_by_r[radii[-1]][:-1]) / ref),
        )
    return LiouvilleReport(np.asarray(b_tilde), cst, residual_profile, growth, subquadratic, drift)
