"""Random uniformly elliptic coefficient fields on periodized boxes.

Members of the admissible class satisfy, for every stored face matrix a,

    |a xi| <= |xi|   and   lam |xi|^2 <= xi . a xi   for all xi,

with the lower bound read through the symmetric part.  Coefficients are
stored on faces (face-normal sampling): ensembles generate matrices per
cell, and the face value between two cells is their harmonic mean (SPD
pairs) so that one-dimensional flux continuity is exact; this makes the
classical laminate formulas hold exactly on the discrete level.

Ensembles: constant matrices, laminates, iid checkerboards with unit
range of dependence, and clipped Gaussian fields (the Lipschitz image of
a stationary Gaussian field, a seeded Fourier series on the torus).  Each
is one continuum realization per seed, read at the cell centres of any h.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .grid import Grid, HALF_BOX, TORUS, face_offsets

META = "__meta__"  # the archive entry of the JSON meta (``write_arrays``)


class FieldFileError(ValueError):
    """Raised on a field file or half-space bundle that is not a
    ``write_arrays`` archive of the entries and meta its loader reads."""


class EllipticityError(ValueError):
    """Raised when a sampled field leaves the admissible class."""

    def __init__(self, message, matrix=None, where=None):
        super().__init__(message)
        self.matrix = matrix
        self.where = where


# ---------------------------------------------------------------------------
# coefficient field
# ---------------------------------------------------------------------------


@dataclass
class CoefficientField:
    """Face-sampled coefficient tensors.  Treated as immutable after
    construction, so realizations are safe to share across concurrent
    solves; independent realizations come from independent seeds.

    ``faces[k]`` holds the k-faces as diagonals, shape
    ``face_shape(k) + (s,)``, or as full matrices, shape
    ``face_shape(k) + (d, d)``.  A field without an off-diagonal entry is
    always stored as diagonals (``diagonal`` is True), whichever form it
    was given in; their trailing length s is 1 when every face tensor is
    a multiple of the identity (one value per face, read as d equal
    entries) and d otherwise.  The form follows from the numbers, so the
    same numbers give the same storage.  Readers go through ``entry`` and
    ``matrices``, never the storage itself.
    """

    grid: Grid
    faces: list
    lam: float
    seed: int = 0
    diagonal: bool = dc_field(init=False)

    def __post_init__(self):
        d = self.grid.dim
        if len(self.faces) != d:
            raise ValueError("need one face array per axis")
        faces = [np.asarray(f, dtype=float) for f in self.faces]
        for k, f in enumerate(faces):
            base = self.grid.face_shape(k)
            if f.shape not in (base + (1,), base + (d,), base + (d, d)):
                raise ValueError(f"face array {k}: shape {f.shape}, "
                                 f"need {base + (1,)}, {base + (d,)} or {base + (d, d)}")
        self.diagonal = not any(f.ndim == d + 2 and np.any(f[..., i, j])
                                for f in faces for i in range(d) for j in range(d) if i != j)
        ii = np.arange(d)
        if self.diagonal:
            faces = [f[..., ii, ii] if f.ndim == d + 2 else f for f in faces]
            s = 1 if all(_isotropic(f) for f in faces) else d
            faces = [np.broadcast_to(f[..., :s], f.shape[:-1] + (s,)) for f in faces]
        else:
            faces = [_diagonal_matrices(f, d) if f.ndim == d + 1 else f for f in faces]
        self.faces = [np.ascontiguousarray(f) for f in faces]

    def entry(self, k, m):
        """a_km on the k-faces (exact zeros off the diagonal of a
        diagonal field); contiguous for one value per face."""
        f = self.faces[k]
        if not self.diagonal:
            return f[..., k, m]
        return f[..., k % f.shape[-1]] if m == k else np.broadcast_to(0.0, f.shape[:-1])

    def matrices(self, k):
        """The k-face matrices, shape face_shape(k) + (d, d); a new array
        for a diagonal field, the storage itself otherwise (read only)."""
        f = self.faces[k]
        return _diagonal_matrices(f, self.grid.dim) if self.diagonal else f

    def is_symmetric(self):
        """Whether every face matrix is symmetric to 1e-12 relative."""
        if self.diagonal:
            return True
        for f in self.faces:
            diff = np.abs(f - np.swapaxes(f, -1, -2)).max()
            if diff > 1e-12 * max(np.abs(f).max(), 1.0):
                return False
        return True

    def equals(self, other):
        return (
            self.grid == other.grid
            and self.lam == other.lam
            and self.seed == other.seed
            and all(np.array_equal(a, b) for a, b in zip(self.faces, other.faces))
        )


def _diagonal_matrices(diag, d):
    """Diagonal matrices (..., d, d) with the given diagonals (..., d), or
    multiples of the identity from one value each (..., 1)."""
    out = np.zeros(diag.shape[:-1] + (d, d))
    out[..., np.arange(d), np.arange(d)] = diag
    return out


def _isotropic(diag):
    """Whether every diagonal (..., d) has d equal entries."""
    return all(np.array_equal(diag[..., i], diag[..., 0]) for i in range(1, diag.shape[-1]))


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


@dataclass
class EnsembleSpec:
    kind: str
    lam: float
    seed: int = 0
    params: dict = dc_field(default_factory=dict)

    @staticmethod
    def constant(a0, lam=None):
        a0 = np.asarray(a0, dtype=float)
        if lam is None:
            lam = float(np.linalg.eigvalsh(0.5 * (a0 + a0.T)).min())
        return EnsembleSpec("constant", lam, 0, {"a0": a0.tolist()})

    @staticmethod
    def laminate(axis=0, values=(0.25, 1.0), width=1.0, lam=None):
        vals = [np.asarray(v, dtype=float).tolist() for v in values]
        if lam is None:
            lam = min(_value_rayleigh(v) for v in vals)
        return EnsembleSpec("laminate", lam, 0, {"axis": axis, "values": vals, "width": width})

    @staticmethod
    def checkerboard(values=(0.25, 1.0), cell_size=1.0, lam=None, seed=0):
        vals = [np.asarray(v, dtype=float).tolist() for v in values]
        if lam is None:
            lam = min(_value_rayleigh(v) for v in vals)
        return EnsembleSpec("checkerboard", lam, seed, {"values": vals, "cell_size": cell_size})

    @staticmethod
    def gaussian_lipschitz(correlation_length=2.0, lam=0.25, seed=0, mean=None, scale=None):
        """Mean and scale None take their defaults from ``ENSEMBLE_PARAMS``."""
        params = {"correlation_length": correlation_length, "mean": mean, "scale": scale}
        return EnsembleSpec("gaussian_lipschitz", lam, seed,
                            {k: v for k, v in params.items() if v is not None})

    @staticmethod
    def from_dict(d):
        return EnsembleSpec(d["kind"], float(d["lam"]), int(d.get("seed", 0)), d.get("params", {}))


def _value_rayleigh(v):
    """Smallest symmetric-part eigenvalue of a scalar or matrix value."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        return float(v)
    return float(np.linalg.eigvalsh(0.5 * (v + v.T)).min())


def _value_stack(values, dim):
    """Ensemble values stacked as one value each (k, 1) when all are
    multiples of the identity, as cell diagonals (k, d) when none has an
    off-diagonal entry, else as matrices (k, d, d)."""
    out = []
    for v in values:
        v = np.asarray(v, dtype=float)
        if v.ndim == 0:
            out.append(float(v) * np.eye(dim))
        elif v.shape == (dim, dim):
            out.append(v)
        else:
            raise ValueError(f"ensemble value with shape {v.shape}, need scalar or ({dim},{dim})")
    mats = np.stack(out)
    if np.any(mats[:, ~np.eye(dim, dtype=bool)]):
        return mats
    diag = mats[:, np.arange(dim), np.arange(dim)]
    return diag[:, :1] if _isotropic(diag) else diag


def checkerboard_assignment(spec, grid):
    """iid unit-cell assignment of the checkerboard on the ambient torus,
    deterministic in the seed."""
    params = ensemble_params(spec)
    cs = float(params["cell_size"])
    per_unit = cs / grid.h
    if abs(per_unit - round(per_unit)) > 1e-12 or round(per_unit) < 1:
        raise ValueError(f"cell_size {cs} not an integer multiple of h={grid.h}")
    units = grid.side / cs
    if abs(units - round(units)) > 1e-12:
        raise ValueError("torus side must hold an integer number of unit cells")
    units = int(round(units))
    rng = np.random.default_rng(spec.seed)
    return rng.integers(0, len(params["values"]), size=(units,) * grid.dim)


# each kind's parameters and their constructor's defaults: a callable
# default is a function of lam, None marks a parameter without one
ENSEMBLE_PARAMS = {
    "constant": {"a0": None},
    "laminate": {"axis": 0, "values": (0.25, 1.0), "width": 1.0},
    "checkerboard": {"values": (0.25, 1.0), "cell_size": 1.0},
    "gaussian_lipschitz": {"correlation_length": 2.0, "mean": lambda lam: 0.5 * (1.0 + lam),
                           "scale": lambda lam: 0.25 * (1.0 - lam)},
}


def ensemble_params(spec):
    """The parameters of ``spec`` with the defaults of its kind filled in;
    ValueError on an unknown kind or key, or a parameter without a value."""
    table = ENSEMBLE_PARAMS.get(spec.kind, {})
    params = {k: v(spec.lam) if callable(v) else v for k, v in table.items()} | spec.params
    if not table or params.keys() != table.keys() or any(v is None for v in params.values()):
        raise ValueError(f"ensemble {spec.kind!r} with the parameters {sorted(spec.params)}; the "
                         f"kinds take {({k: sorted(t) for k, t in ENSEMBLE_PARAMS.items()})}")
    return params


def gaussian_cells(ell, seed, grid):
    """Re sum_m c_m s_m e^(2 pi i m.x / side) at the cell centres, with c_m
    complex normal from the seed for every mode whose per-axis weight
    exp(-2 (pi ell m_a / side)^2) exceeds 1e-16, and s_m^2 the Fourier
    coefficient of the periodized covariance exp(-|x|^2 / 2 ell^2)."""
    d, n, side = grid.dim, grid.n, grid.side
    top = int(side / (np.pi * ell) * np.sqrt(8.0 * np.log(10.0)))
    x = np.pi * np.arange(-top, top + 1) / side
    # s_m per axis, with the half-cell phase e^(i pi m h / side)
    amp = np.sqrt(np.sqrt(2.0 * np.pi) * ell / side) * np.exp(-(ell * x) ** 2 + 1j * x * grid.h)
    g = np.random.default_rng(seed).standard_normal((x.size,) * d + (2,)).view(complex)[..., 0]
    lead = -top % n  # leading zeros put each mode at an index equal to it mod n
    for a in range(d):
        g *= amp.reshape([-1 if b == a else 1 for b in range(d)])
        g = np.pad(g, [(lead, -(lead + x.size) % n) if b == a else (0, 0) for b in range(d)])
        g = g.reshape(g.shape[:a] + (-1, n) + g.shape[a + 1:]).sum(axis=a)  # fold mod n
    return np.fft.ifftn(g, norm="forward").real


def cell_values(spec, grid):
    """Per-cell coefficients of an ensemble on a torus grid, read only:
    diagonals, shape grid.shape + (d,), for a diagonal ensemble (scalar or
    diagonal values, and every Gaussian field), else matrices
    grid.shape + (d, d).  Scalar values are one value per cell in memory,
    broadcast over the d entries."""
    if grid.topology != TORUS:
        raise ValueError("cell sampling happens on the ambient torus")
    d = grid.dim
    shape = grid.shape
    params = ensemble_params(spec)
    if spec.kind == "gaussian_lipschitz":
        g = gaussian_cells(float(params["correlation_length"]), spec.seed, grid)
        lo = spec.lam * (1.0 + 1e-9)
        hi = 1.0 - 1e-12
        m = np.clip(float(params["mean"]) + float(params["scale"]) * g, lo, hi)
        return np.broadcast_to(m[..., None], shape + (d,))
    vals = _value_stack([params["a0"]] if spec.kind == "constant" else params["values"], d)
    tail = (d,) * (vals.ndim - 1)
    if spec.kind == "constant":
        cells = vals[0]
    elif spec.kind == "laminate":
        axis = int(params["axis"])
        x = grid.points_along(axis, 0.5)
        stripe = np.floor(x / float(params["width"])).astype(int) % len(vals)
        cells = vals[stripe].reshape([shape[axis] if a == axis else 1 for a in range(d)]
                                     + list(vals.shape[1:]))
    else:
        assign = checkerboard_assignment(spec, grid)
        per_unit = int(round(float(params["cell_size"]) / grid.h))
        for a in range(d):
            assign = np.repeat(assign, per_unit, axis=a)
        cells = vals[assign]
    return np.broadcast_to(cells, shape + tail)


def cell_matrices(spec, grid):
    """Per-cell coefficient matrices of an ensemble on a torus grid,
    shape grid.shape + (d, d)."""
    cells = cell_values(spec, grid)
    return cells if cells.ndim == grid.dim + 2 else _diagonal_matrices(cells, grid.dim)


def _diagonal_harmonic(out, a, b):
    """Write the harmonic mean 2 a b / (a + b) of cell diagonals into ``out``."""
    np.multiply(2.0, a, out=out)
    out *= b
    out /= a + b


def _matrix_harmonic(out, a, b):
    """Write the harmonic mean 2 (a^-1 + b^-1)^-1 of symmetric cell matrices,
    symmetrized, into ``out``; raises LinAlgError on a singular one."""
    h = 2.0 * np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b))
    np.add(h, np.swapaxes(h, -1, -2), out=out)
    out *= 0.5


def _arithmetic(out, a, b):
    """Write the arithmetic mean (a + b) / 2 of cell values into ``out``."""
    np.add(a, b, out=out)
    out *= 0.5


def faces_from_cells(grid, cells):
    """Face coefficients from cell diagonals (..., d) or matrices
    (..., d, d): the harmonic mean of the two cells of a face when every
    diagonal is positive or every matrix symmetric, on an axis where no
    inverse is singular, else the arithmetic mean; a boundary face of a
    non-periodic axis copies its cell.  Diagonal cells come out as
    diagonal faces (..., d), and multiples of the identity as one value
    per face (..., 1), the storage of ``CoefficientField``."""
    d = grid.dim
    if cells.ndim == d + 2 and not np.any(cells[..., ~np.eye(d, dtype=bool)]):
        cells = cells[..., np.arange(d), np.arange(d)]
    if cells.ndim == d + 1 and _isotropic(cells):
        cells = cells[..., :1]
    if cells.ndim == d + 1:
        mean = _diagonal_harmonic if np.all(cells > 0) else _arithmetic
    else:
        symmetric = np.array_equal(cells, np.swapaxes(cells, -1, -2))
        mean = _matrix_harmonic if symmetric else _arithmetic
    faces = []
    for k in range(d):
        m = grid.shape[k]
        at = lambda s: (slice(None),) * k + (s,)
        out = np.empty(grid.face_shape(k) + cells.shape[d:])
        # (face, low cell, high cell) slices: the interior, then the seam
        pairs = [(slice(1, m), slice(0, m - 1), slice(1, m))]
        if grid.periodic_axis(k):
            pairs.append((slice(0, 1), slice(m - 1, m), slice(0, 1)))
        else:
            out[at(0)], out[at(m)] = cells[at(0)], cells[at(m - 1)]
        try:
            for face, lo, hi in pairs:
                mean(out[at(face)], cells[at(lo)], cells[at(hi)])
        except np.linalg.LinAlgError:
            for face, lo, hi in pairs:
                _arithmetic(out[at(face)], cells[at(lo)], cells[at(hi)])
        faces.append(out)
    return faces


def sample_field(spec, grid):
    """Draw one realization of the ensemble on the grid and validate it.

    Deterministic in (spec, grid, seed); torus fields are exactly
    periodic, and half-box grids receive the restriction of the ambient
    torus realization with the same n and h.
    """
    if grid.topology == HALF_BOX:
        full = sample_field(spec, Grid.torus(grid.dim, grid.n, grid.h))
        return restrict_to_half_box(full, grid.height, grid.tangential_periodic)
    faces = faces_from_cells(grid, cell_values(spec, grid))
    out = CoefficientField(grid, faces, lam=spec.lam, seed=spec.seed)
    rep = validate_ellipticity(out)
    if not rep.ok:
        ax, idx, mat = rep.violations[0]
        raise EllipticityError(
            f"sampled field leaves the admissible class at axis {ax}, face {idx}: "
            f"rayleigh {rep.min_rayleigh:.6g}, gain {rep.max_gain:.6g}", matrix=mat, where=(ax, idx))
    return out


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass
class EllipticityReport:
    lam: float
    min_rayleigh: float
    max_gain: float
    violations: list  # (axis, index tuple, matrix), the first 10
    ok: bool


def validate_ellipticity(field):
    """Exact per-face check of the two admissibility inequalities, each to
    a slack of 1e-12.

    min_rayleigh is the smallest eigenvalue of any symmetric part,
    max_gain the largest operator norm |a xi| / |xi|.  Faces without an
    off-diagonal entry use the exact closed forms min(diag) and
    max(|diag|): on diagonal storage one min and one max per face array,
    and per-face values only to locate the violations of a failed bound.
    The other faces go through ``eigvalsh`` and ``svd``.
    """
    d = field.grid.dim
    lo, hi = field.lam - 1e-12, 1.0 + 1e-12
    off = ~np.eye(d, dtype=bool)
    ii = np.arange(d)
    min_r = np.inf
    max_g = 0.0
    violations = []
    for ax, f in enumerate(field.faces):
        if field.diagonal:
            flat = f.reshape(-1, f.shape[-1])
            f_min, f_max = float(flat.min()), float(flat.max())
            min_r, max_g = min(min_r, f_min), max(max_g, f_max, -f_min)
            if f_min >= lo and max(f_max, -f_min) <= hi:
                continue
            r = flat.min(axis=1)
            g = np.maximum(flat.max(axis=1), -r)  # max |diag|
        else:
            flat = f.reshape(-1, d, d)
            diag = flat[:, ii, ii]
            r = diag.min(axis=1)
            g = np.abs(diag).max(axis=1)
            full = np.nonzero(np.any(flat[:, off], axis=1))[0]
            if full.size:
                sub = flat[full]
                r[full] = np.linalg.eigvalsh(0.5 * (sub + np.swapaxes(sub, -1, -2)))[:, 0]
                g[full] = np.linalg.svd(sub, compute_uv=False)[:, 0]
            min_r = min(min_r, float(r.min()))
            max_g = max(max_g, float(g.max()))
        bad = np.nonzero((r < lo) | (g > hi))[0]
        for b in bad[: 10 - len(violations)]:
            idx = np.unravel_index(b, field.grid.face_shape(ax))
            violations.append((ax, idx, _diagonal_matrices(flat[b], d) if field.diagonal
                               else flat[b].copy()))
    ok = (min_r >= lo) and (max_g <= hi)
    return EllipticityReport(field.lam, float(min_r), float(max_g), violations, ok)


# ---------------------------------------------------------------------------
# restriction to the half-box
# ---------------------------------------------------------------------------


def index_maps(src_grid, dst_grid, offsets):
    """Per-axis indices of the ``src_grid`` home points (of the given
    offsets) that sit under the ``dst_grid`` home points; periodic source
    axes wrap."""
    maps = []
    for a in range(dst_grid.dim):
        x = dst_grid.points_along(a, offsets[a])
        i = np.rint((x - src_grid.origin[a]) / src_grid.h - offsets[a]).astype(int)
        if src_grid.periodic_axis(a):
            i %= src_grid.shape[a]
        maps.append(i)
    return maps


def restrict_values(values, src_grid, dst_grid, offsets):
    """A ``src_grid`` home-point array at the matching ``dst_grid`` home
    points; trailing axes (per-point diagonals or matrices) are kept."""
    return np.asarray(values)[np.ix_(*index_maps(src_grid, dst_grid, offsets))]


def half_box_grid(grid, L, tangential_periodic=True):
    """The grid of the half-box of height L cut from the torus ``grid``."""
    if grid.topology != TORUS:
        raise ValueError("restriction starts from a torus field")
    if 2.0 * L > grid.side + 1e-12:
        raise ValueError(f"2L = {2*L} exceeds the torus side {grid.side}")
    if tangential_periodic and abs(2.0 * L - grid.side) > 1e-12:
        raise ValueError(
            "a tangentially periodic slab must span the full torus width "
            "(2L = side); use tangential_periodic=False for a narrower box"
        )
    n_half = 2.0 * L / grid.h
    if abs(n_half - round(n_half)) > 1e-12:
        raise ValueError("flat boundary must lie in a grid plane (L/h integral)")
    return Grid.half_box(grid.dim, int(round(n_half)), grid.h, tangential_periodic)


def restrict_to_half_box(field, L, tangential_periodic=True):
    """Restrict a torus coefficient field to the half-box of height L.

    Face coefficients are copied from the torus field by index arithmetic
    on the leading (spatial) axes, so they agree exactly at corresponding
    locations.  The copy keeps the torus field's storage, one value per
    face included; a restriction that keeps only multiples of the identity
    of an anisotropic diagonal field stores one value per face, as any
    field of those numbers does.
    """
    grid = field.grid
    half = half_box_grid(grid, L, tangential_periodic)
    faces = [restrict_values(field.faces[k], grid, half, face_offsets(grid.dim, k))
             for k in range(grid.dim)]
    return CoefficientField(half, faces, lam=field.lam, seed=field.seed)


# ---------------------------------------------------------------------------
# persistence: one archive format for field files and half-space bundles
# ---------------------------------------------------------------------------


def _topology_token(grid):
    if grid.topology == TORUS:
        return "torus"
    return "half_slab" if grid.tangential_periodic else "half_box"


def _grid_from_token(dim, n, h, token):
    if token == "torus":
        return Grid.torus(dim, n, h)
    if token == "half_slab":
        return Grid.half_box(dim, n, h, tangential_periodic=True)
    if token == "half_box":
        return Grid.half_box(dim, n, h, tangential_periodic=False)
    raise FieldFileError(f"unknown topology token {token!r}")


def write_atomic(path, write, mode="w"):
    """Call ``write(fh)`` on a temporary file next to ``path``, then move
    it over ``path`` with ``os.replace``: the final name holds the old
    file or the whole new one, never a partial write."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "\n") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_arrays(path, meta, arrays):
    """Write the JSON object ``meta`` and the named ``arrays`` as the .npy
    entries of an uncompressed zip (the npz layout) through ``write_atomic``;
    each entry is dated 1980-01-01, so equal contents give equal bytes."""
    def write(fh):
        with zipfile.ZipFile(fh, "w") as archive:
            for name, a in {META: np.array(json.dumps(meta, sort_keys=True)), **arrays}.items():
                with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as entry:
                    np.lib.format.write_array(entry, a, allow_pickle=False)

    write_atomic(path, write, "wb")


def read_arrays(path):
    """The ``(meta, arrays)`` of a ``write_arrays`` archive; FieldFileError
    on any other file."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        return json.loads(str(arrays.pop(META))), arrays
    except (KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile) as e:
        raise FieldFileError(f"{path} is not a homlab archive ({type(e).__name__}: {e}); a field "
                             "file of the retired HOMLAB-FIELD-v1 format is made again, bit for "
                             "bit, by `homlab field sample` from its spec") from e


def save_field(field, path):
    """Write ``field`` as stored: the entries ``faces_k``, the meta ``dim n
    h topology lam seed``."""
    g = field.grid
    meta = {"dim": g.dim, "n": g.n, "h": float(g.h), "topology": _topology_token(g),
            "lam": float(field.lam), "seed": int(field.seed)}
    write_arrays(path, meta, {f"faces_{k}": f for k, f in enumerate(field.faces)})


def load_field(path):
    """The field of a ``save_field`` file; FieldFileError on any other."""
    meta, arrays = read_arrays(path)
    try:
        grid = _grid_from_token(int(meta["dim"]), int(meta["n"]), float(meta["h"]),
                                meta["topology"])
        return CoefficientField(grid, [arrays[f"faces_{k}"] for k in range(grid.dim)],
                                lam=float(meta["lam"]), seed=int(meta["seed"]))
    except (KeyError, TypeError, ValueError) as e:
        raise FieldFileError(f"{path}: {type(e).__name__}: {e}") from e
