"""Command-line orchestration: `homlab` with subcommands

    field sample | field check | corrector | halfspace | excess |
    pipeline | report

All physical parameters are dimensionless in unit-cell units; curves are
exchanged as CSV, fields and half-space bundles as ``field.write_arrays``
archives (a bundle holds the tangential phi_h and names its field by
``field_sha256``; ``excess --hs`` refuses it with any other field), and a
pipeline run is reproducible byte-for-byte from its config (fixed seeds,
fixed reduction order).

`validate_config` is the one place that knows the config keys and
defaults; the stages and the cache key read the config it fills.  A
pipeline run is its config (the manifest holds it) and its outputs
(`run_outputs`: per-seed CSVs, the corrector and half-space records and
the excess table), each number in one file; `build_report` is their one
reader, computes every aggregate and refuses a run that lacks an output.
`pipeline` runs seed by seed: `run_seed` runs the three stages of one
seed, whose field, pair and half-space set go when it returns,
`threads > 1` runs whole seeds in a pool, and the stage files are
written once every seed is done (the manifest's stage seconds are sums
over the seeds).  The subcommands map their flags onto config keys (the
grid comes from the field file), pass the checks of the stages they run,
so a bad flag exits 2 before any solve, and run the stages' per-seed
code:

    --tol                    tol
    corrector --radii lo:hi  radii = dyadic_radii(grid, lo, min(hi, side/2))
    halfspace --mode         halfspace.mode (halfspace.L is side/2)
    halfspace --r0 --n-max   halfspace.dyadic.r0, halfspace.dyadic.n_max
    excess --R               excess.R, excess.radii = dyadic_radii(grid, r_max=R)

Exit codes: 0 success, 2 config error, 3 solver failure, 4 invariant
violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import numbers
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .grid import Grid, is_dyadic
from .field import (
    EllipticityError,
    EnsembleSpec,
    FieldFileError,
    _grid_from_token,
    ensemble_params,
    load_field,
    read_arrays,
    restrict_to_half_box,
    sample_field,
    save_field,
    validate_ellipticity,
    write_arrays,
    write_atomic,
)
from .pde import ScalarField, SolverError
from .corrector import (
    HomogenizedMatrix,
    dyadic_radii,
    solve_pair,
    sublinearity_curve,
)
from .halfspace import (
    DyadicConfig,
    HalfSpaceCorrectorSet,
    TangentialBasis,
    build_halfspace_set,
    dyadic_construction,
    half_box_operator,
    half_sublinearity_curve,
    halfspace_residuals,
)
from .excess import (
    band_limited_trace,
    excess_decay_experiment,
    harmonic_sample,
    mean_value_check,
)


class ConfigError(ValueError):
    pass


class CsvError(ValueError):
    pass


EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4


def fmt(x):
    """Deterministic float formatting for byte-stable CSV output."""
    return f"{float(x):.17g}"


def write_json(path, obj):
    write_atomic(path, lambda fh: fh.write(json.dumps(obj, indent=1, sort_keys=True)))


def write_csv(path, header, rows):
    def write(fh):
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")

    write_atomic(path, write)


def read_csv(path):
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as e:
        raise CsvError(f"{path}: {e}") from e
    if not lines:
        raise CsvError(f"{path}:1: empty file")
    header = lines[0].split(",")
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(header):
            raise CsvError(f"{path}:{ln}: expected {len(header)} columns, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as e:
            raise CsvError(f"{path}:{ln}: {e}") from e
    return header, rows


# ---------------------------------------------------------------------------
# experiment config
# ---------------------------------------------------------------------------

DEFAULT_CONFIG = {"tol": 1e-12, "threads": 1}
# the keys some stage reads, by block; validate_config refuses any other
CONFIG_KEYS = {
    "": {"ensemble", "grid", "seeds", "radii", "halfspace", "excess", "tol", "threads"},
    "ensemble": {"kind", "lam", "params"},  # the seed is each run's, from seeds
    "grid": {"dim", "n", "h"},
    "halfspace": {"L", "mode", "dyadic"},
    "halfspace.dyadic": {"r0", "n_max"},
    "excess": {"R", "radii"},
}


def read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from e


def ensemble_spec(raw):
    """The spec of an ensemble block, its kind's parameters filled in."""
    try:
        spec = EnsembleSpec.from_dict(raw)
        spec.params = ensemble_params(spec)
    except Exception as e:
        raise ConfigError(f"bad ensemble spec: {e}") from e
    if spec.seed < 0:
        raise ConfigError(f"ensemble seed {spec.seed} is negative")
    return spec


def load_config(path):
    return validate_config(read_json(path))


def validate_config(raw):
    """The config ``raw`` with every default filled in (``tol``, ``threads``,
    ``grid.h``, ensemble ``params``, the keys of the stage checks below), or
    ``ConfigError`` if some stage could not run it.  A filled config passes unchanged."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    check_keys(raw)
    cfg = {**DEFAULT_CONFIG, **raw}
    for key in ("ensemble", "grid", "seeds"):
        if key not in cfg:
            raise ConfigError(f"config misses required key {key!r}")
    g = cfg["grid"]
    for key in ("dim", "n"):
        if key not in g:
            raise ConfigError(f"grid config misses {key!r}")
    seeds = cfg["seeds"]
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise ConfigError(f"seeds must be a non-empty list of seeds, got {seeds!r}")
    cfg["seeds"] = [integer(s, "seed") for s in seeds]
    if min(cfg["seeds"]) < 0 or len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds {seeds} must be distinct and non-negative")
    cfg["ensemble"] = {**cfg["ensemble"], "params": ensemble_spec(cfg["ensemble"]).params}
    try:
        cfg["grid"] = {**g, "dim": integer(g["dim"], "grid.dim"), "n": integer(g["n"], "grid.n"),
                       "h": float(g.get("h", 1.0))}
        cfg["tol"], cfg["threads"] = float(cfg["tol"]), integer(cfg["threads"], "threads")
        check_tol(cfg)
        if cfg["threads"] < 1:
            raise ConfigError(f"threads {cfg['threads']} is below 1")
        grid = _grid_from_config(cfg)
        for check in (check_corrector, check_halfspace, check_excess):
            check(cfg, grid)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad config value: {e}") from e
    return cfg


def integer(value, name):
    """``value`` if it is an integer and no bool, else ConfigError: a config never truncates."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} {value!r} is not an integer")
    return int(value)


def check_keys(raw):
    """Refuse a key that no stage reads: one outside its block's
    ``CONFIG_KEYS``, or a ``halfspace.dyadic`` block in direct mode."""
    for block, keys in CONFIG_KEYS.items():
        values = raw
        for name in filter(None, block.split(".")):
            values = values.get(name, {})
        if not isinstance(values, dict):
            raise ConfigError(f"config block {block} must be a JSON object")
        unread = sorted(set(values) - keys)
        if unread:
            raise ConfigError(f"no stage reads the config keys {unread} of {block or 'the top level'}")
    if "dyadic" in raw.get("halfspace", {}) and raw["halfspace"].get("mode") != "dyadic":
        raise ConfigError("halfspace.dyadic is read only in dyadic mode")


def check_tol(cfg):
    """Every solve takes ``tol``, which must lie in (0, 1)."""
    if not 0.0 < cfg["tol"] < 1.0:
        raise ConfigError(f"tol {cfg['tol']} is not in (0, 1)")


def check_corrector(cfg, grid):
    """Fill ``radii`` (default min(8h, side/4)..side/4) and check that it is a
    non-empty, strictly increasing list of powers of two times h up to the half-side."""
    radii, quarter = cfg.get("radii"), grid.side / 4.0
    if radii is None:
        radii = dyadic_radii(grid, r_min=min(8.0 * grid.h, quarter), r_max=quarter)
    cfg["radii"] = [float(r) for r in radii]
    for r in cfg["radii"]:
        if not is_dyadic(r / grid.h):
            raise ConfigError(f"radius {r:g} is not a positive power of two times h = {grid.h:g}")
        if r > grid.side / 2.0 + 1e-12:
            raise ConfigError(f"radius {r:g} exceeds the torus half-side {grid.side / 2.0:g}")
    if not cfg["radii"]:
        raise ConfigError("no corrector radius; radii is empty")
    if np.any(np.diff(cfg["radii"]) <= 0):
        raise ConfigError(f"radii {cfg['radii']} do not increase strictly")


def check_halfspace(cfg, grid):
    """Fill ``halfspace``: L (side/2), mode (direct) and, in dyadic mode,
    dyadic.r0 (8) and dyadic.n_max (2); check the slab height and the
    annuli, whose r0 is a power of two and h times one."""
    hs = cfg["halfspace"] = {"L": grid.side / 2.0, "mode": "direct", **cfg.get("halfspace", {})}
    if hs["mode"] not in ("direct", "dyadic"):
        raise ConfigError("halfspace mode must be direct or dyadic")
    # the half-space stage builds a tangentially periodic slab, 2L = side
    L = hs["L"] = float(hs["L"])
    if abs(2.0 * L - grid.side) > 1e-12:
        raise ConfigError(f"halfspace L {L:g} is not side/2 = {grid.side / 2.0:g}")
    if hs["mode"] == "dyadic":
        dy = hs["dyadic"] = {"r0": 8.0, "n_max": 2, **hs.get("dyadic", {})}
        r0 = dy["r0"] = float(dy["r0"])
        n_max = dy["n_max"] = integer(dy["n_max"], "halfspace.dyadic.n_max")
        if not (is_dyadic(r0) and is_dyadic(r0 / grid.h)):
            raise ConfigError(f"dyadic r0 {r0:g} is not a power of two and h = {grid.h:g} times one")
        if n_max < -1:
            raise ConfigError(f"dyadic n_max {n_max} leaves no annulus; the least is -1")
        if r0 * 2.0 ** (n_max + 1) > 2.0 * L + 1e-9:
            raise ConfigError(f"outer annulus r0 2^(n_max+1) exceeds 2L = {2.0 * L:g}")


def check_excess(cfg, grid):
    """Fill ``excess``: R (side/4) and radii (the corrector radii up to R);
    check the window and that the radii increase strictly in [4h, R]."""
    ex = cfg["excess"] = {"R": grid.side / 4.0, **cfg.get("excess", {})}
    R = ex["R"] = float(ex["R"])
    radii = ex["radii"] if "radii" in ex else [r for r in cfg["radii"] if r <= R]
    ex["radii"] = [float(r) for r in radii]
    if 2.0 * R > grid.side + 1e-12:
        raise ConfigError(f"excess window 2R = {2.0 * R:g} exceeds the torus side {grid.side:g}")
    # the window is a half-box of 2R/h cells a side, which must be even and at least 4
    if abs(R / grid.h - round(R / grid.h)) > 1e-12 or R < 2.0 * grid.h:
        raise ConfigError(f"excess window height R = {R:g} is not a whole number >= 2 of cells")
    if not ex["radii"] or min(ex["radii"]) < 4 * grid.h:
        raise ConfigError(f"excess radii {ex['radii']} empty or below the quadrature floor 4h")
    if max(ex["radii"]) > R + 1e-12:
        raise ConfigError(f"excess radius {max(ex['radii']):g} exceeds the window R = {R:g}")
    if np.any(np.diff(ex["radii"]) <= 0):
        raise ConfigError(f"excess radii {ex['radii']} do not increase strictly")


def hashed_config(cfg):
    """The filled config ``cfg`` without ``threads``, which changes how seeds
    are scheduled but not what is computed (``check_keys`` lets in no key
    that changes nothing)."""
    return {k: v for k, v in cfg.items() if k != "threads"}


def config_hash(cfg):
    """Cache key of a filled config and the homlab version."""
    blob = json.dumps({"config": hashed_config(cfg), "version": __version__},
                      sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def field_sha256(field):
    """SHA-256 of a field's faces as stored: dtype, shape and bytes."""
    digest = hashlib.sha256()
    for f in field.faces:
        digest.update(f"{f.dtype.str}{f.shape}".encode())
        digest.update(f)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# stage runners
# ---------------------------------------------------------------------------


def _grid_from_config(cfg):
    g = cfg["grid"]
    return Grid.torus(g["dim"], g["n"], g["h"])


CORRECTOR_HEADER = ["r", "delta", "delta_gno", "partial_sum_m"]
HALFSPACE_HEADER = ["r", "delta_h", "delta_h_halfball"]
DYADIC_HEADER = ["n", "l_n", "energy", "bound_shape"]
RESIDUALS = ("flat_flux_relative", "interior_relative", "sigma_identity")


def corrector_rows(curve):
    return [[float(r), float(d), float(dg), float(ps)]
            for r, d, dg, ps in zip(curve.radii, curve.delta, curve.delta_gno, curve.partial_sums)]


def halfspace_seed(cfg, f, pair, curve):
    """The half-space stage for one torus field ``f``: the set, its curve
    rows (HALFSPACE_HEADER), its summary entry (each residual and the
    Liouville gap at their largest over the tangential directions) and,
    in dyadic mode, the rows (DYADIC_HEADER, else None) of the dyadic
    construction for the first tangential direction, with cutoff heights
    from the whole-space ``curve`` at the annulus radii."""
    hs, tol = cfg["halfspace"], cfg["tol"]
    op = half_box_operator(restrict_to_half_box(f, hs["L"]))
    hset = build_halfspace_set(op, pair, L=hs["L"], tol=tol)
    hcurve = half_sublinearity_curve(hset, [r for r in cfg["radii"] if r <= hs["L"] / 2.0])
    rows = [[float(r), float(d), float(dh)]
            for r, d, dh in zip(hcurve.radii, hcurve.delta_h, hcurve.delta_h_halfball)]
    residuals = [halfspace_residuals(op, hset, i) for i in range(f.grid.dim - 1)]
    entry = {key: max(getattr(res, key) for res in residuals) for key in RESIDUALS}
    entry["liouville_gap"] = max(hset.liouville_gap.values())
    dy_rows = None
    if hs["mode"] == "dyadic":
        config = DyadicConfig.from_curve(curve, hs["dyadic"]["r0"], hs["dyadic"]["n_max"])
        dy = dyadic_construction(op, f, pair, hset.basis.vectors[0], config, tol=tol,
                                 direct=hset.varphi[0])
        dy_rows = [[int(n), float(config.heights[n + 1]), float(dy.energies[(n, config.r0)]),
                    float(dy.bound_shape[(n, config.r0)])] for n in config.annuli()]
        entry["dyadic_consistency_r0"] = dy.consistency_r0
        entry["dyadic_empirical_constant"] = dy.empirical_constant
    return hset, rows, entry, dy_rows


def excess_header(dim):
    return ["seed", "r", "excess"] + [f"b{k+1}" for k in range(dim)] + [
        "ratio", "fitted_alpha", "mvp_ratio"]


def excess_rows(cfg, f, hset, seeds):
    """Excess table rows (``excess_header``) of one harmonic sample per
    trace seed in ``seeds`` on the window ``excess.R`` of the torus field
    f (the samples share its window operator), measured against the
    half-space set hset of f."""
    ex = cfg["excess"]
    rows = []
    for seed in seeds:
        trace = band_limited_trace(seed, ex["R"], dim=f.grid.dim)
        sample = harmonic_sample(f, ex["R"], trace, tol=min(cfg["tol"] * 1e2, 1e-10))
        rep = excess_decay_experiment(sample, hset, ex["radii"])
        mvp = mean_value_check(sample, ex["radii"])
        for i, r in enumerate(rep.radii):
            ratio = rep.pair_ratios.get(float(r), float("nan"))
            rows.append([int(seed), float(r), float(rep.excess[i]),
                         *[float(c) for c in rep.minimizers[i]],
                         float(ratio), float(rep.fitted_alpha), float(mvp.ratios[i])])
    return rows


STAGES = ("corrector", "halfspace", "excess")
RECORDS = ("corrector", "halfspace")  # the excess table holds the excess stage's values
SEED_CSVS = {"corrector": CORRECTOR_HEADER, "halfspace": HALFSPACE_HEADER,
             "halfspace_dyadic": DYADIC_HEADER}


def run_outputs(cfg, tag):
    """The names of the files a pipeline run of the filled config ``cfg``
    writes under ``tag`` besides its manifest and report: the per-seed CSVs,
    the summaries of ``RECORDS`` and the excess table.  The cache check and
    ``build_report`` read this list."""
    kinds = [k for k in SEED_CSVS if k != "halfspace_dyadic" or cfg["halfspace"]["mode"] == "dyadic"]
    return ([f"{kind}__{tag}__seed{s}.csv" for kind in kinds for s in cfg["seeds"]]
            + [f"{name}__{tag}__summary.json" for name in RECORDS] + [f"excess__{tag}.csv"])


def run_seed(cfg, seed):
    """The three stages for one seed of the filled config ``cfg``: the rows
    of its per-seed CSVs by kind (``SEED_CSVS``) and of the excess table,
    its record per stage of ``RECORDS`` and each stage's seconds.  The
    seed's field, pair, set, window operator and gradient family go when
    it returns."""
    clock = [time.perf_counter()]
    f = sample_field(replace(EnsembleSpec.from_dict(cfg["ensemble"]), seed=seed),
                     _grid_from_config(cfg))
    pair = solve_pair(f, tol=cfg["tol"])
    curve = sublinearity_curve(pair, cfg["radii"])
    csvs = {"corrector": corrector_rows(curve)}
    records = {"corrector": {"seed": seed, "a_hom": pair.a_hom.tolist()}}
    clock.append(time.perf_counter())
    hset, csvs["halfspace"], entry, dy_rows = halfspace_seed(cfg, f, pair, curve)
    if dy_rows is not None:
        csvs["halfspace_dyadic"] = dy_rows
    records["halfspace"] = {"seed": seed, **entry}
    clock.append(time.perf_counter())
    # one trace per field, seeded like the field
    rows = excess_rows(cfg, f, hset, [seed])
    clock.append(time.perf_counter())
    return csvs, rows, records, {name: b - a for name, a, b in zip(STAGES, clock, clock[1:])}


def write_stage_files(cfg, out_dir, tag, results):
    """The stage files of the ``run_seed`` results, in the order of
    ``cfg["seeds"]``; a stage's summary is the list of its records."""
    for seed, (csvs, _, _, _) in zip(cfg["seeds"], results):
        for kind, rows in csvs.items():
            write_csv(out_dir / f"{kind}__{tag}__seed{seed}.csv", SEED_CSVS[kind], rows)
    write_csv(out_dir / f"excess__{tag}.csv", excess_header(cfg["grid"]["dim"]),
              [row for _, rows, _, _ in results for row in rows])
    for name in RECORDS:
        write_json(out_dir / f"{name}__{tag}__summary.json", [r[name] for _, _, r, _ in results])


def run_pipeline(cfg, out_dir):
    """Run the stages of the filled config ``cfg`` into ``out_dir`` seed by
    seed (``run_seed``), unless every output of this config hash is there
    already, and write the stage files once every seed is done; returns the
    manifest, whose stage seconds are sums over the seeds."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = config_hash(cfg)
    manifest = {"config_hash": tag, "config": hashed_config(cfg), "version": __version__,
                "stages": {}}
    manifest_path = out_dir / f"manifest__{tag}.json"
    try:
        if all((out_dir / name).exists() for name in run_outputs(cfg, tag)):
            manifest["stages"] = {name: {"cached": True} for name in STAGES}
        else:
            if cfg["threads"] > 1:
                with ThreadPoolExecutor(max_workers=cfg["threads"]) as pool:
                    results = list(pool.map(lambda seed: run_seed(cfg, seed), cfg["seeds"]))
            else:  # no one-worker pool: a new thread's own malloc arena costs 16 MB at 3d n=64
                results = [run_seed(cfg, seed) for seed in cfg["seeds"]]
            write_stage_files(cfg, out_dir, tag, results)
            manifest["stages"] = {name: {"cached": False,
                                         "seconds": round(sum(s[name] for *_, s in results), 3)}
                                  for name in STAGES}
    except Exception as e:
        manifest["failed"] = f"{type(e).__name__}: {e}"
        write_json(manifest_path, manifest)
        raise
    write_json(manifest_path, manifest)
    build_report(cfg, out_dir, tag)
    return manifest


def reduce_finite(reduce, values):
    """``reduce`` of the finite values, or None (null, as NaN is no JSON) if none is."""
    kept = [v for v in values if np.isfinite(v)]
    return float(reduce(kept)) if kept else None


def build_report(cfg, out_dir, tag):
    """The report of the run of the filled config ``cfg`` under ``tag`` in
    ``out_dir``: every aggregate over the seeds, computed from the
    ``run_outputs``, never solved again.  ConfigError, naming the remedy, if
    one of them is missing."""
    out_dir = Path(out_dir)
    for name in run_outputs(cfg, tag):
        if not (out_dir / name).exists():
            raise ConfigError(f"{out_dir / name} is missing; rerun `homlab pipeline` on the "
                              "run's config, which writes its outputs again")
    est = HomogenizedMatrix.from_samples(
        [e["a_hom"] for e in read_json(out_dir / f"corrector__{tag}__summary.json")])
    curves = {}
    for seed in cfg["seeds"]:
        _, rows = read_csv(out_dir / f"corrector__{tag}__seed{seed}.csv")
        curves[str(seed)] = {"radii": [r[0] for r in rows], "delta": [r[1] for r in rows]}
    # one radius has no decay, and a seed with a delta <= 0 no log-log slope
    decaying = list(curves.values()) if len(cfg["radii"]) >= 2 else []
    ratios = [c["delta"][-1] / c["delta"][0] for c in decaying if c["delta"][0] > 0]
    exps = [float(-np.polyfit(np.log(c["radii"]), np.log(c["delta"]), 1)[0])
            for c in decaying if all(d > 0 for d in c["delta"])]
    halfspace = read_json(out_dir / f"halfspace__{tag}__summary.json")
    header, rows = read_csv(out_dir / f"excess__{tag}.csv")
    alpha, mvp = header.index("fitted_alpha"), header.index("mvp_ratio")
    # a seed's rows (seed first) share its exponent; its mean-value constant is their largest ratio
    alphas = {row[0]: row[alpha] for row in rows}
    report = {"config_hash": tag, "version": __version__, "a_hom_mean": est.matrix.tolist(),
              "a_hom_stderr": None if est.stderr is None else est.stderr.tolist(),
              "delta_curves": curves, "delta_decay_ratio_mean": reduce_finite(np.mean, ratios),
              "delta_fit_exponent_mean": reduce_finite(np.mean, exps),
              "halfspace_residuals": halfspace,
              "residual_summary": {f"{k}_max": max(e[k] for e in halfspace) for k in RESIDUALS},
              "excess": {"alpha_mean": reduce_finite(np.mean, list(alphas.values())),
                         "c_mean_max": reduce_finite(np.max, [row[mvp] for row in rows])}}
    path = out_dir / f"report__{tag}.json"
    write_json(path, report)
    return path


# ---------------------------------------------------------------------------
# half-space bundle (hs.npz, a ``write_arrays`` archive like a field file)
# ---------------------------------------------------------------------------


def load_halfspace_bundle(path, field):
    """The half-space view the excess diagnostics read, from the bundle at
    ``path`` of ``field``: grid, basis, a_hom and the tangential phi_h (no
    pair, q_h, sigma_h or varphi).  FieldFileError on a file that is no
    bundle (``read_arrays``), lacks an entry or meta key, holds an array of
    the wrong shape, or names no field or another one (``field_sha256``)."""
    meta, arrays = read_arrays(path)
    try:
        grid = Grid.half_box(int(meta["dim"]), int(meta["n"]), float(meta["h"]),
                             tangential_periodic=bool(meta["tangential_periodic"]))
        d = grid.dim
        basis = TangentialBasis(np.array(meta["basis"], float), np.array(meta["a_hom"], float))
        if basis.vectors.shape != (d, d) or basis.a_hom.shape != (d, d):
            raise ValueError(f"basis and a_hom are not {d}x{d} on a {d}d grid")
        phi_h = {i: ScalarField(grid, arrays[f"phi_h_{i}"]) for i in range(d - 1)}
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise FieldFileError(f"{path}: {type(e).__name__}: {e}") from e
    digest, g = meta.get("field_sha256"), field.grid
    if digest != field_sha256(field) or grid != Grid.half_box(g.dim, g.n, g.h):
        raise FieldFileError(f"{path} is not a bundle of this field ({grid}, field_sha256 "
                             f"{digest or 'missing'}); run `homlab halfspace` on the field again")
    return HalfSpaceCorrectorSet(grid, basis, None, phi_h, {}, {}, {}, {})


def save_halfspace_bundle(path, hset):
    """Write what ``load_halfspace_bundle`` reads: the tangential ``phi_h_i``
    and the meta ``dim n h tangential_periodic a_hom basis field_sha256``."""
    g = hset.grid
    meta = {"dim": g.dim, "n": g.n, "h": g.h, "tangential_periodic": g.tangential_periodic,
            "a_hom": hset.basis.a_hom.tolist(), "basis": hset.basis.vectors.tolist(),
            "field_sha256": field_sha256(hset.torus_pair.cset.field)}
    write_arrays(path, meta, {f"phi_h_{i}": hset.phi_h[i].values for i in range(g.dim - 1)})


# ---------------------------------------------------------------------------
# subcommand mains
# ---------------------------------------------------------------------------


def _given(keys):
    """``keys`` without the flags not given (None) or blocks left empty."""
    given = {k: _given(v) if isinstance(v, dict) else v for k, v in keys.items()}
    return {k: v for k, v in given.items() if v is not None and v != {}}


def _flag_config(grid, checks, **keys):
    """The config of a subcommand's flags ``keys``: filled in and checked,
    before any solve, by ``check_keys`` and the checks of the stages it
    runs."""
    cfg = {**DEFAULT_CONFIG, **_given(keys)}
    check_keys(cfg)
    check_tol(cfg)
    for check in checks:
        check(cfg, grid)
    return cfg


def cmd_field_sample(args):
    spec_raw = read_json(args.spec)
    spec = ensemble_spec(spec_raw)
    keys = CONFIG_KEYS["ensemble"] | {"seed", "grid"}
    if not set(spec_raw) <= keys:
        raise ConfigError(f"{args.spec}: spec keys {sorted(spec_raw)}; a spec takes {sorted(keys)}")
    g = {"dim": 2, "n": 64, "h": 1.0, "topology": "torus", **spec_raw.get("grid", {})}
    if set(g) != {"dim", "n", "h", "topology"}:
        raise ConfigError(f"{args.spec}: grid keys {sorted(g)}; a grid takes dim, n, h, topology")
    try:
        grid = _grid_from_token(integer(g["dim"], "grid.dim"), integer(g["n"], "grid.n"),
                                float(g["h"]), g["topology"])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad grid in {args.spec}: {e}") from e
    save_field(sample_field(spec, grid), args.out)
    print(f"wrote {args.out} (dim={grid.dim}, n={grid.n}, topology={g['topology']})")
    return 0


def cmd_field_check(args):
    f = load_field(args.field)
    rep = validate_ellipticity(f)
    print(f"min_rayleigh={rep.min_rayleigh:.12g} max_gain={rep.max_gain:.12g} "
          f"lambda={rep.lam} ok={rep.ok}")
    for ax, idx, mat in rep.violations:
        print(f"violation axis={ax} face={idx}: {mat.tolist()}")
    return 0 if rep.ok else EXIT_INVARIANT


def _parse_directions(text, dim):
    """The rows of the identity basis that ``text`` (e.g. e1,e2) names."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not (token[:1] == "e" and token[1:].isdigit() and 1 <= int(token[1:]) <= dim):
            raise ConfigError(f"direction token {token!r}; use e1..e{dim}")
        out.append(int(token[1:]) - 1)
    return np.eye(dim)[out]


def cmd_corrector(args):
    f = load_field(args.field)
    grid, radii = f.grid, None
    basis = None if args.directions is None else _parse_directions(args.directions, grid.dim)
    if args.radii is not None:
        try:
            lo, hi = (float(x) for x in args.radii.split(":"))
        except ValueError as e:
            raise ConfigError(f"--radii {args.radii!r} is not lo:hi") from e
        radii = dyadic_radii(grid, r_min=lo, r_max=min(hi, grid.side / 2.0))
        if not radii:
            raise ConfigError(f"--radii {args.radii} holds no corrector radius lo 2^k: lo must "
                              f"be positive and at most min(hi, side/2 = {grid.side / 2.0:g})")
    cfg = _flag_config(grid, (check_corrector,), tol=args.tol, radii=radii)
    pair = solve_pair(f, tol=cfg["tol"])
    curve = sublinearity_curve(pair, cfg["radii"], basis=basis)
    write_csv(args.out, CORRECTOR_HEADER, corrector_rows(curve))
    print(f"wrote {args.out}; a_hom = {pair.a_hom.tolist()}")
    return 0


def cmd_halfspace(args):
    f = load_field(args.field)
    cfg = _flag_config(f.grid, (check_corrector, check_halfspace), tol=args.tol,
                       halfspace={"mode": args.mode,
                                  "dyadic": {"r0": args.r0, "n_max": args.n_max}})
    pair = solve_pair(f, tol=cfg["tol"])
    hset, rows, entry, dy_rows = halfspace_seed(cfg, f, pair,
                                                sublinearity_curve(pair, cfg["radii"]))
    out_bin, out_csv = (args.out.split(",") + [None])[:2]
    if out_csv:
        write_csv(out_csv, HALFSPACE_HEADER, rows)
        if dy_rows is not None:
            write_csv(Path(out_csv).with_suffix(".dyadic.csv"), DYADIC_HEADER, dy_rows)
    save_halfspace_bundle(out_bin, hset)
    print(f"wrote {out_bin}" + (f" and {out_csv}" if out_csv else ""))
    print(json.dumps(entry, sort_keys=True))
    return 0


def cmd_excess(args):
    if args.seeds < 1:
        raise ConfigError(f"--seeds {args.seeds} runs no trace; the least is 1")
    f = load_field(args.field)
    radii = dyadic_radii(f.grid, r_max=args.R)
    if not radii:
        raise ConfigError(f"--R {args.R:g} holds no excess radius 8h 2^k <= R: R must be at "
                          f"least 8h = {8.0 * f.grid.h:g}")
    cfg = _flag_config(f.grid, (check_halfspace, check_excess), tol=args.tol,
                       excess={"R": args.R, "radii": radii})
    if args.hs:
        hset = load_halfspace_bundle(args.hs, f)
    else:
        hset = build_halfspace_set(f, solve_pair(f, tol=cfg["tol"]), L=cfg["halfspace"]["L"],
                                   tol=cfg["tol"])
    rows = excess_rows(cfg, f, hset, range(args.seeds))
    write_csv(args.out, excess_header(f.grid.dim), rows)
    print(f"wrote {args.out}")
    return 0


def cmd_pipeline(args):
    cfg = load_config(args.config)
    if args.threads is not None:  # not hashed: it schedules the seeds
        cfg = validate_config({**cfg, "threads": args.threads})
    manifest = run_pipeline(cfg, args.out_dir)
    print(json.dumps(manifest, indent=1, sort_keys=True))
    return 0


def cmd_report(args):
    """Report the run of ``--config``'s tag, else the newest, by its manifest's config."""
    out_dir = Path(args.out_dir)
    if args.config:
        path = out_dir / f"manifest__{config_hash(load_config(args.config))}.json"
        if not path.exists():
            raise ConfigError(f"no manifest {path.name} of {args.config} in {out_dir}")
    else:
        manifests = list(out_dir.glob("manifest__*.json"))
        if not manifests:
            raise ConfigError(f"no manifest in {out_dir}")
        path = max(manifests, key=lambda p: p.stat().st_mtime_ns)
    tag, manifest = path.stem.partition("__")[2], read_json(path)
    cfg = manifest.get("config") if isinstance(manifest, dict) else None
    if not isinstance(cfg, dict) or config_hash(cfg) != tag:
        raise ConfigError(f"{path} holds no config of hash {tag} at homlab {__version__}; "
                          "rerun `homlab pipeline` on its config, which reads the outputs "
                          "from cache and rewrites the manifest")
    print(f"wrote {build_report(cfg, out_dir, tag)}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="homlab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pf = sub.add_parser("field", help="sample and validate coefficient fields")
    fsub = pf.add_subparsers(dest="subcommand", required=True)
    ps = fsub.add_parser("sample")
    ps.add_argument("--spec", required=True)
    ps.add_argument("--out", required=True)
    ps.set_defaults(fn=cmd_field_sample)
    pc = fsub.add_parser("check")
    pc.add_argument("--field", required=True)
    pc.set_defaults(fn=cmd_field_check)

    pco = sub.add_parser("corrector", help="whole-space correctors and sublinearity curve")
    pco.add_argument("--field", required=True)
    pco.add_argument("--directions", help="e.g. e1,e2 (default: all)")
    pco.add_argument("--radii", help="lo:hi, config radii")
    pco.add_argument("--out", required=True)
    pco.add_argument("--tol", type=float)
    pco.set_defaults(fn=cmd_corrector)

    ph = sub.add_parser("halfspace", help="half-space-adapted corrector construction")
    ph.add_argument("--field", required=True)
    ph.add_argument("--mode", choices=("direct", "dyadic"))
    ph.add_argument("--r0", type=float)
    ph.add_argument("--n-max", type=int)
    ph.add_argument("--out", required=True, help="hs.npz or hs.npz,hs.csv")
    ph.add_argument("--tol", type=float)
    ph.set_defaults(fn=cmd_halfspace)

    pe = sub.add_parser("excess", help="tilt-excess decay experiments")
    pe.add_argument("--field", required=True)
    pe.add_argument("--hs", help="optional half-space bundle (rebuilt if absent)")
    pe.add_argument("--R", type=float, required=True)
    pe.add_argument("--seeds", type=int, default=8)
    pe.add_argument("--out", required=True)
    pe.add_argument("--tol", type=float)
    pe.set_defaults(fn=cmd_excess)

    pp = sub.add_parser("pipeline", help="run all stages from a config")
    pp.add_argument("--config", required=True)
    pp.add_argument("--out-dir", required=True)
    pp.add_argument("--threads", type=int, default=None)
    pp.set_defaults(fn=cmd_pipeline)

    pr = sub.add_parser("report", help="consolidate stage outputs into report.json")
    pr.add_argument("--out-dir", required=True)
    pr.add_argument("--config", default=None)
    pr.set_defaults(fn=cmd_report)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CsvError, FieldFileError, FileNotFoundError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except (EllipticityError, ValueError) as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
