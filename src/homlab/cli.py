"""Command-line orchestration: `homlab` with subcommands

    field sample | field check | corrector | halfspace | excess |
    pipeline | report

All physical parameters are dimensionless in unit-cell units; curves are
exchanged as CSV, fields as binary, and a pipeline run is reproducible
byte-for-byte from its config (fixed seeds, fixed reduction order).
Exit codes: 0 success, 2 config error, 3 solver failure, 4 invariant
violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import numbers
import os
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
    load_field,
    restrict_to_half_box,
    sample_field,
    save_field,
    validate_ellipticity,
)
from .pde import BoundarySpec, Operator, SolverError
from .corrector import (
    HomogenizedMatrix,
    dyadic_radii,
    solve_pair,
    sublinearity_curve,
)
from .halfspace import (
    DyadicConfig,
    build_halfspace_set,
    dyadic_construction,
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

DEFAULT_CONFIG = {
    "tol": 1e-12,
    "threads": 1,
}


def load_config(path):
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return validate_config(raw)


def validate_config(raw):
    cfg = dict(DEFAULT_CONFIG)
    cfg.update(raw)
    for key in ("ensemble", "grid", "seeds"):
        if key not in cfg:
            raise ConfigError(f"config misses required key {key!r}")
    g = cfg["grid"]
    for key in ("dim", "n"):
        if key not in g:
            raise ConfigError(f"grid config misses {key!r}")
    seeds = cfg["seeds"]
    if not isinstance(seeds, (list, tuple)) or not all(
            isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in seeds):
        raise ConfigError(f"seeds must be a list of integers, got {seeds!r}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")
    cfg["seeds"] = [int(s) for s in seeds]
    for r in cfg.get("radii") or []:
        if not is_dyadic(r):
            raise ConfigError(f"radius {r} is not a positive power of two")
    try:
        EnsembleSpec.from_dict(cfg["ensemble"])
    except Exception as e:
        raise ConfigError(f"bad ensemble spec: {e}") from e
    hs = cfg.get("halfspace", {})
    if hs.get("mode", "direct") not in ("direct", "dyadic"):
        raise ConfigError("halfspace mode must be direct or dyadic")
    try:
        grid = _grid_from_config(cfg)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad grid config: {e}") from e
    if not _radii(cfg, grid):
        raise ConfigError(f"no corrector radius: default radii 8h..side/4 empty at side {grid.side:g}")
    # the half-space stage builds a tangentially periodic slab, 2L = side
    L = float(hs.get("L", grid.side / 2.0))
    if abs(2.0 * L - grid.side) > 1e-12:
        raise ConfigError(f"halfspace L {L:g} is not side/2 = {grid.side / 2.0:g}")
    if hs.get("mode") == "dyadic":
        r0, n_max = _dyadic_params(hs)
        if not is_dyadic(r0):
            raise ConfigError(f"dyadic r0 {r0:g} is not a positive power of two")
        if n_max < -1:
            raise ConfigError(f"dyadic n_max {n_max} leaves no annulus; the least is -1")
        if r0 * 2.0 ** (n_max + 1) > 2.0 * L + 1e-9:
            raise ConfigError(f"outer annulus r0 2^(n_max+1) exceeds 2L = {2.0 * L:g}")
    R, ex_radii = _excess_radii(cfg, grid)
    if 2.0 * R > grid.side + 1e-12:
        raise ConfigError(f"excess window 2R = {2.0 * R:g} exceeds the torus side {grid.side:g}")
    # the window is a half-box of 2R/h cells a side, which must be even and at least 4
    if abs(R / grid.h - round(R / grid.h)) > 1e-12 or R < 2.0 * grid.h:
        raise ConfigError(f"excess window height R = {R:g} is not a whole number >= 2 of cells")
    if not ex_radii or min(ex_radii) < 4 * grid.h:
        raise ConfigError(f"excess radii {ex_radii} empty or below the quadrature floor 4h")
    return cfg


def config_hash(cfg):
    """Cache key of a config and the homlab version: every key except
    ``threads``, which changes how seeds are scheduled but not what is
    computed."""
    keyed = {k: v for k, v in cfg.items() if k != "threads"}
    blob = json.dumps({"config": keyed, "version": __version__},
                      sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# ---------------------------------------------------------------------------
# stage runners
# ---------------------------------------------------------------------------


def _grid_from_config(cfg):
    g = cfg["grid"]
    return Grid.torus(int(g["dim"]), int(g["n"]), float(g.get("h", 1.0)))


def _radii(cfg, grid):
    radii = cfg.get("radii")
    if radii is None:
        return dyadic_radii(grid, r_max=grid.side / 4.0)
    return [float(r) for r in radii]


def _dyadic_params(hs_cfg):
    """r0 and n_max of the dyadic half-space mode."""
    dy_cfg = hs_cfg.get("dyadic", {})
    return float(dy_cfg.get("r0", 8.0)), int(dy_cfg.get("n_max", 2))


def _excess_radii(cfg, grid):
    """The window half-width R and the radii of the excess stage."""
    ex_cfg = cfg.get("excess", {})
    R = float(ex_cfg.get("R", grid.side / 4.0))
    return R, [float(r) for r in ex_cfg.get("radii", [r for r in _radii(cfg, grid) if r <= R])]


CORRECTOR_HEADER = ["r", "delta", "delta_gno", "partial_sum_m"]
HALFSPACE_HEADER = ["r", "delta_h", "delta_h_halfball"]
DYADIC_HEADER = ["n", "l_n", "energy", "bound_shape"]


def corrector_rows(curve):
    return [[float(r), float(d), float(dg), float(ps)]
            for r, d, dg, ps in zip(curve.radii, curve.delta, curve.delta_gno, curve.partial_sums)]


def halfspace_rows(hcurve):
    return [[float(r), float(d), float(dh)]
            for r, d, dh in zip(hcurve.radii, hcurve.delta_h, hcurve.delta_h_halfball)]


def run_dyadic(field_hb, f, pair, hset, curve, r0, n_max, tol, op=None):
    """The dyadic construction for the first tangential direction of
    ``hset`` (on the half-box operator ``op`` when given), with cutoff
    heights from the whole-space ``curve`` at the annulus radii; returns
    the result and its table rows (DYADIC_HEADER)."""
    config = DyadicConfig.from_curve(curve, r0, n_max)
    dy = dyadic_construction(field_hb, f, pair, hset.basis.vectors[0], config, tol=tol,
                             direct=hset.varphi[0], op=op)
    rows = [[int(n), float(config.heights[n + 1]),
             float(dy.energies[(n, config.r0)]), float(dy.bound_shape[(n, config.r0)])]
            for n in config.annuli()]
    return dy, rows


def excess_header(dim):
    return ["seed", "r", "excess"] + [f"b{k+1}" for k in range(dim)] + [
        "ratio", "fitted_alpha", "mvp_ratio"]


def excess_rows(f, hset, R, radii, tol, trace_seeds, amplitude):
    """Excess table rows (``excess_header``) of one harmonic sample per
    trace seed on the radius-R window of the torus field ``f`` (the samples
    share one window record); also the fitted exponent and mean-value
    constant of each sample."""
    rows, alphas, c_means = [], [], []
    for seed in trace_seeds:
        trace = band_limited_trace(seed, R, amplitude=amplitude, dim=f.grid.dim)
        sample = harmonic_sample(f, R, trace, tol=min(tol * 1e2, 1e-10))
        rep = excess_decay_experiment(sample, hset, radii)
        mvp = mean_value_check(sample, radii)
        alphas.append(rep.fitted_alpha)
        c_means.append(mvp.c_mean)
        for i, r in enumerate(rep.radii):
            ratio = rep.pair_ratios.get(float(r), float("nan"))
            rows.append([int(seed), float(r), float(rep.excess[i]),
                         *[float(c) for c in rep.minimizers[i]],
                         float(ratio), float(rep.fitted_alpha), float(mvp.ratios[i])])
    return rows, alphas, c_means


def run_corrector_stage(cfg, out_dir, tag):
    grid = _grid_from_config(cfg)
    radii = _radii(cfg, grid)
    tol = float(cfg["tol"])
    spec = EnsembleSpec.from_dict(cfg["ensemble"])

    def one(seed):
        f = sample_field(replace(spec, seed=int(seed)), grid)
        pair = solve_pair(f, tol=tol)
        curve = sublinearity_curve(pair, radii)
        return seed, f, pair, curve

    results = _map_seeds(one, cfg)
    summaries = []
    for seed, f, pair, curve in results:
        write_csv(out_dir / f"corrector__{tag}__seed{seed}.csv", CORRECTOR_HEADER,
                  corrector_rows(curve))
        summaries.append({
            "seed": seed,
            "a_hom": pair.a_hom.tolist(),
            "delta_first": float(curve.delta[0]),
            "delta_last": float(curve.delta[-1]),
        })
    write_json(out_dir / f"corrector__{tag}__summary.json", summaries)
    return results


def run_halfspace_stage(cfg, out_dir, tag, corr_results):
    hs_cfg = cfg.get("halfspace", {})
    grid = _grid_from_config(cfg)
    L = float(hs_cfg.get("L", grid.side / 2.0))
    mode = hs_cfg.get("mode", "direct")
    tol = float(cfg["tol"])
    radii = [r for r in _radii(cfg, grid) if r <= L / 2.0]
    summaries = []
    hsets = {}
    for seed, f, pair, curve in corr_results:
        hset = build_halfspace_set(f, pair, L=L, tol=tol)
        hsets[seed] = hset
        write_csv(out_dir / f"halfspace__{tag}__seed{seed}.csv", HALFSPACE_HEADER,
                  halfspace_rows(half_sublinearity_curve(hset, radii)))
        fhb = restrict_to_half_box(f, L)
        op = Operator(fhb, BoundarySpec.half_box(fhb.grid))
        res = halfspace_residuals(fhb, hset, 0, op=op)
        entry = {
            "seed": seed,
            "flat_flux_relative": res.flat_flux_relative,
            "interior_relative": res.interior_relative,
            "sigma_identity": res.sigma_identity,
            "liouville_gap": hset.liouville_gap[0],
        }
        if mode == "dyadic":
            dy, rows = run_dyadic(fhb, f, pair, hset, curve, *_dyadic_params(hs_cfg), tol, op=op)
            write_csv(out_dir / f"halfspace_dyadic__{tag}__seed{seed}.csv", DYADIC_HEADER, rows)
            entry["dyadic_consistency_r0"] = dy.consistency_r0
            entry["dyadic_empirical_constant"] = dy.empirical_constant
        summaries.append(entry)
    write_json(out_dir / f"halfspace__{tag}__summary.json", summaries)
    return hsets


def run_excess_stage(cfg, out_dir, tag, corr_results, hsets):
    ex_cfg = cfg.get("excess", {})
    grid = _grid_from_config(cfg)
    R, radii = _excess_radii(cfg, grid)
    amplitude = float(ex_cfg.get("trace_amplitude", 1.0))
    rows, alphas, c_means = [], [], []
    for seed, f, pair, curve in corr_results:
        # one trace per field, seeded like the field
        seed_rows, seed_alphas, seed_c_means = excess_rows(f, hsets[seed], R, radii,
                                                           float(cfg["tol"]), [seed], amplitude)
        rows += seed_rows
        alphas += seed_alphas
        c_means += seed_c_means
    write_csv(out_dir / f"excess__{tag}.csv", excess_header(grid.dim), rows)
    # null, not NaN (invalid JSON), when no seed gave a finite value
    summary = {
        "alpha_mean": float(np.nanmean(alphas)) if np.isfinite(alphas).any() else None,
        "c_mean_max": float(np.nanmax(c_means)) if np.isfinite(c_means).any() else None,
    }
    write_json(out_dir / f"excess__{tag}__summary.json", summary)
    return summary


def _map_seeds(fn, cfg):
    seeds = cfg["seeds"]
    threads = int(cfg.get("threads", 1))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, seeds))
    return [fn(s) for s in seeds]


def run_pipeline(cfg, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = config_hash(cfg)
    manifest = {
        "config_hash": tag,
        "version": __version__,
        "stages": {},
    }
    manifest_path = out_dir / f"manifest__{tag}.json"

    def stage_done(name, outputs):
        return all(Path(p).exists() for p in outputs)

    corr_outputs = [out_dir / f"corrector__{tag}__seed{s}.csv" for s in cfg["seeds"]]
    corr_outputs.append(out_dir / f"corrector__{tag}__summary.json")
    hs_outputs = [out_dir / f"halfspace__{tag}__seed{s}.csv" for s in cfg["seeds"]]
    hs_outputs.append(out_dir / f"halfspace__{tag}__summary.json")
    if cfg.get("halfspace", {}).get("mode", "direct") == "dyadic":
        hs_outputs += [out_dir / f"halfspace_dyadic__{tag}__seed{s}.csv" for s in cfg["seeds"]]
    ex_outputs = [out_dir / f"excess__{tag}.csv", out_dir / f"excess__{tag}__summary.json"]

    try:
        cached_all = (stage_done("corrector", corr_outputs)
                      and stage_done("halfspace", hs_outputs)
                      and stage_done("excess", ex_outputs))
        if cached_all:
            for name in ("corrector", "halfspace", "excess"):
                manifest["stages"][name] = {"cached": True}
        else:
            t0 = time.time()
            corr_results = run_corrector_stage(cfg, out_dir, tag)
            manifest["stages"]["corrector"] = {"cached": False, "seconds": round(time.time() - t0, 3)}
            t0 = time.time()
            hsets = run_halfspace_stage(cfg, out_dir, tag, corr_results)
            manifest["stages"]["halfspace"] = {"cached": False, "seconds": round(time.time() - t0, 3)}
            t0 = time.time()
            run_excess_stage(cfg, out_dir, tag, corr_results, hsets)
            manifest["stages"]["excess"] = {"cached": False, "seconds": round(time.time() - t0, 3)}
        hs_sum = out_dir / f"halfspace__{tag}__summary.json"
        if hs_sum.exists():
            entries = json.loads(hs_sum.read_text())
            manifest["residual_summary"] = {
                "flat_flux_relative_max": max(e["flat_flux_relative"] for e in entries),
                "interior_relative_max": max(e["interior_relative"] for e in entries),
                "sigma_identity_max": max(e["sigma_identity"] for e in entries),
            }
    except Exception as e:
        manifest["failed"] = f"{type(e).__name__}: {e}"
        write_json(manifest_path, manifest)
        raise
    write_json(manifest_path, manifest)
    build_report(cfg, out_dir, tag)
    return manifest


def build_report(cfg, out_dir, tag):
    """Consolidated JSON summary; numbers are copied from the stage
    outputs, never recomputed."""
    out_dir = Path(out_dir)
    report = {"config_hash": tag, "version": __version__}
    corr_sum = out_dir / f"corrector__{tag}__summary.json"
    if corr_sum.exists():
        entries = json.loads(corr_sum.read_text())
        est = HomogenizedMatrix.from_samples([e["a_hom"] for e in entries])
        report["a_hom_mean"] = est.matrix.tolist()
        report["a_hom_stderr"] = est.stderr.tolist()
        ratios = [e["delta_last"] / e["delta_first"] for e in entries if e["delta_first"] > 0]
        report["delta_decay_ratio_mean"] = float(np.mean(ratios)) if ratios else None
    curves = {}
    for seed in cfg["seeds"]:
        p = out_dir / f"corrector__{tag}__seed{seed}.csv"
        if p.exists():
            header, rows = read_csv(p)
            curves[str(seed)] = {"radii": [r[0] for r in rows], "delta": [r[1] for r in rows]}
    if curves:
        report["delta_curves"] = curves
        first = next(iter(curves.values()))
        if len(first["radii"]) >= 2:
            exps = []
            for c in curves.values():
                exps.append(float(-np.polyfit(np.log(c["radii"]), np.log(c["delta"]), 1)[0]))
            report["delta_fit_exponent_mean"] = float(np.mean(exps))
    hs_sum = out_dir / f"halfspace__{tag}__summary.json"
    if hs_sum.exists():
        entries = json.loads(hs_sum.read_text())
        report["halfspace_residuals"] = entries
    ex_sum = out_dir / f"excess__{tag}__summary.json"
    if ex_sum.exists():
        report["excess"] = json.loads(ex_sum.read_text())
    path = out_dir / f"report__{tag}.json"
    write_json(path, report)
    return path


# ---------------------------------------------------------------------------
# half-space bundle (hs.npz)
# ---------------------------------------------------------------------------


def load_halfspace_bundle(path):
    """Rebuild the lightweight half-space view needed by the excess
    diagnostics: grid, basis, the correctors phi_h and varphi, the flux
    potentials sigma_h (one ``FluxPotentialSet`` per direction) and the
    Liouville gaps.  Those diagnostics never read the whole-space pair or
    the currents q_h, which the bundle does not carry."""
    from .corrector import FluxPotentialSet
    from .grid import pair_offsets as _pairs
    from .halfspace import HalfSpaceCorrectorSet, TangentialBasis
    from .pde import ScalarField

    bundle = np.load(path)
    meta = json.loads(str(bundle["__meta__"]))
    grid = Grid.half_box(int(meta["dim"]), int(meta["n"]), float(meta["h"]),
                         tangential_periodic=bool(meta["tangential_periodic"]))
    basis = TangentialBasis(np.asarray(meta["basis"]), np.asarray(meta["a_hom"]))
    d = grid.dim
    phi_h = {}
    sigma_h = {i: FluxPotentialSet(grid, {}) for i in range(d)}
    varphi = {}
    for name in bundle.files:
        if name.startswith("phi_h_"):
            i = int(name.split("_")[-1])
            phi_h[i] = ScalarField(grid, bundle[name])
        elif name.startswith("sigma_h_"):
            _, _, i, jk = name.split("_")
            j, k = int(jk[0]), int(jk[1])
            sigma_h[int(i)].sigma[(j, k)] = ScalarField(grid, bundle[name], _pairs(d, j, k))
        elif name.startswith("varphi_"):
            varphi[int(name.split("_")[-1])] = ScalarField(grid, bundle[name])
    gap = {int(k): float(vv) for k, vv in meta.get("liouville_gap", {}).items()}
    return HalfSpaceCorrectorSet(grid, basis, None, phi_h, varphi, sigma_h, {}, gap)


def save_halfspace_bundle(path, hset):
    arrays = {}
    meta = {
        "dim": hset.grid.dim,
        "n": hset.grid.n,
        "h": hset.grid.h,
        "tangential_periodic": hset.grid.tangential_periodic,
        "a_hom": hset.basis.a_hom.tolist(),
        "basis": hset.basis.vectors.tolist(),
        "liouville_gap": {str(k): v for k, v in hset.liouville_gap.items()},
    }
    for i, fphi in hset.phi_h.items():
        arrays[f"phi_h_{i}"] = fphi.values
    for i, fps in hset.sigma_h.items():
        for (j, k), s in fps.sigma.items():
            arrays[f"sigma_h_{i}_{j}{k}"] = s.values
    for i, fvarphi in hset.varphi.items():
        arrays[f"varphi_{i}"] = fvarphi.values
    # through a handle: np.savez appends ".npz" to a path without that suffix
    write_atomic(path, lambda fh: np.savez(fh, __meta__=json.dumps(meta, sort_keys=True), **arrays),
                 "wb")


# ---------------------------------------------------------------------------
# subcommand mains
# ---------------------------------------------------------------------------


def cmd_field_sample(args):
    spec_raw = json.loads(Path(args.spec).read_text())
    spec = EnsembleSpec.from_dict(spec_raw)
    g = spec_raw.get("grid", {})
    topo = g.get("topology", "torus")
    grid = _grid_from_token(int(g.get("dim", 2)), int(g.get("n", 64)), float(g.get("h", 1.0)), topo)
    f = sample_field(spec, grid)
    save_field(f, args.out)
    print(f"wrote {args.out} (dim={grid.dim}, n={grid.n}, topology={topo})")
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
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token.startswith("e"):
            raise ConfigError(f"direction token {token!r}; use e1..e{dim}")
        i = int(token[1:])
        if not 1 <= i <= dim:
            raise ConfigError(f"direction {token} outside 1..{dim}")
        out.append(i - 1)
    return out


def cmd_corrector(args):
    f = load_field(args.field)
    pair = solve_pair(f, tol=args.tol)
    d = f.grid.dim
    basis = None if args.directions is None else np.eye(d)[_parse_directions(args.directions, d)]
    lo, hi = args.radii.split(":")
    radii = dyadic_radii(f.grid, r_min=float(lo), r_max=min(float(hi), f.grid.side / 2.0))
    curve = sublinearity_curve(pair, radii, basis=basis)
    write_csv(args.out, CORRECTOR_HEADER, corrector_rows(curve))
    print(f"wrote {args.out}; a_hom = {pair.a_hom.tolist()}")
    return 0


def cmd_halfspace(args):
    f = load_field(args.field)
    pair = solve_pair(f, tol=args.tol)
    hset = build_halfspace_set(f, pair, L=args.L, tol=args.tol)
    out_bin, out_csv = (args.out.split(",") + [None])[:2]
    if out_csv:
        radii = [r for r in dyadic_radii(f.grid) if r <= args.L / 2.0]
        write_csv(out_csv, HALFSPACE_HEADER, halfspace_rows(half_sublinearity_curve(hset, radii)))
    if args.mode == "dyadic":
        dy, rows = run_dyadic(restrict_to_half_box(f, args.L), f, pair, hset,
                              sublinearity_curve(pair, dyadic_radii(f.grid)), args.r0, args.n_max,
                              args.tol)
        if out_csv:
            dy_path = Path(out_csv).with_suffix(".dyadic.csv")
            write_csv(dy_path, DYADIC_HEADER, rows)
            print(f"dyadic: consistency(B_r0) = {dy.consistency_r0:.4g}, "
                  f"empirical constant = {dy.empirical_constant:.4g} -> {dy_path}")
    save_halfspace_bundle(out_bin, hset)
    print(f"wrote {out_bin}" + (f" and {out_csv}" if out_csv else ""))
    return 0


def cmd_excess(args):
    f = load_field(args.field)
    if args.hs:
        hset = load_halfspace_bundle(args.hs)
    else:
        hset = build_halfspace_set(f, solve_pair(f, tol=args.tol), L=f.grid.side / 2.0,
                                   tol=args.tol)
    radii = [r for r in dyadic_radii(f.grid) if r <= args.R]
    rows, _, _ = excess_rows(f, hset, args.R, radii, args.tol, range(args.seeds), 1.0)
    write_csv(args.out, excess_header(f.grid.dim), rows)
    print(f"wrote {args.out}")
    return 0


def _config_from_args(args):
    """The ``--config`` file with the ``--seeds``/``--tol`` overrides, which
    enter the config hash, so ``pipeline`` and ``report`` share them."""
    cfg = load_config(args.config)
    if args.seeds is not None:
        cfg["seeds"] = list(range(int(args.seeds)))
    if args.tol is not None:
        cfg["tol"] = float(args.tol)
    return validate_config(cfg)


def cmd_pipeline(args):
    cfg = _config_from_args(args)
    if args.threads is not None:
        cfg["threads"] = int(args.threads)
    manifest = run_pipeline(cfg, args.out_dir)
    print(json.dumps(manifest, indent=1, sort_keys=True))
    return 0


def cmd_report(args):
    out_dir = Path(args.out_dir)
    if args.config:
        cfg = _config_from_args(args)
        tag = config_hash(cfg)
        if not (out_dir / f"manifest__{tag}.json").exists():
            raise ConfigError(f"no manifest for config hash {tag} in {out_dir}")
    elif args.seeds is not None or args.tol is not None:
        raise ConfigError("--seeds and --tol override a --config")
    else:
        manifests = list(out_dir.glob("manifest__*.json"))
        if not manifests:
            raise ConfigError(f"no manifest in {out_dir}")
        newest = max(manifests, key=lambda p: p.stat().st_mtime_ns)
        tag = json.loads(newest.read_text())["config_hash"]
        seeds = sorted(
            int(p.stem.split("seed")[1]) for p in out_dir.glob(f"corrector__{tag}__seed*.csv")
        )
        cfg = {"seeds": seeds}
    path = build_report(cfg, out_dir, tag)
    print(f"wrote {path}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="homlab", description=__doc__)
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
    pco.add_argument("--directions", default=None, help="e.g. e1,e2 (default: all)")
    pco.add_argument("--radii", default="8:512")
    pco.add_argument("--out", required=True)
    pco.add_argument("--tol", type=float, default=1e-12)
    pco.set_defaults(fn=cmd_corrector)

    ph = sub.add_parser("halfspace", help="half-space-adapted corrector construction")
    ph.add_argument("--field", required=True)
    ph.add_argument("--mode", choices=("direct", "dyadic"), default="direct")
    ph.add_argument("--L", type=float, required=True)
    ph.add_argument("--r0", type=float, default=8.0)
    ph.add_argument("--n-max", type=int, default=2)
    ph.add_argument("--out", required=True, help="hs.npz or hs.npz,hs.csv")
    ph.add_argument("--tol", type=float, default=1e-12)
    ph.set_defaults(fn=cmd_halfspace)

    pe = sub.add_parser("excess", help="tilt-excess decay experiments")
    pe.add_argument("--field", required=True)
    pe.add_argument("--hs", default=None, help="optional half-space bundle (rebuilt if absent)")
    pe.add_argument("--R", type=float, required=True)
    pe.add_argument("--seeds", type=int, default=8)
    pe.add_argument("--out", required=True)
    pe.add_argument("--tol", type=float, default=1e-12)
    pe.set_defaults(fn=cmd_excess)

    pp = sub.add_parser("pipeline", help="run all stages from a config")
    pp.add_argument("--config", required=True)
    pp.add_argument("--out-dir", required=True)
    pp.add_argument("--seeds", type=int, default=None)
    pp.add_argument("--tol", type=float, default=None)
    pp.add_argument("--threads", type=int, default=None)
    pp.set_defaults(fn=cmd_pipeline)

    pr = sub.add_parser("report", help="consolidate stage outputs into report.json")
    pr.add_argument("--out-dir", required=True)
    pr.add_argument("--config", default=None)
    pr.add_argument("--seeds", type=int, default=None, help="as given to pipeline")
    pr.add_argument("--tol", type=float, default=None, help="as given to pipeline")
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
