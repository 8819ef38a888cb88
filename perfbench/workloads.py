"""The benchmark's workloads, driven through homlab's public functions.

Each workload is a closed loop: one process, one client, one operation at
a time.  ``prepare`` builds an operation's inputs outside the timed
region, ``op`` is the timed call chain, ``check`` verifies its outputs
(failures feed ``success_rate``), ``after_op`` takes untimed follow-up
measurements, and ``traced_extras`` / ``probes`` add the per-layer
measurements of the traced run.  Every span is named after
the per-layer metric it feeds.

Why these workloads: each puts most of its time in a different layer, so
an optimisation of one layer shows on one workload and is predicted to
leave another unchanged.

* ``torus2d-c100``: periodic correctors at contrast 100; 128 CG
  iterations per direction, so the periodic preconditioner apply and the
  CSR matvec dominate.  Never reaches the half-space, the Thomas sweep,
  the excess diagnostics or cli.
* ``pipeline2d-dyadic``: ``cli.run_pipeline`` cold into a fresh
  directory, the repo's main user path.  Many ~25-iteration solves on one
  slab operator, so per-solve fixed costs (assembly, preconditioner
  set-up, the tridiagonal sweep) matter.  After each cold run the same
  config is rerun from cache, the read side of cli, timed apart from the
  operation.
* ``excess3d-traces``: many right-hand sides on one 3d window operator
  and the excess diagnostics; the only 3d coverage.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from homlab import (
    BoundarySpec,
    Dirichlet,
    DyadicConfig,
    EnsembleSpec,
    Grid,
    NoFlux,
    SourceTerm,
    assemble,
    band_limited_trace,
    build_halfspace_set,
    coercivity_check,
    dyadic_construction,
    dyadic_radii,
    excess_decay_experiment,
    flux_potential_residual,
    half_sublinearity_curve,
    halfspace_residuals,
    harmonic_sample,
    mean_value_check,
    restrict_to_half_box,
    sample_field,
    solve,
    solve_flux_potential,
    solve_pair,
    sublinearity_curve,
    validate_ellipticity,
)
from homlab import cli
from homlab._transforms import PERIODIC, FastConstSolver, thomas_many, vertical_stencil
from homlab.corrector import coefficient_times_vector
from homlab.field import cell_matrices
from homlab.grid import cell_offsets

TOL = 1e-12
SAMPLE_TOL = 1e-10  # harmonic samples, as the pipeline's excess stage uses
IDENTITY_TOL = 1e-8  # flux-potential and half-space sigma identities
CACHED_RERUNS = 20  # back-to-back cached pipeline reruns after each cold run
SETUP_KIND, OP_KIND, WARMUP_KIND = 0, 1, 2  # input kinds for derive_seed


def derive_seed(*keys):
    """A seed for one input, derived from the workload seed and the
    input's position (child process, kind, index)."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def a_hom_failures(a_hom, spec, grid):
    """a_hom must be symmetric and lie between the harmonic and the
    arithmetic mean of the realized (isotropic) cell values."""
    a = np.asarray(a_hom, dtype=float)
    out = []
    if not np.all(np.isfinite(a)):
        return ["a_hom finite"]
    if np.abs(a - a.T).max() > 1e-10 * np.abs(a).max():
        out.append("a_hom symmetric")
    cells = cell_matrices(spec, grid)[..., 0, 0]
    lo = 1.0 / float(np.mean(1.0 / cells))
    hi = float(np.mean(cells))
    eig = np.linalg.eigvalsh(0.5 * (a + a.T))
    if eig.min() < lo * (1.0 - 1e-9) or eig.max() > hi * (1.0 + 1e-9):
        out.append("a_hom within harmonic/arithmetic means")
    return out


def pair_failures(pair, spec, grid, tol):
    out = a_hom_failures(pair.a_hom, spec, grid)
    for i, st in pair.cset.stats.items():
        if not st.relative_residual <= tol:
            out.append(f"corrector {i} CG residual <= tol")
    for i in range(grid.dim):
        if not flux_potential_residual(pair.sigmas[i], pair.q[i].comps) <= IDENTITY_TOL:
            out.append(f"flux-potential identity {i}")
    return out


def excess_failures(excess_values, alphas):
    ex = np.asarray(excess_values, dtype=float)
    al = np.asarray(alphas, dtype=float)
    out = []
    if ex.size == 0 or not np.all(np.isfinite(ex)) or ex.min() < 0.0:
        out.append("excess values finite and >= 0")
    if al.size == 0 or not np.all(np.isfinite(al)):
        out.append("fitted exponents finite")
    return out


# ---------------------------------------------------------------------------
# kernel probes on a workload's own operator
# ---------------------------------------------------------------------------


def _per_call_ms(fn, arg, seconds=0.25, min_calls=5):
    times = []
    t_end = time.perf_counter() + seconds
    while len(times) < min_calls or time.perf_counter() < t_end:
        t = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t)
    return 1e3 * float(np.median(times))


def kernel_probes(tracer, build_system, tol):
    """Time assemble, a full solve, a CSR matvec, the fast constant-
    coefficient solve (the preconditioner apply) and, on operators with a
    bounded vertical axis, ``thomas_many`` at the operator's shape."""
    for k in range(3):
        tracer.unit = f"kernel-assemble{k}"
        with tracer.span("pde.assemble_s"):
            system = build_system()
    tracer.unit = "kernel-solve"
    with tracer.span("pde.solve_s"):
        u, stats = solve(system, tol=tol)
    b = system.rhs
    x = u.values.ravel()
    tracer.value("pde.cg_iterations", stats.iterations)
    tracer.value("pde.reported_residual", stats.relative_residual)
    tracer.value("pde.true_residual",
                 np.linalg.norm(b - system.matrix @ x) / np.linalg.norm(b))

    tracer.unit = "kernel-calls"
    grid = system.grid
    shape = grid.shape
    rng = np.random.default_rng(0)
    r = rng.standard_normal(shape)
    tracer.value("pde.matvec_ms", _per_call_ms(lambda v: system.matrix @ v, r.ravel()))
    solver = FastConstSolver(grid, cell_offsets(grid.dim), system.axis_bcs, shape,
                             project_mean=system.singular)
    tracer.value("transforms.precond_apply_ms", _per_call_ms(solver.solve, r))
    bcs = system.axis_bcs
    if bcs[-1][0] != PERIODIC:
        sub, dia, sup = vertical_stencil(shape[-1], cell_offsets(grid.dim)[-1], *bcs[-1])
        tang = rng.uniform(0.0, 4.0, shape[:-1] + (1,))
        full_dia = dia + tang
        complex_tangent = any(bc[0] == PERIODIC for bc in bcs[:-1])
        rhs = r + 1j * rng.standard_normal(shape) if complex_tangent else r
        tracer.value("transforms.thomas_ms",
                     _per_call_ms(lambda v: thomas_many(sub, full_dia, sup, v), rhs))


def flux_potential_probe(tracer, pair):
    grid = pair.cset.grid
    with tracer.span("corrector.flux_potential_s"):
        for i in range(grid.dim):
            solve_flux_potential(grid, pair.q[i])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Defaults for the optional steps of a workload."""

    def setup(self, seed, child, span):
        pass

    def after_op(self, result):
        return {}, []

    def traced_extras(self, result, tracer):
        pass

    def probes(self, tracer):
        pass


class TorusCorrectors(Workload):
    """sample_field -> solve_pair -> sublinearity_curve on a 2d torus,
    checkerboard (0.01, 1), a new field seed per operation."""

    sizes = {"full": 256, "smoke": 32}
    values = (0.01, 1.0)

    def __init__(self, workdir, smoke):
        self.grid = Grid.torus(2, self.sizes["smoke" if smoke else "full"])
        self.radii = dyadic_radii(self.grid, r_max=self.grid.side / 4.0)

    def prepare(self, op_seed):
        return EnsembleSpec.checkerboard(values=self.values, seed=op_seed)

    def op(self, spec, span):
        with span("field.sample_s"):
            f = sample_field(spec, self.grid)
        with span("corrector.solve_pair_s"):
            pair = solve_pair(f, tol=TOL)
        with span("corrector.sublinearity_s"):
            curve = sublinearity_curve(pair, self.radii)
        return spec, f, pair, curve

    def check(self, result):
        spec, f, pair, curve = result
        out = pair_failures(pair, spec, self.grid, TOL)
        if not np.all(np.isfinite(curve.delta)):
            out.append("sublinearity curve finite")
        return out

    def traced_extras(self, result, tracer):
        spec, f, pair, curve = result
        with tracer.span("field.validate_s"):
            validate_ellipticity(f)
        flux_potential_probe(tracer, pair)
        self.last = result

    def probes(self, tracer):
        spec, f, pair, curve = self.last
        e1 = np.eye(self.grid.dim)[0]
        kernel_probes(
            tracer,
            lambda: assemble(f, BoundarySpec.periodic(),
                             SourceTerm(divergence_form=coefficient_times_vector(f, e1))),
            TOL,
        )


def pipeline_config(n, seed):
    grid = Grid.torus(2, n)
    return cli.validate_config({
        "ensemble": {"kind": "checkerboard", "lam": 0.25,
                     "params": {"values": [0.25, 1.0], "cell_size": 1.0}},
        "grid": {"dim": 2, "n": n, "h": 1.0},
        "seeds": [seed],
        "radii": dyadic_radii(grid, r_max=grid.side / 4.0),
        "halfspace": {"L": grid.side / 2.0, "mode": "dyadic",
                      "dyadic": {"r0": 8.0, "n_max": 2}},
        "excess": {"R": grid.side / 4.0},
        "tol": TOL,
        "threads": 1,
    })


def spec_for(cfg):
    """The field spec of a one-seed pipeline config."""
    return replace(EnsembleSpec.from_dict(cfg["ensemble"]), seed=cfg["seeds"][0])


def _output_files(out_dir):
    return sorted(p for p in Path(out_dir).iterdir() if p.is_file())


def pipeline_failures(cfg, out_dir, manifest):
    """Manifest without ``failed``, every CSV readable by ``cli.read_csv``,
    a_hom bounds, the 2d half-space sigma identity and finite, non-negative
    excess values with finite fitted exponents."""
    out = []
    if "failed" in manifest:
        out.append("manifest has no failed key")
    tag = manifest["config_hash"]
    out_dir = Path(out_dir)
    csvs = {}
    for p in _output_files(out_dir):
        if p.suffix == ".csv":
            try:
                csvs[p.name] = cli.read_csv(p)
            except cli.CsvError:
                out.append(f"{p.name} parses")
    grid = Grid.torus(2, int(cfg["grid"]["n"]))
    spec = spec_for(cfg)
    corr = json.loads((out_dir / f"corrector__{tag}__summary.json").read_text())
    out += a_hom_failures(corr[0]["a_hom"], spec, grid)
    hs = json.loads((out_dir / f"halfspace__{tag}__summary.json").read_text())
    if not hs[0]["sigma_identity"] <= IDENTITY_TOL:
        out.append("half-space sigma identity")
    header, rows = csvs.get(f"excess__{tag}.csv", ([], []))
    if not rows:
        out.append("excess table present")
    else:
        col = {h: i for i, h in enumerate(header)}
        out += excess_failures([r[col["excess"]] for r in rows],
                               [r[col["fitted_alpha"]] for r in rows])
    return out


class PipelineCold(Workload):
    """cli.run_pipeline for a one-seed 2d dyadic config into a fresh
    directory; a new field seed per operation."""

    sizes = {"full": 256, "smoke": 64}

    def __init__(self, workdir, smoke):
        self.n = self.sizes["smoke" if smoke else "full"]
        self.workdir = Path(workdir)
        self.count = 0

    def prepare(self, op_seed):
        self.count += 1
        out_dir = self.workdir / f"op{self.count}"
        return pipeline_config(self.n, op_seed), out_dir

    def op(self, prepared, span):
        cfg, out_dir = prepared
        with span("cli.run_pipeline"):
            manifest = cli.run_pipeline(cfg, out_dir)
        return cfg, out_dir, manifest

    def check(self, result):
        return pipeline_failures(*result)

    def after_op(self, result):
        """Rerun the same config from cache, back to back; every rerun
        must read every stage from cache."""
        cfg, out_dir, _ = result
        times = []
        failures = set()
        for _ in range(CACHED_RERUNS):
            t = time.perf_counter()
            manifest = cli.run_pipeline(cfg, out_dir)
            times.append(time.perf_counter() - t)
            if "failed" in manifest or not all(
                    s.get("cached") for s in manifest["stages"].values()):
                failures.add("cached rerun reads every stage from cache")
        return {"cli.cached_rerun_s": float(np.median(times))}, sorted(failures)

    def traced_extras(self, result, tracer):
        cfg, out_dir, manifest = result
        files = _output_files(out_dir)
        tracer.value("cli.files_written", len(files))
        tracer.value("cli.bytes_written", sum(p.stat().st_size for p in files))
        for stage in ("corrector", "halfspace", "excess"):
            tracer.value(f"cli.{stage}_stage_s", manifest["stages"][stage]["seconds"])
        with tracer.span("cli.report_s"):
            cli.build_report(cfg, out_dir, manifest["config_hash"])
        self.last_cfg = cfg

    def probes(self, tracer):
        """The library calls the stages make, timed one by one on the
        last traced operation's inputs."""
        cfg = self.last_cfg
        seed = cfg["seeds"][0]
        grid = Grid.torus(2, self.n)
        L = float(cfg["halfspace"]["L"])
        R = float(cfg["excess"]["R"])
        radii = cfg["radii"]
        tracer.unit = "stage-probes"
        with tracer.span("field.sample_s"):
            f = sample_field(spec_for(cfg), grid)
        with tracer.span("field.validate_s"):
            validate_ellipticity(f)
        with tracer.span("corrector.solve_pair_s"):
            pair = solve_pair(f, tol=TOL)
        flux_potential_probe(tracer, pair)
        with tracer.span("corrector.sublinearity_s"):
            curve = sublinearity_curve(pair, radii)
        with tracer.span("halfspace.build_s"):
            hset = build_halfspace_set(f, pair, L=L, tol=TOL)
        with tracer.span("halfspace.half_sublinearity_s"):
            half_sublinearity_curve(hset, [r for r in radii if r <= L / 2.0])
        with tracer.span("field.restrict_s"):
            fhb = restrict_to_half_box(f, L)
        with tracer.span("halfspace.residuals_s"):
            halfspace_residuals(fhb, hset, 0)
        dy = cfg["halfspace"]["dyadic"]
        config = DyadicConfig.from_curve(curve, float(dy["r0"]), int(dy["n_max"]))
        with tracer.span("halfspace.dyadic_s"):
            dyadic_construction(fhb, f, pair, hset.basis.vectors[0], config, tol=TOL)
        eradii = [r for r in radii if r <= R]
        with tracer.span("excess.harmonic_sample_s"):
            sample = harmonic_sample(f, R, band_limited_trace(seed, R), tol=SAMPLE_TOL)
        with tracer.span("excess.decay_s"):
            excess_decay_experiment(sample, hset, eradii)
        with tracer.span("excess.mean_value_s"):
            mean_value_check(sample, eradii)
        b = hset.basis.vectors[0]
        kernel_probes(
            tracer,
            lambda: assemble(fhb, BoundarySpec.half_box(fhb.grid, flat=NoFlux(0.0),
                                                        top=Dirichlet(0.0)),
                             SourceTerm(divergence_form=coefficient_times_vector(fhb, b))),
            TOL,
        )


def trace_3d(seed, half_width, n_modes=2, decay=1.5):
    """Smooth seeded boundary trace of three coordinates (the library's
    ``band_limited_trace`` takes two, see the 3d pipeline defect)."""
    rng = np.random.default_rng(seed)
    terms = []
    for k in np.ndindex(*([2 * n_modes + 1] * 3)):
        kv = np.asarray(k) - n_modes
        if np.any(kv):
            terms.append((kv, rng.standard_normal() / (1.0 + float(kv @ kv)) ** decay,
                          rng.uniform(0.0, 2.0 * np.pi)))

    def trace(x, y, z):
        out = np.zeros(np.broadcast(x, y, z).shape)
        for kv, amp, phase in terms:
            out = out + amp * np.cos(
                np.pi * (kv[0] * x + kv[1] * y + kv[2] * z) / (2.0 * half_width) + phase)
        return out

    return trace


class Excess3d(Workload):
    """Set-up: one 3d torus field, its whole-space pair and the half-space
    set.  Operation: a new trace seed, harmonic_sample on the R window,
    then excess decay, mean value and coercivity."""

    sizes = {"full": 64, "smoke": 32}

    def __init__(self, workdir, smoke):
        self.grid = Grid.torus(3, self.sizes["smoke" if smoke else "full"])
        self.L = self.grid.side / 2.0
        self.R = self.grid.side / 2.0
        self.radii = [r for r in dyadic_radii(self.grid) if r <= self.R]

    def setup(self, seed, child, span):
        spec = EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=derive_seed(seed, child, SETUP_KIND, 0))
        with span("field.sample_s"):
            self.field = sample_field(spec, self.grid)
        with span("corrector.solve_pair_s"):
            self.pair = solve_pair(self.field, tol=TOL)
        with span("halfspace.build_s"):
            self.hset = build_halfspace_set(self.field, self.pair, L=self.L, tol=TOL)
        self.setup_failures = pair_failures(self.pair, spec, self.grid, TOL)

    def prepare(self, op_seed):
        return trace_3d(op_seed, self.R)

    def op(self, trace, span):
        with span("excess.harmonic_sample_s"):
            sample = harmonic_sample(self.field, self.R, trace, tol=SAMPLE_TOL)
        with span("excess.decay_s"):
            rep = excess_decay_experiment(sample, self.hset, self.radii)
        with span("excess.mean_value_s"):
            mvp = mean_value_check(sample, self.radii)
        with span("excess.coercivity_s"):
            co = coercivity_check(self.hset, self.R / 2.0)
        return sample, rep, mvp, co

    def check(self, result):
        sample, rep, mvp, co = result
        out = list(self.setup_failures)
        if not sample.residual <= SAMPLE_TOL:
            out.append("harmonic sample CG residual <= tol")
        out += excess_failures(rep.excess, [rep.fitted_alpha])
        if not np.all(np.isfinite(mvp.ratios)):
            out.append("mean-value ratios finite")
        if not co.ok:
            out.append("coercivity bound")
        return out

    def probes(self, tracer):
        tracer.unit = "field-probes"
        with tracer.span("field.validate_s"):
            validate_ellipticity(self.field)
        with tracer.span("field.restrict_s"):
            window = restrict_to_half_box(self.field, self.R, tangential_periodic=False)
        flux_potential_probe(tracer, self.pair)
        trace = trace_3d(0, self.R)
        kernel_probes(
            tracer,
            lambda: assemble(window, BoundarySpec.half_box(
                window.grid, flat=NoFlux(0.0), top=Dirichlet(trace), lateral=Dirichlet(trace))),
            SAMPLE_TOL,
        )


WORKLOADS = {
    "torus2d-c100": TorusCorrectors,
    "pipeline2d-dyadic": PipelineCold,
    "excess3d-traces": Excess3d,
}
