"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to stream them)."""

import json
import time

import numpy as np
import pytest

from coo_reference import dense_solve
from homlab.grid import Grid, cell_offsets
from homlab.field import EnsembleSpec, sample_field, restrict_to_half_box
from homlab.pde import ScalarField, VectorField, assemble, solve
from homlab.pde import BoundarySpec, Dirichlet, NoFlux, SourceTerm
from homlab.corrector import (
    dyadic_radii,
    homogenized_matrix,
    monte_carlo_homogenized,
    solve_correctors,
    solve_pair,
    sublinearity_curve,
)
from homlab.halfspace import (
    DyadicConfig,
    build_halfspace_set,
    dyadic_construction,
    half_sublinearity_curve,
    halfspace_residuals,
)
from homlab.excess import (
    band_limited_trace,
    coercivity_check,
    excess,
    excess_decay_experiment,
    harmonic_sample,
    liouville_check,
    mean_value_check,
)


def check(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def checkerboard_suite():
    """Eight seeds at n=256 (unit coefficient cells), slab height 128."""
    out = []
    for seed in range(8):
        grid = Grid.torus(2, 256)
        spec = EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=seed)
        f = sample_field(spec, grid)
        pair = solve_pair(f, tol=1e-12)
        hset = build_halfspace_set(f, pair, L=128.0, tol=1e-12)
        fhb = restrict_to_half_box(f, 128.0)
        res = halfspace_residuals(fhb, hset, 0)
        curve = sublinearity_curve(pair, [8.0, 16.0, 32.0, 64.0])
        hcurve = half_sublinearity_curve(hset, [8.0, 16.0, 32.0, 64.0])
        out.append(dict(seed=seed, field=f, pair=pair, hset=hset,
                        residuals=res, curve=curve, hcurve=hcurve))
    return out


@pytest.fixture(scope="module")
def excess_suite(checkerboard_suite):
    out = []
    for entry in checkerboard_suite:
        seed = entry["seed"]
        trace = band_limited_trace(seed, 128.0)
        sample = harmonic_sample(entry["field"], 128.0, trace, tol=1e-11)
        rep = excess_decay_experiment(sample, entry["hset"], [8.0, 16.0, 32.0, 64.0])
        out.append(dict(seed=seed, sample=sample, report=rep))
    return out


def test_criterion_01_constant_coefficient_identities():
    grid = Grid.torus(2, 32)
    a0 = 0.7 * np.eye(2)
    f = sample_field(EnsembleSpec.constant(a0), grid)
    pair = solve_pair(f)
    errs = [np.abs(pair.cset.phi[i].values).max() for i in range(2)]
    errs += [np.abs(s.values).max() for fp in pair.sigmas.values() for s in fp.sigma.values()]
    errs.append(np.abs(pair.a_hom - a0).max())
    hset = build_halfspace_set(f, pair, L=16.0)
    errs.append(np.abs(hset.phi_h[0].values).max())
    base_err = max(errs)
    # excess of an exact tangential-affine function
    b = hset.basis.vectors[0]
    cells = hset.grid.coords(cell_offsets(2))
    u = ScalarField(hset.grid, b[0] * cells[0] + b[1] * cells[1])
    ev = excess(u, 8.0, hset)
    grad_sq = float(b @ b)
    ok = base_err <= 1e-10 and ev.value <= 1e-12 * grad_sq
    check(1, "constant-coefficient identities", ok,
          f"max field error {base_err:.2e}, excess {ev.value:.2e}")


def test_criterion_02_laminate_oracle():
    t0 = time.perf_counter()
    grid = Grid.torus(2, 256, h=0.5)
    f = sample_field(EnsembleSpec.laminate(axis=0, values=(0.25, 1.0)), grid)
    cset = solve_correctors(f, tol=1e-13)
    a_hom = homogenized_matrix(cset)
    target = np.diag([0.4, 0.625])
    da = np.abs(a_hom - target).max()
    from test_corrector import laminate_profile_oracle

    prof, _ = laminate_profile_oracle(grid)
    dphi = np.abs(cset.phi[0].values - prof[:, None]).max()
    elapsed = time.perf_counter() - t0
    ok = da <= 1e-6 and dphi <= 1e-8 and elapsed <= 30.0
    check(2, "laminate closed-form oracle", ok,
          f"a_hom error {da:.2e}, profile error {dphi:.2e}, {elapsed:.1f}s")


def test_criterion_03_checkerboard_duality():
    t0 = time.perf_counter()
    # coefficient cells resolved by 8 grid cells: the harmonic-interface
    # discretization bias (O(h)) sits well below the statistical band
    grid = Grid.torus(2, 256, h=0.125)
    spec = EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=0)
    est = monte_carlo_homogenized(spec, grid, seeds=range(16), tol=1e-10)
    off = np.abs(est.matrix - 0.5 * np.eye(2))
    band = 3.0 * np.maximum(est.stderr, 1e-16)
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(off <= band)) and elapsed <= 300.0
    check(3, "checkerboard duality", ok,
          f"max offset {off.max():.2e} vs 3SE {band.max():.2e}, "
          f"{len(est.samples)} seeds, {elapsed:.1f}s")


def test_criterion_04_flux_potential_identity(checkerboard_suite):
    from homlab.corrector import flux_potential_residual

    worst = 0.0
    for entry in checkerboard_suite:
        pair = entry["pair"]
        for i in range(2):
            res = flux_potential_residual(pair.sigmas[i], pair.q[i].comps)
            worst = max(worst, res)
            # skew: sigma_10 = -sigma_01 is not stored, one potential per pair
            assert list(pair.sigmas[i].sigma) == [(0, 1)]
    ok = worst <= 1e-8
    check(4, "flux-potential identity", ok, f"worst residual {worst:.2e} over 8 seeds")


def test_criterion_05_sublinearity_decay(checkerboard_suite):
    ratios = [e["curve"].ratio(64.0, 8.0) for e in checkerboard_suite]
    hratios = [e["hcurve"].ratio(64.0, 8.0) for e in checkerboard_suite]
    mean_r = float(np.mean(ratios))
    mean_h = float(np.mean(hratios))
    increments = np.mean(
        [np.diff(np.concatenate([[0.0], e["curve"].partial_sums])) for e in checkerboard_suite],
        axis=0,
    )
    monotone = bool(np.all(increments > 0))
    # increments settle into decline after the first measured scale
    tail_decreasing = bool(np.all(np.diff(increments[1:]) < 0))
    ok = mean_r <= 0.5 and mean_h <= 0.6 and monotone and tail_decreasing
    check(5, "sublinearity decay", ok,
          f"delta ratio {mean_r:.3f} (<=0.5), half ratio {mean_h:.3f} (<=0.6), "
          f"increments {np.round(increments, 3).tolist()}")


def test_criterion_06_halfspace_boundary_condition(checkerboard_suite):
    worst_flat = max(e["residuals"].flat_flux_relative for e in checkerboard_suite)
    worst_sigma = max(e["residuals"].sigma_identity for e in checkerboard_suite)
    ok = worst_flat <= 1e-8 and worst_sigma <= 1e-6
    check(6, "half-space boundary condition", ok,
          f"flat flux {worst_flat:.2e} (<=1e-8), sigma identity {worst_sigma:.2e} (<=1e-6)")


def test_criterion_07_dyadic_mode_consistency(checkerboard_suite):
    entry = checkerboard_suite[0]
    f = entry["field"]
    pair = entry["pair"]
    fhb = restrict_to_half_box(f, 128.0)
    curve = sublinearity_curve(pair, dyadic_radii(f.grid))
    cfg = DyadicConfig.from_curve(curve, r0=8.0, n_max=3)
    dy = dyadic_construction(fhb, f, pair, entry["hset"].basis.vectors[0], cfg, tol=1e-12)
    const = dy.empirical_constant
    ok = dy.consistency_quarter <= 0.05 and np.isfinite(const) and const > 0
    check(7, "dyadic-mode consistency", ok,
          f"quarter-domain difference {dy.consistency_quarter:.4f} (<=0.05), "
          f"B_r0 difference {dy.consistency_r0:.4f}, empirical constant {const:.3f}")


def test_criterion_08_excess_decay(excess_suite):
    t0 = time.perf_counter()
    # closed-form oracle: constant coefficients, quadratic trace
    grid = Grid.torus(2, 64)
    f = sample_field(EnsembleSpec.constant(np.eye(2)), grid)
    pair = solve_pair(f)
    hset = build_halfspace_set(f, pair, L=32.0)
    s = harmonic_sample(f, 32.0, lambda x, y: x * x - y * y, tol=1e-12)
    rep = excess_decay_experiment(s, hset, [8.0, 16.0, 32.0])
    base = rep.excess[-1]
    oracle_ok = all(
        abs(v / base - (r / 32.0) ** 2) <= 0.05 * (r / 32.0) ** 2
        for r, v in zip(rep.radii, rep.excess)
    )
    alphas = [e["report"].fitted_alpha for e in excess_suite]
    mean_alpha = float(np.mean(alphas))
    elapsed = time.perf_counter() - t0
    ok = oracle_ok and mean_alpha >= 0.4
    check(8, "excess decay", ok,
          f"quadratic oracle within 5%: {oracle_ok}, mean fitted alpha {mean_alpha:.3f} "
          f"(>=0.4) over {len(alphas)} seeds, oracle part {elapsed:.1f}s")


def test_criterion_09_coercivity_and_mean_value(checkerboard_suite, excess_suite):
    worst_const = np.inf
    for entry in checkerboard_suite:
        rep = coercivity_check(entry["hset"], r=32.0)
        assert rep.ok
        worst_const = min(worst_const, rep.value)
    bound = (1.0 / 16.0) ** 3
    cmeans_R = [mean_value_check(e["sample"], [8.0, 16.0, 32.0, 64.0, 128.0]).c_mean
                for e in excess_suite]
    # domain doubling: same trace spectrum on half-size windows
    cmeans_half = []
    for e in excess_suite[:8]:
        seed = e["seed"]
        grid = Grid.torus(2, 128)
        f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=seed), grid)
        s = harmonic_sample(f, 64.0, band_limited_trace(seed, 64.0), tol=1e-11)
        cmeans_half.append(mean_value_check(s, [8.0, 16.0, 32.0, 64.0]).c_mean)
    m_R, m_h = float(np.mean(cmeans_R)), float(np.mean(cmeans_half))
    stable = abs(m_R - m_h) <= 0.10 * max(m_R, m_h)
    ok = worst_const >= bound and np.isfinite(m_R) and stable
    check(9, "coercivity and mean value", ok,
          f"coercivity constant {worst_const:.3f} (>= {bound:.2e}), "
          f"C_Mean {m_R:.3f} vs doubled-domain {m_h:.3f} (within 10%)")


def test_criterion_10_liouville_recovery(checkerboard_suite):
    entry = checkerboard_suite[0]
    hset = entry["hset"]
    grid = hset.grid
    cells = grid.coords(cell_offsets(2))
    b = hset.basis.vectors[0]
    u = ScalarField(grid, b[0] * cells[0] + b[1] * cells[1] + hset.phi_h[0].values + 3.0)
    rep = liouville_check(u, hset, [16.0, 32.0, 64.0])
    rec_ok = (np.abs(rep.b_tilde - b).max() <= 1e-8
              and abs(rep.constant - 3.0) <= 1e-8
              and max(rep.residual_profile.values()) <= 1e-10)
    # quadratic fixture must be flagged as growing too fast
    cf = sample_field(EnsembleSpec.constant(np.eye(2)), Grid.torus(2, 64))
    cpair = solve_pair(cf)
    chset = build_halfspace_set(cf, cpair, L=32.0)
    ccells = chset.grid.coords(cell_offsets(2))
    quad = ScalarField(chset.grid, ccells[0] ** 2 - ccells[1] ** 2)
    qrep = liouville_check(quad, chset, [8.0, 16.0, 32.0])
    ok = rec_ok and not qrep.subquadratic
    check(10, "Liouville recovery", ok,
          f"fit residual {max(rep.residual_profile.values()):.2e} (<=1e-10), "
          f"quadratic flagged: {not qrep.subquadratic}")


def test_criterion_11_oracle_equivalence():
    # dense direct solve on every assembled system with <= 1024 unknowns
    worst = 0.0
    rng = np.random.default_rng(0)
    g1 = Grid.torus(2, 16)
    f1 = sample_field(EnsembleSpec.checkerboard(seed=1), g1)
    s1 = assemble(f1, BoundarySpec.periodic())
    b = rng.standard_normal(s1.rhs.size)
    s1.rhs = b - b.mean()
    g2 = Grid.half_box(2, 32)
    f2 = sample_field(EnsembleSpec.checkerboard(seed=2), g2)
    s2 = assemble(
        f2,
        BoundarySpec.half_box(g2, flat=NoFlux(0.5), top=Dirichlet(1.0)),
        SourceTerm(volume=rng.standard_normal(g2.shape)),
    )
    for sys in (s1, s2):
        assert sys.rhs.size <= 1024
        u, _ = solve(sys, tol=1e-13)
        worst = max(worst, float(np.abs(u.values - dense_solve(sys)).max()))
    # excess minimizer vs brute-force line search
    grid = Grid.torus(2, 32)
    f = sample_field(EnsembleSpec.checkerboard(seed=4), grid)
    pair = solve_pair(f, tol=1e-12)
    hset = build_halfspace_set(f, pair, L=16.0)
    u = harmonic_sample(f, 8.0, band_limited_trace(3, 8.0)).u
    ev = excess(u, 4.0, hset)
    from homlab.excess import _corrected_gradient
    from homlab.pde import ball_values, gradient, mean_product

    fam = ball_values(VectorField(u.grid, _corrected_gradient(hset, 0, u.grid)), u.grid, 4.0)
    g = ball_values(gradient(u), u.grid, 4.0)
    ts = np.arange(-4.0, 4.0 + 1e-9, 1e-3)
    a = mean_product(fam, fam)
    lin = mean_product(g, fam)
    cc = mean_product(g, g)
    t_best = ts[int(np.argmin(cc - 2 * ts * lin + ts**2 * a))]
    t_err = abs(t_best - ev.coefficients[0])
    ok = worst <= 1e-9 and t_err <= 2e-3
    check(11, "oracle equivalence", ok,
          f"dense max-norm {worst:.2e} (<=1e-9), brute-force gap {t_err:.2e} (<=2e-3)")


def test_criterion_12_determinism(tmp_path):
    from homlab.cli import main

    cfg = {
        "ensemble": {"kind": "checkerboard", "lam": 0.25,
                     "params": {"values": [0.25, 1.0], "cell_size": 1.0}},
        "grid": {"dim": 2, "n": 32, "h": 1.0},
        "seeds": [0, 1],
        "radii": [8.0],
        "halfspace": {"L": 16.0, "mode": "direct"},
        "excess": {"R": 8.0, "radii": [4.0, 8.0]},
        "tol": 1e-11,
    }
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["pipeline", "--config", str(p), "--out-dir", str(out)]) == 0
        outs.append(out)
    names = sorted(q.name for q in outs[0].glob("*.csv"))
    identical = bool(names) and all(
        (outs[0] / nm).read_bytes() == (outs[1] / nm).read_bytes() for nm in names
    )
    check(12, "determinism", identical, f"{len(names)} CSV files byte-identical across runs")
