import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from homlab.grid import Grid, cell_offsets
from homlab.field import EnsembleSpec, sample_field
from homlab.corrector import solve_pair
from homlab.halfspace import build_halfspace_set
from homlab.pde import (
    BoundarySpec,
    Dirichlet,
    NoFlux,
    ScalarField,
    VectorField,
    ball_mean_square,
    ball_values,
    gradient,
    interior_ball_mask,
    mean_product,
    solve,
)
from homlab.excess import (
    EXCESS_FLOOR,
    TRACE_DECAY,
    TRACE_MODES,
    _corrected_gradient,
    band_limited_trace,
    coercivity_check,
    excess,
    excess_decay_experiment,
    harmonic_sample,
    liouville_check,
    window_operator,
    mean_value_check,
    smallness_radius,
)


def make_setup(n=64, seed=7, values=(0.25, 1.0), constant=None, tol=1e-12):
    grid = Grid.torus(2, n)
    if constant is not None:
        spec = EnsembleSpec.constant(constant)
    else:
        spec = EnsembleSpec.checkerboard(values=values, seed=seed)
    f = sample_field(spec, grid)
    pair = solve_pair(f, tol=tol)
    hset = build_halfspace_set(f, pair, L=n / 2.0)
    return f, pair, hset


def slab_affine_plus_corrector(hset, i=0, constant=0.0):
    grid = hset.grid
    cells = grid.coords(cell_offsets(2))
    b = hset.basis.vectors[i]
    vals = b[0] * cells[0] + b[1] * cells[1] + hset.phi_h[i].values + constant
    return ScalarField(grid, vals)


# -- harmonic samples ---------------------------------------------------------


def test_harmonic_sample_affine_exact_for_constant_field():
    f, pair, hset = make_setup(constant=np.eye(2))
    b = hset.basis.vectors[0]
    s = harmonic_sample(f, R=16.0, trace=lambda x, y: b[0] * x + b[1] * y)
    cells = s.u.grid.coords(cell_offsets(2))
    target = b[0] * cells[0] + b[1] * cells[1]
    assert np.abs(s.u.values - target).max() <= 1e-9


def test_harmonic_sample_constant_trace():
    f, pair, hset = make_setup(constant=0.5 * np.eye(2))
    s = harmonic_sample(f, R=16.0, trace=lambda x, y: 2.0)
    assert np.abs(s.u.values - 2.0).max() <= 1e-10


def _count_operator_builds(monkeypatch):
    from homlab import pde

    builds = []
    init = pde.Operator.__init__

    def counting_init(self, field, bc):
        builds.append(field.grid)
        init(self, field, bc)

    monkeypatch.setattr(pde.Operator, "__init__", counting_init)
    return builds


def _drop_kept(*owners):
    """Forget the window operators and families kept on fields and sets."""
    for owner in owners:
        vars(owner).pop("_window_operator", None)
        vars(owner).pop("_family_by_radius", None)


def test_window_operator_builds_one_operator_per_field_and_R(monkeypatch):
    """Three samples on one (field, R) build one window operator; a second
    R and then a second field build one more each; the field lets go of a
    replaced operator, and the last one goes with its field."""
    grid = Grid.torus(2, 32)
    f1 = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=5), grid)
    f2 = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=6), grid)
    builds = _count_operator_builds(monkeypatch)
    cases = [(f1, 8.0, 1), (f1, 8.0, 2), (f1, 8.0, 3), (f1, 4.0, 4), (f2, 4.0, 5)]
    samples, counts = [], []
    for f, R, seed in cases:
        samples.append(harmonic_sample(f, R, band_limited_trace(seed, R)))
        counts.append(len(builds))
        if len(samples) == 1:
            first_op = weakref.ref(window_operator(f1, 8.0))
    assert counts == [1, 1, 1, 2, 3]
    gc.collect()
    assert first_op() is None
    # each sample is the solve on a freshly built operator of its window
    for (f, R, seed), sample in zip(cases, samples):
        _drop_kept(f)
        op = window_operator(f, R)
        trace = band_limited_trace(seed, R)
        bc = BoundarySpec.half_box(op.grid, flat=NoFlux(0.0), top=Dirichlet(trace),
                                   lateral=Dirichlet(trace))
        u, _ = solve(op.system(bc), tol=1e-11)
        assert np.array_equal(sample.u.values, u.values)
    del op, f, cases
    last_op = weakref.ref(window_operator(f2, 4.0))
    del f2
    gc.collect()
    assert last_op() is None


def test_window_operators_of_live_fields_do_not_evict_one_another(monkeypatch):
    # samples interleaved on two fields at one R keep one window each
    grid = Grid.torus(2, 32)
    fields = [sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=s), grid)
              for s in (5, 6)]
    builds = _count_operator_builds(monkeypatch)
    for seed, f in enumerate(fields * 2):
        harmonic_sample(f, 8.0, band_limited_trace(seed, 8.0))
    assert len(builds) == 2


def test_gradient_family_is_kept_read_only_and_goes_with_its_set():
    # the set keeps, per radius of the table, the family gathered on the
    # half-ball with its Gram matrix and condition number, all read-only
    f, pair, hset = make_setup(n=32, seed=3)
    s = harmonic_sample(f, 8.0, band_limited_trace(2, 8.0))
    excess_decay_experiment(s, hset, [4.0, 8.0])
    grid, record = vars(hset)["_family_by_radius"]
    assert grid == s.u.grid and sorted(record) == [4.0, 8.0]
    full = VectorField(grid, _corrected_gradient(hset, 0, grid))
    for r, (fam, M, cond) in record.items():
        assert len(fam) == 1
        assert all(np.array_equal(x, y) for x, y in zip(fam[0], ball_values(full, grid, r)))
        assert M.shape == (1, 1) and M[0, 0] == mean_product(fam[0], fam[0])
        assert cond == float(np.linalg.cond(M))
        assert all(not a.flags.writeable for a in [M, *fam[0]])
    with pytest.raises(ValueError):
        record[8.0][0][0][0][0] = 0.0
    with pytest.raises(ValueError):
        record[8.0][1][0, 0] = 0.0
    gathered = weakref.ref(record[8.0][0][0][0])
    del record, fam, M, pair, hset
    gc.collect()
    assert gathered() is None


def test_a_second_decay_table_reads_the_kept_family(monkeypatch):
    # 3d n = 64, R = 32: the first table builds each family member once
    # and keeps its gathers (under 5 MiB, where the full window family
    # took 7.29 MiB); a second table on the same set, window and radii
    # builds no member and gathers the sample gradient alone
    ex = sys.modules["homlab.excess"]  # the package exports the function ``excess``
    grid = Grid.torus(3, 64)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=2), grid)
    hset = build_halfspace_set(f, solve_pair(f, tol=1e-10), L=32.0, tol=1e-10)
    radii = [8.0, 16.0, 32.0]
    samples = [harmonic_sample(f, 32.0, band_limited_trace(seed, 32.0, dim=3), tol=1e-10)
               for seed in (1, 2)]
    builds = []
    monkeypatch.setattr(ex, "_corrected_gradient",
                        lambda h, i, g: builds.append(i) or _corrected_gradient(h, i, g))
    tracemalloc.start()
    try:
        excess_decay_experiment(samples[0], hset, radii)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert builds == [0, 1]
    assert kept <= 5 * 2**20
    gathers = []
    monkeypatch.setattr(ex, "ball_values",
                        lambda v, g, r: gathers.append((v, r)) or ball_values(v, g, r))
    second = excess_decay_experiment(samples[1], hset, radii)
    assert builds == [0, 1]
    assert [r for _, r in gathers] == radii
    g = gradient(samples[1].u)
    assert all(np.array_equal(x, y) for v, _ in gathers for x, y in zip(v.comps, g.comps))
    # the same table as a fresh set record gives
    _drop_kept(hset)
    cold = excess_decay_experiment(samples[1], hset, radii)
    assert np.array_equal(second.excess, cold.excess)


def _same_reports(a, b):
    (rep_a, mv_a, co_a), (rep_b, mv_b, co_b) = a, b
    assert np.array_equal(rep_a.excess, rep_b.excess)
    assert all(np.array_equal(x, y) for x, y in zip(rep_a.minimizers, rep_b.minimizers))
    assert np.array_equal(rep_a.fitted_alpha, rep_b.fitted_alpha, equal_nan=True)
    assert rep_a.pair_ratios == rep_b.pair_ratios
    assert np.array_equal(mv_a.ratios, mv_b.ratios) and mv_a.c_mean == mv_b.c_mean
    assert co_a.value == co_b.value


def test_kept_window_gives_the_same_reports_warm_and_fresh():
    from homlab import pde
    from homlab.grid import face_offsets

    f, pair, hset = make_setup(n=64, seed=5)
    radii = [4.0, 8.0, 16.0]

    def reports(seed, fresh):
        out = []
        for step in (
            lambda: harmonic_sample(f, 16.0, band_limited_trace(seed, 16.0)),
            lambda: excess_decay_experiment(out[0], hset, radii),
            lambda: mean_value_check(out[0], radii),
            lambda: coercivity_check(hset, 8.0),
        ):
            if fresh:
                _drop_kept(f, hset)
                pde._cached_ball_mask.cache_clear()
            out.append(step())
        return out[1:]

    for seed in (1, 2):
        cold = reports(seed, fresh=True)
        reports(seed, fresh=False)  # warms the window of this sample
        warm = reports(seed, fresh=False)
        window = window_operator(f, 16.0).grid
        grid, record = vars(hset)["_family_by_radius"]
        assert grid == window and sorted(record) == radii
        _same_reports(warm, cold)
    # the first direction on the set's own grid, as the family builder gives it
    grid = hset.grid
    fam = _corrected_gradient(hset, 0, grid)
    assert warm[2].value == ball_mean_square(VectorField(grid, fam), grid, 8.0)
    # the quadrature serves one read-only mask per key
    mask = interior_ball_mask(window, face_offsets(2, 0), 8.0)
    assert mask is interior_ball_mask(window, face_offsets(2, 0), 8.0)
    with pytest.raises(ValueError):
        mask[0, 0] = True
    # another set on the same window gives the same values warm and fresh
    sample = harmonic_sample(f, 16.0, band_limited_trace(3, 16.0))
    _, _, other = make_setup(n=64, seed=6)
    values = lambda h: (excess_decay_experiment(sample, h, radii).excess,
                        excess(sample.u, 8.0, h).value)
    warm_values = [values(h) for h in (hset, other)]
    _drop_kept(f, hset, other)
    cold_values = [values(h) for h in (hset, other)]
    for (w_exc, w_c), (c_exc, c_c) in zip(warm_values, cold_values):
        assert np.array_equal(w_exc, c_exc) and w_c == c_c


def test_mean_value_reads_the_energies_the_excess_table_kept(monkeypatch):
    # after the excess table the mean-value check builds no gradient for
    # the table's radii and matches a fresh sample bit for bit, also with
    # radii the table lacks (below its floor of 4h, above the window)
    import sys

    from homlab.excess import HarmonicSample

    ex = sys.modules["homlab.excess"]  # the package exports the function ``excess``

    f, pair, hset = make_setup(n=64, seed=5)
    s = harmonic_sample(f, 16.0, band_limited_trace(4, 16.0))
    excess_decay_experiment(s, hset, [4.0, 8.0, 16.0])
    assert sorted(vars(s)["_ball_energies"]) == [4.0, 8.0, 16.0]
    fresh = lambda: HarmonicSample(s.u, s.residual)
    gradients = []
    monkeypatch.setattr(ex, "gradient", lambda u: gradients.append(u) or gradient(u))
    for radii, built in (([4.0, 8.0, 16.0], 0), ([2.0, 4.0, 8.0, 16.0, 32.0], 1)):
        kept = mean_value_check(s, radii)
        assert len(gradients) == built
        cold = mean_value_check(fresh(), radii)
        assert np.array_equal(kept.ratios, cold.ratios) and kept.c_mean == cold.c_mean
        gradients.clear()
    assert all(isinstance(v, float) for v in vars(s)["_ball_energies"].values())


def test_gram_matrices_go_with_the_family_when_windows_alternate():
    f, pair, hset = make_setup(n=64, seed=5)
    radii = {8.0: [4.0, 8.0], 16.0: [4.0, 8.0, 16.0]}
    for step, R in enumerate([8.0, 16.0, 8.0, 16.0]):
        s = harmonic_sample(f, R, band_limited_trace(step, R))
        warm = excess_decay_experiment(s, hset, radii[R])
        grid, record = vars(hset)["_family_by_radius"]
        assert grid == s.u.grid and sorted(record) == radii[R]
        assert all(not M.flags.writeable for _, M, _ in record.values())
        _drop_kept(hset)
        cold = excess_decay_experiment(s, hset, radii[R])
        assert np.array_equal(warm.excess, cold.excess)
        assert all(np.array_equal(a, b) for a, b in zip(warm.minimizers, cold.minimizers))


def test_harmonic_sample_band_limited_residual():
    f, pair, hset = make_setup(n=64, seed=3)
    trace = band_limited_trace(seed=0, box_half_width=16.0)
    s = harmonic_sample(f, R=16.0, trace=trace, tol=1e-11)
    assert s.residual <= 1e-11


# -- excess -------------------------------------------------------------------


def test_excess_exact_member_is_floored():
    f, pair, hset = make_setup(n=64, seed=7)
    u = slab_affine_plus_corrector(hset, 0)
    scale = 1.0  # |b_1 + grad phi|^2 is order one
    for r in (8.0, 16.0):
        ev = excess(u, r, hset)
        assert ev.value <= 1e-12 * scale
        assert np.abs(ev.minimizer - hset.basis.vectors[0]).max() <= 1e-6


def test_excess_constant_function_constant_field():
    f, pair, hset = make_setup(constant=np.eye(2))
    u = ScalarField(hset.grid, np.full(hset.grid.shape, 3.0))
    ev = excess(u, 8.0, hset)
    assert ev.value <= 1e-14
    assert np.abs(ev.minimizer).max() <= 1e-12


def test_excess_quadratic_homogeneity_and_invariance():
    f, pair, hset = make_setup(n=64, seed=5)
    trace = band_limited_trace(seed=1, box_half_width=16.0)
    s = harmonic_sample(f, R=16.0, trace=trace)
    u = s.u
    ev1 = excess(u, 8.0, hset)
    u3 = ScalarField(u.grid, 3.0 * u.values)
    ev3 = excess(u3, 8.0, hset)
    assert ev3.value == pytest.approx(9.0 * ev1.value, rel=1e-12)
    assert np.allclose(ev3.minimizer, 3.0 * ev1.minimizer, rtol=1e-10, atol=1e-12)
    u_shift = ScalarField(u.grid, u.values + 17.0)
    ev_s = excess(u_shift, 8.0, hset)
    # gradients of u + c reproduce those of u to the last ulp of the
    # shifted differences
    assert ev_s.value == pytest.approx(ev1.value, rel=1e-12)


def test_excess_first_order_optimality():
    f, pair, hset = make_setup(n=64, seed=9)
    trace = band_limited_trace(seed=2, box_half_width=16.0)
    u = harmonic_sample(f, R=16.0, trace=trace).u
    ev = excess(u, 8.0, hset)

    def functional(t):
        fam = _corrected_gradient(hset, 0, u.grid)
        g = gradient(u)
        resid = VectorField(u.grid, [g.comps[k] - t * fam[k] for k in range(2)])
        return ball_mean_square(resid, u.grid, 8.0)

    rng = np.random.default_rng(0)
    t_star = ev.coefficients[0]
    for _ in range(100):
        t = t_star + rng.uniform(-1.0, 1.0)
        assert functional(t) >= ev.value - 1e-12


def test_excess_minimizer_matches_brute_force_search():
    f, pair, hset = make_setup(n=32, seed=4)
    trace = band_limited_trace(seed=3, box_half_width=8.0)
    u = harmonic_sample(f, R=8.0, trace=trace).u
    ev = excess(u, 4.0, hset)
    ts = np.arange(-4.0, 4.0 + 1e-9, 1e-3)
    fam = ball_values(VectorField(u.grid, _corrected_gradient(hset, 0, u.grid)), u.grid, 4.0)
    g = ball_values(gradient(u), u.grid, 4.0)
    a = mean_product(fam, fam)
    blin = mean_product(g, fam)
    cc = mean_product(g, g)
    vals = cc - 2 * ts * blin + ts**2 * a
    t_best = ts[int(np.argmin(vals))]
    assert abs(t_best - ev.coefficients[0]) <= 2e-3


@pytest.mark.parametrize("dim, n, R", [(2, 64, 16.0), (3, 16, 8.0)])
def test_excess_equals_full_array_evaluation(dim, n, R):
    # the Gram matrix, right-hand side and residual of the tilt functional
    # computed on full arrays masked per product, as the definition reads
    from homlab.grid import face_offsets

    def fint(a, b, masks):
        return sum(float((a[k][mk] * b[k][mk]).mean()) for k, mk in enumerate(masks) if mk.any())

    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=5), Grid.torus(dim, n))
    hset = build_halfspace_set(f, solve_pair(f, tol=1e-12), L=n / 2.0)
    for seed in (1, 2):
        u = harmonic_sample(f, R, band_limited_trace(seed, R, dim=dim)).u
        g = gradient(u).comps
        fam = [_corrected_gradient(hset, i, u.grid) for i in range(dim - 1)]
        m = len(fam)
        for r in (4.0, R / 2, R):
            masks = [interior_ball_mask(u.grid, face_offsets(dim, k), r) for k in range(dim)]
            M = np.array([[fint(fam[i], fam[j], masks) for j in range(m)] for i in range(m)])
            c = np.array([fint(g, fam[i], masks) for i in range(m)])
            t = np.linalg.solve(M, c)
            resid = [g[k] - sum(t[i] * fam[i][k] for i in range(m)) for k in range(dim)]
            ev = excess(u, r, hset)
            assert np.array_equal(ev.coefficients, t)
            assert ev.value == max(fint(resid, resid, masks), 0.0)
            # the set keeps the masked members, M and the condition number
            # that picks the solve
            kept, M_kept, cond = vars(hset)["_family_by_radius"][1][r]
            assert all(np.array_equal(kept[i][k], fam[i][k][mk])
                       for i in range(m) for k, mk in enumerate(masks))
            assert np.array_equal(M_kept, M) and cond == float(np.linalg.cond(M))
            assert np.array_equal(ev.minimizer, sum(t[i] * hset.basis.vectors[i] for i in range(m)))


# -- excess decay -------------------------------------------------------------


def test_excess_decay_quadratic_oracle():
    # constant coefficients, quadratic trace with zero flat flux:
    # the decay ratio is exactly (r/R)^2 up to quadrature
    f, pair, hset = make_setup(n=64, constant=np.eye(2))
    s = harmonic_sample(f, R=32.0, trace=lambda x, y: x * x - y * y, tol=1e-12)
    radii = [8.0, 16.0, 32.0]
    rep = excess_decay_experiment(s, hset, radii)
    for r, v in zip(rep.radii, rep.excess):
        expect = v if r == 32.0 else None
    base = rep.excess[-1]
    for r, v in zip(rep.radii, rep.excess):
        assert v / base == pytest.approx((r / 32.0) ** 2, rel=0.05)
    assert rep.fitted_alpha == pytest.approx(1.0, abs=0.05)


def test_excess_decay_floored_member_skips_fit():
    f, pair, hset = make_setup(n=64, seed=7)
    u = slab_affine_plus_corrector(hset, 0)
    sample = type("S", (), {"u": u})()
    rep = excess_decay_experiment(sample, hset, [8.0, 16.0])
    assert np.isnan(rep.fitted_alpha)
    assert np.all(rep.excess <= EXCESS_FLOOR)


def test_excess_decay_checkerboard_alpha_positive():
    f, pair, hset = make_setup(n=128, seed=7)
    trace = band_limited_trace(seed=7, box_half_width=32.0)
    s = harmonic_sample(f, R=32.0, trace=trace)
    rep = excess_decay_experiment(s, hset, [8.0, 16.0, 32.0])
    assert rep.fitted_alpha > 0.2
    assert all(v > 0 for v in rep.pair_ratios.values())


# -- coercivity and mean value ------------------------------------------------


def test_coercivity_constant_field_exact():
    f, pair, hset = make_setup(constant=np.eye(2))
    rep = coercivity_check(hset, r=8.0)
    assert rep.value == pytest.approx(1.0, rel=1e-12)  # |b_1|^2, phi_h = 0
    assert rep.lower_bound == (1.0 / 16.0) ** 3
    assert rep.ok


def test_coercivity_value_is_kept_per_radius(monkeypatch):
    # a second call on the same (set, r) builds no gradient and returns
    # the first value bit for bit; a new radius builds one
    import sys

    ex = sys.modules["homlab.excess"]  # the package exports the function ``excess``
    f, pair, hset = make_setup(n=64, seed=7)
    first = coercivity_check(hset, r=16.0)
    gradients = []
    monkeypatch.setattr(ex, "gradient", lambda u: gradients.append(u) or gradient(u))
    again = coercivity_check(hset, r=16.0)
    assert gradients == [] and again.value == first.value
    assert coercivity_check(hset, r=8.0).value != first.value and len(gradients) == 1
    assert all(isinstance(v, float) for v in vars(hset)["_coercivity"].values())


def test_coercivity_checkerboard_above_bound():
    f, pair, hset = make_setup(n=64, seed=7)
    rep = coercivity_check(hset, r=16.0)
    assert rep.ok
    assert rep.value > (1.0 / 16.0) ** 3
    # the bound is compared without slack: a value just below it fails
    from dataclasses import replace

    assert not replace(rep, value=np.nextafter(rep.lower_bound, 0.0)).ok


def test_smallness_radius_helper():
    from homlab.halfspace import half_sublinearity_curve

    f, pair, hset = make_setup(n=128, seed=7)
    curve = half_sublinearity_curve(hset, [8.0, 16.0, 32.0])
    r_star = smallness_radius(curve, threshold=curve.delta_h[1])
    assert r_star in (8.0, 16.0)
    assert smallness_radius(curve, threshold=1e-9) is None


def test_mean_value_affine_and_degenerate():
    f, pair, hset = make_setup(constant=np.eye(2))
    b = hset.basis.vectors[0]
    s = harmonic_sample(f, R=16.0, trace=lambda x, y: b[0] * x + b[1] * y)
    rep = mean_value_check(s, [4.0, 8.0, 16.0])
    assert np.allclose(rep.ratios, 1.0, atol=1e-9)
    assert not rep.zero_energy
    s0 = harmonic_sample(f, R=16.0, trace=lambda x, y: 1.5)
    rep0 = mean_value_check(s0, [4.0, 8.0, 16.0])
    assert rep0.zero_energy and np.all(rep0.ratios == 1.0)


@pytest.mark.parametrize("level", [1.5e3, 1.5e6])
def test_mean_value_zero_energy_flag_scale_free(level):
    f, pair, hset = make_setup(constant=np.eye(2))
    s = harmonic_sample(f, R=16.0, trace=lambda x, y: level)
    rep = mean_value_check(s, [4.0, 8.0, 16.0])
    assert rep.zero_energy and np.all(rep.ratios == 1.0)


def test_band_limited_trace_takes_grid_dimension():
    x = np.linspace(-4.0, 4.0, 5)
    assert band_limited_trace(3, 8.0, dim=3)(x, x, 0.0 * x).shape == (5,)
    with pytest.raises(TypeError):
        band_limited_trace(3, 8.0)(x, x, x)


def cosine_sum_trace(seed, box_half_width, dim):
    """The trace as a sum of its cosine terms, one term at a time."""
    rng = np.random.default_rng(seed)
    terms = []
    for k in np.ndindex(*([2 * TRACE_MODES + 1] * dim)):
        kv = np.array(k) - TRACE_MODES
        if np.any(kv):
            amp = rng.standard_normal() / (1.0 + float(kv @ kv)) ** TRACE_DECAY
            terms.append((kv, amp, rng.uniform(0.0, 2.0 * np.pi)))
    return lambda *x: sum(amp * np.cos(np.pi * sum(k * c for k, c in zip(kv, x))
                                       / (2.0 * box_half_width) + phase)
                          for kv, amp, phase in terms)


@pytest.mark.parametrize("dim", [2, 3])
def test_band_limited_trace_is_its_cosine_sum(dim):
    rng = np.random.default_rng(dim)
    x = rng.uniform(-24.0, 24.0, (dim, 500))
    for seed, w in ((0, 16.0), (7, 5.5)):
        want = cosine_sum_trace(seed, w, dim)(*x)
        got = band_limited_trace(seed, w, dim=dim)(*x)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_mean_value_checkerboard_bounded():
    f, pair, hset = make_setup(n=64, seed=2)
    trace = band_limited_trace(seed=5, box_half_width=16.0)
    s = harmonic_sample(f, R=16.0, trace=trace)
    rep = mean_value_check(s, [4.0, 8.0, 16.0])
    assert rep.c_mean < 20.0


# -- Liouville ----------------------------------------------------------------


def test_liouville_recovery_of_corrected_affine():
    f, pair, hset = make_setup(n=64, seed=7)
    u = slab_affine_plus_corrector(hset, 0, constant=3.0)
    rep = liouville_check(u, hset, [8.0, 16.0])
    assert np.abs(rep.b_tilde - hset.basis.vectors[0]).max() <= 1e-8
    assert rep.constant == pytest.approx(3.0, abs=1e-8)
    assert max(rep.residual_profile.values()) <= 1e-10
    assert rep.minimizer_drift <= 1e-8


def test_liouville_quadratic_flagged():
    f, pair, hset = make_setup(constant=np.eye(2))
    grid = hset.grid
    cells = grid.coords(cell_offsets(2))
    u = ScalarField(grid, cells[0] ** 2 - cells[1] ** 2)
    rep = liouville_check(u, hset, [4.0, 8.0, 16.0])
    assert not rep.subquadratic


def test_liouville_stability_from_harmonic_sample():
    f, pair, hset = make_setup(n=64, seed=7)
    b = hset.basis.vectors[0]
    phi = hset.phi_h[0]
    grid = hset.grid

    def trace(x, y):
        i = np.clip(np.rint((x - grid.origin[0]) / grid.h - 0.5).astype(int), 0, grid.shape[0] - 1)
        j = np.clip(np.rint((y - grid.origin[1]) / grid.h - 0.5).astype(int), 0, grid.shape[1] - 1)
        return b[0] * x + b[1] * y + phi.values[i, j]

    s = harmonic_sample(f, R=32.0, trace=trace)
    rep = liouville_check(s.u, hset, [8.0, 16.0])
    assert rep.minimizer_drift <= 0.05
    assert np.abs(rep.b_tilde - b).max() <= 0.1


def test_caccioppoli_ratios_bounded_for_harmonic_samples():
    from homlab.pde import caccioppoli_ratio

    f, pair, hset = make_setup(n=128, seed=7)
    trace = band_limited_trace(seed=4, box_half_width=32.0)
    s = harmonic_sample(f, R=32.0, trace=trace, tol=1e-11)
    ratios = []
    for r in (8.0, 16.0):
        rep = caccioppoli_ratio(s.u, window_operator(f, 32.0).field, r=r)
        assert not rep.warning
        ratios.append(rep.ratio)
    assert max(ratios) < 10.0


def test_excess_monotone_window_property():
    # freezing the large-radius minimizer upper-bounds the infimum
    f, pair, hset = make_setup(n=64, seed=6)
    trace = band_limited_trace(seed=6, box_half_width=16.0)
    u = harmonic_sample(f, R=16.0, trace=trace).u
    ev_R = excess(u, 16.0, hset)
    t_R = ev_R.coefficients[0]
    for r in (4.0, 8.0):
        ev_r = excess(u, r, hset)
        fam = _corrected_gradient(hset, 0, u.grid)
        g = gradient(u)
        resid = VectorField(u.grid, [g.comps[k] - t_R * fam[k] for k in range(2)])
        frozen = ball_mean_square(resid, u.grid, r)
        assert frozen >= ev_r.value - 1e-12
