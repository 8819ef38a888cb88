import numpy as np
import pytest

from homlab.grid import Grid, cell_offsets
from homlab.field import EnsembleSpec, sample_field
from homlab.pde import ScalarField, VectorField, divergence
from homlab.corrector import (
    CorrectorSet,
    FluxPotentialSet,
    basis_change_check,
    coefficient_times_vector,
    dyadic_radii,
    flux_correction,
    flux_potential_residual,
    homogenized_matrix,
    monte_carlo_homogenized,
    solve_corrector,
    solve_correctors,
    solve_flux_potential,
    solve_pair,
    sublinearity_curve,
    two_scale_error,
)


def laminate_profile_oracle(grid, values=(0.25, 1.0)):
    """Path-integrated 1-d corrector profile at cell centers: the flux
    a (1 + phi') is a single constant fixed by periodicity."""
    x = grid.points_along(0, 0.5)
    n = grid.shape[0]
    h = grid.h
    # face coefficients along axis 0 at positions i*h
    xf = grid.points_along(0, 0.0)
    stripe_of = lambda t: int(np.floor(t)) % 2
    a_face = []
    for xi in xf:
        lo = stripe_of(xi - h / 2.0)
        hi = stripe_of(xi + h / 2.0)
        sl, sh = values[lo], values[hi]
        a_face.append(2.0 * sl * sh / (sl + sh))
    a_face = np.asarray(a_face)
    qbar = n / np.sum(1.0 / a_face)
    incr = h * (qbar / a_face - 1.0)
    prof = np.concatenate([[0.0], np.cumsum(incr[1:])])
    prof -= prof.mean()
    return prof, qbar


def test_constant_field_corrector_zero():
    grid = Grid.torus(2, 16)
    a0 = np.array([[0.8, 0.2], [-0.2, 0.8]])  # non-symmetric admissible member
    f = sample_field(EnsembleSpec.constant(a0), grid)
    phi, stats = solve_corrector(f, np.array([1.0, 0.0]))
    assert stats.iterations == 0 and np.all(phi.values == 0.0)
    cset = solve_correctors(f)
    assert np.abs(homogenized_matrix(cset) - a0).max() <= 1e-14


def test_laminate_corrector_matches_1d_closed_form():
    grid = Grid.torus(2, 64, h=0.5)
    f = sample_field(EnsembleSpec.laminate(axis=0, values=(0.25, 1.0)), grid)
    phi, _ = solve_corrector(f, np.array([1.0, 0.0]), tol=1e-13)
    prof, qbar = laminate_profile_oracle(grid)
    assert qbar == pytest.approx(0.4, abs=1e-14)
    assert np.abs(phi.values - prof[:, None]).max() <= 1e-8
    # stripe-parallel direction: a e2 is divergence-free across stripes
    phi2, stats2 = solve_corrector(f, np.array([0.0, 1.0]))
    assert stats2.iterations == 0 and np.all(phi2.values == 0.0)


def test_laminate_homogenized_matrix_closed_form():
    grid = Grid.torus(2, 64, h=0.5)
    f = sample_field(EnsembleSpec.laminate(axis=0, values=(0.25, 1.0)), grid)
    cset = solve_correctors(f, tol=1e-13)
    a_hom = homogenized_matrix(cset)
    target = np.diag([0.4, 0.625])
    assert np.abs(a_hom - target).max() <= 1e-10


def test_corrector_superposition_is_linear():
    grid = Grid.torus(2, 32)
    f = sample_field(EnsembleSpec.checkerboard(seed=3), grid)
    cset = solve_correctors(f, tol=1e-12)
    b = np.array([1.0, 1.0]) / np.sqrt(2.0)
    direct, _ = solve_corrector(f, b, tol=1e-12)
    combo = cset.phi_for(b)
    assert np.abs(direct.values - combo.values).max() <= 1e-9


def test_homogenized_matrix_symmetric_for_symmetric_field():
    grid = Grid.torus(2, 64)
    for values in ((0.25, 1.0), ([[0.6, 0.1], [0.1, 0.5]], 1.0)):
        f = sample_field(EnsembleSpec.checkerboard(values=values, seed=11), grid)
        a_hom = homogenized_matrix(solve_correctors(f, tol=1e-12))
        assert abs(a_hom[0, 1] - a_hom[1, 0]) <= 1e-9


CROSS_CHECKERBOARDS = [([[0.6, 0.1], [0.1, 0.5]], 1.0), ([[0.6, 0.1], [-0.1, 0.5]], 1.0)]


@pytest.mark.parametrize("values", CROSS_CHECKERBOARDS, ids=["symmetric", "nonsymmetric"])
def test_solve_pair_cross_term_field(values):
    grid = Grid.torus(2, 32)
    pair = solve_pair(sample_field(EnsembleSpec.checkerboard(values=values, seed=2), grid))
    for i in range(2):
        assert flux_potential_residual(pair.sigmas[i], pair.q[i].comps) <= 1e-8


def test_cross_term_laminate_matches_lamination_formula():
    # layers normal to e1 with non-diagonal symmetric matrices (Milton, The
    # Theory of Composites, ch. 9): a*_11 = <1/a11>^-1, a*_1j = a*_11
    # <a_1j/a11>, a*_ij = <a_ij - a_i1 a_1j/a11> + <a_i1/a11> a*_11 <a_1j/a11>.
    # Diagonal laminates are exact; here the error is first order in h:
    # 0.025, 0.0127 and 0.0064 at h = 1, 1/2 and 1/4
    layers = np.array([[[0.6, 0.1], [0.1, 0.5]], [[0.9, -0.1], [-0.1, 0.3]]])
    a11 = 1.0 / np.mean(1.0 / layers[:, 0, 0])
    a1 = np.mean(layers[:, 0, 1] / layers[:, 0, 0])
    a22 = np.mean(layers[:, 1, 1] - layers[:, 1, 0] * layers[:, 0, 1] / layers[:, 0, 0]) \
        + a1 * a11 * a1
    target = np.array([[a11, a11 * a1], [a11 * a1, a22]])
    errors = []
    for h in (1.0, 0.5, 0.25):
        grid = Grid.torus(2, int(16 / h), h=h)
        spec = EnsembleSpec.laminate(axis=0, values=tuple(layers), lam=0.2)
        a_hom = homogenized_matrix(solve_correctors(sample_field(spec, grid), tol=1e-12))
        assert abs(a_hom[0, 1] - a_hom[1, 0]) <= 1e-12
        errors.append(np.abs(a_hom - target).max())
    assert errors[-1] <= 0.007
    assert all(coarse >= 1.8 * fine for coarse, fine in zip(errors, errors[1:]))


def test_checkerboard_duality_smoke():
    # Dykhne: geometric mean 0.5 Id; tight run lives in the acceptance suite
    grid = Grid.torus(2, 64)
    spec = EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=0)
    est = monte_carlo_homogenized(spec, grid, seeds=range(6), tol=1e-10)
    off = np.abs(est.matrix - 0.5 * np.eye(2))
    band = 4.0 * np.maximum(est.stderr, 1e-3)
    assert np.all(off <= band + 0.05)


def test_flux_correction_divergence_and_mean():
    grid = Grid.torus(2, 32)
    f = sample_field(EnsembleSpec.checkerboard(seed=5), grid)
    pair = solve_pair(f, tol=1e-12)
    for i in range(2):
        q = pair.q[i]
        assert abs(q.comps[0].mean()) <= 1e-14 and abs(q.comps[1].mean()) <= 1e-14
        nq = max(np.abs(q.comps[0]).max(), np.abs(q.comps[1]).max())
        assert np.abs(divergence(q)).max() <= 1e-9 * nq


def test_flux_potential_zero_for_constant_and_laminate_e1():
    grid = Grid.torus(2, 32, h=0.5)
    f = sample_field(EnsembleSpec.laminate(axis=0, values=(0.25, 1.0)), grid)
    pair = solve_pair(f, tol=1e-13)
    s = pair.sigmas[0].sigma[(0, 1)].values
    assert np.abs(s).max() <= 1e-9
    const = sample_field(EnsembleSpec.constant(np.eye(2)), Grid.torus(2, 16))
    cpair = solve_pair(const)
    assert np.abs(cpair.sigmas[0].sigma[(0, 1)].values).max() == 0.0


def test_flux_potential_identity_residual():
    grid = Grid.torus(2, 64)
    f = sample_field(EnsembleSpec.checkerboard(seed=7), grid)
    pair = solve_pair(f, tol=1e-12)
    for i in range(2):
        res = flux_potential_residual(pair.sigmas[i], pair.q[i].comps)
        assert res <= 1e-8


def test_flux_potential_skew_and_rejects_nondivfree():
    grid = Grid.torus(2, 16)
    fps_grid = grid
    f = sample_field(EnsembleSpec.checkerboard(seed=2), grid)
    pair = solve_pair(f, tol=1e-12)
    fps = pair.sigmas[0]
    assert np.array_equal(fps.component(1, 0), -fps.component(0, 1))
    rng = np.random.default_rng(0)
    bad = VectorField(grid, [rng.standard_normal(grid.shape) for _ in range(2)])
    with pytest.raises(ValueError):
        solve_flux_potential(grid, bad)


def test_flux_potential_3d_identity():
    grid = Grid.torus(3, 8)
    f = sample_field(EnsembleSpec.checkerboard(seed=4), grid)
    pair = solve_pair(f, tol=1e-12)
    for i in range(3):
        res = flux_potential_residual(pair.sigmas[i], pair.q[i].comps)
        assert res <= 1e-8
        # skew access in all pairs
        for j in range(3):
            for k in range(3):
                assert np.array_equal(
                    pair.sigmas[i].component(j, k), -pair.sigmas[i].component(k, j)
                )


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_sigma_for_coordinate_directions_and_linearity(dim, n):
    grid = Grid.torus(dim, n)
    f = sample_field(EnsembleSpec.checkerboard(seed=4), grid)
    pair = solve_pair(f, tol=1e-12)
    for i in range(dim):
        fps = pair.sigma_for(np.eye(dim)[i])
        assert isinstance(fps, FluxPotentialSet) and list(fps.sigma) == list(pair.sigmas[i].sigma)
        for key, s in fps.sigma.items():
            assert s.offsets == pair.sigmas[i].sigma[key].offsets
            assert np.array_equal(s.values, pair.sigmas[i].sigma[key].values)
    b = np.arange(1.0, dim + 1.0) / np.linalg.norm(np.arange(1.0, dim + 1.0))
    for key, s in pair.sigma_for(b).sigma.items():
        expect = sum(b[w] * pair.sigmas[w].sigma[key].values for w in range(dim))
        assert np.allclose(s.values, expect, rtol=0.0, atol=1e-15)


def zero_pair(grid, phi_const=0.0):
    d = grid.dim
    phi = {i: ScalarField(grid, np.full(grid.shape, phi_const)) for i in range(d)}
    from homlab.grid import pair_offsets

    sig = {
        i: FluxPotentialSet(
            grid,
            {
                (j, k): ScalarField(grid, np.zeros(grid.shape), pair_offsets(d, j, k))
                for j in range(d)
                for k in range(j + 1, d)
            },
        )
        for i in range(d)
    }
    from homlab.corrector import WholeSpacePair

    f = sample_field(EnsembleSpec.constant(np.eye(d)), grid)
    cset = CorrectorSet(f, phi)
    return WholeSpacePair(cset, np.eye(d), {}, sig)


def test_sublinearity_zero_and_constant_oracle():
    grid = Grid.torus(2, 64)
    radii = [8.0, 16.0, 32.0]
    pz = zero_pair(grid, 0.0)
    cz = sublinearity_curve(pz, radii)
    assert np.all(cz.delta == 0.0) and np.all(cz.delta_gno == 0.0)
    c = 0.7
    pc = zero_pair(grid, c)
    cc = sublinearity_curve(pc, radii)
    expect = c * np.sqrt(2.0) / np.asarray(radii)
    assert np.allclose(cc.delta, expect, rtol=1e-12)
    assert np.all(cc.delta_gno <= 1e-12)


def test_sublinearity_rejects_non_positive_radii():
    # log2 of r <= 0 is nan or -inf, which a remainder test alone lets pass
    pz = zero_pair(Grid.torus(2, 32))
    for radii in ([-8.0, 8.0], [0.0, 8.0], [12.0]):
        with pytest.raises(ValueError):
            sublinearity_curve(pz, radii)


def test_sublinearity_gno_below_delta_and_decay():
    grid = Grid.torus(2, 128)
    f = sample_field(EnsembleSpec.checkerboard(seed=1), grid)
    pair = solve_pair(f, tol=1e-11)
    radii = dyadic_radii(grid)  # 8..64
    curve = sublinearity_curve(pair, radii)
    assert np.all(curve.delta_gno <= curve.delta + 1e-15)
    assert curve.delta[-1] / curve.delta[0] <= 0.6
    assert np.all(np.diff(curve.partial_sums) > 0)


def test_basis_change_identity_and_random_bases():
    grid = Grid.torus(2, 64)
    f = sample_field(EnsembleSpec.checkerboard(seed=9), grid)
    pair = solve_pair(f, tol=1e-11)
    lhs, bound = basis_change_check(pair, np.eye(2), r=16.0)
    # the identity frame is the coordinate sum itself, to the last bit
    assert lhs == sublinearity_curve(pair, [16.0]).delta[0]
    assert lhs <= bound + 1e-12
    pair3 = solve_pair(sample_field(EnsembleSpec.checkerboard(seed=9), Grid.torus(3, 16)))
    assert basis_change_check(pair3, np.eye(3), r=4.0)[0] == sublinearity_curve(pair3, [4.0]).delta[0]
    rng = np.random.default_rng(42)
    for _ in range(100):
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        lhs, bound = basis_change_check(pair, Q, r=16.0)
        assert lhs <= bound + 1e-12
    with pytest.raises(ValueError):
        basis_change_check(pair, np.array([[1.0, 1.0], [0.0, 1.0]]), r=16.0)


def test_two_scale_constant_field_zero_error():
    grid = Grid.torus(2, 64)
    f = sample_field(EnsembleSpec.constant(np.eye(2)), grid)
    pair = solve_pair(f)
    rep = two_scale_error(f, pair, R=16.0, trace=lambda x, y: x + 0.5 * y)
    assert rep.grad_w <= 1e-10 and rep.grad_diff <= 1e-10
    assert not rep.scale_warning


def test_two_scale_laminate_parallel_trace_exact():
    grid = Grid.torus(2, 64, h=0.5)
    f = sample_field(EnsembleSpec.laminate(axis=0, values=(0.25, 1.0)), grid)
    pair = solve_pair(f, tol=1e-12)
    rep = two_scale_error(f, pair, R=8.0, trace=lambda x, y: y)
    # exact solution u = u_hom = x_d, so both errors are solver-level
    assert rep.grad_w <= 1e-7 and rep.grad_diff <= 1e-7
    assert not rep.scale_warning
    rep_small = two_scale_error(f, pair, R=4.0, trace=lambda x, y: y)
    assert rep_small.scale_warning


def test_two_scale_checkerboard_improvement():
    grid = Grid.torus(2, 128)
    f = sample_field(EnsembleSpec.checkerboard(seed=13), grid)
    pair = solve_pair(f, tol=1e-10)
    rep = two_scale_error(f, pair, R=32.0, trace=lambda x, y: 0.05 * (x * x - y * y))
    assert rep.grad_w < rep.grad_diff


def test_homogenized_estimate_stays_admissible():
    grid = Grid.torus(2, 64)
    spec = EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=0)
    est = monte_carlo_homogenized(spec, grid, seeds=range(4), tol=1e-10)
    sym = 0.5 * (est.matrix + est.matrix.T)
    eps_stat = 3.0 * float(np.abs(est.stderr).max()) + 1e-6
    assert np.linalg.eigvalsh(sym).min() >= 0.25 - eps_stat
    assert np.linalg.norm(est.matrix, 2) <= 1.0 + eps_stat
    assert est.sample_count == 4


def test_gno_partial_sums_reported():
    grid = Grid.torus(2, 64)
    f = sample_field(EnsembleSpec.checkerboard(seed=3), grid)
    pair = solve_pair(f, tol=1e-11)
    curve = sublinearity_curve(pair, [8.0, 16.0, 32.0])
    assert curve.partial_sums_gno is not None
    assert np.all(np.diff(curve.partial_sums_gno) > 0)
    assert np.all(curve.partial_sums_gno <= curve.partial_sums + 1e-12)
