import numpy as np
import pytest

from homlab.grid import Grid
from homlab.field import EnsembleSpec, sample_field
from homlab import pde
from homlab.pde import ScalarField, VectorField, ball_values, divergence
from homlab.corrector import (
    CorrectorSet,
    FluxPotentialSet,
    _corrector_system,
    dyadic_radii,
    flux_correction,
    flux_potential_residual,
    homogenized_matrix,
    monte_carlo_homogenized,
    periodic_operator,
    solve_correctors,
    solve_flux_potential,
    solve_pair,
    sublinearity_curve,
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
    cset = solve_correctors(f)
    assert cset.stats[0].iterations == 0 and np.all(cset.phi[0].values == 0.0)
    assert np.abs(homogenized_matrix(cset) - a0).max() <= 1e-14


def test_laminate_corrector_matches_1d_closed_form():
    grid = Grid.torus(2, 64, h=0.5)
    f = sample_field(EnsembleSpec.laminate(axis=0, values=(0.25, 1.0)), grid)
    cset = solve_correctors(f, tol=1e-13)
    prof, qbar = laminate_profile_oracle(grid)
    assert qbar == pytest.approx(0.4, abs=1e-14)
    assert np.abs(cset.phi[0].values - prof[:, None]).max() <= 1e-8
    # stripe-parallel direction: a e2 is divergence-free across stripes
    assert cset.stats[1].iterations == 0 and np.all(cset.phi[1].values == 0.0)


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
    direct, _ = pde.solve(_corrector_system(f, b, periodic_operator(f)), tol=1e-12)
    combo = cset.phi_for(b)
    assert np.abs(direct.values - direct.values.mean() - combo.values).max() <= 1e-9


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
        assert pair.cset.stats[i].iterations <= 15


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
    # sigma_10 = -sigma_01 is not stored: one potential per pair j < k
    assert list(pair.sigmas[0].sigma) == [(0, 1)]
    rng = np.random.default_rng(0)
    bad = VectorField(grid, [rng.standard_normal(grid.shape) for _ in range(2)])
    with pytest.raises(ValueError):
        solve_flux_potential(grid, bad)


def test_flux_potential_refuses_a_corrector_current_with_a_divergence():
    # one face value of a solved current moved by 1e-3 of its norm gives a
    # divergence of 1.4e-3 |q| h, far above the 1e-6 |q| the check allows,
    # whether q or the current before a_hom is subtracted sets the size
    from homlab import corrector

    grid = Grid.torus(2, 32)
    f = sample_field(EnsembleSpec.checkerboard(seed=3), grid)
    pair = solve_pair(f, tol=1e-12)
    q = pair.q[0]
    solve_flux_potential(grid, q)
    size = corrector._norm(pair.cset.current(np.eye(2)[0]))
    q.comps[0][5, 7] += 1e-3 * corrector._norm(q)
    with pytest.raises(ValueError, match="current is not divergence-free"):
        solve_flux_potential(grid, q)
    with pytest.raises(ValueError, match="current is not divergence-free"):
        corrector._flux_potential(grid, q, size)


@pytest.mark.parametrize("tol", [1e-10, 1e-11, 1e-12])
def test_pair_of_a_laminate_across_its_stripes(tol):
    # the current across the stripes is constant, so q of that direction
    # is round-off: the divergence check scales with the current, whose
    # divergence q shares, and a_hom is the lamination formula
    grid = Grid.torus(2, 64)
    f = sample_field(EnsembleSpec.laminate(axis=1, values=(0.25, 1.0), width=2.0), grid)
    pair = solve_pair(f, tol=tol)
    assert np.abs(pair.a_hom - np.diag([0.625, 0.4])).max() <= 1e-10


def test_flux_potential_3d_identity():
    grid = Grid.torus(3, 8)
    nonsymmetric = ([[0.6, 0.1, 0.0], [-0.1, 0.5, 0.1], [0.0, -0.1, 0.7]], 1.0)
    for spec in (EnsembleSpec.checkerboard(seed=4),
                 EnsembleSpec.checkerboard(values=nonsymmetric, seed=4)):
        f = sample_field(spec, grid)
        pair = solve_pair(f, tol=1e-12)
        for i in range(3):
            res = flux_potential_residual(pair.sigmas[i], pair.q[i].comps)
            assert res <= 1e-8
            assert list(pair.sigmas[i].sigma) == [(0, 1), (0, 2), (1, 2)]
    # the nonsymmetric field: preconditioned float32 BiCGSTAB takes 4-5
    # iterations per direction
    assert not f.is_symmetric()
    assert all(pair.cset.stats[i].iterations <= 10 for i in range(3))


def test_pair_currents_are_computed_on_read(monkeypatch):
    """pair.q keeps nothing: each read of q[i] builds direction i alone,
    bit-identical to ``flux_correction``, and the mapping behaves like a
    dict of the d directions.  The pair's a_hom, whose columns come from
    the currents ``solve_pair`` builds for the flux potentials, is
    ``homogenized_matrix`` bit for bit."""
    from homlab import corrector

    pair = solve_pair(sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=4),
                                   Grid.torus(3, 8)))
    held = [x for v in vars(pair).values() for x in (v.values() if isinstance(v, dict) else (v,))]
    assert not any(isinstance(x, VectorField) for x in held)
    assert np.array_equal(pair.a_hom, homogenized_matrix(pair.cset))
    calls = []
    real_flux = corrector.flux

    def counting_flux(field, u):
        calls.append(u)
        return real_flux(field, u)

    monkeypatch.setattr(corrector, "flux", counting_flux)
    for i in range(3):
        calls.clear()
        q = pair.q[i]
        assert len(calls) == 1
        ref = flux_correction(pair.cset, pair.a_hom, i)
        assert all(np.array_equal(a, b) for a, b in zip(q.comps, ref.comps))
    assert len(pair.q) == 3 and list(pair.q) == [0, 1, 2] and 2 in pair.q and 3 not in pair.q
    for key in (3, -1, "0"):
        with pytest.raises(KeyError):
            pair.q[key]


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
    return WholeSpacePair(cset, np.eye(d), sig)


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


def reference_sublinearity(pair, radii, basis):
    """delta and delta_gno row by row from the full fields phi_for(b) and
    sigma_b = sum_w b_w sigma_w, summed in the same order."""
    grid = pair.cset.grid
    tot, tot_g = np.zeros(len(radii)), np.zeros(len(radii))
    for b in basis:
        fields = [(1.0, pair.cset.phi_for(b))]
        fields += [(2.0, ScalarField(grid, sum(b[w] * s.sigma[key].values
                                               for w, s in pair.sigmas.items()), f.offsets))
                   for key, f in pair.sigmas[0].sigma.items()]
        for m, r in enumerate(radii):
            for w, f in fields:
                [v] = ball_values(f, grid, r)
                if v.size:
                    tot[m] += w * float((v * v).mean())
                    tot_g[m] += w * float(((v - float(v.mean())) ** 2).mean())
    return np.sqrt(tot) / radii, np.sqrt(tot_g) / radii


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_sublinearity_matches_row_by_row_reference(dim, n):
    pair = solve_pair(sample_field(EnsembleSpec.checkerboard(seed=3), Grid.torus(dim, n)))
    radii = np.asarray(dyadic_radii(pair.cset.grid, r_min=2.0))
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((dim, dim)))
    for basis in (np.eye(dim), Q, Q[:1]):
        curve = sublinearity_curve(pair, radii, basis=basis)
        delta, delta_gno = reference_sublinearity(pair, radii, basis)
        assert np.array_equal(curve.delta, delta) and np.array_equal(curve.delta_gno, delta_gno)


def test_sublinearity_curve_keeps_no_pair_alive():
    # a kept curve holds its numbers only: the pair, its correctors, flux
    # potentials and field go once the caller drops them
    import gc
    import weakref

    pair = solve_pair(sample_field(EnsembleSpec.checkerboard(seed=3), Grid.torus(2, 32)))
    curve = sublinearity_curve(pair, [8.0, 16.0])
    refs = [weakref.ref(obj) for obj in (pair, pair.cset, pair.cset.field, pair.sigmas[0])]
    del pair
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4
    assert curve.delta.shape == (2,)


def test_sublinearity_builds_each_ball_mask_once():
    # 3d: a cell home and three pair homes at five radii are 20 masks, more
    # than the 16 the quadrature keeps; the curve builds each of them once
    pz = zero_pair(Grid.torus(3, 32))
    pde._cached_ball_mask.cache_clear()
    sublinearity_curve(pz, [1.0, 2.0, 4.0, 8.0, 16.0])
    assert pde._cached_ball_mask.cache_info().misses == 20


def test_sublinearity_gno_below_delta_and_decay():
    grid = Grid.torus(2, 128)
    f = sample_field(EnsembleSpec.checkerboard(seed=1), grid)
    pair = solve_pair(f, tol=1e-11)
    radii = dyadic_radii(grid)  # 8..64
    curve = sublinearity_curve(pair, radii)
    assert np.all(curve.delta_gno <= curve.delta + 1e-15)
    assert curve.delta[-1] / curve.delta[0] <= 0.6
    assert np.all(np.diff(curve.partial_sums) > 0)


def test_homogenized_estimate_stays_admissible():
    grid = Grid.torus(2, 64)
    spec = EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=0)
    est = monte_carlo_homogenized(spec, grid, seeds=range(4), tol=1e-10)
    sym = 0.5 * (est.matrix + est.matrix.T)
    eps_stat = 3.0 * float(np.abs(est.stderr).max()) + 1e-6
    assert np.linalg.eigvalsh(sym).min() >= 0.25 - eps_stat
    assert np.linalg.norm(est.matrix, 2) <= 1.0 + eps_stat
    assert len(est.samples) == 4

