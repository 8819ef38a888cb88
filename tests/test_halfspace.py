import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homlab.grid import Grid, cell_offsets, face_offsets, pair_offsets
from homlab.field import EnsembleSpec, sample_field, restrict_to_half_box, restrict_values
from homlab.corrector import (
    FluxPotentialSet,
    dyadic_radii,
    flux_potential_residual,
    solve_pair,
    sublinearity_curve,
)
from homlab import pde
from homlab.pde import ScalarField, VectorField
from homlab.halfspace import (
    DyadicConfig,
    build_halfspace_set,
    curl_of_potentials,
    dyadic_construction,
    face_poisson_solve,
    half_box_operator,
    half_sublinearity_curve,
    halfspace_residuals,
    restrict_pair,
    skew_correction,
    solve_halfspace_correction,
    solve_vector_potentials,
    tangential_basis,
)


# -- tangential basis ---------------------------------------------------------


def test_tangential_basis_identity():
    tb = tangential_basis(np.eye(2))
    assert np.allclose(tb.vectors, np.eye(2), atol=0.0)


def test_tangential_basis_diagonal():
    tb = tangential_basis(np.diag([2.0, 1.0]) / 2.0)
    assert np.allclose(tb.vectors[0], [1.0, 0.0], atol=0.0)


def test_tangential_basis_full_matrix_oracle():
    a = 0.6 * np.array([[1.0, 0.3], [0.3, 1.0]])
    tb = tangential_basis(a)
    b1 = tb.vectors[0]
    expect = np.array([1.0, -0.3]) / np.linalg.norm([1.0, -0.3])
    assert np.allclose(b1, expect, atol=1e-14)
    assert abs(np.array([0.0, 1.0]) @ a @ b1) <= 1e-14


def test_tangential_basis_3d_orthonormal():
    rng = np.random.default_rng(5)
    m = 0.5 * np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    a = 0.5 * (m + m.T) + 0.5 * np.eye(3)
    a = a / np.linalg.norm(a, 2)
    tb = tangential_basis(a)
    B = tb.vectors
    assert np.abs(B @ B.T - np.eye(3)).max() <= 1e-12
    v = a.T @ np.eye(3)[2]
    for i in range(2):
        assert abs(v @ B[i]) <= 1e-12


# -- correction solves --------------------------------------------------------


def test_constant_field_trivial_halfspace_set():
    grid = Grid.torus(2, 32)
    f = sample_field(EnsembleSpec.constant(0.7 * np.eye(2)), grid)
    pair = solve_pair(f)
    hset = build_halfspace_set(f, pair, L=16.0)
    assert np.abs(hset.varphi[0].values).max() <= 1e-12
    assert np.abs(hset.phi_h[0].values).max() <= 1e-12
    assert np.abs(hset.phi_h[1].values).max() <= 1e-12
    for fps in hset.sigma_h.values():
        for s in fps.sigma.values():
            assert np.abs(s.values).max() <= 1e-10
    curve = half_sublinearity_curve(hset, [8.0])
    assert curve.delta_h[0] <= 1e-10


def test_halfspace_set_on_the_callers_operator():
    # the set built on the caller's slab operator, passed for the torus
    # field, is the set built on its own, bit for bit; an operator on
    # another half-box is refused
    grid = Grid.torus(2, 32)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=3), grid)
    pair = solve_pair(f, tol=1e-12)
    fhb = restrict_to_half_box(f, 16.0)
    op = pde.Operator(fhb, pde.BoundarySpec.half_box(fhb.grid))
    own, given = build_halfspace_set(f, pair, L=16.0), build_halfspace_set(op, pair, L=16.0)
    assert given.grid == own.grid
    assert np.array_equal(given.varphi[0].values, own.varphi[0].values)
    for i in range(2):
        assert np.array_equal(given.phi_h[i].values, own.phi_h[i].values)
        for key, s in own.sigma_h[i].sigma.items():
            assert np.array_equal(given.sigma_h[i].sigma[key].values, s.values)
    assert given.liouville_gap == own.liouville_gap
    box = restrict_to_half_box(f, 8.0, tangential_periodic=False)
    box_op = pde.Operator(box, pde.BoundarySpec.half_box(box.grid))
    for L, periodic, other in ((16.0, False, op), (16.0, True, box_op)):
        with pytest.raises(ValueError, match="not on the half-box"):
            build_halfspace_set(other, pair, L=L, tangential_periodic=periodic)


def test_halfspace_set_refuses_the_torus_field_of_another_pair(monkeypatch):
    # another seed's field beside the pair would mix the two (its flat flux
    # reads 0.35 of the scale against 1e-13 for the pair's own field): it
    # is refused before any solve
    from homlab import halfspace

    grid = Grid.torus(2, 32)
    f, other = (sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=s), grid)
                for s in (3, 4))
    pair = solve_pair(f, tol=1e-12)
    monkeypatch.setattr(halfspace, "solve_many", lambda *a, **k: pytest.fail("solved"))
    with pytest.raises(ValueError, match="not the field of the pair"):
        build_halfspace_set(other, pair, L=16.0)


def test_halfspace_functions_take_the_field_or_its_operator():
    # the half-box field and its half_box_operator give the same results,
    # bit for bit, and the operator's field is the one read
    grid = Grid.torus(2, 32)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=3), grid)
    pair = solve_pair(f, tol=1e-12)
    fhb = restrict_to_half_box(f, 16.0)
    op = half_box_operator(fhb)
    assert op.field is fhb and half_box_operator(op) is op
    hset = build_halfspace_set(op, pair, L=16.0)
    assert halfspace_residuals(op, hset, 0) == halfspace_residuals(fhb, hset, 0)
    b1 = hset.basis.vectors[0]
    g_flat = restrict_pair(pair, b1, fhb.grid)[3]
    by_field, by_op = solve_halfspace_correction(fhb, g_flat), solve_halfspace_correction(op, g_flat)
    assert by_field.stats == by_op.stats
    assert np.array_equal(by_field.varphi.values, by_op.varphi.values)
    for a, b in zip(by_field.current.comps, by_op.current.comps):
        assert np.array_equal(a, b)
    cfg = DyadicConfig.from_curve(sublinearity_curve(pair, dyadic_radii(grid)), 4.0, 0)
    for direct in (None, hset.varphi[0]):
        a = dyadic_construction(fhb, f, pair, b1, cfg, direct=direct)
        b = dyadic_construction(op, f, pair, b1, cfg, direct=direct)
        assert (a.energies, a.consistency_r0, a.consistency_quarter) == (
            b.energies, b.consistency_r0, b.consistency_quarter)
        for n, sol in a.varphi_n.items():
            assert np.array_equal(b.varphi_n[n].values, sol.values)


def test_laminate_correction_vanishes():
    # stripes across x1: the whole-space corrector current has no
    # vertical component, so the flat datum is exactly zero
    grid = Grid.torus(2, 32, h=0.5)
    f = sample_field(EnsembleSpec.laminate(axis=0, values=(0.25, 1.0)), grid)
    pair = solve_pair(f, tol=1e-13)
    fhb = restrict_to_half_box(f, 8.0)
    b1 = tangential_basis(pair.a_hom).vectors[0]
    datum = restrict_pair(pair, b1, fhb.grid)[3]
    corr = solve_halfspace_correction(fhb, datum)
    assert np.abs(datum).max() <= 1e-10
    assert np.abs(corr.varphi.values).max() <= 1e-10


def test_restricted_transversal_direction_matches_1d_profile():
    # stripes across the vertical axis: b_d = e_2 and its corrector is the
    # one-dimensional sawtooth, restricted exactly
    from test_corrector import laminate_profile_oracle

    grid = Grid.torus(2, 32, h=0.5)
    f = sample_field(EnsembleSpec.laminate(axis=1, values=(0.25, 1.0)), grid)
    pair = solve_pair(f, tol=1e-13)
    hset = build_halfspace_set(f, pair, L=8.0)
    assert np.allclose(hset.basis.normal_like, [0.0, 1.0], atol=1e-12)
    prof, _ = laminate_profile_oracle(grid)
    half_rows = hset.grid.shape[1]
    phi_d = hset.phi_h[1]
    assert np.abs(phi_d.values - prof[None, :half_rows]).max() <= 1e-8


def test_checkerboard_residuals_slab():
    grid = Grid.torus(2, 128)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=7), grid)
    pair = solve_pair(f, tol=1e-12)
    hset = build_halfspace_set(f, pair, L=64.0)
    fhb = restrict_to_half_box(f, 64.0)
    res = halfspace_residuals(fhb, hset, 0)
    assert res.flat_flux_relative <= 1e-8
    assert res.interior_relative <= 1e-10
    assert res.sigma_identity <= 1e-6
    assert 0.0 < hset.liouville_gap[0] < 0.5


def test_checkerboard_residuals_box():
    grid = Grid.torus(2, 128)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=3), grid)
    pair = solve_pair(f, tol=1e-12)
    hset = build_halfspace_set(f, pair, L=32.0, tangential_periodic=False)
    fhb = restrict_to_half_box(f, 32.0, tangential_periodic=False)
    res = halfspace_residuals(fhb, hset, 0)
    assert res.flat_flux_relative <= 1e-8
    assert res.interior_relative <= 1e-10
    assert res.sigma_identity <= 1e-6


@pytest.mark.parametrize("periodic", [True, False], ids=["slab", "box"])
@pytest.mark.parametrize("values", [([[0.6, 0.1], [0.1, 0.5]], 1.0),
                                    ([[0.6, 0.1], [-0.1, 0.5]], 1.0)],
                         ids=["symmetric", "nonsymmetric"])
def test_halfspace_identity_2d_cross_term_field(values, periodic):
    # the flat-flux residual is left out: the half-box current of the
    # restricted corrector drops the flat-plane normal gradients that the
    # torus current averages into the first layer of tangential faces
    grid = Grid.torus(2, 64)
    f = sample_field(EnsembleSpec.checkerboard(values=values, seed=3), grid)
    pair = solve_pair(f, tol=1e-12)
    L = 32.0 if periodic else 16.0
    hset = build_halfspace_set(f, pair, L=L, tangential_periodic=periodic)
    res = halfspace_residuals(restrict_to_half_box(f, L, tangential_periodic=periodic), hset, 0)
    assert res.interior_relative <= 1e-10
    assert res.sigma_identity <= 1e-10
    assert hset.liouville_gap[0] > 0.0


# -- vector potentials --------------------------------------------------------


def dense_face_laplacian(grid, j):
    """Independent dense build of the face-homed operator used by the
    potentials (2d slab): periodic tangentially, Dirichlet/Neumann
    closures vertically."""
    n, M = grid.shape
    h2 = grid.h * grid.h
    if j == 0:
        shape = (n, M)

        def idx(i, m):
            return (i % n) * M + m

        N = n * M
        A = np.zeros((N, N))
        for i in range(n):
            for m in range(M):
                r = idx(i, m)
                A[r, r] += 2.0 / h2
                A[r, idx(i - 1, m)] -= 1.0 / h2
                A[r, idx(i + 1, m)] -= 1.0 / h2
                A[r, r] += 2.0 / h2
                if m == 0:
                    A[r, r] += 1.0 / h2  # odd ghost below
                    A[r, idx(i, 1)] -= 1.0 / h2
                elif m == M - 1:
                    A[r, r] += 1.0 / h2
                    A[r, idx(i, M - 2)] -= 1.0 / h2
                else:
                    A[r, idx(i, m - 1)] -= 1.0 / h2
                    A[r, idx(i, m + 1)] -= 1.0 / h2
        return A, shape
    shape = (n, M)  # top row pinned away

    def idx(i, m):
        return (i % n) * M + m

    N = n * M
    A = np.zeros((N, N))
    for i in range(n):
        for m in range(M):
            r = idx(i, m)
            A[r, r] += 2.0 / h2
            A[r, idx(i - 1, m)] -= 1.0 / h2
            A[r, idx(i + 1, m)] -= 1.0 / h2
            A[r, r] += 2.0 / h2
            if m == 0:
                A[r, idx(i, 1)] -= 2.0 / h2  # Neumann row
            elif m == M - 1:
                A[r, idx(i, M - 2)] -= 1.0 / h2  # pinned neighbor dropped
            else:
                A[r, idx(i, m - 1)] -= 1.0 / h2
                A[r, idx(i, m + 1)] -= 1.0 / h2
    return A, shape


@pytest.mark.parametrize("j", [0, 1])
def test_face_poisson_matches_dense_oracle(j):
    grid = Grid.half_box(2, 16)
    rng = np.random.default_rng(j)
    rhs_full = rng.standard_normal(grid.face_shape(j))
    sol = face_poisson_solve(grid, j, rhs_full)
    A, shape = dense_face_laplacian(grid, j)
    if j == 0:
        b = rhs_full
        dense = np.linalg.solve(A, b.ravel()).reshape(shape)
        assert np.abs(sol - dense).max() <= 1e-9
    else:
        b = rhs_full[:, :-1]
        dense = np.linalg.solve(A, b.ravel()).reshape(shape)
        assert np.abs(sol[:, :-1] - dense).max() <= 1e-9
        assert np.all(sol[:, -1] == 0.0)


def test_vector_potentials_zero_for_zero_current():
    grid = Grid.half_box(2, 16)
    G = VectorField(grid, [np.zeros(grid.face_shape(k)) for k in range(2)])
    v = solve_vector_potentials(grid, G)
    for j in range(2):
        assert np.all(v[j].values == 0.0)
    psi = curl_of_potentials(v, grid)
    assert np.all(psi.sigma[(0, 1)].values == 0.0)


def test_curl_antisymmetrization_fixture():
    # v_1 = x_2 and v_2 = x_1 (at their face homes) have symmetric
    # cross-derivatives, so the skew combination vanishes identically
    from homlab.pde import ScalarField

    grid = Grid.half_box(2, 16, tangential_periodic=False)
    x1 = grid.coords(face_offsets(2, 1))[0]
    x2 = grid.coords(face_offsets(2, 0))[1]
    v = {
        0: ScalarField(grid, x2, face_offsets(2, 0)),
        1: ScalarField(grid, x1, face_offsets(2, 1)),
    }
    psi = curl_of_potentials(v, grid)
    inner = psi.sigma[(0, 1)].values[1:-1, 1:-1]
    assert np.abs(inner).max() <= 1e-13


def correction_potentials(f, pair, L, i=0):
    """The correction of tangential direction i on the slab of height L,
    its vector potentials and its skew correction, as ``build_halfspace_set``
    computes them before it drops the potentials and the correction."""
    fhb = restrict_to_half_box(f, L)
    g_flat = restrict_pair(pair, tangential_basis(pair.a_hom).vectors[i], fhb.grid)[3]
    corr = solve_halfspace_correction(fhb, g_flat)
    return (corr, solve_vector_potentials(fhb.grid, corr.current),
            skew_correction(fhb.grid, corr.current))


def test_construction_identity_pointwise():
    grid = Grid.torus(2, 64)
    f = sample_field(EnsembleSpec.checkerboard(seed=1), grid)
    pair = solve_pair(f, tol=1e-12)
    corr, v, _ = correction_potentials(f, pair, 32.0)
    h = grid.h
    v1 = v[0].values
    v2 = v[1].values
    psi = curl_of_potentials(v, corr.varphi.grid).sigma[(0, 1)].values
    for (i, m) in [(3, 5), (10, 9), (40, 2)]:
        d1v2 = (v2[i, m] - v2[i - 1, m]) / h
        d2v1 = (v1[i, m] - v1[i, m - 1]) / h
        assert psi[i, m] == pytest.approx(d1v2 - d2v1, abs=1e-14)


def test_potential_equation_residual():
    # -lap v_j = G_j in the solver norm, checked with an independent
    # stencil application
    grid = Grid.torus(2, 64)
    f = sample_field(EnsembleSpec.checkerboard(seed=5), grid)
    pair = solve_pair(f, tol=1e-12)
    hset = build_halfspace_set(f, pair, L=32.0)
    _, vs, _ = correction_potentials(f, pair, 32.0)
    corr_current = hset.q_h[0]
    # rebuild G = q_h - restricted q
    q_r = restrict_pair(pair, hset.basis.vectors[0], hset.grid)[2]
    h2 = grid.h * grid.h
    for j in range(2):
        G_j = corr_current.comps[j] - q_r.comps[j]
        v = vs[j].values
        if j == 0:
            lap = np.zeros_like(v)
            lap += 2 * v - np.roll(v, 1, 0) - np.roll(v, -1, 0)
            vert = np.zeros_like(v)
            vert[:, 1:-1] = 2 * v[:, 1:-1] - v[:, :-2] - v[:, 2:]
            vert[:, 0] = 3 * v[:, 0] - v[:, 1]
            vert[:, -1] = 3 * v[:, -1] - v[:, -2]
            res = (lap + vert) / h2 - G_j
            assert np.abs(res).max() <= 1e-9 * max(1.0, np.abs(G_j).max())


def sigma_identity(hset, i=0):
    """The residual ``halfspace_residuals`` reports as ``sigma_identity``."""
    return flux_potential_residual(hset.sigma_h[i], hset.q_h[i].comps, hset.grid.height / 2.0)


def test_liouville_gap_vs_exact_stream():
    # the curl of the potentials misses the identity by the divergence
    # of v; the skew correction closes it, and the gap is the identity
    # residual of sigma with curl v swapped in for psi
    grid = Grid.torus(2, 128)
    f = sample_field(EnsembleSpec.checkerboard(seed=11), grid)
    pair = solve_pair(f, tol=1e-12)
    hset = build_halfspace_set(f, pair, L=64.0)
    exact = sigma_identity(hset)
    assert halfspace_residuals(restrict_to_half_box(f, 64.0), hset, 0).sigma_identity == exact
    assert exact <= 1e-8
    assert hset.liouville_gap[0] > 100 * exact
    import copy

    _, v, psi = correction_potentials(f, pair, 64.0)
    alt = copy.copy(hset)
    key = (0, 1)
    curl_v = curl_of_potentials(v, hset.grid).sigma[key]
    alt.sigma_h = {**hset.sigma_h, 0: FluxPotentialSet(hset.grid, {key: ScalarField(
        hset.grid, hset.sigma_h[0].sigma[key].values - psi.sigma[key].values + curl_v.values,
        pair_offsets(2, 0, 1),
    )})}
    assert sigma_identity(alt) == pytest.approx(hset.liouville_gap[0], rel=1e-6)


def combined_sigma(pair, b):
    """The values of sigma_b = sum_w b_w sigma_w per stored pair (j, k)."""
    return {key: sum(b[w] * s.sigma[key].values for w, s in pair.sigmas.items())
            for key in pair.sigmas[0].sigma}


def test_restrict_pair_restricts_sigma_for():
    grid = Grid.torus(2, 32)
    f = sample_field(EnsembleSpec.checkerboard(seed=3), grid)
    pair = solve_pair(f, tol=1e-12)
    half = restrict_to_half_box(f, 16.0).grid
    b = tangential_basis(pair.a_hom).vectors[0]
    phi, sigma, q, datum = restrict_pair(pair, b, half)
    # phi and sigma combine restricted components: value for value the
    # restriction of phi_for(b) and of sigma_b = sum_w b_w sigma_w
    assert np.array_equal(phi.values, restrict_values(pair.cset.phi_for(b).values, grid, half,
                                                      cell_offsets(2)))
    assert isinstance(sigma, FluxPotentialSet) and sigma.grid == half
    assert list(sigma.sigma) == [(0, 1)]
    offs = pair_offsets(2, 0, 1)
    assert np.array_equal(sigma.sigma[(0, 1)].values,
                          restrict_values(combined_sigma(pair, b)[(0, 1)], grid, half, offs))
    # the current of direction b is the superposition of the coordinate ones
    for k in range(2):
        expect = restrict_values(sum(b[w] * pair.q[w].comps[k] for w in range(2)), grid, half,
                                 face_offsets(2, k))
        assert np.allclose(q.comps[k], expect, rtol=0.0, atol=1e-13)
    # q is b's restricted current less a_hom b, and the datum its flat layer
    current = pair.cset.current(b)
    assert np.array_equal(q.comps[1], restrict_values(current.comps[1] - (pair.a_hom @ b)[1],
                                                      grid, half, face_offsets(2, 1)))
    assert np.array_equal(datum, restrict_values(current.comps[1], grid, half,
                                                 face_offsets(2, 1))[:, 0])


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
@pytest.mark.parametrize("periodic", [True, False], ids=["slab", "box"])
def test_correction_current_closes_the_flat_and_dirichlet_sides(dim, n, periodic):
    # the flat layer carries -g_flat and each zero-Dirichlet side (the top,
    # and the lateral sides of a plain half-box) the ghost flux
    # 2 a_kk u / h, outward, of the cell layer beside it
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=2), Grid.torus(dim, n))
    pair = solve_pair(f, tol=1e-11)
    L = n / 2.0 if periodic else n / 4.0
    fhb = restrict_to_half_box(f, L, tangential_periodic=periodic)
    grid = fhb.grid
    g_flat = restrict_pair(pair, tangential_basis(pair.a_hom).vectors[0], grid)[3]
    corr = solve_halfspace_correction(fhb, g_flat, tol=1e-11)
    G, u = corr.current.comps, corr.varphi.values
    assert np.array_equal(np.take(G[dim - 1], 0, axis=dim - 1), -g_flat)
    sides = [(dim - 1, 1)] + [(a, s) for a in range(dim - 1) if not periodic for s in (0, 1)]
    for k, side in sides:
        m = grid.shape[k]
        a_kk = np.take(fhb.entry(k, k), side * m, axis=k)
        ghost = (1 - 2 * side) * 2.0 * a_kk * np.take(u, side * (m - 1), axis=k) / grid.h
        assert np.array_equal(np.take(G[k], side * m, axis=k), ghost)


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_halfspace_set_builds_one_current_per_direction(monkeypatch, dim, n):
    # each tangential direction restricts its torus-sized current once and
    # reads its flat datum and q_h off that restriction; the transversal
    # one restricts phi and sigma only
    from homlab.corrector import CorrectorSet

    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=4), Grid.torus(dim, n))
    pair = solve_pair(f, tol=1e-10)
    built = []
    current = CorrectorSet.current
    monkeypatch.setattr(CorrectorSet, "current",
                        lambda cset, b: built.append(b) or current(cset, b))
    hset = build_halfspace_set(f, pair, L=n / 2.0, tol=1e-10)
    assert len(built) == dim - 1
    assert np.array_equal(np.stack(built), hset.basis.vectors[:dim - 1])
    assert set(hset.q_h) == set(range(dim - 1))


def test_pair_and_halfspace_set_peak_memory():
    # bytes per torus cell of numpy arrays on a 3d 32^3 grid, the field
    # excluded: the pair keeps phi and sigma but no currents, and the
    # half-space build holds at most one torus-sized current at a time
    grid = Grid.torus(3, 32)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=2), grid)
    cells = grid.shape[0] ** 3
    tracemalloc.start()
    try:
        pair = solve_pair(f, tol=1e-10)
        kept = tracemalloc.get_traced_memory()[0]
        build_halfspace_set(f, pair, L=16.0, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept <= 110 * cells
    assert peak <= 310 * cells


@pytest.mark.parametrize("cpus", [1, 2])
def test_sampled_pair_and_halfspace_set_peak_memory_at_64(monkeypatch, cpus):
    # bytes per torus cell of numpy arrays on a 3d 64^3 grid, the field
    # included: sampling, solve_pair and build_halfspace_set together stay
    # within 300 B/cell, with the solves on one or two threads
    monkeypatch.setattr(pde, "_cpus", lambda: cpus)
    grid = Grid.torus(3, 64)
    tracemalloc.start()
    try:
        f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=2), grid)
        build_halfspace_set(f, solve_pair(f, tol=1e-10), L=32.0, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 300 * grid.shape[0] ** 3


@st.composite
def skew_cases(draw):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([4, 6, 8] if d == 3 else [4, 6, 8, 12, 16]))
    h = draw(st.sampled_from([1.0, 0.5]))
    periodic = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    return Grid.half_box(d, n, h, tangential_periodic=periodic), seed


@settings(max_examples=60, deadline=None, database=None)
@given(case=skew_cases())
def test_skew_correction_reproduces_divergence_free_currents(case):
    # G = rowdiv(psi0) of a random skew psi0 is discretely divergence-free,
    # so the axial-gauge psi must carry the identity at every home point
    grid, seed = case
    d = grid.dim
    rng = np.random.default_rng(seed)
    psi0 = {}
    for j in range(d):
        for k in range(j + 1, d):
            offs = pair_offsets(d, j, k)
            psi0[(j, k)] = ScalarField(grid, rng.standard_normal(grid.home_shape(offs)), offs)
    G = VectorField(grid, [FluxPotentialSet(grid, psi0).row_divergence(j) for j in range(d)])
    psi = skew_correction(grid, G)
    assert set(psi.sigma) == {(j, d - 1) for j in range(d - 1)}
    for j in range(d):
        assert psi.row_divergence(j).shape == G.comps[j].shape
    num = sum(np.sum((psi.row_divergence(j) - G.comps[j]) ** 2) for j in range(d))
    den = sum(np.sum(G.comps[j] ** 2) for j in range(d))
    assert np.sqrt(num / den) <= 1e-12


@pytest.mark.parametrize("n, periodic", [(16, True), (16, False), (32, True), (32, False),
                                         (64, True)])
def test_halfspace_identity_3d(n, periodic):
    grid = Grid.torus(3, n)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=3), grid)
    pair = solve_pair(f, tol=1e-11)
    L = n / 2.0 if periodic else n / 4.0
    hset = build_halfspace_set(f, pair, L=L, tangential_periodic=periodic, tol=1e-11)
    for i in range(2):
        assert sigma_identity(hset, i) <= 1e-10
        assert hset.liouville_gap[i] > 0.0


# -- half-space sublinearity and truncation -----------------------------------


def test_half_sublinearity_decay_and_variants():
    grid = Grid.torus(2, 128)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=7), grid)
    pair = solve_pair(f, tol=1e-12)
    hset = build_halfspace_set(f, pair, L=64.0)
    curve = half_sublinearity_curve(hset, [8.0, 16.0, 32.0])
    assert np.all(curve.delta_h > 0)
    assert curve.ratio(32.0, 8.0) <= 0.6
    assert np.all(np.abs(curve.delta_h - curve.delta_h_halfball) / curve.delta_h < 0.5)
    with pytest.raises(ValueError):
        half_sublinearity_curve(hset, [128.0])


def reference_half_sublinearity(hset, radii):
    """delta_h row by row: the tangential rows on the half-ball, the
    transversal one on the torus ball from the full fields phi_for(b) and
    sigma_b (``combined_sigma``), summed in the same order."""
    grid, pair = hset.grid, hset.torus_pair
    d = grid.dim
    b = hset.basis.normal_like
    out = []
    for r in radii:
        tang = 0.0
        for i in range(d - 1):
            [v] = pde.ball_values(hset.phi_h[i], grid, r)
            tang += float(((v - float(v.mean())) ** 2).mean())
            for f in hset.sigma_h[i].sigma.values():
                [v] = pde.ball_values(f, grid, r)
                tang += 2.0 * float((v * v).mean())
        full = 0.0
        fields = [(1.0, pair.cset.phi_for(b))]
        fields += [(2.0, ScalarField(pair.cset.grid, v, pair.sigmas[0].sigma[key].offsets))
                   for key, v in combined_sigma(pair, b).items()]
        for w, f in fields:
            [v] = pde.ball_values(f, pair.cset.grid, r)
            full += w * float((v * v).mean())
        out.append(np.sqrt(tang + full) / r)
    return np.asarray(out)


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_half_sublinearity_matches_row_by_row_reference(dim, n):
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=3), Grid.torus(dim, n))
    pair = solve_pair(f, tol=1e-11)
    hset = build_halfspace_set(f, pair, L=n / 2.0, tol=1e-11)
    radii = [2.0, 4.0, 8.0]
    curve = half_sublinearity_curve(hset, radii)
    assert np.array_equal(curve.delta_h, reference_half_sublinearity(hset, radii))


def test_half_sublinearity_shares_the_torus_ball_masks():
    # the transversal row reads the torus balls, the masks
    # sublinearity_curve cached: 4 torus and 4 half-box masks at two radii
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=7), Grid.torus(2, 32))
    pair = solve_pair(f, tol=1e-12)
    hset = build_halfspace_set(f, pair, L=16.0)
    pde._cached_ball_mask.cache_clear()
    sublinearity_curve(pair, [4.0, 8.0])
    half_sublinearity_curve(hset, [4.0, 8.0])
    assert pde._cached_ball_mask.cache_info().misses == 8


def test_growth_rate_exponent_relation():
    # measured delta_h decay exponent >= gamma/3 - 0.15 when the
    # whole-space curve fits delta ~ r^-gamma
    grid = Grid.torus(2, 256)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=7), grid)
    pair = solve_pair(f, tol=1e-12)
    radii = dyadic_radii(grid)  # 8..128
    curve = sublinearity_curve(pair, radii)
    gamma = -np.polyfit(np.log(radii), np.log(curve.delta), 1)[0]
    hset = build_halfspace_set(f, pair, L=128.0)
    hradii = [8.0, 16.0, 32.0, 64.0]
    hcurve = half_sublinearity_curve(hset, hradii)
    gamma_h = -np.polyfit(np.log(hradii), np.log(hcurve.delta_h), 1)[0]
    assert gamma_h >= gamma / 3.0 - 0.15


def test_truncation_convergence_under_doubling():
    grid = Grid.torus(2, 1024)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=7), grid)
    pair = solve_pair(f, tol=1e-12)
    radii = [8.0, 16.0, 32.0]
    vals = {}
    for L in (128.0, 256.0):
        hs = build_halfspace_set(f, pair, L=L, tangential_periodic=False)
        vals[L] = half_sublinearity_curve(hs, radii).delta_h
    rel = np.abs(vals[128.0] - vals[256.0]) / vals[256.0]
    assert np.all(rel <= 0.02)


# -- dyadic construction ------------------------------------------------------


def test_dyadic_single_annulus_equals_cut_direct():
    grid = Grid.torus(2, 64)
    f = sample_field(EnsembleSpec.checkerboard(seed=2), grid)
    pair = solve_pair(f, tol=1e-12)
    fhb = restrict_to_half_box(f, 32.0)
    curve = sublinearity_curve(pair, dyadic_radii(grid))
    cfg = DyadicConfig.from_curve(curve, r0=8.0, n_max=-1)
    b1 = tangential_basis(pair.a_hom).vectors[0]
    dy = dyadic_construction(fhb, f, pair, b1, cfg)
    # independent solve with the same cut datum
    from homlab.pde import BoundarySpec, Dirichlet, NoFlux, assemble, solve
    from homlab.field import restrict_values

    total = pair.cset.current(b1).comps[1]
    th = restrict_values(total, grid, fhb.grid, face_offsets(2, 1))
    g = th[:, 0]
    coords = fhb.grid.coords(face_offsets(2, 1))
    rho = np.abs(coords[0][:, 0])
    g_cut = cfg.cutoff(-1, rho) * g
    sys = assemble(fhb, BoundarySpec.half_box(fhb.grid, flat=NoFlux(g_cut), top=Dirichlet(0.0)))
    ref, _ = solve(sys, tol=1e-12)
    assert np.abs(dy.varphi_n[-1].values - ref.values).max() <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 6), st.integers(-1, 4))
def test_dyadic_cutoffs_are_a_partition_with_bounded_slopes(k, n_max):
    # the cutoffs telescope to c(n_max + 1), one up to r0 2^n_max, and
    # neighbouring ramps [R_n / 2, R_n] and [R_n, 2 R_n] do not overlap,
    # so each slope is at most 3 / R_n
    r0 = 2.0 ** k
    cfg = DyadicConfig(r0, n_max, np.zeros(n_max + 2), np.zeros(n_max + 2))
    t = np.linspace(0.0, r0 * 2.0 ** (n_max + 1), 4096)
    total = sum(cfg.cutoff(n, t) for n in cfg.annuli())
    assert np.abs(total[t <= r0 * 2.0 ** n_max] - 1.0).max() <= 1e-12
    for n in cfg.annuli():
        slope = np.abs(np.diff(cfg.cutoff(n, t)) / np.diff(t)).max()
        assert slope < 4.0 / (r0 * 2.0 ** max(n, 0))


def test_dyadic_partition_and_consistency():
    grid = Grid.torus(2, 128)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=7), grid)
    pair = solve_pair(f, tol=1e-12)
    fhb = restrict_to_half_box(f, 64.0)
    curve = sublinearity_curve(pair, dyadic_radii(grid))
    cfg = DyadicConfig.from_curve(curve, r0=8.0, n_max=2)
    assert np.all(cfg.heights < 8.0 * 2.0 ** np.arange(len(cfg.heights)))
    b1 = tangential_basis(pair.a_hom).vectors[0]
    dy = dyadic_construction(fhb, f, pair, b1, cfg)
    assert dy.consistency_r0 <= 0.05
    assert dy.consistency_quarter <= 0.05
    assert 0 < dy.empirical_constant < np.inf
    for key, e in dy.energies.items():
        assert np.isfinite(e) and e >= 0.0


def test_dyadic_direct_correction_joins_the_annuli(monkeypatch):
    # without ``direct`` its system is one more of the annuli's solve_many
    # call, and the consistency values are those of the given correction
    from homlab import halfspace

    grid = Grid.torus(2, 64)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=7), grid)
    pair = solve_pair(f, tol=1e-12)
    fhb = restrict_to_half_box(f, 32.0)
    n_max = 1
    cfg = DyadicConfig.from_curve(sublinearity_curve(pair, dyadic_radii(grid)), 8.0, n_max)
    b1 = tangential_basis(pair.a_hom).vectors[0]
    calls = []

    def counting_solve_many(systems, **kwargs):
        calls.append(len(systems))
        return pde.solve_many(systems, **kwargs)

    monkeypatch.setattr(halfspace, "solve_many", counting_solve_many)
    dy = dyadic_construction(fhb, f, pair, b1, cfg)
    assert calls == [n_max + 3]
    direct = solve_halfspace_correction(fhb, restrict_pair(pair, b1, fhb.grid)[3]).varphi
    given = dyadic_construction(fhb, f, pair, b1, cfg, direct=direct)
    assert calls == [n_max + 3, n_max + 2]
    assert given.consistency_r0 == dy.consistency_r0
    assert given.consistency_quarter == dy.consistency_quarter
    for n, sol in dy.varphi_n.items():
        assert np.array_equal(given.varphi_n[n].values, sol.values)


def test_dyadic_constant_field_all_zero():
    grid = Grid.torus(2, 64)
    f = sample_field(EnsembleSpec.constant(np.eye(2)), grid)
    pair = solve_pair(f)
    fhb = restrict_to_half_box(f, 32.0)
    from homlab.corrector import SublinearityCurve

    curve = SublinearityCurve(
        np.array([8.0, 16.0, 32.0]), np.array([0.1, 0.05, 0.025]),
        np.array([0.1, 0.05, 0.025]), np.zeros(3)
    )
    cfg = DyadicConfig.from_curve(curve, r0=8.0, n_max=0)
    b1 = tangential_basis(pair.a_hom).vectors[0]
    dy = dyadic_construction(fhb, f, pair, b1, cfg)
    for n, sol in dy.varphi_n.items():
        assert np.abs(sol.values).max() <= 1e-12
        assert dy.energies[(n, 8.0)] <= 1e-12


def test_dyadic_config_reads_every_annulus_radius():
    # n_max 2 reads delta at radius 64: a measured curve without it is
    # measured again there while its pair is alive, not read at its
    # nearest radius (32); once the pair is gone it raises
    grid = Grid.torus(2, 64)
    pair = solve_pair(sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=5), grid))
    full = DyadicConfig.from_curve(sublinearity_curve(pair, [8.0, 16.0, 32.0, 64.0]), 8.0, 2)
    short_curve = sublinearity_curve(pair, dyadic_radii(grid))
    short = DyadicConfig.from_curve(short_curve, 8.0, 2)
    assert np.array_equal(short.delta_at, full.delta_at)
    assert np.array_equal(short.heights, full.heights)
    del pair
    with pytest.raises(ValueError, match="gone"):
        DyadicConfig.from_curve(short_curve, 8.0, 2)
    from homlab.corrector import SublinearityCurve

    hand = SublinearityCurve(np.array([8.0, 16.0, 32.0]), np.array([0.1, 0.05, 0.025]),
                             np.array([0.1, 0.05, 0.025]), np.zeros(3))
    assert DyadicConfig.from_curve(hand, 8.0, 1).delta_at.tolist() == [0.1, 0.05, 0.025]
    with pytest.raises(ValueError):
        DyadicConfig.from_curve(hand, 8.0, 2)
    # r0 must be a positive power of two; log2 of r0 <= 0 is nan or -inf
    for r0 in (-8.0, 0.0, 12.0):
        with pytest.raises(ValueError):
            DyadicConfig.from_curve(hand, r0, 0)
    # n_max -1 is the single annulus; below it there is none
    with pytest.raises(ValueError, match="no annulus"):
        DyadicConfig.from_curve(hand, 8.0, -2)


def test_halfspace_3d_smoke():
    # the 3d construction runs end to end; the axial-gauge skew correction
    # carries the identity, and the curl of the potentials misses it by the
    # truncation gap, which is reported
    grid = Grid.torus(3, 16)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=1), grid)
    pair = solve_pair(f, tol=1e-11)
    hset = build_halfspace_set(f, pair, L=8.0, tol=1e-11)
    assert set(hset.phi_h) == {0, 1, 2}
    assert sigma_identity(hset) <= 1e-10
    assert 0.0 < hset.liouville_gap[0] < 0.05
    curve = half_sublinearity_curve(hset, [4.0])
    assert np.isfinite(curve.delta_h[0])
