import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from coo_reference import coo_operator_matrix
from homlab import _transforms as ft
from homlab.grid import HALF_BOX, Grid, cell_offsets, face_offsets, pair_offsets
from homlab.field import (
    CoefficientField, EnsembleSpec, faces_from_cells, restrict_to_half_box, sample_field,
)
from homlab.pde import (
    BoundarySpec,
    Dirichlet,
    LinearSystem,
    NoFlux,
    Operator,
    PeriodicBC,
    ScalarField,
    SolverError,
    SourceTerm,
    VectorField,
    _norm,
    assemble,
    ball_mean_square,
    ball_values,
    caccioppoli_ratio,
    dense_solve,
    divergence,
    flux,
    gradient,
    interior_ball_mask,
    mean_product,
    residual_norm,
    solve,
)


def identity_field(grid):
    return sample_field(EnsembleSpec.constant(np.eye(grid.dim)), grid)


def cell_x(grid, axis):
    return grid.coords(cell_offsets(grid.dim))[axis]


# -- assembly conventions ----------------------------------------------------


def test_torus_operator_annihilates_constants():
    grid = Grid.torus(2, 16)
    sys = assemble(identity_field(grid), BoundarySpec.periodic())
    ones = np.ones(sys.n_unknowns)
    assert np.abs(sys.matrix @ ones).max() <= 1e-13


def test_halfbox_linear_solution_zero_residual():
    # u = x1 is harmonic with zero flat conormal flux
    grid = Grid.half_box(2, 16, tangential_periodic=False)
    f = identity_field(grid)
    trace = lambda x, y: x
    bc = BoundarySpec.half_box(grid, flat=NoFlux(0.0), top=Dirichlet(trace), lateral=Dirichlet(trace))
    sys = assemble(f, bc)
    u = cell_x(grid, 0).ravel()
    assert np.abs(sys.matrix @ u - sys.rhs).max() <= 1e-12


def test_halfbox_vertical_linear_solution():
    # u = x_d needs flat datum e_out . grad u = -1
    grid = Grid.half_box(2, 16)
    f = identity_field(grid)
    bc = BoundarySpec.half_box(grid, flat=NoFlux(-1.0), top=Dirichlet(lambda x, y: y))
    sys = assemble(f, bc)
    u = cell_x(grid, 1).ravel()
    assert np.abs(sys.matrix @ u - sys.rhs).max() <= 1e-12


def test_divergence_source_absorbed_in_flat_datum():
    # -lap u = div F with F = e_d and total-current datum g=-1 -> u = 0
    grid = Grid.half_box(2, 16)
    f = identity_field(grid)
    F = VectorField.zeros(grid)
    F.comps[1][:] = 1.0
    bc = BoundarySpec.half_box(grid, flat=NoFlux(-1.0), top=Dirichlet(0.0))
    sys = assemble(f, bc, SourceTerm(divergence_form=F))
    u, stats = solve(sys, tol=1e-12)
    assert np.abs(u.values).max() <= 1e-12


def test_dirichlet_laminate_matches_dense_oracle():
    grid = Grid.half_box(2, 8, tangential_periodic=False)
    f = sample_field(EnsembleSpec.laminate(axis=0, values=(0.25, 1.0), width=1.0), grid)
    trace = lambda x, y: x
    bc = BoundarySpec.half_box(grid, flat=Dirichlet(trace), top=Dirichlet(trace), lateral=Dirichlet(trace))
    sys = assemble(f, bc)
    u, _ = solve(sys, tol=1e-13)
    ud = dense_solve(sys)
    assert np.abs(u.values - ud).max() <= 1e-12


def test_symmetry_with_full_tensor_faces():
    grid = Grid.torus(2, 8)
    rng = np.random.default_rng(4)
    base = np.eye(2) * 0.6
    cells = np.broadcast_to(base, grid.shape + (2, 2)).copy()
    bump = 0.1 * rng.standard_normal(grid.shape)
    cells[..., 0, 1] += bump
    cells[..., 1, 0] += bump
    field = CoefficientField(grid, faces_from_cells(grid, cells), lam=0.2)
    sys = assemble(field, BoundarySpec.periodic())
    u = rng.standard_normal(sys.n_unknowns)
    v = rng.standard_normal(sys.n_unknowns)
    lhs = float(u @ (sys.matrix @ v))
    rhs = float(v @ (sys.matrix @ u))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_coercivity_bound():
    grid = Grid.torus(2, 16)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=6), grid)
    sys = assemble(f, BoundarySpec.periodic())
    rng = np.random.default_rng(8)
    u = rng.standard_normal(sys.n_unknowns)
    u -= u.mean()
    uf = ScalarField(grid, u.reshape(grid.shape))
    g = gradient(uf)
    grad2 = sum(float((c**2).sum()) for c in g.comps)
    energy = float(u @ (sys.matrix @ u))
    assert energy >= 0.25 * grad2 - 1e-10


def test_noflux_conservation_identity():
    # all-no-flux box: sum of (A u - b) h^d + total boundary datum h^(d-1) = 0
    grid = Grid.half_box(2, 8, tangential_periodic=False)
    f = sample_field(EnsembleSpec.checkerboard(seed=2), grid)
    rng = np.random.default_rng(3)
    g_vals = {}
    sides = {}
    for axis in range(2):
        for side in range(2):
            g = rng.standard_normal(8 if axis == 1 else 4)
            g_vals[(axis, side)] = g
            sides[(axis, side)] = NoFlux(g)
    bc = BoundarySpec(sides)
    F = VectorField(grid, [rng.standard_normal(grid.face_shape(k)) for k in range(2)])
    sys = assemble(f, bc, SourceTerm(divergence_form=F))
    u = rng.standard_normal(sys.n_unknowns)
    # operator is exactly conservative: column sums vanish
    assert abs((sys.matrix @ u).sum()) <= 1e-12 * np.abs(u).max() * sys.n_unknowns
    # total source balance: the original rhs integrates to the datum sum
    rhs_orig = sys.rhs + sys.rhs_mean_shift
    total_datum = sum(v.sum() for v in g_vals.values())
    h = grid.h
    assert abs(rhs_orig.sum() * h**2 - total_datum * h) <= 1e-12


# -- solver ------------------------------------------------------------------


def test_zero_rhs_returns_zero_in_zero_iterations():
    grid = Grid.torus(2, 8)
    sys = assemble(identity_field(grid), BoundarySpec.periodic())
    u, stats = solve(sys)
    assert stats.iterations == 0 and np.all(u.values == 0.0)


def test_poisson_recovers_known_quadratic():
    grid = Grid.torus(2, 16)
    f = identity_field(grid)
    sys = assemble(f, BoundarySpec.periodic())
    x, y = grid.coords(cell_offsets(2))
    s = grid.side
    target = np.cos(2 * np.pi * x / s) * np.sin(4 * np.pi * y / s)
    rhs = (sys.matrix @ target.ravel())
    sys.rhs = rhs - rhs.mean()
    u, stats = solve(sys, tol=1e-12)
    assert np.abs(u.values - (target - target.mean())).max() <= 1e-9


def test_solver_dense_oracle_small_systems():
    # every assembled system with <= 1024 unknowns vs dense direct solve
    cases = []
    g1 = Grid.torus(2, 16)
    cases.append(assemble(sample_field(EnsembleSpec.checkerboard(seed=1), g1), BoundarySpec.periodic()))
    g2 = Grid.half_box(2, 16)
    f2 = sample_field(EnsembleSpec.checkerboard(seed=2), g2)
    bc2 = BoundarySpec.half_box(g2, flat=NoFlux(0.3), top=Dirichlet(1.0))
    rng = np.random.default_rng(9)
    F = VectorField(g2, [rng.standard_normal(g2.face_shape(k)) for k in range(2)])
    cases.append(assemble(f2, bc2, SourceTerm(volume=rng.standard_normal(g2.shape), divergence_form=F)))
    for sys in cases:
        if sys.singular and np.linalg.norm(sys.rhs) == 0:
            sys.rhs = np.sin(np.arange(sys.n_unknowns))
            sys.rhs -= sys.rhs.mean()
        assert sys.n_unknowns <= 1024
        u, _ = solve(sys, tol=1e-13)
        ud = dense_solve(sys)
        assert np.abs(u.values - ud).max() <= 1e-9


def test_solver_nonconvergence_raises_with_history():
    grid = Grid.torus(2, 16)
    for values, max_iter in [((0.25, 1.0), 1), ((0.25, 1.0), 3),
                             ((0.01, 1.0), 2), ((0.01, 1.0), 8), ((0.01, 1.0), 20)]:
        f = sample_field(EnsembleSpec.checkerboard(values=values, seed=1), grid)
        sys = assemble(f, BoundarySpec.periodic())
        b = np.random.default_rng(1).standard_normal(sys.n_unknowns)
        sys.rhs = b - b.mean()
        with pytest.raises(SolverError) as exc:
            solve(sys, tol=1e-12, max_iter=max_iter)
        history = exc.value.history
        assert exc.value.best_x is not None and len(history) >= 2
        # the best iterate is the one whose residual is min(history)
        assert residual_norm(sys, exc.value.best_x) == pytest.approx(min(history), rel=1e-10)


def test_solve_exits_on_true_residual():
    # contrast 100: the recursive residual reaches tol=1e-14 while the
    # true one is still above it; residual replacement closes the gap
    grid = Grid.torus(2, 256)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.01, 1.0), seed=7), grid)
    from homlab.corrector import coefficient_times_vector

    src = SourceTerm(divergence_form=coefficient_times_vector(f, np.array([1.0, 0.0])))
    sys = assemble(f, BoundarySpec.periodic(), src)
    u, stats = solve(sys, tol=1e-14)
    assert stats.true_residual <= 1e-14
    assert residual_norm(sys, u.values) == pytest.approx(stats.true_residual, rel=1e-12)


def test_solve_raises_when_true_residual_stalls_above_tol():
    grid = Grid.half_box(2, 32)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=3), grid)
    bc = BoundarySpec.half_box(grid, flat=NoFlux(np.random.default_rng(1).standard_normal(32)))
    sys = assemble(f, bc)
    with pytest.raises(SolverError) as exc:
        solve(sys, tol=1e-17)  # below the round-off floor of b - Ax
    assert residual_norm(sys, exc.value.best_x) > 1e-17


def test_solve_raises_on_non_finite_rhs():
    # a boundary datum with a nan: |b| is nan, which once read as 0 and
    # returned the zero solution
    v = np.ones(8)
    for bad, norm in ((np.nan, np.isnan), (np.inf, np.isposinf)):
        v[3] = bad
        assert norm(_norm(v)) and norm(_norm(1e-200 * v))
    assert _norm(np.zeros(8)) == 0.0
    grid = Grid.half_box(2, 16)
    op = Operator(identity_field(grid), BoundarySpec.half_box(grid))
    sys = op.system(BoundarySpec.half_box(grid, top=Dirichlet(lambda x, y: np.where(x < 1.0, np.nan, 0.0))))
    with pytest.raises(SolverError, match="right-hand side is not finite") as exc:
        solve(sys)
    assert exc.value.best_x is None and exc.value.history == []


class _NanProductAfter:
    """``A @ x`` that turns nan from the ``calls``-th product on."""

    def __init__(self, A, calls):
        self.A, self.calls = A, calls

    def __matmul__(self, x):
        self.calls -= 1
        return self.A @ x if self.calls > 0 else np.full(x.shape, np.nan)


def test_solve_raises_on_non_finite_residual(monkeypatch):
    grid = Grid.torus(2, 16)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=1), grid)
    op = Operator(f, BoundarySpec.periodic())
    b = np.random.default_rng(1).standard_normal(grid.shape)
    sys = op.system(src=SourceTerm(volume=b - b.mean()))
    solve(sys)  # builds the float32 matrix and the preconditioner from the true one
    A = op.matrix
    monkeypatch.setattr(op, "matrix", _NanProductAfter(A, 2))
    with pytest.raises(SolverError, match="residual is not finite") as exc:
        solve(sys, tol=1e-12)
    # the iterate of the last finite residual, one correction in
    history = exc.value.history
    assert len(history) == 2 and np.all(np.isfinite(exc.value.best_x))
    true = np.linalg.norm(sys.rhs - A @ exc.value.best_x) / np.linalg.norm(sys.rhs)
    assert true == pytest.approx(history[-1], rel=1e-10)


def test_solve_raises_on_non_finite_curvature(monkeypatch):
    # a nan that enters the inner CG fails p.Ap > 0 at once instead of
    # running out max_iter iterations
    grid = Grid.torus(2, 16)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=1), grid)
    op = Operator(f, BoundarySpec.periodic())
    b = np.random.default_rng(1).standard_normal(grid.shape)
    sys = op.system(src=SourceTerm(volume=b - b.mean()))
    exact, calls = op.preconditioner, iter(range(10**6))
    monkeypatch.setattr(op, "preconditioner", lambda r, norm: exact(r, norm) if next(calls) < 5
                        else np.full_like(r, np.nan))
    with pytest.raises(SolverError, match="lost positivity") as exc:
        solve(sys, tol=1e-12)
    # the nan came in the second correction; the iterate of the first is returned
    history = exc.value.history
    assert next(calls) == 6 and len(history) == 2
    assert residual_norm(sys, exc.value.best_x) == pytest.approx(history[-1], rel=1e-10)


# -- calculus ----------------------------------------------------------------


def test_gradient_of_constant_and_linear():
    grid = Grid.torus(2, 8)
    u = ScalarField(grid, np.full(grid.shape, 3.25))
    g = gradient(u)
    assert all(np.all(c == 0.0) for c in g.comps)
    gh = Grid.half_box(2, 8, tangential_periodic=False)
    uh = ScalarField(gh, cell_x(gh, 0))
    ghad = gradient(uh)
    inner = ghad.comps[0][1:-1, :]
    assert np.allclose(inner, 1.0, atol=1e-14)


def test_summation_by_parts_on_torus():
    grid = Grid.torus(2, 8)
    rng = np.random.default_rng(12)
    u = ScalarField(grid, rng.standard_normal(grid.shape))
    F = VectorField(grid, [rng.standard_normal(grid.face_shape(k)) for k in range(2)])
    g = gradient(u)
    lhs = sum(float((g.comps[k] * F.comps[k]).sum()) for k in range(2))
    rhs = -float((u.values * divergence(F)).sum())
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_flux_laminate_exact():
    grid = Grid.torus(2, 16)
    f = sample_field(EnsembleSpec.laminate(axis=0, values=(0.25, 1.0)), grid)
    u = ScalarField(grid, np.zeros(grid.shape))
    q = flux(f, u)
    assert all(np.all(c == 0.0) for c in q.comps)


def test_half_ball_average_constant_and_brute_force():
    grid = Grid.torus(2, 32)
    [c] = ball_values(ScalarField(grid, np.full(grid.shape, 2.5)), grid, 8.0)
    assert c.mean() == 2.5 and c.size > 0
    # |x|^2 oracle by direct cell enumeration on a half box
    gh = Grid.half_box(2, 32)
    x, y = gh.coords(cell_offsets(2))
    v = x * x + y * y
    [got] = ball_values(ScalarField(gh, v), gh, 16 * gh.h)
    inside = (x**2 + y**2 < 16.0**2) & (y > 0)
    assert got.size == int(inside.sum())
    assert float(got.mean()) == pytest.approx(float(v[inside].mean()), rel=0.0, abs=0.0)


def test_half_ball_average_indicator_symmetry():
    grid = Grid.torus(2, 64)
    disp = grid.displacement(cell_offsets(2))
    [ind] = ball_values(ScalarField(grid, (disp[1] > 0).astype(float)), grid, 16.0)
    assert abs(ind.mean() - 0.5) <= 2.0 / 16.0


def reference_ball_values(grid, offsets, values, r, half=None):
    """Brute force over home points in index order: keep a point that
    lies in the (half-)ball by its minimum-image distance and off the
    boundary planes of a non-periodic integer axis."""
    d = grid.dim
    if half is None:
        half = grid.topology == HALF_BOX
    pts = [grid.points_along(a, offsets[a]) for a in range(d)]
    out = []
    for idx in np.ndindex(values.shape):
        rho2 = 0.0
        boundary = False
        for a, i in enumerate(idx):
            x = pts[a][i]
            if grid.periodic_axis(a):
                x = (x + grid.side / 2.0) % grid.side - grid.side / 2.0
            rho2 += x * x
            boundary |= offsets[a] == 0.0 and not grid.periodic_axis(a) and i in (0, len(pts[a]) - 1)
        if rho2 < r * r and not boundary and not (half and pts[d - 1][idx[d - 1]] <= 0.0):
            out.append(values[idx])
    return np.array(out, dtype=float)


@st.composite
def quadrature_cases(draw):
    dim = draw(st.sampled_from([2, 3]))
    topology = draw(st.sampled_from(["torus", "slab", "box"]))
    n = draw(st.sampled_from([4, 8]))
    h = draw(st.sampled_from([1.0, 0.5]))
    if topology == "torus":
        grid = Grid.torus(dim, n, h)
    else:
        grid = Grid.half_box(dim, n, h, tangential_periodic=topology == "slab")
    home = draw(st.sampled_from(["cell", "face", "pair"]))
    # half-integer multiples of h hit points exactly on the sphere
    r = draw(st.one_of(st.floats(0.0, grid.side, allow_nan=False),
                       st.integers(0, 2 * n).map(lambda i: 0.5 * i * h)))
    half = draw(st.sampled_from([None, True, False]))
    seed = draw(st.integers(0, 2**16))
    return grid, home, r, half, seed


@settings(max_examples=200, deadline=None, database=None)
@given(case=quadrature_cases())
def test_ball_quadrature_matches_brute_force(case):
    grid, home, r, half, seed = case
    d = grid.dim
    rng = np.random.default_rng(seed)
    if home == "face":
        offsets = [face_offsets(d, k) for k in range(d)]
        f = VectorField(grid, [rng.standard_normal(grid.home_shape(o)) for o in offsets])
        arrays = f.comps
    else:
        offsets = [cell_offsets(d) if home == "cell" else pair_offsets(d, 0, d - 1)]
        f = ScalarField(grid, rng.standard_normal(grid.home_shape(offsets[0])), offsets[0])
        arrays = [f.values]
    got = ball_values(f, grid, r, half=half)
    want = [reference_ball_values(grid, o, a, r, half) for o, a in zip(offsets, arrays)]
    assert len(got) == len(want)
    assert all(np.array_equal(x, y) for x, y in zip(got, want))
    # the mean of products skips empty homes and sums the rest from 0.0
    total = 0.0
    for v in want:
        if v.size:
            total += float((v * v).mean())
    assert ball_mean_square(f, grid, r, half=half) == total
    assert mean_product(got, got) == total


def test_ball_masks_are_cached_by_value_and_read_only():
    grid = Grid.half_box(3, 8)
    offsets = face_offsets(3, 0)
    mask = interior_ball_mask(grid, offsets, 3.0)
    # an equal grid and the offsets as a list
    same = interior_ball_mask(Grid.half_box(3, 8), list(offsets), 3.0)
    assert same is mask
    assert interior_ball_mask(grid, offsets, 3.0, half=False) is not mask
    with pytest.raises(ValueError):
        mask[1, 1, 1] = True


def test_caccioppoli_linear_scale_invariance():
    grid = Grid.half_box(2, 64)
    f = identity_field(grid)
    u = ScalarField(grid, cell_x(grid, 0))
    r1 = caccioppoli_ratio(u, f, r=8.0)
    r2 = caccioppoli_ratio(u, f, r=16.0)
    assert not r1.warning
    assert abs(r1.ratio - r2.ratio) <= 0.15 * r1.ratio
    uc = ScalarField(grid, np.full(grid.shape, 1.0))
    assert caccioppoli_ratio(uc, f, r=8.0).ratio == 0.0


def test_torus_rejects_nonperiodic_conditions():
    grid = Grid.torus(2, 8)
    f = sample_field(EnsembleSpec.constant(np.eye(2)), grid)
    bc = BoundarySpec({(0, 0): Dirichlet(0.0)})
    with pytest.raises(ValueError):
        assemble(f, bc)


def test_solver_regression_checkerboard_n128():
    # convergence baseline: iterations stay flat in n with the fast
    # constant-coefficient preconditioner
    grid = Grid.torus(2, 128)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=0), grid)
    from homlab.corrector import coefficient_times_vector

    src = SourceTerm(divergence_form=coefficient_times_vector(f, np.array([1.0, 0.0])))
    sys = assemble(f, BoundarySpec.periodic(), src)
    u, stats = solve(sys, tol=1e-10)
    assert stats.relative_residual <= 1e-10
    assert 0 < stats.iterations <= 18


# -- one operator, many right-hand sides --------------------------------------


@st.composite
def operator_cases(draw):
    """An SPD face field (diagonal or with off-diagonal entries) and the
    boundary kinds of a torus, a slab or a plain half-box (no-flux or
    Dirichlet flat and top sides, Dirichlet lateral sides)."""
    dim = draw(st.sampled_from([2, 3]))
    n = 8 if dim == 2 else 4
    grid = draw(st.sampled_from([Grid.torus(dim, n), Grid.half_box(dim, n),
                                 Grid.half_box(dim, n, tangential_periodic=False)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    cross = draw(st.booleans())
    ii = np.arange(dim)
    faces = []
    for k in range(dim):
        shp = grid.face_shape(k)
        a = np.zeros(shp + (dim, dim))
        if cross:
            off = rng.uniform(-0.05, 0.05, shp + (dim, dim))
            a += 0.5 * (off + np.swapaxes(off, -1, -2))
        a[..., ii, ii] = rng.uniform(0.5, 1.0, shp + (dim,))
        faces.append(a)
    field = CoefficientField(grid, faces, lam=0.2)
    if grid.topology == "torus":
        kinds = BoundarySpec.periodic()
    else:
        flat, top = (draw(st.sampled_from([NoFlux, Dirichlet])) for _ in range(2))
        kinds = BoundarySpec.half_box(grid, flat=flat(), top=top())
    return field, kinds, rng


def random_data(kinds, grid, rng):
    """Boundary data of the given kinds and random sources."""
    sides = {}
    for (a, s), b in kinds.sides.items():
        if isinstance(b, PeriodicBC):
            sides[(a, s)] = b
        else:
            shape = tuple(m for i, m in enumerate(grid.face_shape(a)) if i != a)
            sides[(a, s)] = type(b)(rng.standard_normal(shape))
    F = VectorField(grid, [rng.standard_normal(grid.face_shape(k)) for k in range(grid.dim)])
    return BoundarySpec(sides), SourceTerm(rng.standard_normal(grid.shape), F)


def combine(x, y, bx, by, sx, sy):
    """x (bx, sx) + y (by, sy) for data of the same kinds."""
    sides = {key: b if isinstance(b, PeriodicBC) else type(b)(x * b.value + y * by.sides[key].value)
             for key, b in bx.sides.items()}
    F = VectorField(sx.divergence_form.grid,
                    [x * p + y * q for p, q in zip(sx.divergence_form.comps,
                                                   sy.divergence_form.comps)])
    return BoundarySpec(sides), SourceTerm(x * sx.volume + y * sy.volume, F)


@settings(max_examples=40, deadline=None, database=None)
@given(case=operator_cases())
def test_operator_rhs_split_properties(case):
    field, kinds, rng = case
    grid = field.grid
    data = [random_data(kinds, grid, rng) for _ in range(3)]
    op = Operator(field, data[0][0])
    A = op.matrix
    # the matrix depends on the kinds only, never on the data values
    for bc, src in data[1:]:
        assert (Operator(field, bc).matrix != A).nnz == 0
        assert (assemble(field, bc, src).matrix != A).nnz == 0
    assert (Operator(field, kinds).matrix != A).nnz == 0
    # symmetric fields give symmetric matrices
    assert abs((A - A.T).tocsr()).max() <= 1e-14 * abs(A.data).max()
    # the rhs of the split is assemble's, and linear in data and sources
    rhs = [op.system(bc, src).rhs for bc, src in data]
    for (bc, src), r in zip(data, rhs):
        assert np.array_equal(assemble(field, bc, src).rhs, r)
    x, y = rng.uniform(-2.0, 2.0, 2)
    mixed = op.system(*combine(x, y, data[0][0], data[1][0], data[0][1], data[1][1])).rhs
    scale = max(np.abs(rhs[0]).max(), np.abs(rhs[1]).max())
    assert np.abs(mixed - (x * rhs[0] + y * rhs[1])).max() <= 1e-12 * (abs(x) + abs(y)) * scale
    only_volume = op.system(data[0][0], SourceTerm(volume=data[0][1].volume)).rhs
    only_div = op.system(data[0][0], SourceTerm(divergence_form=data[0][1].divergence_form)).rhs
    only_bc = op.system(data[0][0]).rhs
    assert np.abs(only_volume + only_div - only_bc - rhs[0]).max() <= 1e-12 * scale
    # several right-hand sides on one operator match fresh dense solves
    for bc, src in data:
        u, _ = solve(op.system(bc, src), tol=1e-12)
        ref = dense_solve(assemble(field, bc, src))
        assert np.abs(u.values - ref).max() <= 1e-9 * np.abs(ref).max()


def test_operator_rejects_other_boundary_kinds():
    grid = Grid.half_box(2, 8)
    op = Operator(identity_field(grid), BoundarySpec.half_box(grid))
    with pytest.raises(ValueError):
        op.system(BoundarySpec.half_box(grid, flat=Dirichlet(1.0)))


def test_solve_stats_true_residual_symmetric_slab():
    grid = Grid.half_box(2, 32)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=3), grid)
    rng = np.random.default_rng(1)
    bc = BoundarySpec.half_box(grid, flat=NoFlux(rng.standard_normal(32)))
    sys = assemble(f, bc, SourceTerm(volume=rng.standard_normal(grid.shape)))
    assert sys.symmetric
    u, stats = solve(sys, tol=1e-10)
    true = np.linalg.norm(sys.rhs - sys.matrix @ u.values.ravel()) / np.linalg.norm(sys.rhs)
    assert stats.true_residual == pytest.approx(true, rel=1e-12)
    assert stats.iterations > 0 and stats.relative_residual <= 1e-10
    assert 0.0 < stats.true_residual <= 1e-9


def test_solve_stats_bicgstab_nonsymmetric_field():
    grid = Grid.half_box(2, 16, tangential_periodic=False)
    rng = np.random.default_rng(5)
    faces = []
    for k in range(2):
        shp = grid.face_shape(k)
        a = np.zeros(shp + (2, 2))
        a[..., 0, 0] = rng.uniform(0.5, 1.0, shp)
        a[..., 1, 1] = rng.uniform(0.5, 1.0, shp)
        a[..., 0, 1] = rng.uniform(-0.1, 0.1, shp)  # a_01 != a_10
        a[..., 1, 0] = rng.uniform(-0.1, 0.1, shp)
        faces.append(a)
    field = CoefficientField(grid, faces, lam=0.2)
    sys = assemble(field, BoundarySpec.half_box(grid, flat=NoFlux(0.3), top=Dirichlet(1.0)))
    assert not sys.symmetric
    u, stats = solve(sys, tol=1e-10)
    true = np.linalg.norm(sys.rhs - sys.matrix @ u.values.ravel()) / np.linalg.norm(sys.rhs)
    assert stats.iterations > 0
    assert stats.true_residual == stats.relative_residual == pytest.approx(true, rel=1e-12)
    assert true <= 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("grid", [Grid.half_box(2, 64, tangential_periodic=False),
                                  Grid.torus(2, 64)])
def test_bicgstab_exits_on_true_residual(grid, seed):
    # contrast 100 with nonsymmetric cross terms: scipy's recursive residual
    # reaches tol while the true one is above it (half-box seeds 0 and 2);
    # restarts from the last iterate close the gap
    rng = np.random.default_rng(seed)
    faces = []
    for k in range(2):
        shp = grid.face_shape(k)
        a = np.zeros(shp + (2, 2))
        lo = np.where(rng.random(shp) < 0.5, 0.01, 1.0)
        a[..., 0, 0] = lo * rng.uniform(0.5, 1.0, shp)
        a[..., 1, 1] = lo * rng.uniform(0.5, 1.0, shp)
        a[..., 0, 1] = lo * rng.uniform(-0.1, 0.1, shp)  # a_01 != a_10
        a[..., 1, 0] = lo * rng.uniform(-0.1, 0.1, shp)
        faces.append(a)
    field = CoefficientField(grid, faces, lam=0.002)
    if grid.topology == "torus":
        sys = assemble(field, BoundarySpec.periodic(), SourceTerm(volume=rng.standard_normal(grid.shape)))
    else:
        sys = assemble(field, BoundarySpec.half_box(grid, flat=NoFlux(0.3), top=Dirichlet(1.0)))
    assert not sys.symmetric
    for tol in (1e-10, 1e-12):
        u, stats = solve(sys, tol=tol)
        assert stats.true_residual <= tol
        assert residual_norm(sys, u.values) == pytest.approx(stats.true_residual, rel=1e-12)


# -- band assembly against the COO reference ----------------------------------


@st.composite
def assembly_cases(draw):
    """The fields and kinds of operator_cases (diagonal or symmetric cross
    fields), or the same with nonsymmetric cross terms added."""
    field, kinds, rng = draw(operator_cases())
    if draw(st.booleans()):
        faces = [field.matrices(k).copy() for k in range(field.grid.dim)]
        for f in faces:
            f[..., 0, 1] += rng.uniform(0.01, 0.05, f.shape[:-2])  # a_01 != a_10
        field = CoefficientField(field.grid, faces, lam=0.2)
    return field, kinds


@settings(max_examples=80, deadline=None, database=None)
@given(case=assembly_cases())
def test_band_assembly_matches_coo_reference(case):
    field, kinds = case
    op = Operator(field, kinds)
    A = op.matrix
    # the matrix is stored by strictly ascending diagonals, so each row of a
    # product sums in ascending column order; the float32 matrix of the
    # inner CG solves holds the float32 entries of A, with equal products
    assert isinstance(A, sp.dia_matrix) and A.dtype == np.float64
    assert np.all(np.diff(A.offsets) > 0)
    A32 = op.matrix32
    assert isinstance(A32, sp.dia_matrix) and A32.dtype == np.float32
    assert np.array_equal(A32.offsets, A.offsets)
    csr = A.tocsr()
    A_32 = csr.astype(np.float32)
    assert abs(A32.tocsr() - A_32).max() == 0
    x = np.random.default_rng(csr.nnz).standard_normal(A.shape[0]).astype(np.float32)
    assert np.array_equal(A32 @ x, A_32 @ x)
    ref = coo_operator_matrix(field, kinds)
    assert A.shape == ref.shape
    if field.diagonal:
        assert np.array_equal(csr.indptr, ref.indptr)
        assert np.array_equal(csr.indices, ref.indices)
        assert np.array_equal(csr.data, ref.data)
        x64 = x.astype(np.float64)
        assert np.array_equal(A @ x64, ref @ x64)
    else:
        eps = np.finfo(float).eps
        assert abs(A - ref).max() <= 4 * eps * abs(ref).max()
    # columns strictly ascending within every row
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    same_row = rows[1:] == rows[:-1]
    assert np.all(np.diff(csr.indices)[same_row] > 0)
    # the operator is -div of pde.flux, up to the Dirichlet ghost terms:
    # the right-hand side of Dirichlet data equal to the side cells of u
    grid = field.grid
    u = np.random.default_rng(csr.nnz + 1).standard_normal(grid.shape)
    trace = BoundarySpec({(a, s): Dirichlet(np.take(u, -s, axis=a)) if isinstance(b, Dirichlet)
                          else type(b)() for (a, s), b in kinds.sides.items()})
    ghost = op.system(trace).rhs
    gap = A @ u.ravel() + divergence(flux(field, ScalarField(grid, u))).ravel() - ghost
    assert np.abs(gap).max() <= 1e-12 * abs(A.data).max() * np.abs(u).max()


def test_band_assembly_peak_memory():
    torus = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=2), Grid.torus(3, 32))
    window = restrict_to_half_box(torus, 16.0, tangential_periodic=False)
    kinds = BoundarySpec.half_box(window.grid)
    tracemalloc.start()
    try:
        A = Operator(window, kinds).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * A.data.nbytes


def test_operator_ignores_uncoupled_cross_entries():
    # the current through a k-face couples g_k with g_m through a_km and
    # a_mk only; in 3d the entry a_jm with j, m != k on the k-faces never
    # enters, so the matrix is the diagonal field's.  The face matrices are
    # non-symmetric, so the operator is flagged non-symmetric and solved by
    # BiCGSTAB
    grid = Grid.half_box(3, 4, tangential_periodic=False)
    rng = np.random.default_rng(3)
    diag, faces = [], []
    for k in range(3):
        a = np.zeros(grid.face_shape(k) + (3, 3))
        for i in range(3):
            a[..., i, i] = rng.uniform(0.5, 1.0, grid.face_shape(k))
        diag.append(a.copy())
        j, m = (i for i in range(3) if i != k)
        a[..., j, m] = rng.uniform(0.01, 0.05, grid.face_shape(k))
        faces.append(a)
    field = CoefficientField(grid, faces, lam=0.2)
    assert not field.diagonal and not field.is_symmetric()
    op = Operator(field, BoundarySpec.half_box(grid))
    ref = Operator(CoefficientField(grid, diag, lam=0.2), BoundarySpec.half_box(grid))
    assert (op.matrix != ref.matrix).nnz == 0
    assert not op.symmetric
    sys = op.system(BoundarySpec.half_box(grid, flat=NoFlux(0.3), top=Dirichlet(1.0)))
    u, _ = solve(sys, tol=1e-12)
    assert residual_norm(sys, u.values) <= 1e-12
    assert np.abs(u.values - solve(ref.system(sys.bc), tol=1e-12)[0].values).max() <= 1e-9


@pytest.mark.parametrize("dim, ns", [(2, (16, 32, 64)), (3, (8, 16, 32))], ids=["2d", "3d"])
def test_cross_stencil_consistent_with_smooth_solution(dim, ns):
    # constant symmetric a with off-diagonal entries and u = prod sin(x_i)
    # on the 2 pi torus: A u matches -div(a grad u) = -sum a_km d_k d_m u
    # at the cell centres to O(h^2)
    a = np.array([[1.0, 0.3, 0.2], [0.3, 0.9, -0.1], [0.2, -0.1, 0.8]])[:dim, :dim]
    errors = []
    for n in ns:
        grid = Grid.torus(dim, n, h=2.0 * np.pi / n)
        field = CoefficientField(
            grid, [np.broadcast_to(a, grid.face_shape(k) + (dim, dim)) for k in range(dim)], lam=0.5)
        x = grid.coords(cell_offsets(dim))
        sin, cos = np.sin(x), np.cos(x)
        u = np.prod(sin, axis=0)
        exact = np.trace(a) * u
        for k in range(dim):
            for m in range(dim):
                if m != k:
                    exact -= a[k, m] * np.prod([cos[i] if i in (k, m) else sin[i]
                                                for i in range(dim)], axis=0)
        Au = Operator(field, BoundarySpec.periodic()).matrix @ u.ravel()
        errors.append(np.abs(Au - exact.ravel()).max())
        assert errors[-1] <= 0.3 * grid.h ** 2
    assert all(coarse >= 3.5 * fine for coarse, fine in zip(errors, errors[1:]))


# -- the single-precision preconditioner --------------------------------------


@settings(max_examples=40, deadline=None, database=None)
@given(case=operator_cases())
def test_solve_reaches_tol_in_true_residual(case):
    field, kinds, rng = case
    op = Operator(field, kinds)
    for bc, src in [random_data(kinds, field.grid, rng) for _ in range(2)]:
        sys = op.system(bc, src)
        u, stats = solve(sys, tol=1e-12)
        assert residual_norm(sys, u.values) <= 1e-12
        assert stats.true_residual <= 1e-12
        assert stats.relative_residual == stats.true_residual
        ref = dense_solve(sys)
        assert np.abs(u.values - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("grid", [Grid.torus(2, 32), Grid.half_box(3, 8, tangential_periodic=False)])
def test_solve_scale_invariant_over_float32_range(grid):
    # 1e-40 is subnormal in float32: the inner solves see r / |r|; at 1e-200
    # and 1e200 a float32 product |r| d of the correction under- or overflows
    f = sample_field(EnsembleSpec.checkerboard(values=(0.1, 1.0), seed=4), grid)
    kinds = BoundarySpec.periodic() if grid.topology == "torus" else BoundarySpec.half_box(grid)
    op = Operator(f, kinds)
    rhs = op.system(*random_data(op.bc, grid, np.random.default_rng(2))).rhs
    u, stats = solve(LinearSystem(op, rhs, op.bc), tol=1e-12)
    for scale in (1e-200, 1e-40, 1e30, 1e200):
        us, ss = solve(LinearSystem(op, scale * rhs, op.bc), tol=1e-12)
        assert ss.iterations == stats.iterations
        assert ss.true_residual <= 1e-12
        assert np.abs(us.values / scale - u.values).max() <= 1e-9 * np.abs(u.values).max()


def test_solve_tolerates_perturbed_preconditioner():
    grid = Grid.torus(2, 64)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.01, 1.0), seed=5), grid)
    from homlab.corrector import coefficient_times_vector

    src = SourceTerm(divergence_form=coefficient_times_vector(f, np.array([1.0, 0.0])))
    op = Operator(f, BoundarySpec.periodic())
    sys = op.system(src=src)
    exact = op.preconditioner
    _, base = solve(sys, tol=1e-12)
    rng = np.random.default_rng(6)
    for noise in (1e-6, 1e-1):
        # new relative noise at every apply: neither symmetric nor fixed; the
        # flexible beta keeps the iteration count within 2x of the exact
        # preconditioner's (Fletcher-Reeves beta takes 6.7x at 10 % noise)
        op.preconditioner = lambda r, norm: exact(r, norm) * (
            1.0 + noise * rng.standard_normal(r.size))
        u, stats = solve(sys, tol=1e-12)
        assert residual_norm(sys, u.values) <= 1e-12
        assert stats.iterations <= 2 * base.iterations


@settings(max_examples=40, deadline=None, database=None)
@given(case=operator_cases())
def test_smoothed_preconditioner_is_spd(case):
    # every kind of boundary (the singular torus and no-flux slab included),
    # diagonal and symmetric cross-term fields
    field, kinds, _ = case
    op = Operator(field, kinds)
    assert op.symmetric
    n = op.matrix.shape[0]
    eye = np.eye(n, dtype=np.float32)
    M = np.stack([op.preconditioner(e, 1.0) for e in eye], axis=1).astype(float)
    assert np.abs(M - M.T).max() <= 1e-6 * np.abs(M).max()
    sym = 0.5 * (M + M.T)
    if op.singular:  # on the mean-free subspace
        Q = np.linalg.qr(np.eye(n)[:, :-1] - 1.0 / n)[0]
        sym = Q.T @ sym @ Q
    # positive well above the round-off of the float32 apply (about 1e-7)
    w = np.linalg.eigvalsh(sym)
    assert w[0] > 1e-4 * w[-1]


def test_smoothed_preconditioner_cuts_iterations(monkeypatch):
    # contrast 100: the smoothing steps cut the iterations of the plain
    # fast solve (129 at this seed) by at least 40 %
    grid = Grid.torus(2, 64)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.01, 1.0), seed=5), grid)
    from homlab.corrector import coefficient_times_vector

    src = SourceTerm(divergence_form=coefficient_times_vector(f, np.array([1.0, 0.0])))
    op = Operator(f, BoundarySpec.periodic())
    sys = op.system(src=src)
    _, smoothed = solve(sys, tol=1e-12)
    fast = ft.FastConstSolver(grid, cell_offsets(2), op.axis_bcs, grid.shape, project_mean=True,
                              coeff=op.mean_coeff, dtype=np.float32)
    monkeypatch.setattr(op, "preconditioner",
                        lambda r, norm: fast.solve(r.reshape(grid.shape)).ravel())
    u, plain = solve(sys, tol=1e-12)
    assert residual_norm(sys, u.values) <= 1e-12 and smoothed.true_residual <= 1e-12
    assert smoothed.iterations <= 0.6 * plain.iterations


def test_callable_boundary_datum_matches_meshgrid_path():
    datum = lambda *x: np.cos(0.3 * x[0]) + x[-1] * x[0] - 0.1 * x[1] ** 2
    for grid in (Grid.half_box(2, 8), Grid.half_box(2, 8, tangential_periodic=False),
                 Grid.half_box(3, 4), Grid.half_box(3, 4, tangential_periodic=False)):
        kinds = BoundarySpec.half_box(grid, flat=NoFlux(), top=Dirichlet())
        op = Operator(identity_field(grid), kinds)
        called, evaluated = {}, {}
        for (a, s), b in kinds.sides.items():
            if isinstance(b, PeriodicBC):
                called[a, s] = evaluated[a, s] = b
                continue
            # the datum on full-box coordinate meshgrids, sliced to the layer
            offs = face_offsets(grid.dim, a)
            layer = (slice(None),) * a + (0 if s == 0 else grid.face_shape(a)[a] - 1,)
            called[a, s] = type(b)(datum)
            evaluated[a, s] = type(b)(datum(*(c[layer] for c in grid.coords(offs))))
        rhs = op.system(BoundarySpec(called)).rhs
        assert np.array_equal(rhs, op.system(BoundarySpec(evaluated)).rhs)


@pytest.mark.parametrize("case", ["torus2d-c100", "slab2d", "window3d"])
def test_solve_by_diagonals_matches_csr_copy(case, monkeypatch):
    # the inner CG's diagonal-stored float32 matrix gives the iterates of a
    # float32 CSR copy of the same matrix bit for bit
    from homlab.corrector import coefficient_times_vector

    if case == "torus2d-c100":
        f = sample_field(EnsembleSpec.checkerboard(values=(0.01, 1.0), seed=7), Grid.torus(2, 64))
        kinds = BoundarySpec.periodic()
    elif case == "slab2d":
        torus = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=8), Grid.torus(2, 64))
        f = restrict_to_half_box(torus, 32.0)
        kinds = BoundarySpec.half_box(f.grid, flat=NoFlux(), top=Dirichlet())
    else:
        torus = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=9), Grid.torus(3, 16))
        f = restrict_to_half_box(torus, 8.0, tangential_periodic=False)
        kinds = BoundarySpec.half_box(f.grid, lateral=Dirichlet())
    op = Operator(f, kinds)
    xi = np.eye(f.grid.dim)[0]
    sys = op.system(src=SourceTerm(divergence_form=coefficient_times_vector(f, xi)))
    u, stats = solve(sys, tol=1e-12)
    assert isinstance(op.matrix32, sp.dia_matrix)
    monkeypatch.setattr(op, "matrix32", op.matrix.tocsr().astype(np.float32))
    u_csr, stats_csr = solve(sys, tol=1e-12)
    assert np.array_equal(u.values, u_csr.values)
    assert stats.iterations == stats_csr.iterations > 0
