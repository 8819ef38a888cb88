import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from homlab import _transforms as ft
from homlab.grid import Grid


def dense_1d(m, offset, bc_low, bc_high):
    """Dense [-1,2,-1] stencil with the module's ghost closures."""
    A = np.zeros((m, m))
    for i in range(m):
        A[i, i] = 2.0
        if i > 0:
            A[i, i - 1] = -1.0
        if i < m - 1:
            A[i, i + 1] = -1.0
    if offset == 0.5:
        A[0, 0] += {"dirichlet": 1.0, "neumann": -1.0}[bc_low]
        A[-1, -1] += {"dirichlet": 1.0, "neumann": -1.0}[bc_high]
    else:
        if bc_low == "neumann":
            A[0, 1] = -2.0
        if bc_high == "neumann":
            A[-1, -2] = -2.0
    return A


CASES = [
    (0.5, "dirichlet", "dirichlet"),
    (0.5, "neumann", "neumann"),
    (0.5, "neumann", "dirichlet"),
    (0.5, "dirichlet", "neumann"),
    (0.0, "dirichlet", "dirichlet"),
    (0.0, "neumann", "dirichlet"),
]


@pytest.mark.parametrize("offset,lo,hi", CASES)
def test_axis_modes_diagonalize_stencil(offset, lo, hi):
    m = 12
    A = dense_1d(m, offset, lo, hi)
    fwd, bwd, lam = ft.axis_modes(m, offset, lo, hi)
    for k in range(m):
        e = np.zeros(m)
        e[k] = 1.0
        v = bwd(e, 0)
        assert np.allclose(A @ v, lam[k] * v, atol=1e-12)


def test_axis_modes_periodic():
    m = 16
    A = np.zeros((m, m))
    for i in range(m):
        A[i, i] = 2.0
        A[i, (i - 1) % m] -= 1.0
        A[i, (i + 1) % m] -= 1.0
    fwd, bwd, lam = ft.axis_modes(m, 0.5, "periodic", "periodic")
    x = np.random.default_rng(0).standard_normal(m)
    y = np.real(bwd(fwd(x, 0) * lam, 0))
    assert np.allclose(y, A @ x, atol=1e-12)


@pytest.mark.parametrize("offset,lo,hi", CASES)
def test_vertical_stencil_matches_dense(offset, lo, hi):
    m = 9
    sub, dia, sup = ft.vertical_stencil(m, offset, lo, hi)
    A = np.diag(dia) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
    assert np.allclose(A, dense_1d(m, offset, lo, hi))


def test_thomas_many_vs_dense():
    rng = np.random.default_rng(1)
    m = 14
    sub, dia, sup = ft.vertical_stencil(m, 0.5, "neumann", "dirichlet")
    shifts = rng.uniform(0.5, 3.0, size=(5, 1))
    rhs = rng.standard_normal((5, m))
    x = ft.thomas_many(sub, dia + shifts, sup, rhs)
    for i in range(5):
        A = dense_1d(m, 0.5, "neumann", "dirichlet") + shifts[i] * np.eye(m)
        assert np.allclose(x[i], np.linalg.solve(A, rhs[i]), atol=1e-11)


def test_thomas_complex_rhs():
    m = 8
    sub, dia, sup = ft.vertical_stencil(m, 0.5, "dirichlet", "dirichlet")
    rhs = np.arange(m) + 1j * np.ones(m)
    x = ft.thomas_many(sub, dia + 0.7, sup, rhs)
    A = dense_1d(m, 0.5, "dirichlet", "dirichlet") + 0.7 * np.eye(m)
    assert np.allclose(A @ x, rhs, atol=1e-12)


# -- FastConstSolver against dense Kronecker-sum operators ---------------------

PERIODIC_AXIS = (0.5, "periodic", "periodic")
SINGULAR_AXES = [PERIODIC_AXIS, (0.5, "neumann", "neumann")]


def dense_axis(m, offset, bc_low, bc_high):
    if bc_low == "periodic":
        A = 2.0 * np.eye(m)
        for i in range(m):
            A[i, (i - 1) % m] -= 1.0
            A[i, (i + 1) % m] -= 1.0
        return A
    return dense_1d(m, offset, bc_low, bc_high)


def dense_operator(axes, h):
    """-lap_h as the Kronecker sum of the 1-D stencils, in C order."""
    mats = [dense_axis(m, *case) for case, m in axes]
    total = 0.0
    for a, A in enumerate(mats):
        term = np.eye(1)
        for b, B in enumerate(mats):
            term = np.kron(term, A if a == b else np.eye(B.shape[0]))
        total = total + term
    return total / (h * h)


def fast_solver(axes, h, project_mean=False):
    cases = [case for case, _ in axes]
    return ft.FastConstSolver(
        Grid.torus(2, 4, h),  # only the spacing is read; the shape sets the dimension
        [offset for offset, _, _ in cases],
        [(lo, hi) for _, lo, hi in cases],
        [m for _, m in axes],
        project_mean=project_mean,
    )


def axes_strategy(cases, lengths=st.integers(2, 7)):
    return st.lists(st.tuples(st.sampled_from(cases), lengths), min_size=1, max_size=3)


# a float32 solver takes a bounded axis of at most DENSE_AXIS_MAX cells as a
# dense product, a longer one through pocketfft: lengths on both sides
BOTH_PATHS = st.one_of(st.integers(2, 7),
                       st.sampled_from([ft.DENSE_AXIS_MAX - 1, ft.DENSE_AXIS_MAX,
                                        ft.DENSE_AXIS_MAX + 1, ft.DENSE_AXIS_MAX + 2]))


@settings(max_examples=80, deadline=None, database=None)
@given(
    axes=axes_strategy(CASES + [PERIODIC_AXIS]).filter(
        lambda axes: any(case not in SINGULAR_AXES for case, _ in axes)),
    h=st.sampled_from([1.0, 0.5]),
    seed=st.integers(0, 2**16),
)
@example(axes=[(PERIODIC_AXIS, 5), (CASES[-1], 4)], h=1.0, seed=0)
@example(axes=[(PERIODIC_AXIS, 7), (PERIODIC_AXIS, 3), (CASES[0], 3)], h=0.5, seed=1)
@example(axes=[(CASES[3], 6), (CASES[4], 5), (CASES[-1], 7)], h=1.0, seed=2)
def test_fast_solver_matches_dense(axes, h, seed):
    shape = [m for _, m in axes]
    b = np.random.default_rng(seed).standard_normal(shape)
    x = fast_solver(axes, h).solve(b)
    ref = np.linalg.solve(dense_operator(axes, h), b.ravel()).reshape(shape)
    assert x.shape == tuple(shape) and x.dtype == np.float64
    assert np.allclose(x, ref, rtol=0.0, atol=1e-11 * np.abs(ref).max())


@settings(max_examples=40, deadline=None, database=None)
@given(axes=axes_strategy(SINGULAR_AXES), h=st.sampled_from([1.0, 0.5]),
       seed=st.integers(0, 2**16))
@example(axes=[(PERIODIC_AXIS, 5), (PERIODIC_AXIS, 7)], h=1.0, seed=0)
@example(axes=[(SINGULAR_AXES[1], 3), (SINGULAR_AXES[1], 4), (SINGULAR_AXES[1], 5)], h=0.5, seed=1)
def test_fast_solver_project_mean_matches_least_squares(axes, h, seed):
    """Singular shapes: the solution is the mean-free minimum-norm one."""
    shape = [m for _, m in axes]
    b = np.random.default_rng(seed).standard_normal(shape)
    x = fast_solver(axes, h, project_mean=True).solve(b)
    ref = np.linalg.lstsq(dense_operator(axes, h), b.ravel(), rcond=None)[0].reshape(shape)
    scale = np.abs(ref).max()
    assert abs(x.mean()) <= 1e-13 * scale
    assert np.allclose(x, ref, rtol=0.0, atol=1e-11 * scale)


@settings(max_examples=60, deadline=None, database=None)
@given(axes=axes_strategy(CASES + [PERIODIC_AXIS], BOTH_PATHS), h=st.sampled_from([1.0, 0.5]),
       coeff=st.sampled_from([0.3, 1.0, 40.0]), magnitude=st.sampled_from([1e-40, 1.0, 1e30]),
       seed=st.integers(0, 2**16))
@example(axes=[(CASES[2], 64), (CASES[5], 65), (CASES[0], 5)], h=0.5, coeff=0.3, magnitude=1.0,
         seed=0)
@example(axes=[(CASES[3], 66), (PERIODIC_AXIS, 6), (CASES[4], 63)], h=1.0, coeff=40.0,
         magnitude=1e-40, seed=1)
def test_single_precision_solver_matches_float64(axes, h, coeff, magnitude, seed):
    """The float32 instance folds ``coeff`` into its symbol, returns float32
    within float32 round-off of the exact solve for data of unit norm (what
    the inner solves hand it, whatever the magnitude of their
    right-hand side), and leaves its input unwritten."""
    shape = [m for _, m in axes]
    project = all(case in SINGULAR_AXES for case, _ in axes)
    cases = [case for case, _ in axes]
    single = ft.FastConstSolver(Grid.torus(2, 4, h), [c[0] for c in cases], [c[1:] for c in cases],
                                shape, project_mean=project, coeff=coeff, dtype=np.float32)
    b = magnitude * np.random.default_rng(seed).standard_normal(shape)
    norm = float(np.linalg.norm(b))
    b32 = (b / norm).astype(np.float32)
    kept = b32.copy()
    x = single.solve(b32)
    ref = fast_solver(axes, h, project_mean=project).solve(b) / coeff
    assert np.array_equal(b32, kept)
    assert x.shape == tuple(shape) and x.dtype == np.float32
    assert np.allclose(norm * x.astype(np.float64), ref, rtol=0.0, atol=1e-5 * np.abs(ref).max())


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kinds", [
    [("periodic", "periodic")] * 3,
    [("periodic", "periodic"), ("periodic", "periodic"), ("neumann", "dirichlet")],
    [("dirichlet", "dirichlet"), ("dirichlet", "dirichlet"), ("neumann", "dirichlet")],
], ids=["torus", "slab", "box"])
def test_fast_solver_leaves_its_input_unwritten(kinds, dtype):
    # the first transform reads b into a new array and only the later ones
    # overwrite; data in the solver's dtype or the other one.  In float32 the
    # bounded axes of (8, 6, 4) are dense products, those of length 65 and 66
    # pocketfft transforms
    for shape in [(8, 6, 4), (65, 6, 66)]:
        solver = ft.FastConstSolver(Grid.torus(3, 4), (0.5,) * 3, kinds, shape,
                                    project_mean=kinds[-1][1] == "periodic", dtype=dtype)
        for data_dtype in (np.float64, np.float32):
            b = np.random.default_rng(3).standard_normal(shape).astype(data_dtype)
            kept = b.copy()
            x = solver.solve(b)
            assert np.array_equal(b, kept) and x.dtype == dtype and not np.shares_memory(x, b)


@pytest.mark.parametrize("offset,lo,hi", CASES)
def test_dense_and_pocketfft_single_precision_solves_agree(offset, lo, hi, monkeypatch):
    # the dense mode matrices on the first, a middle and the last axis
    # against the float32 trig transforms, both against the float64 solve
    shape = (ft.DENSE_AXIS_MAX, 7, 12)
    args = (Grid.torus(2, 4, 0.5), (offset,) * 3, [(lo, hi)] * 3, shape,
            (lo, hi) == ("neumann", "neumann"))
    b = np.random.default_rng(4).standard_normal(shape)
    b /= np.linalg.norm(b)
    ref = ft.FastConstSolver(*args).solve(b)
    dense = ft.FastConstSolver(*args, dtype=np.float32).solve(b.astype(np.float32))
    monkeypatch.setattr(ft, "DENSE_AXIS_MAX", 0)
    fft = ft.FastConstSolver(*args, dtype=np.float32).solve(b.astype(np.float32))
    tol = 16 * np.finfo(np.float32).eps * np.abs(ref).max()
    assert dense.dtype == fft.dtype == np.float32 and not np.array_equal(dense, fft)
    assert np.abs(dense - fft).max() <= tol
    assert np.abs(dense - ref).max() <= tol and np.abs(fft - ref).max() <= tol


def test_dense_single_precision_solve_is_the_same_at_any_blas_thread_count():
    # the dense products run in BLAS, which reads its thread variables when
    # it loads: one fresh interpreter per thread count, the same bytes
    probe = textwrap.dedent("""
        import hashlib
        import numpy as np
        from homlab import _transforms as ft
        from homlab.grid import Grid
        shape = (64, 64, 32)  # the 3d window: every axis a dense product
        assert max(shape) <= ft.DENSE_AXIS_MAX
        kinds = [("dirichlet", "dirichlet")] * 2 + [("neumann", "dirichlet")]
        solver = ft.FastConstSolver(Grid.torus(3, 4), (0.5,) * 3, kinds, shape, dtype=np.float32)
        b = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
        print(hashlib.sha256(solver.solve(b).tobytes()).hexdigest())
        """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               **{v: threads for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.split()[-1])
    assert len(digests) == 1
