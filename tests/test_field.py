import hashlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from homlab.grid import Grid, cell_offsets, face_offsets, pair_offsets
from homlab.field import (
    CoefficientField,
    EllipticityError,
    EnsembleSpec,
    FieldFileError,
    cell_matrices,
    cell_values,
    checkerboard_assignment,
    faces_from_cells,
    index_maps,
    load_field,
    restrict_to_half_box,
    restrict_values,
    sample_field,
    save_field,
    validate_ellipticity,
)


def test_constant_identity_every_face():
    grid = Grid.torus(2, 8)
    f = sample_field(EnsembleSpec.constant(np.eye(2)), grid)
    for k in range(2):
        assert np.array_equal(f.matrices(k), np.broadcast_to(np.eye(2), f.matrices(k).shape))


def test_laminate_depends_only_on_first_axis():
    grid = Grid.torus(2, 64)
    f = sample_field(EnsembleSpec.laminate(axis=0, values=(0.25, 1.0)), grid)
    for k in range(2):
        # scan rows: constant along axis 1
        assert np.allclose(f.matrices(k), f.matrices(k)[:, :1], atol=0.0)


def test_checkerboard_fraction_and_determinism():
    grid = Grid.torus(2, 64)
    spec = EnsembleSpec.checkerboard(values=(0.25, 1.0), cell_size=1.0, seed=7)
    assign = checkerboard_assignment(spec, grid)
    frac = float((assign == 1).mean())
    assert 0.375 <= frac <= 0.625
    f1 = sample_field(spec, grid)
    f2 = sample_field(spec, grid)
    assert f1.equals(f2)


def test_checkerboard_face_values_from_harmonic_mean():
    grid = Grid.torus(2, 16)
    spec = EnsembleSpec.checkerboard(values=(0.25, 1.0), cell_size=1.0, seed=3)
    f = sample_field(spec, grid)
    vals = {round(v, 12) for v in np.unique(f.matrices(0)[..., 0, 0])}
    assert vals <= {0.25, 0.4, 1.0}


def test_ellipticity_report_identity():
    grid = Grid.torus(2, 8)
    f = sample_field(EnsembleSpec.constant(np.eye(2)), grid)
    rep = validate_ellipticity(f)
    assert rep.min_rayleigh == 1.0 and rep.max_gain == 1.0 and rep.ok


def test_ellipticity_scaled_field_violates_everywhere():
    grid = Grid.torus(2, 8)
    with pytest.raises(EllipticityError):
        sample_field(EnsembleSpec.constant(1.5 * np.eye(2), lam=0.25), grid)
    f = sample_field(EnsembleSpec.constant(np.eye(2)), grid)
    scaled = CoefficientField(grid, [1.5 * a for a in f.faces], lam=1.0)
    rep = validate_ellipticity(scaled)
    assert not rep.ok and rep.max_gain == 1.5 and len(rep.violations) > 0


def test_ellipticity_checkerboard_min_rayleigh():
    grid = Grid.torus(2, 64)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=7), grid)
    rep = validate_ellipticity(f)
    # exhaustive face scan oracle
    lo = min(float(np.linalg.eigvalsh(0.5 * (m + m.T)).min())
             for k in range(2) for m in f.matrices(k).reshape(-1, 2, 2))
    assert rep.min_rayleigh == pytest.approx(lo, abs=0.0)
    assert rep.min_rayleigh == pytest.approx(0.25, abs=1e-15)


def test_random_probe_inequalities():
    grid = Grid.torus(2, 16)
    for spec in [
        EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=5),
        EnsembleSpec.gaussian_lipschitz(correlation_length=2.0, lam=0.25, seed=5),
    ]:
        f = sample_field(spec, grid)
        rng = np.random.default_rng(11)
        for k in range(2):
            mats = f.matrices(k).reshape(-1, 2, 2)
            xi = rng.standard_normal((100, 2))
            xi /= np.linalg.norm(xi, axis=1, keepdims=True)
            for m in mats[:: max(1, len(mats) // 50)]:
                lower = np.einsum("pi,ij,pj->p", xi, m, xi)
                assert np.all(lower >= f.lam * np.einsum("pi,pi->p", xi, xi) - 1e-13)
                gain = np.linalg.norm(xi @ m.T, axis=1)
                assert np.all(gain <= np.linalg.norm(xi, axis=1) + 1e-13)


def test_gaussian_field_range_and_determinism():
    grid = Grid.torus(2, 64)
    spec = EnsembleSpec.gaussian_lipschitz(correlation_length=3.0, lam=0.25, seed=2)
    c1 = cell_matrices(spec, grid)
    c2 = cell_matrices(spec, grid)
    assert np.array_equal(c1, c2)
    d = c1[..., 0, 0]
    assert d.min() >= 0.25 and d.max() <= 1.0
    assert d.std() > 0.01  # genuinely random


@pytest.mark.parametrize("n", [64, 128, 256])
def test_gaussian_field_statistics_at_every_h(n):
    # side 64, l = 2: (a - mean) / scale has unit variance and correlation
    # e^(-1/2) at lag l, pooled over 24 seeds; the scale keeps every cell
    # off the clip
    grid = Grid.torus(2, n, 64.0 / n)
    lag = int(round(2.0 / grid.h))
    var, cov = [], []
    for seed in range(24):
        spec = EnsembleSpec.gaussian_lipschitz(lam=0.25, seed=seed, mean=0.625, scale=0.05)
        a = cell_values(spec, grid)[..., 0]
        assert a.min() > 0.25 * (1.0 + 1e-9) and a.max() < 1.0 - 1e-12
        g = (a - 0.625) / 0.05
        var.append(np.mean(g * g))
        cov.append(np.mean([np.mean(g * np.roll(g, lag, axis=k)) for k in range(2)]))
    assert abs(np.mean(var) - 1.0) <= 0.03
    assert abs(np.mean(cov) / np.mean(var) - np.exp(-0.5)) <= 0.02


def test_gaussian_rungs_of_one_seed_pair_across_h():
    # one seed is one continuum realization at every h: on the side-32
    # torus the rung differences of a_hom_11 vary 10x less over seeds than
    # the h = 1 level
    from homlab.corrector import homogenized_matrix, solve_correctors

    rungs = np.array([[homogenized_matrix(solve_correctors(sample_field(
        EnsembleSpec.gaussian_lipschitz(seed=seed), Grid.torus(2, 32 * k, 1.0 / k)),
        tol=1e-10))[0, 0] for k in (1, 2, 4)] for seed in range(8)])
    stderr = lambda v: v.std(ddof=1) / np.sqrt(len(v))
    for diff in (rungs[:, 1] - rungs[:, 0], rungs[:, 2] - rungs[:, 1]):
        assert stderr(diff) <= 0.1 * stderr(rungs[:, 0])


def test_torus_periodicity_of_faces():
    grid = Grid.torus(2, 32)
    f = sample_field(EnsembleSpec.checkerboard(seed=1), grid)
    # faces are stored once per identified location; periodicity is exact
    # by construction, checked via index wrap of the generating cells
    cells = cell_matrices(EnsembleSpec.checkerboard(seed=1), grid)
    assert np.array_equal(cells, np.roll(np.roll(cells, 32, axis=0), 32, axis=1))


def test_restrict_half_box_constant_and_laminate():
    grid = Grid.torus(2, 32)
    const = sample_field(EnsembleSpec.constant(0.5 * np.eye(2)), grid)
    half = restrict_to_half_box(const, L=8.0, tangential_periodic=False)
    assert half.grid.shape == (16, 8)
    assert np.allclose(half.matrices(0), 0.5 * np.eye(2), atol=0.0)
    lam = sample_field(EnsembleSpec.laminate(axis=0, values=(0.25, 1.0)), grid)
    hl = restrict_to_half_box(lam, L=8.0, tangential_periodic=False)
    assert np.allclose(hl.matrices(1), hl.matrices(1)[:, :1], atol=0.0)


def test_restrict_half_box_checkerboard_index_arithmetic():
    grid = Grid.torus(2, 32)
    f = sample_field(EnsembleSpec.checkerboard(seed=7), grid)
    half = restrict_to_half_box(f, L=8.0, tangential_periodic=False)  # quarter side
    n, L_cells = 32, 8
    for j in range(half.grid.shape[0]):
        ti = (j - L_cells) % n
        assert np.array_equal(half.matrices(1)[j], f.matrices(1)[ti, : L_cells + 1])


def reference_half_box_maps(torus_grid, half_grid, offsets):
    """The torus-to-half-box index formula that ``index_maps`` replaced."""
    counts = half_grid.home_shape(offsets)
    out = []
    for a in range(half_grid.dim):
        x = half_grid.origin[a] + (np.arange(counts[a]) + offsets[a]) * half_grid.h
        out.append(np.rint(x / half_grid.h - offsets[a]).astype(int) % torus_grid.n)
    return out


def reference_slab_on_window_maps(slab_grid, win_grid, offsets):
    """The slab-to-window index formula that ``index_maps`` replaced (face
    families; the cell form took ``win_grid.shape``, the same counts)."""
    out = []
    for a in range(win_grid.dim):
        m = win_grid.home_shape(offsets)[a]
        x = win_grid.origin[a] + (np.arange(m) + offsets[a]) * win_grid.h
        i = np.rint((x - slab_grid.origin[a]) / slab_grid.h - offsets[a]).astype(int)
        if slab_grid.periodic_axis(a):
            i %= slab_grid.shape[a]
        out.append(i)
    return out


def brute_force_restriction(values, torus_grid, dst_grid, offsets):
    """Each destination home point takes the value of the torus home
    point at minimum-image distance zero."""
    d = torus_grid.dim
    src = np.stack([x.ravel() for x in torus_grid.coords(offsets)], axis=1)
    dst = np.stack([x.ravel() for x in dst_grid.coords(offsets)], axis=1)
    diff = dst[:, None, :] - src[None, :, :]
    side = torus_grid.side
    diff = (diff + side / 2.0) % side - side / 2.0
    dist = np.sqrt((diff ** 2).sum(axis=2))
    nearest = dist.argmin(axis=1)
    assert np.all(dist[np.arange(len(dst)), nearest] < 1e-9 * torus_grid.h)
    flat = values.reshape((-1,) + values.shape[d:])
    return flat[nearest].reshape(dst_grid.home_shape(offsets) + values.shape[d:])


@st.composite
def restriction_cases(draw):
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([8, 16] if dim == 2 else [4, 8]))
    h = draw(st.sampled_from([1.0, 0.5]))
    torus = Grid.torus(dim, n, h)
    homes = [cell_offsets(dim)] + [face_offsets(dim, k) for k in range(dim)]
    homes += [pair_offsets(dim, j, k) for j in range(dim) for k in range(j + 1, dim)]
    offsets = draw(st.sampled_from(homes))
    n_box = draw(st.sampled_from(range(4, n + 1, 2)))
    n_window = draw(st.sampled_from(range(4, n_box + 1, 2)))
    tail = draw(st.sampled_from([(), (dim,), (dim, dim)]))
    seed = draw(st.integers(0, 2**16))
    return torus, offsets, n_box, n_window, tail, seed


@settings(max_examples=150, deadline=None, database=None)
@given(case=restriction_cases())
def test_index_maps_round_trip_and_reference(case):
    torus, offsets, n_box, n_window, tail, seed = case
    dim, n, h = torus.dim, torus.n, torus.h
    slab = Grid.half_box(dim, n, h, tangential_periodic=True)
    box = Grid.half_box(dim, n_box, h, tangential_periodic=False)
    window = Grid.half_box(dim, n_window, h, tangential_periodic=False)
    values = np.random.default_rng(seed).standard_normal(torus.home_shape(offsets) + tail)
    for half in (slab, box, window):
        got = restrict_values(values, torus, half, offsets)
        assert got.shape == half.home_shape(offsets) + tail
        assert np.array_equal(got, brute_force_restriction(values, torus, half, offsets))
        maps = index_maps(torus, half, offsets)
        for i, ref in zip(maps, reference_half_box_maps(torus, half, offsets)):
            assert np.array_equal(i, ref)
    # through the slab or a larger box to the window equals straight to it
    straight = restrict_values(values, torus, window, offsets)
    for mid in (slab, box):
        via = restrict_values(restrict_values(values, torus, mid, offsets), mid, window, offsets)
        assert np.array_equal(via, straight)
        maps = index_maps(mid, window, offsets)
        for i, ref in zip(maps, reference_slab_on_window_maps(mid, window, offsets)):
            assert np.array_equal(i, ref)


def test_sample_field_on_half_box_matches_restriction():
    spec = EnsembleSpec.checkerboard(seed=9)
    torus = Grid.torus(2, 16)
    full = sample_field(spec, torus)
    direct = sample_field(spec, Grid.half_box(2, 16))
    via = restrict_to_half_box(full, L=8.0)
    assert direct.equals(via)


def test_save_load_round_trip(tmp_path):
    grid = Grid.torus(2, 16)
    for spec in [EnsembleSpec.constant(np.eye(2)), EnsembleSpec.checkerboard(seed=7)]:
        f = sample_field(spec, grid)
        p = tmp_path / "f.bin"
        save_field(f, p)
        g = load_field(p)
        assert f.equals(g)
    half = restrict_to_half_box(sample_field(EnsembleSpec.checkerboard(seed=7), grid), 8.0)
    p = tmp_path / "h.bin"
    save_field(half, p)
    assert load_field(p).equals(half)


def test_load_truncated_file_raises(tmp_path):
    grid = Grid.torus(2, 8)
    f = sample_field(EnsembleSpec.constant(np.eye(2)), grid)
    p = tmp_path / "f.bin"
    save_field(f, p)
    raw = p.read_bytes()
    (tmp_path / "t.bin").write_bytes(raw[: len(raw) - 16])
    with pytest.raises(FieldFileError):
        load_field(tmp_path / "t.bin")
    (tmp_path / "m.bin").write_bytes(b"NOTAFIELD" + raw)
    with pytest.raises(FieldFileError):
        load_field(tmp_path / "m.bin")


def test_save_that_fails_mid_write_keeps_the_previous_file(tmp_path, monkeypatch):
    # the archive writer raises at the second face array; the file keeps its old bytes
    grid = Grid.torus(2, 16)
    p = tmp_path / "f.bin"
    save_field(sample_field(EnsembleSpec.checkerboard(seed=7), grid), p)
    before = p.read_bytes()
    write_array, written = np.lib.format.write_array, []

    def failing(entry, array, **kwargs):
        written.append(array.shape)
        if len(written) == 3:  # the meta, faces_0, then faces_1
            raise OSError("disk full")
        return write_array(entry, array, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", failing)
    with pytest.raises(OSError, match="disk full"):
        save_field(sample_field(EnsembleSpec.checkerboard(seed=8), grid), p)
    assert written[1:] == [grid.face_shape(0) + (1,), grid.face_shape(1) + (1,)]
    assert p.read_bytes() == before
    assert list(tmp_path.iterdir()) == [p]


def reference_faces(grid, cells):
    """Face matrices one face at a time: per axis, the harmonic mean
    2 (a^-1 + b^-1)^-1 (symmetrized) of the two cells of every face when
    all cells are symmetric and no inverse on the axis is singular, else
    the arithmetic mean; boundary faces of a non-periodic axis copy their
    cell."""
    d = grid.dim
    symmetric = np.array_equal(cells, np.swapaxes(cells, -1, -2))
    faces = []
    for k in range(d):
        m = grid.shape[k]
        pairs = {}
        for idx in np.ndindex(grid.face_shape(k)):
            cell = lambda i: cells[idx[:k] + (i,) + idx[k + 1:]]
            i = idx[k]
            if not grid.periodic_axis(k) and i in (0, m):
                pairs[idx] = (cell(min(i, m - 1)),)
            else:
                pairs[idx] = (cell((i - 1) % m), cell(i % m))

        def mean(a, b, harmonic):
            if not harmonic:
                return 0.5 * (a + b)
            h = 2.0 * np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b))
            return 0.5 * (h + h.T)

        try:
            out = {idx: p[0] if len(p) == 1 else mean(*p, symmetric) for idx, p in pairs.items()}
        except np.linalg.LinAlgError:
            out = {idx: p[0] if len(p) == 1 else mean(*p, False) for idx, p in pairs.items()}
        face = np.empty(grid.face_shape(k) + (d, d))
        for idx, v in out.items():
            face[idx] = v
        faces.append(face)
    return faces


MATRIX_VALUES = {
    2: {"symmetric": ([[0.6, 0.1], [0.1, 0.5]], np.eye(2)),
        "nonsymmetric": ([[0.6, 0.1], [-0.1, 0.5]], np.eye(2)),
        "singular_symmetric": ([[0.5, 0.5], [0.5, 0.5]], np.eye(2))},
    3: {"symmetric": ([[0.6, 0.1, 0.0], [0.1, 0.5, 0.1], [0.0, 0.1, 0.7]], np.eye(3)),
        "nonsymmetric": ([[0.6, 0.1, 0.0], [-0.1, 0.5, 0.1], [0.0, -0.1, 0.7]], np.eye(3)),
        "singular_symmetric": (np.ones((3, 3)) / 3.0, np.eye(3))},
}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("values", ["symmetric", "nonsymmetric", "singular_symmetric"])
@pytest.mark.parametrize("topology", ["torus", "slab", "box"])
def test_faces_from_cell_matrices_match_per_face_reference(dim, values, topology):
    n = 8 if dim == 2 else 4
    grid = {"torus": Grid.torus(dim, n), "slab": Grid.half_box(dim, n, 1.0, True),
            "box": Grid.half_box(dim, n, 1.0, False)}[topology]
    assign = np.random.default_rng(dim).integers(0, 2, grid.shape)
    cells = np.asarray(MATRIX_VALUES[dim][values], dtype=float)[assign]
    faces = faces_from_cells(grid, cells)
    for face, want in zip(faces, reference_faces(grid, cells)):
        assert np.array_equal(face, want)
    field = CoefficientField(grid, faces, lam=0.1)
    assert not field.diagonal and field.is_symmetric() == (values != "nonsymmetric")


def test_faces_from_cell_matrices_fall_back_per_axis():
    # a = [[2, 1], [1, 1]] and b = [[0, 1], [1, 1]] alternate along axis 0:
    # a^-1 + b^-1 = diag(0, 2) is singular, so that axis takes the
    # arithmetic mean and axis 1, whose pairs are equal, the harmonic one
    grid = Grid.torus(2, 4)
    cells = np.array([[[2.0, 1.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, 1.0]]])[np.arange(4) % 2]
    cells = np.repeat(cells[:, None], 4, axis=1)
    faces = faces_from_cells(grid, cells)
    for face, want in zip(faces, reference_faces(grid, cells)):
        assert np.array_equal(face, want)
    assert np.array_equal(faces[0], 0.5 * (cells + np.roll(cells, 1, axis=0)))
    assert np.allclose(faces[1], cells, rtol=0.0, atol=1e-15)


def test_restrict_errors():
    grid = Grid.torus(2, 16)
    f = sample_field(EnsembleSpec.constant(np.eye(2)), grid)
    with pytest.raises(ValueError):
        restrict_to_half_box(f, L=12.0)  # slab narrower than the torus
    with pytest.raises(ValueError):
        restrict_to_half_box(f, L=3.3, tangential_periodic=False)  # off-grid plane
    with pytest.raises(ValueError):
        restrict_to_half_box(f, L=16.0, tangential_periodic=False)  # 2L > side


def reference_ellipticity(field):
    """Per-face scan in (axis, flat index) order: the exact min(diag) and
    max(|diag|) of a face without off-diagonal entries (an SVD of such a
    face can be an ulp off), eigvalsh / svd of the others; slack 1e-12,
    the first 10 violations."""
    d = field.grid.dim
    min_r, max_g, violations = np.inf, 0.0, []
    for ax in range(d):
        for b, m in enumerate(field.matrices(ax).reshape(-1, d, d)):
            if np.count_nonzero(m - np.diag(np.diag(m))) == 0:
                r, g = float(np.diag(m).min()), float(np.abs(np.diag(m)).max())
            else:
                r = float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])
                g = float(np.linalg.svd(m, compute_uv=False)[0])
            min_r, max_g = min(min_r, r), max(max_g, g)
            if (r < field.lam - 1e-12 or g > 1.0 + 1e-12) and len(violations) < 10:
                violations.append((ax, np.unravel_index(b, field.grid.face_shape(ax)), m))
    return min_r, max_g, violations


@st.composite
def mixed_fields(draw):
    """Diagonal faces mixed with full (symmetric or not) ones, plus
    violations injected at known faces."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([4, 8]))
    grid = draw(st.sampled_from([Grid.torus(dim, n), Grid.half_box(dim, n),
                                 Grid.half_box(dim, n, tangential_periodic=False)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    lam = 0.2
    ii = np.arange(dim)
    faces, injected = [], set()
    for k in range(dim):
        shp = grid.face_shape(k)
        a = np.zeros(shp + (dim, dim))
        a[..., ii, ii] = rng.uniform(0.4, 0.7, shp + (dim,))
        full = rng.random(shp) < draw(st.sampled_from([0.0, 0.2, 1.0]))
        pert = rng.uniform(-0.05, 0.05, (int(full.sum()), dim, dim))  # stays admissible
        if draw(st.booleans()):
            pert = 0.5 * (pert + np.swapaxes(pert, -1, -2))
        a[full] += pert
        flat = a.reshape(-1, dim, dim)
        for b in rng.choice(flat.shape[0], size=draw(st.integers(0, 4)), replace=False):
            kind = rng.integers(4)
            if kind == 0:  # symmetric part below lam
                flat[b, ii[-1], ii[-1]] = 0.05
            elif kind == 1:  # gain above 1
                flat[b, 0, 0] = 1.5
            elif kind == 2:  # negative entry: both bounds fail
                flat[b, 0, 0] = -1.2
            else:  # off-diagonal entry pushes the gain above 1
                flat[b] = 0.7 * np.eye(dim)
                flat[b, 0, 1] = 0.9
            injected.add((k, int(b)))
        faces.append(a)
    return CoefficientField(grid, faces, lam=lam), injected


def twelve_violations(kind):
    """A 3d field with 12 violating faces, 4 per axis, two over the cap of
    10; multiples of the identity ("isotropic", one value per face),
    "diagonal" storage or "full" matrices."""
    grid = Grid.torus(3, 4)
    rng = np.random.default_rng(3)
    ii = np.arange(3)
    faces, injected = [], set()
    for k in range(3):
        a = np.zeros(grid.face_shape(k) + (3, 3))
        slots = 1 if kind == "isotropic" else 3
        a[..., ii, ii] = rng.uniform(0.4, 0.7, grid.face_shape(k) + (slots,))
        if kind == "full":
            a[..., 0, 1] = a[..., 1, 0] = 0.05
        flat = a.reshape(-1, 3, 3)
        for j, b in enumerate(rng.choice(flat.shape[0], size=4, replace=False)):
            on = ii if kind == "isotropic" else j % 3
            flat[b, on, on] = 0.05 if j % 2 else 1.5
            injected.add((k, int(b)))
        faces.append(a)
    return CoefficientField(grid, faces, lam=0.2), injected


@settings(max_examples=60, deadline=None, database=None)
@given(case=mixed_fields())
@example(case=twelve_violations("isotropic"))
@example(case=twelve_violations("diagonal"))
@example(case=twelve_violations("full"))
def test_validate_ellipticity_matches_per_face_reference(case):
    field, injected = case
    rep = validate_ellipticity(field)
    min_r, max_g, violations = reference_ellipticity(field)
    assert rep.min_rayleigh == min_r and rep.max_gain == max_g
    assert rep.ok == (not injected)
    assert len(rep.violations) == len(violations) == min(10, len(injected))
    for (ax, idx, mat), (ax_ref, idx_ref, mat_ref) in zip(rep.violations, violations):
        assert ax == ax_ref and tuple(idx) == tuple(idx_ref)
        assert np.array_equal(mat, mat_ref)
    # only injected faces are reported, every one of them up to the cap of 10
    flagged = {(ax, int(np.ravel_multi_index(idx, field.grid.face_shape(ax))))
               for ax, idx, _ in rep.violations}
    assert flagged <= injected and len(flagged) == min(10, len(injected))


# -- diagonal storage ---------------------------------------------------------


def test_zero_offdiagonal_matrices_give_diagonal_storage():
    grid = Grid.half_box(3, 4, tangential_periodic=False)
    rng = np.random.default_rng(1)
    diags = [rng.uniform(0.3, 1.0, grid.face_shape(k) + (3,)) for k in range(3)]
    mats = [np.einsum("...i,ij->...ij", a, np.eye(3)) for a in diags]
    from_diag = CoefficientField(grid, diags, lam=0.3, seed=4)
    from_mats = CoefficientField(grid, mats, lam=0.3, seed=4)
    assert from_diag.diagonal and from_mats.diagonal
    assert from_diag.equals(from_mats) and from_mats.equals(from_diag)
    for k in range(3):
        assert from_mats.faces[k].shape == grid.face_shape(k) + (3,)
        assert np.array_equal(from_mats.faces[k], diags[k])
        assert np.array_equal(from_diag.matrices(k), mats[k])
        assert np.array_equal(from_diag.entry(k, k), diags[k][..., k])
        assert not np.any(from_diag.entry(k, (k + 1) % 3))
    assert from_diag.is_symmetric()
    # one value per face, given as one slot, d equal entries or matrices,
    # is stored as one slot; beside anisotropic faces it takes d slots
    iso = [np.full(grid.face_shape(k) + (1,), 0.5 + 0.1 * k) for k in range(3)]
    forms = [iso, [np.repeat(a, 3, axis=-1) for a in iso],
             [a[..., None] * np.eye(3) for a in iso]]
    for faces in forms:
        f = CoefficientField(grid, faces, lam=0.3)
        assert f.diagonal and f.equals(CoefficientField(grid, iso, lam=0.3))
        assert all(a.shape[-1] == 1 for a in f.faces) and f.entry(1, 1).flags.c_contiguous
        assert np.array_equal(f.matrices(2), forms[2][2])
    mixed = CoefficientField(grid, [iso[0], diags[1], diags[2]], lam=0.3)
    assert all(a.shape[-1] == 3 for a in mixed.faces)
    assert mixed.equals(CoefficientField(grid, [forms[1][0], diags[1], diags[2]], lam=0.3))
    # one off-diagonal entry anywhere keeps every axis as full matrices
    mats[2][1, 0, 0, 2, 1] = 0.01
    full = CoefficientField(grid, [diags[0], mats[1], mats[2]], lam=0.3)
    assert not full.diagonal and not full.is_symmetric()
    assert np.array_equal(full.faces[0], from_diag.matrices(0))
    assert full.entry(2, 1)[1, 0, 0] == 0.01
    with pytest.raises(ValueError):
        CoefficientField(grid, [d[..., :2] for d in diags], lam=0.3)


def test_validate_diagonal_field_closed_forms():
    # max |diag| must see a negative entry larger in size than every positive one
    grid = Grid.torus(2, 4)
    diags = [np.full(grid.face_shape(k) + (2,), 0.7) for k in range(2)]
    diags[1][2, 3, 0] = -1.2
    rep = validate_ellipticity(CoefficientField(grid, diags, lam=0.5))
    assert rep.min_rayleigh == -1.2 and rep.max_gain == 1.2 and not rep.ok
    assert [(ax, tuple(idx)) for ax, idx, _ in rep.violations] == [(1, (2, 3))]
    assert np.array_equal(rep.violations[0][2], np.diag([-1.2, 0.7]))


def test_every_builtin_ensemble_samples_diagonal_storage():
    grid = Grid.torus(3, 8)
    specs = [EnsembleSpec.constant(0.5 * np.eye(3)), EnsembleSpec.laminate(axis=2),
             EnsembleSpec.checkerboard(values=(0.25, np.diag([0.5, 0.75, 1.0])), seed=3),
             EnsembleSpec.gaussian_lipschitz(seed=3)]
    for spec in specs:
        f = sample_field(spec, grid)
        assert f.diagonal
        # one value per face unless the values differ along the diagonal
        slots = 3 if spec is specs[2] else 1
        assert all(a.shape == grid.face_shape(k) + (slots,) for k, a in enumerate(f.faces))
        cells = cell_values(spec, grid)
        assert cells.shape == grid.shape + (3,)
        mats = cell_matrices(spec, grid)
        assert np.array_equal(mats, np.einsum("...i,ij->...ij", cells, np.eye(3)))


def test_nonsymmetric_constant_field_keeps_full_storage(tmp_path):
    from homlab.corrector import homogenized_matrix, solve_correctors

    grid = Grid.torus(2, 16)
    a0 = np.array([[0.8, 0.2], [-0.2, 0.8]])  # the non-symmetric member of test_corrector
    f = sample_field(EnsembleSpec.constant(a0), grid)
    assert not f.diagonal and not f.is_symmetric()
    assert cell_values(EnsembleSpec.constant(a0), grid).shape == grid.shape + (2, 2)
    for k in range(2):
        assert f.faces[k].shape == grid.face_shape(k) + (2, 2)
        assert np.array_equal(f.matrices(k), np.broadcast_to(a0, f.faces[k].shape))
        assert np.all(f.entry(k, 1 - k) == a0[k, 1 - k])
    p = tmp_path / "a0.bin"
    save_field(f, p)
    assert load_field(p).equals(f) and not load_field(p).diagonal
    assert np.abs(homogenized_matrix(solve_correctors(f)) - a0).max() <= 1e-14


# SHA-256 of save_field files of checkerboard (0.25, 1) seed 7 fields: the
# write_arrays archive of one value per face, its entries dated 1980-01-01
SAVED_FIELD_SHA256 = {
    2: (8, "79b5a9b58c0e5abfdbcc8e991618ed71b33d776f08a8e37619f14dbb2eddc91b"),
    3: (4, "d9fb5adb792095cc1425c18eb463d37221eab4c05185f6d9c2e21e2fb78847c3"),
}


@pytest.mark.parametrize("dim", [2, 3])
def test_saved_field_bytes_unchanged(tmp_path, monkeypatch, dim):
    n, digest = SAVED_FIELD_SHA256[dim]
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=7), Grid.torus(dim, n))
    p, q = tmp_path / "f.bin", tmp_path / "g.bin"
    save_field(f, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == digest
    g = load_field(p)
    assert g.diagonal and g.equals(f)
    # a save a year later by the clock writes the same bytes
    now = time.time()
    monkeypatch.setattr(time, "time", lambda: now + 366 * 86400.0)
    save_field(g, q)
    assert q.read_bytes() == p.read_bytes()


def test_field_file_holds_the_stored_faces(tmp_path):
    # one float64 per face at 32^3: the file is the stored bytes plus the
    # archive's headers, and loading it peaks below twice the stored bytes
    grid = Grid.torus(3, 32)
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=2), grid)
    stored = sum(a.nbytes for a in f.faces)
    assert stored == 786_432
    p = tmp_path / "f.bin"
    save_field(f, p)
    assert p.stat().st_size <= stored + 4096
    tracemalloc.start()
    try:
        g = load_field(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.equals(f) and peak <= 2 * stored


def test_sample_field_peak_memory():
    # one float64 per face: 786,432 B at 32^3, a third of the 2,359,296 B
    # of diagonal storage; the Gaussian mode draw alone peaks above that
    grid = Grid.torus(3, 32)
    stored = 8 * sum(int(np.prod(grid.face_shape(k))) for k in range(3))
    assert stored == 786_432
    for spec in [EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=2),
                 EnsembleSpec.gaussian_lipschitz(seed=2)]:
        tracemalloc.start()
        try:
            f = sample_field(spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(a.nbytes for a in f.faces) == stored
        assert peak <= 2.5 * 2_359_296
        if spec.kind == "checkerboard":
            assert peak <= 2.5 * stored
