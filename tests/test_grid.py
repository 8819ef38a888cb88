import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from homlab.grid import HALF_BOX, Grid, cell_offsets, face_offsets, pair_offsets


def reference_ball_mask(grid, offsets, r):
    """Brute force on full-shape arrays: meshgrid of home coordinates,
    minimum image per axis, squared distances summed in axis order; on a
    half-box also x_d > 0."""
    xs = grid.coords(offsets)
    rho2 = 0
    for a, x in enumerate(xs):
        d = x
        if grid.periodic_axis(a):
            s = grid.side
            d = (d + s / 2.0) % s - s / 2.0
        rho2 = rho2 + d * d
    mask = rho2 < r * r
    if grid.topology == HALF_BOX:
        mask &= xs[grid.dim - 1] > 0.0
    return mask


def make_grid(dim, topology, n, h):
    if topology == "torus":
        return Grid.torus(dim, n, h)
    return Grid.half_box(dim, n, h, tangential_periodic=topology == "slab")


def homes(dim):
    out = [cell_offsets(dim)] + [face_offsets(dim, k) for k in range(dim)]
    out += [pair_offsets(dim, j, k) for j in range(dim) for k in range(j + 1, dim)]
    return out


@st.composite
def ball_cases(draw):
    dim = draw(st.sampled_from([2, 3]))
    topology = draw(st.sampled_from(["torus", "slab", "box"]))
    n = draw(st.sampled_from([4, 8]))
    h = draw(st.sampled_from([1.0, 0.5]))
    grid = make_grid(dim, topology, n, h)
    offsets = draw(st.sampled_from(homes(dim)))
    # half-integer multiples of h hit points exactly on the sphere
    r = draw(st.one_of(st.floats(0.0, grid.side, allow_nan=False),
                       st.integers(0, 2 * n).map(lambda i: 0.5 * i * h)))
    return grid, offsets, r


@settings(max_examples=300, deadline=None, database=None)
@given(case=ball_cases())
def test_ball_mask_matches_brute_force(case):
    grid, offsets, r = case
    got = grid.ball_mask(offsets, r)
    want = reference_ball_mask(grid, offsets, r)
    assert got.shape == grid.home_shape(offsets)
    assert got.dtype == bool
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None, database=None)
@given(dim=st.sampled_from([2, 3]), topology=st.sampled_from(["torus", "slab", "box"]),
       n=st.sampled_from([4, 8, 16]), h=st.sampled_from([1.0, 0.5]))
def test_home_shape_is_the_lengths_of_points_along(dim, topology, n, h):
    # every axis at integer and at half offset: every home of the topology
    grid = make_grid(dim, topology, n, h)
    for offsets in itertools.product((0.0, 0.5), repeat=dim):
        assert grid.home_shape(offsets) == tuple(
            len(grid.points_along(a, offsets[a])) for a in range(dim))
