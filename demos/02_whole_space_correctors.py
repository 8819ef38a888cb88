"""Whole-space correctors, homogenized matrices, flux potentials and the
sublinearity diagnostics.

Two exactly solvable cases anchor the discretization (a laminate, where
the harmonic/arithmetic means are reproduced to solver precision, and
the two-phase checkerboard, whose effective matrix approaches the
geometric-mean value once the coefficient cells are resolved), followed
by the skew flux potential and the scale-decay curves that quantify
ergodicity.
"""

import numpy as np

from homlab import (
    EnsembleSpec,
    Grid,
    dyadic_radii,
    flux_potential_residual,
    homogenized_matrix,
    monte_carlo_homogenized,
    sample_field,
    solve_correctors,
    solve_pair,
    sublinearity_curve,
)

print("== laminate: closed forms are exact ==")
grid = Grid.torus(2, 128, h=0.5)
f = sample_field(EnsembleSpec.laminate(axis=0, values=(0.25, 1.0)), grid)
cset = solve_correctors(f, tol=1e-13)
a_hom = homogenized_matrix(cset)
print("a_hom =", np.round(a_hom, 10).tolist())
print("harmonic x arithmetic target = diag(0.4, 0.625); max error",
      f"{np.abs(a_hom - np.diag([0.4, 0.625])).max():.2e}")

print("\n== checkerboard: duality target 0.5 Id at resolved cells ==")
est = monte_carlo_homogenized(
    EnsembleSpec.checkerboard(values=(0.25, 1.0)), Grid.torus(2, 128, h=0.25),
    seeds=range(6), tol=1e-10,
)
print("mean:", np.round(est.matrix, 4).tolist())
print("standard error:", np.round(est.stderr, 5).tolist())

print("\n== flux potential: the row-divergence identity is exact ==")
grid = Grid.torus(2, 128)
f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=7), grid)
pair = solve_pair(f, tol=1e-12)
for i in range(2):
    res = flux_potential_residual(pair.sigmas[i], pair.q[i].comps)
    print(f"direction e{i+1}: |div sigma - q| / |q| = {res:.2e}")

print("\n== sublinearity curves ==")
radii = dyadic_radii(grid)
curve = sublinearity_curve(pair, radii)
for r, d, dg, ps in zip(curve.radii, curve.delta, curve.delta_gno, curve.partial_sums):
    print(f"r = {r:5.0f}  delta = {d:.5f}  delta_gno = {dg:.5f}  partial sum = {ps:.3f}")
print(f"decay ratio delta({radii[-1]:.0f})/delta(8) = {curve.ratio(radii[-1], 8.0):.3f}")
