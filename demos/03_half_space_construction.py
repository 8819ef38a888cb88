"""Half-space-adapted corrector/vector-potential pairs on a slab with a
no-flux flat boundary.

Builds the adapted pair for a checkerboard realization, verifies the
flat-boundary flux and the two defining identities, shows the identity
residual the curl of the vector potentials would leave in place of the
axial-gauge skew correction (the finite-truncation Liouville defect), and
runs the dyadic-annuli construction with its energy table.
"""

import numpy as np

from homlab import (
    DyadicConfig,
    EnsembleSpec,
    Grid,
    build_halfspace_set,
    dyadic_construction,
    dyadic_radii,
    half_sublinearity_curve,
    halfspace_residuals,
    restrict_to_half_box,
    sample_field,
    solve_pair,
    sublinearity_curve,
)

grid = Grid.torus(2, 256)
f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=7), grid)
pair = solve_pair(f, tol=1e-12)
print("homogenized matrix:", np.round(pair.a_hom, 5).tolist())

hset = build_halfspace_set(f, pair, L=128.0)
b1 = hset.basis.vectors[0]
print("tangential direction b1 =", np.round(b1, 6).tolist(),
      " conormal e_d.a_hom b1 =", float(np.eye(2)[1] @ pair.a_hom @ b1))

fhb = restrict_to_half_box(f, 128.0)
res = halfspace_residuals(fhb, hset, 0)
print(f"\nflat-boundary flux residual (relative): {res.flat_flux_relative:.2e}")
print(f"interior equation residual:              {res.interior_relative:.2e}")
print(f"sigma_h row-divergence identity:         {res.sigma_identity:.2e}")
print(f"Liouville gap of the curl construction:  {hset.liouville_gap[0]:.2e}")
print("(the identity residual with psi = curl v: the curl of the potentials")
print(" misses the identity by the divergence of v, which only vanishes in")
print(" the infinite-domain limit)")

print("\n== half-space sublinearity ==")
curve = half_sublinearity_curve(hset, [8.0, 16.0, 32.0, 64.0])
for r, dh, dhh in zip(curve.radii, curve.delta_h, curve.delta_h_halfball):
    print(f"r = {r:5.0f}  delta_h = {dh:.5f}  (half-ball variant {dhh:.5f})")
print(f"decay ratio delta_h(64)/delta_h(8) = {curve.ratio(64.0, 8.0):.3f}")

print("\n== dyadic-annuli construction ==")
wcurve = sublinearity_curve(pair, dyadic_radii(grid))
cfg = DyadicConfig.from_curve(wcurve, r0=8.0, n_max=3)
dy = dyadic_construction(fhb, f, pair, b1, cfg, tol=1e-12, direct=hset.varphi[0])
print("annulus  height l_n   energy(B_r0)   bound shape")
for n in cfg.annuli():
    print(f"  {n:3d}    {cfg.heights[n+1]:8.2f}   {dy.energies[(n, 8.0)]:.6f}      "
          f"{dy.bound_shape[(n, 8.0)]:.4f}")
print(f"empirical constant (max energy/bound): {dy.empirical_constant:.3f}")
print(f"sum vs direct correction: {dy.consistency_r0:.2%} on B_r0, "
      f"{dy.consistency_quarter:.2%} on the quarter domain")
