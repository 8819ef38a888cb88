"""Tilt-excess decay, coercivity, mean-value property and the Liouville
fit for a-harmonic functions with no-flux flat-boundary data.

The constant-coefficient quadratic reproduces the exact (r/R)^2 decay;
a heterogeneous sample shows the measured decay exponent; the corrected
affine fixture is recovered by the Liouville fit while a quadratic is
flagged as growing too fast.
"""

import numpy as np

from homlab import (
    EnsembleSpec,
    Grid,
    ScalarField,
    band_limited_trace,
    build_halfspace_set,
    coercivity_check,
    excess_decay_experiment,
    harmonic_sample,
    liouville_check,
    mean_value_check,
    sample_field,
    solve_pair,
)
from homlab.grid import cell_offsets

print("== constant coefficients: exact quadratic decay ==")
grid = Grid.torus(2, 64)
f0 = sample_field(EnsembleSpec.constant(np.eye(2)), grid)
pair0 = solve_pair(f0)
hset0 = build_halfspace_set(f0, pair0, L=32.0)
s = harmonic_sample(f0, 32.0, lambda x, y: x * x - y * y, tol=1e-12)
rep = excess_decay_experiment(s, hset0, [8.0, 16.0, 32.0])
for r, v in zip(rep.radii, rep.excess):
    print(f"r = {r:4.0f}  Exc = {v:10.4f}   Exc(r)/Exc(R) = {v/rep.excess[-1]:.4f}"
          f"   (r/R)^2 = {(r/32.0)**2:.4f}")
print(f"fitted decay exponent alpha = {rep.fitted_alpha:.3f}")

print("\n== checkerboard: measured excess decay ==")
grid = Grid.torus(2, 256)
f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=7), grid)
pair = solve_pair(f, tol=1e-12)
hset = build_halfspace_set(f, pair, L=128.0)
sample = harmonic_sample(f, 128.0, band_limited_trace(0, 128.0), tol=1e-11)
rep = excess_decay_experiment(sample, hset, [8.0, 16.0, 32.0, 64.0])
for r, v in zip(rep.radii, rep.excess):
    print(f"r = {r:4.0f}  Exc = {v:.6e}")
print(f"fitted alpha = {rep.fitted_alpha:.3f}; pair ratios:",
      {k: round(v, 3) for k, v in rep.pair_ratios.items()})

print("\n== coercivity of the tilt functional ==")
co = coercivity_check(hset, r=32.0)
# the family is linear in b, so one unit direction stands for every |b|
print(f"mean |b_1 + grad phi_h|^2 on B_32^+ = {co.value:.4f} "
      f"{'>=' if co.ok else '<'} bound (1/16)^3 = {co.lower_bound:.4e}")

print("\n== mean-value property ==")
mv = mean_value_check(sample, [8.0, 16.0, 32.0, 64.0, 128.0])
print("energy ratios:", np.round(mv.ratios, 4).tolist())
print(f"empirical C_Mean = {mv.c_mean:.4f} (zero-energy flag: {mv.zero_energy})")

print("\n== Liouville fit ==")
cells = hset.grid.coords(cell_offsets(2))
b1 = hset.basis.vectors[0]
u = ScalarField(hset.grid, b1[0] * cells[0] + b1[1] * cells[1] + hset.phi_h[0].values + 3.0)
rep = liouville_check(u, hset, [16.0, 32.0, 64.0])
print(f"recovered b = {np.round(rep.b_tilde, 8).tolist()}, constant = {rep.constant:.8f}")
print(f"fit residuals: { {r: float(f'{v:.2e}') for r, v in rep.residual_profile.items()} }")
quad = ScalarField(hset.grid, cells[0] ** 2 - cells[1] ** 2)
qrep = liouville_check(quad, hset, [16.0, 32.0, 64.0])
print(f"quadratic fixture flagged subquadratic={qrep.subquadratic} "
      "(growth diagnostic increases, no Liouville form claimed)")
