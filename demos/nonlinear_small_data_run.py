#!/usr/bin/env python
"""A small-amplitude nonlinear run and the bookkeeping that certifies it.

Initial data of order-m energy delta = 1e-2 is evolved with the ETDRK2
exponential integrator. Along the way the run records the energy E, the
cross functional A (bounded by E^2/2), the Leray divergence defect, and
a signed energy-balance residual that must shrink at second order when
dt is halved. The cumulative target G(T)^2 staying below 4 E(0)^2 is the
discrete image of the global small-data bound.
"""

import numpy as np

from mhd2d.diagnostics import cumulative
from mhd2d.solver import SolverConfig, Trajectory, run
from mhd2d.spectral import divergence_defect

BOX = 32.0 * np.pi

cfg = SolverConfig(n1=128, n2=128, l1=BOX, l2=BOX, dt=0.04, t_end=8.0,
                   output_every=1.0, data_kind="prop25", data_delta=1e-2, m=4)
traj = run(cfg, trajectory=Trajectory(keep_all=True))

print(f"{'t':>5} {'E':>12} {'A':>13} {'|A|/(E^2/2)':>12} {'e_resid':>11}")
for rec in traj.records:
    frac = abs(rec.A) / (0.5 * rec.E**2)
    print(f"{rec.t:>5.1f} {rec.E:>12.6e} {rec.A:>13.5e} {frac:>12.4f} "
          f"{rec.e_residual:>11.3e}")

worst_div = max(max(divergence_defect(s.grid, s.u)) for s in traj.states if s)
print(f"\nmax divergence defect over samples: {worst_div:.2e}")

cum = cumulative(traj.records)
e0 = traj.records[0].E
print(f"G(T)^2 = {cum.G**2:.6e}, 4 E(0)^2 = {4.0 * e0**2:.6e}, "
      f"bounded: {cum.G**2 <= 4.0 * e0**2}")
print(f"H(T) = {cum.H:.6e} (six cumulative interaction terms)")

# halve dt: the energy-balance residual is quadrature error of the
# trapezoid rule, so the ratio should sit near 4
fine = run(SolverConfig(n1=128, n2=128, l1=BOX, l2=BOX, dt=0.02, t_end=8.0,
                        output_every=1.0, data_kind="prop25", data_delta=1e-2,
                        m=4))
r1 = traj.records[-1].e_residual
r2 = fine.records[-1].e_residual
print(f"\nenergy residual dt=0.04: {r1:.3e}, dt=0.02: {r2:.3e}, "
      f"ratio {abs(r1) / abs(r2):.2f}")
