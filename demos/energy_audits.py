#!/usr/bin/env python
"""Numerical audits of the three estimates behind the stability argument.

1. The order-m energy inequality: d/dt(E^2 + A) plus the dissipation is
   bounded by a cubic right-hand side. The audit differentiates the
   recorded history and reports the implied constant.
2. The weighted interpolation bound ||f||_L1 <= C |||x|^p f|^... used to
   trade integrability against moments, checked on radial profiles.
3. The X^m embedding: the anisotropic data norm dominates H^m + L1 up
   to a modest constant on a family of test fields.
"""

import numpy as np

from mhd2d.diagnostics import (
    em_inequality_audit,
    gaussian_divfree_family,
    interpolation_audit,
    single_mode_state,
    xm_embedding_scan,
)
from mhd2d.solver import SolverConfig, run
from mhd2d.spectral import SpectralGrid

# 1. energy inequality along an actual trajectory
cfg = SolverConfig(n1=64, n2=64, l1=32.0 * np.pi, l2=32.0 * np.pi,
                   dt=0.025, t_end=2.0, data_kind="prop25", data_delta=1e-2,
                   m=4)
traj = run(cfg)
audit = em_inequality_audit(traj.records, cfg.m)
print("energy inequality audit")
print(f"  samples: {len(audit.times)}, fd error: {audit.fd_error:.2e}")
print(f"  max lhs: {np.max(audit.lhs):.3e} (negative means pure dissipation)")
print(f"  implied constant: {audit.implied_C}")

# 2. interpolation on radial profiles, d = 2
print("\ninterpolation audit, ||f||_1 vs moment interpolation")
profiles = {
    "gaussian": lambda r: np.exp(-np.asarray(r) ** 2),
    "wide gaussian": lambda r: np.exp(-(np.asarray(r) / 3.0) ** 2),
    "ring": lambda r: np.asarray(r) ** 2 * np.exp(-np.asarray(r) ** 2),
}
for name, f in profiles.items():
    a = interpolation_audit(f, p=1.0, q=1.0)
    print(f"  {name:>14}: lhs {a.lhs:.5f}, rhs {a.rhs:.5f}, ratio {a.ratio:.4f}")
# the ratio is dilation invariant, which is why one constant serves all scales

# 3. X^m vs H^m + L1 on Gaussians and single modes
g = SpectralGrid(128, 128, 16.0 * np.pi, 16.0 * np.pi)
states = gaussian_divfree_family(g)
labels = ["gauss w=0.5", "gauss w=1", "gauss w=2", "gauss w=4"]
for k in (4, 16):
    states.append(single_mode_state(g, k, k))
    labels.append(f"mode ({k},{k})")
max_ratio, ratios = xm_embedding_scan(states, 4)
print("\nX^m / (H^m + L1) ratios")
for lab, r in zip(labels, ratios):
    print(f"  {lab:>12}: {r:.4f}")
print(f"  max: {max_ratio:.4f}")
