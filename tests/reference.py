"""Four-component, full-spectrum reference operations for the tests.

The package steps only the (psi, a) band stack; these helpers act on a
whole ``SpectralState`` instead, with plain full-spectrum arithmetic, so
the tests can build closed-form states and check the stepper's tendency
and linear flow against an independent form of each. ``tendency`` is the
stepper's own tendency, returned as four components for those checks, and
``stress_tendency`` the stress form of the same tendency on a band stack.
"""

import numpy as np

from mhd2d.errors import ConfigError
from mhd2d.propagator import apply_block_entries, phi_block_entries
from mhd2d.solver import SolverConfig, _band, _nonlinear, _Stepper
from mhd2d.spectral import SpectralGrid, SpectralState, coeff_derivative, from_potentials


def from_physical(grid: SpectralGrid, fields: np.ndarray, time: float = 0.0) -> SpectralState:
    """Forward transform of physical fields, shape (4, n1, n2)."""
    fields = np.asarray(fields, dtype=float)
    u = np.fft.fft2(fields, axes=(-2, -1)) / (grid.n1 * grid.n2)
    return SpectralState(grid, u, time)


def spectral_derivative(state: SpectralState, axis: int, order: int = 1) -> SpectralState:
    """Differentiate all four components of a state along one axis."""
    g = state.grid
    out = np.empty_like(state.u)
    for c in range(4):
        out[c] = coeff_derivative(g, state.u[c], axis, order)
    return SpectralState(g, out, state.time)


def _project_pair(grid: SpectralGrid, f1: np.ndarray, f2: np.ndarray):
    xisq = np.where(grid.xi_sq == 0.0, 1.0, grid.xi_sq)
    div = grid.xi1 * f1 + grid.xi2 * f2
    p1 = f1 - grid.xi1 * div / xisq
    p2 = f2 - grid.xi2 * div / xisq
    # The zero mode has no divergence content; leave it untouched.
    p1[0, 0] = f1[0, 0]
    p2[0, 0] = f2[0, 0]
    return p1, p2


def leray_project(state: SpectralState) -> SpectralState:
    """Apply the divergence-free projector to the v pair and the B pair."""
    g = state.grid
    out = np.empty_like(state.u)
    out[0], out[1] = _project_pair(g, state.u[0], state.u[1])
    out[2], out[3] = _project_pair(g, state.u[2], state.u[3])
    return SpectralState(g, out, state.time)


def apply_semigroup(state: SpectralState, t: float) -> SpectralState:
    """Advance a state by the exact linear flow for time t >= 0.

    The exp(-t K) entries (kappa = 1, alpha = 0) are evaluated on every
    full-spectrum mode, with the grid's coupling sign, real diagonals and an
    imaginary off-diagonal, independently of the stepper's band tables.
    """
    if t < 0.0:
        raise ConfigError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return state.copy()
    g = state.grid
    p11, p12, p22 = phi_block_entries(0, np.broadcast_to(g.xi1, g.shape), t, coupling_sign=-1)
    entries = (np.real(p11), 1j * np.imag(p12), np.real(p22))
    return SpectralState(g, apply_block_entries(state.u, entries), state.time + t)


def tendency_tables(grid: SpectralGrid):
    """The tables a stepper on ``grid`` hands to ``solver._nonlinear``."""
    cfg = SolverConfig(n1=grid.n1, n2=grid.n2, l1=grid.l1, l2=grid.l2, dt=1.0, t_end=2.0)
    return _Stepper(grid, cfg).tendency_tables


def tendency(state: SpectralState) -> np.ndarray:
    """The stepper's quadratic tendency of a checked state, as four components."""
    g = state.grid
    return from_potentials(g, _nonlinear(g, _band(state, g), tendency_tables(g))).u


def stress_tendency(grid: SpectralGrid, w: np.ndarray) -> np.ndarray:
    """(N_psi, N_a) of a band stack in stress form, T = B (x) B - v (x) v.

    The eight products v1 v1 - v2 v2 + B2 B2 - B1 B1 = T22 - T11, B1 B2 -
    v1 v2 = T12 and v1 B2 - v2 B1 = N_a of the physical v and B, with
    N_omega_hat = (xi2^2 - xi1^2) T12_hat - xi1 xi2 (T22 - T11)_hat, the
    curl of div T, then dealiased, N_omega divided by |xi|^2 and mean-zeroed.
    """
    kc = w.shape[-1]
    xi1, xi2 = grid.xi1, grid.half_xi2[:, :kc]
    spec = np.concatenate([w * (1j * xi2), w * (-1j * xi1)])
    cols = np.fft.ifftn(spec, axes=(-2,), norm="forward")
    v1, B1, v2, B2 = np.fft.irfftn(cols, s=(grid.n2,), axes=(-1,), norm="forward")
    prod = np.stack([v1 * v1 - v2 * v2 + B2 * B2 - B1 * B1, B1 * B2 - v1 * v2,
                     v1 * B2 - v2 * B1])
    rows = np.fft.rfftn(prod, axes=(-1,), norm="forward")
    t = np.fft.fftn(rows[..., :kc], axes=(-2,), norm="forward")
    out = np.stack([t[1] * (xi2 * xi2 - xi1 * xi1) - t[0] * (xi1 * xi2), t[2]])
    out *= grid.half_dealias_mask[:, :kc]
    out[0] *= grid.half_inv_xi_sq[:, :kc]
    out[1, 0, 0] = 0.0
    return out
