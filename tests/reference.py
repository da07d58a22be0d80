"""Four-component, full-spectrum reference operations for the tests.

The package steps only the (psi, a) band stack; these helpers act on a
whole ``SpectralState`` instead, with plain full-spectrum arithmetic, so
the tests can build closed-form states and check the stepper's tendency
and linear flow against an independent form of each. ``tendency`` is the
stepper's own tendency, returned as four components for those checks, and
``stress_tendency`` the stress form of the same tendency on a band stack.
``check_state``, ``check_band`` and ``check_band_stack`` are the state
checks written one property and one full-spectrum pass at a time, the
oracle of the package's one half-spectrum check; ``phi_fixed_series`` is
phi_k with all 48 series terms on every entry, the oracle of the series in
``modes._phi`` that stops early, and so of the step tables;
``pairwise_reconstruct`` is ``ModeSystem.reconstruct`` as a loop over the
two (v_j, B_j) pairs, its oracle; ``traced_peak`` is the transient-memory
probe the peak tests share.
"""

import math
import tracemalloc

import numpy as np

from mhd2d.errors import ConfigError, DiagnosticIntegrityError, SingularBasisError
from mhd2d.modes import _PHI_SERIES_RADIUS, _PHI_SERIES_TERMS
from mhd2d.propagator import apply_block_entries, phi_block_entries
from mhd2d.solver import SolverConfig, _band, _nonlinear, _Stepper
from mhd2d.spectral import (
    STATE_RTOL,
    SpectralGrid,
    SpectralState,
    _components,
    _potentials,
    coeff_derivative,
    divergence_defect,
    from_potentials,
)


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


def phi_fixed_series(k: int, z) -> np.ndarray:
    """phi_k(z) = sum_n z^n / (n + k)!, vectorized; phi_0 is exp. For k > 0,
    the power series on |z| < 2.5 and the upward recurrence from exp
    elsewhere (safe there because the division by z shrinks the error)."""
    z = np.asarray(z, dtype=complex)
    if k == 0:
        return np.exp(z)
    out = np.empty(z.shape, dtype=complex)
    small = np.abs(z) < _PHI_SERIES_RADIUS
    zs = z[small]
    term = np.full(zs.shape, 1.0 / math.factorial(k), dtype=complex)
    acc = term.copy()
    for n in range(_PHI_SERIES_TERMS):
        term = term * zs / (n + 1 + k)
        acc += term
    out[small] = acc
    zb = z[~small]
    rec = np.exp(zb)
    for i in range(k):
        rec = (rec - 1.0 / math.factorial(i)) / zb
    out[~small] = rec
    return out


def pairwise_reconstruct(ms, u) -> np.ndarray:
    """``ModeSystem.reconstruct`` of ``ms``, one (v_j, B_j) pair at a time."""
    if ms.degenerate:
        raise SingularBasisError(
            f"reconstruction vectors are undefined at xi1 = {ms.xi1}"
        )
    ixi, lam_m, lam_p = 1j * ms.xi1, ms.lam_minus, ms.lam_plus
    pref = 1.0 / (ms.xi1 * ms.s)
    v1, v2, b1, b2 = np.asarray(u, dtype=complex).tolist()
    out = []
    for x, y in ((v1, b1), (v2, b2)):
        c_plus = ixi * x - lam_m * y
        c_minus = ixi * x - lam_p * y
        out.append((-1j * pref * (lam_p * c_plus - lam_m * c_minus),
                    ms.xi1 * pref * (c_plus - c_minus)))
    (x1, y1), (x2, y2) = out
    return np.array([x1, x2, y1, y2], dtype=complex)


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


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced during the call above
    what was held when it began."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return out, peak


def gathered_hermitian_defect(grid: SpectralGrid, u: np.ndarray) -> float:
    """Max |u(-k) - conj(u(k))| on the half-spectrum columns, each mirror
    gathered by a column index array and a row roll."""
    nh = grid.n2 // 2 + 1
    rev2 = (-np.arange(nh)) % grid.n2
    mirrored = np.conj(np.roll(u[..., ::-1, rev2], 1, axis=-2))
    return float(np.max(np.abs(u[..., :nh] - mirrored)))


def check_state(state: SpectralState) -> None:
    """``SpectralState.validate``, one property at a time: finite values,
    Hermitian symmetry, zero mean, zero divergence, else ``ConfigError``."""
    g = state.grid
    scale = max(float(np.max(np.abs(state.u))), 1e-300)
    if not np.isfinite(scale):
        raise ConfigError("state has non-finite coefficients")
    herm = gathered_hermitian_defect(g, state.u)
    if herm > STATE_RTOL * scale:
        raise ConfigError(f"state is not Hermitian symmetric: defect {herm:.3e}")
    mean = float(np.max(np.abs(state.u[:, 0, 0])))
    if mean > STATE_RTOL * scale:
        raise ConfigError(f"state has nonzero mean mode: {mean:.3e}")
    dv, dB = divergence_defect(g, state.u)
    if max(dv, dB) > STATE_RTOL * scale:
        raise ConfigError(
            f"state is not divergence free: |div v|={dv:.3e} |div B|={dB:.3e}"
        )


def check_band(state: SpectralState, grid: SpectralGrid) -> np.ndarray:
    """``solver._band``: ``check_state``, then the 2/3 band over a full |u|
    gathered by the mask, then the band stack."""
    if state.grid != grid:
        raise ConfigError("state grid does not match the solver configuration")
    check_state(state)
    mag = np.abs(state.u)
    scale = max(float(np.max(mag)), 1e-300)
    outside = float(np.max(mag[:, ~grid.dealias_mask]))
    if outside > STATE_RTOL * scale:
        raise ConfigError(
            f"state has coefficients outside the 2/3 dealias band: {outside:.3e} "
            f"against max |u| = {scale:.3e}"
        )
    return _potentials(grid, state.u, grid.band_cols)


def check_band_stack(grid: SpectralGrid, w: np.ndarray, time: float, kept: bool):
    """``solver._sampled_state``: the overflow, k2 = 0 column and mean checks
    of a band stack, then ``check_state`` of a kept state, each failure a
    ``DiagnosticIntegrityError``."""
    peak = float(np.max(np.abs(w)))
    if not np.isfinite(peak * grid.band_xi_max):
        raise DiagnosticIntegrityError(
            f"band stack at t = {time} overflows the curl map: max |w| = {peak:.3e}"
        )
    scale = max(peak, 1e-300)
    col = w[:, :, 0]
    herm = float(np.max(np.abs(col - np.conj(col[:, (-np.arange(grid.n1)) % grid.n1]))))
    if herm > STATE_RTOL * scale:
        raise DiagnosticIntegrityError(
            f"band stack at t = {time} is not Hermitian symmetric in its k2 = 0 "
            f"column: defect {herm:.3e} against max |w| = {scale:.3e}"
        )
    mean = float(np.max(np.abs(w[:, 0, 0])))
    if mean > STATE_RTOL * scale:
        raise DiagnosticIntegrityError(
            f"band stack at t = {time} has nonzero mean mode: {mean:.3e} "
            f"against max |w| = {scale:.3e}"
        )
    snap = None
    if kept:
        snap = from_potentials(grid, w, time)
        try:
            check_state(snap)
        except ConfigError as exc:
            raise DiagnosticIntegrityError(f"sampled state at t = {time}: {exc}") from exc
    return _components(grid, w), snap
