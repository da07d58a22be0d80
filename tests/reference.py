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
probe the peak tests share. ``instantaneous`` is the record routine with
every weight table built and every weighted sum taken as a product array
summed by ``np.sum`` on each call, the oracle of the package's record;
``coeff_derivative``, ``multi_index_weight`` and ``fourier_l1_audit`` are
full-spectrum tools only tests call.
"""

import math
import tracemalloc

import numpy as np

from mhd2d.diagnostics import _L1_CALIBRATION, DiagnosticsRecord, InterpolationAudit
from mhd2d.errors import ConfigError, DiagnosticIntegrityError, SingularBasisError
from mhd2d.modes import _PHI_SERIES_RADIUS, _PHI_SERIES_TERMS, region_masks
from mhd2d.propagator import apply_block_entries, phi_block_entries
from mhd2d.solver import SolverConfig, _band, _nonlinear, _Stepper
from mhd2d.spectral import (
    STATE_RTOL,
    SpectralGrid,
    SpectralState,
    _components,
    _potentials,
    divergence_defect,
    from_potentials,
    sobolev_norm,
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
    if ms.xi1 in (0.0, 0.5, -0.5):
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


def coeff_derivative(grid: SpectralGrid, f: np.ndarray, axis: int, order: int = 1) -> np.ndarray:
    """Multiply one coefficient array by (i xi_axis)^order.

    Odd orders zero the Nyquist mode of that axis (it has no sign-definite
    frequency, so an odd derivative of a real field must drop it).
    """
    if axis not in (1, 2):
        raise ConfigError(f"axis must be 1 or 2, got {axis}")
    if int(order) != order or order < 0:
        raise ConfigError(f"order must be a nonnegative integer, got {order!r}")
    xi = grid.xi1 if axis == 1 else grid.xi2
    out = f * (1j * xi) ** order
    if order % 2 == 1:
        if axis == 1:
            out[grid.k1 == -grid.n1 // 2, :] = 0.0
        else:
            out[:, grid.k2 == -grid.n2 // 2] = 0.0
    return out


def multi_index_weight(grid: SpectralGrid, m: int) -> np.ndarray:
    """sum over |alpha| <= m of xi^(2*alpha), the derivative-sum H^m weight.

    This is the plain sum over multi-indices (no multinomial coefficients),
    the weight under which the sharp 1/2 constants of the energy audit hold.
    """
    if int(m) != m or m < 0:
        raise ConfigError(f"m must be a nonnegative integer, got {m!r}")
    w = np.zeros(grid.shape)
    for a in range(int(m) + 1):
        for b in range(int(m) + 1 - a):
            w += grid.xi1 ** (2 * a) * grid.xi2 ** (2 * b)
    return w


def fourier_l1_audit(state: SpectralState, component: int = 3) -> InterpolationAudit:
    """Grid form of |ghat|_{L^1} <= C |d1 g|_{H^1}^(1/2) |g|_{H^1}^(1/2).

    The xi1 = 0 column carries no d1 content and is excluded from the
    left side; the audit therefore measures the inequality on the
    mean-free-in-x1 part of the component.
    """
    g = state.grid
    fhat = state.u[component]
    col = np.broadcast_to(np.abs(g.xi1) > 0.0, g.shape)
    lhs = _L1_CALIBRATION * float(np.sum(np.abs(fhat[col])))
    d1 = coeff_derivative(g, fhat, 1)
    rhs = np.sqrt(sobolev_norm(g, d1, 1)) * np.sqrt(sobolev_norm(g, fhat, 1))
    return InterpolationAudit(lhs=lhs, rhs=float(rhs))


def _full_row_sums(g: SpectralGrid, f: np.ndarray) -> np.ndarray:
    """Full-spectrum row sums of a half-spectrum array even under k -> -k.

    Row k1 of the full spectrum holds the half row k1 and, in its negative
    k2 columns, the interior half columns 1 .. n2/2 - 1 of row -k1.
    """
    interior = np.sum(f[:, 1:g.n2 // 2], axis=1)
    rev1 = (-np.arange(g.n1)) % g.n1
    return np.sum(f, axis=1) + interior[rev1]


def _xm(g: SpectralGrid, power: np.ndarray, m: int) -> float:
    """``anisotropic_norm`` from the half-spectrum power of a Hermitian state."""
    mult = g.half_mult[:power.shape[-1]]
    xi_sq = g.half_xi_sq[:, :power.shape[-1]]
    total = np.sum(power, axis=0)
    hm = np.sqrt(g.area * np.sum((1.0 + xi_sq) ** m * mult * total))

    absxi = np.sqrt(xi_sq)
    absxi1 = np.abs(g.xi1[:, 0])
    col = absxi1 > 0.0
    winv = np.divide(1.0, absxi, out=np.zeros(absxi.shape), where=absxi > 0.0)
    # L^1 in xi2 of the continuum transform l1*l2*fhat, then L^2 in xi1.
    w = np.sqrt(absxi1)[:, None] * winv
    inner = (g.l1 * g.l2) * _full_row_sums(g, w * np.sqrt(total)) * g.dxi[1]
    t2 = float(np.sqrt(np.sum(inner**2) * g.dxi[0]))

    bmag = mult * np.sqrt(power[2] + power[3])
    t3 = float(_L1_CALIBRATION * np.sum(winv * bmag))
    t4 = float(_L1_CALIBRATION * np.sum(np.sum(bmag, axis=1)[col] / np.sqrt(absxi1[col])))
    return float(hm + t2 + t3 + t4)


def _fourier_l1_terms(g: SpectralGrid, power: np.ndarray):
    """The six integrands of the mediating quantity, from the half-spectrum power."""
    mult = g.half_mult[:power.shape[-1]]
    absxi1 = np.abs(g.xi1[:, 0])
    col = absxi1 > 0.0
    b2 = mult * np.sqrt(power[3])
    b2_rows = np.sum(b2, axis=1)
    vmag_rows = np.sum(mult * np.sqrt(power[0] + power[1]), axis=1)
    v2 = np.sqrt(power[1])

    d1b2 = float(_L1_CALIBRATION * np.sum(absxi1 * b2_rows))
    b2l1 = float(_L1_CALIBRATION * np.sum(b2_rows))
    gradb2 = float(_L1_CALIBRATION * np.sum(np.sqrt(g.half_xi_sq[:, :mult.size]) * b2))
    d1v = float(_L1_CALIBRATION * np.sum(absxi1 * vmag_rows))

    inner = (g.l1 * g.l2) * _full_row_sums(g, v2) * g.dxi[1]  # L^1 in xi2
    half_sq = float(np.sum(inner[col] ** 2 / absxi1[col]) * g.dxi[0])
    v2_rows = np.sum(mult * v2, axis=1)
    half_l1 = float(_L1_CALIBRATION * np.sum(v2_rows[col] / np.sqrt(absxi1[col])))
    return d1b2, b2l1, gradb2, d1v, half_sq, half_l1


def _derivative_sum_weights(g: SpectralGrid, m: int, kc: int):
    """``multi_index_weight`` of orders m - 1 and m on the leading kc
    half-spectrum columns, each times the column multiplicity ``half_mult``."""
    x1 = g.xi1**2
    x2 = g.half_xi2[0, :kc] ** 2
    # partial[j] = mult * sum_{b <= j} xi2^(2b)
    partial = [g.half_mult[:kc]]
    for j in range(1, m + 1):
        partial.append(partial[-1] + partial[0] * x2**j)
    wm1 = sum(x1**a * partial[m - 1 - a] for a in range(m))
    wm = sum(x1**a * partial[m - a] for a in range(m + 1))
    return wm1, wm


def _hm_squares(g: SpectralGrid, h: np.ndarray, m: int):
    """The squared H^m norms of v and B from half-spectrum components ``h``.

    Returned with the power |h|^2 and the ``_derivative_sum_weights`` of
    orders m - 1 and m they are summed from, which the rest of a record
    reuses; E = sqrt of the sum of the two squares.
    """
    power = h.real**2 + h.imag**2
    wm1, wm = _derivative_sum_weights(g, m, h.shape[-1])
    hm_v_sq = float(g.area * np.sum(wm * (power[0] + power[1])))
    hm_b_sq = float(g.area * np.sum(wm * (power[2] + power[3])))
    return hm_v_sq, hm_b_sq, power, wm1, wm


def instantaneous(grid: SpectralGrid, u: np.ndarray, m: int, time: float = 0.0,
                  energy_residual: float = 0.0) -> DiagnosticsRecord:
    """Evaluate every per-instant functional of a Hermitian state at ``time``.

    ``u`` (shape (4, n1, kc), else ``ConfigError``) holds the components on
    the leading kc half-spectrum columns, zero past them; columns past n2/2,
    as in a ``SpectralState.u``, are ignored. Each summand, weighted by
    ``half_mult``, is even under k -> -k, so the sums are full-spectrum
    sums. Raises ``DiagnosticIntegrityError`` when |A| > E^2/2 beyond
    roundoff, or when the region masses fail to recover the L^2 mass.
    """
    if int(m) != m or m < 1:
        raise ConfigError(f"m must be a positive integer, got {m!r}")
    m, g = int(m), grid
    if u.ndim != 3 or u.shape[:2] != (4, g.n1):
        raise ConfigError(f"components must have shape (4, {g.n1}, kc), got {u.shape}")
    h = u[:, :, : g.n2 // 2 + 1]
    hm_v_sq, hm_b_sq, power, wm1, wm = _hm_squares(g, h, m)
    pb = power[2] + power[3]
    e_sq = hm_v_sq + hm_b_sq
    E = float(np.sqrt(e_sq))

    # the Nyquist row's xi1 has no mirror of opposite sign: its full-spectrum
    # sum vanishes, so odd_xi1 drops it here
    cross = h[2] * np.conj(h[0]) + h[3] * np.conj(h[1])
    A = float(g.area * np.sum(wm1 * g.odd_xi1 * cross.imag))

    hm1_d1b_sq = float(g.area * np.sum(wm1 * g.xi1**2 * pb))

    if abs(A) > 0.5 * e_sq * (1.0 + 1e-10) + 1e-300:
        raise DiagnosticIntegrityError(
            f"|A| = {abs(A):.6e} exceeds E^2/2 = {0.5 * e_sq:.6e}"
        )

    d1 = (1j * g.odd_xi1) * h  # d1 v1, d1 v2, d1 B1, d1 B2
    b2, d1v1_phys, d1v2_phys = np.fft.irfft2(np.stack([h[3], d1[0], d1[1]]), s=g.shape,
                                             axes=(-2, -1), norm="forward")
    # sqrt is monotone, so it is taken once, of the largest squared magnitude
    sup_d1v = float(np.sqrt(np.max(d1v1_phys**2 + d1v2_phys**2)))
    sup_B2 = float(np.max(np.abs(b2)))

    # two independently differentiated routes of the same pairing; the sum
    # cancels analytically, so what remains measures accumulated roundoff
    i1 = g.area * np.sum(wm * np.real(d1[2] * np.conj(h[0]) + d1[3] * np.conj(h[1])))
    i2 = g.area * np.sum(wm * np.real(d1[0] * np.conj(h[2]) + d1[1] * np.conj(h[3])))
    cancel = float(abs(i1 + i2) / max(abs(i1), abs(i2), 1e-300))

    comp = g.area * np.sum(g.half_mult[:h.shape[-1]] * power, axis=2)  # (4, n1) by component, row
    rows = np.sum(comp, axis=0)
    m1, m2, m3 = (float(np.sum(rows[r])) for r in region_masks(g.xi1[:, 0]))
    tot = float(np.sum(rows))
    if abs((m1 + m2 + m3) - tot) > 1e-12 * max(tot, 1e-300):
        raise DiagnosticIntegrityError("region masses do not partition the L^2 mass")
    l2 = np.sqrt(np.sum(comp, axis=1))

    h_terms = _fourier_l1_terms(g, power)
    return DiagnosticsRecord(
        t=float(time),
        E=E,
        A=A,
        sup_d1v=sup_d1v,
        sup_B2=sup_B2,
        xm=_xm(g, power, m),
        l2_v1=float(l2[0]),
        l2_v2=float(l2[1]),
        l2_B1=float(l2[2]),
        l2_B2=float(l2[3]),
        e_residual=float(energy_residual),
        cancel_residual=cancel,
        mass_omega1=m1,
        mass_omega2=m2,
        mass_omega3=m3,
        hm_v_sq=hm_v_sq,
        hm_b_sq=hm_b_sq,
        hm1_d1b_sq=hm1_d1b_sq,
        h_d1b2_l1=h_terms[0],
        h_b2_l1=h_terms[1],
        h_gradb2_l1=h_terms[2],
        h_d1v_l1=h_terms[3],
        h_v2_half_sq=h_terms[4],
        h_v2_half_l1=h_terms[5],
    )
