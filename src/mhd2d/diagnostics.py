"""Scalar functionals, cumulative quantities, and inequality audits.

Instantaneous records follow a fixed CSV schema (``CSV_COLUMNS``). The
Sobolev quantities E, A, and the energy-audit norms use the derivative-sum
weight sum_{|alpha| <= m} xi^(2 alpha) (``multi_index_weight``): that is the
convention under which d/dt(E^2 + A) closes with the exact 1/2 coefficients
in front of the dissipation terms and |A| <= E^2/2 holds with constant
exactly 1/2. The anisotropic norm reported as ``xm`` uses the standard
multiplier H^m for its Sobolev part.

Wavenumber sums are calibrated to continuum integrals: with the forward
transform carrying 1/(n1 n2), the continuum Fourier transform of a box
field is l1*l2*fhat, the mode spacing is dxi_i = 2*pi/l_i, and so
integral |ghat| dxi ~ (2*pi)^2 * sum |fhat|. Weights singular on the
xi1 = 0 column or at xi = 0 exclude those modes; states are mean-free and
the excluded-column content is reported nowhere else, so all such norms
are lower bounds that converge as the box grows.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    AuditInapplicableError,
    AuditResolutionError,
    ConfigError,
    DiagnosticIntegrityError,
    FitDomainError,
    IncompleteHistoryError,
)
from .modes import region_masks
from .propagator import DecayCurve
from .quadrature import refine_integral
from .spectral import (
    SpectralGrid,
    SpectralState,
    coeff_derivative,
    from_potentials,
    sobolev_norm,
    to_physical,
)

CSV_COLUMNS = (
    "t", "E", "A", "sup_d1v", "sup_B2", "xm",
    "l2_v1", "l2_v2", "l2_B1", "l2_B2",
    "e_residual", "cancel_residual",
    "mass_omega1", "mass_omega2", "mass_omega3",
)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One sampling instant: the CSV schema plus the audit/cumulative extras."""

    t: float
    E: float
    A: float
    sup_d1v: float
    sup_B2: float
    xm: float
    l2_v1: float
    l2_v2: float
    l2_B1: float
    l2_B2: float
    e_residual: float
    cancel_residual: float
    mass_omega1: float
    mass_omega2: float
    mass_omega3: float
    # extras kept out of the CSV: squared derivative-sum Sobolev norms and
    # the anisotropic Fourier-Lebesgue integrands accumulated in time.
    hm_v_sq: float = 0.0
    hm_b_sq: float = 0.0
    hm1_d1b_sq: float = 0.0
    h_d1b2_l1: float = 0.0
    h_b2_l1: float = 0.0
    h_gradb2_l1: float = 0.0
    h_d1v_l1: float = 0.0
    h_v2_half_sq: float = 0.0
    h_v2_half_l1: float = 0.0

    def csv_row(self) -> list:
        return [format(getattr(self, c), ".17g") for c in CSV_COLUMNS]


@dataclass(frozen=True)
class CumulativeRecord:
    """Time-integrated quantities over [0, T]."""

    T: float
    G: float
    H: float
    sup_E: float
    dissipation_integral: float
    h_terms: tuple


@dataclass(frozen=True)
class EnergyAudit:
    """Per-sample sides of the m-th order energy inequality."""

    m: int
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    fd_error: float
    implied_C: float


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    rms_residual: float
    window: tuple


@dataclass(frozen=True)
class InterpolationAudit:
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.rhs > 0.0:
            return self.lhs / self.rhs
        return 0.0 if self.lhs == 0.0 else float("inf")


# integral over xi of |l1*l2*fhat| with cell (2pi/l1)(2pi/l2), on any box
_L1_CALIBRATION = 4.0 * np.pi**2


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


def anisotropic_norm(state: SpectralState, m: int) -> float:
    """Weighted initial-data norm: H^m plus three anisotropic terms.

    Terms: || (sqrt|xi1|/|xi|) fhat ||_{L^2_{xi1} L^1_{xi2}} over all four
    components, and the L^1 norms of |(Bhat1, Bhat2)| against 1/|xi| and
    1/sqrt|xi1|. Modes where a weight is singular are excluded. Summed on
    the half spectrum, so the state must be Hermitian.
    """
    h = state.u[:, :, : state.grid.n2 // 2 + 1]
    return _xm(state.grid, h.real**2 + h.imag**2, m)


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


def _check_history(records: Sequence[DiagnosticsRecord], T: float):
    if not records:
        raise IncompleteHistoryError("empty history")
    times = np.array([r.t for r in records])
    if np.any(np.diff(times) <= 0.0):
        raise IncompleteHistoryError("history times must be strictly increasing")
    if times[0] > 1e-12:
        raise IncompleteHistoryError(f"history starts at t = {times[0]}, not 0")
    if not times[0] <= T <= times[-1] * (1.0 + 1e-12) + 1e-12:  # NaN fails too
        raise IncompleteHistoryError(f"T = {T} is outside the history [{times[0]}, {times[-1]}]")
    if len(times) > 2:
        steps = np.diff(times)
        med = float(np.median(steps))
        if np.max(steps) > 1.5 * med:
            raise IncompleteHistoryError("gap in history exceeds 1.5x the cadence")
    return times


def cumulative(records: Sequence[DiagnosticsRecord], T: Optional[float] = None) -> CumulativeRecord:
    """Trapezoid time integrals over the sampled history up to T.

    G^2 = sup_t E^2 + int (|v|_{H^m}^2 + |d1 B|_{H^{m-1}}^2) dt. The
    mediating quantity sums int ||.||^p dt of the six Fourier-Lebesgue
    integrands with their exponents p in (1, 2, 4/3, 1, 2, 4/3); the
    p-th root is deliberately not taken, matching how the summands enter
    the continuity argument.
    """
    if T is None:
        T = records[-1].t if records else 0.0
    times = _check_history(records, T)
    keep = times <= T * (1.0 + 1e-12) + 1e-12
    times = times[keep]
    recs = [r for r, k in zip(records, keep) if k]

    def integrate(vals, power=1.0):
        if len(times) == 1:
            return 0.0
        v = np.array(vals, dtype=float) ** power
        return float(np.trapezoid(v, times))

    sup_e = max(r.E for r in recs)
    diss = integrate([r.hm_v_sq + r.hm1_d1b_sq for r in recs])
    G = float(np.sqrt(sup_e**2 + diss))
    h_terms = (
        integrate([r.h_d1b2_l1 for r in recs], 1.0),
        integrate([r.h_b2_l1 for r in recs], 2.0),
        integrate([r.h_gradb2_l1 for r in recs], 4.0 / 3.0),
        integrate([r.h_d1v_l1 for r in recs], 1.0),
        integrate([r.h_v2_half_sq for r in recs], 1.0),  # inner norm already squared
        integrate([r.h_v2_half_l1 for r in recs], 4.0 / 3.0),
    )
    return CumulativeRecord(
        T=float(times[-1]),
        G=G,
        H=float(sum(h_terms)),
        sup_E=float(sup_e),
        dissipation_integral=diss,
        h_terms=h_terms,
    )


def em_inequality_audit(records: Sequence[DiagnosticsRecord], m: int) -> EnergyAudit:
    """Audit the order-m energy inequality along a sampled trajectory.

    lhs = d/dt(E^2 + A) + (1/2)|v|_{H^m}^2 + (1/2)|d1 B|_{H^{m-1}}^2 via
    centered differences (second-order one-sided at the ends); rhs is the
    cubic majorant without its constant. The time derivative's error is
    estimated by comparing stride-1 and stride-2 centered differences; if
    that estimate exceeds 10% of the lhs scale the cadence cannot support
    the audit and ``AuditResolutionError`` is raised.
    """
    if len(records) < 5:
        raise AuditResolutionError("need at least 5 samples for the derivative audit")
    times = np.array([r.t for r in records])
    steps = np.diff(times)
    h = float(np.mean(steps))
    if np.max(np.abs(steps - h)) > 1e-6 * h:
        raise AuditResolutionError("audit requires a uniform sampling cadence")

    y = np.array([r.E**2 + r.A for r in records])
    dy = np.empty_like(y)
    dy[1:-1] = (y[2:] - y[:-2]) / (2.0 * h)
    dy[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    dy[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)

    dy2 = (y[4:] - y[:-4]) / (4.0 * h)
    fd_err = float(np.max(np.abs(dy[2:-2] - dy2)) / 3.0)

    vsq = np.array([r.hm_v_sq for r in records])
    bsq = np.array([r.hm_b_sq for r in records])
    d1bsq = np.array([r.hm1_d1b_sq for r in records])
    E = np.array([r.E for r in records])
    lhs = dy + 0.5 * vsq + 0.5 * d1bsq
    rhs = (
        E * (vsq + d1bsq)
        + np.array([r.sup_d1v for r in records]) * bsq
        + np.array([r.sup_B2 for r in records]) * np.sqrt(d1bsq) * np.sqrt(bsq)
    )

    scale = max(float(np.max(np.abs(lhs))), 1e-9 * (1.0 + float(np.max(y))))
    if fd_err > 0.1 * scale:
        raise AuditResolutionError(
            f"finite-difference error {fd_err:.3e} exceeds 10% of lhs scale {scale:.3e}"
        )

    pos = np.maximum(lhs, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(pos == 0.0, 0.0, pos / np.where(rhs > 0.0, rhs, np.nan))
    ratios = np.where(np.isnan(ratios), np.where(pos > 0.0, np.inf, 0.0), ratios)
    return EnergyAudit(m=m, times=times, lhs=lhs, rhs=rhs, fd_error=fd_err,
                       implied_C=float(np.max(ratios)))


def interpolation_audit(f: Callable, p: float, q: float, d: int = 2,
                        radius: float = 60.0) -> InterpolationAudit:
    """Both sides of the weighted L^1 interpolation bound for a radial profile.

    ``f`` maps radius r >= 0 to a value (vectorized). lhs = |f|_{L^1(R^d)};
    rhs = the product of weighted L^2 norms with exponents q/(p+q), p/(p+q).
    The inner weighted norm diverges when the weight beats the radial
    volume factor at the origin and f(0) != 0; that case is rejected.
    """
    if p <= 0.0 or q <= 0.0:
        raise ConfigError("p and q must be positive")
    if d not in (1, 2, 3):
        raise ConfigError(f"d must be 1, 2, or 3, got {d}")
    sphere = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[d]
    # the low-weight integrand is r^(2d-1-2q) |f|^2 near 0: divergent once q >= d
    if q >= d and abs(float(np.asarray(f(0.0)))) > 0.0:
        raise AuditInapplicableError(
            f"weighted norm with q = {q} diverges at the origin in d = {d}"
        )

    def absf(r):
        return np.abs(np.asarray(f(r), dtype=float))

    lhs = sphere * refine_integral(lambda r: absf(r) * r ** (d - 1), 0.0, radius)
    hi = sphere * refine_integral(
        lambda r: r ** (d + 2.0 * p) * absf(r) ** 2 * r ** (d - 1), 0.0, radius
    )
    lo = sphere * refine_integral(
        lambda r: r ** (d - 2.0 * q) * absf(r) ** 2 * r ** (d - 1), 0.0, radius
    )
    rhs = hi ** (0.5 * q / (p + q)) * lo ** (0.5 * p / (p + q))
    return InterpolationAudit(lhs=float(lhs), rhs=float(rhs))


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


def fit_decay(curve: DecayCurve, window: tuple) -> DecayFit:
    """Least-squares slope of log(value) against log(1 + t) in a window."""
    t_lo, t_hi = float(window[0]), float(window[1])
    if not t_lo < t_hi:
        raise FitDomainError(f"empty window [{t_lo}, {t_hi}]")
    mask = (curve.times >= t_lo) & (curve.times <= t_hi)
    if int(np.sum(mask)) < 10:
        raise FitDomainError(
            f"window [{t_lo}, {t_hi}] holds {int(np.sum(mask))} samples; need >= 10"
        )
    vals = curve.values[mask]
    if np.any(vals <= 0.0) or np.any(curve.times[mask] <= -1.0):
        raise FitDomainError("the fit needs values > 0 and t > -1 inside its window")
    x = np.log1p(curve.times[mask])
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return DecayFit(
        slope=float(slope),
        intercept=float(intercept),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
        window=(t_lo, t_hi),
    )


def physical_l1_norm(state: SpectralState) -> float:
    """Riemann-sum L^1 norm of the pointwise 4-component magnitude."""
    fields = to_physical(state)
    mag = np.sqrt(np.sum(fields**2, axis=0))
    return float(np.sum(mag) * state.grid.cell_area)


def gaussian_divfree_family(grid: SpectralGrid, widths=(0.5, 1.0, 2.0, 4.0)):
    """Divergence-free Gaussian-envelope states, one per physical width."""
    return [
        from_potentials(grid, np.stack((np.exp(-0.5 * w**2 * grid.half_xi_sq),
                                        np.exp(-0.25 * w**2 * grid.half_xi_sq)))
                        * grid.half_dealias_mask)
        for w in widths
    ]


def single_mode_state(grid: SpectralGrid, k1: int, k2: int, pair: str = "v") -> SpectralState:
    """Hermitian single-mode divergence-free state at integer mode (k1, k2).

    A unit stream function (pair ``"v"``) or magnetic potential (``"B"``)
    at (k1, k2) and its conjugate partner (-k1, -k2). Raises
    ``ConfigError`` for the mean mode and for |k_i| >= n_i/2: the Nyquist
    modes carry no potential and larger ones are not on the grid.
    """
    if (k1, k2) == (0, 0):
        raise ConfigError("single mode must not be the mean mode")
    if pair not in ("v", "B"):
        raise ConfigError(f"pair must be 'v' or 'B', got {pair!r}")
    if 2 * abs(k1) >= grid.n1 or 2 * abs(k2) >= grid.n2:
        raise ConfigError(
            f"single mode ({k1}, {k2}) needs |k_i| < n_i/2 on a {grid.n1}x{grid.n2} grid"
        )
    # the half spectrum holds k2 > 0, and k1 > 0 of the k2 = 0 column
    if k2 < 0 or (k2 == 0 and k1 < 0):
        k1, k2 = -k1, -k2
    w = np.zeros((2, grid.n1, grid.n2 // 2 + 1))
    w[0 if pair == "v" else 1, k1 % grid.n1, k2] = 1.0
    return from_potentials(grid, w)


def xm_embedding_scan(states: Sequence[SpectralState], m: int):
    """Max of |f|_{X^m} / (|f|_{H^m} + |f|_{L^1 proxy}) over a family.

    Returns (max ratio, per-state ratio list). The ratio's finiteness is
    the point of the scan; the denominator's L^1 part is a physical-grid
    Riemann sum.
    """
    if not states:
        raise ConfigError("embedding scan needs at least one state")
    ratios = []
    for st in states:
        g = st.grid
        xm = anisotropic_norm(st, m)
        hm = np.sqrt(sum(sobolev_norm(g, st.u[c], m) ** 2 for c in range(4)))
        denom = hm + physical_l1_norm(st)
        if denom <= 0.0:
            raise ConfigError("embedding scan needs nonzero states")
        ratios.append(float(xm / denom))
        if not np.isfinite(ratios[-1]):
            raise DiagnosticIntegrityError("embedding ratio is not finite")
    return max(ratios), ratios
