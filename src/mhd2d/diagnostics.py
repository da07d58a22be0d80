"""Scalar functionals, cumulative quantities, and inequality audits.

Instantaneous records follow a fixed CSV schema (``CSV_COLUMNS``). The
Sobolev quantities E, A, and the energy-audit norms use the derivative-sum
weight sum_{|alpha| <= m} xi^(2 alpha): that is the convention under which
d/dt(E^2 + A) closes with the exact 1/2 coefficients in front of the
dissipation terms and |A| <= E^2/2 holds with constant exactly 1/2. The
anisotropic norm reported as ``xm`` uses the standard multiplier H^m for
its Sobolev part.

A run builds the tables a record multiplies by once: ``_record_weights``
keeps the ``RecordWeights`` of the last (grid, m, kc) it was asked for
while that grid lives, so ``initial_state``'s E(0) and every record of the
run share one build. A record forms |h|^2 once and takes each weighted total as one ``np.einsum``
contraction of two contiguous arrays: no product array, and no BLAS call,
whose last bit depends on its thread count, so a record depends on the
state alone.

Wavenumber sums are calibrated to continuum integrals: with the forward
transform carrying 1/(n1 n2), the continuum Fourier transform of a box
field is l1*l2*fhat, the mode spacing is dxi_i = 2*pi/l_i, and so
integral |ghat| dxi ~ (2*pi)^2 * sum |fhat|. Weights singular on the
xi1 = 0 column or at xi = 0 exclude those modes; states are mean-free and
the excluded-column content is reported nowhere else, so all such norms
are lower bounds that converge as the box grows.
"""

import weakref
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


class RecordWeights:
    """Every table a record on kc leading half-spectrum columns multiplies
    by, for one (grid, m, kc); records take them from ``_record_weights``.

    (n1, kc) tables, each with the column multiplicity ``half_mult`` where
    its sum is a full-spectrum sum: ``hm``, the area times the derivative-sum
    weight sum_{|alpha| <= m} xi^(2 alpha) (also the cancellation pairing's);
    ``cross`` and ``d1b``, the area times the order m - 1 weight and the row
    factor ``odd_xi1`` (A) or xi1^2 (|d1 B|_{H^(m-1)}); (1 + |xi|^2)^m,
    1/|xi| and |xi| of the X^m norm and the L1 terms, and sqrt|xi1|/|xi|,
    summed along full rows. Row tables: |xi1|, the rows off xi1 = 0 and
    their sqrt|xi1|, the region masks and the row mirror k1 -> -k1.
    """

    __slots__ = ("hm", "cross", "d1b", "sobolev", "inv", "grad", "aniso",
                 "ixi", "absxi1", "col", "root_xi1", "regions", "rev1")

    def __init__(self, grid: SpectralGrid, m: int, kc: int):
        g = grid
        mult = g.half_mult[:kc]
        x1 = g.xi1**2
        x2 = g.half_xi2[0, :kc] ** 2
        # partial[j] = mult * sum_{b <= j} xi2^(2b)
        partial = [mult]
        for j in range(1, m + 1):
            partial.append(partial[-1] + partial[0] * x2**j)
        wm1 = sum(x1**a * partial[m - 1 - a] for a in range(m))
        self.hm = g.area * sum(x1**a * partial[m - a] for a in range(m + 1))
        self.cross = (g.area * g.odd_xi1) * wm1
        self.d1b = (g.area * x1) * wm1
        xi_sq = g.half_xi_sq[:, :kc]
        absxi = np.sqrt(xi_sq)
        winv = np.divide(1.0, absxi, out=np.zeros(absxi.shape), where=absxi > 0.0)
        self.sobolev = (1.0 + xi_sq) ** m * mult
        self.inv = winv * mult
        self.grad = absxi * mult
        self.absxi1 = np.abs(g.xi1[:, 0])
        self.aniso = np.sqrt(self.absxi1)[:, None] * winv
        self.ixi = 1j * g.odd_xi1
        self.col = self.absxi1 > 0.0
        self.root_xi1 = np.sqrt(self.absxi1[self.col])
        self.regions = region_masks(g.xi1[:, 0])
        self.rev1 = (-np.arange(g.n1)) % g.n1


# the weights of the last (grid, m, kc) asked for, held while the grid they
# were built for lives, as a run's does through its records; a module-level
# cache would hold them past the grid, once per import of the package
_WEIGHTS = weakref.WeakKeyDictionary()


def _record_weights(grid: SpectralGrid, m: int, kc: int) -> RecordWeights:
    """The weights for (grid, m, kc); ``ConfigError`` unless m is a positive
    integer, which every order-m quantity needs."""
    if int(m) != m or m < 1:
        raise ConfigError(f"m must be a positive integer, got {m!r}")
    m = int(m)
    held = _WEIGHTS.get(grid)  # an equal grid, by (n1, n2, l1, l2), finds them
    if held is None or held[0] != (m, kc):
        _WEIGHTS.clear()
        held = _WEIGHTS[grid] = ((m, kc), RecordWeights(grid, m, kc))
    return held[1]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) of two contiguous arrays of one size, in one contraction
    that forms no product array. numpy's own loop, never BLAS, whose last
    bit would depend on its thread count."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


# rows of a record's stack past the four powers |h_c|^2: the fields whose
# square roots it takes, the total power, |B|^2, |B2|^2, |v|^2 and |v2|^2
_TOTAL, _B, _B2, _V, _V2 = range(4, 9)


def energy(grid: SpectralGrid, u: np.ndarray, m: int) -> float:
    """The order-m energy E of the components ``u`` on the leading kc
    half-spectrum columns, summed as a record sums it."""
    w = _record_weights(grid, m, u.shape[-1])
    power = np.square(u.real) + np.square(u.imag)
    vb = power[0::2] + power[1::2]  # |v|^2, |B|^2
    return float(np.sqrt(_dot(w.hm, vb[0]) + _dot(w.hm, vb[1])))


def _spectral_terms(g: SpectralGrid, h: np.ndarray, w: RecordWeights):
    """Every record field the power of ``h`` gives: the two H^m squares,
    |d1 B|_{H^(m-1)}^2, the X^m norm, the L^2 mass by component and row,
    and the six Fourier-L1 integrands. All row sums are one sum over the
    stack's interior columns 1 .. n2/2 - 1, whose weight ``half_mult`` is 2:
    a row of the full spectrum holds the half row k1 and the interior
    columns of row -k1."""
    stack = np.empty((9,) + h.shape[1:])
    np.square(h.real, out=stack[:4])
    np.square(h.imag, out=stack[4:8])
    stack[:4] += stack[4:8]
    np.add(stack[0], stack[1], out=stack[_V])
    np.add(stack[2], stack[3], out=stack[_B])
    np.add(stack[_V], stack[_B], out=stack[_TOTAL])
    stack[_B2] = stack[3]
    stack[_V2] = stack[1]
    hm_v_sq, hm_b_sq = _dot(w.hm, stack[_V]), _dot(w.hm, stack[_B])
    hm1_d1b_sq = _dot(w.d1b, stack[_B])
    sobolev = np.sqrt(g.area * _dot(w.sobolev, stack[_TOTAL]))
    np.sqrt(stack[_TOTAL:], out=stack[_TOTAL:])
    stack[_TOTAL] *= w.aniso
    inv_b = _dot(w.inv, stack[_B])
    grad_b2 = _dot(w.grad, stack[_B2])

    interior = np.sum(stack[..., 1:g.n2 // 2], axis=-1)
    rows = interior + stack[..., 0]
    if h.shape[-1] == g.n2 // 2 + 1:
        rows += stack[..., -1]
    full = rows[[_TOTAL, _V2]] + interior[[_TOTAL, _V2]][:, w.rev1]
    rows += interior  # now weighted by half_mult
    del stack

    # L^1 in xi2 of the continuum transform l1*l2*fhat, then L^2 in xi1
    inner = (g.l1 * g.l2) * full * g.dxi[1]
    t2 = np.sqrt(np.sum(inner[0] ** 2) * g.dxi[0])
    t4 = np.sum(rows[_B][w.col] / w.root_xi1)
    xm = float(sobolev + t2 + _L1_CALIBRATION * inv_b + _L1_CALIBRATION * t4)
    absxi1, col = w.absxi1, w.col
    h_terms = (
        float(_L1_CALIBRATION * np.sum(absxi1 * rows[_B2])),
        float(_L1_CALIBRATION * np.sum(rows[_B2])),
        float(_L1_CALIBRATION * grad_b2),
        float(_L1_CALIBRATION * np.sum(absxi1 * rows[_V])),
        float(np.sum(inner[1][col] ** 2 / absxi1[col]) * g.dxi[0]),
        float(_L1_CALIBRATION * np.sum(rows[_V2][col] / w.root_xi1)),
    )
    return hm_v_sq, hm_b_sq, hm1_d1b_sq, xm, g.area * rows[:4], h_terms


def anisotropic_norm(state: SpectralState, m: int) -> float:
    """Weighted initial-data norm: H^m plus three anisotropic terms.

    Terms: || (sqrt|xi1|/|xi|) fhat ||_{L^2_{xi1} L^1_{xi2}} over all four
    components, and the L^1 norms of |(Bhat1, Bhat2)| against 1/|xi| and
    1/sqrt|xi1|. Modes where a weight is singular are excluded. Summed on
    the half spectrum, so the state must be Hermitian.
    """
    g = state.grid
    h = state.u[:, :, : g.n2 // 2 + 1]
    return _spectral_terms(g, h, _record_weights(g, m, h.shape[-1]))[3]


def instantaneous(grid: SpectralGrid, u: np.ndarray, m: int, *, time: float = 0.0,
                  energy_residual: float = 0.0) -> DiagnosticsRecord:
    """Evaluate every per-instant functional of a Hermitian state at ``time``.

    ``u`` (shape (4, n1, kc), else ``ConfigError``) holds the components on
    the leading kc half-spectrum columns, zero past them; columns past n2/2,
    as in a ``SpectralState.u``, are ignored. Each summand, weighted by
    ``half_mult``, is even under k -> -k, so the sums are full-spectrum
    sums. Raises ``DiagnosticIntegrityError`` when |A| > E^2/2 beyond
    roundoff, or when the region masses fail to recover the L^2 mass.
    """
    g = grid
    if u.ndim != 3 or u.shape[:2] != (4, g.n1):
        raise ConfigError(f"components must have shape (4, {g.n1}, kc), got {u.shape}")
    h = np.ascontiguousarray(u[:, :, : g.n2 // 2 + 1])
    w = _record_weights(g, m, h.shape[-1])
    hm_v_sq, hm_b_sq, hm1_d1b_sq, xm, comp, h_terms = _spectral_terms(g, h, w)
    e_sq = hm_v_sq + hm_b_sq

    # the pairings as real parts Re(a conj b), each one contraction of the
    # float views; d holds the weighted factor a
    planes = np.empty((3,) + h.shape[1:], dtype=np.complex128)
    d = planes[1:]
    v, b = h[:2].view(np.float64), h[2:].view(np.float64)
    # A = sum of Im(B conj v) = Re((-i B) conj v); the Nyquist row's xi1 has
    # no mirror of opposite sign, its full-spectrum sum vanishes, so odd_xi1
    # (in ``cross``) drops it
    np.multiply(h[2:], w.cross, out=d)
    d *= -1j
    A = _dot(d.view(np.float64), v)
    if abs(A) > 0.5 * e_sq * (1.0 + 1e-10) + 1e-300:
        raise DiagnosticIntegrityError(
            f"|A| = {abs(A):.6e} exceeds E^2/2 = {0.5 * e_sq:.6e}"
        )

    # two independently differentiated routes of the same pairing; the sum
    # cancels analytically, so what remains measures accumulated roundoff
    np.multiply(h[2:], w.ixi, out=d)  # d1 B1, d1 B2
    d *= w.hm
    i1 = _dot(d.view(np.float64), v)
    np.multiply(h[:2], w.ixi, out=d)  # d1 v1, d1 v2
    planes[0] = h[3]
    phys = np.fft.irfft2(planes, s=g.shape, axes=(-2, -1), norm="forward")
    d *= w.hm
    i2 = _dot(d.view(np.float64), b)
    cancel = float(abs(i1 + i2) / max(abs(i1), abs(i2), 1e-300))
    del planes, d

    b2, d1v = phys[0], phys[1:]
    sup_B2 = float(max(np.max(b2), -np.min(b2)))
    # sqrt is monotone, so it is taken once, of the largest squared magnitude
    np.square(d1v, out=d1v)
    d1v[0] += d1v[1]
    sup_d1v = float(np.sqrt(np.max(d1v[0])))

    rows = np.sum(comp, axis=0)
    m1, m2, m3 = (float(np.sum(rows[r])) for r in w.regions)
    tot = float(np.sum(rows))
    if abs((m1 + m2 + m3) - tot) > 1e-12 * max(tot, 1e-300):
        raise DiagnosticIntegrityError("region masses do not partition the L^2 mass")
    l2 = np.sqrt(np.sum(comp, axis=1))

    return DiagnosticsRecord(
        t=float(time),
        E=float(np.sqrt(e_sq)),
        A=A,
        sup_d1v=sup_d1v,
        sup_B2=sup_B2,
        xm=xm,
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


# where ``interpolation_audit`` truncates its radial integrals
_AUDIT_RADIUS = 60.0


def interpolation_audit(f: Callable, p: float, q: float, d: int = 2) -> InterpolationAudit:
    """Both sides of the weighted L^1 interpolation bound for a radial profile.

    ``f`` maps radius r >= 0 to a value (vectorized), integrated out to
    ``_AUDIT_RADIUS``. lhs = |f|_{L^1(R^d)};
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

    lhs = sphere * refine_integral(lambda r: absf(r) * r ** (d - 1), 0.0, _AUDIT_RADIUS)
    hi = sphere * refine_integral(
        lambda r: r ** (d + 2.0 * p) * absf(r) ** 2 * r ** (d - 1), 0.0, _AUDIT_RADIUS
    )
    lo = sphere * refine_integral(
        lambda r: r ** (d - 2.0 * q) * absf(r) ** 2 * r ** (d - 1), 0.0, _AUDIT_RADIUS
    )
    rhs = hi ** (0.5 * q / (p + q)) * lo ** (0.5 * p / (p + q))
    return InterpolationAudit(lhs=float(lhs), rhs=float(rhs))


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
    """Divergence-free Gaussian-envelope states, one per finite physical width."""
    if not np.all(np.isfinite(widths)):
        raise ConfigError(f"widths must be finite, got {tuple(widths)!r}")
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
