"""Scalar functionals, cumulative quantities, and inequality audits.

Instantaneous records follow a fixed CSV schema (``CSV_COLUMNS``). The
Sobolev quantities E, A, and the energy-audit norms use the derivative-sum
weight sum_{|alpha| <= m} xi^(2 alpha): that is the convention under which
d/dt(E^2 + A) closes with the exact 1/2 coefficients in front of the
dissipation terms and |A| <= E^2/2 holds with constant exactly 1/2. The
anisotropic norm reported as ``xm`` uses the standard multiplier H^m for
its Sobolev part.

A run builds the tables a record multiplies by once: ``solver.run``
builds the ``RecordWeights`` it hands to each ``instantaneous`` call, held
until it returns; nothing is kept at module level; ``energy`` builds only its
H^m table. A record forms |h|^2 once and takes each weighted total as one
``np.einsum`` contraction of two contiguous arrays: no product array, and
no BLAS call, whose last bit depends on its thread count, so a record
depends on the state alone.

Wavenumber sums are calibrated to continuum integrals: with the forward
transform carrying 1/(n1 n2), the continuum Fourier transform of a box
field is l1*l2*fhat, the mode spacing is dxi_i = 2*pi/l_i, and so
integral |ghat| dxi ~ (2*pi)^2 * sum |fhat|. Weights singular on the
xi1 = 0 column or at xi = 0 exclude those modes; states are mean-free and
the excluded-column content is reported nowhere else, so all such norms
are lower bounds that converge as the box grows.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

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
    _block_rows,
    _check_order,
    _components,
    sobolev_norm,
    to_physical,
)

CSV_COLUMNS = (
    "t", "E", "A", "sup_d1v", "sup_B2", "xm",
    "l2_v1", "l2_v2", "l2_B1", "l2_B2",
    "e_residual", "cancel_residual",
    "mass_omega1", "mass_omega2", "mass_omega3",
)


class DiagnosticsRecord(NamedTuple):
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


class CumulativeRecord(NamedTuple):
    """Time-integrated quantities over [0, T]."""

    T: float
    G: float
    H: float
    sup_E: float
    dissipation_integral: float
    h_terms: tuple


class EnergyAudit(NamedTuple):
    """Per-sample sides of the m-th order energy inequality."""

    m: int
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    fd_error: float
    implied_C: float


class DecayFit(NamedTuple):
    slope: float
    intercept: float
    rms_residual: float
    window: tuple


class InterpolationAudit(NamedTuple):
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.rhs > 0.0:
            return self.lhs / self.rhs
        return 0.0 if self.lhs == 0.0 else float("inf")


# integral over xi of |l1*l2*fhat| with cell (2pi/l1)(2pi/l2), on any box
_L1_CALIBRATION = 4.0 * np.pi**2


def _derivative_weight(g: SpectralGrid, m: int, kc: int) -> np.ndarray:
    """The derivative-sum weight sum_{|alpha| <= m} xi^(2 alpha) times
    ``half_mult`` on kc leading half-spectrum columns, an (n1, kc) table."""
    mult, x1, x2 = g.half_mult[:kc], g.xi1**2, g.half_xi2[0, :kc] ** 2
    partial = [mult]  # partial[j] = mult * sum_{b <= j} xi2^(2b)
    for j in range(1, m + 1):
        partial.append(partial[-1] + partial[0] * x2**j)
    return sum(x1**a * partial[m - a] for a in range(m + 1))


class RecordWeights:
    """Every table a record on kc leading half-spectrum columns multiplies
    by, for one (grid, m, kc), as ``solver.run`` builds them for its records;
    ``ConfigError`` unless m is a positive integer.

    (n1, kc) tables, each with the column multiplicity ``half_mult`` where
    its sum is a full-spectrum sum: ``hm``, the area times the derivative-sum
    weight sum_{|alpha| <= m} xi^(2 alpha) (also the cancellation pairing's);
    ``cross`` and ``d1b``, the area times the order m - 1 weight and the row
    factor ``odd_xi1`` (A: xi1 with its Nyquist row zeroed; ``ixi``, i times
    it, is d1's multiplier) or xi1^2 (|d1 B|_{H^(m-1)}); (1 + |xi|^2)^m,
    1/|xi| and |xi| of the X^m norm and the L1 terms, and sqrt|xi1|/|xi|,
    summed along full rows. Row tables: |xi1|, the rows off xi1 = 0 and
    their sqrt|xi1|, the region masks and the row mirror k1 -> -k1.
    """

    __slots__ = ("hm", "cross", "d1b", "sobolev", "inv", "grad", "aniso",
                 "ixi", "absxi1", "col", "root_xi1", "regions", "rev1")

    def __init__(self, grid: SpectralGrid, m: int, kc: int):
        g, m = grid, _check_order(m, 1)
        mult = g.half_mult[:kc]
        wm1 = _derivative_weight(g, m - 1, kc)
        self.hm = g.area * _derivative_weight(g, m, kc)
        odd_xi1 = np.where(np.arange(g.n1)[:, None] == g.n1 // 2, 0.0, g.xi1)
        self.cross = (g.area * odd_xi1) * wm1
        self.d1b = (g.area * g.xi1**2) * wm1
        xi_sq = g.half_xi_sq[:, :kc]
        absxi = np.sqrt(xi_sq)
        winv = np.divide(1.0, absxi, out=np.zeros(absxi.shape), where=absxi > 0.0)
        self.sobolev = (1.0 + xi_sq) ** m * mult
        self.inv = winv * mult
        self.grad = absxi * mult
        self.absxi1 = np.abs(g.xi1[:, 0])
        self.aniso = np.sqrt(self.absxi1)[:, None] * winv
        self.ixi = 1j * odd_xi1
        self.col = self.absxi1 > 0.0
        self.root_xi1 = np.sqrt(self.absxi1[self.col])
        self.regions = region_masks(g.xi1[:, 0])
        self.rev1 = (-np.arange(g.n1)) % g.n1


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
    half-spectrum columns, summed as a record sums it, over the one H^m
    table ``RecordWeights.hm``; ``ConfigError`` unless m is a positive
    integer. |v|^2 and |B|^2 are formed in place of the power of (v1, B1),
    so at most three arrays of two components' size live at once."""
    m = _check_order(m, 1)
    vb = np.square(u[0::2].real)
    vb += np.square(u[0::2].imag)
    vb += np.square(u[1::2].real) + np.square(u[1::2].imag)
    hm = grid.area * _derivative_weight(grid, m, u.shape[-1])
    return float(np.sqrt(_dot(hm, vb[0]) + _dot(hm, vb[1])))


def _spectral_terms(g: SpectralGrid, h: np.ndarray, w: RecordWeights, stack: np.ndarray):
    """Every record field the power of ``h`` gives: the two H^m squares,
    |d1 B|_{H^(m-1)}^2, the X^m norm, the L^2 mass by component and row,
    and the six Fourier-L1 integrands, with ``stack``, a float (9,) +
    ``h.shape[1:]`` array, as scratch. All row sums are one sum over the
    stack's interior columns 1 .. n2/2 - 1, whose weight ``half_mult`` is 2:
    a row of the full spectrum holds the half row k1 and the interior
    columns of row -k1."""
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


def anisotropic_norm(state: SpectralState, m: int, *, weights=None) -> float:
    """Weighted initial-data norm: H^m plus three anisotropic terms.

    Terms: || (sqrt|xi1|/|xi|) fhat ||_{L^2_{xi1} L^1_{xi2}} over all four
    components, and the L^1 norms of |(Bhat1, Bhat2)| against 1/|xi| and
    1/sqrt|xi1|. Modes where a weight is singular are excluded. Summed on
    the half spectrum, so the state must be Hermitian. ``weights``: the
    ``RecordWeights`` of (grid, m, n2/2 + 1), else built here."""
    g, u = state.grid, state.u
    w = RecordWeights(g, m, u.shape[-1]) if weights is None else weights
    return _spectral_terms(g, u, w, np.empty((9,) + u.shape[1:]))[3]


def _record_size(grid: SpectralGrid, kc: int) -> int:
    """Complex elements of the buffer a record on kc columns works in: its
    float (9, n1, kc) power stack, or its (3, n1, kc) complex planes and,
    after them, a complex (n1, kc) weight table and then a block of its
    three physical planes' rows. 3 n1 (kc + n2/2) where the planes take one
    block."""
    n1 = grid.n1
    rows = _block_rows(grid, 3)
    return max(-(-9 * n1 * kc // 2), 3 * n1 * kc + max(n1 * kc, 3 * rows * grid.n2 // 2))


def instantaneous(grid: SpectralGrid, u: np.ndarray, m: int, *, time: float = 0.0,
                  energy_residual: float = 0.0, work=None, weights=None) -> DiagnosticsRecord:
    """Evaluate every per-instant functional of a Hermitian state at ``time``.

    ``u`` (shape (4, n1, kc), 0 < kc <= n2/2 + 1, else ``ConfigError``) holds
    the components on the leading kc half-spectrum columns, zero past them, as
    a ``SpectralState.u`` does with kc = n2/2 + 1. Each summand, weighted by
    ``half_mult``, is even under k -> -k, so the sums are full-spectrum
    sums. Raises ``DiagnosticIntegrityError`` when |A| > E^2/2 beyond
    roundoff, or when the region masses fail to recover the L^2 mass.
    Every array the record works in is a view into one complex buffer:
    ``work``, a stepper's workspace (``solver._Stepper.work``, which holds
    a record on the band columns), or else one of ``_record_size``
    elements the call makes; a smaller ``work`` is a ``ConfigError``. The
    (9, n1, kc) float power stack comes first; then one (3, n1, kc) complex
    array at the front holds a weight table and the pairings' weighted
    factors, then B2, d1 v1 and d1 v2, which ``to_physical`` turns into
    physical planes one block of rows at a time, in the float view of the
    buffer's tail. The sups are the maxima of the blocks' maxima, so they
    do not depend on the blocks; every grid up to 128^2 takes one block,
    256^2 four of up to 85 rows. ``weights``, the ``RecordWeights`` of (grid,
    m, kc), are a run's (``solver.run`` builds them once), else built here.
    """
    g = grid
    if u.ndim != 3 or u.shape[:2] != (4, g.n1) or not 0 < u.shape[-1] <= g.n2 // 2 + 1:
        raise ConfigError(f"components must have shape (4, {g.n1}, kc), got {u.shape}")
    h = np.ascontiguousarray(u)
    n1, kc = h.shape[1:]
    w = RecordWeights(g, m, kc) if weights is None else weights
    need = _record_size(g, kc)
    work = np.empty(need, dtype=np.complex128) if work is None else work
    if work.size < need:
        raise ConfigError(f"a record on {kc} columns needs a work buffer of {need} "
                          f"complex elements, got {work.size}")
    flat = work.view(np.float64)
    hm_v_sq, hm_b_sq, hm1_d1b_sq, xm, comp, h_terms = _spectral_terms(
        g, h, w, flat[:9 * n1 * kc].reshape(9, n1, kc))
    e_sq = hm_v_sq + hm_b_sq

    # the pairings as real parts Re(a conj b), each one contraction of the
    # float views; d holds the weighted factor a. The weights are copied to
    # complex (n1, kc) tables first, planes[0] and the buffer's last n1 kc
    # elements, as a product that casts or broadcasts a factor along its
    # rows would run through numpy's iterator buffers
    planes = work[:3 * n1 * kc].reshape(3, n1, kc)
    d, factor, weight = planes[1:], planes[0], work[-n1 * kc:].reshape(n1, kc)
    v, b = h[:2].view(np.float64), h[2:].view(np.float64)
    # A = sum of Im(B conj v) = Re((-i B) conj v); the Nyquist row's xi1 has
    # no mirror of opposite sign, its full-spectrum sum vanishes, so odd_xi1
    # (in ``cross``) drops it
    factor[...] = w.cross
    np.multiply(h[2:], factor, out=d)
    d *= -1j
    A = _dot(d.view(np.float64), v)
    if abs(A) > 0.5 * e_sq * (1.0 + 1e-10) + 1e-300:
        raise DiagnosticIntegrityError(
            f"|A| = {abs(A):.6e} exceeds E^2/2 = {0.5 * e_sq:.6e}"
        )

    # two independently differentiated routes of the same pairing; the sum
    # cancels analytically, so what remains measures accumulated roundoff
    factor[...] = w.ixi
    weight[...] = w.hm
    np.multiply(h[2:], factor, out=d)  # d1 B1, d1 B2
    d *= weight
    i1 = _dot(d.view(np.float64), v)
    np.multiply(h[:2], factor, out=d)  # d1 v1, d1 v2
    d *= weight
    i2 = _dot(d.view(np.float64), b)
    cancel = float(abs(i1 + i2) / max(abs(i1), abs(i2), 1e-300))
    # B2, d1 v1, d1 v2 to physical space; the row pass zero-pads past kc.
    # sqrt is monotone, so it is taken once, of the largest squared magnitude
    np.multiply(h[:2], factor, out=d)
    planes[0] = h[3]
    tail, top = 3 * _block_rows(g, 3) * g.n2, None
    for _, phys in to_physical(g, planes, flat[flat.size - tail:].reshape(3, -1, g.n2)):
        b2, d1v = phys[0], phys[1:]
        np.square(d1v, out=d1v)
        d1v[0] += d1v[1]
        block = (np.max(b2), -np.min(b2), np.max(d1v[0]))
        top = block if top is None else np.maximum(top, block)  # passes a NaN on
    sup_B2 = float(max(top[0], top[1]))
    sup_d1v = float(np.sqrt(top[2]))

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


def _median(x: np.ndarray) -> float:
    """np.median of finite x bit for bit, without its NaN check, which imports numpy.ma."""
    s = np.sort(x)
    return float(np.mean(s[(s.size - 1) // 2:s.size // 2 + 1]))


def _check_history(records: Sequence[DiagnosticsRecord]):
    if not records:
        raise IncompleteHistoryError("empty history")
    times = np.array([r.t for r in records])
    if not np.all(np.diff(times) > 0.0):  # NaN fails too
        raise IncompleteHistoryError("history times must be strictly increasing")
    if not abs(times[0]) <= 1e-12:  # NaN fails too
        raise IncompleteHistoryError(f"history starts at t = {times[0]}, not 0")
    if len(times) > 2:
        steps = np.diff(times)
        med = _median(steps)
        if np.max(steps) > 1.5 * med:
            raise IncompleteHistoryError("gap in history exceeds 1.5x the cadence")
    return times


def cumulative(records: Sequence[DiagnosticsRecord]) -> CumulativeRecord:
    """Trapezoid time integrals over the whole sampled history.

    G^2 = sup_t E^2 + int (|v|_{H^m}^2 + |d1 B|_{H^{m-1}}^2) dt. The
    mediating quantity sums int ||.||^p dt of the six Fourier-Lebesgue
    integrands with their exponents p in (1, 2, 4/3, 1, 2, 4/3); the
    p-th root is deliberately not taken, matching how the summands enter
    the continuity argument.
    """
    times = _check_history(records)

    def integrate(vals, power=1.0):
        if len(times) == 1:
            return 0.0
        v = np.array(vals, dtype=float) ** power
        return float(np.trapezoid(v, times))

    sup_e = max(r.E for r in records)
    diss = integrate([r.hm_v_sq + r.hm1_d1b_sq for r in records])
    G = float(np.sqrt(sup_e**2 + diss))
    h_terms = (
        integrate([r.h_d1b2_l1 for r in records], 1.0),
        integrate([r.h_b2_l1 for r in records], 2.0),
        integrate([r.h_gradb2_l1 for r in records], 4.0 / 3.0),
        integrate([r.h_d1v_l1 for r in records], 1.0),
        integrate([r.h_v2_half_sq for r in records], 1.0),  # inner norm already squared
        integrate([r.h_v2_half_l1 for r in records], 4.0 / 3.0),
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


def interpolation_audit(f: Callable, p: float, q: float) -> InterpolationAudit:
    """Both sides of the weighted L^1 interpolation bound for a radial profile.

    ``f`` maps radius r >= 0 to a value (vectorized), integrated out to
    ``_AUDIT_RADIUS``. lhs = |f|_{L^1(R^2)};
    rhs = the product of weighted L^2 norms with exponents q/(p+q), p/(p+q).
    The inner weighted norm diverges when the weight beats the radial
    volume factor at the origin and f(0) != 0; that case is rejected.
    """
    if p <= 0.0 or q <= 0.0:
        raise ConfigError("p and q must be positive")
    # the low-weight integrand is r^(3-2q) |f|^2 near 0: divergent once q >= 2
    if q >= 2 and abs(float(np.asarray(f(0.0)))) > 0.0:
        raise AuditInapplicableError(f"weighted norm with q = {q} diverges at the origin")

    def absf(r):
        return np.abs(np.asarray(f(r), dtype=float))

    sphere = 2.0 * np.pi
    lhs = sphere * refine_integral(lambda r: absf(r) * r, 0.0, _AUDIT_RADIUS)
    hi = sphere * refine_integral(
        lambda r: r ** (2 + 2.0 * p) * absf(r) ** 2 * r, 0.0, _AUDIT_RADIUS)
    lo = sphere * refine_integral(
        lambda r: r ** (2 - 2.0 * q) * absf(r) ** 2 * r, 0.0, _AUDIT_RADIUS)
    rhs = hi ** (0.5 * q / (p + q)) * lo ** (0.5 * p / (p + q))
    return InterpolationAudit(lhs=float(lhs), rhs=float(rhs))


def window_mask(times: np.ndarray, window: tuple) -> np.ndarray:
    """Which of ``times`` lie in ``window`` = (t_lo, t_hi); ``FitDomainError``
    unless t_lo < t_hi and at least 10 of them do, as a fit needs."""
    t_lo, t_hi = float(window[0]), float(window[1])
    if not t_lo < t_hi:
        raise FitDomainError(f"empty window [{t_lo}, {t_hi}]")
    mask = (times >= t_lo) & (times <= t_hi)
    if int(np.sum(mask)) < 10:
        raise FitDomainError(
            f"window [{t_lo}, {t_hi}] holds {int(np.sum(mask))} samples; need >= 10"
        )
    return mask


def fit_decay(curve: DecayCurve, window: tuple) -> DecayFit:
    """Least-squares slope of log(value) against log(1 + t) in a window."""
    t_lo, t_hi = float(window[0]), float(window[1])
    mask = window_mask(curve.times, window)
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
    """Riemann-sum L^1 norm of the pointwise 4-component magnitude, taken
    of the whole planes in one block, so the order of the sum is fixed."""
    g = state.grid
    (_, fields), = to_physical(g, _components(g, state.w), np.empty((4,) + g.shape))
    mag = np.sqrt(np.sum(fields**2, axis=0))
    return float(np.sum(mag) * g.cell_area)


def gaussian_divfree_family(grid: SpectralGrid, widths=(0.5, 1.0, 2.0, 4.0)):
    """Divergence-free Gaussian-envelope states, one per physical width.

    Each width must be finite and positive, else ``ConfigError``: the
    envelope depends on w^2 alone, so -w repeats w, and w = 0 is flat.
    """
    if not np.all(np.isfinite(widths)):
        raise ConfigError(f"widths must be finite, got {tuple(widths)!r}")
    if not np.all(np.asarray(widths) > 0.0):
        raise ConfigError(f"widths must be positive, got {tuple(widths)!r}")
    keep = grid.half_dealias_mask & (grid.half_xi_sq > 0.0)  # no field has a mean potential
    return [SpectralState(grid, np.stack((np.exp(-0.5 * w**2 * grid.half_xi_sq),
                                          np.exp(-0.25 * w**2 * grid.half_xi_sq))) * keep)
            for w in widths]


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
    # a k2 = 0 mode is its own column's mirror pair, (k1, 0) and (-k1, 0)
    w[0 if pair == "v" else 1, [k1 % grid.n1, -k1 % grid.n1][:1 + (k2 == 0)], k2] = 1.0
    return SpectralState(grid, w)


def xm_embedding_scan(states: Sequence[SpectralState], m: int):
    """Max of |f|_{X^m} / (|f|_{H^m} + |f|_{L^1 proxy}) over a family.

    Returns (max ratio, per-state ratio list). The ratio's finiteness is
    the point of the scan; the denominator's L^1 part is a physical-grid
    Riemann sum. States on the first one's grid share its ``RecordWeights``.
    """
    if not states:
        raise ConfigError("embedding scan needs at least one state")
    ratios, g0 = [], states[0].grid
    w0 = RecordWeights(g0, m, g0.n2 // 2 + 1)  # a state on another grid builds its own
    for st in states:
        g = st.grid
        xm = anisotropic_norm(st, m, weights=w0 if g is g0 else None)
        hm = np.sqrt(sum(sobolev_norm(g, f, m) ** 2 for f in st.u))
        denom = hm + physical_l1_norm(st)
        if denom <= 0.0:
            raise ConfigError("embedding scan needs nonzero states")
        ratios.append(float(xm / denom))
        if not np.isfinite(ratios[-1]):
            raise DiagnosticIntegrityError("embedding ratio is not finite")
    return max(ratios), ratios
