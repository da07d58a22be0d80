"""Normal modes of the damped-wave symbol.

Per wavenumber the linearized system decouples into two identical 2x2 blocks
acting on (v_j, B_j); the 4x4 symbol J has the double characteristic
polynomial (lam^2 - lam + xi1^2)^2. This module owns the eigenvalues, the
normal-mode reconstruction, the one confluent-safe divided difference of
phi_k over the eigenvalue pair (k = 0 is the exponential), the
resonant/damped splitting of the semigroup acting on the second row pair,
and the region-wise decay-bound audit built on it.

All formulas here live in the analysis orientation of the transform
(kernel exp(+i xi . x)); grid-facing code mirrors the sign of xi1, see
``propagator.grid_phi_entries``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularBasisError

E2 = "e2"
E4 = "e4"

_PHI_SERIES_RADIUS = 2.5
_PHI_SERIES_TERMS = 48
# the series' stop test is tried once the next term's bound falls below this
# times 1/k!, about where its largest sums stop changing
_PHI_TEST_FROM = 2.0**-54
# balances the confluent expansion's truncation, (h s)^4 / 1920 ~ 5e-16 at
# the switch, against the direct quotient's cancellation, eps |h lam| / |h s|
_CONFLUENT_SWITCH = 1e-3


def sqrt_discriminant(xi1, a=1.0):
    """Principal branch of sqrt(a^2 - 4 xi1^2); positive imaginary part
    when the eigenvalue pair leaves the real axis."""
    xi1 = np.asarray(xi1, dtype=float)
    return np.sqrt(np.asarray(a, dtype=complex) ** 2 - 4.0 * xi1**2 + 0j)


def _pair(xi1, a):
    """(s, lam_minus, lam_plus) as arrays; see ``eigenvalues``."""
    xi1 = np.asarray(xi1, dtype=float)
    s = sqrt_discriminant(xi1, a)
    den = a + s
    safe = np.where(np.abs(den) == 0.0, 1.0, den)
    lam_minus = np.where(np.abs(den) == 0.0, 0.0 + 0j, 2.0 * xi1**2 / safe)
    return s, lam_minus, den / 2.0


def eigenvalues(xi1):
    """Eigenvalue pair (lam_minus, lam_plus) of the 2x2 block.

    lam_pm = (1 +- sqrt(1 - 4 xi1^2)) / 2. The minus branch is evaluated
    as 2 xi1^2 / (1 + s), which is exact by Vieta and avoids cancellation
    for small xi1.
    """
    _, lam_minus, lam_plus = _pair(xi1, 1.0)
    if np.ndim(lam_minus) == 0:
        return complex(lam_minus), complex(lam_plus)
    return lam_minus, lam_plus


def _phi(k: int, z) -> np.ndarray:
    """phi_k(z) = sum_n z^n / (n + k)!, vectorized; phi_0 is exp. For k > 0,
    the power series on |z| < 2.5 and the upward recurrence from exp
    elsewhere (safe there because the division by z shrinks the error).

    The series adds at most 48 terms and stops as soon as the rest can no
    longer change any entry. Let (R, I) be the absolute real and imaginary
    parts of the last term added, b = |Im z|, s_max the largest |Re z| +
    |Im z| and d = n + 2 + k the next divisor, with sigma = s_max / d <= 1/2.
    Each later term takes its parts from the last one's through a
    nonnegative 2x2 recursion, which bounds the real parts still to come by
    R q + I p in all and the imaginary ones by I q + R p, with q = sigma /
    (1 - sigma) and p = b / (d (1 - sigma)^2); so a real z keeps an exactly
    real sum. Once both lie below an eighth of ``np.spacing`` of their part
    of the sum (half an ulp towards zero is a quarter of it at a power of
    two, and the other factor 2 covers the rounding of the terms and of the
    bound), no later addition rounds to anything but the sum itself: the
    result is the 48-term one to the bit. The test runs only once a scalar
    bound on the next term says it may pass, and NaN and inf never reach the
    series (|z| < 2.5 is false for them).
    """
    z = np.asarray(z, dtype=complex)
    if k == 0:
        return np.exp(z)
    out = np.empty(z.shape, dtype=complex)
    small = np.abs(z) < _PHI_SERIES_RADIUS
    zs = z[small]
    term = np.full(zs.shape, 1.0 / math.factorial(k), dtype=complex)
    acc = term.copy()
    b = np.abs(zs.imag)
    s_max = float(np.max(np.abs(zs.real) + b, initial=0.0))
    bound = 1.0 / math.factorial(k)  # of |Re term| + |Im term|, every entry
    for n in range(_PHI_SERIES_TERMS):
        term = term * zs / (n + 1 + k)
        acc += term
        bound *= s_max / (n + 1 + k)
        d = n + 2 + k
        sigma = s_max / d
        if sigma > 0.5 or bound * sigma > _PHI_TEST_FROM / math.factorial(k):
            continue
        q = sigma / (1.0 - sigma)
        p = b * (1.0 / (d * (1.0 - sigma) ** 2))
        re, im = np.abs(term.real), np.abs(term.imag)
        if (np.all(8.0 * (re * q + im * p) < np.spacing(np.abs(acc.real)))
                and np.all(8.0 * (im * q + re * p) < np.spacing(np.abs(acc.imag)))):
            break
    out[small] = acc
    zb = z[~small]
    rec = np.exp(zb)
    for i in range(k):
        rec = (rec - 1.0 / math.factorial(i)) / zb
    out[~small] = rec
    return out


def phi_split(k: int, xi1, h, a=1.0):
    """(lam_minus, lam_plus, f_plus, dd) with phi_k(-h K) = f_plus I + dd (lam_plus I - K).

    f_plus = phi_k(-h lam_plus) and dd = (phi_k(-h lam_minus) - f_plus) /
    (lam_plus - lam_minus), the one confluent-safe divided difference; k = 0
    is the exponential. Where |h s| < 1e-3 the quotient cancels as the pair
    collides at |xi1| = a/2, so there dd is the symmetric expansion about
    z0 = -h a / 2: h (D1 + (h s)^2 / 24 * D3), with D1 and D3 the first and
    third derivatives of phi_k at z0 (phi_k' = phi_k - k phi_{k+1}). With no
    entry that close the quotient runs on the whole arrays, else each branch
    on the entries that need it. The eigenpair is formed on (xi1, a) before
    h is broadcast in, so a time axis does not repeat it.
    """
    a = np.asarray(a, dtype=float)
    s, lam_m, lam_p = _pair(xi1, a)
    h, s, lam_m, lam_p, a = np.broadcast_arrays(np.asarray(h, dtype=float), s, lam_m, lam_p, a)
    f_plus = _phi(k, -h * lam_p)
    near = np.abs(h * s) < _CONFLUENT_SWITCH
    if not near.any():
        return lam_m, lam_p, f_plus, (_phi(k, -h * lam_m) - f_plus) / s
    dd = np.empty(f_plus.shape, dtype=complex)
    far = ~near
    dd[far] = (_phi(k, -h[far] * lam_m[far]) - f_plus[far]) / s[far]
    hn, zn = h[near], h[near] * s[near]
    p = [_phi(k + i, -0.5 * hn * a[near]) for i in range(4)]
    d1 = p[0] - k * p[1]
    d3 = p[0] - 3 * k * p[1] + 3 * k * (k + 1) * p[2] - k * (k + 1) * (k + 2) * p[3]
    dd[near] = hn * (d1 + (zn * zn / 24.0) * d3)
    return lam_m, lam_p, f_plus, dd


def divided_difference(xi1, t):
    """(exp(-lam_minus t) - exp(-lam_plus t)) / (lam_plus - lam_minus), the
    k = 0 case of ``phi_split``; finite through the degenerate pair."""
    out = phi_split(0, xi1, t)[3]
    return complex(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class ModeSystem:
    """Eigen-system of the symbol at one wavenumber.

    The eigenvector of J for lam_sign in the slots of pair j is E_sign^j =
    (i xi1, -lam_other) there and zero elsewhere, and the analysis
    coefficient of a state u is the plain dot product u . E_sign^j.
    ``reconstruct`` sums those coefficients against the dual family, which
    is undefined exactly at xi1 in {0, +-1/2} and is flagged there.
    """

    xi1: float
    s: complex
    lam_minus: complex
    lam_plus: complex

    def reconstruct(self, u: np.ndarray) -> np.ndarray:
        """u as the sum of its four analysis coefficients u . E_sign^j times
        the dual vectors b_sign^j = sign (-i lam_sign, xi1) / (xi1 s).

        Closed form of that sum, per pair j with (x, y) = (u_j, u_{j+2}):
        c_pm = i xi1 x - lam_mp y, then x' = -i (lam_plus c_plus - lam_minus
        c_minus) / (xi1 s) and y' = (c_plus - c_minus) / s.
        """
        xi1, lam_m, lam_p = self.xi1, self.lam_minus, self.lam_plus
        if xi1 in (0.0, 0.5, -0.5):
            raise SingularBasisError(f"reconstruction vectors are undefined at xi1 = {xi1}")
        pref = 1.0 / (xi1 * self.s)
        ipref, xpref, ixi = -1j * pref, xi1 * pref, 1j * xi1
        v1, v2, b1, b2 = np.asarray(u, dtype=complex).tolist()
        cp1, cm1 = ixi * v1 - lam_m * b1, ixi * v1 - lam_p * b1
        cp2, cm2 = ixi * v2 - lam_m * b2, ixi * v2 - lam_p * b2
        return np.array([ipref * (lam_p * cp1 - lam_m * cm1), ipref * (lam_p * cp2 - lam_m * cm2),
                         xpref * (cp1 - cm1), xpref * (cp2 - cm2)], dtype=complex)


def mode_system(xi1: float) -> ModeSystem:
    """``ModeSystem`` at one wavenumber, in Python complex arithmetic: the
    same branch and Vieta form as ``eigenvalues`` without array dispatch."""
    x = float(xi1)
    s = cmath.sqrt(complex(1.0 - 4.0 * x * x))
    return ModeSystem(x, s, 2.0 * x * x / (1.0 + s), (1.0 + s) / 2.0)


def anisotropic_decompose(f, xi1, t, row: str):
    """Resonant/damped split of the pair-2 semigroup projected on a row.

    For row in {e2, e4} the projected semigroup splits as

        sum_gamma exp(-lam_gamma t) <f, a_gamma^2> <b_gamma^2, e_row>
            = resonant + damped,

    damped = exp(-lam_plus t) f_row, and the resonant part carries the
    divided difference, so both pieces stay finite at xi1 in {0, +-1/2}
    where the direct sum is 0/0. Vectorized over xi1.
    """
    if row not in (E2, E4):
        raise ValueError(f"row must be '{E2}' or '{E4}', got {row!r}")
    f = np.asarray(f, dtype=complex)
    if f.shape != (4,):
        raise ValueError(f"f must be a 4-vector, got shape {f.shape}")
    xi1 = np.asarray(xi1, dtype=float)
    _, lam_p, e_plus, dd = phi_split(0, xi1, t)
    res2, res4 = _resonant(f[1], f[3], xi1, lam_p, dd)
    if row == E2:
        return res2, e_plus * f[1]
    return res4, e_plus * f[3]


def _resonant(f2, f4, xi1, lam_p, dd):
    """Resonant parts of the e2 and e4 rows for components f2 = f[1] and
    f4 = f[3]; these broadcast against xi1, so a column of samples gives
    one row per sample."""
    coef_minus = 1j * xi1 * f2 - lam_p * f4
    return dd * (1j * xi1 / lam_p) * coef_minus, -dd * coef_minus


def classify_region(xi) -> int:
    """Strip index of a wavenumber: 1 for |xi1| >= 1/2, 2 for
    1/4 <= |xi1| < 1/2, 3 for |xi1| < 1/4.

    Boundaries go to the lower index, so 1/2 is region 1 and 1/4 region 2.
    Accepts a scalar xi1 or a 2-vector (xi1, xi2).
    """
    r1, r2, _ = region_masks(np.atleast_1d(np.asarray(xi, dtype=float)).ravel()[0])
    return 1 if r1 else 2 if r2 else 3


def region_masks(xi1):
    """Boolean masks (region1, region2, region3) for an array of xi1."""
    x = np.abs(np.asarray(xi1, dtype=float))
    r1 = x >= 0.5
    r2 = (x >= 0.25) & ~r1
    r3 = x < 0.25
    return r1, r2, r3


@dataclass(frozen=True)
class AuditRow:
    inequality: str
    xi1: float
    t: float
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.rhs > 0.0:
            return self.lhs / self.rhs
        return 0.0 if self.lhs == 0.0 else float("inf")


def _audit_arrays(fs, fnorm, xi1, t):
    """lhs/rhs arrays for all four inequalities over samples x xi1.

    Rows of ``fs`` are complex 4-vectors and ``fnorm`` their norms, a column;
    every array is (len(fs), len(xi1)) and comes from one ``phi_split`` at t.
    Returns a dict id -> (mask, lhs, rhs); masks, over xi1 only, select the
    strip each inequality is stated on. Right-hand sides carry constant 1.
    """
    xi1 = np.asarray(xi1, dtype=float)
    _, lam_p, _, dd = phi_split(0, xi1, t)
    f2, f4 = fs[:, 1:2], fs[:, 3:4]
    res2, res4 = _resonant(f2, f4, xi1, lam_p, dd)
    shape = res2.shape
    r1, r2, r3 = region_masks(xi1)
    abs2, abs4 = np.abs(res2), np.abs(res4)
    lhs_sum = abs2 + abs4
    rhs_quarter = np.exp(-t / 4.0) * fnorm
    # On the middle strip the slow rate is only lam_minus >= xi1^2 >= 1/16
    # (lam_minus(1/4) ~ 0.067, so an exp(-t/4) envelope is not attained
    # there), and the confluent quotient contributes at most a factor t.
    rhs_mid = (1.0 + t) * np.exp(-t / 16.0) * fnorm
    decay3 = np.exp(-(xi1**2) * t)
    rhs_e2 = decay3 * (xi1**2 * np.abs(f2) + np.abs(xi1) * np.abs(f4))
    rhs_e4 = decay3 * (np.abs(xi1) * np.abs(f2) + np.abs(f4))
    return {
        "omg1": (r1, lhs_sum, np.broadcast_to(rhs_quarter, shape)),
        "omg2": (r2, lhs_sum, np.broadcast_to(rhs_mid, shape)),
        "omg4": (r3, abs2, rhs_e2),
        "omg3": (r3, abs4, rhs_e4),
    }


def scan_lemma_bounds(xi1_values, times, n_samples=20, seed=0):
    """Max-ratio scan of the four decay inequalities.

    Draws ``n_samples`` complex 4-vectors from a seeded generator and sweeps
    them over a wavenumber grid and a time set. Ratios are only formed where
    the right-hand side is positive. Returns (summary, rows): summary maps
    inequality id to its worst ratio and where it occurred; rows hold the
    per-(inequality, t) maxima for reporting.
    """
    xi1_values = np.asarray(xi1_values, dtype=float)
    rng = np.random.default_rng(seed)
    fs = rng.standard_normal((n_samples, 4)) + 1j * rng.standard_normal((n_samples, 4))
    summary = {
        k: {"max_ratio": 0.0, "xi1": 0.0, "t": 0.0, "lhs": 0.0, "rhs": 0.0}
        for k in ("omg1", "omg2", "omg3", "omg4")
    }
    fnorm = np.array([np.linalg.norm(f) for f in fs])[:, None]
    best_rows: dict[tuple, AuditRow] = {}
    for t in times:
        data = _audit_arrays(fs, fnorm, xi1_values, float(t))
        for name, (mask, lhs, rhs) in data.items():
            ok = mask & (rhs > 0.0)
            if not np.any(ok):
                continue
            # off-strip entries can never win, even when every in-strip
            # ratio is 0; first maximum in sample-major order, as a loop over
            # samples that keeps only strict improvements would find it
            ratio = np.where(ok, lhs / np.where(ok, rhs, 1.0), -np.inf)
            n, i = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
            r = float(ratio[n, i])
            row = AuditRow(name, float(xi1_values[i]), float(t), float(lhs[n, i]),
                           float(rhs[n, i]))
            best_rows[(name, row.t)] = row
            if r > summary[name]["max_ratio"]:
                summary[name] = {"max_ratio": r, "xi1": row.xi1, "t": row.t,
                                 "lhs": row.lhs, "rhs": row.rhs}
    rows = [best_rows[k] for k in sorted(best_rows)]
    return summary, rows
