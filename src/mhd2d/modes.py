"""Normal modes of the damped-wave symbol.

Per wavenumber the linearized system decouples into two identical 2x2 blocks
acting on (v_j, B_j); the 4x4 symbol J has the double characteristic
polynomial (lam^2 - lam + xi1^2)^2. This module owns the eigenvalues,
eigen/reconstruction vectors, the one confluent-safe divided difference of
phi_k over the eigenvalue pair (k = 0 is the exponential), the
resonant/damped splitting of the semigroup acting on the second row pair,
and the region-wise decay-bound audit built on it.

All formulas here live in the analysis orientation of the transform
(kernel exp(+i xi . x)); grid-facing code mirrors the sign of xi1, see
``propagator.grid_phi_entries``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularBasisError

E2 = "e2"
E4 = "e4"

_PHI_SERIES_RADIUS = 2.5
_PHI_SERIES_TERMS = 48
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


def eigenvalues(xi1, a=1.0):
    """Eigenvalue pair (lam_minus, lam_plus) of the 2x2 block.

    lam_pm = (a +- sqrt(a^2 - 4 xi1^2)) / 2. The minus branch is evaluated
    as 2 xi1^2 / (a + s), which is exact by Vieta and avoids cancellation
    for small xi1.
    """
    _, lam_minus, lam_plus = _pair(xi1, a)
    if np.ndim(lam_minus) == 0:
        return complex(lam_minus), complex(lam_plus)
    return lam_minus, lam_plus


def _phi(k: int, z) -> np.ndarray:
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


def phi_split(k: int, xi1, h, a=1.0):
    """(lam_minus, lam_plus, f_plus, dd) with phi_k(-h K) = f_plus I + dd (lam_plus I - K).

    f_plus = phi_k(-h lam_plus) and dd = (phi_k(-h lam_minus) - f_plus) /
    (lam_plus - lam_minus), the one confluent-safe divided difference; k = 0
    is the exponential. Where |h s| < 1e-3 the quotient cancels as the pair
    collides at |xi1| = a/2, so there dd is the symmetric expansion about
    z0 = -h a / 2: h (D1 + (h s)^2 / 24 * D3), with D1 and D3 the first and
    third derivatives of phi_k at z0 (phi_k' = phi_k - k phi_{k+1}). Each
    branch runs only on the entries that need it.
    """
    xi1, h, a = np.broadcast_arrays(np.asarray(xi1, dtype=float), np.asarray(h, dtype=float),
                                    np.asarray(a, dtype=float))
    s, lam_m, lam_p = _pair(xi1, a)
    f_plus = _phi(k, -h * lam_p)
    dd = np.empty(f_plus.shape, dtype=complex)
    near = np.abs(h * s) < _CONFLUENT_SWITCH
    far = ~near
    dd[far] = (_phi(k, -h[far] * lam_m[far]) - f_plus[far]) / s[far]
    if near.any():
        hn, zn = h[near], h[near] * s[near]
        p = [_phi(k + i, -0.5 * hn * a[near]) for i in range(4)]
        d1 = p[0] - k * p[1]
        d3 = p[0] - 3 * k * p[1] + 3 * k * (k + 1) * p[2] - k * (k + 1) * (k + 2) * p[3]
        dd[near] = hn * (d1 + (zn * zn / 24.0) * d3)
    return lam_m, lam_p, f_plus, dd


def divided_difference(xi1, t, a=1.0):
    """(exp(-lam_minus t) - exp(-lam_plus t)) / (lam_plus - lam_minus), the
    k = 0 case of ``phi_split``; finite through the degenerate pair."""
    out = phi_split(0, xi1, t, a)[3]
    if np.ndim(out) == 0:
        return complex(out)
    return out


def symbol_matrix(xi1: float) -> np.ndarray:
    """The 4x4 symbol J of the linear system, analysis orientation."""
    c = 1j * xi1
    return np.array(
        [
            [1.0, 0.0, c, 0.0],
            [0.0, 1.0, 0.0, c],
            [c, 0.0, 0.0, 0.0],
            [0.0, c, 0.0, 0.0],
        ],
        dtype=complex,
    )


_DEGENERATE = (0.0, 0.5, -0.5)


@dataclass(frozen=True)
class ModeSystem:
    """Eigen-system of the symbol at one wavenumber.

    ``eigenvector(sign, j)`` returns the vector E with J E = lam_sign E;
    analysis coefficients of a state u are plain dot products u . E.
    ``recon_vector(sign, j)`` returns the dual vector b so that
    u = sum over (sign, j) of (u . E_sign^j) b_sign^j. The b family is
    undefined exactly at xi1 in {0, +-1/2} and is flagged there.
    """

    xi1: float
    s: complex
    lam_minus: complex
    lam_plus: complex

    @property
    def degenerate(self) -> bool:
        return self.xi1 in _DEGENERATE

    def _lam(self, sign: int) -> complex:
        return self.lam_plus if sign > 0 else self.lam_minus

    def eigenvector(self, sign: int, j: int) -> np.ndarray:
        """E_sign^j: (i xi1, 0, -lam_other, 0) in the slots of pair j."""
        lam_other = self._lam(-sign)
        out = np.zeros(4, dtype=complex)
        out[j - 1] = 1j * self.xi1
        out[j + 1] = -lam_other
        return out

    def recon_vector(self, sign: int, j: int) -> np.ndarray:
        if self.degenerate:
            raise SingularBasisError(
                f"reconstruction vectors are undefined at xi1 = {self.xi1}"
            )
        lam = self._lam(sign)
        pref = 1.0 / (self.xi1 * self.s)
        out = np.zeros(4, dtype=complex)
        out[j - 1] = -1j * np.sign(sign) * lam * pref
        out[j + 1] = np.sign(sign) * self.xi1 * pref
        return out

    def coefficient(self, u: np.ndarray, sign: int, j: int) -> complex:
        return complex(np.dot(np.asarray(u, dtype=complex), self.eigenvector(sign, j)))

    def reconstruct(self, u: np.ndarray) -> np.ndarray:
        """Sum of coefficient * recon_vector over all four mode labels."""
        u = np.asarray(u, dtype=complex)
        out = np.zeros(4, dtype=complex)
        for sign in (+1, -1):
            for j in (1, 2):
                out += self.coefficient(u, sign, j) * self.recon_vector(sign, j)
        return out


def mode_system(xi1: float) -> ModeSystem:
    s, lam_m, lam_p = _pair(xi1, 1.0)
    return ModeSystem(float(xi1), complex(s), complex(lam_m), complex(lam_p))


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
    coef_minus = 1j * xi1 * f[1] - lam_p * f[3]
    if row == E2:
        resonant = dd * (1j * xi1 / lam_p) * coef_minus
        damped = e_plus * f[1]
    else:
        resonant = -dd * coef_minus
        damped = e_plus * f[3]
    return resonant, damped


def classify_region(xi) -> int:
    """Strip index of a wavenumber: 1 for |xi1| >= 1/2, 2 for
    1/4 <= |xi1| < 1/2, 3 for |xi1| < 1/4.

    Boundaries go to the lower index, so 1/2 is region 1 and 1/4 region 2.
    Accepts a scalar xi1 or a 2-vector (xi1, xi2).
    """
    arr = np.atleast_1d(np.asarray(xi, dtype=float)).ravel()
    x = abs(float(arr[0]))
    if x >= 0.5:
        return 1
    if x >= 0.25:
        return 2
    return 3


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


def _audit_arrays(f, xi1, t):
    """lhs/rhs arrays for all four inequalities over an xi1 array.

    Returns a dict id -> (mask, lhs, rhs); masks select the strip each
    inequality is stated on. Right-hand sides carry constant 1.
    """
    f = np.asarray(f, dtype=complex)
    xi1 = np.asarray(xi1, dtype=float)
    res2, _ = anisotropic_decompose(f, xi1, t, E2)
    res4, _ = anisotropic_decompose(f, xi1, t, E4)
    r1, r2, r3 = region_masks(xi1)
    fnorm = float(np.linalg.norm(f))
    lhs_sum = np.abs(res2) + np.abs(res4)
    rhs_quarter = np.exp(-t / 4.0) * fnorm
    # On the middle strip the slow rate is only lam_minus >= xi1^2 >= 1/16
    # (lam_minus(1/4) ~ 0.067, so an exp(-t/4) envelope is not attained
    # there), and the confluent quotient contributes at most a factor t.
    rhs_mid = (1.0 + t) * np.exp(-t / 16.0) * fnorm
    decay3 = np.exp(-(xi1**2) * t)
    rhs_e2 = decay3 * (xi1**2 * np.abs(f[1]) + np.abs(xi1) * np.abs(f[3]))
    rhs_e4 = decay3 * (np.abs(xi1) * np.abs(f[1]) + np.abs(f[3]))
    return {
        "omg1": (r1, lhs_sum, np.broadcast_to(rhs_quarter, xi1.shape)),
        "omg2": (r2, lhs_sum, np.broadcast_to(rhs_mid, xi1.shape)),
        "omg4": (r3, np.abs(res2), rhs_e2),
        "omg3": (r3, np.abs(res4), rhs_e4),
    }


def lemma_bounds_audit(f, xi, t) -> list:
    """Audit rows for a single (f, wavenumber, t).

    Region 1 and 2 each contribute one combined-row inequality; region 3
    contributes the e2 row (omg4) and the e4 row (omg3).
    """
    arr = np.atleast_1d(np.asarray(xi, dtype=float)).ravel()
    xi1 = float(arr[0])
    region = classify_region(xi1)
    data = _audit_arrays(f, np.asarray([xi1]), float(t))
    wanted = {1: ("omg1",), 2: ("omg2",), 3: ("omg4", "omg3")}[region]
    rows = []
    for name in wanted:
        _, lhs, rhs = data[name]
        rows.append(AuditRow(name, xi1, float(t), float(lhs[0]), float(rhs[0])))
    return rows


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
    best_rows: dict[tuple, AuditRow] = {}
    for t in times:
        for f in fs:
            data = _audit_arrays(f, xi1_values, float(t))
            for name, (mask, lhs, rhs) in data.items():
                ok = mask & (rhs > 0.0)
                if not np.any(ok):
                    continue
                ratio = np.where(ok, lhs / np.where(ok, rhs, 1.0), 0.0)
                i = int(np.argmax(ratio))
                r = float(ratio[i])
                key = (name, float(t))
                if key not in best_rows or r > best_rows[key].ratio:
                    best_rows[key] = AuditRow(
                        name, float(xi1_values[i]), float(t), float(lhs[i]), float(rhs[i])
                    )
                if r > summary[name]["max_ratio"]:
                    summary[name] = {
                        "max_ratio": r,
                        "xi1": float(xi1_values[i]),
                        "t": float(t),
                        "lhs": float(lhs[i]),
                        "rhs": float(rhs[i]),
                    }
    rows = [best_rows[k] for k in sorted(best_rows)]
    return summary, rows
