"""Exact semigroup of the linear system and its Duhamel weights.

The 4x4 symbol splits into two identical 2x2 blocks K = [[a, c], [c, 0]]
coupling (v_j, B_j), with a the damping symbol and c = +- i xi1 depending on
transform orientation. All matrix functions used here come from the spectral
split

    f(K) = f(lam_plus) I + df * (lam_plus I - K),
    df = (f(lam_minus) - f(lam_plus)) / (lam_plus - lam_minus),

evaluated for f = phi_k(-h .) by ``modes.phi_split``: the exponential block
(k = 0), the phi1/phi2 Duhamel blocks and their grid-wide forms all share
its one confluent-safe divided difference.

This module also owns the compactly supported spectral profiles and the
continuous-wavenumber decay curves evaluated by adaptive panel quadrature;
those are the reference against which periodic-grid results are compared
(a finite box departs from the free-space rates once t exceeds roughly
(l / 2 pi)^2, so the quadrature path is the authority for decay exponents).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .modes import eigenvalues, phi_split
from .quadrature import refine_integral
from .spectral import SpectralState


def phi_block_entries(k: int, xi1, h, a=1.0, coupling_sign: int = 1):
    """Vectorized entries (p11, p12, p22) of phi_k(-h K), K = [[a, c], [c, 0]]
    with c = coupling_sign * i * xi1; k = 0 gives exp(-h K)."""
    lam_m, lam_p, f_plus, dd = phi_split(k, xi1, h, a)
    p11 = f_plus - lam_m * dd
    p12 = -coupling_sign * 1j * np.asarray(xi1) * dd
    p22 = f_plus + lam_p * dd
    return p11, p12, p22


def exp_block_entries(xi1, t, a=1.0, coupling_sign: int = 1):
    """Vectorized entries of exp(-t K): ``phi_block_entries`` with k = 0."""
    return phi_block_entries(0, xi1, t, a, coupling_sign)


def propagator_block(xi1: float, t: float) -> np.ndarray:
    """exp(-t K) for K = [[1, i xi1], [i xi1, 0]] as a 2x2 complex array.

    Exact for all xi1 including the degenerate pair at |xi1| = 1/2; at
    xi1 = 0 it reduces to diag(exp(-t), 1).
    """
    p11, p12, p22 = exp_block_entries(float(xi1), float(t))
    return np.array([[p11, p12], [p12, p22]], dtype=complex)


def phi1_block(xi1: float, dt: float) -> np.ndarray:
    """phi1(-dt K) = (1/dt) * integral of exp(-(dt - tau) K) over [0, dt]."""
    if not (dt > 0.0):
        raise ConfigError(f"dt must be positive, got {dt}")
    p11, p12, p22 = phi_block_entries(1, float(xi1), float(dt))
    return np.array([[p11, p12], [p12, p22]], dtype=complex)


def grid_phi_entries(k: int, grid, h: float, *, kappa=1.0, alpha=0.0, coupling=True):
    """phi_k(-h K) entries over a grid, in the grid's transform orientation.

    The grid transform uses the exp(-i xi . x) kernel while the analysis
    blocks are written for exp(+i xi . x); the two are mirror images in
    xi1, so the grid applies the block family with the opposite coupling
    sign. Diagonal entries are provably real (the eigenvalue pair is real
    or complex conjugate), so they are realified to keep Hermitian symmetry
    of states exact.
    """
    a = kappa * grid.xi_sq**alpha if alpha != 0.0 else np.full(grid.shape, kappa)
    xi1 = np.broadcast_to(grid.xi1, grid.shape) if coupling else np.zeros(grid.shape)
    p11, p12, p22 = phi_block_entries(k, xi1, h, a, coupling_sign=-1)
    return np.real(p11), 1j * np.imag(p12), np.real(p22)


def grid_semigroup_entries(grid, t: float, *, kappa=1.0, alpha=0.0, coupling=True):
    """exp(-t K) entries over a grid: ``grid_phi_entries`` with k = 0."""
    return grid_phi_entries(0, grid, t, kappa=kappa, alpha=alpha, coupling=coupling)


def apply_block_entries(u: np.ndarray, entries) -> np.ndarray:
    """Apply per-mode 2x2 entries to both (v_j, B_j) pairs of a state array."""
    p11, p12, p22 = entries
    out = np.empty_like(u)
    for j in range(2):
        v, B = u[j], u[j + 2]
        out[j] = p11 * v + p12 * B
        out[j + 2] = p12 * v + p22 * B
    return out


def apply_semigroup(state: SpectralState, t: float) -> SpectralState:
    """Advance a state by the exact linear flow for time t >= 0."""
    if t < 0.0:
        raise ConfigError(f"t must be nonnegative, got {t}")
    if t == 0.0:
        return state.copy()
    entries = grid_semigroup_entries(state.grid, t)
    return SpectralState(state.grid, apply_block_entries(state.u, entries), state.time + t)


# ---------------------------------------------------------------------------
# compactly supported profiles and continuous-wavenumber decay curves


def sigma_cutoff(r):
    """Smooth bump: exp(1 - 1/(1 - (4r)^2)) for |r| < 1/4, zero outside.

    Equals 1 at r = 0 and vanishes with all derivatives at |r| = 1/4.
    """
    r = np.abs(np.asarray(r, dtype=float))
    out = np.zeros(r.shape)
    inside = r < 0.25
    x = 4.0 * r[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - x * x))
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ProfileData:
    """Separable spectral profile.

    ``scalar1 * scalar2`` is the scalar amplitude used by j-weighted norms.
    ``pairs`` (when present) maps pair index j in {1, 2} to callables
    (f_v, f_B, g) so that component pair j of the initial data is
    (f_v(xi1) g(xi2), f_B(xi1) g(xi2)). All factors must have even absolute
    value in their argument; supports are half-widths and integration is
    restricted to them.
    """

    kind: str
    support1: float
    support2: float
    scalar1: Callable
    scalar2: Callable
    pairs: Optional[dict] = None

    def vector_at(self, xi1, xi2) -> np.ndarray:
        """Sample the four components on a wavenumber grid (pairs required)."""
        if self.pairs is None:
            raise ConfigError(f"profile kind {self.kind!r} has no vector structure")
        xi1 = np.asarray(xi1, dtype=float)
        xi2 = np.asarray(xi2, dtype=float)
        shape = np.broadcast_shapes(xi1.shape, xi2.shape)
        out = np.zeros((4,) + shape, dtype=complex)
        for j in (1, 2):
            fv, fB, g = self.pairs[j]
            out[j - 1] = fv(xi1) * g(xi2)
            out[j + 1] = fB(xi1) * g(xi2)
        return out


def build_profile(kind: str, *, phi=None, varphi=None, scalar1=None, scalar2=None,
                  pairs=None, support1=0.25, support2=0.25) -> ProfileData:
    """Construct one of the built-in profiles or wrap custom callables.

    ``fstar``: scalar phi(xi1) sigma(|xi1|) times a truncated Gaussian in
    xi2; phi defaults to 1 and must not vanish at 0. ``prop25``: the
    divergence-free rotational data sigma sigma (xi2, -xi1, xi2, -xi1).
    ``custom``: caller-supplied factors.
    """
    if kind == "fstar":
        phi_fn = phi if phi is not None else (lambda x: np.ones_like(np.asarray(x, dtype=float)))
        if abs(complex(np.asarray(phi_fn(np.asarray(0.0))))) == 0.0:
            raise ConfigError("fstar requires |phi(0)| > 0")
        vp = varphi if varphi is not None else (
            lambda x2: np.exp(-8.0 * np.asarray(x2, dtype=float) ** 2) * sigma_cutoff(x2)
        )
        return ProfileData(
            kind, 0.25, 0.25,
            scalar1=lambda x1: phi_fn(x1) * sigma_cutoff(x1),
            scalar2=vp,
        )
    if kind == "prop25":
        s = sigma_cutoff
        return ProfileData(
            kind, 0.25, 0.25,
            scalar1=s,
            scalar2=s,
            pairs={
                1: (s, s, lambda x2: np.asarray(x2, dtype=float) * s(x2)),
                2: (lambda x1: -np.asarray(x1, dtype=float) * s(x1),
                    lambda x1: -np.asarray(x1, dtype=float) * s(x1),
                    s),
            },
        )
    if kind == "custom":
        if scalar1 is None or scalar2 is None:
            raise ConfigError("custom profiles need scalar1 and scalar2")
        return ProfileData(kind, support1, support2, scalar1, scalar2, pairs)
    raise ConfigError(f"unknown profile kind {kind!r}")


@dataclass(frozen=True)
class DecayCurve:
    """Norm values along a time grid for one weighted quantity."""

    label: str
    times: np.ndarray
    values: np.ndarray


_COMPONENT_ROW = {"v1": ("v", 1), "v2": ("v", 2), "B1": ("B", 1), "B2": ("B", 2)}


def linear_decay_curve(profile: ProfileData, weight, times) -> DecayCurve:
    """Continuous-wavenumber L2 curve of the linearly evolved profile.

    ``weight`` is a component name in {v1, v2, B1, B2} (evolves the matching
    pair through the exponential block) or a nonnegative integer j (the
    xi1^j-weighted norm of exp(-lam_minus t) * scalar profile). Values are
    exact up to the quadrature tolerance; the xi1 integrals use dyadic
    refinement toward zero where the large-t mass concentrates.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(times < 0.0) or np.any(np.diff(times) <= 0):
        raise ConfigError("times must be a strictly increasing 1d array of t >= 0")

    if isinstance(weight, str):
        if weight not in _COMPONENT_ROW:
            raise ConfigError(f"unknown component weight {weight!r}")
        if profile.pairs is None:
            raise ConfigError(f"profile kind {profile.kind!r} has no vector components")
        row, j = _COMPONENT_ROW[weight]
        fv, fB, g = profile.pairs[j]
        c2 = 2.0 * refine_integral(lambda x2: np.abs(g(x2)) ** 2, 0.0, profile.support2)
        values = np.empty(times.shape)
        for i, t in enumerate(times):
            def integrand(x1, t=t):
                p11, p12, p22 = exp_block_entries(x1, t)
                w = p11 * fv(x1) + p12 * fB(x1) if row == "v" else p12 * fv(x1) + p22 * fB(x1)
                return np.abs(w) ** 2
            values[i] = math.sqrt(c2 * 2.0 * refine_integral(integrand, 0.0, profile.support1))
        return DecayCurve(weight, times, values)

    j = int(weight)
    if j < 0 or j != weight:
        raise ConfigError(f"weight must be a component name or integer j >= 0, got {weight!r}")
    c2 = 2.0 * refine_integral(lambda x2: np.abs(profile.scalar2(x2)) ** 2, 0.0, profile.support2)
    values = np.empty(times.shape)
    for i, t in enumerate(times):
        def integrand(x1, t=t):
            lam_m, _ = eigenvalues(x1)
            return x1 ** (2 * j) * np.abs(np.exp(-lam_m * t) * profile.scalar1(x1)) ** 2
        values[i] = math.sqrt(c2 * 2.0 * refine_integral(integrand, 0.0, profile.support1))
    return DecayCurve(f"j{j}", times, values)
