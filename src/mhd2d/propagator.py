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

from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError
from .modes import eigenvalues, phi_split
from .quadrature import refine_integral


def phi_block_entries(k: int, xi1, h, a=1.0, coupling_sign: int = 1):
    """Vectorized entries (p11, p12, p22) of phi_k(-h K), K = [[a, c], [c, 0]]
    with c = coupling_sign * i * xi1; k = 0 gives exp(-h K). p11 and p12
    are built in f_plus and dd, so at most four arrays live at once."""
    lam_m, lam_p, f_plus, dd = phi_split(k, xi1, h, a)
    # 0-d arrays in place of numpy scalars, which take no out=
    f_plus, dd, p22 = np.asarray(f_plus), np.asarray(dd), np.asarray(lam_p * dd)
    np.add(f_plus, p22, out=p22)
    np.subtract(f_plus, lam_m * dd, out=f_plus)
    np.multiply(-coupling_sign * 1j * np.asarray(xi1), dd, out=dd)
    return f_plus, dd, p22


def exp_block_entries(xi1, t):
    """Vectorized entries of exp(-t K), K = [[1, i xi1], [i xi1, 0]]:
    ``phi_block_entries`` with k = 0."""
    return phi_block_entries(0, xi1, t)


def propagator_block(xi1: float, t: float) -> np.ndarray:
    """exp(-t K) for K = [[1, i xi1], [i xi1, 0]] as a 2x2 complex array.

    Exact for all xi1 including the degenerate pair at |xi1| = 1/2; at
    xi1 = 0 it reduces to diag(exp(-t), 1).
    """
    p11, p12, p22 = exp_block_entries(float(xi1), float(t))
    return np.array([[p11, p12], [p12, p22]], dtype=complex)


def grid_phi_entries(k: int, grid, h: float, *, kappa=1.0, alpha=0.0, coupling=True):
    """phi_k(-h K) entries on a grid's band, in its transform orientation.

    The grid transform uses the exp(-i xi . x) kernel while the analysis
    blocks are written for exp(+i xi . x); the two are mirror images in
    xi1, so the grid applies the block family with the opposite coupling
    sign. Diagonal entries are provably real (the eigenvalue pair is real
    or complex conjugate), so they are realified to keep Hermitian symmetry
    of states exact. The tables are the stepper's own C-contiguous arrays,
    each in the shape of what it depends on: with alpha = 0 the block
    depends on xi1 alone, so a table is an (n1, 1) row table, evaluated once
    per row (once without coupling), that broadcasts over the band columns
    in ``apply_block_entries``; with alpha != 0 it depends on the band's
    |xi|^2, and a table is an (n1, grid.band_cols) band array. Either way
    it depends on xi1 only through xi1^2, and p12 is odd in xi1, so only
    the rows k1 = 0 .. n1/2 are evaluated (the Nyquist row n1/2 directly)
    and the rows of -k1 are copied from those of k1, p12 negated when
    coupling is on. That is exact: xi1^2 and the eigenpair come out the
    same to the bit for +-xi1, and negation is exact.
    Each table is a fresh writable array that shares memory with no other.
    """
    n1 = grid.n1
    cols = grid.band_cols if alpha != 0.0 else 1
    rows = n1 // 2 + 1
    a = kappa * grid.half_xi_sq[:rows, :cols] ** alpha if alpha != 0.0 else kappa
    xi1 = grid.xi1[:rows] if coupling else 0.0
    p11, p12, p22 = phi_block_entries(k, xi1, h, a, coupling_sign=-1)
    tables = []
    for e, odd in ((np.real(p11), False), (1j * np.imag(p12), coupling), (np.real(p22), False)):
        out = np.empty((n1, cols), dtype=np.result_type(e))
        out[:rows] = e
        mirror = out[rows - 2:0:-1]
        out[rows:] = -mirror if odd else mirror
        tables.append(out)
    return tuple(tables)


def grid_semigroup_entries(grid, t: float, *, kappa=1.0, alpha=0.0, coupling=True):
    """exp(-t K) entries over a grid: ``grid_phi_entries`` with k = 0."""
    return grid_phi_entries(0, grid, t, kappa=kappa, alpha=alpha, coupling=coupling)


def apply_block_entries(u: np.ndarray, entries) -> np.ndarray:
    """Apply per-mode 2x2 entries to the pairs (u[i], u[k + i]), k = len(u) // 2.

    The pairs are (v_j, B_j) for a four-component state array and (psi, a)
    for a potential stack; the block is the same for each. The entries
    broadcast against a pair, so (n1, 1) row tables serve every column.
    Besides the output, one temporary holds p12 B, then p22 B.
    """
    p11, p12, p22 = entries
    k = len(u) // 2
    v, B = u[:k], u[k:]
    out = np.empty_like(u)
    np.multiply(p11, v, out=out[:k])
    tmp = p12 * B
    out[:k] += tmp
    np.multiply(p12, v, out=out[k:])
    out[k:] += np.multiply(p22, B, out=tmp)
    return out


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
    return float(out) if out.ndim == 0 else out


class ProfileData(NamedTuple):
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


def build_profile(kind: str) -> ProfileData:
    """Construct one of the built-in profiles.

    ``fstar``: scalar sigma(|xi1|) times a truncated Gaussian in xi2.
    ``prop25``: the divergence-free rotational data sigma sigma (xi2, -xi1,
    xi2, -xi1).
    """
    s = sigma_cutoff
    if kind == "fstar":
        return ProfileData(
            kind, 0.25, 0.25,
            scalar1=s,
            scalar2=lambda x2: np.exp(-8.0 * np.asarray(x2, dtype=float) ** 2) * s(x2),
        )
    if kind == "prop25":
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
    raise ConfigError(f"unknown profile kind {kind!r}")


class DecayCurve(NamedTuple):
    """Norm values along a time grid for one weighted quantity."""

    label: str
    times: np.ndarray
    values: np.ndarray


_COMPONENT_ROW = {"v1": ("v", 1), "v2": ("v", 2), "B1": ("B", 1), "B2": ("B", 2)}


def linear_decay_curve(profile: ProfileData, weight, times):
    """Continuous-wavenumber L2 curve of the linearly evolved profile.

    ``weight`` is a component name in {v1, v2, B1, B2} (evolves the matching
    pair through the exponential block) or a nonnegative integer j (the
    xi1^j-weighted norm of exp(-lam_minus t) * scalar profile); a tuple of
    weights, all checked first, gives a list of curves in its order. Values
    are exact up to the quadrature tolerance; all component weights share
    one xi1 integral refined toward zero, the j weights another, each xi2
    factor is integrated once, and every entry converges on its own.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(times < 0.0) or np.any(np.diff(times) <= 0):
        raise ConfigError("times must be a strictly increasing 1d array of t >= 0")
    weights = weight if isinstance(weight, tuple) else (weight,)
    for w in weights:
        if not isinstance(w, str):
            if int(w) < 0 or int(w) != w:
                raise ConfigError(f"weight must be a component name or integer j >= 0, got {w!r}")
        elif w not in _COMPONENT_ROW:
            raise ConfigError(f"unknown component weight {w!r}")
        elif profile.pairs is None:
            raise ConfigError(f"profile kind {profile.kind!r} has no vector components")
    comps = [_COMPONENT_ROW[w] for w in weights if isinstance(w, str)]
    js = [int(w) for w in weights if not isinstance(w, str)]

    # a panel's stack is filled in place once its block is formed, and one w
    # serves every row, so few (times, nodes) arrays live at once
    def components(x1):
        p11, p12, p22 = exp_block_entries(x1, times[:, None])
        f = {j: (profile.pairs[j][0](x1), profile.pairs[j][1](x1)) for _, j in comps}
        out, w = np.empty((len(comps),) + p11.shape), np.empty_like(p11)
        for o, (row, j) in zip(out, comps):
            (pv, pB), (fv, fB) = (p11, p12) if row == "v" else (p12, p22), f[j]
            np.multiply(pv, fv, out=w)
            w += pB * fB
            np.square(np.abs(w, out=o), out=o)
        return out

    def moments(x1):
        base = np.abs(np.exp(-eigenvalues(x1)[0] * times[:, None]) * profile.scalar1(x1)) ** 2
        out = np.empty((len(js),) + base.shape)
        for o, j in zip(out, js):
            np.multiply(x1 ** (2 * j), base, out=o)
        return out

    c_sums = iter(refine_integral(components, 0.0, profile.support1) if comps else ())
    j_sums = iter(refine_integral(moments, 0.0, profile.support1) if js else ())
    c2, curves = {}, []
    for w in weights:
        g = profile.pairs[_COMPONENT_ROW[w][1]][2] if isinstance(w, str) else profile.scalar2
        if g not in c2:
            c2[g] = 2.0 * refine_integral(lambda x2: np.abs(g(x2)) ** 2, 0.0, profile.support2)
        label, x1_sum = (w, next(c_sums)) if isinstance(w, str) else (f"j{int(w)}", next(j_sums))
        curves.append(DecayCurve(label, times, np.sqrt(c2[g] * 2.0 * x1_sum)))
    return curves if isinstance(weight, tuple) else curves[0]
