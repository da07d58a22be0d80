"""Composite Gauss-Legendre quadrature with dyadic refinement toward zero.

The decay-curve integrands concentrate at the small-|xi1| end as t grows, so
panels are refined dyadically toward the lower endpoint: at depth d the
panels are [lo, lo+w/2^d] and the rings [lo+w/2^i, lo+w/2^(i-1)]. Each
refinement step only splits the innermost panel, so deepening is cheap.
Convergence is declared after two successive refinements agree to the
relative tolerance, separately for each entry of a stacked integrand.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

# one rule and one refinement schedule serve every decay curve and audit
_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)
_REL_TOL = 1e-8
_START_DEPTH = 5


def _panel(f, a: float, b: float):
    half = 0.5 * (b - a)
    xs = a + half * (_GL_X + 1.0)
    return half * np.sum(_GL_W * f(xs), axis=-1)


def refine_integral(f, lo: float, hi: float, *, max_depth: int = 48):
    """Integrate a vectorized callable over [lo, hi], refined toward lo.

    Each panel is a 64-point Gauss-Legendre rule: ``f`` maps the nodes x,
    shape (64,), to values of shape (..., 64). A scalar integrand returns a
    float, a stacked one an array of its leading shape. Every entry keeps
    its own agreement count and freezes its value at its own second
    agreement, so each entry equals a scalar call on that entry alone.
    Refinement starts at depth 5. Raises ``QuadratureError`` if any entry's
    two successive refinements never agree to 1e-8 relative before
    ``max_depth``.
    """
    if not (hi > lo):
        raise QuadratureError(f"empty integration interval [{lo}, {hi}]")
    w = hi - lo
    rings = [
        _panel(f, lo + w / 2.0**i, lo + w / 2.0 ** (i - 1))
        for i in range(_START_DEPTH, 0, -1)
    ]
    inner = _panel(f, lo, lo + w / 2.0**_START_DEPTH)
    value = inner + sum(rings)
    depth = _START_DEPTH
    agreements = np.zeros(np.shape(value), dtype=int)
    done = np.zeros(np.shape(value), dtype=bool)
    result = np.full(np.shape(value), np.nan)
    delta = np.inf
    while depth < max_depth:
        depth += 1
        new_ring = _panel(f, lo + w / 2.0**depth, lo + w / 2.0 ** (depth - 1))
        new_inner = _panel(f, lo, lo + w / 2.0**depth)
        new_value = value - inner + new_ring + new_inner
        delta = np.abs(new_value - value)
        scale = np.maximum(np.abs(new_value), 1e-300)
        value, inner = new_value, new_inner
        agreements = np.where(delta <= _REL_TOL * scale, agreements + 1, 0)
        newly = (agreements >= 2) & ~done
        result = np.where(newly, value, result)
        done |= newly
        if done.all():
            return _plain(result)
    raise QuadratureError(
        f"panel refinement did not converge by depth {max_depth}",
        value=_plain(value),
        last_delta=_plain(delta),
        depth=depth,
    )


def _plain(x):
    """A 0-d result as a Python float, anything else as an array."""
    return float(x) if np.ndim(x) == 0 else x
