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

# one rule and one refinement schedule serve every decay curve and audit:
# the 64-point Gauss-Legendre rule, np.polynomial.legendre.leggauss(64), whose
# nodes are exactly antisymmetric and weights exactly symmetric, from its 32
# positive nodes and their weights (repr-exact), so importing the package
# neither imports numpy.polynomial nor calls LAPACK
_GL_X_POS = np.array([
    0.02435029266342443, 0.07299312178779904, 0.12146281929612054, 0.16964442042399283,
    0.21742364374000708, 0.2646871622087674, 0.31132287199021097, 0.3572201583376681,
    0.4022701579639916, 0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
    0.571895646202634, 0.6111553551723933, 0.6489654712546573, 0.6852363130542333,
    0.7198818501716109, 0.7528199072605319, 0.7839723589433414, 0.8132653151227975,
    0.8406292962525803, 0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538, 0.973326827789911,
    0.983336253884626, 0.9910133714767443, 0.9963401167719552, 0.9993050417357722,
])
_GL_W_POS = np.array([
    0.048690957009139814, 0.04857546744150351, 0.048344762234802996,
    0.04799938859645842, 0.04754016571483042, 0.046968182816210076, 0.04628479658131447,
    0.045491627927418184, 0.044590558163756566, 0.04358372452932355,
    0.04247351512365361, 0.041262563242623576, 0.039953741132720544,
    0.03855015317861564, 0.03705512854024009, 0.0354722132568823, 0.033805161837141794,
    0.032057928354851495, 0.030234657072402554, 0.028339672614259535,
    0.02637746971505491, 0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
    0.017951715775697284, 0.01572603047602503, 0.01346304789671786,
    0.011168139460131028, 0.008846759826363397, 0.006504457968978502,
    0.004147033260564499, 0.00178328072169414,
])
_GL_X = np.concatenate([-_GL_X_POS[::-1], _GL_X_POS])
_GL_W = np.concatenate([_GL_W_POS[::-1], _GL_W_POS])
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
