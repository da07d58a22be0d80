"""The one half-spectrum state check against a property-by-property oracle.

Each case builds a band-limited, exactly Hermitian state (or band stack)
and adds a single defect just under or just over ``STATE_RTOL`` max|u| of
its components or max|w| of its potentials. ``from_components``,
``validate``, ``_band`` and a run's sample (``sampled``) must then decide
exactly as ``reference.check_components``, ``check_state``, ``check_band``
and ``check_band_stack`` do, with the same exception type and message, so
the set of accepted states is the same. The oracles read the full spectrum
that ``reference.full_spectrum`` mirrors from a half spectrum, whose one
negative k2 column is the Nyquist column, wavenumber -n2/2.
"""

import numpy as np
import pytest

from mhd2d.errors import ConfigError, DiagnosticIntegrityError
from mhd2d.solver import _band, _sampled_components
from mhd2d.spectral import (
    STATE_RTOL,
    SpectralGrid,
    SpectralState,
    hermitian_defect,
    random_div_free_state,
)
from reference import (
    check_band,
    check_band_stack,
    check_components,
    check_state,
    gathered_hermitian_defect,
    scaled_random_state,
    traced_peak,
)

GRIDS = ((16, 16, 2.0 * np.pi, 2.0 * np.pi), (24, 30, 2.0 * np.pi, 3.0 * np.pi))
UNDER, OVER = 0.9, 1.1


def outcome(fn, *args):
    """("ok", result) or the raised check failure as (type, message)."""
    try:
        return "ok", fn(*args)
    except (ConfigError, DiagnosticIntegrityError) as exc:
        return type(exc), str(exc)


def same(got, want):
    if got[0] != "ok" or want[0] != "ok":
        return got == want
    a, b = got[1], want[1]
    if isinstance(a, tuple):  # sampled: components and the state or None
        return (np.array_equal(a[0], b[0])
                and (a[1] is None) == (b[1] is None)
                and (a[1] is None or np.array_equal(a[1].w, b[1].w)))
    if isinstance(a, SpectralState):
        return a.time == b.time and np.array_equal(a.w, b.w)
    return np.array_equal(a, b)


def sampled(g, w, time, kept):
    """A run's sample of its band stack, as ``run`` takes it: the checked
    components and, if ``kept``, the state it hands out, else None."""
    h = _sampled_components(g, w, time)
    return h, (SpectralState(g, w, time) if kept else None)


def divfree(g, k1, k2, amp):
    """A (v1, v2) pair along (xi2, -xi1) at row k1, column k2, whose larger
    component has modulus |amp|: it adds no divergence."""
    x1, x2 = g.xi1[k1, 0], g.half_xi2[0, k2]
    return amp * np.array([x2, -x1]) / max(abs(x1), abs(x2))


def level(a, f):
    return f * STATE_RTOL * np.max(np.abs(a))


# each defect acts on a state's components u, except those of ON_POTENTIALS,
# which act on its potentials w, where the 2/3 band is checked


def negative_column(g, u, f):
    # in the Nyquist column, the one negative k2 column a state holds,
    # unmirrored and divergence free: only the Hermitian pair compare sees it
    u[0:2, 3, g.n2 // 2] += divfree(g, 3, g.n2 // 2, level(u, f))


def k2_zero_column(g, u, f):
    # xi2 = 0 there, so a v2 entry adds no divergence
    u[1, 2, 0] += 1j * level(u, f)


def nyquist_column(g, u, f):
    u[0:2, 1, g.n2 // 2] += divfree(g, 1, g.n2 // 2, level(u, f))


def nyquist_self(g, u, f):
    # the (0, n2/2) mode is its own mirror: only an imaginary part is a defect
    u[0, 0, g.n2 // 2] += 0.5j * level(u, f)


def mean(g, u, f):
    u[0, 0, 0] = level(u, f)


def divergence_negative_column(g, u, f):
    # v1 alone at xi1 = 3: |div| = 3 |entry| against a Hermitian defect of
    # |entry|, a third of it; only the negative (Nyquist) column holds either
    assert g.xi1[3, 0] == 3.0
    u[0, 3, g.n2 // 2] += level(u, f) / 3.0


def band_negative_column(g, u, f):
    # an out-of-band pair in the negative (Nyquist) column, rows -1 and 1,
    # each divergence free, the row 1 member twice the other's size: with
    # |xi2| >= 3 |xi1| there, the Hermitian defect holds half the excess, and
    # the Nyquist column check, which no potential passes, sees all of it
    k2 = g.n2 // 2
    assert not g.half_dealias_mask[1, k2] and abs(g.half_xi2[0, k2]) >= 3.0 * g.xi1[1, 0]
    u[0:2, g.n1 - 1, k2] += divfree(g, g.n1 - 1, k2, level(u, f) / 2.0)
    u[0:2, 1, k2] += divfree(g, 1, k2, level(u, f))


def band_unmirrored(g, u, f):
    u[0:2, 2, g.n2 // 2] += divfree(g, 2, g.n2 // 2, level(u, f))


def band_row(g, w, f):
    # a dropped row of the potentials, mirrored by the half spectrum: only
    # the 2/3 band check sees it
    w[0, g.n1 // 2 - 1, 2] += level(w, f)


def nyquist_row(g, u, f):
    # divergence free at (n1/2, 2), but not its mirror (n1/2, -2), whose xi1
    # is the same -n1/2: only the divergence of the mirror sees it
    x1, x2 = g.xi1[g.n1 // 2, 0], g.half_xi2[0, 2]
    scale = max(abs(x1), abs(x2)) / (2.0 * abs(x1 * x2))
    u[0:2, g.n1 // 2, 2] += divfree(g, g.n1 // 2, 2, level(u, f) * scale)


def nan(g, u, f):
    u[2, 1, 2] = np.nan


def inf(g, u, f):
    u[3, 2, g.n2 // 2] = np.inf


ON_POTENTIALS = {band_row}

# each defect, and the property the first failed check names when it is over
DEFECTS = {
    negative_column: "Hermitian",
    k2_zero_column: "Hermitian",
    nyquist_column: "Hermitian",
    nyquist_self: "Hermitian",
    mean: "mean",
    divergence_negative_column: "divergence",
    band_negative_column: "Nyquist",
    band_unmirrored: "Hermitian",
    band_row: "dealias band",
    nyquist_row: "divergence",
    nan: "non-finite",
    inf: "non-finite",
}


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
@pytest.mark.parametrize("defect", DEFECTS, ids=lambda d: d.__name__)
@pytest.mark.parametrize("f", (UNDER, OVER), ids=("under", "over"))
def test_state_checks_decide_as_the_oracle(grid, defect, f):
    # a defect of the components meets from_components; one of the
    # potentials, validate(); either state then meets the run's entry _band
    g = SpectralGrid(*grid)
    st = scaled_random_state(g, sum(grid[:2]), 2.0)
    check_band(st, g)  # the clean state passes every check
    if defect in ON_POTENTIALS:
        defect(g, st.w, f)
        got_v, want_v = outcome(st.validate), outcome(check_state, st)
        built = st
    else:
        u = st.u.copy()
        defect(g, u, f)
        got_v = outcome(SpectralState.from_components, g, u)
        want_v = outcome(check_components, g, u)
        built = got_v[1]
        if np.all(np.isfinite(u)):
            assert hermitian_defect(g, u) == gathered_hermitian_defect(g, u)
    assert same(got_v, want_v), (got_v, want_v)
    got_b = want_b = got_v
    if got_v[0] == "ok":
        got_b, want_b = outcome(_band, built, g), outcome(check_band, built, g)
        assert same(got_b, want_b), (got_b, want_b)
    why = DEFECTS[defect]
    if f == OVER or why == "non-finite":
        assert got_b[0] is ConfigError and why in got_b[1]
        assert (got_v[0] == "ok") == (why == "dealias band")
    else:
        assert got_b[0] == "ok" and got_v[0] == "ok"


def test_validate_at_256_holds_about_one_magnitude_array():
    # one whole-array |u| (half the state's bytes, being float64) and, once it
    # is freed, the divergence's complex temporaries: 0.56 of the
    # half-spectrum state measured
    g = SpectralGrid(256, 256, 32.0 * np.pi, 32.0 * np.pi)
    st = random_div_free_state(g, seed=5)
    _, peak = traced_peak(st.validate)
    assert peak < 0.6 * st.w.nbytes, peak / st.w.nbytes
    # the four components' check holds |u| and the divergence's temporaries
    u = st.u.copy()
    _, peak = traced_peak(SpectralState.from_components, g, u)
    assert peak < 0.6 * u.nbytes + st.w.nbytes, (peak - st.w.nbytes) / u.nbytes


def stack_k2_zero_column(w, f):
    w[0, 2, 0] += 1j * f * STATE_RTOL * np.max(np.abs(w))


def stack_mean(w, f):
    w[1, 0, 0] = f * STATE_RTOL * np.max(np.abs(w))


def stack_nan(w, f):
    w[0, 1, 1] = np.nan


def stack_overflow(w, f):
    # finite, but not once multiplied by the band's largest |xi|
    w[1, 1, 1] = np.finfo(float).max


STACK_DEFECTS = {
    stack_k2_zero_column: "Hermitian",
    stack_mean: "mean",
    stack_nan: "overflows",
    stack_overflow: "overflows",
}


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
@pytest.mark.parametrize("defect", STACK_DEFECTS, ids=lambda d: d.__name__)
@pytest.mark.parametrize("f", (UNDER, OVER), ids=("under", "over"))
@pytest.mark.parametrize("kept", (False, True), ids=("unkept", "kept"))
def test_band_stack_check_decides_as_the_oracle(grid, defect, f, kept):
    g = SpectralGrid(*grid)
    w = random_div_free_state(g, seed=grid[0]).w[:, :, :g.band_cols].copy()
    defect(w, f)
    got = outcome(sampled, g, w, 0.5, kept)
    want = outcome(check_band_stack, g, w, 0.5, kept)
    assert same(got, want), (got, want)
    why = STACK_DEFECTS[defect]
    if f == OVER or why == "overflows":
        assert got[0] is DiagnosticIntegrityError and why in got[1]
    else:
        assert got[0] == "ok" and (got[1][1] is not None) == kept


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
def test_divergence_is_read_on_the_negative_columns(grid):
    # a Hermitian defect just under the tolerance, in the one negative column
    # a state holds (Nyquist, k2 = -n2/2), with three times as much
    # divergence: a divergence inferred from the mirror row would pass it
    g = SpectralGrid(*grid)
    u = scaled_random_state(g, grid[1], 2.0).u.copy()
    u[0, 3, g.n2 // 2] += level(u, 0.99)
    assert hermitian_defect(g, u) < STATE_RTOL * np.max(np.abs(u))
    with pytest.raises(ConfigError, match="divergence"):
        SpectralState.from_components(g, u)
