"""The one half-spectrum state check against a property-by-property oracle.

Each case builds a band-limited, exactly Hermitian state (or band stack)
and adds a single defect just under or just over ``STATE_RTOL`` max|w| of
its potentials, the only way into a state. ``validate``, ``_band`` and a
run's sample (``sampled``) must then decide exactly as
``reference.check_state``, ``check_band`` and ``check_band_stack`` do,
with the same exception type and message, so the set of accepted states
is the same. The oracles read the full spectrum
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
    return np.array_equal(a, b)


def sampled(g, w, time, kept):
    """A run's sample of its band stack, as ``run`` takes it: the checked
    components and, if ``kept``, the state a trajectory builds from the
    stack, else None."""
    h = _sampled_components(g, w, time)
    return h, (SpectralState(g, w, time) if kept else None)


def level(a, f):
    return f * STATE_RTOL * np.max(np.abs(a))


# each defect acts on a state's potentials w


def negative_column(g, w, f):
    # in the Nyquist column, the one negative k2 column a state holds,
    # unmirrored: only the Hermitian pair compare sees it
    w[1, 3, g.n2 // 2] += level(w, f)


def k2_zero_column(g, w, f):
    w[1, 2, 0] += 1j * level(w, f)


def nyquist_column(g, w, f):
    w[0, 1, g.n2 // 2] += level(w, f)


def nyquist_self(g, w, f):
    # the (0, n2/2) mode is its own mirror: only an imaginary part is a defect
    w[0, 0, g.n2 // 2] += 0.5j * level(w, f)


def mean(g, w, f):
    w[0, 0, 0] = level(w, f)


def band_negative_column(g, w, f):
    # a mirrored pair in the negative (Nyquist) column, rows 1 and -1, outside
    # the band: Hermitian, so only the 2/3 band check sees it
    k2, amp = g.n2 // 2, level(w, f)
    assert not g.half_dealias_mask[1, k2]
    w[1, [1, g.n1 - 1], k2] += amp


def band_unmirrored(g, w, f):
    # outside the band and unmirrored: the Hermitian compare comes first
    w[0, 2, g.n2 // 2] += level(w, f)


def band_row(g, w, f):
    # a dropped row of the potentials, mirrored by the half spectrum: only
    # the 2/3 band check sees it
    w[0, g.n1 // 2 - 1, 2] += level(w, f)


def nyquist_row(g, w, f):
    # the Nyquist row of the potentials, which the curl map drops, at an
    # interior column, which the half spectrum mirrors: only the 2/3 band
    # check sees it
    w[0, g.n1 // 2, 2] += level(w, f)


def nan(g, w, f):
    w[1, 1, 2] = np.nan


def inf(g, w, f):
    w[1, 2, g.n2 // 2] = np.inf


# each defect, and the property the first failed check names when it is over
DEFECTS = {
    negative_column: "Hermitian",
    k2_zero_column: "Hermitian",
    nyquist_column: "Hermitian",
    nyquist_self: "Hermitian",
    mean: "mean",
    band_negative_column: "dealias band",
    band_unmirrored: "Hermitian",
    band_row: "dealias band",
    nyquist_row: "dealias band",
    nan: "non-finite",
    inf: "non-finite",
}


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
@pytest.mark.parametrize("defect", DEFECTS, ids=lambda d: d.__name__)
@pytest.mark.parametrize("f", (UNDER, OVER), ids=("under", "over"))
def test_state_checks_decide_as_the_oracle(grid, defect, f):
    # a defect of the potentials meets validate(); a state that passes it
    # then meets the run's entry _band
    g = SpectralGrid(*grid)
    st = scaled_random_state(g, sum(grid[:2]), 2.0)
    check_band(st, g)  # the clean state passes every check
    defect(g, st.w, f)
    got_v, want_v = outcome(st.validate), outcome(check_state, st)
    if np.all(np.isfinite(st.w)):
        assert hermitian_defect(g, st.w) == gathered_hermitian_defect(g, st.w)
    assert same(got_v, want_v), (got_v, want_v)
    got_b = want_b = got_v
    if got_v[0] == "ok":
        got_b, want_b = outcome(_band, st, g), outcome(check_band, st, g)
        assert same(got_b, want_b), (got_b, want_b)
    why = DEFECTS[defect]
    if f == OVER or why == "non-finite":
        assert got_b[0] is ConfigError and why in got_b[1]
        assert (got_v[0] == "ok") == (why == "dealias band")
    else:
        assert got_b[0] == "ok" and got_v[0] == "ok"


def test_validate_at_256_holds_about_one_magnitude_array():
    # one whole-array |w|, half the state's bytes, being float64: 0.50 of
    # the state measured
    g = SpectralGrid(256, 256, 32.0 * np.pi, 32.0 * np.pi)
    st = random_div_free_state(g, seed=5)
    _, peak = traced_peak(st.validate)
    assert peak < 0.6 * st.w.nbytes, peak / st.w.nbytes


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
