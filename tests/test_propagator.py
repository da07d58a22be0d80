"""Closed-form semigroup blocks, Duhamel weights, profiles, decay curves."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from mhd2d import propagator, quadrature
from mhd2d.errors import ConfigError, QuadratureError
from mhd2d.modes import eigenvalues, phi_split
from mhd2d.propagator import (
    apply_block_entries,
    build_profile,
    exp_block_entries,
    grid_phi_entries,
    grid_semigroup_entries,
    linear_decay_curve,
    phi_block_entries,
    propagator_block,
    sigma_cutoff,
)
from mhd2d.quadrature import refine_integral
from mhd2d.spectral import SpectralGrid, random_div_free_state
from reference import apply_semigroup, profile_vector, spectral_derivative, traced_peak

TWO_PI = 2.0 * np.pi

XI1_SAMPLES = [0.0, 1e-8, 0.1, 0.25, 0.5 - 1e-7, 0.5, 0.5 + 1e-7, 0.7, 1.0, 2.5, -0.3, -0.5]
T_SAMPLES = [0.0, 0.01, 0.5, 3.0, 25.0]
# |s| = |sqrt(1 - 4 xi1^2)| from 2e-4 to 5e-2, real and imaginary, so that
# |h s| falls on both sides of the confluent switch at 1e-3
SWITCH_BAND_XI1 = [0.5 * math.sqrt(1.0 + sign * s * s)
                   for s in (2e-4, 1e-3, 2e-3, 1e-2, 5e-2) for sign in (-1.0, 1.0)]


def analysis_block(xi1):
    c = 1j * xi1
    return np.array([[1.0, c], [c, 0.0]], dtype=complex)


def test_block_matches_matrix_exponential():
    for x in XI1_SAMPLES + SWITCH_BAND_XI1:
        K = analysis_block(x)
        for t in T_SAMPLES:
            got = propagator_block(x, t)
            ref = scipy.linalg.expm(-t * K)
            assert np.max(np.abs(got - ref)) < 1e-12, (x, t)


def test_block_semigroup_property():
    for x in (0.2, 0.5, 1.3):
        p_s = propagator_block(x, 0.6)
        p_t = propagator_block(x, 1.7)
        p_st = propagator_block(x, 2.3)
        assert np.max(np.abs(p_s @ p_t - p_st)) < 1e-13
    assert np.max(np.abs(propagator_block(0.37, 0.0) - np.eye(2))) == 0.0


def test_phi1_block_integral_identity():
    # -t K phi1(-t K) = exp(-t K) - I
    for x in XI1_SAMPLES:
        K = analysis_block(x)
        for t in (0.05, 1.0, 7.0):
            p11, p12, p22 = phi_block_entries(1, x, t)
            lhs = -t * K @ np.array([[p11, p12], [p12, p22]])
            rhs = propagator_block(x, t) - np.eye(2)
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, t), (x, t)


def test_phi_blocks_match_augmented_exponential():
    # expm([[A, I, 0], [0, 0, I], [0, 0, 0]]) packs phi1(A), phi2(A) in the
    # first block row
    for x in XI1_SAMPLES + SWITCH_BAND_XI1:
        for h in (0.02, 0.8, 5.0):
            A = -h * analysis_block(x)
            M = np.zeros((6, 6), dtype=complex)
            M[:2, :2] = A
            M[:2, 2:4] = np.eye(2)
            M[2:4, 4:6] = np.eye(2)
            E = scipy.linalg.expm(M)
            for k, ref in ((1, E[:2, 2:4]), (2, E[:2, 4:6])):
                p11, p12, p22 = phi_block_entries(k, x, h)
                got = np.array([[p11, p12], [p12, p22]])
                assert np.max(np.abs(got - ref)) < 1e-11, (x, h, k)


def test_phi_entries_at_degenerate_point_are_smooth():
    # series branch must join the direct quotient continuously in xi1
    for k in (1, 2):
        left = phi_block_entries(k, 0.5 - 5e-6, 0.1)
        mid = phi_block_entries(k, 0.5, 0.1)
        right = phi_block_entries(k, 0.5 + 5e-6, 0.1)
        for a, b, c in zip(left, mid, right):
            assert abs(a - b) < 1e-6 and abs(c - b) < 1e-6


def test_block_entries_are_built_in_place():
    # p22 first, then p11 in f_plus and p12 in dd, each operation on the
    # operands of p11 = f_plus - lam_m dd, p12 = -c i xi1 dd, p22 = f_plus +
    # lam_p dd in that order: the same bits, for arrays and for scalars
    times = np.geomspace(1.0, 1.0e4, 161)
    panel = np.linspace(0.0, 3.0, 64)
    x = np.concatenate([panel, SWITCH_BAND_XI1[:4]])
    for k, xi1, h, a, sign in ((0, x, times[:, None], 1.0, 1), (2, x[:, None], 0.05,
                               np.linspace(0.0, 2.0, 30), -1), (1, 0.5 + 1e-7, 0.1, 1.0, 1)):
        lam_m, lam_p, f, dd = phi_split(k, xi1, h, a)
        want = (f - lam_m * dd, -sign * 1j * np.asarray(xi1) * dd, f + lam_p * dd)
        for got, ref in zip(phi_block_entries(k, xi1, h, a, coupling_sign=sign), want):
            assert np.shape(got) == np.shape(ref)
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), k
    # a decay curve's panel of 64 nodes off the confluent band, (161, 64)
    # entries: 4.8 arrays of their size at the peak (6.0 when p11, p12 and a
    # temporary were arrays of their own). One component curve at the
    # command's 161 times peaks at 1.06 MB, where its rows hold the three
    # entries, w, p B and a numpy cast buffer
    entries, peak = traced_peak(exp_block_entries, panel, times[:, None], warm=1)
    assert peak <= 5.0 * entries[0].nbytes, peak / entries[0].nbytes
    _, peak = traced_peak(linear_decay_curve, build_profile("prop25"), "v1", times, warm=1)
    assert peak <= 1.1e6, peak


def band_oracle(grid, k, h, kappa=1.0, alpha=0.0, coupling=True):
    """phi_k(-h K) entries evaluated on every band mode, with no row mirror
    and no row tables: what the tables broadcast to over the band."""
    shape = (grid.n1, grid.band_cols)
    xi_sq = grid.half_xi_sq[:, :grid.band_cols]
    a = kappa * xi_sq**alpha if alpha != 0.0 else np.full(shape, kappa)
    xi1 = np.broadcast_to(grid.xi1, shape) if coupling else np.zeros(shape)
    p11, p12, p22 = phi_block_entries(k, xi1, h, a, coupling_sign=-1)
    return np.real(p11), 1j * np.imag(p12), np.real(p22)


def test_grid_entries_preserve_state_structure():
    g = SpectralGrid(32, 32, TWO_PI, TWO_PI)
    p11, p12, p22 = grid_semigroup_entries(g, 0.7)
    assert np.isrealobj(p11) and np.isrealobj(p22)
    # the stepper applies the tables as returned: alpha = 0 row tables, which
    # broadcast over its band columns
    assert all(e.shape == (32, 1) and e.flags.c_contiguous for e in (p11, p12, p22))
    for got, want in zip((p11, p12, p22), band_oracle(g, 0, 0.7)):
        assert np.array_equal(np.broadcast_to(got, want.shape), want)
    assert np.max(np.abs(np.real(p12))) == 0.0
    st = random_div_free_state(g, seed=0)
    out = apply_semigroup(st, 0.7)
    out.validate()  # Hermitian symmetry, zero mean, both divergences
    assert out.time == pytest.approx(0.7)


def test_grid_entries_match_elementwise_exponential():
    g = SpectralGrid(8, 8, TWO_PI, 4.0)
    for kappa, alpha in ((1.0, 0.0), (2.0, 0.5), (0.5, 1.0)):
        tables = grid_semigroup_entries(g, 0.9, kappa=kappa, alpha=alpha)
        assert all(e.shape == (8, 3 if alpha else 1) for e in tables)
        p11, p12, p22 = (np.broadcast_to(e, (8, 3)) for e in tables)
        for i in (0, 1, 3, 4, 5):  # 4 is the Nyquist row
            for j in (0, 1, 2):  # the band columns k2 < 8/3
                a = kappa * (g.xi1[i, 0] ** 2 + g.half_xi2[0, j] ** 2) ** alpha
                K = np.array([[a, -1j * g.xi1[i, 0]], [-1j * g.xi1[i, 0], 0.0]])
                ref = scipy.linalg.expm(-0.9 * K)
                got = np.array([[p11[i, j], p12[i, j]], [p12[i, j], p22[i, j]]])
                assert np.max(np.abs(got - ref)) < 1e-12, (kappa, alpha, i, j)


def test_grid_orientation_against_ode():
    # spectral coefficients of the grid follow u' = [[-a, i xi1], [i xi1, 0]] u
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    rng = np.random.default_rng(5)
    for i, j in ((1, 2), (3, 0), (15, 5)):  # (k1, k2) = (1, 2), (3, 0), (-1, 5)
        xi1 = g.xi1[i, 0]
        y0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)

        def rhs(t, y, xi1=xi1):
            return [-y[0] + 1j * xi1 * y[1], 1j * xi1 * y[0]]

        sol = scipy.integrate.solve_ivp(rhs, (0.0, 1.3), y0, rtol=1e-12, atol=1e-14)
        tables = grid_semigroup_entries(g, 1.3)
        assert all(e.shape == (16, 1) for e in tables)  # rows, broadcast over k2
        p11, p12, p22 = (np.broadcast_to(e, (16, g.band_cols)) for e in tables)
        got_v = p11[i, j] * y0[0] + p12[i, j] * y0[1]
        got_b = p12[i, j] * y0[0] + p22[i, j] * y0[1]
        assert abs(got_v - sol.y[0, -1]) < 1e-9
        assert abs(got_b - sol.y[1, -1]) < 1e-9


def test_semigroup_derivative_matches_pde():
    # (4 P(h) - P(2h) - 3 I) u / 2h -> -v + d1 B, d1 v rows
    g = SpectralGrid(24, 24, TWO_PI, TWO_PI)
    st = random_div_free_state(g, seed=7)
    h = 1e-4
    u1 = apply_semigroup(st, h).u
    u2 = apply_semigroup(st, 2 * h).u
    dot = (4.0 * u1 - u2 - 3.0 * st.u) / (2.0 * h)
    d1 = spectral_derivative(g, st.u, 1)
    expect = np.empty_like(st.u)
    expect[0] = -st.u[0] + d1[2]
    expect[1] = -st.u[1] + d1[3]
    expect[2] = d1[0]
    expect[3] = d1[1]
    assert np.max(np.abs(dot - expect)) < 1e-6 * np.max(np.abs(st.u))


def test_apply_semigroup_time_handling():
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    st = random_div_free_state(g, seed=1)
    same = apply_semigroup(st, 0.0)
    assert same is not st and np.array_equal(same.u, st.u)
    with pytest.raises(ConfigError):
        apply_semigroup(st, -0.1)
    two_step = apply_semigroup(apply_semigroup(st, 0.4), 0.8)
    one_step = apply_semigroup(st, 1.2)
    assert np.max(np.abs(two_step.u - one_step.u)) < 1e-13 * np.max(np.abs(st.u))
    assert two_step.time == pytest.approx(1.2)


def test_decoupled_entries_damp_velocity_only():
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    p11, p12, p22 = grid_semigroup_entries(g, 2.0, coupling=False)
    assert np.max(np.abs(p12)) == 0.0
    assert np.allclose(p11, np.exp(-2.0), rtol=1e-14)
    assert np.allclose(p22, 1.0, rtol=1e-14)
    k1, k2, k3 = grid_phi_entries(1, g, 2.0, coupling=False)
    assert np.max(np.abs(k2)) == 0.0
    assert np.allclose(k1, (1.0 - np.exp(-2.0)) / 2.0, rtol=1e-13)
    assert np.allclose(k3, 1.0, rtol=1e-13)


@pytest.mark.parametrize("alpha", (0.0, 0.5))
@pytest.mark.parametrize("coupling", (True, False))
@pytest.mark.parametrize("k", (0, 1, 2))
def test_grid_tables_are_fresh_writable_arrays(k, coupling, alpha):
    # with alpha != 0 the off-diagonal entry already has the band's shape, so a
    # broadcast of it is contiguous and would come back as the read-only view;
    # with alpha = 0 each table is one column of rows, which broadcasts
    g = SpectralGrid(24, 30, TWO_PI, 3.0 * np.pi)
    tables = grid_phi_entries(k, g, 0.05, alpha=alpha, coupling=coupling)
    for e, want in zip(tables, band_oracle(g, k, 0.05, alpha=alpha, coupling=coupling)):
        assert e.flags.writeable and e.flags.c_contiguous and e.flags.owndata
        assert e.shape == (g.n1, g.band_cols if alpha else 1)
        assert np.array_equal(np.broadcast_to(e, want.shape), want)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        assert not np.shares_memory(tables[a], tables[b])


def test_apply_block_entries_acts_on_both_pairs():
    g = SpectralGrid(8, 8, TWO_PI, TWO_PI)
    u = np.zeros((4, 8, 3), dtype=complex)  # on the band columns, as the tables
    u[0, 1, 1] = 1.0  # v1
    u[3, 2, 2] = 1.0  # B2
    p11, p12, p22 = grid_semigroup_entries(g, 0.5)
    assert p11.shape == (8, 1)  # row tables, broadcast over the columns
    out = apply_block_entries(u, (p11, p12, p22))
    assert out[0, 1, 1] == p11[1, 0]
    assert out[2, 1, 1] == p12[1, 0]
    assert out[3, 2, 2] == p22[2, 0]
    assert out[1, 2, 2] == p12[2, 0]
    band = tuple(np.ascontiguousarray(np.broadcast_to(e, (8, 3))) for e in (p11, p12, p22))
    assert np.array_equal(out, apply_block_entries(u, band))


def test_sigma_cutoff_shape():
    assert sigma_cutoff(0.0) == pytest.approx(1.0)
    assert sigma_cutoff(0.25) == 0.0
    assert sigma_cutoff(-0.3) == 0.0
    r = np.linspace(-0.3, 0.3, 101)
    vals = sigma_cutoff(r)
    assert np.all(vals >= 0.0) and np.max(vals) == pytest.approx(1.0)
    assert np.all(vals[np.abs(r) >= 0.25] == 0.0)
    assert np.array_equal(vals, sigma_cutoff(-r))


def test_build_profile_guards():
    with pytest.raises(ConfigError):
        build_profile("nope")
    prof = build_profile("fstar")
    assert prof.scalar1(0.0) == pytest.approx(1.0)
    assert prof.pairs is None
    with pytest.raises(ConfigError):
        profile_vector(prof, np.array([0.1]), np.array([0.1]))


def test_rotational_profile_is_divergence_free():
    prof = build_profile("prop25")
    xi1 = np.linspace(-0.24, 0.24, 33)[:, None]
    xi2 = np.linspace(-0.24, 0.24, 29)[None, :]
    f = profile_vector(prof, xi1, xi2)
    div_v = xi1 * f[0] + xi2 * f[1]
    div_b = xi1 * f[2] + xi2 * f[3]
    assert np.max(np.abs(div_v)) < 1e-14
    assert np.max(np.abs(div_b)) < 1e-14
    # v and B coincide for this construction
    assert np.array_equal(f[0], f[2]) and np.array_equal(f[1], f[3])
    assert np.max(np.abs(profile_vector(prof, np.array([0.3]), np.array([0.0])))) == 0.0


def test_decay_curve_initial_value_against_quad():
    prof = build_profile("prop25")
    curve = linear_decay_curve(prof, "v1", np.array([1e-9]))
    i1, _ = scipy.integrate.quad(lambda x: sigma_cutoff(x) ** 2, 0.0, 0.25)
    i2, _ = scipy.integrate.quad(lambda x: (x * sigma_cutoff(x)) ** 2, 0.0, 0.25)
    expect = math.sqrt((2.0 * i2) * (2.0 * i1))
    assert curve.values[0] == pytest.approx(expect, rel=1e-7)


def test_decay_curve_weighted_tail_slope():
    prof = build_profile("fstar")
    times = np.geomspace(1e3, 1e4, 5)
    curve = linear_decay_curve(prof, 0, times)
    assert np.all(np.diff(curve.values) < 0.0)
    slope = np.polyfit(np.log(times), np.log(curve.values), 1)[0]
    assert slope == pytest.approx(-0.25, abs=0.02)
    curve1 = linear_decay_curve(prof, 1, times)
    slope1 = np.polyfit(np.log(times), np.log(curve1.values), 1)[0]
    assert slope1 == pytest.approx(-0.75, abs=0.02)


def test_decay_curve_input_checks():
    prof = build_profile("prop25")
    with pytest.raises(ConfigError):
        linear_decay_curve(prof, "v3", np.array([1.0]))
    with pytest.raises(ConfigError):
        linear_decay_curve(prof, -1, np.array([1.0]))
    with pytest.raises(ConfigError):
        linear_decay_curve(prof, 1.5, np.array([1.0]))
    with pytest.raises(ConfigError):
        linear_decay_curve(prof, 0, np.array([2.0, 1.0]))
    with pytest.raises(ConfigError):
        linear_decay_curve(build_profile("fstar"), "v1", np.array([1.0]))


def test_stored_gauss_legendre_rule_is_numpys():
    # the rule is stored as its mirrored positive half; it must be numpy's
    # 64-point rule to the bit, or every decay curve moves
    x, w = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(quadrature._GL_X, x)
    assert np.array_equal(quadrature._GL_W, w)


def test_refine_integral_smooth_and_singular(monkeypatch):
    assert refine_integral(lambda x: x**3, 0.0, 1.0) == pytest.approx(0.25, rel=1e-12)
    assert refine_integral(np.sin, 0.0, np.pi) == pytest.approx(2.0, rel=1e-10)
    # outer panels are never split, so the oscillation must fit 64 nodes
    osc = refine_integral(lambda x: np.sin(8.0 * x) ** 2, 0.0, TWO_PI)
    assert osc == pytest.approx(np.pi, rel=1e-9)
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 64)
    sing = refine_integral(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert sing == pytest.approx(2.0, rel=1e-5)


def test_refine_integral_divergent_raises():
    with pytest.raises(QuadratureError) as info:
        refine_integral(lambda x: 1.0 / x, 0.0, 1.0)
    err = info.value
    assert err.depth == 48
    assert err.value > 30.0  # ~ depth * ln 2
    assert err.last_delta > 0.1
    with pytest.raises(QuadratureError):
        refine_integral(lambda x: x, 1.0, 1.0)


def test_refine_integral_vector_entries_match_scalar_calls(monkeypatch):
    # entries converge at different depths: the large-t rows need the
    # deepest refinement toward 0
    rates = np.geomspace(1e-2, 1e4, 13)
    stacked = refine_integral(lambda x: np.exp(-rates[:, None] * x), 0.0, 1.0)
    assert stacked.shape == rates.shape
    for r, got in zip(rates, stacked):
        assert got == refine_integral(lambda x, r=r: np.exp(-r * x), 0.0, 1.0), r
    # x^p with an endpoint singularity keeps moving after it converges, so
    # an entry frozen late would differ from its scalar call
    powers = np.array([-0.5, -0.25, 0.5, 1.5])
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 64)
    singular = refine_integral(lambda x: x ** powers[:, None], 0.0, 1.0)
    for p, got in zip(powers, singular):
        assert got == refine_integral(lambda x, p=p: x**p, 0.0, 1.0), p
    grid = refine_integral(lambda x: np.exp(-rates.reshape(13, 1, 1) * x[None, :]
                                            * np.array([1.0, 2.0])[:, None]), 0.0, 1.0)
    assert grid.shape == (13, 2)
    assert np.array_equal(grid[:, 0], stacked)


def test_refine_integral_vector_with_divergent_entry_raises():
    def rows(x):
        return np.stack([np.exp(-x), 1.0 / x, np.cos(x)])

    with pytest.raises(QuadratureError) as info:
        refine_integral(rows, 0.0, 1.0)
    assert info.value.depth == 48
    assert info.value.value.shape == (3,)


def _per_time_curve(profile, weight, times):
    """The decay curve as one scalar integral per time."""
    if isinstance(weight, str):
        row, j = {"v1": ("v", 1), "v2": ("v", 2), "B1": ("B", 1), "B2": ("B", 2)}[weight]
        fv, fB, g = profile.pairs[j]
        c2 = 2.0 * refine_integral(lambda x2: np.abs(g(x2)) ** 2, 0.0, profile.support2)

        def integrand(x1, t):
            p11, p12, p22 = exp_block_entries(x1, t)
            w = p11 * fv(x1) + p12 * fB(x1) if row == "v" else p12 * fv(x1) + p22 * fB(x1)
            return np.abs(w) ** 2
    else:
        c2 = 2.0 * refine_integral(lambda x2: np.abs(profile.scalar2(x2)) ** 2, 0.0,
                                   profile.support2)

        def integrand(x1, t):
            lam_m, _ = eigenvalues(x1)
            return x1 ** (2 * weight) * np.abs(np.exp(-lam_m * t) * profile.scalar1(x1)) ** 2
    return np.array([
        math.sqrt(c2 * 2.0 * refine_integral(lambda x1, t=t: integrand(x1, t), 0.0,
                                             profile.support1))
        for t in times
    ])


def _counted_integrals(monkeypatch):
    calls = []

    def counted(f, *args, **kwargs):
        calls.append(f)
        return refine_integral(f, *args, **kwargs)

    monkeypatch.setattr(propagator, "refine_integral", counted)
    return calls


@pytest.mark.parametrize("count", [9, 161])
def test_decay_curve_is_one_batched_integral(monkeypatch, count):
    # the benchmark counts panels through the name propagator.refine_integral;
    # a curve must go through it once for all its times plus once for xi2
    calls = _counted_integrals(monkeypatch)
    prof = build_profile("prop25")
    times = np.geomspace(1.0, 1.0e4, count)
    for weight in ("v1", "v2", "B1", "B2", 0, 1, 2):
        calls.clear()
        curve = linear_decay_curve(prof, weight, times)
        assert len(calls) == 2, weight
        assert np.array_equal(curve.values, _per_time_curve(prof, weight, times)), weight


@pytest.mark.parametrize("kind, weights", [
    ("prop25", ("v1", "v2", "B1", "B2", 0, 1, 2)),
    ("prop25", (2, "B2", 0, "v1")),
    ("prop25", ("v2", 1, "v2", 1)),
    ("fstar", (0, 1, 2)),
    ("fstar", (1,)),
])
def test_stacked_decay_curves_match_per_time_integrals(kind, weights):
    # every curve of a tuple call is each of its times integrated alone,
    # whatever the order, mix or repetition of the weights
    prof = build_profile(kind)
    times = np.geomspace(1.0, 1.0e4, 23)
    curves = linear_decay_curve(prof, weights, times)
    assert isinstance(curves, list) and len(curves) == len(weights)
    for weight, curve in zip(weights, curves):
        assert curve.label == (weight if isinstance(weight, str) else f"j{weight}")
        assert np.array_equal(curve.times, times)
        assert np.array_equal(curve.values, _per_time_curve(prof, weight, times)), weight


def test_stacked_decay_curves_share_their_integrals(monkeypatch):
    # one xi1 integral per kind of weight and one per distinct xi2 factor;
    # in prop25 the xi2 factor of pair 2 and the scalar one are both sigma
    calls = _counted_integrals(monkeypatch)
    times = np.geomspace(1.0, 1.0e4, 9)
    prop25, fstar = build_profile("prop25"), build_profile("fstar")
    assert prop25.pairs[2][2] is prop25.scalar2
    linear_decay_curve(prop25, ("v1", "v2", "B1", "B2", 0, 1, 2), times)
    assert len(calls) == 4
    calls.clear()
    linear_decay_curve(prop25, ("v1", "B1"), times)
    assert len(calls) == 2
    calls.clear()
    linear_decay_curve(fstar, (0, 1, 2), times)
    assert len(calls) == 2
    calls.clear()
    assert linear_decay_curve(prop25, (), times) == []
    assert calls == []


@pytest.mark.parametrize("weights, profile", [
    (("v1", 0, "v3"), "prop25"),
    ((0, "B1", -1), "prop25"),
    (("v2", 1.5), "prop25"),
    ((0, 1, "v1"), "fstar"),
])
def test_stacked_decay_curves_check_every_weight_first(monkeypatch, weights, profile):
    calls = _counted_integrals(monkeypatch)
    with pytest.raises(ConfigError):
        linear_decay_curve(build_profile(profile), weights, np.array([1.0, 2.0]))
    assert calls == []
