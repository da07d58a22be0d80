"""Energy functionals, audits, decay fits, and embedding scans."""

import numpy as np
import pytest
import scipy.integrate

from mhd2d.diagnostics import (
    CSV_COLUMNS,
    anisotropic_norm,
    cumulative,
    em_inequality_audit,
    energy,
    fit_decay,
    gaussian_divfree_family,
    instantaneous,
    interpolation_audit,
    physical_l1_norm,
    single_mode_state,
    xm_embedding_scan,
)
from mhd2d.errors import (
    AuditInapplicableError,
    AuditResolutionError,
    ConfigError,
    FitDomainError,
    IncompleteHistoryError,
)
from mhd2d.propagator import DecayCurve
from mhd2d.solver import SolverConfig, run
from mhd2d.spectral import SpectralGrid, SpectralState, random_div_free_state
from reference import (
    coordinates,
    fourier_l1_audit,
    from_physical,
    multi_index_weight,
    scaled_random_state,
)

TWO_PI = 2.0 * np.pi


def test_zero_state_record():
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    rec = instantaneous(g, SpectralState.zeros(g).u, 4)
    for c in CSV_COLUMNS:
        assert getattr(rec, c) == 0.0, c
    assert len(rec.csv_row()) == len(CSV_COLUMNS)


def test_instantaneous_m_validation():
    # the record, the X^m norm and E all take their weights through one check
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    st = random_div_free_state(g, seed=0)
    band = st.u[:, :, : g.band_cols]
    for m in (0, -1, 2.5, float("nan"), float("inf"), True):
        for quantity, args in ((instantaneous, (g, st.u)), (anisotropic_norm, (st,)),
                               (energy, (g, band))):
            with pytest.raises(ConfigError, match="m must be a positive integer"):
                quantity(*args, m)


def test_integral_float_m_is_the_integer_m():
    # m = 4.0 passes the integer check and must then act as m = 4, not reach
    # range() as a float
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    st = random_div_free_state(g, seed=0)
    assert instantaneous(g, st.u, 2.0) == instantaneous(g, st.u, 2)
    assert np.array_equal(multi_index_weight(g, 2.0), multi_index_weight(g, 2))
    base = dict(n1=16, n2=16, dt=0.05, t_end=0.1, data_kind="random", seed=3)
    as_float = SolverConfig(m=4.0, **base)
    assert type(as_float.m) is int
    assert run(as_float).records == run(SolverConfig(m=4, **base)).records
    with pytest.raises(ConfigError):
        SolverConfig(m=2.5, **base)
    with pytest.raises(ConfigError):
        multi_index_weight(g, 2.5)


def test_cross_term_closed_form():
    # stream functions cos(x1+x2) for v and sin(x1+x2) for B give
    # A = -4 pi^2 at order m = 1 on the 2 pi box
    g = SpectralGrid(32, 32, TWO_PI, TWO_PI)
    x1, x2 = coordinates(g)
    th = x1 + x2
    v1, v2 = np.sin(th) * np.ones(g.shape), -np.sin(th) * np.ones(g.shape)
    b1, b2 = -np.cos(th) * np.ones(g.shape), np.cos(th) * np.ones(g.shape)
    rec = instantaneous(g, from_physical(g, np.stack([v1, v2, b1, b2])), 1)
    assert rec.A == pytest.approx(-4.0 * np.pi**2, rel=1e-12)
    assert rec.E**2 == pytest.approx(24.0 * np.pi**2, rel=1e-12)
    assert abs(rec.A) <= 0.5 * rec.E**2
    # pointwise sups of these closed forms
    assert rec.sup_B2 == pytest.approx(1.0, rel=1e-12)
    assert rec.sup_d1v == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_cross_term_bounded_by_energy_sweep():
    g = SpectralGrid(32, 32, TWO_PI, TWO_PI)
    for seed in range(8):
        st = scaled_random_state(g, seed, 2.0)
        for m in (1, 2, 4):
            rec = instantaneous(g, st.u, m)
            assert abs(rec.A) <= 0.5 * rec.E**2 * (1.0 + 1e-12)
            assert rec.cancel_residual <= 1e-10


def test_region_masses_partition_and_localize():
    g = SpectralGrid(32, 32, TWO_PI, TWO_PI)
    st = random_div_free_state(g, seed=3)
    rec = instantaneous(g, st.u, 2)
    l2_sq = rec.l2_v1**2 + rec.l2_v2**2 + rec.l2_B1**2 + rec.l2_B2**2
    assert rec.mass_omega1 + rec.mass_omega2 + rec.mass_omega3 == pytest.approx(
        l2_sq, rel=1e-12)
    # a single mode with xi1 = 1 sits entirely in the outer strip
    one = instantaneous(g, single_mode_state(g, 1, 2).u, 2)
    assert one.mass_omega2 == 0.0 and one.mass_omega3 == 0.0
    assert one.mass_omega1 > 0.0
    # xi1 = 0 modes sit in the inner strip
    flat = instantaneous(g, single_mode_state(g, 0, 3).u, 2)
    assert flat.mass_omega1 == 0.0 and flat.mass_omega2 == 0.0


def test_xm_reduces_to_sobolev_on_zero_xi1_column():
    # v supported on xi1 = 0 has no anisotropic content at all
    g = SpectralGrid(32, 32, TWO_PI, TWO_PI)
    st = single_mode_state(g, 0, 3, pair="v")
    rec = instantaneous(g, st.u, 3)
    from mhd2d.spectral import sobolev_norm
    hm = np.sqrt(sum(sobolev_norm(g, st.u[c], 3) ** 2 for c in range(4)))
    assert rec.xm == pytest.approx(hm, rel=1e-14)


def test_cumulative_single_sample_and_constant_history():
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    st = random_div_free_state(g, seed=1)
    rec0 = instantaneous(g, st.u, 2)
    single = cumulative([rec0])
    assert single.G == pytest.approx(rec0.E)
    assert single.H == 0.0 and single.dissipation_integral == 0.0

    T = 3.0
    recs = [rec0._replace(t=x) for x in np.linspace(0.0, T, 7)]
    cum = cumulative(recs)
    assert cum.T == pytest.approx(T)
    assert cum.dissipation_integral == pytest.approx(
        T * (rec0.hm_v_sq + rec0.hm1_d1b_sq), rel=1e-12)
    assert cum.G == pytest.approx(
        np.sqrt(rec0.E**2 + cum.dissipation_integral), rel=1e-12)
    expected_h = (
        T * rec0.h_d1b2_l1,
        T * rec0.h_b2_l1**2,
        T * rec0.h_gradb2_l1 ** (4.0 / 3.0),
        T * rec0.h_d1v_l1,
        T * rec0.h_v2_half_sq,
        T * rec0.h_v2_half_l1 ** (4.0 / 3.0),
    )
    for got, want in zip(cum.h_terms, expected_h):
        assert got == pytest.approx(want, rel=1e-12)
    assert cum.H == pytest.approx(sum(expected_h), rel=1e-12)


def test_cumulative_history_validation():
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    rec = instantaneous(g, random_div_free_state(g, seed=1).u, 2)

    with pytest.raises(IncompleteHistoryError):
        cumulative([])
    with pytest.raises(IncompleteHistoryError):  # does not start at zero
        cumulative([rec._replace(t=0.5), rec._replace(t=1.0)])
    with pytest.raises(IncompleteHistoryError):  # not increasing
        cumulative([rec._replace(t=0.0), rec._replace(t=0.0)])
    for ts in ([0.0, float("nan")], [float("nan")]):  # not a time
        with pytest.raises(IncompleteHistoryError):
            cumulative([rec._replace(t=x) for x in ts])
    with pytest.raises(IncompleteHistoryError):  # gap in the cadence
        ts = [0.0, 0.1, 0.2, 0.5, 0.6]
        cumulative([rec._replace(t=x) for x in ts])


def test_cumulative_refuses_a_history_before_zero():
    # records at t = -2 .. 1 would give T = 1 and integrals over [-2, 1]
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    rec = instantaneous(g, random_div_free_state(g, seed=1).u, 2)
    for ts in ([-2.0, -1.0, 0.0, 1.0], [-1e-9, 1.0]):
        with pytest.raises(IncompleteHistoryError, match="not 0"):
            cumulative([rec._replace(t=x) for x in ts])
    # roundoff about zero still starts a history, and a run's records pass
    assert cumulative([rec._replace(t=x) for x in (-1e-13, 1.0)]).T == 1.0
    cfg = SolverConfig(n1=16, n2=16, dt=0.05, t_end=0.2, data_kind="random", seed=3)
    assert cumulative(run(cfg).records).T == pytest.approx(0.2)


def linear_records(n1=64, t_end=2.5, dt=0.05, delta=1e-2):
    cfg = SolverConfig(n1=n1, n2=n1, l1=32.0 * np.pi, l2=32.0 * np.pi,
                       dt=dt, t_end=t_end, data_kind="prop25",
                       data_delta=delta, nonlinear=False)
    return run(cfg).records


def test_energy_inequality_audit_on_linear_flow():
    recs = linear_records()
    audit = em_inequality_audit(recs, 4)
    # the linear flow dissipates: production never exceeds the fd noise
    assert float(np.max(audit.lhs)) <= max(10.0 * audit.fd_error, 1e-12)
    assert audit.implied_C == 0.0
    assert audit.fd_error < 1e-4
    assert len(audit.times) == len(recs)


def test_energy_inequality_audit_requirements():
    recs = linear_records(t_end=0.25)[:4]
    with pytest.raises(AuditResolutionError, match="at least 5"):
        em_inequality_audit(recs, 4)
    full = linear_records(t_end=0.5)
    skewed = full[:3] + full[4:]
    with pytest.raises(AuditResolutionError, match="uniform"):
        em_inequality_audit(skewed, 4)


def test_energy_inequality_audit_rejects_coarse_cadence():
    # an oscillation sampled near its own period leaves the derivative
    # estimate meaningless; the audit must refuse rather than report
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    base = instantaneous(g, random_div_free_state(g, seed=2).u, 2)
    ts = np.arange(0.0, 5.0 + 1e-12, 0.5)
    recs = []
    for t in ts:
        e = 1.0 + 0.5 * np.sin(9.0 * t)
        recs.append(base._replace(
            t=float(t), E=float(e), A=0.0,
            hm_v_sq=0.0, hm_b_sq=0.0, hm1_d1b_sq=0.0))
    with pytest.raises(AuditResolutionError, match="finite-difference"):
        em_inequality_audit(recs, 2)


def test_energy_inequality_audit_on_nonlinear_run():
    cfg = SolverConfig(n1=32, n2=32, dt=0.02, t_end=1.0, data_kind="random",
                       data_delta=1e-2, seed=1)
    audit = em_inequality_audit(run(cfg).records, cfg.m)
    assert np.isfinite(audit.implied_C)
    assert audit.implied_C >= 0.0


def test_interpolation_audit_gaussian_against_quad():
    f = lambda r: np.exp(-np.asarray(r) ** 2)
    audit = interpolation_audit(f, p=1.0, q=1.0)
    lhs_ref, _ = scipy.integrate.quad(lambda r: np.exp(-r * r) * r, 0.0, 30.0)
    lhs_ref *= 2.0 * np.pi
    hi_ref, _ = scipy.integrate.quad(lambda r: r**5 * np.exp(-2 * r * r), 0.0, 30.0)
    lo_ref, _ = scipy.integrate.quad(lambda r: r * np.exp(-2 * r * r), 0.0, 30.0)
    rhs_ref = (2.0 * np.pi * hi_ref) ** 0.25 * (2.0 * np.pi * lo_ref) ** 0.25
    assert audit.lhs == pytest.approx(lhs_ref, rel=1e-9)
    assert audit.lhs == pytest.approx(np.pi, rel=1e-9)
    assert audit.rhs == pytest.approx(rhs_ref, rel=1e-9)
    assert 0.0 < audit.ratio < 10.0


def test_interpolation_audit_dilation_invariance():
    base = interpolation_audit(lambda r: np.exp(-np.asarray(r) ** 2), 1.0, 1.0)
    for lam in (0.25, 4.0):
        scaled = interpolation_audit(
            lambda r, lam=lam: np.exp(-(lam * np.asarray(r)) ** 2), 1.0, 1.0)
        assert scaled.ratio == pytest.approx(base.ratio, rel=1e-6)


def test_interpolation_audit_guards():
    gauss = lambda r: np.exp(-np.asarray(r) ** 2)
    with pytest.raises(ConfigError):
        interpolation_audit(gauss, 0.0, 1.0)
    with pytest.raises(ConfigError):
        interpolation_audit(gauss, 1.0, -2.0)
    with pytest.raises(AuditInapplicableError):
        interpolation_audit(gauss, 1.0, 2.0)
    # a profile vanishing at the origin keeps the strong weight integrable
    ring = lambda r: np.asarray(r) ** 2 * np.exp(-np.asarray(r) ** 2)
    audit = interpolation_audit(ring, 1.0, 2.0)
    assert np.isfinite(audit.ratio) and audit.ratio > 0.0


def test_fourier_l1_audit_single_mode_arithmetic():
    g = SpectralGrid(32, 32, TWO_PI, TWO_PI)
    st = single_mode_state(g, 2, 1, pair="B")
    audit = fourier_l1_audit(st, component=3)
    # component B2 holds -i xi1 at (2, 1) and its conjugate: amplitude 2
    assert audit.lhs == pytest.approx(4.0 * np.pi**2 * 4.0, rel=1e-12)
    area = 4.0 * np.pi**2
    h1_d1 = area * 2.0 * 6.0 * 16.0  # two modes, (1+|xi|^2) = 6, |xi1 fhat|^2 = 16
    h1_f = area * 2.0 * 6.0 * 4.0
    assert audit.rhs == pytest.approx((h1_d1 * h1_f) ** 0.25, rel=1e-12)
    assert audit.ratio == pytest.approx(audit.lhs / audit.rhs, rel=1e-14)


def test_fourier_l1_audit_skips_mean_column():
    g = SpectralGrid(32, 32, TWO_PI, TWO_PI)
    st = single_mode_state(g, 0, 3, pair="B")
    audit = fourier_l1_audit(st, component=2)
    assert audit.lhs == 0.0  # everything lives on the xi1 = 0 column
    assert audit.rhs == 0.0
    assert audit.ratio == 0.0


def test_fit_decay_recovers_exact_slope():
    times = np.geomspace(1.0, 1e4, 200)
    curve = DecayCurve("x", times, (1.0 + times) ** -0.75)
    fit = fit_decay(curve, (1e2, 1e4))
    assert fit.slope == pytest.approx(-0.75, abs=1e-12)
    assert fit.rms_residual < 1e-13
    assert fit.window == (1e2, 1e4)

    noisy = DecayCurve("x", times, (1.0 + times) ** -0.75 * (1.0 + 0.02 * np.sin(times)))
    fit2 = fit_decay(noisy, (1e2, 1e4))
    assert fit2.slope == pytest.approx(-0.75, abs=0.05)

    const = DecayCurve("x", times, np.ones_like(times))
    assert fit_decay(const, (1e2, 1e4)).slope == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_domain_errors():
    times = np.geomspace(1.0, 1e3, 50)
    curve = DecayCurve("x", times, (1.0 + times) ** -0.5)
    with pytest.raises(FitDomainError):
        fit_decay(curve, (10.0, 10.0))
    with pytest.raises(FitDomainError):
        fit_decay(curve, (900.0, 1000.0))  # too few samples
    bad = DecayCurve("x", times, np.concatenate([np.ones(25), -np.ones(25)]))
    with pytest.raises(FitDomainError):
        fit_decay(bad, (1.0, 1e3))
    early = np.linspace(-3.0, 40.0, 40)  # log(1 + t) is undefined at t <= -1
    with pytest.raises(FitDomainError, match="t > -1"):
        fit_decay(DecayCurve("x", early, np.exp(-early)), (-3.0, 40.0))


def test_physical_l1_single_mode_oracle():
    g = SpectralGrid(64, 64, TWO_PI, TWO_PI)
    st = single_mode_state(g, 2, 1, pair="v")
    # |v(x)| = 2 |xi| |sin(k.x)| whose mean is 2/pi
    expect = 2.0 * np.sqrt(5.0) * (2.0 / np.pi) * (TWO_PI**2)
    assert physical_l1_norm(st) == pytest.approx(expect, rel=1e-3)


def test_single_mode_state_guards():
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    with pytest.raises(ConfigError):
        single_mode_state(g, 0, 0)
    with pytest.raises(ConfigError):
        single_mode_state(g, 1, 1, pair="w")
    st = single_mode_state(g, 3, -2, pair="B")
    st.validate()
    # a mode and its conjugate partner describe the same real field
    assert np.array_equal(st.u, single_mode_state(g, -3, 2, pair="B").u)
    assert np.array_equal(single_mode_state(g, -3, 0).u, single_mode_state(g, 3, 0).u)
    # the Nyquist modes carry no potential, and larger ones are off the grid
    for k1, k2 in ((8, 0), (0, 8), (-8, 1), (1, -8), (9, 1), (1, 20)):
        with pytest.raises(ConfigError):
            single_mode_state(g, k1, k2)


def test_embedding_scan_family():
    g = SpectralGrid(64, 64, 16.0 * np.pi, 16.0 * np.pi)
    states = gaussian_divfree_family(g) + [
        single_mode_state(g, 4, 0), single_mode_state(g, 8, 8, pair="B")]
    max_ratio, ratios = xm_embedding_scan(states, 4)
    assert len(ratios) == len(states)
    assert all(np.isfinite(r) and r > 0.0 for r in ratios)
    assert max_ratio == max(ratios)
    assert max_ratio < 1e3
    with pytest.raises(ConfigError):
        xm_embedding_scan([SpectralState.zeros(g)], 4)


def test_embedding_scan_builds_its_weights_once_per_family(monkeypatch):
    # the family's states share one set of tables; a state on another grid
    # builds its own, and every ratio is the one the state's own norm gives
    from mhd2d import diagnostics
    g = SpectralGrid(32, 32, 16.0 * np.pi, 16.0 * np.pi)
    other = SpectralGrid(32, 32, 16.0 * np.pi, 16.0 * np.pi)
    states = gaussian_divfree_family(g) + [single_mode_state(g, 4, 4, pair="B"),
                                           single_mode_state(other, 2, 0)]
    alone = [xm_embedding_scan([st], 4)[1][0] for st in states]
    real, built = diagnostics.RecordWeights, []

    def counted(grid, m, kc):
        built.append(grid)
        return real(grid, m, kc)

    monkeypatch.setattr(diagnostics, "RecordWeights", counted)
    _, ratios = xm_embedding_scan(states, 4)
    assert ratios == alone
    assert len(built) == 2 and built[0] is g and built[1] is other
