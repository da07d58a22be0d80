"""Exponential integrators, quadratic tendencies, energy balance, controls."""

import dataclasses

import numpy as np
import pytest

from mhd2d import solver
from mhd2d.errors import BlowUpError, ConfigError
from mhd2d.solver import (
    SolverConfig,
    Trajectory,
    advective_dt_bound,
    initial_state,
    run,
)
from mhd2d.spectral import (
    SpectralGrid,
    SpectralState,
    l2_norm,
    random_div_free_state,
)
from mhd2d.propagator import build_profile
from reference import (
    apply_semigroup,
    check_components,
    coordinates,
    from_physical,
    full_spectrum,
    mode_numbers,
    physical_fields,
    profile_vector,
    scaled_random_state,
    tendency,
)

TWO_PI = 2.0 * np.pi


def small_cfg(**kw):
    base = dict(n1=32, n2=32, dt=0.01, t_end=0.1, data_kind="random",
                data_delta=0.5, seed=2)
    base.update(kw)
    return SolverConfig(**base)


def test_config_validation():
    good = dict(n1=16, n2=16, dt=0.1, t_end=1.0)
    SolverConfig(**good)
    bad = [
        dict(n1=15), dict(dt=0.0), dict(dt=-0.1), dict(t_end=0.05),
        dict(alpha=1.5), dict(alpha=-0.1), dict(kappa=-1.0),
        dict(scheme="euler"), dict(m=0), dict(m=2.5),
        dict(m=float("nan")), dict(m=float("inf")), dict(m=True),
        dict(data_kind="bump"), dict(data_delta=0.0),
        dict(data_delta=float("inf")), dict(data_delta=float("nan")),
        dict(t_end=0.95), dict(output_every=0.15),
        dict(t_end=1.0, output_every=0.3),
        dict(t_end=float("inf")),
        dict(output_every=float("inf")), dict(output_every=float("nan")),
        dict(seed=-1), dict(seed=2.5), dict(seed=True),
    ]
    for override in bad:
        with pytest.raises(ConfigError):
            SolverConfig(**{**good, **override})


def test_config_derived_quantities():
    cfg = SolverConfig(n1=16, n2=16, dt=0.05, t_end=1.0, output_every=0.25)
    assert cfg.n_steps == 20
    assert cfg.sample_stride == 5
    assert cfg.grid().shape == (16, 16)
    # default cadence samples every step
    assert SolverConfig(n1=16, n2=16, dt=0.05, t_end=1.0).sample_stride == 1


def test_zero_data_stays_zero():
    cfg = small_cfg(data_kind="zero", t_end=0.05, dt=0.01)
    traj = run(cfg)
    assert len(traj.times) == 6
    assert all(rec.E == 0.0 for rec in traj.records)
    final = traj.states[-1]
    assert final is not None and np.all(final.u == 0.0)


def test_quadratic_tendency_closed_form():
    # B = (cos(2 x2), cos(x1)), v = 0: the magnetic stretching term
    # projects to  sin(x1+2x2) (-3/5, 3/10) + sin(2x2-x1) (-3/5, -3/10)
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    x1, x2 = coordinates(g)
    zero = np.zeros(g.shape)
    b1 = np.cos(2.0 * x2) * np.ones(g.shape)
    b2 = np.cos(x1) * np.ones(g.shape)
    st = check_components(g, from_physical(g, np.stack([zero, zero, b1, b2])))
    out = physical_fields(g, tendency(st))
    sp = np.sin(x1 + 2.0 * x2)
    sm = np.sin(2.0 * x2 - x1)
    expect1 = -0.6 * sp - 0.6 * sm
    expect2 = 0.3 * sp - 0.3 * sm
    assert np.max(np.abs(out[0] - expect1)) < 1e-13
    assert np.max(np.abs(out[1] - expect2)) < 1e-13
    assert np.max(np.abs(out[2])) < 1e-13  # no B tendency without v
    assert np.max(np.abs(out[3])) < 1e-13

    # same field placed in v flips the sign through -(v.grad)v
    st_v = check_components(g, from_physical(g, np.stack([b1, b2, zero, zero])))
    out_v = physical_fields(g, tendency(st_v))
    assert np.max(np.abs(out_v[0] + expect1)) < 1e-13
    assert np.max(np.abs(out_v[1] + expect2)) < 1e-13

    # v = B kills both quadratic forms identically
    st_eq = check_components(g, from_physical(g, np.stack([b1, b2, b1, b2])))
    assert np.max(np.abs(tendency(st_eq))) < 1e-14


def test_quadratic_tendency_alias_free():
    # the same retained modes on a refined grid produce the same tendency,
    # so retained products carry no aliased contributions
    coarse = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    fine = SpectralGrid(32, 32, TWO_PI, TWO_PI)
    st = random_div_free_state(coarse, seed=9)
    up = np.zeros((4, fine.n1, fine.n2 // 2 + 1), dtype=complex)
    # the half spectrum's columns: k2 = 0 .. n2/2 - 1, then the Nyquist -n2/2
    (coarse_k1, coarse_k2), (fine_k1, fine_k2) = mode_numbers(coarse), mode_numbers(fine)
    coarse_k2, fine_k2 = coarse_k2[:coarse.n2 // 2 + 1], fine_k2[:fine.n2 // 2 + 1]
    for i, k1 in enumerate(coarse_k1):
        if 3 * abs(k1) >= coarse.n1:
            continue
        fi = int(np.where(fine_k1 == k1)[0][0])
        for j, k2 in enumerate(coarse_k2):
            if 3 * abs(k2) >= coarse.n2:
                continue
            fj = int(np.where(fine_k2 == k2)[0][0])
            up[:, fi, fj] = st.u[:, i, j]
    out_c = tendency(st)
    out_f = tendency(check_components(fine, up))
    scale = np.max(np.abs(out_c))
    for i, k1 in enumerate(coarse_k1):
        if 3 * abs(k1) >= coarse.n1:
            continue
        fi = int(np.where(fine_k1 == k1)[0][0])
        for j, k2 in enumerate(coarse_k2):
            if 3 * abs(k2) >= coarse.n2:
                continue
            fj = int(np.where(fine_k2 == k2)[0][0])
            assert np.max(np.abs(out_c[:, i, j] - out_f[:, fi, fj])) < 1e-13 * scale


def test_quadratic_tendency_energy_cancellation():
    # <N_v, v> + <N_B, B> = 0: the quadratic terms move energy, never make it
    g = SpectralGrid(48, 48, TWO_PI, TWO_PI)
    st = scaled_random_state(g, 4, 2.0)
    u, nl = full_spectrum(g, st.u), full_spectrum(g, tendency(st))
    pairing = float(g.area * np.sum(np.real(np.conj(u) * nl)))
    scale = float(g.area * np.sum(np.abs(u) ** 2))
    assert abs(pairing) < 1e-12 * max(scale, 1.0)


def test_single_mode_has_no_self_advection():
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    x1, x2 = coordinates(g)
    # one transverse mode: v = k-perp cos(k.x), k = (2, 1)
    f = np.cos(2.0 * x1 + x2)
    fields = np.stack([-1.0 * f, 2.0 * f, np.zeros(g.shape), np.zeros(g.shape)])
    st = check_components(g, from_physical(g, fields))
    assert np.max(np.abs(tendency(st))) < 1e-14


def test_linear_only_run_matches_exact_semigroup():
    cfg = small_cfg(nonlinear=False, t_end=1.0, dt=0.05)
    g = cfg.grid()
    st0 = initial_state(cfg, g)
    traj = run(cfg, initial=SpectralState(st0.grid, st0.w.copy(), st0.time))
    exact = apply_semigroup(st0, 1.0)
    final = traj.states[-1]
    scale = np.max(np.abs(st0.u))
    assert np.max(np.abs(final.u - exact.u)) < 1e-12 * scale


def test_etdrk2_second_order_in_time():
    # global error against a fine high-order reference; halving dt must
    # shrink the error by about 4
    base = dict(n1=32, n2=32, t_end=0.5, data_kind="random", data_delta=0.8,
                seed=3, kappa=1.0)
    ref = run(SolverConfig(dt=0.5 / 512, scheme="ifrk4", **base)).states[-1]
    errs = []
    for dt in (0.05, 0.025):
        got = run(SolverConfig(dt=dt, scheme="etdrk2", **base)).states[-1]
        errs.append(np.max(np.abs(got.u - ref.u)))
    ratio = errs[0] / errs[1]
    assert 3.4 < ratio < 4.6, (errs, ratio)


def test_ifrk4_fourth_order_in_time():
    base = dict(n1=32, n2=32, t_end=0.5, data_kind="random", data_delta=0.8,
                seed=3, kappa=1.0)
    ref = run(SolverConfig(dt=0.5 / 512, scheme="ifrk4", **base)).states[-1]
    errs = []
    for dt in (0.05, 0.025):
        got = run(SolverConfig(dt=dt, scheme="ifrk4", **base)).states[-1]
        errs.append(np.max(np.abs(got.u - ref.u)))
    ratio = errs[0] / errs[1]
    assert 11.0 < ratio < 21.0, (errs, ratio)


def test_energy_residual_is_second_order():
    base = dict(n1=32, n2=32, t_end=1.0, data_kind="random", data_delta=0.5,
                seed=2)
    resid = []
    for dt in (0.02, 0.01):
        traj = run(SolverConfig(dt=dt, **base))
        resid.append(abs(traj.records[-1].e_residual))
    ratio = resid[0] / resid[1]
    assert 3.4 < ratio < 4.6, (resid, ratio)


def cross_helicity(state):
    """int v.B over the box: area sum |xi|^2 Re(conj(psi) a) over the full spectrum."""
    g = state.grid
    return g.area * np.sum(g.half_mult * g.half_xi_sq * np.real(np.conj(state.w[0]) * state.w[1]))


def test_zero_dissipation_conserves_energy():
    # without damping the quadratic terms conserve the half-L2 energy and,
    # with the coupling, the cross helicity int v.B; the leftover drifts are
    # pure integrator error and shrink at second order. (prop25 data, v = B,
    # keep a zero tendency and conserve int v.B to roundoff: no order shows)
    drifts, helicity = [], []
    for dt in (0.02, 0.01):
        cfg = small_cfg(kappa=0.0, t_end=1.0, dt=dt, data_delta=0.5)
        g = cfg.grid()
        st0 = initial_state(cfg, g)
        traj = run(cfg, initial=st0)
        e_start = sum(l2_norm(g, st0.u[c]) ** 2 for c in range(4))
        final = traj.states[-1]
        e_end = sum(l2_norm(g, final.u[c]) ** 2 for c in range(4))
        drifts.append(abs(e_end - e_start))
        assert drifts[-1] < 1e-8 * e_start
        # with no dissipation integral the residual is exactly the drift
        assert traj.records[-1].e_residual == pytest.approx(
            0.5 * (e_end - e_start), rel=1e-10)
        # |int v.B| <= |v| |B|, the scale of its roundoff
        vb = np.sqrt(sum(l2_norm(g, st0.u[c]) ** 2 for c in range(2))
                     * sum(l2_norm(g, st0.u[c]) ** 2 for c in range(2, 4)))
        helicity.append(abs(cross_helicity(final) - cross_helicity(st0)))
        assert helicity[-1] < 1e-8 * vb
    assert 3.5 < drifts[0] / drifts[1] < 4.5
    assert 3.5 < helicity[0] / helicity[1] < 4.5


def test_decoupled_velocity_decays_exactly():
    # coupling off and B = 0: d/dt ||v||^2 = -2 ||v||^2 exactly, advection
    # only redistributes
    cfg = small_cfg(coupling=False, t_end=1.0, dt=0.01, data_delta=1.0)
    g = cfg.grid()
    st0 = initial_state(cfg, g)
    st0.w[1] = 0.0  # a = 0, so B = 0
    traj = run(cfg, initial=st0)
    final = traj.states[-1]
    assert np.max(np.abs(final.u[2:])) == 0.0
    n0 = np.sqrt(sum(l2_norm(g, st0.u[c]) ** 2 for c in range(2)))
    n1 = np.sqrt(sum(l2_norm(g, final.u[c]) ** 2 for c in range(2)))
    assert n1 == pytest.approx(np.exp(-1.0) * n0, rel=1e-7)


def test_blow_up_reports_partial_trajectory():
    cfg = SolverConfig(n1=32, n2=32, dt=0.5, t_end=10.0, data_kind="random",
                       data_delta=1e4, seed=0)
    traj = Trajectory()
    with pytest.warns(RuntimeWarning):
        with pytest.raises(BlowUpError) as info:
            run(cfg, trajectory=traj)
    err = info.value
    assert err.last_valid_time >= 0.0
    assert isinstance(traj, Trajectory)
    assert len(traj.times) >= 1
    assert traj.times[0] == 0.0
    assert traj.times[-1] <= err.last_valid_time


def test_cfl_warning_on_coarse_dt():
    cfg = small_cfg(dt=0.05, t_end=0.1, data_delta=5e4)
    with pytest.warns(RuntimeWarning, match="advective bound"):
        try:
            run(cfg)
        except BlowUpError:
            pass  # the warning is the contract under test


def test_initial_state_normalization():
    cfg = SolverConfig(n1=64, n2=64, l1=32.0 * np.pi, l2=32.0 * np.pi,
                       dt=0.02, t_end=0.04, data_kind="prop25", data_delta=1e-2)
    st = initial_state(cfg)
    st.validate()
    from mhd2d.diagnostics import instantaneous
    rec = instantaneous(st.grid, st.u, cfg.m)
    assert rec.E == pytest.approx(1e-2, rel=1e-12)
    assert abs(rec.A) < 1e-15  # v = B makes the cross term vanish

    rnd = SolverConfig(n1=32, n2=32, dt=0.02, t_end=0.04, data_kind="random",
                       data_delta=0.3, seed=5)
    rec2 = instantaneous(rnd.grid(), initial_state(rnd).u, rnd.m)
    assert rec2.E == pytest.approx(0.3, rel=1e-12)


def test_initial_state_unresolved_support():
    # on a 2 pi box the smallest nonzero wavenumber is 1, past the profile
    cfg = SolverConfig(n1=16, n2=16, dt=0.02, t_end=0.04, data_kind="prop25")
    with pytest.raises(ConfigError, match="resolve"):
        initial_state(cfg)


def test_step_grid_mismatch():
    cfg = small_cfg()
    other = random_div_free_state(SpectralGrid(16, 16, TWO_PI, TWO_PI), seed=0)
    with pytest.raises(ConfigError, match="grid"):
        run(cfg, initial=other)


def test_trajectory_append_monotone():
    traj = Trajectory()
    cfg = small_cfg(data_kind="zero")
    rec = run(cfg).records[0]
    traj.append(0.0, rec)
    traj.append(1.0, rec)
    with pytest.raises(ConfigError):
        traj.append(0.5, rec)
    assert traj.states[-1] is None
    # a non-finite time fails too, first or later, and leaves no entry
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="finite"):
            traj.append(bad, rec)
        with pytest.raises(ConfigError, match="finite"):
            Trajectory().append(bad, rec)
    with pytest.raises(ConfigError):
        traj.append(1.0, rec)
    assert traj.times == [0.0, 1.0]


def test_run_restart_continues_exactly():
    cfg_a = small_cfg(t_end=0.05, dt=0.01)
    cfg_b = small_cfg(t_end=0.1, dt=0.01)
    leg1 = run(cfg_a)
    mid = leg1.states[-1]
    leg2 = run(cfg_a, initial=mid)
    once = run(cfg_b)
    assert leg2.times[0] == pytest.approx(0.05)
    assert leg2.times[-1] == pytest.approx(0.1)
    assert np.array_equal(leg2.states[-1].u, once.states[-1].u)


def test_sampling_cadence_and_snapshots():
    cfg = small_cfg(t_end=0.1, dt=0.01, output_every=0.02)
    traj = run(cfg)
    assert traj.times == pytest.approx([0.0, 0.02, 0.04, 0.06, 0.08, 0.1])
    assert traj.states[0] is not None and traj.states[-1] is not None
    assert all(s is None for s in traj.states[1:-1])
    # the default keeps the first and the latest stack, keep_all every one
    kept = run(cfg, trajectory=Trajectory(keep_all=True))
    assert all(s is not None for s in kept.states)
    for k in (0, -1):
        assert traj.states[k].w.tobytes() == kept.states[k].w.tobytes()
        assert traj.states[k].time == kept.states[k].time == kept.times[k]


def test_a_trajectory_is_handed_every_stack_the_run_steps_on(monkeypatch):
    # every sample's time and band stack, t = 0 included, the very array the
    # stepper took or returned, not a copy
    cfg = small_cfg(t_end=0.1, dt=0.01, output_every=0.02)
    stepped = []
    real = solver._Stepper.advance

    def advance(self, w):
        stepped.append(w)
        out = real(self, w)
        stepped.append(out)
        return out

    class Seen(Trajectory):
        def append(self, time, record, grid=None, w=None):
            seen.append((time, grid, w))
            super().append(time, record, grid, w)

    seen = []
    monkeypatch.setattr(solver._Stepper, "advance", advance)
    traj = run(cfg, trajectory=Seen())
    assert [t for t, _, _ in seen] == traj.times and len(seen) == 6
    assert all(g == cfg.grid() for _, g, _ in seen)
    assert seen[0][2] is stepped[0]
    for k, (_, _, w) in enumerate(seen[1:], 1):
        assert w is stepped[4 * k - 1], k  # the output of step 2 k


def test_fractional_dissipation_run():
    cfg = small_cfg(alpha=0.5, kappa=2.0, t_end=0.5, dt=0.01, data_delta=0.5)
    traj = run(cfg)
    energies = [r.E for r in traj.records]
    assert energies[-1] < energies[0]
    assert all(np.isfinite(e) for e in energies)


def test_runs_are_deterministic():
    cfg = small_cfg(t_end=0.1, dt=0.01)
    a = run(cfg)
    b = run(cfg)
    assert np.array_equal(a.states[-1].u, b.states[-1].u)
    assert [r.csv_row() for r in a.records] == [r.csv_row() for r in b.records]


def test_advective_bound_scales_with_amplitude():
    g = SpectralGrid(32, 32, TWO_PI, TWO_PI)
    small = scaled_random_state(g, 1, 0.1)
    large = scaled_random_state(g, 1, 10.0)
    b_small = advective_dt_bound(small)
    b_large = advective_dt_bound(large)
    assert 0.0 < b_large < b_small <= 0.5 * min(g.dx)


def cadence_cfg(n, kind, **kw):
    # prop25's support, |xi| < 1/4, needs a 32 pi box to hold modes
    box = 32.0 * np.pi if kind == "prop25" else TWO_PI
    return SolverConfig(n1=n, n2=n, l1=box, l2=box, dt=0.02, t_end=1.0, data_kind=kind,
                        data_delta=0.5 if kind == "random" else 0.05, seed=3, **kw)


@pytest.mark.parametrize("kind", ("random", "prop25"))
@pytest.mark.parametrize("n", (64, 128))
def test_final_state_does_not_depend_on_the_sample_cadence(n, kind):
    # the stepper goes on from the stepped stack at every sample, so a run
    # sampled every step and one sampled once end on the same bits
    every = run(cadence_cfg(n, kind, output_every=0.02))
    once = run(cadence_cfg(n, kind, output_every=1.0))
    assert len(every.times) == 51 and len(once.times) == 2
    assert every.states[-1].w.tobytes() == once.states[-1].w.tobytes()
    assert every.states[-1].time == once.states[-1].time
    assert every.records[-1] == once.records[-1]
    assert every.records[0] == once.records[0]


@pytest.mark.parametrize("kind", ("random", "prop25"))
def test_restart_from_any_kept_state_repeats_the_run(kind):
    # a kept state holds the run's band stack at its time, so a run from it
    # repeats every later record and state bit for bit, its first record
    # included; only e_residual counts from the restart
    cfg = cadence_cfg(64, kind, output_every=0.1)
    whole = run(cfg, trajectory=Trajectory(keep_all=True))
    assert all(st is not None for st in whole.states) and len(whole.states) == 11
    for k, start in enumerate(whole.states[:-1]):
        rest = run(dataclasses.replace(cfg, t_end=1.0 - start.time), initial=start,
                   trajectory=Trajectory(keep_all=True))
        assert rest.times == whole.times[k:]
        for got, want in zip(rest.records, whole.records[k:]):
            assert got._replace(e_residual=0.0) == want._replace(e_residual=0.0), k
        for got, want in zip(rest.states, whole.states[k:]):
            assert got.time == want.time and got.w.tobytes() == want.w.tobytes(), k


def test_prop25_data_are_the_profile():
    # the potentials sigma(xi1) sigma(xi2) of both pairs have the curl i
    # sigma sigma (xi2, -xi1, xi2, -xi1), the profile with the phase that
    # makes the physical fields real, cut to the 2/3 band and scaled
    cfg = SolverConfig(n1=64, n2=48, l1=32.0 * np.pi, l2=24.0 * np.pi, dt=0.02, t_end=0.04,
                       data_kind="prop25")
    g = cfg.grid()
    u = initial_state(cfg, g).u
    want = 1j * profile_vector(build_profile("prop25"), g.xi1, g.half_xi2) * g.half_dealias_mask
    scale = np.vdot(want, u).real / np.vdot(want, want).real
    assert scale > 0.0
    assert np.max(np.abs(u - scale * want)) <= 1e-14 * np.max(np.abs(u))
