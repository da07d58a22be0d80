"""The (psi, a) half-spectrum form of the solver on odd grid geometries.

Grids with n1 != n2, l1 != l2 and n not divisible by 3, where an index or
wavenumber mix-up between the two axes, or an off-by-one in the Hermitian
mirror or the dealias cutoff, cannot cancel out.
"""

import dataclasses
import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from mhd2d import diagnostics, modes, propagator, solver
from mhd2d.errors import ConfigError, DiagnosticIntegrityError
from mhd2d.modes import region_masks
from mhd2d.propagator import phi_block_entries
from mhd2d.solver import (
    SolverConfig,
    _band,
    _nonlinear,
    _Stepper,
    initial_state,
    run,
)
from mhd2d.spectral import (
    SpectralState,
    _components,
    _potentials,
    divergence_defect,
    from_potentials,
    hermitian_defect,
    load_state,
    make_grid,
    random_div_free_state,
    save_state,
    sobolev_norm,
    to_physical,
)
from reference import (
    coeff_derivative,
    _xm as oracle_xm,
    instantaneous as oracle_record,
    leray_project,
    multi_index_weight,
    phi_fixed_series,
    stress_tendency,
    tendency,
    tendency_tables,
    traced_peak,
)

L1, L2 = 2.0 * np.pi, 3.0 * np.pi
ODD_GRIDS = ((40, 64), (64, 38), (50, 70))


def projected_tendency(grid, u):
    """The four-component tendency: advective products of the full-spectrum
    fields, dealiased, with both pairs Leray-projected and the mean zeroed."""
    n = grid.n1 * grid.n2

    def phys(c):
        return np.real(np.fft.ifft2(c)) * n

    v1, v2, B1, B2 = (phys(u[c]) for c in range(4))
    d1 = [phys(coeff_derivative(grid, u[c], 1)) for c in range(4)]
    d2 = [phys(coeff_derivative(grid, u[c], 2)) for c in range(4)]
    prod = np.empty((4,) + grid.shape)
    for c, (f, g) in enumerate(((0, 2), (1, 3), (2, 0), (3, 1))):
        # N_v = -(v.grad)v + (B.grad)B, N_B = -(v.grad)B + (B.grad)v
        prod[c] = -(v1 * d1[f] + v2 * d2[f]) + (B1 * d1[g] + B2 * d2[g])
    out = np.fft.fft2(prod) / n * grid.dealias_mask
    out = leray_project(SpectralState(grid, out)).u
    out[:, 0, 0] = 0.0
    return out


# plus the criterion-7 grid and twice it, where product roundoff grows
@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((256, 256), (512, 512)))
def test_tendency_matches_projected_four_component_form(n1, n2):
    g = make_grid(n1, n2, L1, L2)
    st = random_div_free_state(g, seed=n1 + n2, amplitude=3.0)
    want = projected_tendency(g, st.u)
    got = tendency(st)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def half_spectrum_tendency(grid, w):
    """The Elsasser-form tendency through one 4-plane ``irfft2`` and one 3-plane
    ``rfft2`` over the whole half spectrum, with the solver's arithmetic."""
    xi1, xi2 = grid.xi1, grid.half_xi2
    finish = grid.half_dealias_mask * grid.half_inv_xi_sq
    sums = np.stack([w[0] + w[1], w[0] - w[1]])
    spec = np.concatenate([sums * ((1j / np.sqrt(2.0)) * xi2),
                           sums * ((-1j / np.sqrt(2.0)) * xi1)])
    p1, m1, p2, m2 = np.fft.irfft2(spec, s=grid.shape, axes=(-2, -1), norm="forward")
    cross = p1 * m2
    prod = np.stack([p1 * m1 - p2 * m2, m1 * p2 - cross, cross + m1 * p2])
    t = np.fft.rfft2(prod, axes=(-2, -1), norm="forward")
    out = np.stack([t[0] * (-2.0 * finish * (xi1 * xi2))
                    + t[2] * (-finish * (xi2 * xi2 - xi1 * xi1)),
                    t[1] * grid.half_dealias_mask])
    out[1, 0, 0] = 0.0
    return out


@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((40, 48), (256, 256)))
def test_band_tendency_equals_half_spectrum_tendency(n1, n2):
    # the column-pruned passes skip only columns that are zero on input and
    # dropped on output, so the result is the same to the bit
    g = make_grid(n1, n2, L1, L2)
    kc = g.band_cols
    assert kc == int(np.count_nonzero(g.half_dealias_mask.any(axis=0)))
    w = _potentials(g, random_div_free_state(g, seed=n1 + n2, amplitude=3.0).u, n2 // 2 + 1)
    assert np.all(w[..., kc:] == 0.0)
    got = _nonlinear(g, w[..., :kc].copy(), tendency_tables(g))
    assert got.shape == (2, n1, kc)
    padded = np.zeros_like(w)
    padded[..., :kc] = got
    assert np.array_equal(padded, half_spectrum_tendency(g, w))


@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((256, 256),))
def test_elsasser_tendency_matches_stress_form(n1, n2):
    # four Elsasser products instead of the stress form's eight: the same
    # tendency up to product roundoff
    g = make_grid(n1, n2, L1, L2)
    w = _band(random_div_free_state(g, seed=n1 + n2, amplitude=3.0), g)
    want = stress_tendency(g, w)
    got = _nonlinear(g, w, tendency_tables(g))
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((40, 48),))
def test_band_weights_match_full_spectrum_sums(n1, n2):
    # the stepper's energy and dissipation sums run over the band columns
    # with column multiplicities; they must equal the full-spectrum sums
    cfg = SolverConfig(n1=n1, n2=n2, l1=L1, l2=L2, dt=0.02, t_end=0.04, alpha=0.5,
                       kappa=0.7, data_kind="random", data_delta=0.5, seed=5)
    st = initial_state(cfg)
    g, w = st.grid, _band(st, st.grid)
    stepper = _Stepper(g, cfg)
    energy = 0.5 * g.area * np.sum(np.abs(st.u) ** 2)
    dissipation = cfg.kappa * g.area * np.sum(g.xi_sq**cfg.alpha * np.abs(st.u[:2]) ** 2)
    assert stepper.half_l2_sq(w) == pytest.approx(energy, rel=1e-13)
    assert stepper.dissipation_rate(w) == pytest.approx(dissipation, rel=1e-13)


@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((128, 128), (256, 256)))
def test_stepper_tables_are_built_on_the_band(n1, n2, monkeypatch):
    # the block depends on xi1 only through xi1^2 and p12 is odd in xi1, so
    # phi_split runs on the rows k1 = 0 .. n1/2 only: with alpha = 0 once per
    # such row (once in all without coupling, where xi1 is zero), with
    # alpha != 0 once per band mode of those rows. Each table comes out in
    # the band stack's shape and is, to the bit, the 48-term series
    # evaluated on every band mode, times h for phi1 and phi2: on a fixed
    # grid of configs and on seeded random alpha in (0, 1], dt in (0, 0.3].
    sizes = []
    split = propagator.phi_split

    def counted(*args):
        out = split(*args)
        sizes.append(out[2].size)
        return out

    g = make_grid(n1, n2, L1, L2)
    kc, rows = g.band_cols, n1 // 2 + 1
    xi_sq = g.half_xi_sq[:, :kc]
    rng = np.random.default_rng(n1 * n2)
    configs = [(0.04, alpha, kappa, coupling) for alpha, kappa, coupling
               in itertools.product((0.0, 0.5), (0.0, 1.0, 2.0), (True, False))]
    configs += [(0.3 * (1.0 - rng.random()), 1.0 - rng.random(), 2.0 * rng.random(),
                 bool(rng.integers(2))) for _ in range(4)]
    for scheme, kinds in (("etdrk2", {"full": (0, 1.0), "phi1": (1, 1.0), "phi2": (2, 1.0)}),
                          ("ifrk4", {"full": (0, 1.0), "half": (0, 0.5)})):
        for dt, alpha, kappa, coupling in configs:
            case = (scheme, dt, alpha, kappa, coupling)
            cfg = SolverConfig(n1=n1, n2=n2, l1=L1, l2=L2, dt=dt, t_end=2.0 * dt,
                               scheme=scheme, alpha=alpha, kappa=kappa, coupling=coupling)
            sizes.clear()
            with monkeypatch.context() as mp:
                mp.setattr(propagator, "phi_split", counted)
                stepper = _Stepper(g, cfg)
            per_table = (rows if coupling else 1) if alpha == 0.0 else rows * kc
            assert sizes == [per_table] * len(kinds), case
            a = kappa * xi_sq**alpha if alpha != 0.0 else np.full(xi_sq.shape, kappa)
            xi1 = np.broadcast_to(g.xi1, xi_sq.shape) if coupling else np.zeros(xi_sq.shape)
            for name, (k, frac) in kinds.items():
                with monkeypatch.context() as mp:
                    mp.setattr(modes, "_phi", phi_fixed_series)
                    ref = phi_block_entries(k, xi1, frac * dt, a, coupling_sign=-1)
                ref = (np.real(ref[0]), 1j * np.imag(ref[1]), np.real(ref[2]))
                if k > 0:  # h is folded into the phi1 and phi2 tables
                    ref = tuple(dt * e for e in ref)
                for got, want, dtype in zip(getattr(stepper, name), ref,
                                            (np.float64, np.complex128, np.float64)):
                    assert got.shape == (n1, kc) and got.flags.c_contiguous
                    assert got.dtype == dtype
                    assert got.tobytes() == want.tobytes(), (case, name)


@pytest.mark.parametrize("scheme", ("etdrk2", "ifrk4"))
@pytest.mark.parametrize("nonlinear,coupling", ((True, True), (True, False),
                                                (False, True), (False, False)))
def test_advance_leaves_its_input_alone(scheme, nonlinear, coupling):
    # the stage sums run in place, on arrays the step made itself
    cfg = SolverConfig(n1=40, n2=64, l1=L1, l2=L2, dt=0.02, t_end=0.04, scheme=scheme,
                       nonlinear=nonlinear, coupling=coupling, data_kind="random",
                       data_delta=0.5, seed=4)
    st = initial_state(cfg)
    w = _band(st, st.grid)
    before = w.tobytes()
    out = _Stepper(st.grid, cfg).advance(w)
    assert w.tobytes() == before
    assert not np.shares_memory(out, w)


# transient peak of one 128^2 step in planes of n1 n2 float64, measured
# 10.43 (ETDRK2) and 17.15 (IFRK4): a tendency's 7.1 planes on top of the
# stage tendencies and sums the step holds. The margin is smaller than any
# band stack (1.3 planes) or band table (0.3 planes) a step could add.
STEP_PEAK_PLANES = {"etdrk2": 10.6, "ifrk4": 17.3}


@pytest.mark.parametrize("scheme", ("etdrk2", "ifrk4"))
def test_step_transient_peak(scheme):
    cfg = SolverConfig(n1=128, n2=128, dt=0.02, t_end=0.04, scheme=scheme,
                       data_kind="random", data_delta=0.5, seed=3)
    st = initial_state(cfg)
    w = _band(st, st.grid)
    stepper = _Stepper(st.grid, cfg)
    stepper.advance(w)
    out, peak = traced_peak(stepper.advance, w)
    assert out.shape == w.shape
    assert peak <= STEP_PEAK_PLANES[scheme] * 8 * 128 * 128, peak / (8 * 128 * 128)


@pytest.mark.parametrize("n1,n2", ODD_GRIDS)
def test_potential_roundtrip(n1, n2):
    g = make_grid(n1, n2, L1, L2)
    st = random_div_free_state(g, seed=n1 * n2)
    w = _potentials(g, st.u, n2 // 2 + 1)
    assert w.shape == (2, n1, n2 // 2 + 1)
    back = from_potentials(g, w, st.time)
    scale = np.max(np.abs(st.u))
    assert np.max(np.abs(back.u - st.u)) <= 1e-14 * scale
    assert hermitian_defect(g, back.u) == 0.0
    assert max(divergence_defect(g, back.u)) <= 1e-15 * scale * np.max(np.sqrt(g.xi_sq))
    assert np.all(back.u[:, 0, 0] == 0.0)
    back.validate()


@pytest.mark.parametrize("l1,l2", ((L1, L2), (32.0 * np.pi, 32.0 * np.pi)),
                         ids=("box", "box32pi"))
@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((256, 256),))
def test_built_states_are_exact_by_construction(n1, n2, l1, l2):
    # every constructor goes through from_potentials, so each property holds
    # exactly, not to roundoff; prop25 data needs the large box to be resolved.
    # The band-width inverse curl of the stepper's entry and re-anchor gives
    # the leading columns of the full-width one bit for bit.
    g = make_grid(n1, n2, l1, l2)
    base = dict(n1=n1, n2=n2, l1=l1, l2=l2, dt=0.1, t_end=0.2, seed=n1)
    states = [random_div_free_state(g, seed=n2, amplitude=2.0),
              initial_state(SolverConfig(data_kind="random", **base))]
    if l1 == 32.0 * np.pi:
        states.append(initial_state(SolverConfig(data_kind="prop25", **base)))
    states += diagnostics.gaussian_divfree_family(g)
    states += [diagnostics.single_mode_state(g, k1, k2, pair)
               for k1, k2 in ((2, 1), (-3, 0), (1, -4), (0, 5)) for pair in ("v", "B")]
    for st in states:
        assert hermitian_defect(g, st.u) == 0.0
        assert np.all(st.u[:, 0, 0] == 0.0)
        assert np.all(st.u[:, ~g.dealias_mask] == 0.0)
        assert np.max(np.abs(st.u)) > 0.0
        st.validate()
        band = _potentials(g, st.u, g.n2 // 2 + 1)[..., : g.band_cols]
        assert np.array_equal(_potentials(g, st.u, g.band_cols), band)
        assert np.array_equal(_band(st, g), band)


@pytest.mark.parametrize("n1,n2", ODD_GRIDS)
def test_restart_through_snapshot_matches(n1, n2, tmp_path):
    base = dict(n1=n1, n2=n2, l1=L1, l2=L2, dt=0.02, data_kind="random",
                data_delta=0.5, seed=7)
    whole = run(SolverConfig(t_end=0.2, output_every=0.1, **base))
    first = run(SolverConfig(t_end=0.1, output_every=0.1, **base))
    path = tmp_path / "mid.bin"
    save_state(first.final_state, path)
    second = run(SolverConfig(t_end=0.1, output_every=0.1, **base), initial=load_state(path))
    assert second.times[-1] == pytest.approx(0.2)
    want = whole.final_state.u
    assert np.max(np.abs(second.final_state.u - want)) <= 1e-13 * np.max(np.abs(want))


class PlaneCounter:
    """Counts the 2-D planes each numpy.fft function transforms."""

    NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")

    def __init__(self, monkeypatch):
        self.planes = {}
        self.inputs = []
        for name in self.NAMES:
            monkeypatch.setattr(np.fft, name, self._counted(name, getattr(np.fft, name)))

    def _counted(self, name, fn):
        def wrapper(a, *args, **kwargs):
            a = np.asarray(a)
            self.planes[name] = self.planes.get(name, 0) + a.size // (a.shape[-2] * a.shape[-1])
            self.inputs.append((name, a.shape[-2:]))
            return fn(a, *args, **kwargs)
        return wrapper


@pytest.mark.parametrize("scheme,tendencies", (("etdrk2", 2), ("ifrk4", 4)),
                         ids=("etdrk2", "ifrk4"))
def test_step_transforms_fourteen_half_planes(monkeypatch, scheme, tendencies):
    cfg = SolverConfig(n1=40, n2=64, l1=L1, l2=L2, dt=0.02, t_end=0.04, scheme=scheme,
                       data_kind="random", data_delta=0.5, seed=1)
    st = initial_state(cfg)
    g = cfg.grid()
    fft = PlaneCounter(monkeypatch)
    _Stepper(g, cfg).advance(_band(st, g))
    # each tendency: 4 inverse (v1, B1, v2, B2) and 3 forward (T22 - T11, T12,
    # N_a), each as a column pass over the kc = 22 band columns and a row pass
    assert fft.planes == {"ifftn": 4 * tendencies, "irfftn": 4 * tendencies,
                          "rfftn": 3 * tendencies, "fftn": 3 * tendencies}
    want = {"ifftn": (40, 22), "irfftn": (40, 22), "rfftn": (40, 64), "fftn": (40, 22)}
    assert all(shape == want[name] for name, shape in fft.inputs)


def test_sample_transforms_three_half_planes(monkeypatch):
    st = random_div_free_state(make_grid(40, 64, L1, L2), seed=2)
    fft = PlaneCounter(monkeypatch)
    diagnostics.instantaneous(st.grid, st.u, 4)
    assert fft.planes == {"irfft2": 3}



def full_spectrum_record(state, m):
    """Every field of ``instantaneous`` as full-spectrum sums over all n1 n2 modes."""
    g = state.grid
    u = state.u
    cal = 4.0 * np.pi**2
    wm1 = multi_index_weight(g, m - 1)
    wm = multi_index_weight(g, m)
    absu2 = np.abs(u) ** 2
    absxi = np.sqrt(g.xi_sq)
    absxi1 = np.broadcast_to(np.abs(g.xi1), g.shape)
    col = absxi1 > 0.0
    rows = np.abs(g.xi1[:, 0]) > 0.0
    nz = absxi > 0.0
    d1 = [coeff_derivative(g, u[c], 1) for c in range(4)]
    fields = to_physical(SpectralState(g, np.stack([u[3], d1[0], d1[1], u[0]])))
    i1 = g.area * np.sum(wm * np.real(d1[2] * np.conj(u[0]) + d1[3] * np.conj(u[1])))
    i2 = g.area * np.sum(wm * np.real(d1[0] * np.conj(u[2]) + d1[1] * np.conj(u[3])))
    total = np.sum(absu2, axis=0)
    r1, r2, r3 = region_masks(np.broadcast_to(g.xi1, g.shape))

    mag = np.sqrt(total)
    w = np.zeros(g.shape)
    w[nz] = np.sqrt(absxi1[nz]) / absxi[nz]
    inner = g.l1 * g.l2 * np.sum(w * mag, axis=1) * g.dxi[1]
    bmag = np.sqrt(absu2[2] + absu2[3])
    hm = np.sqrt(sum(sobolev_norm(g, u[c], m) ** 2 for c in range(4)))
    xm = (hm + np.sqrt(np.sum(inner**2) * g.dxi[0]) + cal * np.sum(bmag[nz] / absxi[nz])
          + cal * np.sum(bmag[col] / np.sqrt(absxi1[col])))

    b2 = np.abs(u[3])
    v2 = np.abs(u[1])
    v2_inner = g.l1 * g.l2 * np.sum(v2, axis=1) * g.dxi[1]
    hm_v_sq = g.area * np.sum(wm * (absu2[0] + absu2[1]))
    hm_b_sq = g.area * np.sum(wm * (absu2[2] + absu2[3]))
    return dict(
        t=state.time,
        E=np.sqrt(hm_v_sq + hm_b_sq),
        A=g.area * np.sum(wm1 * g.xi1 * np.imag(u[2] * np.conj(u[0]) + u[3] * np.conj(u[1]))),
        sup_d1v=np.max(np.sqrt(fields[1] ** 2 + fields[2] ** 2)),
        sup_B2=np.max(np.abs(fields[0])),
        xm=xm,
        l2_v1=np.sqrt(g.area * np.sum(absu2[0])),
        l2_v2=np.sqrt(g.area * np.sum(absu2[1])),
        l2_B1=np.sqrt(g.area * np.sum(absu2[2])),
        l2_B2=np.sqrt(g.area * np.sum(absu2[3])),
        e_residual=0.0,
        cancel_residual=abs(i1 + i2) / max(abs(i1), abs(i2)),
        mass_omega1=g.area * np.sum(total[r1]),
        mass_omega2=g.area * np.sum(total[r2]),
        mass_omega3=g.area * np.sum(total[r3]),
        hm_v_sq=hm_v_sq,
        hm_b_sq=hm_b_sq,
        hm1_d1b_sq=g.area * np.sum(wm1 * g.xi1**2 * (absu2[2] + absu2[3])),
        h_d1b2_l1=cal * np.sum(absxi1 * b2),
        h_b2_l1=cal * np.sum(b2),
        h_gradb2_l1=cal * np.sum(absxi * b2),
        h_d1v_l1=cal * np.sum(absxi1 * np.sqrt(absu2[0] + absu2[1])),
        h_v2_half_sq=np.sum(v2_inner[rows] ** 2 / np.abs(g.xi1[rows, 0])) * g.dxi[0],
        h_v2_half_l1=cal * np.sum(v2[col] / np.sqrt(absxi1[col])),
    )


def with_nyquist_content(state, seed):
    """The state plus the real Nyquist entries a Hermitian, divergence-free
    state may carry: v1 and B1 at (0, -n2/2), v2 and B2 at (-n1/2, 0), and
    both pairs at the corner (-n1/2, -n2/2)."""
    g = state.grid
    u = state.u.copy()
    ny1, ny2 = g.n1 // 2, g.n2 // 2
    scale = np.max(np.abs(u))
    a, b, c, d, e, f = np.random.default_rng(seed).standard_normal(6) * scale
    u[0, 0, ny2], u[2, 0, ny2] = a, b
    u[1, ny1, 0], u[3, ny1, 0] = c, d
    for pair, amp in ((0, e), (2, f)):
        k = amp / np.sqrt(g.xi_sq[ny1, ny2])
        u[pair, ny1, ny2], u[pair + 1, ny1, ny2] = g.xi2[0, ny2] * k, -g.xi1[ny1, 0] * k
    out = SpectralState(g, u, state.time)
    out.validate()
    return out


@pytest.mark.parametrize("n1,n2", ODD_GRIDS)
@pytest.mark.parametrize("m", (1, 2, 4))
def test_sample_matches_full_spectrum_sums(n1, n2, m):
    g = make_grid(n1, n2, L1, L2)
    for seed in range(3):
        st = random_div_free_state(g, seed=100 * seed + m, amplitude=2.0)
        # the Nyquist column counts once, and the row sums must not fold it twice
        st = with_nyquist_content(st, seed) if seed == 2 else st
        got = diagnostics.instantaneous(g, st.u, m)
        want = full_spectrum_record(st, m)
        assert set(want) == {f.name for f in dataclasses.fields(got)}
        assert got.cancel_residual <= 1e-10 and want["cancel_residual"] <= 1e-10
        assert abs(got.A - want["A"]) <= 1e-13 * got.E**2
        for name, value in want.items():
            if name not in ("A", "cancel_residual"):
                assert abs(getattr(got, name) - value) <= 1e-13 * abs(value), name


def full_gather_defect(grid, u):
    """Max |u(-k) - conj(u(k))| with the mirror gathered over the whole 2-D grid."""
    rev1 = (-np.arange(grid.n1)) % grid.n1
    rev2 = (-np.arange(grid.n2)) % grid.n2
    return float(np.max(np.abs(u - np.conj(u[:, rev1[:, None], rev2[None, :]]))))


@pytest.mark.parametrize("n1,n2", ODD_GRIDS)
def test_hermitian_defect_matches_full_gather(n1, n2):
    g = make_grid(n1, n2, L1, L2)
    base = random_div_free_state(g, seed=n1 + 2 * n2).u
    assert hermitian_defect(g, base) == full_gather_defect(g, base)
    rng = np.random.default_rng(n1 * n2)
    ny1, ny2 = n1 // 2, n2 // 2
    entries = [(int(rng.integers(n1)), int(rng.integers(ny2 + 1, n2))) for _ in range(4)]
    entries += [(int(rng.integers(n1)), 0) for _ in range(3)] + [(0, 0), (ny1, 0)]
    entries += [(ny1, int(rng.integers(n2))) for _ in range(3)] + [(ny1, ny2)]
    entries += [(int(rng.integers(n1)), ny2) for _ in range(3)]
    for c, (k1, k2) in enumerate(entries):
        u = base.copy()
        u[c % 4, k1, k2] += complex(*rng.standard_normal(2))
        got = hermitian_defect(g, u)
        assert got > 0.0
        assert got == full_gather_defect(g, u), (k1, k2)


def test_run_transforms_only_half_planes(monkeypatch):
    n = 3
    cfg = SolverConfig(n1=40, n2=64, l1=L1, l2=L2, dt=0.02, t_end=n * 0.02,
                       data_kind="random", data_delta=0.5, seed=1)
    st = initial_state(cfg)
    fft = PlaneCounter(monkeypatch)
    traj = run(cfg, initial=st)
    assert len(traj.records) == n + 1
    # n steps as 1-D passes, n + 1 samples and the advective bound at t = 0
    assert fft.planes == {"ifftn": 8 * n, "irfftn": 8 * n, "rfftn": 6 * n, "fftn": 6 * n,
                          "irfft2": 3 * (n + 1) + 4}


@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((256, 256),))
def test_components_are_the_leading_columns_of_from_potentials(n1, n2):
    # the sample's band columns are the built state's, bit for bit, also for a
    # stack with an asymmetric k2 = 0 column, which both mirror the same way
    g = make_grid(n1, n2, L1, L2)
    rng = np.random.default_rng(n1 + n2)
    nh = n2 // 2 + 1
    stacks = [_potentials(g, random_div_free_state(g, seed=n1).u, nh),
              rng.standard_normal((2, n1, nh)) + 1j * rng.standard_normal((2, n1, nh))]
    for w in stacks:
        for kc in (g.band_cols, nh):
            h = _components(g, w[..., :kc])
            assert h.shape == (4, n1, kc)
            assert np.array_equal(h, from_potentials(g, w[..., :kc]).u[..., :kc])


def record_states():
    g = make_grid(40, 64, L1, L2)
    prop = SolverConfig(n1=64, n2=48, l1=32.0 * np.pi, l2=24.0 * np.pi, dt=0.02,
                        t_end=0.04, data_kind="prop25")
    return ([random_div_free_state(g, seed=4, amplitude=2.0), initial_state(prop)]
            + diagnostics.gaussian_divfree_family(make_grid(50, 70, 16.0 * np.pi, 20.0 * np.pi))
            + [diagnostics.single_mode_state(g, 3, 5, "B"),
               diagnostics.single_mode_state(g, 2, 0, "v")])


@pytest.mark.parametrize("m", (1, 2, 4))
def test_band_record_matches_state_record(m):
    # a run records the components of its band stack on kc columns; they give
    # the whole state's record to roundoff, field by field
    for st in record_states():
        g, kc = st.grid, st.grid.band_cols
        want = diagnostics.instantaneous(g, st.u, m, time=0.5)
        for h in (st.u[:, :, :kc], _components(g, _potentials(g, st.u, kc))):
            got = diagnostics.instantaneous(g, h, m, time=0.5)
            assert got.t == 0.5
            assert got.cancel_residual <= 1e-13 and want.cancel_residual <= 1e-13
            assert abs(got.A - want.A) <= 1e-15 * want.E**2
            for f in dataclasses.fields(got):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if f.name not in ("A", "cancel_residual"):
                    assert abs(a - b) <= 1e-15 * max(abs(a), abs(b)), f.name


def oracle_states(g, m):
    """A random state, the same with Nyquist content, and prop25 data on a
    32 pi box of the same sizes, as the benchmark's runs start from."""
    st = random_div_free_state(g, seed=g.n1 + m, amplitude=2.0)
    prop = SolverConfig(n1=g.n1, n2=g.n2, l1=32.0 * np.pi, l2=32.0 * np.pi, dt=0.02,
                        t_end=0.04, m=m, data_kind="prop25")
    return [st, with_nyquist_content(st, m), initial_state(prop)]


@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((128, 128), (256, 256)))
@pytest.mark.parametrize("m", (1, 2, 4))
def test_record_matches_the_oracle_within_roundoff(n1, n2, m):
    # one contraction per weighted total over tables built once, against the
    # product arrays and np.sum of the per-call tables: not bitwise, but a few
    # ulps on every field, from band columns and from whole states alike
    for st in oracle_states(make_grid(n1, n2, L1, L2), m):
        g = st.grid
        for h in (st.u, _components(g, _potentials(g, st.u, g.band_cols))):
            got = diagnostics.instantaneous(g, h, m, time=0.5, energy_residual=1e-9)
            want = oracle_record(g, h, m, time=0.5, energy_residual=1e-9)
            assert abs(got.A - want.A) <= 1e-15 * want.E**2
            assert got.cancel_residual <= 1e-13 and want.cancel_residual <= 1e-13
            for f in dataclasses.fields(got):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if f.name not in ("A", "cancel_residual"):
                    assert abs(a - b) <= 5e-15 * abs(b), (f.name, a, b)
        # and the X^m norm of the whole state on its own
        h = st.u[:, :, :g.n2 // 2 + 1]
        want = oracle_xm(g, h.real**2 + h.imag**2, m)
        got = diagnostics.anisotropic_norm(st, m)
        assert abs(got - want) <= 5e-15 * want, (got, want)


def test_a_run_builds_its_record_weights_once(monkeypatch):
    # initial_state's E(0) builds them; every record of the run reuses them,
    # and they go with the run's grid
    real = diagnostics.RecordWeights
    built = []

    def counted(grid, m, kc):
        built.append((m, kc))
        return real(grid, m, kc)

    monkeypatch.setattr(diagnostics, "RecordWeights", counted)
    diagnostics._WEIGHTS.clear()
    cfg = SolverConfig(n1=40, n2=64, l1=L1, l2=L2, dt=0.02, t_end=0.08, m=2,
                       data_kind="random", data_delta=0.5, seed=5)
    traj = run(cfg)
    assert len(traj.records) == 5 and built == [(2, cfg.grid().band_cols)]
    assert len(diagnostics._WEIGHTS) == 1
    del traj
    gc.collect()
    assert len(diagnostics._WEIGHTS) == 0


def test_record_transient_peak_and_weights_size():
    # one 128^2 band-column record peaked at 1.67 MB when it built its tables
    # on every call; with the run's weights already built about 0.93 MB, and
    # about 1.24 MB when it builds them itself. A run's weights at 256^2 are
    # seven (256, 86) tables, 1.25 MB.
    cfg = SolverConfig(n1=128, n2=128, l1=32.0 * np.pi, l2=32.0 * np.pi, dt=0.02,
                       t_end=0.04, data_kind="random", data_delta=0.5, seed=3)
    g = cfg.grid()
    h = _components(g, _band(initial_state(cfg, g), g))
    for cleared in (False, True):
        diagnostics.instantaneous(g, h, cfg.m)
        if cleared:
            diagnostics._WEIGHTS.clear()
        _, peak = traced_peak(lambda: diagnostics.instantaneous(g, h, cfg.m))
        assert peak <= 1.7e6, (cleared, peak)
    big = make_grid(256, 256, 32.0 * np.pi, 32.0 * np.pi)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = diagnostics.RecordWeights(big, 4, big.band_cols)
        size = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held.hm.shape == (256, 86)
    assert size <= 1.3e6, size


def test_record_rejects_components_of_another_shape():
    g = make_grid(40, 64, L1, L2)
    st = random_div_free_state(g, seed=1)
    w = _potentials(g, st.u, g.band_cols)
    for bad in (w, st.u[0], st.u[:, :20], np.swapaxes(st.u, 1, 2), st.u[None]):
        with pytest.raises(ConfigError, match="shape"):
            diagnostics.instantaneous(g, bad, 4)


def test_unkept_samples_build_no_state(monkeypatch):
    n = 5
    cfg = SolverConfig(n1=40, n2=64, l1=L1, l2=L2, dt=0.02, t_end=n * 0.02,
                       data_kind="random", data_delta=0.5, seed=1)
    st = initial_state(cfg)
    real = SpectralState.__post_init__
    built = []

    def counted(self):
        built.append(self.time)
        return real(self)

    monkeypatch.setattr(SpectralState, "__post_init__", counted)
    # the copy of the t = 0 state and the last sample, not one per sample
    traj = run(cfg, initial=st)
    assert len(traj.records) == n + 1
    assert built == [0.0, traj.times[-1]]
    assert [s is not None for s in traj.states] == [True] + [False] * (n - 1) + [True]
    built.clear()
    run(cfg, initial=st, keep_states=True)
    assert len(built) == n + 1


def test_run_copies_only_a_callers_initial_state(monkeypatch):
    cfg = SolverConfig(n1=40, n2=64, l1=L1, l2=L2, dt=0.02, t_end=0.04,
                       data_kind="random", data_delta=0.5, seed=2)
    st = initial_state(cfg)
    before = st.u.copy()
    traj = run(cfg, initial=st)
    # what the caller does with its state later does not reach the trajectory
    st.u[...] = 0.0
    st.time = 3.0
    assert traj.states[0] is not st and traj.states[0].time == 0.0
    assert np.array_equal(traj.states[0].u, before)
    # a state run built itself is stored as it is: no copy at t = 0
    real = SpectralState.__post_init__
    built = []

    def counted(self):
        built.append(self.time)
        return real(self)

    monkeypatch.setattr(SpectralState, "__post_init__", counted)
    own = run(cfg)
    assert built == [0.0, own.times[-1]]
    assert np.array_equal(own.states[0].u, before)
    # t = 0 is recorded from the band columns, like every later sample
    w = _band(own.states[0], own.states[0].grid)
    want = diagnostics.instantaneous(own.states[0].grid, _components(own.states[0].grid, w),
                                     cfg.m)
    assert own.records[0] == want


def test_run_validates_only_states_that_leave_it(monkeypatch):
    n = 3
    cfg = SolverConfig(n1=40, n2=64, l1=L1, l2=L2, dt=0.02, t_end=n * 0.02,
                       data_kind="random", data_delta=0.5, seed=1)
    st = initial_state(cfg)
    real = SpectralState.validate
    calls = []

    def counted(self):
        calls.append(self.time)
        return real(self)

    real_fault = solver._column_fault
    entries = []

    def entry_counted(grid, u, **kw):
        entries.append(kw.get("band", False))
        return real_fault(grid, u, **kw)

    monkeypatch.setattr(SpectralState, "validate", counted)
    monkeypatch.setattr(solver, "_column_fault", entry_counted)
    # the entry check (_band's pass, with the 2/3 band) covers the t = 0
    # sample; later samples check the band stack, and only a kept or the last
    # state passes validate() as well
    assert len(run(cfg, initial=st).records) == n + 1
    assert calls == [pytest.approx(n * 0.02)]
    assert entries == [True] + [False] * n
    calls.clear()
    run(cfg, initial=st, keep_states=True)
    assert len(calls) == n
    # a kept state that fails validate() ends the run as an integrity failure
    # that carries the samples taken before it

    def failing(self):
        if self.time > 0.0:
            raise ConfigError("injected validate failure")
        return real(self)

    monkeypatch.setattr(SpectralState, "validate", failing)
    with pytest.raises(DiagnosticIntegrityError, match="injected") as info:
        run(cfg, initial=st)
    assert len(info.value.trajectory.records) == n


@pytest.mark.parametrize("why", ("Hermitian", "mean"))
def test_sample_band_check_sees_what_validate_cannot(monkeypatch, why):
    cfg = SolverConfig(n1=40, n2=64, l1=L1, l2=L2, dt=0.02, t_end=0.1,
                       data_kind="random", data_delta=0.5, seed=4)
    g = cfg.grid()
    st = initial_state(cfg, g)

    def corrupt(w):
        # an unmirrored k2 = 0 entry, or a mean: the curl map's mirror and its
        # zero wavenumber hide both from the state built from w
        if why == "Hermitian":
            w[0, 3, 0] += np.max(np.abs(w))
        else:
            w[1, 0, 0] = np.max(np.abs(w))

    w = _band(st, g)
    corrupt(w)
    from_potentials(g, w).validate()
    # the second step's stack goes bad, after the samples at t = 0 and dt
    real = _Stepper.advance
    steps = []

    def advance(self, w):
        out = real(self, w)
        steps.append(1)
        if len(steps) == 2:
            corrupt(out)
        return out

    monkeypatch.setattr(_Stepper, "advance", advance)
    with pytest.raises(DiagnosticIntegrityError, match=why) as info:
        run(cfg, initial=st)
    assert info.value.trajectory.times == pytest.approx([0.0, 0.02])


def test_run_and_step_reject_states_outside_the_dealias_band(tmp_path):
    cfg = SolverConfig(n1=40, n2=64, l1=L1, l2=L2, dt=0.02, t_end=0.04,
                       data_kind="random", data_delta=0.5, seed=3)
    g = cfg.grid()
    w = _potentials(g, initial_state(cfg, g).u, g.n2 // 2 + 1)
    k2 = -(-g.n2 // 3)  # first half-spectrum column the 2/3 rule drops
    assert not g.half_dealias_mask[1, k2]
    w[0, 1, k2] = np.max(np.abs(w))
    st = from_potentials(g, w)
    st.validate()
    with pytest.raises(ConfigError, match="dealias band"):
        run(cfg, initial=st)
    # in-band states that fail validate() are rejected at the same entry: a
    # gradient part (with its conjugate), an unmirrored divergence-free mode
    # and a mean; and the same array on another box
    base = initial_state(cfg, g)
    amp = 1e-2 * np.max(np.abs(base.u))
    grad = 1j * amp * np.array([g.xi1[1, 0], g.xi2[0, 1]])
    divergent, unmirrored, mean = base.copy(), base.copy(), base.copy()
    divergent.u[0:2, 1, 1] += grad
    divergent.u[0:2, -1, -1] += np.conj(grad)
    unmirrored.u[0:2, 1, 1] += amp * np.array([g.xi2[0, 1], -g.xi1[1, 0]])
    mean.u[0, 0, 0] += amp
    for bad, why in ((divergent, "divergence"), (unmirrored, "Hermitian"), (mean, "mean")):
        with pytest.raises(ConfigError, match=why):
            run(cfg, initial=bad)
    elsewhere = SpectralState(make_grid(g.n1, g.n2, 2.0 * L1, L2), base.u)
    with pytest.raises(ConfigError, match="grid"):
        run(cfg, initial=elsewhere)
    # a snapshot of a run lies inside the band and runs on
    path = tmp_path / "end.bin"
    save_state(run(cfg).final_state, path)
    again = run(cfg, initial=load_state(path))
    assert again.times[-1] == pytest.approx(0.08)
