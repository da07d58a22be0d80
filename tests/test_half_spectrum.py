"""The (psi, a) half-spectrum form of the solver on odd grid geometries.

Grids with n1 != n2, l1 != l2 and n not divisible by 3, where an index or
wavenumber mix-up between the two axes, or an off-by-one in the Hermitian
mirror or the dealias cutoff, cannot cancel out.
"""

import gc
import itertools
import sys
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from mhd2d import diagnostics, modes, propagator, solver, spectral
from mhd2d.errors import ConfigError, DiagnosticIntegrityError
from mhd2d.modes import region_masks
from mhd2d.propagator import phi_block_entries
from mhd2d.solver import (
    SolverConfig,
    Trajectory,
    _band,
    _nonlinear,
    _Stepper,
    initial_state,
    run,
)
from mhd2d.spectral import (
    SpectralGrid,
    SpectralState,
    _components,
    divergence_defect,
    hermitian_defect,
    load_state,
    random_div_free_state,
    save_state,
)
from reference import (
    check_components,
    coeff_derivative,
    dealias_mask,
    full_sobolev_norm,
    full_spectrum,
    full_xi,
    gathered_from_potentials,
    irfft2_dt_bound,
    _xm as oracle_xm,
    instantaneous as oracle_record,
    leray_project,
    multi_index_weight,
    phi_fixed_series,
    physical_fields,
    scaled_random_state,
    stress_tendency,
    tendency,
    tendency_args,
    traced_peak,
)

L1, L2 = 2.0 * np.pi, 3.0 * np.pi
ODD_GRIDS = ((40, 64), (64, 38), (50, 70))


def projected_tendency(grid, u):
    """The four-component tendency: advective products of the full-spectrum
    fields of half-spectrum components ``u``, dealiased, with both pairs
    Leray-projected and the mean zeroed, on the half spectrum."""
    n = grid.n1 * grid.n2
    u = full_spectrum(grid, u)

    def phys(c):
        return np.real(np.fft.ifft2(c)) * n

    v1, v2, B1, B2 = (phys(u[c]) for c in range(4))
    d1 = [phys(coeff_derivative(grid, u[c], 1)) for c in range(4)]
    d2 = [phys(coeff_derivative(grid, u[c], 2)) for c in range(4)]
    prod = np.empty((4,) + grid.shape)
    for c, (f, g) in enumerate(((0, 2), (1, 3), (2, 0), (3, 1))):
        # N_v = -(v.grad)v + (B.grad)B, N_B = -(v.grad)B + (B.grad)v
        prod[c] = -(v1 * d1[f] + v2 * d2[f]) + (B1 * d1[g] + B2 * d2[g])
    out = leray_project(grid, np.fft.fft2(prod) / n * dealias_mask(grid))
    out[:, 0, 0] = 0.0
    return out[..., :grid.n2 // 2 + 1]


# plus the criterion-7 grid and twice it, where product roundoff grows
@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((256, 256), (512, 512)))
def test_tendency_matches_projected_four_component_form(n1, n2):
    g = SpectralGrid(n1, n2, L1, L2)
    st = scaled_random_state(g, n1 + n2, 3.0)
    want = projected_tendency(g, st.u)
    got = tendency(st)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def half_spectrum_tendency(grid, w):
    """The Elsasser-form tendency through one 4-plane ``irfft2`` and one 3-plane
    ``rfft2`` over the whole half spectrum, with the solver's arithmetic."""
    xi1, xi2, xi_sq = grid.xi1, grid.half_xi2, grid.half_xi_sq
    finish = np.divide(grid.half_dealias_mask, xi_sq, out=np.zeros(xi_sq.shape),
                       where=xi_sq > 0.0)
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
    g = SpectralGrid(n1, n2, L1, L2)
    kc = g.band_cols
    assert kc == int(np.count_nonzero(g.half_dealias_mask.any(axis=0)))
    w = scaled_random_state(g, n1 + n2, 3.0).w
    assert np.all(w[..., kc:] == 0.0)
    got = _nonlinear(g, w[..., :kc].copy(), *tendency_args(g))
    assert got.shape == (2, n1, kc)
    padded = np.zeros_like(w)
    padded[..., :kc] = got
    assert np.array_equal(padded, half_spectrum_tendency(g, w))


@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((256, 256),))
def test_tendency_result_owns_a_compact_stack(n1, n2):
    # the forward column pass writes N_psi and N_a into an array of their own,
    # so a stage tendency keeps neither the third plane nor the workspace
    g = SpectralGrid(n1, n2, L1, L2)
    w = _band(scaled_random_state(g, n1 + n2, 3.0), g)
    tables, work = tendency_args(g)
    got = _nonlinear(g, w, tables, work)
    assert got.shape == (2, n1, g.band_cols) and got.dtype == np.complex128
    assert got.flags.c_contiguous and got.flags.owndata
    assert not np.shares_memory(got, w) and not np.shares_memory(got, work)


@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((256, 256), (100, 600)))
def test_tendency_allocates_only_its_result(n1, n2):
    # every pass and product runs in the workspace, on contiguous operands of
    # one dtype, so numpy's iterator allocates no buffers; what is left above
    # the result is the call's few small Python objects. 256^2 runs four
    # blocks of rows, 100 x 600 three of 27 and a short one of 19
    g = SpectralGrid(n1, n2, L1, L2)
    w = _band(scaled_random_state(g, n1 + n2, 3.0), g)
    tables, work = tendency_args(g)
    want = _nonlinear(g, w, tables, work)
    work[:] = np.nan  # nothing is read from the workspace before it is written
    got, peak = traced_peak(_nonlinear, g, w, tables, work)
    assert got.tobytes() == want.tobytes()
    assert got.nbytes <= peak <= got.nbytes + 8192, peak - got.nbytes


@pytest.mark.parametrize("n1,n2", ODD_GRIDS)
@pytest.mark.parametrize("rows", (1, 5, "half"))
def test_blocks_of_rows_give_the_one_block_results(n1, n2, rows, monkeypatch):
    # with the block budget cut to ``rows`` rows of four planes (a record's
    # three planes take a third more), the tendency, the record, in a
    # stepper's workspace and in its own buffer, and the advective bound
    # equal their one-block values bit for bit; a record of a whole state
    # makes its own buffer, as a stepper's holds band columns
    rows = n1 // 2 if rows == "half" else rows
    cfg = SolverConfig(n1=n1, n2=n2, l1=L1, l2=L2, dt=0.02, t_end=0.04,
                       data_kind="random", data_delta=0.5, seed=n2)
    g = cfg.grid()
    st = initial_state(cfg, g)
    w = _band(st, g)
    h = _components(g, w)

    def results():
        tables, work = tendency_args(g)
        n = _nonlinear(g, w, tables, work)
        records = [diagnostics.instantaneous(g, c, cfg.m, time=0.5, energy_residual=1e-9,
                                             work=buf) for c, buf in ((h, work), (h, None),
                                                                      (st.u, None))]
        return n, records, solver.advective_dt_bound(st), work.size

    assert spectral._block_rows(g, 4) == n1
    n, records, bound, size = results()
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", 8 * 4 * n2 * rows)
    assert spectral._block_rows(g, 4) == rows
    n_b, records_b, bound_b, size_b = results()
    assert n_b.tobytes() == n.tobytes()
    for got, want in zip(records_b, records):
        assert np.array(got).tobytes() == np.array(want).tobytes()
    assert np.float64(bound_b).tobytes() == np.float64(bound).tobytes()
    assert size_b < size


def test_record_refuses_a_workspace_too_small(monkeypatch):
    # a stepper's workspace holds a record on the band columns; a whole
    # state's record does not fit in it on a grid that runs blocks of 5
    # rows, and is refused with the size it needs, not by a bare reshape
    cfg = SolverConfig(n1=50, n2=70, l1=L1, l2=L2, dt=0.02, t_end=0.04,
                       data_kind="random", data_delta=0.5, seed=70)
    g = cfg.grid()
    st = initial_state(cfg, g)
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", 8 * 4 * g.n2 * 5)
    work = tendency_args(g)[1]
    need = diagnostics._record_size(g, g.n2 // 2 + 1)
    assert work.size == 6040 < need
    with pytest.raises(ConfigError, match=f"needs a work buffer of {need} complex "
                                          f"elements, got {work.size}"):
        diagnostics.instantaneous(g, st.u, cfg.m, work=work)
    diagnostics.instantaneous(g, _components(g, _band(st, g)), cfg.m, work=work)


@pytest.mark.parametrize("n1,n2,nbytes", ((128, 128, 1_275_904), (256, 256, 2_329_600)))
def test_stepper_workspace_size(n1, n2, nbytes):
    # 4 n1 kc + max(n1 kc, (3 (n2/2 + 1) + 2 n2) rows) elements, in blocks of
    # rows = 128 rows at 128^2 and 64 at 256^2; it holds a record on the band
    # columns
    g = SpectralGrid(n1, n2, L1, L2)
    work = tendency_args(g)[1]
    assert work.nbytes == nbytes and work.dtype == np.complex128
    assert work.size >= diagnostics._record_size(g, g.band_cols)


@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((256, 256),))
def test_elsasser_tendency_matches_stress_form(n1, n2):
    # four Elsasser products instead of the stress form's eight: the same
    # tendency up to product roundoff
    g = SpectralGrid(n1, n2, L1, L2)
    w = _band(scaled_random_state(g, n1 + n2, 3.0), g)
    want = stress_tendency(g, w)
    got = _nonlinear(g, w, *tendency_args(g))
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def _pairing(x, y, weight):
    """sum weight Re(conj(x) y) over the product of the weighted norms of x
    and y, so at most 1 in size (Cauchy-Schwarz)."""
    dot = np.sum(weight * np.real(np.conj(x) * y))
    return dot / np.sqrt(np.sum(weight * np.abs(x) ** 2) * np.sum(weight * np.abs(y) ** 2))


# the largest pairing measured over these cases is 6.3e-16, on a prop25
# stack (3.2e-17 on random ones): the bound is the next power of ten above
# ten times it. A sign slip in the tendency makes a pairing of 5e-5 or
# more, and one multiplier off by 0.1% one of 2e-10 or more
PAIRING_BOUND = 1e-14


@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((64, 64), (256, 256)))
@pytest.mark.parametrize("kind", ("random", "prop25"))
@pytest.mark.parametrize("rows", (None, 5))
def test_tendency_conserves_the_three_quadratic_invariants(n1, n2, kind, rows, monkeypatch):
    # the truncated quadratic terms conserve the energy, the cross helicity
    # int v.B and the mean-square potential int a^2: each pairing of a band
    # stack with its tendency vanishes, over the full spectrum (the column
    # multiplicities), with one block of rows or several (256^2 takes four)
    square = n1 == n2
    box = (2.0 * np.pi, 2.0 * np.pi) if square else (L1, L2)
    if kind == "random":
        g = SpectralGrid(n1, n2, *box)
        w = _band(scaled_random_state(g, n1 + n2, 3.0), g)
    else:
        # v = B at t = 0 has no tendency; damping of v makes one. prop25's
        # support, |xi| < 1/4, needs a box 16 times as large
        cfg = SolverConfig(n1=n1, n2=n2, l1=16.0 * box[0], l2=16.0 * box[1], dt=0.02,
                           t_end=0.2, data_kind="prop25", data_delta=0.5)
        g = cfg.grid()
        w = _band(run(cfg).states[-1], g)
    if rows is not None:
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 8 * 4 * n2 * rows)
    n = _nonlinear(g, w, *tendency_args(g))
    kc = g.band_cols
    mult = g.half_mult[:kc]
    xi_sq = mult * g.half_xi_sq[:, :kc]
    assert np.max(np.abs(n)) > 0.0
    pairings = (_pairing(w, n, xi_sq), _pairing(w, n[::-1], xi_sq), _pairing(w[1], n[1], mult))
    assert max(abs(p) for p in pairings) <= PAIRING_BOUND, pairings


@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((40, 48),))
def test_band_weights_match_full_spectrum_sums(n1, n2):
    # the stepper's energy and dissipation sums run over the band columns
    # with column multiplicities; they must equal the full-spectrum sums
    cfg = SolverConfig(n1=n1, n2=n2, l1=L1, l2=L2, dt=0.02, t_end=0.04, alpha=0.5,
                       kappa=0.7, data_kind="random", data_delta=0.5, seed=5)
    st = initial_state(cfg)
    g, w = st.grid, _band(st, st.grid)
    stepper = _Stepper(g, cfg)
    u = full_spectrum(g, st.u)
    energy = 0.5 * g.area * np.sum(np.abs(u) ** 2)
    dissipation = cfg.kappa * g.area * np.sum(full_xi(g)[2]**cfg.alpha * np.abs(u[:2]) ** 2)
    assert stepper.half_l2_sq(w) == pytest.approx(energy, rel=1e-13)
    assert stepper.dissipation_rate(w) == pytest.approx(dissipation, rel=1e-13)


@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((128, 128), (256, 256)))
def test_stepper_tables_are_built_on_the_band(n1, n2, monkeypatch):
    # the block depends on xi1 only through xi1^2 and p12 is odd in xi1, so
    # phi_split runs on the rows k1 = 0 .. n1/2 only: with alpha = 0 once per
    # such row (once in all without coupling, where xi1 is zero), with
    # alpha != 0 once per band mode of those rows. Each table comes out as
    # (n1, 1) rows with alpha = 0 and in the band stack's shape otherwise,
    # and broadcast over the band it is, to the bit, the 48-term series
    # evaluated on every band mode, times h for phi1 and phi2: on a fixed
    # grid of configs and on seeded random alpha in (0, 1], dt in (0, 0.3].
    sizes = []
    split = propagator.phi_split

    def counted(*args):
        out = split(*args)
        sizes.append(out[2].size)
        return out

    g = SpectralGrid(n1, n2, L1, L2)
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
                    assert got.shape == (n1, kc if alpha != 0.0 else 1), case
                    assert got.flags.c_contiguous and got.flags.writeable
                    assert got.flags.owndata and got.dtype == dtype
                    assert np.array_equal(np.broadcast_to(got, want.shape), want), (case, name)
                    assert np.broadcast_to(got, want.shape).tobytes() == want.tobytes()


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


# transient peak of one step in planes of n1 n2 float64, measured at 128^2
# 5.392 (ETDRK2) and 8.092 (IFRK4) whatever ran before in the process
# (5.394-5.412 with the tests run together or alone before ``traced_peak``
# collected garbage and warmed five steps): the stage tendencies and sums
# the step holds, each tendency a compact 1.34 planes, and the block
# applications' temporaries, each stage array released at its last use
# (6.74 and 13.46 when they lived until the step returned). A tendency
# allocates only its result, as its scratch is the stepper's workspace
# (9.76 and 15.14 when each call made its own 7.1 planes). At 256^2 they
# measure 4.957 and 8.070 (6.30 and 13.02 before the releases). The
# margin is smaller than any band stack (1.3 planes) or band table (0.3
# planes) a step could add.
STEP_PEAK_PLANES = {(128, "etdrk2"): 5.45, (128, "ifrk4"): 8.1,
                    (256, "etdrk2"): 5.0, (256, "ifrk4"): 8.1}


@pytest.mark.parametrize("scheme", ("etdrk2", "ifrk4"))
def test_step_transient_peak(scheme):
    # 256^2 runs the tendency's physical phase in four blocks of 64 rows
    for n in (128, 256):
        cfg = SolverConfig(n1=n, n2=n, dt=0.02, t_end=0.04, scheme=scheme,
                           data_kind="random", data_delta=0.5, seed=3)
        st = initial_state(cfg)
        w = _band(st, st.grid)
        stepper = _Stepper(st.grid, cfg)
        # five steps bring the process's small-object caches to their steady
        # state; fewer leave the 128^2 reading up to 0.05 planes higher
        out, peak = traced_peak(stepper.advance, w, warm=5)
        assert out.shape == w.shape
        planes = peak / (8 * n * n)
        assert planes <= STEP_PEAK_PLANES[n, scheme], (n, planes)


@pytest.mark.parametrize("pairs", (1, 2), ids=("stack", "state"))
def test_block_application_peaks_at_one_temporary(pairs):
    # p12 B and then p22 B share one temporary of B's size; numpy's cast of
    # the real p11 and p22 to complex takes at most one more table's worth
    g = SpectralGrid(128, 128, L1, L2)
    kc = g.band_cols
    entries = propagator.grid_semigroup_entries(g, 0.02, kappa=1.0, alpha=0.0,
                                                coupling=True)
    rng = np.random.default_rng(pairs)
    u = rng.standard_normal((2 * pairs, 128, kc)) + 1j * rng.standard_normal((2 * pairs, 128, kc))
    out, peak = traced_peak(propagator.apply_block_entries, u, entries)
    assert out.shape == u.shape
    assert peak <= out.nbytes + u[pairs:].nbytes + 16 * 128 * kc + 4096, peak


@pytest.mark.parametrize("n1,n2", ODD_GRIDS)
def test_potential_roundtrip(n1, n2):
    # components out through the curl map, in through the oracle's inverse
    g = SpectralGrid(n1, n2, L1, L2)
    st = random_div_free_state(g, seed=n1 * n2)
    back = check_components(g, st.u)
    assert back.w.shape == (2, n1, n2 // 2 + 1)
    scale = np.max(np.abs(st.u))
    assert np.max(np.abs(back.u - st.u)) <= 1e-14 * scale
    assert np.max(np.abs(back.w - st.w)) <= 1e-14 * np.max(np.abs(st.w))
    assert hermitian_defect(g, back.u) == 0.0 and hermitian_defect(g, back.w) == 0.0
    assert max(divergence_defect(g, back.u)) <= 1e-15 * scale * np.max(np.sqrt(g.half_xi_sq))
    assert np.all(back.u[:, 0, 0] == 0.0)
    back.validate()


@pytest.mark.parametrize("l1,l2", ((L1, L2), (32.0 * np.pi, 32.0 * np.pi)),
                         ids=("box", "box32pi"))
@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((256, 256),))
def test_built_states_are_exact_by_construction(n1, n2, l1, l2):
    # every state's components come out of the curl map, so each property
    # holds exactly, not to roundoff, and its potentials are mean-free and
    # band-limited; prop25 data needs the large box to be resolved. The
    # stepper's entry takes the potentials' band columns as they are, and
    # their curl map gives the leading columns of the full-width one bit for
    # bit.
    g = SpectralGrid(n1, n2, l1, l2)
    base = dict(n1=n1, n2=n2, l1=l1, l2=l2, dt=0.1, t_end=0.2, seed=n1)
    states = [scaled_random_state(g, n2, 2.0),
              initial_state(SolverConfig(data_kind="random", **base))]
    if l1 == 32.0 * np.pi:
        states.append(initial_state(SolverConfig(data_kind="prop25", **base)))
    states += diagnostics.gaussian_divfree_family(g)
    states += [diagnostics.single_mode_state(g, k1, k2, pair)
               for k1, k2 in ((2, 1), (-3, 0), (1, -4), (0, 5)) for pair in ("v", "B")]
    for st in states:
        assert hermitian_defect(g, st.u) == 0.0
        assert np.all(st.u[:, 0, 0] == 0.0)
        assert np.all(full_spectrum(g, st.u)[:, ~dealias_mask(g)] == 0.0)
        assert np.max(np.abs(st.u)) > 0.0
        assert np.all(st.w[:, 0, 0] == 0.0)
        assert np.all(full_spectrum(g, st.w)[:, ~dealias_mask(g)] == 0.0)
        st.validate()
        band = st.w[..., :g.band_cols]
        assert np.array_equal(_band(st, g), band)
        assert np.array_equal(_components(g, band), st.u[..., :g.band_cols])


@pytest.mark.parametrize("n1,n2", ODD_GRIDS)
def test_restart_through_snapshot_matches(n1, n2, tmp_path):
    base = dict(n1=n1, n2=n2, l1=L1, l2=L2, dt=0.02, data_kind="random",
                data_delta=0.5, seed=7)
    whole = run(SolverConfig(t_end=0.2, output_every=0.1, **base))
    first = run(SolverConfig(t_end=0.1, output_every=0.1, **base))
    path = tmp_path / "mid.bin"
    save_state(first.states[-1], path)
    second = run(SolverConfig(t_end=0.1, output_every=0.1, **base), initial=load_state(path))
    assert second.times == whole.times[1:]
    want = whole.states[-1].u
    assert np.max(np.abs(second.states[-1].u - want)) <= 1e-13 * np.max(np.abs(want))
    # the snapshot holds the run's band stack, so the restart repeats it exactly
    assert second.states[-1].w.tobytes() == whole.states[-1].w.tobytes()


class PlaneCounter:
    """Counts the 2-D planes of n1 rows each numpy.fft function transforms;
    a block of rows counts as its share of a plane."""

    NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")

    def __init__(self, monkeypatch, n1):
        self.n1 = n1
        self.planes = {}
        self.inputs = []
        for name in self.NAMES:
            monkeypatch.setattr(np.fft, name, self._counted(name, getattr(np.fft, name)))

    def _counted(self, name, fn):
        def wrapper(a, *args, **kwargs):
            a = np.asarray(a)
            share = Fraction(a.size // a.shape[-1], self.n1)
            self.planes[name] = self.planes.get(name, 0) + share
            self.inputs.append((name, a.shape[-2:]))
            return fn(a, *args, **kwargs)
        return wrapper


def test_initial_state_transient_peak():
    # E(0) forms |v|^2 and |B|^2 in place of the power of (v1, B1) and sums
    # them over the H^m table alone: 256^2 random data peak at 6.67 (n1,
    # n2/2 + 1) complex planes, the state, the band's components and three
    # two-component power arrays, against 7.34 when E(0) formed the power of
    # all four components apart
    cfg = SolverConfig(n1=256, n2=256, l1=L1, l2=L2, dt=0.05, t_end=0.1, data_kind="random",
                       seed=5)
    g = cfg.grid()
    st, peak = traced_peak(initial_state, cfg, g, warm=1)  # warm numpy's FFT caches
    planes = peak / (16 * g.n1 * (g.n2 // 2 + 1))
    assert planes <= 6.75, planes
    h = _components(g, st.w[:, :, :g.band_cols])
    want = diagnostics.instantaneous(g, h, cfg.m).E
    assert np.float64(diagnostics.energy(g, h, cfg.m)).tobytes() == np.float64(want).tobytes()


def test_random_data_transform_only_the_band_columns(monkeypatch):
    # the noise's row pass writes the state's own potentials, the one (2, n1,
    # n2/2 + 1) complex array the call makes, and the column pass runs on the
    # band columns alone: whole rfft2 values there bit for bit, and +0.0 past
    # them. Above the noise and the potentials the call holds band-sized
    # arrays only, at most the four components of the band
    g = SpectralGrid(256, 256, L1, L2)
    kc, nh = g.band_cols, g.n2 // 2 + 1
    random_div_free_state(g, 4)  # a first call also fills numpy's FFT caches
    fft = PlaneCounter(monkeypatch, g.n1)
    st, peak = traced_peak(random_div_free_state, g, 5)
    assert fft.inputs == [("rfftn", (256, 256)), ("fftn", (256, kc))]
    cfg = SolverConfig(n1=256, n2=256, l1=L1, l2=L2, dt=0.05, t_end=0.1, data_kind="random",
                       seed=5)
    fft.inputs.clear()
    initial_state(cfg)
    assert fft.inputs == [("rfftn", (256, 256)), ("fftn", (256, kc))]
    monkeypatch.undo()
    noise = np.random.default_rng(5).standard_normal((2, 256, 256))
    assert peak < noise.nbytes + st.w.nbytes + 4 * 16 * g.n1 * kc, peak
    xic = min(np.max(np.abs(g.xi1)), np.max(np.abs(g.half_xi2))) / 4.0
    want = np.fft.rfft2(noise, axes=(-2, -1), norm="forward")[..., :kc]
    want *= np.exp(-g.half_xi_sq[:, :kc] / (2.0 * xic**2)) * g.half_dealias_mask[:, :kc]
    want[:, 0, 0] = 0.0
    want *= 1.0 / max(spectral.l2_norm(g, h) for h in _components(g, want))
    assert st.w[..., :kc].tobytes() == want.tobytes()
    assert st.w[..., kc:].tobytes() == bytes(16 * 2 * 256 * (nh - kc))


@pytest.mark.parametrize("scheme,tendencies", (("etdrk2", 2), ("ifrk4", 4)),
                         ids=("etdrk2", "ifrk4"))
def test_step_transforms_fourteen_half_planes(monkeypatch, scheme, tendencies):
    cfg = SolverConfig(n1=40, n2=64, l1=L1, l2=L2, dt=0.02, t_end=0.04, scheme=scheme,
                       data_kind="random", data_delta=0.5, seed=1)
    st = initial_state(cfg)
    g = cfg.grid()
    fft = PlaneCounter(monkeypatch, 40)
    _Stepper(g, cfg).advance(_band(st, g))
    # each tendency: 4 inverse (v1, B1, v2, B2) and 3 forward (T22 - T11, T12,
    # N_a), each as a column pass over the kc = 22 band columns and a row pass
    assert fft.planes == {"ifftn": 4 * tendencies, "irfftn": 4 * tendencies,
                          "rfftn": 3 * tendencies, "fftn": 3 * tendencies}
    want = {"ifftn": (40, 22), "irfftn": (40, 22), "rfftn": (40, 64), "fftn": (40, 22)}
    assert all(shape == want[name] for name, shape in fft.inputs)


def test_sample_transforms_three_half_planes(monkeypatch):
    st = random_div_free_state(SpectralGrid(40, 64, L1, L2), seed=2)
    fft = PlaneCounter(monkeypatch, 40)
    diagnostics.instantaneous(st.grid, st.u, 4)
    # B2, d1 v1, d1 v2: a column pass in place, then a row pass
    assert fft.planes == {"ifftn": 3, "irfftn": 3}


@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((256, 256),))
def test_advective_bound_matches_the_irfft2_bound(n1, n2, monkeypatch):
    # the band columns' two 1-D passes, squared and summed in place, give the
    # whole-spectrum irfft2 bound bit for bit on band-limited states
    g = SpectralGrid(n1, n2, L1, L2)
    rows = n1 if n1 < 256 else 64
    prop = SolverConfig(n1=n1, n2=n2, l1=32.0 * np.pi, l2=24.0 * np.pi, dt=0.02, t_end=0.04,
                        data_kind="prop25")
    states = [random_div_free_state(g, seed=n1), scaled_random_state(g, n2, 40.0),
              initial_state(prop)] + diagnostics.gaussian_divfree_family(g)
    for st in states:
        before = st.w.copy()
        want = irfft2_dt_bound(st)
        fft = PlaneCounter(monkeypatch, n1)
        got = solver.advective_dt_bound(st)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert fft.planes == {"ifftn": 4, "irfftn": 4}
        # one column pass, then a row pass per block: four at 256^2
        assert fft.inputs[0] == ("ifftn", (n1, g.band_cols))
        assert fft.inputs[1:] == [("irfftn", (rows, g.band_cols))] * (n1 // rows)
        assert np.array_equal(st.w, before)  # the state is left as it was
        monkeypatch.undo()


@pytest.mark.parametrize("n1,n2", ODD_GRIDS)
def test_physical_l1_norm_matches_the_irfft2_sum(n1, n2):
    g = SpectralGrid(n1, n2, L1, L2)
    for st in [scaled_random_state(g, n1, 3.0)] + diagnostics.gaussian_divfree_family(g):
        fields = physical_fields(g, st.u)
        want = float(np.sum(np.sqrt(np.sum(fields**2, axis=0))) * g.cell_area)
        assert diagnostics.physical_l1_norm(st) == want



def full_spectrum_record(g, u, m):
    """Every field of ``instantaneous`` of the half-spectrum components ``u``
    at t = 0 as full-spectrum sums over all n1 n2 modes."""
    u = full_spectrum(g, u)
    cal = 4.0 * np.pi**2
    wm1 = multi_index_weight(g, m - 1)
    wm = multi_index_weight(g, m)
    absu2 = np.abs(u) ** 2
    absxi = np.sqrt(full_xi(g)[2])
    absxi1 = np.broadcast_to(np.abs(g.xi1), g.shape)
    col = absxi1 > 0.0
    rows = np.abs(g.xi1[:, 0]) > 0.0
    nz = absxi > 0.0
    d1 = [coeff_derivative(g, u[c], 1) for c in range(4)]
    fields = np.real(np.fft.ifft2(np.stack([u[3], d1[0], d1[1], u[0]]))) * g.n1 * g.n2
    i1 = g.area * np.sum(wm * np.real(d1[2] * np.conj(u[0]) + d1[3] * np.conj(u[1])))
    i2 = g.area * np.sum(wm * np.real(d1[0] * np.conj(u[2]) + d1[1] * np.conj(u[3])))
    total = np.sum(absu2, axis=0)
    r1, r2, r3 = region_masks(np.broadcast_to(g.xi1, g.shape))

    mag = np.sqrt(total)
    w = np.zeros(g.shape)
    w[nz] = np.sqrt(absxi1[nz]) / absxi[nz]
    inner = g.l1 * g.l2 * np.sum(w * mag, axis=1) * g.dxi[1]
    bmag = np.sqrt(absu2[2] + absu2[3])
    hm = np.sqrt(sum(full_sobolev_norm(g, u[c], m) ** 2 for c in range(4)))
    xm = (hm + np.sqrt(np.sum(inner**2) * g.dxi[0]) + cal * np.sum(bmag[nz] / absxi[nz])
          + cal * np.sum(bmag[col] / np.sqrt(absxi1[col])))

    b2 = np.abs(u[3])
    v2 = np.abs(u[1])
    v2_inner = g.l1 * g.l2 * np.sum(v2, axis=1) * g.dxi[1]
    hm_v_sq = g.area * np.sum(wm * (absu2[0] + absu2[1]))
    hm_b_sq = g.area * np.sum(wm * (absu2[2] + absu2[3]))
    return dict(
        t=0.0,
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


def with_nyquist_content(g, u, seed):
    """Components ``u`` plus the real Nyquist entries Hermitian,
    divergence-free components may carry, though no potential does: v1 and
    B1 at (0, -n2/2), v2 and B2 at (-n1/2, 0), and both pairs at the corner
    (-n1/2, -n2/2). A record must count them as the full spectrum does."""
    u = u.copy()
    ny1, ny2 = g.n1 // 2, g.n2 // 2
    scale = np.max(np.abs(u))
    a, b, c, d, e, f = np.random.default_rng(seed).standard_normal(6) * scale
    u[0, 0, ny2], u[2, 0, ny2] = a, b
    u[1, ny1, 0], u[3, ny1, 0] = c, d
    for pair, amp in ((0, e), (2, f)):
        k = amp / np.sqrt(g.half_xi_sq[ny1, ny2])
        u[pair, ny1, ny2], u[pair + 1, ny1, ny2] = g.half_xi2[0, ny2] * k, -g.xi1[ny1, 0] * k
    assert max(divergence_defect(g, u)) <= 1e-12 * scale
    assert hermitian_defect(g, u) == 0.0
    return u


@pytest.mark.parametrize("n1,n2", ODD_GRIDS)
@pytest.mark.parametrize("m", (1, 2, 4))
def test_sample_matches_full_spectrum_sums(n1, n2, m):
    g = SpectralGrid(n1, n2, L1, L2)
    for seed in range(3):
        u = scaled_random_state(g, 100 * seed + m, 2.0).u
        # the Nyquist column counts once, and the row sums must not fold it twice
        u = with_nyquist_content(g, u, seed) if seed == 2 else u
        got = diagnostics.instantaneous(g, u, m)
        want = full_spectrum_record(g, u, m)
        assert set(want) == set(got._fields)
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
    # hermitian_defect of a half spectrum's self-mirrored columns gives the
    # full gather over the full spectrum it stands for, of components and of
    # potentials alike; a change to an interior column moves its mirror too
    g = SpectralGrid(n1, n2, L1, L2)
    st = random_div_free_state(g, seed=n1 + 2 * n2)
    rng = np.random.default_rng(n1 * n2)
    ny1, ny2 = n1 // 2, n2 // 2
    entries = [(int(rng.integers(n1)), 0) for _ in range(3)] + [(0, 0), (ny1, 0)]
    entries += [(ny1, int(rng.integers(ny2 + 1))) for _ in range(3)] + [(ny1, ny2)]
    entries += [(int(rng.integers(n1)), ny2) for _ in range(3)]
    entries += [(int(rng.integers(n1)), int(rng.integers(1, ny2))) for _ in range(4)]
    for base in (st.u.copy(), st.w.copy()):
        assert hermitian_defect(g, base) == full_gather_defect(g, full_spectrum(g, base))
        for c, (k1, k2) in enumerate(entries):
            u = base.copy()
            u[c % len(u), k1, k2] += complex(*rng.standard_normal(2))
            got = hermitian_defect(g, u)
            assert (got > 1e-3) == (k2 in (0, ny2)), (k1, k2)
            assert got == full_gather_defect(g, full_spectrum(g, u)), (k1, k2)


def test_run_transforms_only_half_planes(monkeypatch):
    n = 3
    cfg = SolverConfig(n1=40, n2=64, l1=L1, l2=L2, dt=0.02, t_end=n * 0.02,
                       data_kind="random", data_delta=0.5, seed=1)
    st = initial_state(cfg)
    fft = PlaneCounter(monkeypatch, 40)
    traj = run(cfg, initial=st)
    assert len(traj.records) == n + 1
    # n steps and n + 1 samples as 1-D passes, and the advective bound at t = 0
    samples = 3 * (n + 1)
    assert fft.planes == {"ifftn": 8 * n + samples + 4, "irfftn": 8 * n + samples + 4,
                          "rfftn": 6 * n, "fftn": 6 * n}


@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((256, 256),))
def test_components_are_the_leading_columns_of_from_potentials(n1, n2):
    # the sample's band columns are those of the state of the band stack,
    # bit for bit, also for a stack with an asymmetric k2 = 0 column, which
    # both mirror the same way
    g = SpectralGrid(n1, n2, L1, L2)
    rng = np.random.default_rng(n1 + n2)
    nh = n2 // 2 + 1
    stacks = [random_div_free_state(g, seed=n1).w,
              rng.standard_normal((2, n1, nh)) + 1j * rng.standard_normal((2, n1, nh))]
    for w in stacks:
        for kc in (g.band_cols, nh):
            h = _components(g, w[..., :kc])
            assert h.shape == (4, n1, kc)
            assert np.array_equal(h, SpectralState(g, w[..., :kc]).u[..., :kc])


@pytest.mark.parametrize("n1,n2", ((8, 8), (40, 64), (64, 38), (50, 70), (96, 128),
                                   (128, 128), (128, 160), (256, 256), (256, 288)))
def test_mirror_fill_matches_the_row_gather(n1, n2):
    # the tests' mirror fill, full_spectrum's two slice copies, gives the
    # gathered mirror bit for bit, also for a stack whose k2 = 0 column is
    # not Hermitian; the state of a stack gives its half spectrum
    g = SpectralGrid(n1, n2, L1, L2)
    rng = np.random.default_rng(n1 * n2)
    nh = n2 // 2 + 1
    w = rng.standard_normal((2, n1, nh)) + 1j * rng.standard_normal((2, n1, nh))
    for kc in (3, g.band_cols, nh):
        got = SpectralState(g, w[..., :kc], 0.5)
        want = gathered_from_potentials(g, w[..., :kc])
        assert got.time == 0.5 and np.array_equal(got.u, want[..., :nh]), kc
        assert np.array_equal(full_spectrum(g, got.u), want), kc
        assert hermitian_defect(g, got.u) == 0.0, kc


def record_states():
    g = SpectralGrid(40, 64, L1, L2)
    prop = SolverConfig(n1=64, n2=48, l1=32.0 * np.pi, l2=24.0 * np.pi, dt=0.02,
                        t_end=0.04, data_kind="prop25")
    return ([scaled_random_state(g, 4, 2.0), initial_state(prop)]
            + diagnostics.gaussian_divfree_family(SpectralGrid(50, 70, 16.0 * np.pi, 20.0 * np.pi))
            + [diagnostics.single_mode_state(g, 3, 5, "B"),
               diagnostics.single_mode_state(g, 2, 0, "v")])


@pytest.mark.parametrize("m", (1, 2, 4))
def test_band_record_matches_state_record(m):
    # a run records the components of its band stack on kc columns; they give
    # the whole state's record to roundoff, field by field
    for st in record_states():
        g, kc = st.grid, st.grid.band_cols
        want = diagnostics.instantaneous(g, st.u, m, time=0.5)
        back = check_components(g, st.u)  # the oracle's inverse curl map's round trip
        for h in (st.u[:, :, :kc], _components(g, back.w[:, :, :kc])):
            got = diagnostics.instantaneous(g, h, m, time=0.5)
            assert got.t == 0.5
            assert got.cancel_residual <= 1e-13 and want.cancel_residual <= 1e-13
            assert abs(got.A - want.A) <= 1e-15 * want.E**2
            for name in got._fields:
                a, b = getattr(got, name), getattr(want, name)
                if name not in ("A", "cancel_residual"):
                    assert abs(a - b) <= 1e-15 * max(abs(a), abs(b)), name


def oracle_states(g, m):
    """Pairs of a state and the components to record: a random state, the
    same with Nyquist content, and prop25 data on a 32 pi box of the same
    sizes, as the benchmark's runs start from."""
    st = scaled_random_state(g, g.n1 + m, 2.0)
    prop = initial_state(SolverConfig(n1=g.n1, n2=g.n2, l1=32.0 * np.pi, l2=32.0 * np.pi,
                                      dt=0.02, t_end=0.04, m=m, data_kind="prop25"))
    return [(st, st.u), (st, with_nyquist_content(g, st.u, m)), (prop, prop.u)]


@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((128, 128), (256, 256)))
@pytest.mark.parametrize("m", (1, 2, 4))
def test_record_matches_the_oracle_within_roundoff(n1, n2, m):
    # one contraction per weighted total over tables built once, against the
    # product arrays and np.sum of the per-call tables: not bitwise, but a few
    # ulps on every field, from band columns and from whole states alike
    for st, u in oracle_states(SpectralGrid(n1, n2, L1, L2), m):
        g = st.grid
        for h in (u, _components(g, st.w[:, :, :g.band_cols])):
            got = diagnostics.instantaneous(g, h, m, time=0.5, energy_residual=1e-9)
            want = oracle_record(g, h, m, time=0.5, energy_residual=1e-9)
            assert abs(got.A - want.A) <= 1e-15 * want.E**2
            assert got.cancel_residual <= 1e-13 and want.cancel_residual <= 1e-13
            for name in got._fields:
                a, b = getattr(got, name), getattr(want, name)
                if name not in ("A", "cancel_residual"):
                    assert abs(a - b) <= 5e-15 * abs(b), (name, a, b)
        # and the X^m norm of the whole state on its own
        h = st.u[:, :, :g.n2 // 2 + 1]
        want = oracle_xm(g, h.real**2 + h.imag**2, m)
        got = diagnostics.anisotropic_norm(st, m)
        assert abs(got - want) <= 5e-15 * want, (got, want)


def test_a_run_builds_its_record_weights_once(monkeypatch):
    # the run builds them, every record of the run multiplies by them, and
    # nothing holds them once the run's trajectory is dropped
    real = diagnostics.RecordWeights
    built = []

    def counted(grid, m, kc):
        caller = sys._getframe(1)
        assert caller.f_code is solver.run.__code__
        weights = real(grid, m, kc)
        built.append(((m, kc), weakref.ref(weights.hm)))  # the slots take no weakref
        return weights

    monkeypatch.setattr(solver, "RecordWeights", counted)
    monkeypatch.setattr(diagnostics, "RecordWeights", counted)  # a record's own build
    cfg = SolverConfig(n1=40, n2=64, l1=L1, l2=L2, dt=0.02, t_end=0.08, m=2,
                       data_kind="random", data_delta=0.5, seed=5)
    traj = run(cfg)
    assert len(traj.records) == 5 and [key for key, _ in built] == [(2, cfg.grid().band_cols)]
    del traj
    gc.collect()
    assert built[0][1]() is None


def test_every_record_of_a_run_works_in_the_stepper_workspace(monkeypatch):
    # the t = 0 record, the last one and each between take their arrays from
    # the workspace of the run's one stepper, which lives until run returns
    real_init, real_record = solver._Stepper.__init__, solver.instantaneous
    steppers, shared = [], []

    def init(self, grid, cfg):
        real_init(self, grid, cfg)
        steppers.append(self)

    def record(grid, h, m, **kw):
        shared.append(kw.get("work") is steppers[-1].work)
        return real_record(grid, h, m, **kw)

    monkeypatch.setattr(solver._Stepper, "__init__", init)
    monkeypatch.setattr(solver, "instantaneous", record)
    cfg = SolverConfig(n1=40, n2=64, l1=L1, l2=L2, dt=0.02, t_end=0.08, output_every=0.04,
                       data_kind="random", data_delta=0.5, seed=2)
    traj = run(cfg)
    assert len(steppers) == 1 and len(traj.times) == 3 and shared == [True] * 3


def test_record_transient_peak_and_weights_size():
    # one 128^2 band-column record peaked at 1.67 MB when it built its tables
    # on every call, and at 0.93 MB (1.24 MB building them) while its inverse
    # pass made a (3, n1, kc) complex intermediate. With the column pass in
    # place and every array cut from one buffer of the size of its (3, n1,
    # kc) complex and (3, n1, n2) float planes, it peaks at 0.69 MB handed
    # the run's weights, and at 1.00 MB when it builds them itself.
    # A run's weights at 256^2 are seven (256, 86) tables, 1.25 MB.
    cfg = SolverConfig(n1=128, n2=128, l1=32.0 * np.pi, l2=32.0 * np.pi, dt=0.02,
                       t_end=0.04, data_kind="random", data_delta=0.5, seed=3)
    g = cfg.grid()
    h = _components(g, _band(initial_state(cfg, g), g))
    weights = diagnostics.RecordWeights(g, cfg.m, g.band_cols)
    for held, bound in ((weights, 0.7e6), (None, 1.05e6)):
        _, peak = traced_peak(lambda: diagnostics.instantaneous(g, h, cfg.m, weights=held),
                              warm=1)
        assert peak <= bound, (bound, peak)
    big = SpectralGrid(256, 256, 32.0 * np.pi, 32.0 * np.pi)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = diagnostics.RecordWeights(big, 4, big.band_cols)
        size = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held.hm.shape == (256, 86)
    assert size <= 1.3e6, size


@pytest.mark.parametrize("n1,n2", ODD_GRIDS + ((128, 128),))
def test_record_in_a_workspace_equals_its_own_buffer(n1, n2):
    # a run's records cut their arrays from the stepper's workspace, and a
    # whole state's record from a buffer of its own; both give the same
    # record, field for field, from band columns and from whole states, and
    # read nothing the workspace held before
    cfg = SolverConfig(n1=n1, n2=n2, l1=L1, l2=L2, dt=0.02, t_end=0.04,
                       data_kind="random", data_delta=0.5, seed=n1)
    g = cfg.grid()
    st = initial_state(cfg, g)
    work = _Stepper(g, cfg).work
    for h in (_components(g, _band(st, g)), st.u):
        want = diagnostics.instantaneous(g, h, cfg.m, time=0.5, energy_residual=1e-9)
        work[:] = np.nan
        weights = diagnostics.RecordWeights(g, cfg.m, h.shape[-1])  # as a run hands them
        got, peak = traced_peak(lambda: diagnostics.instantaneous(
            g, h, cfg.m, time=0.5, energy_residual=1e-9, work=work, weights=weights))
        for name in got._fields:
            assert np.float64(getattr(got, name)).tobytes() == \
                np.float64(getattr(want, name)).tobytes(), name
        # less than the buffer the record would make itself
        assert peak < 48 * n1 * (h.shape[-1] + n2 // 2), peak


def test_record_rejects_components_of_another_shape():
    g = SpectralGrid(40, 64, L1, L2)
    st = random_div_free_state(g, seed=1)
    w = st.w[:, :, :g.band_cols]
    for bad in (w, st.u[0], st.u[:, :20], np.swapaxes(st.u, 1, 2), st.u[None], st.u[..., :0]):
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
    # run builds no state; reading ``states`` builds the kept ones only: the
    # first and the latest sample's, or with keep_all every sample's
    for traj, kept in ((Trajectory(), [0, n]), (Trajectory(keep_all=True), range(n + 1))):
        run(cfg, initial=st, trajectory=traj)
        assert len(traj.records) == n + 1 and built == []
        states = traj.states
        assert [s is not None for s in states] == [k in kept for k in range(n + 1)]
        assert built == [traj.times[k] for k in kept]
        built.clear()


def test_run_copies_only_a_callers_initial_state(monkeypatch):
    cfg = SolverConfig(n1=40, n2=64, l1=L1, l2=L2, dt=0.02, t_end=0.04,
                       data_kind="random", data_delta=0.5, seed=2)
    g = cfg.grid()
    st = initial_state(cfg)
    before = st.u.copy()
    traj = run(cfg, initial=st)
    # the t = 0 state is the run's own band stack, padded, so what the
    # caller does with its state later does not reach it
    st.w[...] = 0.0
    st.time = 3.0
    assert traj.states[0] is not st and traj.states[0].time == 0.0
    assert np.array_equal(traj.states[0].u, before)
    # a caller state with an entry outside the band below STATE_RTOL max|w|
    # runs, and its t = 0 state is the band the run stepped
    kc = g.band_cols
    w = initial_state(cfg, g).w.copy()
    w[0, 1, kc] = 0.5 * spectral.STATE_RTOL * np.max(np.abs(w))
    off = run(cfg, initial=SpectralState(g, w))
    band = run(cfg, initial=SpectralState(g, w[..., :kc]))
    assert np.all(off.states[0].w[..., kc:] == 0.0)
    assert off.states[0].w.tobytes() == band.states[0].w.tobytes()
    assert off.states[-1].w.tobytes() == band.states[-1].w.tobytes()
    # a run builds no state but its own initial one
    real = SpectralState.__post_init__
    built = []

    def counted(self):
        built.append(self.time)
        return real(self)

    monkeypatch.setattr(SpectralState, "__post_init__", counted)
    own = run(cfg)
    assert built == [0.0]
    assert np.array_equal(own.states[0].u, before)
    # t = 0 is recorded from the band columns, like every later sample
    w = _band(own.states[0], own.states[0].grid)
    want = diagnostics.instantaneous(own.states[0].grid, _components(own.states[0].grid, w),
                                     cfg.m)
    assert own.records[0] == want


def test_run_checks_each_stack_once(monkeypatch):
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
    # the entry check (_band's pass, with the 2/3 band) checks the initial
    # state; every sample, t = 0 included, checks its band stack once in the
    # run's one record call, and a state that leaves the run holds that
    # stack, so no state needs validate() on top
    for keep in (False, True):
        entries.clear()
        traj = run(cfg, initial=st, trajectory=Trajectory(keep_all=keep))
        assert len(traj.records) == n + 1
        assert calls == [] and entries == [True] + [False] * (n + 1)
    monkeypatch.undo()
    for kept in traj.states:
        kept.validate()


@pytest.mark.parametrize("why", ("Hermitian", "mean"))
def test_sample_band_check_sees_what_validate_cannot(monkeypatch, why):
    cfg = SolverConfig(n1=40, n2=64, l1=L1, l2=L2, dt=0.02, t_end=0.1,
                       data_kind="random", data_delta=0.5, seed=4)
    g = cfg.grid()
    st = initial_state(cfg, g)

    def corrupt(w):
        # an unmirrored k2 = 0 entry, or a mean: the curl map's mirror and its
        # zero wavenumber hide both from the components of w
        if why == "Hermitian":
            w[0, 3, 0] += np.max(np.abs(w))
        else:
            w[1, 0, 0] = np.max(np.abs(w))

    w = _band(st, g)
    corrupt(w)
    # the components hide both: they are Hermitian and mean-free
    h = _components(g, w)
    assert hermitian_defect(g, h) == 0.0 and np.all(h[:, 0, 0] == 0.0)
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
    traj = Trajectory()
    with pytest.raises(DiagnosticIntegrityError, match=why):
        run(cfg, initial=st, trajectory=traj)
    assert traj.times == pytest.approx([0.0, 0.02])


def test_run_and_step_reject_states_outside_the_dealias_band(tmp_path):
    cfg = SolverConfig(n1=40, n2=64, l1=L1, l2=L2, dt=0.02, t_end=0.04,
                       data_kind="random", data_delta=0.5, seed=3)
    g = cfg.grid()
    w = initial_state(cfg, g).w.copy()
    k2 = -(-g.n2 // 3)  # first half-spectrum column the 2/3 rule drops
    assert not g.half_dealias_mask[1, k2]
    w[0, 1, k2] = np.max(np.abs(w))
    st = SpectralState(g, w)
    st.validate()
    with pytest.raises(ConfigError, match="dealias band"):
        run(cfg, initial=st)
    # in-band states that fail validate() are rejected at the same entry: an
    # unmirrored mode of the k2 = 0 column and a mean; and the same
    # potentials on another box
    base = initial_state(cfg, g)
    amp = 1e-2 * np.max(np.abs(base.w))
    unmirrored, mean = (SpectralState(base.grid, base.w.copy(), base.time) for _ in range(2))
    unmirrored.w[0, 1, 0] += amp
    mean.w[1, 0, 0] += amp
    for bad, why in ((unmirrored, "Hermitian"), (mean, "mean")):
        with pytest.raises(ConfigError, match=why):
            run(cfg, initial=bad)
    elsewhere = SpectralState(SpectralGrid(g.n1, g.n2, 2.0 * L1, L2), base.w)
    with pytest.raises(ConfigError, match="grid"):
        run(cfg, initial=elsewhere)
    # a snapshot of a run lies inside the band and runs on
    path = tmp_path / "end.bin"
    save_state(run(cfg).states[-1], path)
    again = run(cfg, initial=load_state(path))
    assert again.times[-1] == pytest.approx(0.08)
