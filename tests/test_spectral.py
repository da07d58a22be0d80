"""Transform conventions, projections, norms, and the snapshot format."""

import struct

import numpy as np
import pytest

from mhd2d import spectral
from mhd2d.errors import ConfigError, SnapshotFormatError
from mhd2d.solver import SolverConfig
from mhd2d.spectral import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SpectralGrid,
    SpectralState,
    _block_rows,
    divergence_defect,
    hermitian_defect,
    l2_norm,
    load_state,
    random_div_free_state,
    save_state,
    sobolev_norm,
    to_physical,
)
from reference import (
    check_components,
    coeff_derivative,
    coordinates,
    from_physical,
    full_spectrum,
    full_xi,
    leray_project,
    mode_numbers,
    multi_index_weight,
    physical_fields,
    scaled_random_state,
    spectral_derivative,
    traced_peak,
)

TWO_PI = 2.0 * np.pi


def random_coefficients(grid, seed=0):
    """The half spectra of four planes of white noise: no state's components,
    which are divergence free."""
    rng = np.random.default_rng(seed)
    return from_physical(grid, rng.standard_normal((4, grid.n1, grid.n2)))


def test_grid_validation():
    with pytest.raises(ConfigError):
        SpectralGrid(7, 8, TWO_PI, TWO_PI)
    with pytest.raises(ConfigError):
        SpectralGrid(8, 4, TWO_PI, TWO_PI)
    with pytest.raises(ConfigError):
        SpectralGrid(8, 8, -1.0, TWO_PI)
    with pytest.raises(ConfigError):
        SpectralGrid(8, 8, TWO_PI, float("inf"))


def test_grid_sizes_must_be_integers():
    # 16.0 == int(16.0), but numpy's fftfreq refuses a float size
    for n1, n2 in ((16.0, 16), (16, np.float64(16)), (True, 16)):
        with pytest.raises(ConfigError, match="even integer"):
            SpectralGrid(n1, n2, TWO_PI, TWO_PI)
        with pytest.raises(ConfigError, match="even integer"):
            SolverConfig(n1=n1, n2=n2, dt=0.1, t_end=1.0)
    assert SpectralGrid(np.int64(16), 16, TWO_PI, TWO_PI).shape == (16, 16)


def test_grid_wavenumber_layout():
    g = SpectralGrid(8, 16, TWO_PI, np.pi)
    assert g.xi1.shape == (8, 1) and g.half_xi2.shape == (1, 9)
    # spacing 2 pi / l per axis
    assert g.xi1[1, 0] == pytest.approx(1.0)
    assert g.half_xi2[0, 1] == pytest.approx(2.0)
    assert g.xi1[g.n1 // 2, 0] == -(g.n1 // 2)  # single Nyquist
    # the half spectrum's last column is the full layout's Nyquist column
    assert g.half_xi2[0, -1] == full_xi(g)[1][0, g.n2 // 2] == -2.0 * (g.n2 // 2)


@pytest.mark.parametrize("n1, n2", [(16, 16), (24, 40), (40, 18)])
def test_to_physical_matches_full_spectrum_inverse(n1, n2):
    # the two 1-D passes against the full complex inverse transform, and
    # against one irfft2 bit for bit, on the whole half spectrum and, for a
    # band-limited state, on its band columns alone
    g = SpectralGrid(n1, n2, TWO_PI, 3.0)
    for u in (random_div_free_state(g, seed=n1).u, random_coefficients(g, seed=n2)):
        ref = np.real(np.fft.ifft2(full_spectrum(g, u), axes=(-2, -1))) * n1 * n2
        want = physical_fields(g, u)
        out = np.full((4, n1, n2), np.nan)
        spec = u.copy()
        # a buffer of n1 rows takes one block: the whole planes, in it
        (r0, block), = to_physical(g, spec, out)
        assert r0 == 0 and block is out
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert out.tobytes() == want.tobytes()
        assert not np.array_equal(spec, u)  # the column pass ran in place
    st = random_div_free_state(g, seed=n1)
    (_, band), = to_physical(g, st.u[:, :, :g.band_cols].copy(), np.empty((4, n1, n2)))
    assert band.tobytes() == physical_fields(g, st.u).tobytes()


@pytest.mark.parametrize("n1, n2", [(40, 64), (64, 38), (50, 70), (256, 256)])
def test_to_physical_in_blocks_equals_the_whole_planes(n1, n2):
    # each block holds the whole pass's rows bit for bit, in order, whether
    # the block rows divide n1 or leave a short last block; every block is
    # contiguous, in the buffer, and the column pass runs in place once
    g = SpectralGrid(n1, n2, TWO_PI, 3.0)
    st = random_div_free_state(g, seed=n2)
    for spec0 in (st.u[:, :, :g.band_cols].copy(), st.u):
        whole_spec = spec0.copy()
        (_, whole), = to_physical(g, whole_spec, np.empty((4, n1, n2)))
        for rows in sorted({1, 7, n1 // 4, n1 // 2, n1 - 1}):
            spec, out = spec0.copy(), np.full((4, rows, n2), np.nan)
            starts = []
            for r0, block in to_physical(g, spec, out):
                r = block.shape[1]
                assert block.shape == (4, min(rows, n1 - r0), n2) and r > 0
                assert block.flags.c_contiguous and np.shares_memory(block, out)
                assert block.tobytes() == whole[:, r0:r0 + r].tobytes(), (rows, r0)
                starts.append(r0)
            assert starts == list(range(0, n1, rows))
            assert spec.tobytes() == whole_spec.tobytes()  # the column pass, in place
        assert not np.array_equal(whole_spec, spec0)


def test_block_rows_follow_one_byte_budget(monkeypatch):
    # four (tendency) and three (record) planes of 128^2 take one block;
    # at 256^2 they take 64 and 85 rows of 512 KB, and a block holds a row
    # at least, however small the budget
    assert [_block_rows(SpectralGrid(n, n, TWO_PI, TWO_PI), p)
            for n in (16, 128, 256, 512) for p in (4, 3)] == [16, 16, 128, 128, 64, 85, 32, 42]
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", 1)
    assert _block_rows(SpectralGrid(40, 64, TWO_PI, TWO_PI), 4) == 1


def test_roundtrip_identity():
    g = SpectralGrid(32, 24, TWO_PI, 4.0)
    u = random_coefficients(g, seed=1)
    back = from_physical(g, physical_fields(g, u))
    assert np.max(np.abs(back - u)) < 1e-14


def test_derivative_closed_form():
    g = SpectralGrid(32, 32, TWO_PI, TWO_PI)
    x1, x2 = coordinates(g)
    f = np.sin(3.0 * x1) * np.cos(2.0 * x2) * np.ones(g.shape)
    u = from_physical(g, np.broadcast_to(f, (4,) + g.shape))
    d1 = physical_fields(g, spectral_derivative(g, u, 1))
    d2 = physical_fields(g, spectral_derivative(g, u, 2))
    assert np.max(np.abs(d1[0] - 3.0 * np.cos(3.0 * x1) * np.cos(2.0 * x2))) < 1e-12
    assert np.max(np.abs(d2[0] + 2.0 * np.sin(3.0 * x1) * np.sin(2.0 * x2))) < 1e-12


def test_derivative_respects_box_size():
    # on a box of side 4 pi the lowest mode has wavenumber 1/2
    g = SpectralGrid(32, 32, 2.0 * TWO_PI, TWO_PI)
    x1, _ = coordinates(g)
    f = np.cos(0.5 * x1) * np.ones(g.shape)
    u = from_physical(g, np.broadcast_to(f, (4,) + g.shape))
    d1 = physical_fields(g, spectral_derivative(g, u, 1))
    assert np.max(np.abs(d1[0] + 0.5 * np.sin(0.5 * x1))) < 1e-13


def test_odd_derivative_kills_nyquist():
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    u = np.zeros((g.n1, g.n2 // 2 + 1), dtype=complex)
    u[g.n1 // 2, 3] = 1.0  # Nyquist row on axis 1
    out = coeff_derivative(g, u, 1, order=1)
    assert np.all(out == 0.0)
    out2 = coeff_derivative(g, u, 1, order=2)
    assert out2[g.n1 // 2, 3] != 0.0


def test_parseval_calibration():
    g = SpectralGrid(32, 32, 3.0, 5.0)
    u = random_coefficients(g, seed=2)
    phys = physical_fields(g, u)
    riemann = np.sqrt(np.sum(phys[0] ** 2) * g.cell_area)
    assert l2_norm(g, u[0]) == pytest.approx(riemann, rel=1e-13)
    # on a band's leading columns, the norm of the whole half spectrum
    st = random_div_free_state(g, seed=2)
    assert l2_norm(g, st.u[1, :, :g.band_cols]) == l2_norm(g, st.u[1])


def test_dealias_two_thirds():
    # the mask the stepper's entry checks states against; 3 divides 24, so
    # the cutoff |k| = 8 is strict and |k| <= 7 is kept on both axes
    g = SpectralGrid(24, 24, TWO_PI, TWO_PI)
    k1, k2 = mode_numbers(g)
    nh = g.n2 // 2 + 1
    keep1, keep2 = 3 * np.abs(k1) < g.n1, 3 * np.abs(k2[:nh]) < g.n2
    assert np.array_equal(g.half_dealias_mask, keep1[:, None] & keep2[None, :])
    assert np.count_nonzero(g.half_dealias_mask) == 15 * 8
    # the band stack's columns hold every kept mode, and no more columns
    assert g.band_cols == 8
    assert g.half_dealias_mask[:, g.band_cols - 1].any()
    assert not g.half_dealias_mask[:, g.band_cols:].any()


def test_leray_projection():
    g = SpectralGrid(32, 32, TWO_PI, TWO_PI)
    u = random_coefficients(g, seed=4)
    proj = leray_project(g, u)
    dv, dB = divergence_defect(g, proj)
    scale = np.max(np.abs(proj))
    assert max(dv, dB) < 1e-13 * scale
    twice = leray_project(g, proj)
    assert np.max(np.abs(twice - proj)) < 1e-14 * scale
    # the zero mode passes through untouched
    u[:, 0, 0] = 7.0
    assert np.all(leray_project(g, u)[:, 0, 0] == 7.0)


def test_sobolev_norm_conventions():
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    f = random_coefficients(g, seed=5)[0]
    assert sobolev_norm(g, f, 0) == pytest.approx(l2_norm(g, f), rel=1e-14)
    assert sobolev_norm(g, f, 2) >= sobolev_norm(g, f, 1) >= sobolev_norm(g, f, 0)
    for bad in (-1, 2.5, float("nan"), float("inf"), True):
        with pytest.raises(ConfigError, match="m must be a nonnegative integer"):
            sobolev_norm(g, f, bad)


def test_multi_index_weight_closed_form():
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    xi1, xi2, _ = full_xi(g)
    w1 = multi_index_weight(g, 1)
    assert np.max(np.abs(w1 - (1.0 + xi1**2 + xi2**2))) == 0.0
    w2 = multi_index_weight(g, 2)
    expect = (1.0 + xi1**2 + xi2**2 + xi1**4 + xi1**2 * xi2**2 + xi2**4)
    assert np.max(np.abs(w2 - expect)) < 1e-12 * np.max(expect)


def test_hermitian_defect_detects_asymmetry():
    # the half spectrum mirrors its interior columns by construction: only
    # the k2 = 0 and Nyquist columns can be asymmetric
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    u = random_coefficients(g, seed=6)
    assert hermitian_defect(g, u) < 1e-14
    u[0, 2, 0] += 0.5
    assert hermitian_defect(g, u) > 0.1


def test_random_state_properties():
    g = SpectralGrid(32, 32, TWO_PI, TWO_PI)
    st = scaled_random_state(g, 11, 0.25)
    st.validate()
    peak = max(l2_norm(g, st.u[c]) for c in range(4))
    assert peak == pytest.approx(0.25, rel=1e-12)
    same = scaled_random_state(g, 11, 0.25)
    assert np.array_equal(same.u, st.u)
    other = scaled_random_state(g, 12, 0.25)
    assert np.max(np.abs(other.u - st.u)) > 1e-3


def test_state_validation_errors():
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    # a state holds the potentials on the half spectrum, 16 // 2 + 1 = 9
    # columns, or on fewer leading ones, which it zero-pads; four components
    # are no state
    for shape in ((3, 16, 9), (2, 16, 10), (2, 8, 9), (2, 16, 0), (4, 16, 9)):
        with pytest.raises(ConfigError, match="shape"):
            SpectralState(g, np.zeros(shape, dtype=complex))
    band = random_div_free_state(g, seed=7).w[:, :, :g.band_cols]
    padded = SpectralState(g, band)
    assert padded.w.shape == (2, 16, 9) and np.all(padded.w[..., g.band_cols:] == 0.0)
    assert np.array_equal(padded.w[..., :g.band_cols], band)
    for time in (-1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="time"):
            SpectralState(g, np.zeros((2, 16, 9), dtype=complex), time=time)
    st = random_div_free_state(g, seed=7)
    st.w[1, 0, 0] = 1.0
    with pytest.raises(ConfigError, match="mean"):
        st.validate()
    st = random_div_free_state(g, seed=7)
    st.w[0, 1, 2] = np.nan
    with pytest.raises(ConfigError, match="non-finite"):
        st.validate()


def test_components_are_a_read_only_view():
    # u is made from w on each access; a write into it would be lost, so it
    # fails, and the oracle's state of its components has the same potentials
    g = SpectralGrid(16, 24, 3.5, TWO_PI)
    st = random_div_free_state(g, seed=8)
    u = st.u
    assert not u.flags.writeable and u.shape == (4, 16, 13)
    with pytest.raises(ValueError, match="read-only"):
        u[0, 1, 2] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        st.u[:, 0, 0] *= 2.0
    back = check_components(g, st.u)
    assert np.max(np.abs(back.w - st.w)) <= 1e-15 * np.max(np.abs(st.w))


def test_snapshot_roundtrip(tmp_path):
    g = SpectralGrid(16, 24, 3.5, TWO_PI)
    st = random_div_free_state(g, seed=9)
    st.time = 2.25
    path = tmp_path / "snap.bin"
    save_state(st, path)
    back = load_state(path)
    assert back.grid == g
    assert back.time == 2.25
    assert np.array_equal(back.u, st.u)


def test_snapshot_bytes_and_transient_memory(tmp_path):
    # the layout is the header and the little-endian half-spectrum payload
    # of the potentials, byte for byte; the payload is written from the
    # state's own buffer, and read into the one array the loaded state keeps
    assert SNAPSHOT_VERSION == 3
    g = SpectralGrid(128, 96, 3.5, TWO_PI)
    st = random_div_free_state(g, seed=21)
    st.time = 0.75
    path = tmp_path / "snap.bin"
    _, peak = traced_peak(save_state, st, path)
    header = SNAPSHOT_MAGIC + struct.pack("<I", SNAPSHOT_VERSION)
    header += struct.pack("<5d", 128.0, 96.0, 3.5, TWO_PI, 0.75)
    assert path.read_bytes() == header + st.w.astype("<c16").tobytes()
    assert len(path.read_bytes()) == 48 + 2 * 128 * 49 * 16
    assert peak < st.w.nbytes / 8, peak / st.w.nbytes
    # the payload (1), the grid's tables and validate()'s transients, measured
    # 2.02 payloads in all; two payload copies would be 3 or more
    back, peak = traced_peak(load_state, path)
    assert np.array_equal(back.w, st.w) and back.w.flags.writeable
    assert peak < 2.5 * st.w.nbytes, peak / st.w.nbytes


def test_snapshot_format_errors(tmp_path):
    g = SpectralGrid(16, 16, TWO_PI, TWO_PI)
    st = random_div_free_state(g, seed=10)
    path = tmp_path / "snap.bin"
    save_state(st, path)

    data = path.read_bytes()
    (tmp_path / "magic.bin").write_bytes(b"XXXX" + data[4:])
    with pytest.raises(SnapshotFormatError):
        load_state(tmp_path / "magic.bin")

    # versions 1 and 2, which held components, are read no more
    for i, version in enumerate((b"\x63", b"\x01", b"\x02")):
        (tmp_path / f"version{i}.bin").write_bytes(data[:4] + version + data[5:])
        with pytest.raises(SnapshotFormatError, match="unsupported snapshot version"):
            load_state(tmp_path / f"version{i}.bin")

    (tmp_path / "header.bin").write_bytes(data[:6])
    with pytest.raises(SnapshotFormatError, match="header"):
        load_state(tmp_path / "header.bin")

    # the payload must fill the file exactly
    (tmp_path / "short.bin").write_bytes(data[:-16])
    with pytest.raises(SnapshotFormatError, match="truncated"):
        load_state(tmp_path / "short.bin")
    (tmp_path / "trailing.bin").write_bytes(data + b"\x00")
    with pytest.raises(SnapshotFormatError, match="trailing"):
        load_state(tmp_path / "trailing.bin")

    # a header whose payload size wraps in int64: 2 * 8 * (2^59 + 1) half
    # columns are 16 elements mod 2^64
    path = tmp_path / "wrap.bin"
    head = data[:4] + struct.pack("<I5d", 3, 8.0, 2.0**60, TWO_PI, TWO_PI, 0.0)
    path.write_bytes(head + bytes(16 * 16))
    with pytest.raises(SnapshotFormatError, match="truncated snapshot payload"):
        load_state(path)

    # the header's time, the last of its five doubles, must be finite
    for i, time in enumerate((np.nan, np.inf)):
        path = tmp_path / f"time{i}.bin"
        path.write_bytes(data[:40] + struct.pack("<d", time) + data[48:])
        with pytest.raises(SnapshotFormatError, match="time"):
            load_state(path)

    # payloads that fail validate(), and a non-finite one
    edits = (
        ("Hermitian", (0, 1, 0), st.w[0, 1, 0] + 1.0j),  # a self-mirrored column
        ("mean", (1, 0, 0), 1.0),
        ("non-finite", (0, 1, 2), np.nan),
    )
    for i, (pattern, index, value) in enumerate(edits):
        bad = st.w.copy()
        bad[index] = value
        path = tmp_path / f"bad{i}.bin"
        save_state(SpectralState(g, bad), path)
        with pytest.raises(SnapshotFormatError, match=pattern):
            load_state(path)
