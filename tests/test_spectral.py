"""Transform conventions, projections, norms, and the snapshot format."""

import numpy as np
import pytest

from mhd2d.errors import ConfigError, SnapshotFormatError
from mhd2d.spectral import (
    SpectralGrid,
    SpectralState,
    coeff_derivative,
    dealias,
    divergence_defect,
    enforce_zero_mean,
    from_physical,
    hermitian_defect,
    l2_norm,
    leray_project,
    load_state,
    make_grid,
    multi_index_weight,
    random_div_free_state,
    save_state,
    sobolev_norm,
    spectral_derivative,
    to_physical,
    transform_roundtrip,
)

TWO_PI = 2.0 * np.pi


def random_state(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    fields = scale * rng.standard_normal((4, grid.n1, grid.n2))
    return from_physical(grid, fields)


def test_grid_validation():
    with pytest.raises(ConfigError):
        make_grid(7, 8, TWO_PI, TWO_PI)
    with pytest.raises(ConfigError):
        make_grid(8, 4, TWO_PI, TWO_PI)
    with pytest.raises(ConfigError):
        make_grid(8, 8, -1.0, TWO_PI)
    with pytest.raises(ConfigError):
        make_grid(8, 8, TWO_PI, float("inf"))


def test_grid_wavenumber_layout():
    g = make_grid(8, 16, TWO_PI, np.pi)
    assert g.xi1.shape == (8, 1) and g.xi2.shape == (1, 16)
    # spacing 2 pi / l per axis
    assert g.xi1[1, 0] == pytest.approx(1.0)
    assert g.xi2[0, 1] == pytest.approx(2.0)
    assert g.k1[g.n1 // 2] == -g.n1 // 2  # single Nyquist


def test_roundtrip_identity():
    g = make_grid(32, 24, TWO_PI, 4.0)
    st = random_state(g, seed=1)
    back = transform_roundtrip(st)
    assert np.max(np.abs(back.u - st.u)) < 1e-14


def test_derivative_closed_form():
    g = make_grid(32, 32, TWO_PI, TWO_PI)
    x1, x2 = g.x()
    f = np.sin(3.0 * x1) * np.cos(2.0 * x2) * np.ones(g.shape)
    st = from_physical(g, np.broadcast_to(f, (4,) + g.shape).copy())
    d1 = to_physical(spectral_derivative(st, 1))
    d2 = to_physical(spectral_derivative(st, 2))
    assert np.max(np.abs(d1[0] - 3.0 * np.cos(3.0 * x1) * np.cos(2.0 * x2))) < 1e-12
    assert np.max(np.abs(d2[0] + 2.0 * np.sin(3.0 * x1) * np.sin(2.0 * x2))) < 1e-12


def test_derivative_respects_box_size():
    # on a box of side 4 pi the lowest mode has wavenumber 1/2
    g = make_grid(32, 32, 2.0 * TWO_PI, TWO_PI)
    x1, _ = g.x()
    f = np.cos(0.5 * x1) * np.ones(g.shape)
    st = from_physical(g, np.broadcast_to(f, (4,) + g.shape).copy())
    d1 = to_physical(spectral_derivative(st, 1))
    assert np.max(np.abs(d1[0] + 0.5 * np.sin(0.5 * x1))) < 1e-13


def test_odd_derivative_kills_nyquist():
    g = make_grid(16, 16, TWO_PI, TWO_PI)
    u = np.zeros(g.shape, dtype=complex)
    u[g.n1 // 2, 3] = 1.0  # Nyquist row on axis 1
    out = coeff_derivative(g, u, 1, order=1)
    assert np.all(out == 0.0)
    out2 = coeff_derivative(g, u, 1, order=2)
    assert out2[g.n1 // 2, 3] != 0.0


def test_parseval_calibration():
    g = make_grid(32, 32, 3.0, 5.0)
    st = random_state(g, seed=2)
    phys = to_physical(st)
    riemann = np.sqrt(np.sum(phys[0] ** 2) * g.cell_area)
    assert l2_norm(g, st.u[0]) == pytest.approx(riemann, rel=1e-13)


def test_dealias_two_thirds():
    g = make_grid(24, 24, TWO_PI, TWO_PI)
    st = random_state(g, seed=3)
    cut = dealias(st)
    assert np.all(cut.u[:, np.abs(g.k1) * 3 >= g.n1, :] == 0.0)
    assert np.all(cut.u[:, :, np.abs(g.k2) * 3 >= g.n2] == 0.0)
    kept = np.abs(g.k1) * 3 < g.n1
    assert np.all(cut.u[:, kept, :][:, :, np.abs(g.k2) * 3 < g.n2] == st.u[:, kept, :][:, :, np.abs(g.k2) * 3 < g.n2])
    again = dealias(cut)
    assert np.array_equal(again.u, cut.u)


def test_leray_projection():
    g = make_grid(32, 32, TWO_PI, TWO_PI)
    st = random_state(g, seed=4)
    proj = leray_project(st)
    dv, dB = divergence_defect(g, proj.u)
    scale = np.max(np.abs(proj.u))
    assert max(dv, dB) < 1e-13 * scale
    twice = leray_project(proj)
    assert np.max(np.abs(twice.u - proj.u)) < 1e-14 * scale
    # the zero mode passes through untouched
    st.u[:, 0, 0] = 7.0
    assert np.all(leray_project(st).u[:, 0, 0] == 7.0)


def test_sobolev_norm_conventions():
    g = make_grid(16, 16, TWO_PI, TWO_PI)
    st = random_state(g, seed=5)
    f = st.u[0]
    assert sobolev_norm(g, f, 0) == pytest.approx(l2_norm(g, f), rel=1e-14)
    assert sobolev_norm(g, f, 2) >= sobolev_norm(g, f, 1) >= sobolev_norm(g, f, 0)
    with pytest.raises(ConfigError):
        sobolev_norm(g, f, -1)


def test_multi_index_weight_closed_form():
    g = make_grid(16, 16, TWO_PI, TWO_PI)
    w1 = multi_index_weight(g, 1)
    assert np.max(np.abs(w1 - (1.0 + g.xi1**2 + g.xi2**2))) == 0.0
    w2 = multi_index_weight(g, 2)
    expect = (1.0 + g.xi1**2 + g.xi2**2 + g.xi1**4 + g.xi1**2 * g.xi2**2 + g.xi2**4)
    assert np.max(np.abs(w2 - expect)) < 1e-12 * np.max(expect)


def test_hermitian_defect_detects_asymmetry():
    g = make_grid(16, 16, TWO_PI, TWO_PI)
    st = random_state(g, seed=6)
    assert hermitian_defect(g, st.u) < 1e-14
    st.u[0, 2, 3] += 0.5
    assert hermitian_defect(g, st.u) > 0.1


def test_random_state_properties():
    g = make_grid(32, 32, TWO_PI, TWO_PI)
    st = random_div_free_state(g, seed=11, amplitude=0.25)
    st.validate()
    peak = max(l2_norm(g, st.u[c]) for c in range(4))
    assert peak == pytest.approx(0.25, rel=1e-12)
    same = random_div_free_state(g, seed=11, amplitude=0.25)
    assert np.array_equal(same.u, st.u)
    other = random_div_free_state(g, seed=12, amplitude=0.25)
    assert np.max(np.abs(other.u - st.u)) > 1e-3


def test_state_validation_errors():
    g = make_grid(16, 16, TWO_PI, TWO_PI)
    with pytest.raises(ConfigError):
        SpectralState(g, np.zeros((3, 16, 16), dtype=complex))
    with pytest.raises(ConfigError):
        SpectralState(g, np.zeros((4, 16, 16), dtype=complex), time=-1.0)
    st = random_state(g, seed=7)
    st.u[:, 0, 0] = 1.0
    with pytest.raises(ConfigError):
        st.validate()
    st = random_div_free_state(g, seed=7)
    st.u[0, 1, 2] = np.nan
    with pytest.raises(ConfigError, match="non-finite"):
        st.validate()


def test_enforce_zero_mean():
    g = make_grid(16, 16, TWO_PI, TWO_PI)
    st = random_state(g, seed=8)
    st.u[:, 0, 0] = 3.0 + 1.0j
    assert np.all(enforce_zero_mean(st).u[:, 0, 0] == 0.0)


def test_snapshot_roundtrip(tmp_path):
    g = make_grid(16, 24, 3.5, TWO_PI)
    st = random_div_free_state(g, seed=9)
    st.time = 2.25
    path = tmp_path / "snap.bin"
    save_state(st, path)
    back = load_state(path)
    assert back.grid == g
    assert back.time == 2.25
    assert np.array_equal(back.u, st.u)


def test_snapshot_format_errors(tmp_path):
    g = make_grid(16, 16, TWO_PI, TWO_PI)
    st = random_div_free_state(g, seed=10)
    path = tmp_path / "snap.bin"
    save_state(st, path)

    data = path.read_bytes()
    (tmp_path / "magic.bin").write_bytes(b"XXXX" + data[4:])
    with pytest.raises(SnapshotFormatError):
        load_state(tmp_path / "magic.bin")

    (tmp_path / "version.bin").write_bytes(data[:4] + b"\x63\x00\x00\x00" + data[8:])
    with pytest.raises(SnapshotFormatError):
        load_state(tmp_path / "version.bin")

    (tmp_path / "short.bin").write_bytes(data[:-16])
    with pytest.raises(SnapshotFormatError):
        load_state(tmp_path / "short.bin")

    (tmp_path / "header.bin").write_bytes(data[:6])
    with pytest.raises(SnapshotFormatError, match="header"):
        load_state(tmp_path / "header.bin")

    (tmp_path / "trailing.bin").write_bytes(data + b"\x00")
    with pytest.raises(SnapshotFormatError, match="trailing"):
        load_state(tmp_path / "trailing.bin")

    # payloads that fail validate(), and a non-finite one
    edits = (
        ("Hermitian", [((0, 1, 2), st.u[0, 1, 2] + 1.0j)]),
        ("divergence", [((0, 1, 0), 1.0), ((0, -1, 0), 1.0)]),
        ("non-finite", [((0, 1, 2), np.nan)]),
    )
    for i, (pattern, changes) in enumerate(edits):
        bad = st.u.copy()
        for index, value in changes:
            bad[index] = value
        path = tmp_path / f"bad{i}.bin"
        save_state(SpectralState(g, bad), path)
        with pytest.raises(SnapshotFormatError, match=pattern):
            load_state(path)
