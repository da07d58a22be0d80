"""The (psi, a) half-spectrum form of the solver on odd grid geometries.

Grids with n1 != n2, l1 != l2 and n not divisible by 3, where an index or
wavenumber mix-up between the two axes, or an off-by-one in the Hermitian
mirror or the dealias cutoff, cannot cancel out.
"""

import numpy as np
import pytest

from mhd2d import diagnostics
from mhd2d.solver import SolverConfig, initial_state, nonlinear_rhs, run, step
from mhd2d.spectral import (
    SpectralState,
    coeff_derivative,
    divergence_defect,
    from_potentials,
    hermitian_defect,
    leray_project,
    load_state,
    make_grid,
    random_div_free_state,
    save_state,
    to_potentials,
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


@pytest.mark.parametrize("n1,n2", ODD_GRIDS)
def test_tendency_matches_projected_four_component_form(n1, n2):
    g = make_grid(n1, n2, L1, L2)
    st = random_div_free_state(g, seed=n1 + n2, amplitude=3.0)
    want = projected_tendency(g, st.u)
    got = nonlinear_rhs(st)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n1,n2", ODD_GRIDS)
def test_potential_roundtrip(n1, n2):
    g = make_grid(n1, n2, L1, L2)
    st = random_div_free_state(g, seed=n1 * n2)
    w = to_potentials(st)
    assert w.shape == (2, n1, n2 // 2 + 1)
    back = from_potentials(g, w, st.time)
    scale = np.max(np.abs(st.u))
    assert np.max(np.abs(back.u - st.u)) <= 1e-14 * scale
    assert hermitian_defect(g, back.u) == 0.0
    assert max(divergence_defect(g, back.u)) <= 1e-15 * scale * np.max(np.sqrt(g.xi_sq))
    assert np.all(back.u[:, 0, 0] == 0.0)
    back.validate()


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


def test_etdrk2_step_transforms_twenty_half_planes(monkeypatch):
    cfg = SolverConfig(n1=40, n2=64, l1=L1, l2=L2, dt=0.02, t_end=0.04,
                       data_kind="random", data_delta=0.5, seed=1)
    st = initial_state(cfg)
    fft = PlaneCounter(monkeypatch)
    step(st, cfg)
    # two tendencies, each 8 inverse and 2 forward real transforms
    assert fft.planes == {"irfft2": 16, "rfft2": 4}
    assert all(shape == (40, 64 // 2 + 1) for name, shape in fft.inputs if name == "irfft2")


def test_sample_transforms_three_half_planes(monkeypatch):
    st = random_div_free_state(make_grid(40, 64, L1, L2), seed=2)
    fft = PlaneCounter(monkeypatch)
    diagnostics.instantaneous(st, 4)
    assert fft.planes == {"irfft2": 3}

