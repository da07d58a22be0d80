"""Time integration of the perturbed system with an exact linear flow.

The evolved equations, for the perturbation (v, B) of the steady state with
unit background field along x1:

    dt v + kappa (-Lap)^alpha v + (v.grad) v - (B.grad) B - grad p = d1 B
    dt B + (v.grad) B - (B.grad) v = d1 v

with both fields divergence free and the pressure removed by projection.
The linear part (damping plus the d1 coupling) is applied exactly through
the per-mode 2x2 semigroup entries; only the quadratic terms are stepped
by the integrator, so the scheme's error vanishes with the data amplitude.

Steppers: ETDRK2 (default; second order, one exponential and two phi
applications per step) and Lawson IFRK4 (fourth order in the quadratic
terms, for accuracy studies). The pseudo-spectral products use the 2/3
dealias rule, after which retained-mode products equal true convolutions.
"""

import warnings
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .diagnostics import DiagnosticsRecord, instantaneous
from .errors import BlowUpError, ConfigError, DiagnosticIntegrityError
from .propagator import (
    apply_block_entries,
    build_profile,
    grid_phi_entries,
    grid_semigroup_entries,
)
from .spectral import (
    SpectralGrid,
    SpectralState,
    _project_pair,
    coeff_derivative,
    dealias,
    enforce_zero_mean,
    leray_project,
    make_grid,
    random_div_free_state,
    to_physical,
)

SCHEMES = ("etdrk2", "ifrk4")
DATA_KINDS = ("zero", "prop25", "random")


def _multiple_of(value: float, unit: float, what: str) -> int:
    k = int(round(value / unit))
    if k < 1 or abs(k * unit - value) > 1e-8 * max(value, unit):
        raise ConfigError(f"{what} = {value} is not a positive multiple of {unit}")
    return k


@dataclass(frozen=True)
class SolverConfig:
    """Full description of one run; validated on construction.

    ``data_delta`` rescales the built initial data so its order-m energy
    E(0) equals the given value. ``coupling = False`` removes the
    background-field terms from the linear flow (the damped-advection
    control); ``nonlinear = False`` removes the quadratic terms. Both
    t_end and output_every must be integer multiples of dt so samples land
    on a uniform cadence.
    """

    n1: int
    n2: int
    dt: float
    t_end: float
    l1: float = 2.0 * np.pi
    l2: float = 2.0 * np.pi
    scheme: str = "etdrk2"
    alpha: float = 0.0
    kappa: float = 1.0
    m: int = 4
    seed: int = 0
    data_kind: str = "prop25"
    data_delta: float = 1e-2
    output_every: Optional[float] = None
    output_dir: Optional[str] = None
    nonlinear: bool = True
    coupling: bool = True

    def __post_init__(self):
        make_grid(self.n1, self.n2, self.l1, self.l2)  # grid validation
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ConfigError(f"dt must be positive, got {self.dt!r}")
        if not (self.t_end > self.dt):
            raise ConfigError(f"t_end must exceed dt, got {self.t_end!r}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        # kappa = 0 is allowed as the conservation control; negative is not
        if not (self.kappa >= 0.0 and np.isfinite(self.kappa)):
            raise ConfigError(f"kappa must be nonnegative, got {self.kappa!r}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if int(self.m) != self.m or self.m < 1:
            raise ConfigError(f"m must be a positive integer, got {self.m!r}")
        if self.data_kind not in DATA_KINDS:
            raise ConfigError(f"data_kind must be one of {DATA_KINDS}, got {self.data_kind!r}")
        if self.data_kind != "zero" and not (self.data_delta > 0.0):
            raise ConfigError(f"data_delta must be positive, got {self.data_delta!r}")
        every = self.output_every if self.output_every is not None else self.dt
        object.__setattr__(self, "output_every", float(every))
        _multiple_of(self.t_end, self.dt, "t_end")
        stride = _multiple_of(self.output_every, self.dt, "output_every")
        if self.n_steps % stride != 0:
            raise ConfigError(
                f"t_end/dt = {self.n_steps} is not a multiple of the "
                f"output stride {stride}"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def sample_stride(self) -> int:
        return int(round(self.output_every / self.dt))

    def grid(self) -> SpectralGrid:
        return make_grid(self.n1, self.n2, self.l1, self.l2)


@dataclass
class Trajectory:
    """Sampled history of one run: times, records, and state snapshots.

    ``states`` aligns with ``times``; entries may be None when snapshots
    were not kept, but the first and last sampled states always are.
    """

    times: List[float] = field(default_factory=list)
    records: List[DiagnosticsRecord] = field(default_factory=list)
    states: List[Optional[SpectralState]] = field(default_factory=list)

    def append(self, time: float, record: DiagnosticsRecord,
               state: Optional[SpectralState] = None) -> None:
        if self.times and time <= self.times[-1]:
            raise ConfigError(
                f"trajectory times must increase: {time} after {self.times[-1]}"
            )
        self.times.append(float(time))
        self.records.append(record)
        self.states.append(state)

    @property
    def final_state(self) -> Optional[SpectralState]:
        for st in reversed(self.states):
            if st is not None:
                return st
        return None


def _nonlinear(grid: SpectralGrid, u: np.ndarray) -> np.ndarray:
    """Quadratic tendencies of both equations from one coefficient stack.

    Advective form: N_v = P[-(v.grad)v + (B.grad)B], N_B = -(v.grad)B +
    (B.grad)v, evaluated pointwise in physical space and projected,
    dealiased, and mean-zeroed on return.
    """
    n = grid.n1 * grid.n2
    phys = np.real(np.fft.ifft2(u, axes=(-2, -1))) * n
    dcoef = np.empty((8,) + grid.shape, dtype=np.complex128)
    for c in range(4):
        dcoef[c] = coeff_derivative(grid, u[c], 1)
        dcoef[4 + c] = coeff_derivative(grid, u[c], 2)
    d = np.real(np.fft.ifft2(dcoef, axes=(-2, -1))) * n

    v1, v2, B1, B2 = phys
    prod = np.empty((4,) + grid.shape)
    # d[c] = d1 of component c, d[4+c] = d2 of component c
    prod[0] = -(v1 * d[0] + v2 * d[4]) + (B1 * d[2] + B2 * d[6])
    prod[1] = -(v1 * d[1] + v2 * d[5]) + (B1 * d[3] + B2 * d[7])
    prod[2] = -(v1 * d[2] + v2 * d[6]) + (B1 * d[0] + B2 * d[4])
    prod[3] = -(v1 * d[3] + v2 * d[7]) + (B1 * d[1] + B2 * d[5])

    out = np.fft.fft2(prod, axes=(-2, -1)) / n
    out *= grid.dealias_mask
    out[0], out[1] = _project_pair(grid, out[0], out[1])
    # analytically redundant for the B pair, applied to suppress drift
    out[2], out[3] = _project_pair(grid, out[2], out[3])
    out[:, 0, 0] = 0.0
    return out


def nonlinear_rhs(state: SpectralState) -> np.ndarray:
    """Quadratic spectral tendency of a dealiased divergence-free state."""
    return _nonlinear(state.grid, state.u)


class _Stepper:
    """Precomputed per-mode entries for one (grid, config) pair."""

    def __init__(self, grid: SpectralGrid, cfg: SolverConfig):
        self.grid = grid
        self.cfg = cfg
        h = cfg.dt
        kw = dict(kappa=cfg.kappa, alpha=cfg.alpha, coupling=cfg.coupling)
        self.full = grid_semigroup_entries(grid, h, **kw)
        if cfg.scheme == "etdrk2":
            self.phi1 = grid_phi_entries(1, grid, h, **kw)
            self.phi2 = grid_phi_entries(2, grid, h, **kw)
        else:
            self.half = grid_semigroup_entries(grid, 0.5 * h, **kw)

    def advance(self, u: np.ndarray) -> np.ndarray:
        if not self.cfg.nonlinear:
            return apply_block_entries(u, self.full)
        if self.cfg.scheme == "etdrk2":
            return self._etdrk2(u)
        return self._ifrk4(u)

    def _etdrk2(self, u):
        g, h = self.grid, self.cfg.dt
        n0 = _nonlinear(g, u)
        ua = apply_block_entries(u, self.full) + h * apply_block_entries(n0, self.phi1)
        na = _nonlinear(g, ua)
        return ua + h * apply_block_entries(na - n0, self.phi2)

    def _ifrk4(self, u):
        g, h = self.grid, self.cfg.dt
        k1 = _nonlinear(g, u)
        eu_half = apply_block_entries(u, self.half)
        a = eu_half + 0.5 * h * apply_block_entries(k1, self.half)
        k2 = _nonlinear(g, a)
        b = eu_half + 0.5 * h * k2
        k3 = _nonlinear(g, b)
        eu_full = apply_block_entries(u, self.full)
        c = eu_full + h * apply_block_entries(k3, self.half)
        k4 = _nonlinear(g, c)
        return eu_full + (h / 6.0) * (
            apply_block_entries(k1, self.full)
            + 2.0 * apply_block_entries(k2 + k3, self.half)
            + k4
        )


def step(state: SpectralState, cfg: SolverConfig) -> SpectralState:
    """Advance one state by dt under the configured scheme.

    Builds the per-mode tables afresh on every call, exactly as ``run``
    does once per run; loops should call ``run``.
    """
    if state.grid.shape != (cfg.n1, cfg.n2) or (state.grid.l1, state.grid.l2) != (cfg.l1, cfg.l2):
        raise ConfigError("state grid does not match the solver configuration")
    u = _Stepper(state.grid, cfg).advance(state.u)
    if not np.all(np.isfinite(u)):
        raise BlowUpError(
            f"non-finite coefficients after one step from t = {state.time}",
            last_valid_time=state.time,
        )
    return SpectralState(state.grid, u, state.time + cfg.dt)


def advective_dt_bound(state: SpectralState) -> float:
    """0.5 * min grid spacing / (1 + max |v| + max |B|), pointwise norms."""
    fields = to_physical(state)
    vmax = float(np.max(np.sqrt(fields[0] ** 2 + fields[1] ** 2)))
    bmax = float(np.max(np.sqrt(fields[2] ** 2 + fields[3] ** 2)))
    return 0.5 * min(state.grid.dx) / (1.0 + vmax + bmax)


def initial_state(cfg: SolverConfig, grid: Optional[SpectralGrid] = None) -> SpectralState:
    """Build and normalize the configured initial data on the grid.

    Profile data is sampled at grid wavenumbers with the stream-function
    phase (so physical fields are real), projected, mean-zeroed, and
    dealiased, then scaled so the order-m energy E(0) equals data_delta.
    """
    g = grid if grid is not None else cfg.grid()
    if cfg.data_kind == "zero":
        return SpectralState.zeros(g)
    if cfg.data_kind == "prop25":
        profile = build_profile("prop25")
        samp = profile.vector_at(
            np.broadcast_to(g.xi1, g.shape), np.broadcast_to(g.xi2, g.shape)
        )
        st = SpectralState(g, 1j * samp)
        st = dealias(enforce_zero_mean(leray_project(st)))
    else:
        st = random_div_free_state(g, cfg.seed)
    e0 = instantaneous(st, cfg.m).E
    if e0 <= 0.0:
        raise ConfigError(
            f"initial data {cfg.data_kind!r} vanishes on this grid; "
            "the box is too small to resolve its spectral support"
        )
    st.u *= cfg.data_delta / e0
    return st


def _dissipation_rate(grid: SpectralGrid, u: np.ndarray, kappa: float, alpha: float) -> float:
    w = grid.xi_sq**alpha if alpha != 0.0 else 1.0
    return float(kappa * grid.area * np.sum(w * (np.abs(u[0]) ** 2 + np.abs(u[1]) ** 2)))


def _half_l2_sq(grid: SpectralGrid, u: np.ndarray) -> float:
    return float(0.5 * grid.area * np.sum(np.abs(u) ** 2))


def run(cfg: SolverConfig, initial: Optional[SpectralState] = None,
        keep_states: bool = False) -> Trajectory:
    """Integrate to t_end, sampling diagnostics at the configured cadence.

    The energy-law residual carried by each record is the signed defect
    of the half-L2 balance with the dissipation integral accumulated by
    per-step trapezoid quadrature; it shrinks at second order in dt. On
    non-finite coefficients or a failed diagnostic invariant the partial
    trajectory rides on the raised ``BlowUpError`` or
    ``DiagnosticIntegrityError``.
    """
    g = cfg.grid()
    state = initial if initial is not None else initial_state(cfg, g)
    if state.grid != g:
        raise ConfigError("initial state grid does not match the configuration")
    state.validate()

    bound = advective_dt_bound(state)
    if cfg.dt > bound:
        warnings.warn(
            f"dt = {cfg.dt} exceeds the advective bound {bound:.3e}; "
            "accuracy may degrade",
            RuntimeWarning,
        )

    stepper = _Stepper(g, cfg)
    traj = Trajectory()
    base = state.time
    e0 = _half_l2_sq(g, state.u)
    acc = 0.0
    d_prev = _dissipation_rate(g, state.u, cfg.kappa, cfg.alpha)
    traj.append(base, instantaneous(state, cfg.m, energy_residual=0.0), state.copy())

    u = state.u.copy()
    t_prev = base
    for i in range(cfg.n_steps):
        u = stepper.advance(u)
        t = base + (i + 1) * cfg.dt
        if not np.all(np.isfinite(u)):
            raise BlowUpError(
                f"non-finite coefficients at t = {t}",
                last_valid_time=t_prev,
                trajectory=traj,
            )
        d_next = _dissipation_rate(g, u, cfg.kappa, cfg.alpha)
        acc += 0.5 * cfg.dt * (d_prev + d_next)
        d_prev = d_next
        t_prev = t
        if (i + 1) % cfg.sample_stride == 0:
            snap = SpectralState(g, u.copy(), t)
            snap.validate()
            resid = _half_l2_sq(g, u) - e0 + acc
            try:
                rec = instantaneous(snap, cfg.m, energy_residual=resid)
            except DiagnosticIntegrityError as exc:
                exc.trajectory = traj
                raise
            last = (i + 1) == cfg.n_steps
            traj.append(t, rec, snap if (keep_states or last) else None)
    return traj
