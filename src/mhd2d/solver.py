"""Time integration of the perturbed system with an exact linear flow.

The evolved equations, for the perturbation (v, B) of the steady state with
unit background field along x1:

    dt v + kappa (-Lap)^alpha v + (v.grad) v - (B.grad) B - grad p = d1 B
    dt B + (v.grad) B - (B.grad) v = d1 v

with both fields divergence free. In 2D that makes v = (d2 psi, -d1 psi)
and B = (d2 a, -d1 a), and the stepper evolves the stream function psi and
the magnetic potential a on the real-FFT half spectrum, cut to its first
kc = ceil(n2/3) columns, the only ones the 2/3 dealias rule keeps (one
(2, n1, kc) band stack), instead of the four components over the full
spectrum.
The pressure never appears, zero divergence holds by construction, and
real fields stay real because only half of the spectrum is stored. The
per-mode 2x2 block of the linear part acts on (psi_hat, a_hat) exactly as
it acts on each (v_j_hat, B_j_hat) pair, so the linear flow is applied
exactly through the same semigroup entries, built in the band stack's
shape (once per row when alpha = 0); only the quadratic terms

    N_omega = -v.grad omega + B.grad j = d1 d2 (T22 - T11) + (d1^2 - d2^2) T12,
    N_psi = N_omega / |xi|^2,   N_a = v1 B2 - v2 B1,

with omega = -Lap psi, j = -Lap a and the stress T = B (x) B - v (x) v
(for divergence-free v and B, -(v.grad)v + (B.grad)B = div T), are stepped
by the integrator, so the scheme's error vanishes with the data amplitude.
The stress form (C. Basdevant, J. Comput. Phys. 50, 1983) needs only v and
B in physical space: a tendency transforms 4 planes inverse and 3 forward,
14 per ETDRK2 step, each direction as two 1-D passes: one along axis 2 and
one along axis 1 over the kc band columns only. ``SpectralState`` (the four
components on the full spectrum) stays the form of every input and output.
``run`` and ``step`` enter the band stack only through ``_band``, which
checks the grid, ``validate()`` and the 2/3 band, and leave it only
through ``from_potentials``, which takes the band stack as it is; a run
records each sample from the band stack's own columns and builds a state
only for one that leaves the run (``_sampled_state``).

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
    STATE_RTOL,
    SpectralGrid,
    SpectralState,
    _components,
    _potentials,
    from_potentials,
    make_grid,
    random_div_free_state,
    to_physical,
)

SCHEMES = ("etdrk2", "ifrk4")
DATA_KINDS = ("zero", "prop25", "random")


def _multiple_of(value: float, unit: float, what: str) -> int:
    if not np.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")
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
        object.__setattr__(self, "m", int(self.m))
        if self.data_kind not in DATA_KINDS:
            raise ConfigError(f"data_kind must be one of {DATA_KINDS}, got {self.data_kind!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
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


def _nonlinear(grid: SpectralGrid, w: np.ndarray) -> np.ndarray:
    """Quadratic tendencies (N_psi, N_a) of one band stack (psi, a).

    The stack holds the first ``grid.band_cols`` = kc half-spectrum columns,
    the only ones the 2/3 rule keeps. In stress form: the four components
    v1, B1, v2, B2 come from an ``ifftn`` along axis 1 over the kc columns
    and an ``irfftn`` of length n2 along axis 2 (which zero-pads the
    dropped columns); the three products T22 - T11, T12 and N_a = v1 B2 -
    v2 B1 of T = B (x) B - v (x) v go back through an ``rfftn`` along axis 2
    and an ``fftn`` along axis 1 over its first kc columns. Then
    N_omega_hat = (xi2^2 - xi1^2) T12_hat - xi1 xi2 (T22 - T11)_hat is the
    curl of div T. That is four 1-D passes per call, the same values as one
    7-plane ``irfft2``/``rfft2`` pair on the whole half spectrum, bit for
    bit. The result is dealiased along axis 1, N_omega divided by |xi|^2,
    and mean-zeroed. Each stage's input is released before the next stage
    allocates, and the result overwrites the forward transform in place,
    which keeps the transient memory of a call small.
    """
    kc = w.shape[-1]
    xi1, xi2 = grid.xi1, grid.half_xi2[:, :kc]
    spec = np.empty((4,) + w.shape[1:], dtype=np.complex128)
    np.multiply(w, 1j * xi2, out=spec[0:2])
    np.multiply(w, -1j * xi1, out=spec[2:4])
    cols = np.fft.ifftn(spec, axes=(-2,), norm="forward")
    del spec
    v1, B1, v2, B2 = np.fft.irfftn(cols, s=(grid.n2,), axes=(-1,), norm="forward")
    del cols
    prod = np.empty((3,) + grid.shape)
    prod[0] = v1 * v1 - v2 * v2 + B2 * B2 - B1 * B1
    prod[1] = B1 * B2 - v1 * v2
    prod[2] = v1 * B2 - v2 * B1
    del v1, B1, v2, B2
    rows = np.fft.rfftn(prod, axes=(-1,), norm="forward")
    del prod
    t = np.fft.fftn(rows[..., :kc], axes=(-2,), norm="forward")
    del rows
    t[1] *= xi2 * xi2 - xi1 * xi1
    t[0] *= xi1 * xi2
    t[1] -= t[0]
    out = t[1:]
    out *= grid.half_dealias_mask[:, :kc]
    out[0] *= grid.half_inv_xi_sq[:, :kc]
    out[1, 0, 0] = 0.0
    return out


def _band(state: SpectralState, grid: SpectralGrid) -> np.ndarray:
    """The (psi, a) band stack of a checked state: the one way into the stepper.

    Raises ``ConfigError`` unless the state lies on ``grid``, passes
    ``validate()`` and has no coefficient outside the 2/3 dealias band above
    ``STATE_RTOL`` max|u|. The tendency is alias-free only on band-limited
    states: outside the band the stress form aliases differently from the
    advective form it stands for, and the band stack drops it. The stack
    holds the ``grid.band_cols`` leading half-spectrum columns.
    """
    if state.grid != grid:
        raise ConfigError("state grid does not match the solver configuration")
    state.validate()
    mag = np.abs(state.u)
    scale = max(float(np.max(mag)), 1e-300)
    outside = float(np.max(mag[:, ~grid.dealias_mask]))
    if outside > STATE_RTOL * scale:
        raise ConfigError(
            f"state has coefficients outside the 2/3 dealias band: {outside:.3e} "
            f"against max |u| = {scale:.3e}"
        )
    return _potentials(grid, state.u, grid.band_cols)


def _sampled_state(grid: SpectralGrid, w: np.ndarray, time: float, kept: bool):
    """A run's sample of its band stack: the components on the band columns
    and, if ``kept`` (it leaves the run), the state, else None.

    The curl map's mirror would hide an asymmetric k2 = 0 column, so ``w``
    itself is checked against ``STATE_RTOL`` max|w|: max|w| times the band's
    largest |xi| must be finite (else the components would not be), the
    k2 = 0 column Hermitian and the mean mode zero. A kept state also passes
    the full ``validate()``. Any failure raises ``DiagnosticIntegrityError``.
    """
    peak = float(np.max(np.abs(w)))
    if not np.isfinite(peak * grid.band_xi_max):
        raise DiagnosticIntegrityError(
            f"band stack at t = {time} overflows the curl map: max |w| = {peak:.3e}"
        )
    scale = max(peak, 1e-300)
    col = w[:, :, 0]
    herm = float(np.max(np.abs(col - np.conj(col[:, (-np.arange(grid.n1)) % grid.n1]))))
    if herm > STATE_RTOL * scale:
        raise DiagnosticIntegrityError(
            f"band stack at t = {time} is not Hermitian symmetric in its k2 = 0 "
            f"column: defect {herm:.3e} against max |w| = {scale:.3e}"
        )
    mean = float(np.max(np.abs(w[:, 0, 0])))
    if mean > STATE_RTOL * scale:
        raise DiagnosticIntegrityError(
            f"band stack at t = {time} has nonzero mean mode: {mean:.3e} "
            f"against max |w| = {scale:.3e}"
        )
    if kept:
        snap = from_potentials(grid, w, time)
        try:
            snap.validate()
        except ConfigError as exc:
            raise DiagnosticIntegrityError(f"sampled state at t = {time}: {exc}") from exc
    return _components(grid, w), (snap if kept else None)


class _Stepper:
    """Per-mode tables for one (grid, config) pair, on the band columns.

    The step tables come from ``grid_phi_entries`` already in the band
    stack's shape, contiguous (n1, ``grid.band_cols``) arrays, and the
    energy weights are formed on the same columns, so each operation of a
    step acts on the band stack only.
    """

    def __init__(self, grid: SpectralGrid, cfg: SolverConfig):
        self.grid = grid
        self.cfg = cfg
        h = cfg.dt
        kc = grid.band_cols
        kw = dict(kappa=cfg.kappa, alpha=cfg.alpha, coupling=cfg.coupling)
        self.full = grid_semigroup_entries(grid, h, **kw)
        if cfg.scheme == "etdrk2":
            self.phi1 = grid_phi_entries(1, grid, h, **kw)
            self.phi2 = grid_phi_entries(2, grid, h, **kw)
        else:
            self.half = grid_semigroup_entries(grid, 0.5 * h, **kw)
        # |v_hat|^2 = |xi|^2 |psi_hat|^2 summed over the full spectrum
        xi_sq = grid.half_xi_sq[:, :kc]
        l2_weight = grid.area * grid.half_mult[:kc] * xi_sq
        self.energy_weight = 0.5 * l2_weight
        damping = xi_sq**cfg.alpha if cfg.alpha != 0.0 else 1.0
        self.dissipation_weight = cfg.kappa * damping * l2_weight

    def half_l2_sq(self, w: np.ndarray) -> float:
        """(|v|^2 + |B|^2) / 2 integrated over the box."""
        return float(np.sum(self.energy_weight * (w.real**2 + w.imag**2)))

    def dissipation_rate(self, w: np.ndarray) -> float:
        """kappa |(-Lap)^(alpha/2) v|^2 integrated over the box."""
        return float(np.sum(self.dissipation_weight * (w[0].real**2 + w[0].imag**2)))

    def advance(self, w: np.ndarray) -> np.ndarray:
        if not self.cfg.nonlinear:
            return apply_block_entries(w, self.full)
        if self.cfg.scheme == "etdrk2":
            return self._etdrk2(w)
        return self._ifrk4(w)

    def _etdrk2(self, w):
        g, h = self.grid, self.cfg.dt
        n0 = _nonlinear(g, w)
        wa = apply_block_entries(w, self.full) + h * apply_block_entries(n0, self.phi1)
        na = _nonlinear(g, wa)
        return wa + h * apply_block_entries(na - n0, self.phi2)

    def _ifrk4(self, w):
        g, h = self.grid, self.cfg.dt
        k1 = _nonlinear(g, w)
        ew_half = apply_block_entries(w, self.half)
        a = ew_half + 0.5 * h * apply_block_entries(k1, self.half)
        k2 = _nonlinear(g, a)
        b = ew_half + 0.5 * h * k2
        k3 = _nonlinear(g, b)
        ew_full = apply_block_entries(w, self.full)
        c = ew_full + h * apply_block_entries(k3, self.half)
        k4 = _nonlinear(g, c)
        return ew_full + (h / 6.0) * (
            apply_block_entries(k1, self.full)
            + 2.0 * apply_block_entries(k2 + k3, self.half)
            + k4
        )


def step(state: SpectralState, cfg: SolverConfig) -> SpectralState:
    """Advance one state by dt under the configured scheme.

    Builds the per-mode tables afresh on every call, exactly as ``run``
    does once per run; loops should call ``run``. A state off the
    configured grid, failing ``validate()`` or with coefficients outside the
    2/3 dealias band raises ``ConfigError``.
    """
    g = cfg.grid()
    w = _Stepper(g, cfg).advance(_band(state, g))
    if not np.all(np.isfinite(w)):
        raise BlowUpError(
            f"non-finite coefficients after one step from t = {state.time}",
            last_valid_time=state.time,
        )
    return from_potentials(g, w, state.time + cfg.dt)


def advective_dt_bound(state: SpectralState) -> float:
    """0.5 * min grid spacing / (1 + max |v| + max |B|), pointwise norms."""
    fields = to_physical(state)
    vmax = float(np.max(np.sqrt(fields[0] ** 2 + fields[1] ** 2)))
    bmax = float(np.max(np.sqrt(fields[2] ** 2 + fields[3] ** 2)))
    return 0.5 * min(state.grid.dx) / (1.0 + vmax + bmax)


def initial_state(cfg: SolverConfig, grid: Optional[SpectralGrid] = None) -> SpectralState:
    """Build and normalize the configured initial data on the grid.

    Profile data is sampled on the band columns with the stream-function
    phase (so physical fields are real) and reduced to its potentials,
    which drops the gradient part, the mean and the Nyquist modes. Cut to
    the 2/3 band and turned into a state by ``from_potentials``, it is
    scaled so the order-m energy E(0) equals data_delta.
    """
    g = grid if grid is not None else cfg.grid()
    if cfg.data_kind == "zero":
        return SpectralState.zeros(g)
    if cfg.data_kind == "prop25":
        kc = g.band_cols
        samp = build_profile("prop25").vector_at(g.xi1, g.half_xi2[:, :kc])
        st = from_potentials(g, _potentials(g, 1j * samp, kc) * g.half_dealias_mask[:, :kc])
    else:
        st = random_div_free_state(g, cfg.seed)
    e0 = instantaneous(g, st.u, cfg.m).E
    if e0 <= 0.0:
        raise ConfigError(
            f"initial data {cfg.data_kind!r} vanishes on this grid; "
            "the box is too small to resolve its spectral support"
        )
    st.u *= cfg.data_delta / e0
    return st


def run(cfg: SolverConfig, initial: Optional[SpectralState] = None,
        keep_states: bool = False) -> Trajectory:
    """Integrate to t_end, sampling diagnostics at the configured cadence.

    The energy-law residual carried by each record is the signed defect
    of the half-L2 balance with the dissipation integral accumulated by
    per-step trapezoid quadrature; it shrinks at second order in dt. On
    non-finite coefficients or a failed diagnostic invariant the partial
    trajectory rides on the raised ``BlowUpError`` or
    ``DiagnosticIntegrityError``. Each sample checks the band stack itself
    and is recorded from its band columns; only a state that leaves the run,
    a kept one or the last, is built and passes the full ``validate()``, and
    a failure of either is a ``DiagnosticIntegrityError``. The stepper goes
    on from the sample's band columns, so a run restarted from any snapshot
    repeats the uninterrupted run bit for bit. An initial state must lie on
    the configured grid, pass ``validate()`` and lie inside the 2/3 dealias
    band, as every snapshot of a run does; otherwise ``ConfigError`` is
    raised.
    """
    g = cfg.grid()
    state = initial if initial is not None else initial_state(cfg, g)
    w = _band(state, g)

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
    e0 = stepper.half_l2_sq(w)
    acc = 0.0
    d_prev = stepper.dissipation_rate(w)
    traj.append(base, instantaneous(g, state.u, cfg.m, time=base, energy_residual=0.0),
                state.copy())

    t_prev = base
    for i in range(cfg.n_steps):
        w = stepper.advance(w)
        t = base + (i + 1) * cfg.dt
        if not np.all(np.isfinite(w)):
            raise BlowUpError(
                f"non-finite coefficients at t = {t}",
                last_valid_time=t_prev,
                trajectory=traj,
            )
        d_next = stepper.dissipation_rate(w)
        acc += 0.5 * cfg.dt * (d_prev + d_next)
        d_prev = d_next
        t_prev = t
        if (i + 1) % cfg.sample_stride == 0:
            kept = keep_states or (i + 1) == cfg.n_steps
            resid = stepper.half_l2_sq(w) - e0 + acc
            try:
                h, snap = _sampled_state(g, w, t, kept)
                # the stack is checked: _band would only repeat full |u| passes
                w = _potentials(g, h, g.band_cols)
                rec = instantaneous(g, h, cfg.m, time=t, energy_residual=resid)
            except DiagnosticIntegrityError as exc:
                exc.trajectory = traj
                raise
            traj.append(t, rec, snap)
    return traj
