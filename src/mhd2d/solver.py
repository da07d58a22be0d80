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
shape from its rows k1 >= 0 (once per row when alpha = 0); only the
quadratic terms

    N_omega = -v.grad omega + B.grad j = d1 d2 (T22 - T11) + (d1^2 - d2^2) T12,
    N_psi = N_omega / |xi|^2,   N_a = v1 B2 - v2 B1,

with omega = -Lap psi, j = -Lap a and the stress T = B (x) B - v (x) v
(for divergence-free v and B, -(v.grad)v + (B.grad)B = div T), are stepped
by the integrator, so the scheme's error vanishes with the data amplitude.
The stress form (C. Basdevant, J. Comput. Phys. 50, 1983) needs only v and
B in physical space, and in Elsasser variables z+- = (v +- B) / sqrt 2
(W. M. Elsasser, Phys. Rev. 79, 1950), formed on the band before the
inverse pass, its three quantities T22 - T11, T12 and N_a take four
products instead of eight. A tendency transforms 4 planes inverse and 3
forward, 14 per ETDRK2 step, each direction as two 1-D passes: one along
axis 2 and one along axis 1 over the kc band columns only. The stepper
builds the tendency's tables once, with the mask and 1/|xi|^2 folded in,
and h is folded into its phi tables. ``SpectralState`` (the four
components on the full spectrum) stays the form of every input and output.
``run``, the one public way to a stepper, enters the band stack only
through ``_band``, which checks the grid and, in one pass of the state
check ``validate()`` uses, its properties and the 2/3 band, and leaves it
only through ``from_potentials``, which takes the band stack as it is; a
run records each sample, t = 0 included, from the band stack's own columns
and builds a state only for one that leaves the run (``_sampled_state``).

Steppers: ETDRK2 (default; second order, one exponential and two phi
applications per step) and Lawson IFRK4 (fourth order in the quadratic
terms, for accuracy studies). The pseudo-spectral products use the 2/3
dealias rule, after which retained-mode products equal true convolutions.
"""

import warnings
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .diagnostics import DiagnosticsRecord, energy, instantaneous
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
    _STATE_FAULTS,
    _check_grid,
    _column_fault,
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
        _check_grid(self.n1, self.n2, self.l1, self.l2)
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
        if self.data_kind != "zero" and not (0.0 < self.data_delta < np.inf):
            raise ConfigError(f"data_delta must be positive and finite, got {self.data_delta!r}")
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


def _nonlinear(grid: SpectralGrid, w: np.ndarray, tables) -> np.ndarray:
    """Quadratic tendencies (N_psi, N_a) of one band stack (psi, a).

    The stack holds the first ``grid.band_cols`` = kc half-spectrum columns,
    the only ones the 2/3 rule keeps; ``tables`` are the stepper's
    ``tendency_tables``. In Elsasser form: the components p1, m1, p2, m2 of
    z+- = (v +- B) / sqrt 2 come from the band sums psi +- a times i xi2 /
    sqrt 2 and -i xi1 / sqrt 2, through an ``ifftn`` along axis 1 over the
    kc columns and an ``irfftn`` of length n2 along axis 2 (which zero-pads
    the dropped columns). Four products give the three quantities

        p1 m1 - p2 m2 = (T22 - T11) / 2,  p1 m2 + m1 p2 = -T12,
        m1 p2 - p1 m2 = N_a = v1 B2 - v2 B1

    of the stress T = B (x) B - v (x) v, written over the spent physical
    planes; they go back through an ``rfftn`` along axis 2 and an ``fftn``
    along axis 1 over their first kc columns. The first two tables finish
    N_psi = N_omega / |xi|^2, the dealiased curl of div T; N_a is dealiased
    along axis 1 and mean-zeroed. That is four 1-D passes per call, the
    same values as one 7-plane ``irfft2``/``rfft2`` pair on the whole half
    spectrum, bit for bit. The inverse column pass runs in place on the
    spectra, each later stage's input is released before the next stage
    allocates, and the result overwrites the forward transform in place,
    which keeps the transient memory of a call small.
    """
    kc = w.shape[-1]
    to_ab, to_s, mult1, mult2 = tables
    spec = np.empty((4,) + w.shape[1:], dtype=np.complex128)
    np.add(w[0], w[1], out=spec[0])
    np.subtract(w[0], w[1], out=spec[1])
    np.multiply(spec[0:2], mult2, out=spec[2:4])
    spec[0:2] *= mult1
    np.fft.ifftn(spec, axes=(-2,), norm="forward", out=spec)
    phys = np.fft.irfftn(spec, s=(grid.n2,), axes=(-1,), norm="forward")
    del spec
    p1, m1, p2, m2 = phys
    cross = p1 * m2
    np.multiply(p1, m1, out=p1)
    np.multiply(m1, p2, out=m1)
    np.multiply(p2, m2, out=m2)
    p1 -= m2
    np.add(cross, m1, out=p2)
    m1 -= cross
    del p1, m1, p2, m2, cross
    # phys[0:3] now holds (T22 - T11) / 2, N_a and -T12
    rows = np.fft.rfftn(phys[0:3], axes=(-1,), norm="forward")
    del phys
    t = np.fft.fftn(rows[..., :kc], axes=(-2,), norm="forward")
    del rows
    t[0] *= to_ab
    t[2] *= to_s
    t[0] += t[2]
    out = t[0:2]
    out[1] *= grid.half_dealias_mask[:, :kc]
    out[1, 0, 0] = 0.0
    return out


def _band(state: SpectralState, grid: SpectralGrid) -> np.ndarray:
    """The (psi, a) band stack of a checked state: the one way into the stepper.

    Raises ``ConfigError`` unless the state lies on ``grid`` and passes
    ``validate()``'s checks and, in the same pass, the 2/3 band's (nothing
    outside it above ``STATE_RTOL`` max|u|). The tendency is alias-free only
    on band-limited states: outside the band the Elsasser products alias
    differently from the advective form they stand for, and the band stack
    drops it. The stack holds the ``grid.band_cols`` leading columns.
    """
    if state.grid != grid:
        raise ConfigError("state grid does not match the solver configuration")
    fault = _column_fault(grid, state.u, band=True)
    if fault is not None:
        raise ConfigError(_STATE_FAULTS[fault[0]].format(*fault[1:]))
    return _potentials(grid, state.u, grid.band_cols)


# ``_sampled_state``'s message, after "band stack at t = ...", for each fault
_STACK_FAULTS = {
    "non-finite": "overflows the curl map: max |w| = {1:.3e}",
    "Hermitian": "is not Hermitian symmetric in its k2 = 0 column: defect {0:.3e} "
                 "against max |w| = {1:.3e}",
    "mean": "has nonzero mean mode: {0:.3e} against max |w| = {1:.3e}",
}


def _sampled_state(grid: SpectralGrid, w: np.ndarray, time: float, kept: bool):
    """A run's sample of its band stack: the components on the band columns
    and, if ``kept`` (it leaves the run), the state, else None.

    The curl map's mirror would hide an asymmetric k2 = 0 column, so ``w``
    itself is checked against ``STATE_RTOL`` max|w|: max|w| times the band's
    largest |xi| must be finite (else the components would not be), the
    k2 = 0 column Hermitian and the mean mode zero. A kept state also passes
    the full ``validate()``. Any failure raises ``DiagnosticIntegrityError``.
    """
    fault = _column_fault(grid, w, gain=grid.band_xi_max)
    if fault is not None:
        raise DiagnosticIntegrityError(
            f"band stack at t = {time} " + _STACK_FAULTS[fault[0]].format(*fault[1:]))
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
    stack's shape, contiguous (n1, ``grid.band_cols``) arrays, with h folded
    into phi1 and phi2; the tendency's tables and the energy weights are
    formed on the same columns, so each operation of a step acts on the
    band stack only. A step sums its stages in place on arrays it made
    itself and leaves its input as it is.
    """

    def __init__(self, grid: SpectralGrid, cfg: SolverConfig):
        self.grid = grid
        self.cfg = cfg
        h = cfg.dt
        kc = grid.band_cols
        kw = dict(kappa=cfg.kappa, alpha=cfg.alpha, coupling=cfg.coupling)
        self.full = grid_semigroup_entries(grid, h, **kw)
        if cfg.scheme == "etdrk2":
            self.phi1 = tuple(h * e for e in grid_phi_entries(1, grid, h, **kw))
            self.phi2 = tuple(h * e for e in grid_phi_entries(2, grid, h, **kw))
        else:
            self.half = grid_semigroup_entries(grid, 0.5 * h, **kw)
        # _nonlinear's tables: N_psi from the transforms of (T22 - T11) / 2
        # and -T12, and the spectral multipliers of the z+- components
        xi1, xi2 = grid.xi1, grid.half_xi2[:, :kc]
        finish = grid.half_dealias_mask[:, :kc] * grid.half_inv_xi_sq[:, :kc]
        self.tendency_tables = (-2.0 * finish * (xi1 * xi2),
                                -finish * (xi2 * xi2 - xi1 * xi1),
                                (1j / np.sqrt(2.0)) * xi2,
                                (-1j / np.sqrt(2.0)) * xi1)
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
        g, tab = self.grid, self.tendency_tables
        n0 = _nonlinear(g, w, tab)
        wa = apply_block_entries(w, self.full)
        wa += apply_block_entries(n0, self.phi1)
        na = _nonlinear(g, wa, tab)
        na -= n0
        wa += apply_block_entries(na, self.phi2)
        return wa

    def _ifrk4(self, w):
        g, h, tab = self.grid, self.cfg.dt, self.tendency_tables
        k1 = _nonlinear(g, w, tab)
        ew_half = apply_block_entries(w, self.half)
        a = apply_block_entries(k1, self.half)
        a *= 0.5 * h
        a += ew_half
        k2 = _nonlinear(g, a, tab)
        b = np.multiply(k2, 0.5 * h, out=a)  # a is spent once k2 is taken
        b += ew_half
        del ew_half
        k3 = _nonlinear(g, b, tab)
        ew_full = apply_block_entries(w, self.full)
        c = apply_block_entries(k3, self.half)
        c *= h
        c += ew_full
        k4 = _nonlinear(g, c, tab)
        k2 += k3
        out = apply_block_entries(k2, self.half)
        out *= 2.0
        out += apply_block_entries(k1, self.full)
        out += k4
        out *= h / 6.0
        out += ew_full
        return out


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
    scaled so the order-m energy E(0) equals data_delta; E is
    ``diagnostics.energy``, a record's H^m sums over the weights the run's
    records go on to use.
    """
    g = grid if grid is not None else cfg.grid()
    if cfg.data_kind == "zero":
        return SpectralState.zeros(g)
    kc = g.band_cols  # the data lie on the band
    if cfg.data_kind == "prop25":
        samp = build_profile("prop25").vector_at(g.xi1, g.half_xi2[:, :kc])
        st = from_potentials(g, _potentials(g, 1j * samp, kc) * g.half_dealias_mask[:, :kc])
    else:
        st = random_div_free_state(g, cfg.seed)
    e0 = energy(g, st.u[:, :, :kc], cfg.m)
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
    ``DiagnosticIntegrityError``. Each sample, t = 0 included, is recorded
    from the band columns, and each later one checks the band stack itself;
    only a state that leaves the run, a kept one or the last, is built and
    passes the full ``validate()``, and a failure of either is a
    ``DiagnosticIntegrityError``. The t = 0 state is the one ``run`` built,
    or a copy of ``initial``, which the caller may go on to change. The
    stepper goes on from the sample's band columns, so a run restarted from
    any snapshot repeats the uninterrupted run bit for bit. An initial state
    must lie on the configured grid, pass ``validate()``'s checks and lie
    inside the 2/3 dealias band, as every snapshot of a run does; otherwise
    ``ConfigError`` is raised.
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
    traj.append(base, instantaneous(g, _components(g, w), cfg.m, time=base,
                                    energy_residual=0.0),
                state if initial is None else state.copy())

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
