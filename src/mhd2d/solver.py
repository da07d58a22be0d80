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
exactly through the same semigroup entries, built from the band stack's
rows k1 >= 0 (once per row when alpha = 0); only the
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
products instead of eight. A tendency transforms 4 planes inverse, through
``spectral.to_physical``, and 3 forward, 14 per ETDRK2 step, each direction
as two 1-D passes, the one along axis 1 over the kc band columns only, in
the workspace the stepper holds and its records share. The passes along
axis 2 and the products between them run one block of rows at a time, so
the workspace holds the band, over whose spent rows each block's forward
row pass returns its band columns, and one block of physical rows; every
grid up to 128^2 takes one block, 256^2 four of 64 rows. The stepper
builds the tendency's tables once, with the mask and 1/|xi|^2 folded in,
and h is folded into its phi tables, (n1, 1) row tables with alpha = 0,
whose saved memory pays for the workspace. A ``SpectralState`` holds the
same potentials on the whole half spectrum, a zero-padded band stack:
``run``, the one public way to a stepper, enters through ``_band``, which
checks the grid, the potentials and the 2/3 band in one pass of the state
check ``validate()`` uses and slices the band; it goes on from the stepped
stack at every sample, records each from the stack's own columns, and
hands the stack to its ``Trajectory``, which builds a state only from a
stack it keeps, when the state is read.

Steppers: ETDRK2 (default; second order, one exponential and two phi
applications per step) and Lawson IFRK4 (fourth order in the quadratic
terms, for accuracy studies). The pseudo-spectral products use the 2/3
dealias rule, after which retained-mode products equal true convolutions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .diagnostics import DiagnosticsRecord, RecordWeights, energy, instantaneous
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
    _block_rows,
    _check_grid,
    _check_order,
    _column_fault,
    _components,
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
        object.__setattr__(self, "m", _check_order(self.m, 1))
        # a record weighs by up to area (1 + |xi|^2)^m and the tendency by
        # 1/|xi|^2; a box where these overflow or vanish has no finite record
        with np.errstate(over="ignore", divide="ignore", under="ignore"):
            xi = 2.0 * np.pi / np.array([self.l1, self.l2], dtype=float)
            area = np.float64(self.l1) * self.l2
            top = area * (1.0 + np.sum((xi * [self.n1 // 2, self.n2 // 2]) ** 2)) ** self.m
            bottom = 1.0 / np.min(xi) ** 2
        if not all(0.0 < x < np.inf for x in (area, top, bottom)):
            raise ConfigError(
                f"box l1 x l2 = {self.l1!r} x {self.l2!r} is out of range for m = {self.m}: "
                "l1 l2, area (1 + max|xi|^2)^m or 1/min|xi|^2 is not a positive finite float")
        if self.data_kind not in DATA_KINDS:
            raise ConfigError(f"data_kind must be one of {DATA_KINDS}, got {self.data_kind!r}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
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
        return SpectralGrid(self.n1, self.n2, self.l1, self.l2)


@dataclass
class Trajectory:
    """Sampled history of one run: times, records, and the stacks it keeps.

    ``run`` hands every sample to ``append`` as it is taken, t = 0 included:
    its time, its record, and the (2, n1, kc) band stack the run steps on,
    by reference, with its grid. ``run`` builds no state and keeps no
    sample, so the trajectory alone decides what of a run survives, the
    samples a failed run took before its failure included. It keeps the
    stacks of the first sample and the latest one, or with ``keep_all``
    every sample's. ``states`` aligns with ``times``, None where no stack is
    kept, and builds each state, its stack zero-padded, when it is read.
    Each holds the run's own band stack at its time, so the states do not
    depend on the sample cadence, and a run from any of them repeats the
    rest of this one. A subclass may keep less, as the CLI's ``_Records``
    keeps no stack, or write a state out as it arrives (``_Snapshots``).
    """

    times: List[float] = field(default_factory=list)
    records: List[DiagnosticsRecord] = field(default_factory=list)
    keep_all: bool = False
    _stacks: list = field(default_factory=list, init=False, repr=False, compare=False)

    def append(self, time: float, record: DiagnosticsRecord,
               grid: Optional[SpectralGrid] = None, w: Optional[np.ndarray] = None) -> None:
        last = self.times[-1] if self.times else -np.inf
        if not (np.isfinite(time) and time > last):
            raise ConfigError(f"trajectory times must be finite and increase: {time} after {last}")
        if not self.keep_all and len(self._stacks) > 1:
            self._stacks[-1] = None  # the latest stack gives way; the first stays
        self.times.append(float(time))
        self.records.append(record)
        self._stacks.append(None if w is None else (grid, w))

    @property
    def states(self) -> List[Optional[SpectralState]]:
        """A state per sample, built afresh from each kept stack, else None."""
        return [None if kept is None else SpectralState(*kept, t)
                for t, kept in zip(self.times, self._stacks)]


def _nonlinear(grid: SpectralGrid, w: np.ndarray, tables, work: np.ndarray) -> np.ndarray:
    """Quadratic tendencies (N_psi, N_a) of one band stack (psi, a).

    The stack holds the first ``grid.band_cols`` = kc half-spectrum columns,
    the only ones the 2/3 rule keeps; ``tables`` are the stepper's
    ``tendency_tables`` and ``work`` its workspace. In Elsasser form: the
    components p1, m1, p2, m2 of z+- = (v +- B) / sqrt 2 come from the band
    sums psi +- a times i xi2 / sqrt 2 and -i xi1 / sqrt 2, through
    ``to_physical``. Four products give the three quantities

        p1 m1 - p2 m2 = (T22 - T11) / 2,  p1 m2 + m1 p2 = -T12,
        m1 p2 - p1 m2 = N_a = v1 B2 - v2 B1

    of the stress T = B (x) B - v (x) v, written over the spent physical
    rows; they go back through an ``rfftn`` along axis 2 and an ``fftn``
    along axis 1 over their first kc columns. The first two tables finish
    N_psi = N_omega / |xi|^2, the dealiased curl of div T; N_a is dealiased
    along axis 1 and mean-zeroed. That is four 1-D passes per call, the
    same values as one 7-plane ``irfft2``/``rfft2`` pair on the whole half
    spectrum, bit for bit.

    Every pass writes with ``out=`` into ``work`` (``_Stepper``'s layout).
    Its leading 4 n1 kc elements hold the four spectra, on which the
    inverse column pass runs in place; the float view of its last 2 n2
    ``rows`` elements holds the block buffer of four physical planes'
    ``rows`` rows, and the last n1 kc hold each table copied to a complex
    (n1, kc) one, so every product runs on contiguous operands of one dtype
    (one that casts, broadcasts along rows or reads a strided plane would
    run through numpy's iterator buffers). The row pass runs a block at a
    time; the block's products and its forward row pass, whose three row
    spectra and the float ``cross`` plane share the 3 (n2/2 + 1) ``rows``
    elements after the four spectra, follow at once, and the block's first
    kc columns go back over the band rows it has just spent, which line up.
    The forward column pass then reads the band, runs in place on its third
    plane and writes the first two into the compact (2, n1, kc) result, all
    the call allocates, which keeps no dead third plane alive.
    """
    n1, kc = w.shape[1:]
    n2, nh = grid.n2, grid.n2 // 2 + 1
    rows = _block_rows(grid, 4)
    to_ab, to_s, mult1, mult2 = tables
    spec = work[:4 * n1 * kc].reshape(4, n1, kc)
    table = work[-n1 * kc:].reshape(n1, kc)
    np.add(w[0], w[1], out=spec[0])
    np.subtract(w[0], w[1], out=spec[1])
    table[...] = mult2
    np.multiply(spec[0:2], table, out=spec[2:4])
    table[...] = mult1
    spec[0:2] *= table
    spectra = work[spec.size:spec.size + 3 * rows * nh]
    for r0, phys in to_physical(grid, spec, work[-2 * rows * n2:].view(np.float64)
                                .reshape(4, rows, n2)):
        r = phys.shape[1]
        p1, m1, p2, m2 = phys
        cross = np.multiply(p1, m2, out=spectra.view(np.float64)[:p1.size].reshape(p1.shape))
        np.multiply(p1, m1, out=p1)
        np.multiply(m1, p2, out=m1)
        np.multiply(p2, m2, out=m2)
        p1 -= m2
        np.add(cross, m1, out=p2)
        m1 -= cross
        # phys[0:3] now holds (T22 - T11) / 2, N_a and -T12
        spec[0:3, r0:r0 + r] = np.fft.rfftn(phys[0:3], axes=(-1,), norm="forward",
                                            out=spectra[:3 * r * nh].reshape(3, r, nh))[..., :kc]
    s = spec[2]
    out = np.fft.fftn(spec[0:2], axes=(-2,), norm="forward")
    np.fft.fftn(s, axes=(-2,), norm="forward", out=s)
    table[...] = to_ab
    out[0] *= table
    table[...] = to_s
    s *= table
    out[0] += s
    table[...] = grid.half_dealias_mask[:, :kc]
    out[1] *= table
    out[1, 0, 0] = 0.0
    return out


def _band(state: SpectralState, grid: SpectralGrid) -> np.ndarray:
    """The (psi, a) band stack of a checked state: the one way into the stepper.

    Raises ``ConfigError`` unless the state lies on ``grid`` and its
    potentials pass ``validate()``'s checks and, in the same pass, the 2/3
    band's (nothing outside it above ``STATE_RTOL`` max|w|). The tendency
    is alias-free only on band-limited states: outside the band the
    Elsasser products alias differently from the advective form they stand
    for, and the band stack drops it. The stack is a copy of the
    ``grid.band_cols`` leading columns.
    """
    if state.grid != grid:
        raise ConfigError("state grid does not match the solver configuration")
    fault = _column_fault(grid, state.w, band=True)
    if fault is not None:
        raise ConfigError(fault)
    return state.w[:, :, :grid.band_cols].copy()


def _sampled_components(grid: SpectralGrid, w: np.ndarray, time: float) -> np.ndarray:
    """The components of a run's band stack at a sample, on its columns.

    The curl map's mirror would hide an asymmetric k2 = 0 column, so ``w``
    itself is checked against ``STATE_RTOL`` max|w|: max|w| times the band's
    largest |xi| must be finite (else the components would not be), the
    k2 = 0 column Hermitian and the mean mode zero. A failure raises
    ``DiagnosticIntegrityError``. A stack that passes is a valid state.
    """
    fault = _column_fault(grid, w)
    if fault is not None:
        raise DiagnosticIntegrityError(f"band stack at t = {time} {fault}")
    return _components(grid, w)


class _Stepper:
    """Per-mode tables and one workspace for a (grid, config) pair.

    The step tables come from ``grid_phi_entries`` in the shape of what
    they depend on, with h folded into phi1 and phi2: (n1, 1) row tables
    with alpha = 0, which broadcast over the band columns, and (n1,
    ``grid.band_cols``) band arrays otherwise. The tendency's tables and the
    energy weights are formed on the band columns, so each operation of a
    step acts on the band stack only. ``work`` is the complex scratch in
    which every tendency (``_nonlinear``), every record ``run`` takes, the
    last one included (``instantaneous``, on the band columns), and the
    energy and dissipation sums run their passes and products; the row
    tables pay for it. With ``rows`` = ``spectral._block_rows(grid, 4)``,
    the rows of four physical planes one block holds (all n1 on every grid
    up to 128^2, 64 at 256^2), it has 4 n1 kc + max(n1 kc, (3 (n2/2 + 1) +
    2 n2) rows) elements (1.28 MB at 128^2, 2.33 MB at 256^2). A step sums
    its stages in place on arrays it made itself, releases each at its last
    use and leaves its input as it is.
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
        # and -T12 times mask / |xi|^2 (no band entry is on a Nyquist row or
        # column), and the spectral multipliers of the z+- components
        xi1, xi2, xi_sq = grid.xi1, grid.half_xi2[:, :kc], grid.half_xi_sq[:, :kc]
        finish = np.divide(grid.half_dealias_mask[:, :kc], xi_sq, out=np.zeros(xi_sq.shape),
                           where=xi_sq > 0.0)
        self.tendency_tables = (-2.0 * finish * (xi1 * xi2),
                                -finish * (xi2 * xi2 - xi1 * xi1),
                                (1j / np.sqrt(2.0)) * xi2,
                                (-1j / np.sqrt(2.0)) * xi1)
        n1, n2, nh, rows = grid.n1, grid.n2, grid.n2 // 2 + 1, _block_rows(grid, 4)
        self.work = np.empty(4 * n1 * kc + max(n1 * kc, (3 * nh + 2 * n2) * rows),
                             dtype=np.complex128)
        # |v_hat|^2 = |xi|^2 |psi_hat|^2 summed over the full spectrum
        l2_weight = grid.area * grid.half_mult[:kc] * xi_sq
        self.energy_weight = 0.5 * l2_weight
        damping = xi_sq**cfg.alpha if cfg.alpha != 0.0 else 1.0
        self.dissipation_weight = cfg.kappa * damping * l2_weight

    def _weighted_power(self, weight: np.ndarray, w: np.ndarray) -> float:
        """sum(weight * |w|^2), its products formed in the workspace."""
        flat = self.work.view(np.float64)
        power, imag = flat[:w.size].reshape(w.shape), flat[w.size:2 * w.size].reshape(w.shape)
        np.square(w.real, out=power)
        power += np.square(w.imag, out=imag)
        power *= weight
        return float(np.sum(power))

    def half_l2_sq(self, w: np.ndarray) -> float:
        """(|v|^2 + |B|^2) / 2 integrated over the box."""
        return self._weighted_power(self.energy_weight, w)

    def dissipation_rate(self, w: np.ndarray) -> float:
        """kappa |(-Lap)^(alpha/2) v|^2 integrated over the box."""
        return self._weighted_power(self.dissipation_weight, w[0])

    def advance(self, w: np.ndarray) -> np.ndarray:
        if not self.cfg.nonlinear:
            return apply_block_entries(w, self.full)
        if self.cfg.scheme == "etdrk2":
            return self._etdrk2(w)
        return self._ifrk4(w)

    def _etdrk2(self, w):
        g, tab, work = self.grid, self.tendency_tables, self.work
        n0 = _nonlinear(g, w, tab, work)
        wa = apply_block_entries(w, self.full)
        wa += apply_block_entries(n0, self.phi1)
        na = _nonlinear(g, wa, tab, work)
        na -= n0
        del n0
        wa += apply_block_entries(na, self.phi2)
        return wa

    def _ifrk4(self, w):
        g, h, tab, work = self.grid, self.cfg.dt, self.tendency_tables, self.work
        k1 = _nonlinear(g, w, tab, work)
        ew_half = apply_block_entries(w, self.half)
        a = apply_block_entries(k1, self.half)
        a *= 0.5 * h
        a += ew_half
        k2 = _nonlinear(g, a, tab, work)
        b = np.multiply(k2, 0.5 * h, out=a)  # a is spent once k2 is taken
        b += ew_half
        del ew_half, a
        k3 = _nonlinear(g, b, tab, work)
        del b
        ew_full = apply_block_entries(w, self.full)
        c = apply_block_entries(k3, self.half)
        c *= h
        c += ew_full
        k4 = _nonlinear(g, c, tab, work)
        del c
        k2 += k3
        del k3
        out = apply_block_entries(k2, self.half)
        del k2
        out *= 2.0
        out += apply_block_entries(k1, self.full)
        del k1
        out += k4
        del k4
        out *= h / 6.0
        out += ew_full
        return out


def advective_dt_bound(state: SpectralState) -> float:
    """0.5 * min grid spacing / (1 + max |v| + max |B|), pointwise norms, of a
    state in the 2/3 band, as ``run``'s is: only its band columns are
    transformed, one block of rows at a time, and sqrt is taken of the
    largest squared magnitude only, the maximum of the blocks' maxima."""
    g = state.grid
    top = None
    for _, fields in to_physical(g, _components(g, state.w[:, :, :g.band_cols]),
                                 np.empty((4, _block_rows(g, 4), g.n2))):
        np.square(fields, out=fields)
        fields[0::2] += fields[1::2]
        block = (np.max(fields[0]), np.max(fields[2]))
        top = block if top is None else np.maximum(top, block)
    vmax, bmax = (float(np.sqrt(x)) for x in top)
    return 0.5 * min(g.dx) / (1.0 + vmax + bmax)


def initial_state(cfg: SolverConfig, grid: Optional[SpectralGrid] = None) -> SpectralState:
    """Build and normalize the configured initial data on the grid.

    The prop25 profile sigma(xi1) sigma(xi2) (xi2, -xi1, xi2, -xi1), times
    i so the physical fields are real, is the curl of the potentials
    psi_hat = a_hat = sigma(xi1) sigma(xi2); those are sampled on the band
    columns, cut to the 2/3 band, with the mean zeroed. Random data come
    from ``random_div_free_state``. The potentials are scaled so the
    order-m energy E(0) equals data_delta; E is ``diagnostics.energy`` of
    the band's components, a record's H^m sums over the same H^m table.
    """
    g = grid if grid is not None else cfg.grid()
    if cfg.data_kind == "zero":
        return SpectralState.zeros(g)
    kc = g.band_cols  # the data lie on the band
    if cfg.data_kind == "prop25":
        prof = build_profile("prop25")
        w = prof.scalar1(g.xi1) * prof.scalar2(g.half_xi2[:, :kc]) * g.half_dealias_mask[:, :kc]
        w[0, 0] = 0.0
        st = SpectralState(g, np.stack((w, w)))
    else:
        st = random_div_free_state(g, cfg.seed)
    e0 = energy(g, _components(g, st.w[:, :, :kc]), cfg.m)
    if e0 <= 0.0:
        raise ConfigError(
            f"initial data {cfg.data_kind!r} vanishes on this grid; "
            "the box is too small to resolve its spectral support"
        )
    st.w *= cfg.data_delta / e0
    return st


def run(cfg: SolverConfig, initial: Optional[SpectralState] = None,
        trajectory: Optional[Trajectory] = None) -> Trajectory:
    """Integrate to t_end, sampling diagnostics at the configured cadence.

    The energy-law residual carried by each record is the signed defect
    of the half-L2 balance with the dissipation integral accumulated by
    per-step trapezoid quadrature; it shrinks at second order in dt. Each
    sample goes to ``trajectory.append`` (a new ``Trajectory`` if None) as
    it is taken: its time, its record and the band stack, by reference,
    with its grid. That trajectory is returned; it is the one record of a
    run that stops on non-finite coefficients (``BlowUpError``) or a
    failed diagnostic invariant (``DiagnosticIntegrityError``), holding
    every sample taken before the failure. Each sample, t = 0 included, is
    recorded from the band columns through one call, which checks the band
    stack itself, a failure being a ``DiagnosticIntegrityError``; a stack
    that passes is a valid state. ``run`` builds no state: the trajectory
    builds those of the stacks it keeps when they are read.

    Memory: the initial state is dropped once ``_band`` has copied its band
    and ``advective_dt_bound`` has read it, before the stepper is built, and
    a caller's later change to its state does not reach the run. ``advance``
    never writes its input, so a stack handed to the trajectory needs no
    copy. The run's ``RecordWeights`` are built before the stepper. Every
    record, the last one included, works in the stepper's workspace, and
    the stepper, its tables and the weights live until ``run`` returns.

    The stepper goes on from the stepped stack at every sample, and a state
    built from a kept stack holds that stack, zero-padded; so a run's
    states do not depend on its sample cadence, and a run restarted from
    any of them repeats the uninterrupted run bit for bit, its times
    included. An initial state must lie on the configured grid, pass
    ``validate()``'s checks and lie inside the 2/3 dealias band, as every
    state of a run does; otherwise ``ConfigError`` is raised.
    """
    g = cfg.grid()
    state = initial if initial is not None else initial_state(cfg, g)
    w = _band(state, g)
    base = state.time
    bound = advective_dt_bound(state)
    del state
    if cfg.dt > bound:
        warnings.warn(f"dt = {cfg.dt} exceeds the advective bound {bound:.3e}; "
                      "accuracy may degrade", RuntimeWarning)

    weights = RecordWeights(g, cfg.m, g.band_cols)
    stepper = _Stepper(g, cfg)
    traj = trajectory if trajectory is not None else Trajectory()
    # times lie on the dt grid through t = 0, offset as the initial state is,
    # so a run from a state on the grid, as its samples are, repeats them
    k0 = round(base / cfg.dt)
    e0 = stepper.half_l2_sq(w)
    acc = 0.0
    d_prev = stepper.dissipation_rate(w)
    t = base
    for i in range(cfg.n_steps + 1):
        if i > 0:
            t_prev = t
            with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
                w = stepper.advance(w)
            t = (k0 + i) * cfg.dt + (base - k0 * cfg.dt)
            if not np.all(np.isfinite(w)):
                raise BlowUpError(f"non-finite coefficients at t = {t}",
                                  last_valid_time=t_prev)
            d_next = stepper.dissipation_rate(w)
            acc += 0.5 * cfg.dt * (d_prev + d_next)
            d_prev = d_next
        if i % cfg.sample_stride == 0:
            rec = instantaneous(g, _sampled_components(g, w, t), cfg.m, time=t,
                                energy_residual=stepper.half_l2_sq(w) - e0 + acc,
                                work=stepper.work, weights=weights)
            traj.append(t, rec, g, w)
    return traj
