"""Periodic-grid spectral substrate.

Grids and their wavenumbers with the 2/3 dealias mask, the state container
and its checks, the inverse transform, Sobolev norms, divergence-free
random states, the stream-function/potential form of a state on the
real-FFT half spectrum, and the binary snapshot format used by the
experiment runner.

Conventions fixed here and relied on everywhere else:

* Coefficient arrays are indexed ``[k1, k2]`` in numpy fft order; the forward
  transform carries the ``1/(n1*n2)`` factor, so a coefficient is the complex
  amplitude of ``exp(i xi . x)``.
* Differentiation along axis ``i`` multiplies coefficients by ``(i xi_i)``.
* With this normalization ``l1*l2 * sum |fhat|^2`` equals the physical-space
  integral of ``|f|^2`` (cell area times the sum of squares of samples).
* The half spectrum is the ``rfft2`` layout: columns ``k2 = 0 .. n2/2`` of
  the full layout, the rest following from Hermitian symmetry.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .artifacts import atomic_open
from .errors import ConfigError, SnapshotFormatError

SNAPSHOT_MAGIC = b"MHD2"
SNAPSHOT_VERSION = 1

COMPONENTS = ("v1", "v2", "B1", "B2")

# relative scale (against max |u|) of every defect ``_column_fault``, the one
# state check, compares
STATE_RTOL = 1e-12


def _check_grid(n1, n2, l1, l2) -> None:
    """Raise ``ConfigError`` unless (n1, n2, l1, l2) describe a valid
    ``SpectralGrid``; a config checks its grid with it without building one."""
    for name, n in (("n1", n1), ("n2", n2)):
        if int(n) != n or n < 8 or n % 2 != 0:
            raise ConfigError(f"{name} must be an even integer >= 8, got {n!r}")
    for name, l in (("l1", l1), ("l2", l2)):
        if not (l > 0.0) or not np.isfinite(l):
            raise ConfigError(f"{name} must be positive and finite, got {l!r}")


@dataclass(frozen=True)
class SpectralGrid:
    """Rectangular periodic grid and its wavenumber bookkeeping.

    Parameters
    ----------
    n1, n2 : int
        Mode counts per axis. Must be even and at least 8 so the Nyquist
        mode ``-n_i/2`` appears exactly once and a 2/3 dealias band exists.
    l1, l2 : float
        Box side lengths. Wavenumber spacing along axis ``i`` is
        ``2*pi/l_i``.

    Derived arrays (filled in ``__post_init__``):

    k1, k2 : integer mode numbers in fft order.
    xi1, xi2 : physical wavenumbers, shaped ``(n1, 1)`` and ``(1, n2)`` so
        they broadcast against ``(n1, n2)`` coefficient arrays.
    xi_sq : ``|xi|^2`` on the full grid.
    dealias_mask : True where ``3*|k_i| < n_i`` on both axes, so products
        of two retained modes never alias back into the retained set.
    half_xi2, half_xi_sq, half_dealias_mask : the same on the half spectrum
        (columns ``k2 = 0 .. n2/2``; the last one keeps the full layout's
        Nyquist wavenumber ``-n2/2``).
    half_inv_xi_sq : ``1/|xi|^2`` on the half spectrum, zero on the mean
        mode and on the Nyquist row and column, which carry no potential.
    half_mult : how often each half-spectrum column occurs in the full
        spectrum: once for ``k2 = 0`` and the Nyquist column, twice for the
        others (``k2`` and ``-k2``). A full-spectrum sum of a quantity even
        under ``k -> -k`` is the half-spectrum sum weighted by it.
    odd_xi1 : ``xi1`` with the Nyquist row zeroed, the multiplier (after
        ``i``) of a first derivative along axis 1.
    """

    n1: int
    n2: int
    l1: float
    l2: float
    k1: np.ndarray = field(init=False, repr=False, compare=False)
    k2: np.ndarray = field(init=False, repr=False, compare=False)
    xi1: np.ndarray = field(init=False, repr=False, compare=False)
    xi2: np.ndarray = field(init=False, repr=False, compare=False)
    xi_sq: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)
    half_xi2: np.ndarray = field(init=False, repr=False, compare=False)
    half_xi_sq: np.ndarray = field(init=False, repr=False, compare=False)
    half_inv_xi_sq: np.ndarray = field(init=False, repr=False, compare=False)
    half_dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)
    half_mult: np.ndarray = field(init=False, repr=False, compare=False)
    odd_xi1: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_grid(self.n1, self.n2, self.l1, self.l2)
        k1 = np.fft.fftfreq(self.n1, d=1.0 / self.n1).astype(np.int64)
        k2 = np.fft.fftfreq(self.n2, d=1.0 / self.n2).astype(np.int64)
        xi1 = (2.0 * np.pi / self.l1) * k1.astype(float)
        xi2 = (2.0 * np.pi / self.l2) * k2.astype(float)
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "xi1", xi1[:, None])
        object.__setattr__(self, "xi2", xi2[None, :])
        object.__setattr__(self, "xi_sq", self.xi1**2 + self.xi2**2)
        # strict cutoff: with 3|k| <= n and 3 | n, the extreme retained pair
        # (n/3, n/3) aliases exactly onto the retained mode -n/3
        keep1 = 3 * np.abs(k1) < self.n1
        keep2 = 3 * np.abs(k2) < self.n2
        object.__setattr__(self, "dealias_mask", keep1[:, None] & keep2[None, :])
        nh = self.n2 // 2 + 1
        half_sq = np.ascontiguousarray(self.xi_sq[:, :nh])
        # odd derivatives drop the Nyquist modes, so no real field has a
        # potential there
        carries = ((k1 != -self.n1 // 2)[:, None] & (k2[:nh] != -self.n2 // 2)[None, :]
                   & (half_sq > 0.0))
        inv = np.zeros(half_sq.shape)
        inv[carries] = 1.0 / half_sq[carries]
        object.__setattr__(self, "half_xi2", self.xi2[:, :nh].copy())
        object.__setattr__(self, "half_xi_sq", half_sq)
        object.__setattr__(self, "half_inv_xi_sq", inv)
        object.__setattr__(self, "half_dealias_mask", self.dealias_mask[:, :nh].copy())
        mult = np.full(nh, 2.0)
        mult[[0, -1]] = 1.0
        object.__setattr__(self, "half_mult", mult)
        object.__setattr__(self, "odd_xi1", np.where(k1[:, None] == -self.n1 // 2, 0.0, self.xi1))

    @property
    def shape(self):
        return (self.n1, self.n2)

    @property
    def band_cols(self) -> int:
        """ceil(n2/3): the leading half-spectrum columns ``k2 = 0 ..
        band_cols - 1`` hold every mode of the 2/3 dealias band."""
        return -(-self.n2 // 3)

    @property
    def band_xi_max(self) -> float:
        """Largest |xi| over the ``band_cols`` columns, all rows included."""
        return float(np.sqrt(np.max(self.half_xi_sq[:, : self.band_cols])))

    @property
    def area(self) -> float:
        return self.l1 * self.l2

    @property
    def cell_area(self) -> float:
        return self.l1 * self.l2 / (self.n1 * self.n2)

    @property
    def dx(self):
        """Grid spacings (dx1, dx2)."""
        return (self.l1 / self.n1, self.l2 / self.n2)

    @property
    def dxi(self):
        """Wavenumber spacings (dxi1, dxi2)."""
        return (2.0 * np.pi / self.l1, 2.0 * np.pi / self.l2)

    def x(self):
        """Physical collocation coordinates, broadcastable like xi1/xi2."""
        x1 = np.arange(self.n1) * (self.l1 / self.n1)
        x2 = np.arange(self.n2) * (self.l2 / self.n2)
        return x1[:, None], x2[None, :]


def make_grid(n1: int, n2: int, l1: float, l2: float) -> SpectralGrid:
    """Validated grid constructor."""
    return SpectralGrid(n1, n2, l1, l2)


@dataclass
class SpectralState:
    """Fourier coefficients of (v1, v2, B1, B2) at one instant.

    ``u`` has shape ``(4, n1, n2)`` complex, component order as in
    ``COMPONENTS``. Fields of a physically meaningful state are Hermitian
    symmetric, mean-free, and divergence-free in both the velocity and
    magnetic pairs; ``validate`` checks all three.
    """

    grid: SpectralGrid
    u: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.complex128)
        if self.u.shape != (4, self.grid.n1, self.grid.n2):
            raise ConfigError(
                f"state array must have shape (4, {self.grid.n1}, {self.grid.n2}), "
                f"got {self.u.shape}"
            )
        if not 0.0 <= self.time < np.inf:
            raise ConfigError(f"time must be finite and nonnegative, got {self.time}")

    @classmethod
    def zeros(cls, grid: SpectralGrid) -> "SpectralState":
        return cls(grid, np.zeros((4, grid.n1, grid.n2), dtype=np.complex128))

    def copy(self) -> "SpectralState":
        return SpectralState(self.grid, self.u.copy(), self.time)

    def validate(self) -> None:
        """Assert finite values, Hermitian symmetry, zero mean, and zero divergence.

        Each defect is compared with ``STATE_RTOL`` max|u| in one pass of
        ``_column_fault``; raises ``ConfigError`` on the first violated property.
        """
        fault = _column_fault(self.grid, self.u)
        if fault is not None:
            raise ConfigError(_STATE_FAULTS[fault[0]].format(*fault[1:]))


def to_physical(state: SpectralState) -> np.ndarray:
    """The four real fields on the collocation grid, shape (4, n1, n2), from one
    ``irfft2`` of the half spectrum (columns 0..n2//2) of a Hermitian state."""
    g = state.grid
    return np.fft.irfft2(state.u[:, :, : g.n2 // 2 + 1], s=g.shape, axes=(-2, -1),
                         norm="forward")


def _potentials(grid: SpectralGrid, u: np.ndarray, kc: int) -> np.ndarray:
    """Stream function and magnetic potential of the components ``u`` on
    the leading kc half-spectrum columns, shape (2, n1, kc).

    With v = (d2 psi, -d1 psi) and B = (d2 a, -d1 a), psi_hat = i (xi1 v2_hat -
    xi2 v1_hat) / |xi|^2 and likewise a_hat. The gradient part of a field
    that is not divergence free is dropped; the mean mode and the Nyquist
    row and column come out zero. The one inverse curl map: the same
    elementwise operations on every width, so its columns equal those of
    the full-width result bit for bit. The stepper takes its band stack
    (kc = ``grid.band_cols``) from it without computing the columns it
    would drop.
    """
    half = u[:, :, :kc]
    curl = grid.xi1 * half[1::2] - grid.half_xi2[:, :kc] * half[0::2]
    return 1j * (curl * grid.half_inv_xi_sq[:, :kc])


def _components(grid: SpectralGrid, w: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """(v1, v2, B1, B2) of ``from_potentials`` on w's kc columns, into ``out``
    if given: Nyquist row and column zero, the k2 = 0 column mirrored."""
    n1, kc = grid.n1, w.shape[-1]
    out = np.empty((4, n1, kc), dtype=np.complex128) if out is None else out
    iw = 1j * w
    out[0::2] = grid.half_xi2[:, :kc] * iw
    out[1::2] = -grid.xi1 * iw
    out[:, n1 // 2] = 0.0
    out[:, :, grid.n2 // 2:] = 0.0  # the Nyquist column, if among them
    out[:, n1 // 2 + 1:, 0] = np.conj(out[:, n1 // 2 - 1:0:-1, 0])
    return out


def from_potentials(grid: SpectralGrid, w: np.ndarray, time: float = 0.0) -> SpectralState:
    """The state (v, B) = (curl-perp psi, curl-perp a) of a half-spectrum stack.

    The inverse of ``_potentials`` on divergence-free states. ``w`` may
    hold only the leading kc <= n2//2 + 1 columns, as the band stack does:
    those become its ``_components``, the rest of the half spectrum zero,
    and the negative k2 columns their mirrors, so the result is exactly
    Hermitian. Every state the package builds comes out of this curl map.
    """
    n1, n2 = grid.shape
    nh = n2 // 2 + 1
    kc = w.shape[-1]
    u = np.empty((4, n1, n2), dtype=np.complex128)
    _components(grid, w, u[:, :, :kc])
    u[:, :, kc:nh] = 0.0
    rev1 = (-np.arange(n1)) % n1
    u[:, :, nh:] = np.conj(u[:, rev1, n2 // 2 - 1:0:-1])
    return SpectralState(grid, u, time)


def l2_norm(grid: SpectralGrid, f: np.ndarray) -> float:
    """L2 norm of one component from its coefficients."""
    return float(np.sqrt(grid.area * np.sum(np.abs(f) ** 2)))


def sobolev_norm(grid: SpectralGrid, f: np.ndarray, m: int) -> float:
    """H^m norm with the multiplier (1 + |xi|^2)^(m/2).

    ``f`` is a single coefficient array. Monotone in m for m >= 0; at m = 0
    this is the L2 norm.
    """
    if int(m) != m or m < 0:
        raise ConfigError(f"m must be a nonnegative integer, got {m!r}")
    w = (1.0 + grid.xi_sq) ** m
    return float(np.sqrt(grid.area * np.sum(w * np.abs(f) ** 2)))


def _mirror_defect(a: np.ndarray, b: np.ndarray) -> float:
    """Max |a(k1) - conj(b(-k1))| over the rows k1 (mod n1) of two column
    stacks, as slices: row 0 against row 0, rows 1.. against rows n1-1 .. 1."""
    return float(np.max([np.max(np.abs(np.conj(b[..., :1, :]) - a[..., :1, :])),
                         np.max(np.abs(np.conj(b[..., :0:-1, :]) - a[..., 1:, :]))]))


def hermitian_defect(grid: SpectralGrid, u: np.ndarray) -> float:
    """Max |u(-k) - conj(u(k))| over modes and components.

    Only the half-spectrum columns ``k2 = 0 .. n2/2`` are compared with
    their mirrors: every pair (k, -k) has a member there, and both members
    give the same |u(-k) - conj(u(k))|. The k2 = 0 and Nyquist columns are
    their own mirrors, the others are read against the negative columns.
    """
    nh = grid.n2 // 2 + 1
    selfs = u[..., 0:nh:nh - 1]  # the columns k2 = 0 and n2/2
    return float(np.max([_mirror_defect(selfs, selfs),
                         _mirror_defect(u[..., 1:nh - 1], u[..., :nh - 1:-1])]))


def divergence_defect(grid: SpectralGrid, u: np.ndarray):
    """Max |xi . vhat| and |xi . Bhat| over modes."""
    dv = np.max(np.abs(grid.xi1 * u[0] + grid.xi2 * u[1]))
    dB = np.max(np.abs(grid.xi1 * u[2] + grid.xi2 * u[3]))
    return float(dv), float(dB)


# ``validate``'s message for each property ``_column_fault`` names
_STATE_FAULTS = {
    "non-finite": "state has non-finite coefficients",
    "Hermitian": "state is not Hermitian symmetric: defect {0:.3e}",
    "mean": "state has nonzero mean mode: {0:.3e}",
    "divergence": "state is not divergence free: |div v|={0[0]:.3e} |div B|={0[1]:.3e}",
    "band": ("state has coefficients outside the 2/3 dealias band: {0:.3e} "
             "against max |u| = {1:.3e}"),
}


def _column_fault(grid: SpectralGrid, u: np.ndarray, *, band: bool = False,
                  gain: float = 1.0):
    """The one state check: None, or ``(name, defect, scale)`` of the first
    property a state's (4, n1, n2) array or a (2, n1, kc < n2/2) band stack
    fails. Each defect fails above ``STATE_RTOL`` max|u| (the scale), in the
    order: ``non-finite`` (scale times ``gain``); ``Hermitian`` (a state's
    ``hermitian_defect``; a band stack's k2 = 0 column, the only one whose
    mirror it holds); ``mean``; a state's ``divergence`` on every column;
    and with ``band``, max |u| outside the 2/3 band: the rows it drops, then
    the columns it drops on the rows it keeps, negative columns included.
    Every column is read as a slice.
    """
    mag = np.abs(u)
    peak = float(np.max(mag))
    if band:  # taken now, so |u| is not held through the other checks
        r0, c0 = -(-grid.n1 // 3), grid.band_cols  # first row and column dropped
        r1, c1 = grid.n1 - r0 + 1, grid.n2 - c0 + 1  # first ones kept again
        outside = float(np.max([np.max(mag[:, r0:r1]), np.max(mag[:, :r0, c0:c1]),
                                np.max(mag[:, r1:, c0:c1])]))
    del mag
    if not np.isfinite(peak * gain):
        return "non-finite", peak, peak
    scale = max(peak, 1e-300)
    tol = STATE_RTOL * scale
    state = u.shape[-1] == grid.n2
    herm = hermitian_defect(grid, u) if state else _mirror_defect(u[..., :1], u[..., :1])
    if herm > tol:
        return "Hermitian", herm, scale
    mean = float(np.max(np.abs(u[:, 0, 0])))
    if mean > tol:
        return "mean", mean, scale
    if state:
        div = divergence_defect(grid, u)
        if max(div) > tol:
            return "divergence", div, scale
    if band and outside > tol:
        return "band", outside, scale
    return None


def random_div_free_state(grid: SpectralGrid, seed: int, amplitude: float = 1.0) -> SpectralState:
    """Seeded, Hermitian-by-construction, divergence-free random state.

    Both pairs come from stream functions: two planes of white noise go
    through one ``rfft2``, are shaped by a Gaussian spectral envelope and
    cut to the 2/3 band, and ``from_potentials`` turns them into curls, so
    the state is exactly Hermitian, mean-free and divergence free. The
    largest component L2 norm is then scaled to ``amplitude``.
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    ximax = min(float(np.max(np.abs(grid.xi1))), float(np.max(np.abs(grid.xi2))))
    xic = max(ximax / 4.0, 1e-8)
    envelope = np.exp(-grid.half_xi_sq / (2.0 * xic**2)) * grid.half_dealias_mask
    noise = rng.standard_normal((2,) + grid.shape)
    w = np.fft.rfft2(noise, axes=(-2, -1), norm="forward") * envelope
    state = from_potentials(grid, w)
    cur = max((l2_norm(grid, state.u[c]) for c in range(4)), default=0.0)
    if cur > 0.0:
        state.u *= amplitude / cur
    return state


def save_state(state: SpectralState, path) -> None:
    """Write the binary snapshot format.

    Layout: magic ``MHD2``, version u32 (little endian), then n1, n2, l1,
    l2, time as little-endian IEEE-754 doubles, then the four coefficient
    arrays row-major with re/im interleaved. The file appears whole or not
    at all (``artifacts.atomic_open``).
    """
    g = state.grid
    with atomic_open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<I", SNAPSHOT_VERSION))
        fh.write(struct.pack("<5d", float(g.n1), float(g.n2), g.l1, g.l2, state.time))
        # one little-endian array, written from its own buffer
        fh.write(np.ascontiguousarray(state.u, dtype="<c16"))


def load_state(path) -> SpectralState:
    """Read a snapshot written by ``save_state``; ``SnapshotFormatError`` unless
    it is exactly one header and a payload that passes ``validate``."""
    header = 4 + struct.calcsize("<I5d")
    with open(path, "rb") as fh:
        head = fh.read(header)
        if head[:4] != SNAPSHOT_MAGIC:
            raise SnapshotFormatError(f"bad magic {head[:4]!r}, expected {SNAPSHOT_MAGIC!r}")
        if len(head) < header:
            raise SnapshotFormatError(
                f"truncated snapshot header: {len(head)} of {header} bytes")
        version, n1f, n2f, l1, l2, time = struct.unpack_from("<I5d", head, 4)
        if version != SNAPSHOT_VERSION:
            raise SnapshotFormatError(f"unsupported snapshot version {version}")
        if not (n1f.is_integer() and n2f.is_integer() and n1f > 0 and n2f > 0):
            raise SnapshotFormatError(f"grid sizes must be positive integers, got {n1f}, {n2f}")
        n1, n2 = int(n1f), int(n2f)
        # sizes are checked against the file before the payload is allocated
        extra = os.fstat(fh.fileno()).st_size - header - 4 * n1 * n2 * 16
        if extra < 0:
            raise SnapshotFormatError("truncated snapshot payload")
        if extra > 0:
            raise SnapshotFormatError(f"{extra} trailing bytes after the snapshot payload")
        # the payload is read once, into the array the state keeps
        u = np.empty((4, n1, n2), dtype="<c16")
        if fh.readinto(u) != u.nbytes:
            raise SnapshotFormatError("truncated snapshot payload")
    try:
        state = SpectralState(SpectralGrid(n1, n2, l1, l2), u, time)
        state.validate()
    except ConfigError as exc:
        raise SnapshotFormatError(f"invalid snapshot: {exc}") from exc
    return state
