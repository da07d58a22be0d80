"""Periodic-grid spectral substrate.

Grids and their wavenumbers with the 2/3 dealias mask, the state container,
which holds a state's stream function and magnetic potential, and its
checks, the curl map from potentials to components, the one inverse
transform, Sobolev norms, random states, and the binary snapshot format
used by the experiment runner, all on the real-FFT half spectrum.

Conventions fixed here and relied on everywhere else:

* Coefficient arrays are indexed ``[k1, k2]`` in numpy fft order; the forward
  transform carries the ``1/(n1*n2)`` factor, so a coefficient is the complex
  amplitude of ``exp(i xi . x)``.
* Differentiation along axis ``i`` multiplies coefficients by ``(i xi_i)``.
* With this normalization ``l1*l2 * sum |fhat|^2`` equals the physical-space
  integral of ``|f|^2`` (cell area times the sum of squares of samples).
* The half spectrum is the ``rfft2`` layout: columns ``k2 = 0 .. n2/2`` of
  the full layout, the rest following from Hermitian symmetry. Every
  coefficient array of the package, a state's included, is stored on it.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .artifacts import atomic_open
from .errors import ConfigError, SnapshotFormatError

SNAPSHOT_MAGIC = b"MHD2"
SNAPSHOT_VERSION = 3

# relative scale (against max |u| or max |w|) of every defect
# ``_column_fault``, the one state check, compares
STATE_RTOL = 1e-12


def _check_order(m, low: int) -> int:
    """The order m as an int; ``ConfigError`` unless it is a whole number >=
    ``low`` (1 or 0): not a bool, nan or inf."""
    whole = isinstance(m, (float, np.floating)) and float(m).is_integer()
    if isinstance(m, bool) or not (whole or isinstance(m, (int, np.integer))) or m < low:
        raise ConfigError(f"m must be a {('nonnegative', 'positive')[low]} integer, got {m!r}")
    return int(m)


def _check_grid(n1, n2, l1, l2) -> None:
    """Raise ``ConfigError`` unless (n1, n2, l1, l2) describe a valid
    ``SpectralGrid``; a config checks its grid with it without building one."""
    for name, n in (("n1", n1), ("n2", n2)):
        if not isinstance(n, (int, np.integer)) or n < 8 or n % 2:  # a bool is below 8
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

    Derived arrays (filled in ``__post_init__``), all on the half spectrum
    (columns ``k2 = 0 .. n2/2``):

    xi1, half_xi2 : physical wavenumbers, shaped ``(n1, 1)`` and
        ``(1, n2/2 + 1)`` so they broadcast against ``(n1, n2/2 + 1)``
        coefficient arrays; the last column keeps the full layout's
        Nyquist wavenumber ``-n2/2``.
    half_xi_sq : ``|xi|^2``.
    half_dealias_mask : True on the half spectrum where ``3*|k_i| < n_i``
        on both axes, for the integer mode numbers ``k_i`` in fft order, so
        products of two retained modes never alias back into the retained
        set.
    half_mult : how often each half-spectrum column occurs in the full
        spectrum: once for ``k2 = 0`` and the Nyquist column, twice for the
        others (``k2`` and ``-k2``). A full-spectrum sum of a quantity even
        under ``k -> -k`` is the half-spectrum sum weighted by it.

    A table only one caller multiplies by is built by that caller, as the
    stepper builds its 1/|xi|^2 and ``solver.run`` the record weights.
    """

    n1: int
    n2: int
    l1: float
    l2: float
    xi1: np.ndarray = field(init=False, repr=False, compare=False)
    half_xi2: np.ndarray = field(init=False, repr=False, compare=False)
    half_xi_sq: np.ndarray = field(init=False, repr=False, compare=False)
    half_dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)
    half_mult: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_grid(self.n1, self.n2, self.l1, self.l2)
        nh = self.n2 // 2 + 1
        k1 = np.fft.fftfreq(self.n1, d=1.0 / self.n1).astype(np.int64)
        k2 = np.fft.fftfreq(self.n2, d=1.0 / self.n2).astype(np.int64)[:nh]
        xi1 = ((2.0 * np.pi / self.l1) * k1.astype(float))[:, None]
        xi2 = ((2.0 * np.pi / self.l2) * k2.astype(float))[None, :]
        # strict cutoff: with 3|k| <= n and 3 | n, the extreme retained pair
        # (n/3, n/3) aliases exactly onto the retained mode -n/3
        keep1 = 3 * np.abs(k1) < self.n1
        keep2 = 3 * np.abs(k2) < self.n2
        object.__setattr__(self, "xi1", xi1)
        object.__setattr__(self, "half_xi2", xi2)
        object.__setattr__(self, "half_xi_sq", xi1**2 + xi2**2)
        object.__setattr__(self, "half_dealias_mask", keep1[:, None] & keep2[None, :])
        mult = np.full(nh, 2.0)
        mult[[0, -1]] = 1.0
        object.__setattr__(self, "half_mult", mult)

    @property
    def shape(self):
        return (self.n1, self.n2)

    @property
    def band_cols(self) -> int:
        """ceil(n2/3): the leading half-spectrum columns ``k2 = 0 ..
        band_cols - 1`` hold every mode of the 2/3 dealias band."""
        return -(-self.n2 // 3)

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


@dataclass
class SpectralState:
    """Stream function and magnetic potential (psi, a) at one instant.

    ``w`` has shape ``(2, n1, n2/2 + 1)`` complex: (psi_hat, a_hat) on the
    half spectrum, whose negative k2 columns the fields being real would
    only mirror. The state is (v, B) = (d2 psi, -d1 psi, d2 a, -d1 a), so
    both pairs are divergence free by construction; the constructor takes
    potentials on any leading kc <= n2/2 + 1 columns and zero-pads the
    rest; potentials are the only way in. ``validate`` checks that they are
    finite, Hermitian symmetric (which the half spectrum leaves open only in
    its self-mirrored k2 = 0 and Nyquist columns) and mean-free.
    """

    grid: SpectralGrid
    w: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.complex128)
        n1, nh = self.grid.n1, self.grid.n2 // 2 + 1
        if w.ndim != 3 or w.shape[:2] != (2, n1) or not 0 < w.shape[-1] <= nh:
            raise ConfigError(f"potentials must have shape (2, {n1}, kc <= {nh}), got {w.shape}")
        self.w = w if w.shape[-1] == nh else np.pad(w, [(0, 0), (0, 0), (0, nh - w.shape[-1])])
        if not 0.0 <= self.time < np.inf:
            raise ConfigError(f"time must be finite and nonnegative, got {self.time}")

    @property
    def u(self) -> np.ndarray:
        """The components (v1, v2, B1, B2), shape ``(4, n1, n2/2 + 1)``, made on
        each access and read-only, as a write into them would not reach ``w``."""
        u = _components(self.grid, self.w)
        u.flags.writeable = False
        return u

    @classmethod
    def zeros(cls, grid: SpectralGrid) -> "SpectralState":
        return cls(grid, np.zeros((2, grid.n1, grid.n2 // 2 + 1), dtype=np.complex128))

    def validate(self) -> None:
        """Assert finite values, Hermitian symmetry and zero mean of ``w``.

        Each defect is compared with ``STATE_RTOL`` max|w| in one pass of
        ``_column_fault``; raises ``ConfigError`` on the first violated property.
        """
        fault = _column_fault(self.grid, self.w)
        if fault is not None:
            raise ConfigError(fault)


# bytes of physical rows one block of ``to_physical`` holds: a whole 128^2
# tendency's four planes, 64 of 256^2's rows
_BLOCK_BYTES = 1 << 19


def _block_rows(grid: SpectralGrid, planes: int) -> int:
    """Rows of each of ``planes`` float physical planes per block: all n1
    when they fit in ``_BLOCK_BYTES``, as four and three planes do on every
    grid up to 128^2, else as many as fit, at least one."""
    return max(1, min(grid.n1, _BLOCK_BYTES // (8 * planes * grid.n2)))


def to_physical(grid: SpectralGrid, spec: np.ndarray, out: np.ndarray):
    """The one inverse transform: the real (..., n1, n2) planes of the
    leading kc <= n2/2 + 1 half-spectrum columns ``spec``, one block of
    rows at a time. An ``ifftn`` along axis 1 runs once, in place, over
    all of ``spec``; then an ``irfftn`` of length n2 along axis 2, which
    zero-pads the dropped columns (S. A. Orszag, J. Atmos. Sci. 28, 1971),
    writes each block into the contiguous float (..., rows, n2) buffer
    ``out``: ``irfft2``'s values bit for bit.

    Yields (r0, block), the planes' rows r0 .. r0 + len - 1, where a block
    is ``out`` itself, or for a short last block its leading elements, so
    every block is contiguous. A buffer of n1 rows gives one block, the
    whole planes. The caller uses a block before asking for the next, which
    overwrites it; the rows of ``spec`` before the next block's are spent.
    """
    np.fft.ifftn(spec, axes=(-2,), norm="forward", out=spec)
    n1, rows = grid.n1, out.shape[-2]
    for r0 in range(0, n1, rows):
        r = min(rows, n1 - r0)
        block = out if r == rows else out.reshape(-1)[:out.size // rows * r].reshape(
            out.shape[:-2] + (r, grid.n2))
        yield r0, np.fft.irfftn(spec[..., r0:r0 + r, :], s=(grid.n2,), axes=(-1,),
                                norm="forward", out=block)


def _components(grid: SpectralGrid, w: np.ndarray) -> np.ndarray:
    """(v1, v2, B1, B2) = (d2 psi, -d1 psi, d2 a, -d1 a) of the potentials
    on w's kc leading columns: Nyquist row and column zero, the k2 = 0
    column mirrored, so the result is exactly Hermitian. The same
    elementwise operations on every width, so the columns of a narrower
    result equal those of a wider one bit for bit."""
    n1, kc = grid.n1, w.shape[-1]
    out = np.empty((4, n1, kc), dtype=np.complex128)
    np.multiply(w, 1j, out=out[0::2])  # i w, scaled in place below
    np.multiply(out[0::2], -grid.xi1, out=out[1::2])
    out[0::2] *= grid.half_xi2[:, :kc]
    out[:, n1 // 2] = 0.0
    out[:, :, grid.n2 // 2:] = 0.0  # the Nyquist column, if among them
    out[:, n1 // 2 + 1:, 0] = np.conj(out[:, n1 // 2 - 1:0:-1, 0])
    return out


def l2_norm(grid: SpectralGrid, f: np.ndarray) -> float:
    """L2 norm of one component from its coefficients on the leading kc
    half-spectrum columns, zero past them."""
    mult = grid.half_mult[:f.shape[-1]]
    return float(np.sqrt(grid.area * np.sum(mult * np.abs(f) ** 2)))


def sobolev_norm(grid: SpectralGrid, f: np.ndarray, m: int) -> float:
    """H^m norm with the multiplier (1 + |xi|^2)^(m/2).

    ``f`` is a single half-spectrum coefficient array. Monotone in m for
    m >= 0; at m = 0 this is the L2 norm.
    """
    w = (1.0 + grid.half_xi_sq) ** _check_order(m, 0) * grid.half_mult
    return float(np.sqrt(grid.area * np.sum(w * np.abs(f) ** 2)))


def hermitian_defect(grid: SpectralGrid, u: np.ndarray) -> float:
    """Max |u(-k) - conj(u(k))| over the modes and planes of a half-spectrum
    stack: a state's components or potentials, or a narrower band stack.

    The half spectrum holds one member of each pair (k, -k) of its interior
    columns, so only the k2 = 0 and Nyquist columns, each its own mirror,
    can fail; each is compared with a gathered copy of its mirrored rows.
    """
    selfs = u[..., 0:grid.n2 // 2 + 1:grid.n2 // 2]  # the columns k2 = 0 and n2/2
    rows = -np.arange(grid.n1) % grid.n1
    return float(np.abs(selfs - np.conj(selfs[..., rows, :])).max())


def divergence_defect(grid: SpectralGrid, u: np.ndarray):
    """Max |xi . vhat| and |xi . Bhat| over a state's modes and their mirrors."""
    ny, xi1 = u[:, grid.n1 // 2, 1:-1], grid.xi1[grid.n1 // 2, 0]
    out = []
    for p in (0, 2):
        # the Nyquist row's mirror (n1/2, -k2) keeps xi1, so only xi2 flips
        mirror = np.abs(xi1 * ny[p] - grid.half_xi2[0, 1:-1] * ny[p + 1]).max()
        d = grid.xi1 * u[p]
        d += grid.half_xi2 * u[p + 1]
        out.append(float(np.max([mirror, np.abs(d).max()])))
    return out[0], out[1]


# ``_column_fault``'s message for each fault of a state's potentials and of
# a run's band stack
_STATE_FAULTS = {
    "non-finite": "state has non-finite coefficients",
    "Hermitian": "state is not Hermitian symmetric: defect {0:.3e}",
    "mean": "state has nonzero mean mode: {0:.3e}",
    "band": ("state has coefficients outside the 2/3 dealias band: {0:.3e} "
             "against max |w| = {1:.3e}"),
}
_STACK_FAULTS = {
    "non-finite": "overflows the curl map: max |w| = {1:.3e}",
    "Hermitian": "is not Hermitian symmetric in its k2 = 0 column: defect {0:.3e} "
                 "against max |w| = {1:.3e}",
    "mean": "has nonzero mean mode: {0:.3e} against max |w| = {1:.3e}",
}


def _column_fault(grid: SpectralGrid, a: np.ndarray, *, band: bool = False):
    """The one state check: None, or the message of the first property
    ``a`` fails, where ``a`` is a state's potentials or, narrower than the
    n2/2 + 1 columns of a state, a run's band stack; the width alone sets
    the messages, ``_STATE_FAULTS`` or ``_STACK_FAULTS``. Each defect fails
    above ``STATE_RTOL`` max|a| (the scale), in the order: ``non-finite``
    (the scale, times the largest |xi| of a band stack's columns, by which
    its curl map multiplies); ``Hermitian`` (``hermitian_defect``);
    ``mean``; and with ``band``, max |a| outside the 2/3 band."""
    kc = a.shape[-1]
    stack = kc < grid.n2 // 2 + 1
    table = _STACK_FAULTS if stack else _STATE_FAULTS
    mag = np.abs(a)
    peak, outside = float(mag.max()), 0.0
    if band:  # taken now, so |a| is not held through the other checks
        r0, c0 = -(-grid.n1 // 3), grid.band_cols  # first row and column dropped
        r1 = grid.n1 - r0 + 1  # first row kept again
        outside = float(np.max([mag[:, r0:r1].max(), mag[:, :r0, c0:].max(),
                                mag[:, r1:, c0:].max()]))
    del mag
    xi_max = float(np.sqrt(np.max(grid.half_xi_sq[:, :kc]))) if stack else 1.0
    if not np.isfinite(peak * xi_max):
        return table["non-finite"].format(peak, peak)
    scale = max(peak, 1e-300)
    tol = STATE_RTOL * scale
    herm = hermitian_defect(grid, a)
    if herm > tol:
        return table["Hermitian"].format(herm, scale)
    mean = float(np.max(np.abs(a[:, 0, 0])))
    if mean > tol:
        return table["mean"].format(mean, scale)
    if outside > tol:
        return table["band"].format(outside, scale)
    return None


def random_div_free_state(grid: SpectralGrid, seed: int) -> SpectralState:
    """Seeded, Hermitian, mean-free random state on the 2/3 band.

    Two planes of white noise, psi and a, go through a row ``rfftn`` into
    the state's own potentials and a column ``fftn`` over the band columns
    only, a whole ``rfft2``'s values there bit for bit; a Gaussian envelope
    cut to the band shapes them, the columns past it and the mean are zero,
    and they are scaled so the largest component L2 norm is 1.
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    ximax = min(float(np.max(np.abs(grid.xi1))), float(np.max(np.abs(grid.half_xi2))))
    xic = max(ximax / 4.0, 1e-8)
    kc = grid.band_cols
    w = np.fft.rfftn(rng.standard_normal((2,) + grid.shape), axes=(-1,), norm="forward")
    band = w[..., :kc]
    np.fft.fftn(band, axes=(-2,), norm="forward", out=band)
    band *= np.exp(-grid.half_xi_sq[:, :kc] / (2.0 * xic**2)) * grid.half_dealias_mask[:, :kc]
    w[..., kc:] = 0.0
    w[:, 0, 0] = 0.0  # no field has a mean potential
    cur = max(l2_norm(grid, h) for h in _components(grid, band))
    if cur > 0.0:
        band *= 1.0 / cur
    return SpectralState(grid, w)


def save_state(state: SpectralState, path) -> None:
    """Write the binary snapshot format, version 3.

    Layout: magic ``MHD2``, version u32 (little endian), then n1, n2, l1,
    l2, time as little-endian IEEE-754 doubles, then the potentials (psi,
    a) on the half spectrum, (2, n1, n2/2 + 1) row-major complex with re/im
    interleaved. The file appears whole or not at all
    (``artifacts.atomic_open``).
    """
    g = state.grid
    with atomic_open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<I", SNAPSHOT_VERSION))
        fh.write(struct.pack("<5d", float(g.n1), float(g.n2), g.l1, g.l2, state.time))
        # one little-endian array, written from its own buffer
        fh.write(np.ascontiguousarray(state.w, dtype="<c16"))


def load_state(path) -> SpectralState:
    """Read a snapshot written by ``save_state``; ``SnapshotFormatError`` unless
    it is exactly one version 3 header and a payload that passes
    ``validate``. Versions 1 and 2, which held components, are refused."""
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
        shape = (2, n1, n2 // 2 + 1)
        # sizes are checked against the file, in Python ints that cannot wrap,
        # before the payload is allocated
        extra = os.fstat(fh.fileno()).st_size - header - 16 * shape[0] * n1 * shape[-1]
        if extra < 0:
            raise SnapshotFormatError("truncated snapshot payload")
        if extra > 0:
            raise SnapshotFormatError(f"{extra} trailing bytes after the snapshot payload")
        # the payload is read once, into the array the state keeps
        payload = np.empty(shape, dtype="<c16")
        if fh.readinto(payload) != payload.nbytes:
            raise SnapshotFormatError("truncated snapshot payload")
    try:
        state = SpectralState(SpectralGrid(n1, n2, l1, l2), payload, time)
        state.validate()
    except ConfigError as exc:
        raise SnapshotFormatError(f"invalid snapshot: {exc}") from exc
    return state
