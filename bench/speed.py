"""In-band host-speed probe: report operation times at a fixed reference speed.

On a shared host, co-tenant load slows this process by up to 2x in phases
that switch within seconds and can last for many minutes, so the raw time of
the same code moves by up to 60% between runs made half an hour apart.  The
probe measures the host's speed while an operation runs: a SIGALRM interval
timer runs a small fixed kernel every ``INTERVAL`` seconds in this thread and
records how long it took.  The kernels are the benchmark's own numpy and
Python code; none calls mhd2d, so a change to the program does not move them.

An operation's time is reported as its own time (wall time minus the time the
kernel ran inside it) times the mean of ``reference / kernel time`` over the
kernel runs taken during it and just before and after it: the seconds the
operation would take on a host where the kernel runs in ``reference`` seconds.
The kernel has to resemble the operation's work to track its slowdown: the
``fft`` kernel tracks the spectral runs, the ``python`` kernel the scalar
linear-theory code.
"""

import math
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.02

# the original functions, so that the tracer's wrappers never see the kernel
_fft2, _ifft2 = np.fft.fft2, np.fft.ifft2
_FIELD = np.random.default_rng(0).standard_normal((2, 64, 64)) + 0j
_MATRIX = np.array([[0.3, 1.0], [1.0, -0.3]], dtype=complex)


def _fft_kernel():
    b = _ifft2(_FIELD)
    _fft2(b * b)


def _python_kernel():
    acc = 0.0
    for i in range(150):
        x = 0.01 * i + 0.1
        acc += math.sqrt(x) * abs(complex(x, 1.0) ** 0.5) + float(np.abs(_MATRIX[0, 0] * x))
    return acc


# kernel and its reference time in seconds: a round figure near its typical
# time on the 2-vCPU x86-64 VM the benchmark was written on
KERNELS = {
    "fft": (_fft_kernel, 0.6e-3),
    "python": (_python_kernel, 0.35e-3),
}


class Timing:
    """Times of one ``with probe as timing:`` block, filled in on exit."""

    raw = own = speed = seconds = 0.0


class SpeedProbe:
    """Context manager that times its block at the kernel's reference speed."""

    def __init__(self, kernel):
        self._kernel, self.reference = KERNELS[kernel]
        self.spent = 0.0  # seconds the kernel has run in this process
        self._ratios = []

    def _sample(self, *_):
        t0 = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t0
        self.spent += dt
        self._ratios.append(self.reference / dt)

    def __enter__(self):
        self._ratios.clear()
        self._sample()
        self._timing = Timing()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._spent = self.spent
        self._t0 = time.perf_counter()
        return self._timing

    def __exit__(self, *exc):
        raw = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        t = self._timing
        t.raw = raw
        t.own = raw - (self.spent - self._spent)
        self._sample()
        t.speed = statistics.fmean(self._ratios)
        t.seconds = t.own * t.speed
        return False


class PlainTimer:
    """Times its block by the wall clock alone, with no kernel runs."""

    def __enter__(self):
        self._timing = Timing()
        self._t0 = time.perf_counter()
        return self._timing

    def __exit__(self, *exc):
        t = self._timing
        t.raw = t.own = t.seconds = time.perf_counter() - self._t0
        t.speed = 1.0
        return False
