"""In-memory span tracer that wraps mhd2d's public entry points from outside.

Nothing under ``src/`` knows about tracing: ``Tracer.install`` replaces the
names each calling module looks up at call time (``solver.run``,
``cli.save_state``, ``numpy.fft.ifft2``, ...) and two private names that
delimit one solver step and one quadratic tendency with wrappers that open a
span,
and ``Tracer.uninstall`` puts the originals back.  A span records its name,
the layer (module) it is charged to, start and end, its parent span and the
run id (the benchmark pass it belongs to), plus a few exact counts taken at
the same boundary: 2-D transform planes, bytes those transforms read and
write (computed from array sizes), and quadrature panels.
"""

import functools
import json
import time

import numpy as np

# numpy's n-D FFT entry points; each call transforms planes over `axes`.
FFT_FUNCS = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")

# (module attribute path, name in that module, layer charged)
WRAPS = (
    ("cli", "main", "cli"),
    ("solver", "run", "solver"),
    ("solver", "initial_state", "solver"),
    ("solver", "advective_dt_bound", "solver"),
    ("solver", "apply_block_entries", "propagator"),
    ("solver", "grid_phi_entries", "propagator"),
    ("solver", "grid_semigroup_entries", "propagator"),
    ("solver", "instantaneous", "diagnostics"),
    ("propagator", "refine_integral", "quadrature"),
    ("propagator", "exp_block_entries", "propagator"),
    ("cli", "save_state", "spectral"),
    ("cli", "linear_decay_curve", "propagator"),
    ("cli", "scan_lemma_bounds", "modes"),
    ("diagnostics", "em_inequality_audit", "diagnostics"),
    ("diagnostics", "cumulative", "diagnostics"),
    ("diagnostics", "fit_decay", "diagnostics"),
    ("spectral", "load_state", "spectral"),
)

# private names that give one solver step and one quadratic-tendency call
# their own spans: (module, attribute path, span name)
STEP_WRAPS = (
    ("solver", "_Stepper.advance", "solver.step"),
    ("solver", "_nonlinear", "solver.tendency"),
)

MODULES = ("spectral", "solver", "propagator", "quadrature", "modes", "diagnostics", "cli")

# span record fields
NAME, LAYER, START, END, PARENT, RUN, CHILD, PLANES, BYTES, PANELS = range(10)


def _fft_work(a, s, axes, out):
    """Planes transformed and bytes read plus written by one n-D FFT call."""
    a = np.asarray(a)
    if axes is None:
        axes = range(a.ndim) if s is None else range(a.ndim - len(s), a.ndim)
    plane = 1
    for ax in axes:
        plane *= a.shape[ax]
    planes = a.size // plane if plane else 0
    return planes, a.nbytes + np.asarray(out).nbytes


class Tracer:
    """Collects spans for the passes run between ``install`` and ``uninstall``."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []
        self._saved = []

    def open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, layer, time.perf_counter(), 0.0, parent, self.run_id, 0.0, 0, 0, 0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += rec[END] - rec[START]

    def span(self, fn, name, layer):
        """Return ``fn`` wrapped so that each call records one span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(rec)

        return wrapper

    def _fft(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, s=None, axes=None, *args, **kwargs):
            if axes is None and name.endswith("2"):
                axes = (-2, -1)
            rec = tracer.open(name, "spectral")
            try:
                out = fn(a, s, axes, *args, **kwargs)
            finally:
                tracer.close(rec)
            rec[PLANES], rec[BYTES] = _fft_work(a, s, axes, out)
            return out

        return wrapper

    def _integral(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            rec = tracer.open(name, "quadrature")

            def counted(x):
                rec[PANELS] += 1
                return f(x)

            try:
                return fn(counted, *args, **kwargs)
            finally:
                tracer.close(rec)

        return wrapper

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, pkg):
        """Wrap the entry points of the imported package modules in ``pkg``."""
        for mod_name, attr, layer in WRAPS:
            owner = pkg[mod_name]
            fn = getattr(owner, attr)
            name = f"{mod_name}.{attr}"
            if attr == "refine_integral":
                self._patch(owner, attr, self._integral(fn, name))
            else:
                self._patch(owner, attr, self.span(fn, name, layer))
        for mod_name, path, name in STEP_WRAPS:
            owner = pkg[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._patch(owner, attr, self.span(getattr(owner, attr), name, mod_name))
        state_cls = pkg["spectral"].SpectralState
        self._patch(state_cls, "validate",
                    self.span(state_cls.validate, "SpectralState.validate", "spectral"))
        for attr in FFT_FUNCS:
            self._patch(np.fft, attr, self._fft(getattr(np.fft, attr), f"numpy.fft.{attr}"))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def write(self, path, header):
        """Write the header and then one JSON array per span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s[NAME], s[LAYER], round((s[START] - t0) * 1e6, 3),
                                     round((s[END] - t0) * 1e6, 3), s[PARENT], s[RUN],
                                     s[PLANES], s[BYTES], s[PANELS]]) + "\n")
