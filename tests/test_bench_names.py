"""Names the benchmark reaches from outside the package still resolve.

``bench/spans.py`` wraps package functions by module and attribute name, and
``bench/run.py``/``bench/workloads.py`` call a few private names directly. A
refactor that renames one of them should fail here rather than crash the
traced benchmark.
"""

import importlib
from pathlib import Path

import numpy as np

from mhd2d import solver

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# called directly by the benchmark rather than through spans.py's tables
DIRECT = (
    ("solver", "_Stepper"),
    ("solver", "_Stepper.__init__"),
    ("solver", "run"),
    ("cli", "_solver_config"),
    ("modes", "mode_system"),
    ("spectral", "SpectralState.validate"),
)


def _spans_namespace():
    # executed from source, so nothing is written under bench/
    ns = {"__name__": "bench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), ns)
    return ns


def test_benchmark_names_resolve():
    ns = _spans_namespace()
    names = [(mod, attr) for mod, attr, _ in ns["WRAPS"]]
    names += [(mod, path) for mod, path, _ in ns["STEP_WRAPS"]]
    names += list(DIRECT)
    for mod_name in ns["MODULES"]:
        importlib.import_module(f"mhd2d.{mod_name}")
    for mod_name, path in names:
        owner = importlib.import_module(f"mhd2d.{mod_name}")
        for part in path.split("."):
            assert hasattr(owner, part), f"mhd2d.{mod_name}.{path}: no {part!r}"
            owner = getattr(owner, part)
        assert callable(owner), f"mhd2d.{mod_name}.{path} is not callable"


def test_run_samples_through_module_name(monkeypatch):
    # the benchmark's diagnostics.samples and diagnostics.sample_ms spans wrap
    # solver.instantaneous; a run that sampled some other way would zero them
    real = solver.instantaneous
    sampled = []

    def counted(grid, u, m, **kw):
        if "energy_residual" in kw:
            sampled.append(kw["time"])
        return real(grid, u, m, **kw)

    monkeypatch.setattr(solver, "instantaneous", counted)
    cfg = solver.SolverConfig(n1=16, n2=16, dt=0.05, t_end=0.2, output_every=0.1,
                              data_kind="random", data_delta=0.1, seed=3)
    traj = solver.run(cfg)
    assert sampled == traj.times
    assert len(sampled) == cfg.n_steps // cfg.sample_stride + 1


def test_every_transform_goes_through_a_timed_fft_name(monkeypatch):
    # spans.py times only the n-D names in FFT_FUNCS; a step or a sampled run
    # that called, say, np.fft.ifft would drop out of spectral.fft_ms_per_step
    timed = set(_spans_namespace()["FFT_FUNCS"])
    names = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    cfg = solver.SolverConfig(n1=16, n2=24, dt=0.05, t_end=0.2, output_every=0.1,
                              data_kind="random", data_delta=0.1, seed=3)
    solver.run(cfg)
    assert calls
    assert set(calls) <= timed, sorted(set(calls) - timed)
