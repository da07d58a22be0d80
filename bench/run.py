"""mhd2d benchmark: run one workload in this process and print its metrics.

    python3 bench/run.py --workload run-256 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/``.  The run sets up the workload several times (a fresh
``import mhd2d``, config parsing, initial state and step tables) and reports
the median as ``setup_s``; then it repeats passes over the workload's
operations for about ``--seconds`` and checks every operation's outputs.
Untraced times are reported at a fixed host speed measured in-band by
``speed.py``; the raw times are printed in the environment line.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes, reports the per-layer
metrics of the traced ones and the tracing overhead, and writes the spans to
``.bench_out/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# one process, no added threads: pin BLAS pools before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spans as tr  # noqa: E402
import speed as sp  # noqa: E402
import workloads as wl  # noqa: E402

PKG_MODULES = ("cli", "config", "diagnostics", "errors", "modes", "propagator",
               "quadrature", "solver", "spectral")
SETUP_REPS = 5
MIN_PASSES = {0: 3, 1: 4}


def import_package():
    """A fresh ``import mhd2d`` from the checkout, whatever was loaded before."""
    for name in [m for m in sys.modules if m == "mhd2d" or m.startswith("mhd2d.")]:
        del sys.modules[name]
    importlib.import_module("mhd2d")
    pkg = {m: importlib.import_module("mhd2d." + m) for m in PKG_MODULES}
    pkg["tracer"] = None
    return pkg


def set_up(workload, probe):
    """Time SETUP_REPS set-ups: import, config parsing, initial state, tables."""
    times = []
    for _ in range(SETUP_REPS):
        with probe as t:
            pkg = import_package()
            for op in workload.ops:
                op.setup(pkg)
        times.append(t)
    return pkg, times


class StepClock:
    """Own time of the stepping loop of each ``solver.run``.

    Two untraced wrappers mark it: the loop starts when the run's
    ``solver._Stepper`` is built (after ``initial_state`` and the table
    build) and ends when ``solver.run`` returns.  It holds the steps, the
    diagnostics samples and their validation.  Time the probe's kernel spends
    inside it is left out.
    """

    def __init__(self, solver, probe):
        self.seconds = 0.0
        self._start = None
        build, run = solver._Stepper.__init__, solver.run
        clock = self

        def built(stepper, *args, **kwargs):
            build(stepper, *args, **kwargs)
            clock._start = (time.perf_counter(), probe.spent)

        def timed_run(*args, **kwargs):
            clock._start = None
            try:
                return run(*args, **kwargs)
            finally:
                if clock._start is not None:
                    t0, k0 = clock._start
                    clock.seconds += time.perf_counter() - t0 - (probe.spent - k0)

        solver._Stepper.__init__ = built
        solver.run = timed_run


def run_pass(workload, pkg, timer, clock):
    """Time each operation, then check its outputs.

    Returns one ``(Timing, step seconds at the probe's reference speed)`` per
    operation, and the number of failed operations.
    """
    times, failed = [], 0
    for op in workload.ops:
        op.prepare()
        clock.seconds = 0.0
        try:
            with timer as t:
                result = op.run(pkg)
        except Exception:  # a crashing operation counts as failed; keep measuring
            times.append((t, clock.seconds * t.speed))
            failed += 1
            traceback.print_exc()
            continue
        times.append((t, clock.seconds * t.speed))
        # spans opened by the checks hang under this root and are left out of
        # the per-layer numbers
        check = pkg["tracer"].open("bench.check", "bench") if pkg["tracer"] else None
        try:
            op.check(pkg, result)
        except wl.CheckFailed as exc:
            failed += 1
            print(f"check failed: {exc}", file=sys.stderr)
        except Exception:  # unreadable or malformed output fails the operation too
            failed += 1
            traceback.print_exc()
        finally:
            if check is not None:
                pkg["tracer"].close(check)
    return times, failed


def median_pass(passes, value):
    """Sum over a pass's operations of each one's median ``value`` across passes."""
    return sum(statistics.median(value(op) for op in ops) for ops in zip(*passes))


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans, kept, n_passes):
    """Per-layer numbers from the spans ``kept`` of ``n_passes`` traced passes.

    ``spans`` is the tracer's whole list, through which parents are looked up.
    """
    by_name = {}
    for s in kept:
        by_name.setdefault(s[tr.NAME], []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def within(s, name):
        while s[tr.PARENT] >= 0:
            s = spans[s[tr.PARENT]]
            if s[tr.NAME] == name:
                return True
        return False

    def dur(s):
        return s[tr.END] - s[tr.START]

    def self_time(s):
        return dur(s) - s[tr.CHILD]

    def total(items, f=dur):
        return sum(f(s) for s in items)

    def per(x, n):
        return x / n if n else 0.0

    def p50_ms(items):
        return _pct([dur(s) * 1e3 for s in items], 50)

    step_spans = named("solver.step")
    steps = len(step_spans)
    ffts = [s for s in kept if s[tr.NAME].startswith("numpy.fft.")]
    step_ffts = [s for s in ffts if within(s, "solver.step")]
    tendencies = named("solver.tendency")
    # diagnostics samples are the instantaneous() calls of the run loop, not
    # the one initial_state makes to normalise the data
    samples = [s for s in named("solver.instantaneous")
               if spans[s[tr.PARENT]][tr.NAME] == "solver.run"]
    sample_ffts = [s for s in ffts if within(s, "solver.instantaneous")
                   and not within(s, "solver.initial_state")]
    sample_ms = [dur(s) * 1e3 for s in samples]
    blocks = named("solver.apply_block_entries")
    curves = named("cli.linear_decay_curve")
    integrals = named("propagator.refine_integral")
    audits = named("diagnostics.em_inequality_audit")
    mode_us = [dur(s) * 1e6 for s in named("modes.mode_system+reconstruct")]

    def planes(s):
        return s[tr.PLANES]

    def nbytes(s):
        return s[tr.BYTES]

    def panels(s):
        return s[tr.PANELS]

    m = {
        "spectral.fft_planes_per_step": (per(total(step_ffts, planes), steps), "count"),
        "spectral.fft_ms_per_step": (per(total(step_ffts) * 1e3, steps), "ms"),
        "spectral.fft_bytes_per_step": (per(total(step_ffts, nbytes), steps), "B_computed"),
        "spectral.snapshot_ms": (p50_ms(named("cli.save_state")), "ms"),
        "spectral.validate_ms": (p50_ms(named("SpectralState.validate")), "ms"),
        "diagnostics.fft_planes_per_sample": (per(total(sample_ffts, planes), len(samples)),
                                              "count"),
        "diagnostics.sample_ms.p50": (_pct(sample_ms, 50), "ms"),
        "diagnostics.sample_ms.p90": (_pct(sample_ms, 90), "ms"),
        "diagnostics.samples": (per(len(samples), n_passes), "count"),
        "diagnostics.audit_ms": (per(total(audits) * 1e3, len(audits)), "ms"),
        "solver.steps": (per(steps, n_passes), "count"),
        "solver.step_ms": (per(total(step_spans) * 1e3, steps), "ms"),
        "solver.tendency_ms": (per(total(tendencies) * 1e3, len(tendencies)), "ms"),
        "solver.tendency_calls_per_step": (per(len(tendencies), steps), "count"),
        "solver.self_ms_per_step": (per(total(named("solver.run"), self_time) * 1e3, steps),
                                    "ms"),
        "propagator.tables_s": (per(total(named("solver.grid_semigroup_entries",
                                                "solver.grid_phi_entries")), n_passes), "s"),
        "propagator.block_ms_per_step": (per(total(blocks) * 1e3, steps), "ms"),
        "propagator.block_calls_per_step": (per(len(blocks), steps), "count"),
        "propagator.curve_s": (per(total(curves), len(curves)), "s"),
        "quadrature.panels_per_curve": (per(total(integrals, panels), len(curves)), "count"),
        "quadrature.ms_per_integral": (per(total(integrals) * 1e3, len(integrals)), "ms"),
        "modes.scan_s": (per(total(named("cli.scan_lemma_bounds")), n_passes), "s"),
        "modes.mode_us.p50": (_pct(mode_us, 50), "us"),
        "modes.mode_us.p90": (_pct(mode_us, 90), "us"),
    }
    for layer in tr.MODULES:
        own = [s for s in kept if s[tr.LAYER] == layer]
        m[f"{layer}.self_ms"] = (per(total(own, self_time) * 1e3, n_passes), "ms")
    m["trace.spans_per_pass"] = (per(len(kept), n_passes), "count")
    return m


RUN_BREAKDOWN = ("solver.steps", "solver.step_ms", "solver.tendency_ms",
                 "spectral.fft_ms_per_step", "propagator.block_ms_per_step",
                 "propagator.tables_s", "diagnostics.sample_ms.p50")


def traced_metrics(spans, n_passes):
    """Per-layer metrics of all traced passes, and a breakdown of each
    ``solver.run`` of the first traced pass computed the same way."""
    roots = []
    for s in spans:
        roots.append(s if s[tr.PARENT] < 0 else roots[s[tr.PARENT]])
    # spans opened while checking outputs are left out of the numbers
    kept = [s for s, root in zip(spans, roots) if root[tr.NAME] != "bench.check"]
    runs = []
    for run in (s for s in kept if s[tr.NAME] == "solver.run" and s[tr.RUN] == 0):
        lo, hi = run[tr.START], run[tr.END]
        subtree = [s for s in kept if s[tr.RUN] == 0 and lo <= s[tr.START] and s[tr.END] <= hi]
        m = layer_metrics(spans, subtree, 1)
        runs.append({k: m[k][0] for k in RUN_BREAKDOWN})
    return layer_metrics(spans, kept, n_passes), runs


def _llc_bytes():
    """Size of the highest cache level of cpu0, read from sysfs; None if absent."""
    best = (0, None)
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
        if level >= best[0]:
            best = (level, int(size.rstrip("KM")) * mult)
    return best[1]


def _git_sha():
    """HEAD commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _os_threads():
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(args, workload):
    grids = sorted({(op.keys["n1"], op.keys["n2"]) for op in workload.ops
                    if "n1" in getattr(op, "keys", {})})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "threads": {"python": threading.active_count(), "os": _os_threads(),
                    "blas_env": os.environ["OPENBLAS_NUM_THREADS"]},
        "llc_bytes": _llc_bytes(),
        "git_sha": _git_sha(),
        "src_sha256_16": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "grids": [f"{a}x{b}" for a, b in grids],
        "operations": [op.label for op in workload.ops],
        "steps_per_pass": workload.steps,
        "step_unit": workload.unit,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mhd2d" / "__init__.py").is_file():
        print(f"error: no mhd2d sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = wl.WORKLOADS[args.workload](str(work), args.seed)
        probe = sp.SpeedProbe(workload.kernel)
        pkg, setups = set_up(workload, probe)
        if not Path(pkg["cli"].__file__).resolve().is_relative_to(SRC):
            print(f"error: imported mhd2d from {pkg['cli'].__file__}", file=sys.stderr)
            return 2
        clock = StepClock(pkg["solver"], probe)
        tracer = tr.Tracer()
        passes = {0: [], 1: []}
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            traced = args.trace == 1 and (len(passes[0]) + len(passes[1])) % 2 == 1
            if traced:
                # no probe kernel inside traced passes: it would land in spans
                tracer.run_id = len(passes[1])
                tracer.install(pkg)
                pkg["tracer"] = tracer
            try:
                op_times, bad = run_pass(workload, pkg, sp.PlainTimer() if traced else probe,
                                         clock)
            finally:
                tracer.uninstall()
                pkg["tracer"] = None
            passes[int(traced)].append(op_times)
            attempted += len(workload.ops)
            failed += bad
            used = time.perf_counter() - start
            done = len(passes[0]) + len(passes[1])
            last = sum(t.raw for t, _ in op_times)
            if done >= MIN_PASSES[args.trace] and used + last > args.seconds:
                break
        bytes_written = sum(op.bytes_written for op in workload.ops)
        env = environment(args, workload)
        env["passes"] = {"untraced": len(passes[0]), "traced": len(passes[1])}
        env["pass_s"] = {k: [[round(t.seconds, 6) for t, _ in ops] for ops in passes[i]]
                         for i, k in ((0, "untraced"), (1, "traced"))}
        env["pass_raw_s"] = {k: [[round(t.raw, 6) for t, _ in ops] for ops in passes[i]]
                             for i, k in ((0, "untraced"), (1, "traced"))}
        env["host_speed"] = [[round(t.speed, 4) for t, _ in ops] for ops in passes[0]]
        env["setup_s"] = [round(t.seconds, 6) for t in setups]
        env["setup_raw_s"] = [round(t.raw, 6) for t in setups]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    wall = median_pass(passes[0], lambda op: op[0].seconds)
    if args.trace == 0:
        stepping = median_pass(passes[0], lambda op: op[1])
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(t.seconds for t in setups), "s"),
            "steps_per_s": (workload.steps / (stepping if stepping > 0 else wall), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics, env["runs"] = traced_metrics(tracer.spans, len(passes[1]))
        # raw wall times of both kinds of pass, the untraced ones without the
        # probe's kernel
        untraced = median_pass(passes[0], lambda op: op[0].own)
        overhead = median_pass(passes[1], lambda op: op[0].raw) - untraced
        metrics["cli.bytes_written"] = (float(bytes_written), "B")
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_pct"] = (100.0 * overhead / untraced, "%")
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}.jsonl"
        tracer.write(path, {"environment": env,
                            "fields": ["id", "name", "layer", "start_us", "end_us", "parent",
                                       "run", "planes", "bytes", "panels"]})
        env["trace_file"] = str(path.relative_to(ROOT))

    print(json.dumps({"environment": env}, sort_keys=True))
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
