"""The benchmark's workloads: seeded inputs, set-up, timed operations, checks.

Each workload drives mhd2d the way a user does: ``mhd2d.cli.main`` in-process
for CLI commands, and ``modes.mode_system(...).reconstruct`` for the
criterion-1 reconstruction.  Inputs (config files, mode samples) are made
from the workload seed before any timing starts; every operation's outputs
are checked at the acceptance gates' own tolerances after it is timed.
"""

import csv
import json
import math
import os
import shutil

import numpy as np

BOX = 32.0 * math.pi


class CheckFailed(Exception):
    pass


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _run_config(n, dt, t_end, every, seed, scheme="etdrk2", alpha=0.0):
    return {
        "n1": n, "n2": n, "l1": repr(BOX), "l2": repr(BOX), "dt": dt, "t_end": t_end,
        "output.every": every, "scheme": scheme, "alpha": alpha, "m": 4,
        "data.kind": "random", "data.delta": 0.01, "seed": seed,
    }


def _write_config(path, keys):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in keys.items())
    return path


def _out_bytes(out):
    return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))


class CliOp:
    """One ``mhd2d <command> --config FILE --out DIR --quiet`` invocation."""

    def __init__(self, work, label, command, keys, check):
        self.label = label
        self.command = command
        self.keys = keys
        self.out = os.path.join(work, label)
        self.path = _write_config(os.path.join(work, label + ".cfg"), keys)
        self._check = check
        self.bytes_written = 0

    def argv(self):
        return [self.command, "--config", self.path, "--out", self.out, "--quiet"]

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self, pkg):
        return pkg["cli"].main(self.argv())

    def check(self, pkg, rc):
        _require(rc == 0, f"{self.label}: exit code {rc}")
        self._check(self, pkg)
        self.bytes_written = _out_bytes(self.out)

    def setup(self, pkg):
        """Parse the arguments and config as ``cli.main`` does and, for
        run-shaped commands, build what ``solver.run`` builds before its first
        step: the initial state and the stepper with its tables."""
        cli, solver = pkg["cli"], pkg["solver"]
        args = cli.build_parser().parse_args(self.argv())
        typed = cli.typed_config(self.command, cli.load_config(args.config))
        if self.command in ("nonlinear-run", "audit-energy"):
            cfg = cli._solver_config(args, typed)
            grid = cfg.grid()
            solver.initial_state(cfg, grid)
            solver._Stepper(grid, cfg)


def _check_nonlinear_run(op, pkg):
    cum = _read_json(os.path.join(op.out, "cumulative.json"))
    _require(cum["small_data_bound_holds"] is True, f"{op.label}: small_data_bound_holds")
    with open(os.path.join(op.out, "diagnostics.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    n_steps = round(op.keys["t_end"] / op.keys["dt"])
    stride = round(op.keys["output.every"] / op.keys["dt"])
    _require(len(rows) == n_steps // stride + 1, f"{op.label}: {len(rows)} diagnostics rows")
    for row in rows:
        A, E = float(row["A"]), float(row["E"])
        # criterion 6's cross-term gate
        _require(abs(A) <= 0.5 * E * E * (1.0 + 1e-12), f"{op.label}: |A| > E^2/2 at t={row['t']}")
    spectral = pkg["spectral"]
    for name, t in (("initial.bin", 0.0), ("final.bin", op.keys["t_end"])):
        state = spectral.load_state(os.path.join(op.out, name))
        try:
            state.validate()
        except pkg["errors"].ConfigError as exc:
            raise CheckFailed(f"{op.label}: {name} fails validate(): {exc}") from exc
        _require(state.grid.shape == (op.keys["n1"], op.keys["n2"]), f"{op.label}: {name} grid")
        _require(abs(state.time - t) <= 1e-9, f"{op.label}: {name} time {state.time}")


def _check_audit_energy(op, pkg):
    res = _read_json(os.path.join(op.out, "energy_audit.json"))
    _require(res["within_caps"] is True, f"{op.label}: within_caps")
    n_steps = round(op.keys["t_end"] / op.keys["dt"])
    _require(res["samples"] == n_steps + 1, f"{op.label}: {res['samples']} samples")


def _check_linear_decay(op, pkg):
    res = _read_json(os.path.join(op.out, "decay_fits.json"))
    _require(res["all_within_tolerance"] is True, f"{op.label}: all_within_tolerance")
    _require(len(res["fits"]) == 7, f"{op.label}: {len(res['fits'])} curves")


def _check_audit_lemma(op, pkg):
    res = _read_json(os.path.join(op.out, "lemma_audit.json"))
    _require(res["all_below_cap"] is True, f"{op.label}: all_below_cap")


def _reconstruct(mode_system, x, u):
    return mode_system(x).reconstruct(u)


class ReconOp:
    """Criterion 1: reconstruct seeded random modes through ``mode_system``."""

    label = "reconstruct"
    bytes_written = 0

    def __init__(self, seed, count=10_000):
        rng = np.random.default_rng(seed)
        pool = rng.uniform(-3.0, 3.0, 3 * count)
        dist = np.min(np.abs(pool[:, None] - np.array([0.0, 0.5, -0.5])), axis=1)
        self.xi = [float(x) for x in pool[dist >= 1e-3][:count]]
        self.us = rng.normal(size=(count, 4)) + 1j * rng.normal(size=(count, 4))

    def prepare(self):
        pass

    def setup(self, pkg):
        pass

    def run(self, pkg):
        mode_system, recon = pkg["modes"].mode_system, _reconstruct
        if pkg["tracer"] is not None:
            recon = pkg["tracer"].span(recon, "modes.mode_system+reconstruct", "modes")
        worst = 0.0
        for x, u in zip(self.xi, self.us):
            err = np.linalg.norm(recon(mode_system, x, u) - u) / np.linalg.norm(u)
            if err > worst:
                worst = err
        return worst

    def check(self, pkg, worst):
        _require(worst <= 1e-10, f"reconstruction error {worst:.3e}")


class Workload:
    def __init__(self, name, ops, steps, unit, kernel):
        self.name = name
        self.ops = ops
        self.steps = steps  # units of work per pass, see README
        self.unit = unit
        self.kernel = kernel  # speed.KERNELS entry that tracks the host's speed


def _seeds(seed, k):
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(k)]


def run_256(work, seed):
    (data,) = _seeds(seed, 1)
    keys = _run_config(256, 0.05, 1.0, 0.5, data)
    ops = [CliOp(work, "nonlinear-run", "nonlinear-run", keys, _check_nonlinear_run)]
    return Workload("run-256", ops, steps=round(1.0 / 0.05), unit="solver steps", kernel="fft")


def audit_128(work, seed):
    (data,) = _seeds(seed, 1)
    cases = (("etdrk2-dt0.04", 0.04, "etdrk2", 0.0), ("etdrk2-dt0.02", 0.02, "etdrk2", 0.0),
             ("ifrk4-dt0.04", 0.04, "ifrk4", 0.0), ("etdrk2-dt0.04-alpha0.5", 0.04, "etdrk2", 0.5))
    ops = [CliOp(work, label, "audit-energy", _run_config(128, dt, 0.4, dt, data, scheme, alpha),
                 _check_audit_energy) for label, dt, scheme, alpha in cases]
    steps = sum(round(0.4 / dt) for _, dt, _, _ in cases)
    return Workload("audit-128", ops, steps=steps, unit="solver steps", kernel="fft")


def linear(work, seed):
    lemma_seed, recon_seed = _seeds(seed, 2)
    decay = {"profile": "prop25", "t.min": 1.0, "t.max": 1.0e4, "t.count": 161, "j": "0,1,2"}
    lemma = {"xi1.min": 0.005, "xi1.max": 2.0, "xi1.count": 100, "t.min": 0.1,
             "t.max": 1.0e4, "t.count": 25, "samples": 20, "seed": lemma_seed}
    ops = [CliOp(work, "linear-decay", "linear-decay", decay, _check_linear_decay),
           CliOp(work, "audit-lemma", "audit-lemma", lemma, _check_audit_lemma),
           ReconOp(recon_seed)]
    # 7 curves x 161 times, 25 lemma times x 20 samples, 10^4 modes
    return Workload("linear", ops, steps=7 * 161 + 25 * 20 + 10_000, unit="evaluations",
                    kernel="python")


WORKLOADS = {"run-256": run_256, "audit-128": audit_128, "linear": linear}
