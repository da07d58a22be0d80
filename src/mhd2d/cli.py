"""Experiment runner: decay studies, stability runs, audits, and fits.

Exit codes: 0 success, 2 tolerance failure, 3 hard-invariant or numerical
integrity failure, 4 blow-up, 64 usage or configuration error. With a
fixed seed every command writes byte-identical CSV output (floats are
serialized with repr-faithful %.17g formatting, newlines are always LF).
"""

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import diagnostics as dx
from . import solver as sv
from .artifacts import atomic_open
from .config import load_config, typed_config
from .errors import (
    AuditInapplicableError,
    AuditResolutionError,
    BlowUpError,
    ConfigError,
    DiagnosticIntegrityError,
    FitDomainError,
    IncompleteHistoryError,
    QuadratureError,
    SingularBasisError,
    SnapshotFormatError,
)
from .modes import scan_lemma_bounds
from .propagator import DecayCurve, build_profile, linear_decay_curve
from .spectral import make_grid, save_state

EXIT_OK = 0
EXIT_TOLERANCE = 2
EXIT_INVARIANT = 3
EXIT_BLOWUP = 4
EXIT_USAGE = 64

_USAGE_ERRORS = (
    ConfigError,
    SnapshotFormatError,
    IncompleteHistoryError,
    AuditInapplicableError,
    FitDomainError,
    SingularBasisError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _write_json(path, payload):
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _tolerances(pairs, defaults):
    out = dict(defaults)
    for item in pairs or ():
        key, sep, val = (part.strip() for part in item.partition("="))
        if not sep or not key:
            raise ConfigError(f"--tolerance expects KEY=VAL, got {item!r}")
        if key not in defaults:
            raise ConfigError(f"--tolerance key {key!r} is not one of {sorted(defaults)}")
        try:
            out[key] = float(val)
            if not out[key] >= 0.0:  # NaN fails too; inf is a valid cap
                raise ValueError(f"need a number >= 0, got {val!r}")
        except ValueError as exc:
            raise ConfigError(f"--tolerance {key}: {exc}") from exc
    return out


def _time_grid(typed, t_min, t_max, count):
    """``t.count`` geometric times over [t.min, t.max]; the arguments are defaults."""
    t_min = typed.get("t.min", t_min)
    t_max = typed.get("t.max", t_max)
    count = typed.get("t.count", count)
    if not (0.0 < t_min < t_max < np.inf) or count < 1:
        raise ConfigError(f"need 0 < t.min < t.max < inf and t.count >= 1, "
                          f"got [{t_min}, {t_max}] and {count}")
    return np.geomspace(t_min, t_max, count)


def _out_dir(args, typed) -> str:
    out = args.out or typed.get("output.dir") or "mhd2d-out"
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out!r}: {exc}") from exc
    return out


def _say(args, message):
    if not args.quiet:
        print(message)


# ---------------------------------------------------------------------------
# commands


_EXPECTED_COMPONENT_SLOPES = {"v1": -0.75, "v2": -1.25, "B1": -0.25, "B2": -0.75}


def cmd_linear_decay(args, raw) -> int:
    typed = typed_config("linear-decay", raw)
    tol = _tolerances(args.tolerance, {"slope": 0.05})
    times = _time_grid(typed, 1.0, 1.0e4, 161)
    window = (typed.get("window.lo", 1.0e2), typed.get("window.hi", float(times[-1])))

    profile = build_profile(typed.get("profile", "prop25"))
    weights = tuple(_EXPECTED_COMPONENT_SLOPES) if profile.pairs is not None else ()
    weights += typed.get("j", (0, 1, 2))

    out = _out_dir(args, typed)
    fits = []
    ok = True
    for weight, curve in zip(weights, linear_decay_curve(profile, weights, times)):
        expected = (_EXPECTED_COMPONENT_SLOPES[weight] if isinstance(weight, str)
                    else -(0.5 * weight + 0.25))
        _write_csv(
            os.path.join(out, f"decay_{curve.label}.csv"),
            ("t", "value"),
            [[_fmt(t), _fmt(v)] for t, v in zip(curve.times, curve.values)],
        )
        fit = dx.fit_decay(curve, window)
        within = abs(fit.slope - expected) <= tol["slope"]
        ok = ok and within
        fits.append({
            "label": curve.label,
            "slope": fit.slope,
            "expected": expected,
            "tolerance": tol["slope"],
            "within_tolerance": within,
            "intercept": fit.intercept,
            "rms_residual": fit.rms_residual,
            "window": list(fit.window),
        })
        _say(args, f"{curve.label}: slope {fit.slope:+.4f} expected {expected:+.2f} "
                   f"{'ok' if within else 'FAIL'}")
    _write_json(os.path.join(out, "decay_fits.json"),
                {"fits": fits, "all_within_tolerance": ok})
    return EXIT_OK if ok else EXIT_TOLERANCE


# the CLI's own run defaults; every other key defaults as in ``SolverConfig``
_RUN_DEFAULTS = {"n1": 128, "n2": 128, "l1": 32.0 * np.pi, "l2": 32.0 * np.pi,
                 "dt": 0.02, "t_end": 10.0}


def _solver_config(args, typed) -> sv.SolverConfig:
    """Each config key sets the ``SolverConfig`` field named by it, ``.`` read as ``_``."""
    fields = {f.name for f in dataclasses.fields(sv.SolverConfig)}
    kw = dict(_RUN_DEFAULTS)
    kw.update((k.replace(".", "_"), v) for k, v in typed.items()
              if k.replace(".", "_") in fields)
    if args.seed is not None:
        kw["seed"] = args.seed
    cfg = sv.SolverConfig(**kw)
    if "output_every" in kw:
        return cfg
    # the default cadence, about 100 samples, from a validated dt and t_end
    target = max(1, round(cfg.n_steps / 100))
    stride = next(s for s in range(target, 0, -1) if cfg.n_steps % s == 0)
    return dataclasses.replace(cfg, output_every=stride * cfg.dt)


def _write_diagnostics_csv(path, records):
    _write_csv(path, dx.CSV_COLUMNS, [r.csv_row() for r in records])


def _run(cfg, out):
    """``solver.run``; a failed run first writes the history sampled before
    the failure to diagnostics.csv, and main() maps the exit code."""
    try:
        return sv.run(cfg)
    except (BlowUpError, DiagnosticIntegrityError) as exc:
        if exc.trajectory is not None and exc.trajectory.records:
            _write_diagnostics_csv(os.path.join(out, "diagnostics.csv"),
                                   exc.trajectory.records)
        raise


def cmd_nonlinear_run(args, raw) -> int:
    typed = typed_config("nonlinear-run", raw)
    _tolerances(args.tolerance, {})  # it has no gate, so any key is an error
    cfg = _solver_config(args, typed)
    out = _out_dir(args, typed)
    traj = _run(cfg, out)
    _write_diagnostics_csv(os.path.join(out, "diagnostics.csv"), traj.records)
    save_state(traj.states[0], os.path.join(out, "initial.bin"))
    save_state(traj.final_state, os.path.join(out, "final.bin"))

    cum = dx.cumulative(traj.records)
    e0 = traj.records[0].E
    payload = {
        "T": cum.T,
        "G": cum.G,
        "H": cum.H,
        "sup_E": cum.sup_E,
        "dissipation_integral": cum.dissipation_integral,
        "h_terms": list(cum.h_terms),
        "E0": e0,
        "G_sq": cum.G**2,
        "four_E0_sq": 4.0 * e0**2,
        "small_data_bound_holds": bool(cum.G**2 <= 4.0 * e0**2),
    }
    _write_json(os.path.join(out, "cumulative.json"), payload)
    _say(args, f"run complete: T = {cum.T}, G^2 = {cum.G**2:.6e}, "
               f"4 E(0)^2 = {4.0 * e0**2:.6e}")
    return EXIT_OK


def cmd_audit_lemma(args, raw) -> int:
    typed = typed_config("audit-lemma", raw)
    tol = _tolerances(args.tolerance, {"ratio": 1.0e3})
    lo = typed.get("xi1.min", 0.005)
    hi = typed.get("xi1.max", 2.0)
    cnt = typed.get("xi1.count", 100)
    samples = typed.get("samples", 20)
    seed = args.seed if args.seed is not None else typed.get("seed", 0)
    if not (0.0 < lo < hi < np.inf) or cnt < 0:
        raise ConfigError(f"need 0 < xi1.min < xi1.max < inf and xi1.count >= 0, "
                          f"got [{lo}, {hi}] and {cnt}")
    times = _time_grid(typed, 0.1, 1.0e4, 25)
    if samples < 1 or seed < 0:
        raise ConfigError(f"need samples >= 1 and seed >= 0, got {samples} and {seed}")
    xi1 = np.unique(np.concatenate([
        np.linspace(lo, hi, int(cnt)),
        [1e-3, 0.25, 0.5 - 1e-6, 0.5, 0.5 + 1e-6],
    ]))
    summary, rows = scan_lemma_bounds(xi1, times, n_samples=samples, seed=seed)
    out = _out_dir(args, typed)
    _write_csv(
        os.path.join(out, "lemma_rows.csv"),
        ("inequality", "t", "xi1", "lhs", "rhs", "ratio"),
        [[r.inequality, _fmt(r.t), _fmt(r.xi1), _fmt(r.lhs), _fmt(r.rhs), _fmt(r.ratio)]
         for r in rows],
    )
    cap = tol["ratio"]
    ok = all(np.isfinite(s["max_ratio"]) and s["max_ratio"] <= cap
             for s in summary.values())
    _write_json(os.path.join(out, "lemma_audit.json"),
                {"summary": summary, "cap": cap, "all_below_cap": ok})
    for name in sorted(summary):
        s = summary[name]
        _say(args, f"{name}: max ratio {s['max_ratio']:.4f} at xi1 = {s['xi1']:.4g}, "
                   f"t = {s['t']:.4g}")
    if not ok:
        worst = max(summary.items(), key=lambda kv: kv[1]["max_ratio"])
        print(f"cap {cap} exceeded by {worst[0]}: ratio {worst[1]['max_ratio']:.4g} "
              f"at xi1 = {worst[1]['xi1']}, t = {worst[1]['t']}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_audit_energy(args, raw) -> int:
    typed = typed_config("audit-energy", raw)
    tol = _tolerances(args.tolerance, {"implied_c": float("inf"), "lhs": float("inf")})
    cfg = _solver_config(args, typed)
    out = _out_dir(args, typed)
    traj = _run(cfg, out)
    try:
        audit = dx.em_inequality_audit(traj.records, cfg.m)
    except AuditResolutionError as exc:
        print(f"audit cadence too coarse: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    _write_csv(
        os.path.join(out, "energy_audit.csv"),
        ("t", "lhs", "rhs"),
        [[_fmt(t), _fmt(l), _fmt(r)]
         for t, l, r in zip(audit.times, audit.lhs, audit.rhs)],
    )
    max_lhs = float(np.max(audit.lhs))
    ok = (np.isfinite(audit.implied_C) and audit.implied_C <= tol["implied_c"]
          and max_lhs <= tol["lhs"])
    _write_json(os.path.join(out, "energy_audit.json"), {
        "m": cfg.m,
        "implied_C": audit.implied_C,
        "fd_error": audit.fd_error,
        "max_lhs": max_lhs,
        "samples": len(audit.times),
        "within_caps": bool(ok),
    })
    _say(args, f"implied C = {audit.implied_C:.6g}, fd error = {audit.fd_error:.3e}, "
               f"max lhs = {max_lhs:.6e}")
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_audit_embedding(args, raw) -> int:
    typed = typed_config("audit-embedding", raw)
    tol = _tolerances(args.tolerance, {"ratio": 1.0e3})
    grid = make_grid(typed.get("n1", 128), typed.get("n2", 128),
                     typed.get("l1", 16.0 * np.pi), typed.get("l2", 16.0 * np.pi))
    m = typed.get("m", 4)
    widths = typed.get("widths", (0.5, 1.0, 2.0, 4.0))
    states = dx.gaussian_divfree_family(grid, widths)
    labels = [f"gaussian_w{w:g}" for w in widths]
    for k in typed.get("modes", (4, 8)):
        for pair in ("v", "B"):
            states.append(dx.single_mode_state(grid, int(k), int(k), pair))
            labels.append(f"mode_k{k}_{pair}")
    max_ratio, ratios = dx.xm_embedding_scan(states, m)
    out = _out_dir(args, typed)
    cap = tol["ratio"]
    ok = np.isfinite(max_ratio) and max_ratio <= cap
    _write_json(os.path.join(out, "embedding_audit.json"), {
        "m": m,
        "max_ratio": max_ratio,
        "ratios": dict(zip(labels, ratios)),
        "cap": cap,
        "below_cap": bool(ok),
    })
    _say(args, f"embedding scan: max ratio {max_ratio:.4f} over {len(states)} profiles")
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_fit(args, raw) -> int:
    typed = typed_config("fit", raw)
    tol = _tolerances(args.tolerance, {"slope": 0.05})
    path = typed.get("input")
    if not path:
        raise ConfigError("fit requires input = <curve csv> in the config")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row]
    except OSError as exc:
        raise ConfigError(f"cannot read curve {path!r}: {exc}") from exc
    if rows and rows[0][:2] == ["t", "value"]:
        rows = rows[1:]
    try:
        data = np.array([[float(r[0]), float(r[1])] for r in rows])
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"curve {path!r} is not t,value CSV: {exc}") from exc
    if data.size == 0:
        raise ConfigError(f"curve {path!r} is empty")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"curve {path!r} has a non-finite t or value")
    curve = DecayCurve("input", data[:, 0], data[:, 1])
    window = (typed.get("window.lo", float(data[0, 0])),
              typed.get("window.hi", float(data[-1, 0])))
    fit = dx.fit_decay(curve, window)
    payload = {
        "input": path,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "rms_residual": fit.rms_residual,
        "window": list(fit.window),
    }
    rc = EXIT_OK
    if "expected" in typed:
        within = abs(fit.slope - typed["expected"]) <= tol["slope"]
        payload.update(expected=typed["expected"], tolerance=tol["slope"],
                       within_tolerance=within)
        rc = EXIT_OK if within else EXIT_TOLERANCE
    out = _out_dir(args, typed)
    _write_json(os.path.join(out, "fit.json"), payload)
    _say(args, f"slope {fit.slope:+.6f} (rms residual {fit.rms_residual:.3e})")
    return rc


_COMMANDS = {
    "linear-decay": cmd_linear_decay,
    "nonlinear-run": cmd_nonlinear_run,
    "audit-lemma": cmd_audit_lemma,
    "audit-energy": cmd_audit_energy,
    "audit-embedding": cmd_audit_embedding,
    "fit": cmd_fit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mhd2d", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--out", default=None, help="output directory")
        if name in ("nonlinear-run", "audit-energy", "audit-lemma"):
            p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--tolerance", action="append", metavar="KEY=VAL",
                       help="tolerance override, repeatable")
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        raw = load_config(args.config) if args.config else {}
        return _COMMANDS[args.command](args, raw)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DiagnosticIntegrityError, QuadratureError) as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except BlowUpError as exc:
        print(f"blow-up: {exc} (last valid t = {exc.last_valid_time})", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
