"""Config parsing, command-line workflows, artifacts, and exit codes."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from mhd2d import cli, solver
from mhd2d.artifacts import atomic_open
from mhd2d.config import COMMAND_KEYS, load_config, parse_config, typed_config
from mhd2d.diagnostics import CSV_COLUMNS
from mhd2d.errors import ConfigError
from mhd2d.spectral import (
    SpectralGrid,
    load_state,
    random_div_free_state,
    save_state,
)
from reference import failing_instantaneous, package_env


def write_cfg(tmp_path, name, mapping):
    lines = ["# experiment configuration", ""]
    lines += [f"{k} = {v}" for k, v in mapping.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config layer


def test_parse_config_basics():
    raw = parse_config("# header\n\nn1 = 64\ndata.kind = random\n  dt=0.5\n")
    assert raw == {"n1": "64", "data.kind": "random", "dt": "0.5"}


@pytest.mark.parametrize("text", [
    "n1 64\n",            # no separator
    "= 3\n",              # empty key
    "a = 1\na = 2\n",     # duplicate
])
def test_parse_config_rejects(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_load_config_drops_a_byte_order_mark(tmp_path, capsys):
    # some editors start a UTF-8 file with U+FEFF; it must not become part of
    # the first key, and a file without it reads the same
    text = "n1 = 64\n# \u00e9t\u00e9\ndt = 0.5\n"
    for name, encoding in (("bom.cfg", "utf-8-sig"), ("plain.cfg", "utf-8")):
        path = tmp_path / name
        path.write_text(text, encoding=encoding)
        assert load_config(path) == {"n1": "64", "dt": "0.5"}, name
    assert (tmp_path / "bom.cfg").read_bytes().startswith(b"\xef\xbb\xbf")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n1 = 7\n", encoding="utf-8-sig")
    assert cli.main(["nonlinear-run", "--config", str(cfg), "--quiet"]) == 64
    err = capsys.readouterr().err
    assert "n1 must be an even integer" in err and "\ufeff" not in err, err
    # a byte that is not UTF-8 is a config error naming the file, not a traceback
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(b"profile = \xff\n")
    with pytest.raises(ConfigError, match="latin.cfg"):
        load_config(latin)
    out = tmp_path / "latin"
    assert cli.main(["linear-decay", "--config", str(latin), "--out", str(out), "--quiet"]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "latin.cfg" in err, err
    assert not out.exists()


def test_typed_config_coercion_and_schema():
    typed = typed_config("nonlinear-run", {
        "n1": "64", "dt": "0.02", "nonlinear": "false", "data.kind": "random"})
    assert typed == {"n1": 64, "dt": 0.02, "nonlinear": False, "data.kind": "random"}
    lists = typed_config("audit-embedding", {"widths": "0.5, 2", "modes": "4,8"})
    assert lists == {"widths": (0.5, 2.0), "modes": (4, 8)}
    with pytest.raises(ConfigError, match="not valid"):
        typed_config("nonlinear-run", {"profile": "fstar"})
    with pytest.raises(ConfigError, match="bad value"):
        typed_config("nonlinear-run", {"n1": "sixty-four"})
    with pytest.raises(ConfigError, match="unknown command"):
        typed_config("frobnicate", {})


def test_solver_config_defaults_come_from_solver_config():
    cfg = cli._solver_config(SimpleNamespace(seed=None), {})
    for f in dataclasses.fields(solver.SolverConfig):
        if f.name in cli._RUN_DEFAULTS:
            assert getattr(cfg, f.name) == cli._RUN_DEFAULTS[f.name], f.name
        elif f.name != "output_every":
            assert getattr(cfg, f.name) == f.default, f.name
    # the default cadence: 500 steps sampled every 5
    assert cfg.output_every == 5 * cfg.dt


def test_solver_config_reads_every_run_key():
    run_keys = COMMAND_KEYS["nonlinear-run"]
    fields = {f.name for f in dataclasses.fields(solver.SolverConfig)}
    assert {k.replace(".", "_") for k in run_keys} - fields == {"output_dir"}
    raw = {"n1": "32", "n2": "48", "l1": "3.0", "l2": "5.0", "dt": "0.05",
           "t_end": "0.5", "scheme": "ifrk4", "alpha": "0.5", "kappa": "2.0",
           "m": "3", "seed": "7", "data.kind": "random", "data.delta": "0.02",
           "output.every": "0.25", "output.dir": "elsewhere", "nonlinear": "false",
           "coupling": "false"}
    assert set(raw) == set(run_keys)
    typed = typed_config("nonlinear-run", raw)
    cfg = cli._solver_config(SimpleNamespace(seed=None), typed)
    defaults = cli._solver_config(SimpleNamespace(seed=None), {})
    for key, value in typed.items():
        if key != "output.dir":
            assert getattr(cfg, key.replace(".", "_")) == value != getattr(
                defaults, key.replace(".", "_")), key
    assert cli._solver_config(SimpleNamespace(seed=11), typed).seed == 11


# ---------------------------------------------------------------------------
# usage errors


def test_cli_usage_errors(tmp_path, capsys):
    assert cli.main([]) == 64
    assert cli.main(["no-such-command"]) == 64
    assert cli.main(["fit", "--bogus-flag"]) == 64
    # only the commands that read a seed take --seed
    for cmd in ("linear-decay", "audit-embedding", "fit"):
        assert cli.main([cmd, "--seed", "-7"]) == 64, cmd
    assert cli.main(["nonlinear-run", "--config", str(tmp_path / "missing.cfg")]) == 64
    bad = write_cfg(tmp_path, "bad.cfg", {"profile": "fstar"})
    assert cli.main(["nonlinear-run", "--config", bad]) == 64
    assert cli.main(["audit-lemma", "--tolerance", "ratio"]) == 64
    capsys.readouterr()
    # each is refused at the command's entry: without the checks they raise
    # from numpy or float arithmetic, pass a gate with nothing checked, or
    # fail only after writing partial curves
    cases = [(cmd, run, ()) for cmd in ("nonlinear-run", "audit-energy")
             for run in ({"dt": 0.0}, {"dt": "nan"}, {"t_end": "inf"},
                         {"data.kind": "random", "seed": -1})]
    cases += [("audit-lemma", run, ()) for run in (
        {"t.min": 0.0}, {"t.min": -1.0}, {"t.max": "inf"}, {"xi1.max": "inf"},
        {"xi1.count": -1}, {"samples": 0}, {"t.count": 0}, {"seed": -3})]
    cases += [("audit-lemma", {}, ("--seed", "-3")),
              ("linear-decay", {"t.max": "inf"}, ()), ("linear-decay", {"t.count": 0}, ()),
              ("linear-decay", {"j": "0, 400"}, ()),  # j400's curve underflows to 0
              ("audit-embedding", {"widths": "", "modes": ""}, ())]
    cases += [("audit-embedding", {"n1": 16, "n2": 16, "modes": 2, **bad}, ())
              for bad in ({"m": 0}, {"m": -1}, {"widths": "1, inf"}, {"widths": "nan"})]
    # a tolerance key the command does not have, or a NaN or negative value
    cases += [("linear-decay", {}, ("--tolerance", tol))
              for tol in ("slpoe=0.0", "slope=nan", "slope=-0.01")]
    small = {"n1": 16, "n2": 16, "dt": 0.05, "t_end": 0.5, "output.every": 0.05}
    cases += [("audit-energy", small, ("--tolerance", tol))
              for tol in ("implied_C=1", "lhs=-inf")]
    cases += [("audit-lemma", {}, ("--tolerance", "slope=1")),
              ("nonlinear-run", small, ("--tolerance", "ratio=1"))]
    # initial data that vanishes on the grid is refused when the run builds it
    vanish = {"n1": 16, "n2": 16, "l1": 1, "l2": 1}
    cases += [("nonlinear-run", vanish, ()), ("audit-energy", vanish, ())]
    for i, (cmd, mapping, flags) in enumerate(cases):
        path = write_cfg(tmp_path, f"case{i}.cfg", mapping)
        out = tmp_path / f"out{i}"
        argv = [cmd, "--config", path, "--out", str(out), "--quiet", *flags]
        assert cli.main(argv) == 64, (mapping, flags)
        assert capsys.readouterr().err.startswith("error:"), (mapping, flags)
        assert not out.exists(), (mapping, flags)  # the first file makes the directory


def _parsed(parser, argv):
    """What parsing ``argv`` prints, and its usage error message or None."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            parser.parse_args(argv)
        except SystemExit:
            pass
        except cli._UsageError as exc:
            return out.getvalue(), str(exc)
    return out.getvalue(), None


def test_a_command_parser_helps_and_fails_as_the_full_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    for name in cli._COMMANDS:
        for flags in (["--help"], ["--config"], ["--bogus"], ["--seed", "x"],
                      ["--tolerance"], ["--out", "o", "extra"]):
            got = _parsed(cli.build_parser(name), [name, *flags])
            assert got == _parsed(cli.build_parser(), [name, *flags]), (name, flags)
            assert any(got), (name, flags)
        assert _parsed(cli.build_parser(name), [name, "--help"])[0].startswith(
            f"usage: mhd2d {name} [-h]")
    # main builds one subparser for a known command and all six otherwise
    real, asked = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda *a: asked.append(a) or real(*a))
    for argv in (["fit", "--bogus"], ["no-such-command"], [], ["--help", "fit"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            cli.main(argv)
    assert asked == [("fit",), (None,), (None,), (None,)]


def test_seed_flag_follows_the_schema():
    # every command has a schema, and takes --seed exactly when its schema
    # has a seed key
    assert set(cli._COMMANDS) == set(COMMAND_KEYS)
    for name, schema in COMMAND_KEYS.items():
        _, error = _parsed(cli.build_parser(name), [name, "--seed", "1"])
        assert (error is None) == ("seed" in schema), (name, error)


def test_tolerance_overrides():
    defaults = {"implied_c": float("inf"), "lhs": float("inf")}
    assert cli._tolerances(None, defaults) == defaults
    assert cli._tolerances(["lhs = 0.5", "implied_c=inf"], defaults) == {
        "implied_c": float("inf"), "lhs": 0.5}
    assert cli._tolerances(["slope=0"], {"slope": 0.05}) == {"slope": 0.0}
    with pytest.raises(ConfigError, match=r"\['implied_c', 'lhs'\]"):
        cli._tolerances(["implied_C=1"], defaults)


def test_module_entry_point_usage():
    proc = subprocess.run([sys.executable, "-m", "mhd2d"],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 64


# ---------------------------------------------------------------------------
# linear-decay


@pytest.fixture(scope="module")
def decay_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("decay")
    cfg = write_cfg(tmp, "decay.cfg", {
        "t.min": 1.0, "t.max": 1.0e4, "t.count": 60,
        "window.lo": 1.0e2, "j": "0"})
    out = tmp / "out"
    rc = cli.main(["linear-decay", "--config", cfg, "--out", str(out), "--quiet"])
    return rc, out


@pytest.mark.parametrize("window", ({"window.lo": 1e5}, {"window.lo": 10, "window.hi": 5},
                                    {"window.lo": 9e3}))
def test_linear_decay_bad_window_writes_nothing(tmp_path, capsys, window):
    # the window is checked against the time grid before any curve is written
    cfg = write_cfg(tmp_path, "decay.cfg", {"t.count": 60, "j": "0", **window})
    out = tmp_path / "out"
    assert cli.main(["linear-decay", "--config", cfg, "--out", str(out), "--quiet"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("empty window" in err or "need >= 10" in err), err
    assert not list(out.glob("decay_*.csv"))


def test_linear_decay_passes_and_writes_artifacts(decay_out):
    rc, out = decay_out
    assert rc == 0
    report = json.loads((out / "decay_fits.json").read_text())
    assert report["all_within_tolerance"] is True
    labels = {f["label"] for f in report["fits"]}
    assert labels == {"v1", "v2", "B1", "B2", "j0"}
    expected = {"v1": -0.75, "v2": -1.25, "B1": -0.25, "B2": -0.75, "j0": -0.25}
    for fit in report["fits"]:
        assert fit["expected"] == expected[fit["label"]]
        assert abs(fit["slope"] - fit["expected"]) <= 0.05
        curve = (out / f"decay_{fit['label']}.csv").read_text()
        lines = curve.split("\n")
        assert lines[0] == "t,value"
        assert len(lines) == 62  # header + 60 samples + trailing newline


def test_linear_decay_stacked_call_writes_single_weight_bytes(tmp_path, monkeypatch):
    # the command's one stacked call writes the bytes that one call per
    # weight writes, for a vector profile and for a scalar one
    cfgs = {"prop25": {"t.min": 1.0, "t.max": 1.0e4, "t.count": 40, "j": "0,1,2"},
            "fstar": {"profile": "fstar", "t.count": 40, "j": "2,0,1"}}
    outs = {}
    for name, keys in cfgs.items():
        cfg = write_cfg(tmp_path, f"{name}.cfg", keys)
        outs[name] = tmp_path / name
        assert cli.main(["linear-decay", "--config", cfg, "--out", str(outs[name]),
                         "--quiet"]) == 0
    one_at_a_time = cli.linear_decay_curve
    monkeypatch.setattr(cli, "linear_decay_curve", lambda profile, weights, times: [
        one_at_a_time(profile, w, times) for w in weights])
    for name, keys in cfgs.items():
        cfg = write_cfg(tmp_path, f"{name}.cfg", keys)
        single = tmp_path / f"{name}-single"
        assert cli.main(["linear-decay", "--config", cfg, "--out", str(single), "--quiet"]) == 0
        files = sorted(os.listdir(single))
        assert files == sorted(os.listdir(outs[name]))
        assert "decay_fits.json" in files and len(files) == (8 if name == "prop25" else 4)
        for f in files:
            assert (single / f).read_bytes() == (outs[name] / f).read_bytes(), (name, f)
    # the command refuses a repeated j, but a stacked call still takes one
    profile, times = cli.build_profile("fstar"), np.geomspace(1.0, 1.0e4, 40)
    stacked = one_at_a_time(profile, (2, 0, 2), times)
    for w, curve in zip((2, 0, 2), stacked):
        assert np.array_equal(curve.values, one_at_a_time(profile, w, times).values), w


def test_linear_decay_repeated_j_is_a_usage_error(tmp_path, capsys):
    # each weight names its own curve file and fit: a repeated j would write
    # its file twice and list its fit twice, so it is refused before any curve;
    # a negative j is refused before the output directory is made, too
    for i, (j, words) in enumerate((("1,1", ("must not repeat", "[1]")),
                                    ("0,2,0,2,1", ("must not repeat", "[0, 2]")),
                                    ("-1", ("j >= 0", "-1")))):
        cfg = write_cfg(tmp_path, f"decay{i}.cfg", {"t.count": 20, "j": j})
        out = tmp_path / f"o{i}"
        assert cli.main(["linear-decay", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 64, j
        err = capsys.readouterr().err
        assert all(w in err for w in words) and err.count("\n") == 1, err
        assert not out.exists()


def test_linear_decay_impossible_tolerance(tmp_path, decay_out):
    cfg = write_cfg(tmp_path, "decay.cfg", {
        "t.min": 1.0, "t.max": 1.0e4, "t.count": 60,
        "window.lo": 1.0e2, "j": "0"})
    rc = cli.main(["linear-decay", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--tolerance", "slope=1e-9", "--quiet"])
    assert rc == 2


def test_linear_decay_without_a_curve_is_a_usage_error(tmp_path, capsys):
    # fstar has no component curves, so an empty j leaves nothing to fit
    cfg = write_cfg(tmp_path, "decay.cfg", {"profile": "fstar", "t.count": 40, "j": ""})
    out = tmp_path / "o"
    assert cli.main(["linear-decay", "--config", cfg, "--out", str(out), "--quiet"]) == 64
    assert "at least one" in capsys.readouterr().err
    assert not (out / "decay_fits.json").exists()


# ---------------------------------------------------------------------------
# nonlinear-run


RUN_CFG = {
    "n1": 32, "n2": 32, "l1": 6.283185307179586, "l2": 6.283185307179586,
    "dt": 0.05, "t_end": 0.5, "output.every": 0.1,
    "data.kind": "random", "data.delta": 0.01, "m": 4,
}


@pytest.mark.parametrize("box", ({"l1": 1e-40, "l2": 1e-40}, {"l1": 1e-300},
                                 {"l1": 1e160, "l2": 1e160}), ids=("tiny", "thin", "huge"))
def test_nonlinear_run_box_out_of_range_is_a_usage_error(tmp_path, box):
    # the order-m record weights or 1/|xi|^2 would overflow: refused with the
    # config, before numpy warns or a state check reports non-finite data
    cfg = write_cfg(tmp_path, "run.cfg", {**RUN_CFG, "n1": 16, "n2": 16, **box})
    proc = subprocess.run([sys.executable, "-m", "mhd2d", "nonlinear-run", "--config", cfg,
                           "--out", str(tmp_path / "out"), "--quiet"],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 64
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: box l1 x l2"), proc.stderr
    assert "m = 4" in lines[0]


def test_nonlinear_run_artifacts(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, "run.cfg", RUN_CFG)
    out = tmp_path / "out"
    # the config checks its grid's sizes without building one, so a run
    # builds the one grid it steps on
    built = []
    post_init = SpectralGrid.__post_init__
    monkeypatch.setattr(SpectralGrid, "__post_init__",
                        lambda self: (built.append(self.shape), post_init(self)))
    assert cli.main(["nonlinear-run", "--config", cfg, "--out", str(out),
                     "--seed", "7"]) == 0
    assert built == [(32, 32)]
    said = capsys.readouterr().out
    assert "run complete" in said

    text = (out / "diagnostics.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 6  # samples at t = 0, 0.1, ..., 0.5
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.01, rel=1e-12)  # E(0) = delta

    init = load_state(str(out / "initial.bin"))
    fin = load_state(str(out / "final.bin"))
    assert init.time == 0.0
    assert fin.time == pytest.approx(0.5, abs=1e-12)
    assert fin.grid.shape == (32, 32)

    cum = json.loads((out / "cumulative.json").read_text())
    assert cum["T"] == pytest.approx(0.5)
    assert cum["E0"] == pytest.approx(0.01, rel=1e-12)
    assert cum["small_data_bound_holds"] is True
    assert cum["G_sq"] <= cum["four_E0_sq"]


def test_nonlinear_run_byte_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "run.cfg", RUN_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["nonlinear-run", "--config", cfg, "--out", str(out),
                         "--seed", "3", "--quiet"]) == 0
        outs.append(out)
    for artifact in ("diagnostics.csv", "final.bin", "cumulative.json"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_nonlinear_run_blowup_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "blow.cfg", dict(
        RUN_CFG, dt=0.5, t_end=10.0, **{"data.delta": 1e4, "output.every": 0.5}))
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        rc = cli.main(["nonlinear-run", "--config", cfg, "--out", str(out)])
    assert rc == 4
    assert "blow-up" in capsys.readouterr().err
    # the partial history up to the last valid sample is still written
    lines = (out / "diagnostics.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) >= 2


def test_blowup_stderr_holds_no_numpy_warning(tmp_path):
    # the finiteness check after each step reports a blow-up; the step's own
    # overflow and invalid-value warnings, which carry the absolute path of
    # solver.py, stay out of stderr. The advective-bound warning stays.
    cfg = write_cfg(tmp_path, "blow.cfg", dict(
        RUN_CFG, dt=0.5, t_end=10.0, **{"data.delta": 1e6, "output.every": 0.5}))
    proc = subprocess.run([sys.executable, "-m", "mhd2d", "nonlinear-run", "--config", cfg,
                           "--out", str(tmp_path / "out"), "--quiet"],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 4
    warned = [line for line in proc.stderr.splitlines() if "RuntimeWarning" in line]
    assert len(warned) == 1 and "advective bound" in warned[0], proc.stderr
    assert "encountered" not in proc.stderr
    assert proc.stderr.rstrip().splitlines()[-1].startswith("blow-up: ")


def test_nonlinear_run_integrity_failure_keeps_history(tmp_path, capsys, monkeypatch):
    k = 3
    _fail_after_samples(monkeypatch, k)
    cfg = write_cfg(tmp_path, "run.cfg", RUN_CFG)
    out = tmp_path / "out"
    assert cli.main(["nonlinear-run", "--config", cfg, "--out", str(out)]) == 3
    assert "integrity failure" in capsys.readouterr().err
    lines = (out / "diagnostics.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + k


def test_nonlinear_run_band_check_failure_keeps_history(tmp_path, capsys, monkeypatch):
    # a band stack that goes bad between samples is an integrity failure
    # (exit 3) with the history sampled before it, not a usage error
    k = 3
    real = solver._Stepper.advance
    steps = []

    def advance(self, w):
        out = real(self, w)
        steps.append(1)
        if len(steps) == k:
            out[0, 1, 0] += np.max(np.abs(out))  # unmirrored k2 = 0 entry
        return out

    monkeypatch.setattr(solver._Stepper, "advance", advance)
    cfg = write_cfg(tmp_path, "run.cfg", dict(RUN_CFG, **{"output.every": 0.05}))
    out = tmp_path / "out"
    assert cli.main(["nonlinear-run", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "integrity failure" in err and "Hermitian" in err
    lines = (out / "diagnostics.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + k


def test_failed_nonlinear_run_leaves_the_initial_snapshot(tmp_path, capsys, monkeypatch):
    # initial.bin is written as the run takes its t = 0 sample: a run that
    # blows up (exit 4) or fails an invariant (exit 3) leaves it, byte for
    # byte what a successful run from the same data writes, and no final.bin
    blow = dict(RUN_CFG, dt=0.5, t_end=10.0, **{"data.delta": 1e4, "output.every": 0.5})
    short = dict(blow, t_end=1.0)

    def run(name, keys):
        cfg = write_cfg(tmp_path, name + ".cfg", keys)
        with pytest.warns(RuntimeWarning):
            return cli.main(["nonlinear-run", "--config", cfg, "--out",
                             str(tmp_path / name), "--quiet"])

    assert run("ok", short) == 0
    assert run("blow", blow) == 4
    _fail_after_samples(monkeypatch, 1)
    assert run("fail", short) == 3
    capsys.readouterr()
    want = (tmp_path / "ok" / "initial.bin").read_bytes()
    for name in ("blow", "fail"):
        out = tmp_path / name
        assert (out / "initial.bin").read_bytes() == want, name
        assert load_state(str(out / "initial.bin")).time == 0.0
        assert not (out / "final.bin").exists(), name
        assert (out / "diagnostics.csv").exists(), name


def test_nonlinear_run_holds_no_state_through_the_steps(tmp_path, monkeypatch):
    # the initial state is released before the stepper is built, the t = 0
    # state is written from the first stack and not kept, and the final
    # state is built once the run has returned and released its stepper
    refs, seen = {}, {"state": [], "stepper": [], "built": []}
    real_initial, real_init = solver.initial_state, solver._Stepper.__init__
    real_advance, real_build = solver._Stepper.advance, solver.SpectralState

    def initial(cfg, grid=None):
        st = real_initial(cfg, grid)
        refs["state"] = weakref.ref(st)
        return st

    def init(self, grid, cfg):
        seen["built"].append(refs["state"]() is not None)
        real_init(self, grid, cfg)
        refs["stepper"] = weakref.ref(self)

    def advance(self, w):
        seen["state"].append(refs["state"]() is not None)
        return real_advance(self, w)

    def build(grid, w, time=0.0):
        seen["stepper"].append(refs["stepper"]() is not None)
        return real_build(grid, w, time)

    monkeypatch.setattr(solver, "initial_state", initial)
    monkeypatch.setattr(solver._Stepper, "__init__", init)
    monkeypatch.setattr(solver._Stepper, "advance", advance)
    monkeypatch.setattr(solver, "SpectralState", build)
    cfg = write_cfg(tmp_path, "run.cfg", RUN_CFG)
    out = tmp_path / "out"
    assert cli.main(["nonlinear-run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert seen["built"] == [False]
    assert seen["state"] == [False] * 10
    assert seen["stepper"] == [True, False]  # initial.bin's state, then final.bin's
    assert load_state(str(out / "initial.bin")).time == 0.0
    assert load_state(str(out / "final.bin")).time == pytest.approx(0.5)


def _fail_after_samples(monkeypatch, k):
    """Make run sample k + 1 raise, as a failed diagnostic invariant would."""
    monkeypatch.setattr(solver, "instantaneous", failing_instantaneous(k))


def test_audit_energy_integrity_failure_keeps_history(tmp_path, capsys, monkeypatch):
    k = 4
    _fail_after_samples(monkeypatch, k)
    cfg = write_cfg(tmp_path, "audit.cfg", dict(RUN_CFG, dt=0.025, **{
        "output.every": 0.025}))
    out = tmp_path / "out"
    assert cli.main(["audit-energy", "--config", cfg, "--out", str(out)]) == 3
    assert "integrity failure" in capsys.readouterr().err
    lines = (out / "diagnostics.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + k
    assert not (out / "energy_audit.json").exists()


def test_audit_energy_builds_no_state_past_zero(tmp_path, monkeypatch):
    # past the initial data, audit-energy builds none, as it reads records
    # only; nonlinear-run builds two, one for initial.bin at t = 0 and the
    # final state once the run has returned
    real, built = solver.SpectralState, []

    def counting(grid, w, time=0.0):
        built.append(time)
        return real(grid, w, time)

    monkeypatch.setattr(solver, "SpectralState", counting)
    box = repr(32.0 * np.pi)  # prop25's support needs a 32 pi box at 32^2
    cfg = write_cfg(tmp_path, "run.cfg",
                    dict(RUN_CFG, l1=box, l2=box, **{"data.kind": "prop25"}))
    for cmd, want in (("audit-energy", [0.0]), ("nonlinear-run", [0.0, 0.0, 0.5])):
        built.clear()
        argv = [cmd, "--config", cfg, "--out", str(tmp_path / cmd), "--quiet"]
        assert cli.main(argv) == 0, cmd
        assert built == pytest.approx(want), cmd


def test_audit_energy_keeps_no_stack(tmp_path, monkeypatch):
    # audit-energy reads records only, so its trajectory keeps no band stack:
    # the t = 0 one is freed once the first step has returned
    real, first, freed = solver._Stepper.advance, [], []

    def advance(self, w):
        if first:
            freed.append(first[0]() is None)
        else:
            first.append(weakref.ref(w))
        return real(self, w)

    monkeypatch.setattr(solver._Stepper, "advance", advance)
    cfg = write_cfg(tmp_path, "audit.cfg", RUN_CFG)
    argv = ["audit-energy", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]
    assert cli.main(argv) == 0
    assert freed == [True] * 9


def test_audit_energy_final_band_check_failure_keeps_history(tmp_path, capsys, monkeypatch):
    # with no final state built, the last sample's band check still runs:
    # exit 3 with the history sampled before it
    real, steps = solver._Stepper.advance, []

    def advance(self, w):
        out = real(self, w)
        steps.append(1)
        if len(steps) == self.cfg.n_steps:
            out[0, 1, 0] += np.max(np.abs(out))  # unmirrored k2 = 0 entry
        return out

    monkeypatch.setattr(solver._Stepper, "advance", advance)
    cfg = write_cfg(tmp_path, "audit.cfg", dict(RUN_CFG, **{"output.every": 0.05}))
    out = tmp_path / "out"
    assert cli.main(["audit-energy", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "integrity failure" in err and "t = 0.5" in err and "Hermitian" in err
    lines = (out / "diagnostics.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 10
    assert not (out / "energy_audit.json").exists()


def test_audit_energy_blowup_keeps_history(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "blow.cfg", dict(
        RUN_CFG, dt=0.5, t_end=10.0, **{"data.delta": 1e4, "output.every": 0.5}))
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        rc = cli.main(["audit-energy", "--config", cfg, "--out", str(out)])
    assert rc == 4
    assert "blow-up" in capsys.readouterr().err
    lines = (out / "diagnostics.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) >= 2


def _only_file(directory):
    names = os.listdir(directory)
    assert len(names) == 1, names
    return directory / names[0]


def test_artifact_writes_are_atomic(tmp_path):
    # a write that raises midway leaves the earlier file and no temporary
    def rows():
        yield ["1", "2"]
        raise RuntimeError("interrupted")

    csv_dir = tmp_path / "csv"
    csv_dir.mkdir()
    path = csv_dir / "curve.csv"
    cli._write_csv(path, ("t", "value"), [["0", "1"]])
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        cli._write_csv(path, ("t", "value"), rows())
    assert _only_file(csv_dir) == path and path.read_bytes() == before

    json_dir = tmp_path / "json"
    json_dir.mkdir()
    path = json_dir / "fit.json"
    cli._write_json(path, {"slope": 1.0})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        cli._write_json(path, {"a": 1.0, "z": object()})  # not serializable, after "a"
    assert _only_file(json_dir) == path and path.read_bytes() == before

    class Unreadable:
        def __array__(self, *args, **kwargs):
            raise RuntimeError("interrupted")

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    path = bin_dir / "final.bin"
    st = random_div_free_state(SpectralGrid(8, 8, 2.0 * np.pi, 2.0 * np.pi), seed=1)
    save_state(st, path)
    before = path.read_bytes()
    broken = SimpleNamespace(grid=st.grid, time=1.0, w=Unreadable())
    with pytest.raises(RuntimeError):
        save_state(broken, path)  # fails after the header is written
    assert _only_file(bin_dir) == path and path.read_bytes() == before
    assert np.array_equal(load_state(path).u, st.u)


def test_atomic_open_makes_the_parent_and_keeps_the_old_file(tmp_path):
    """A missing parent is made, nested or not; a body that raises leaves
    the earlier bytes and no temporary, while the parent it made stays."""
    path = tmp_path / "a" / "b" / "curve.csv"
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("t,value\n")
    assert path.read_bytes() == b"t,value\n"
    with pytest.raises(RuntimeError):
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert _only_file(path.parent) == path and path.read_bytes() == b"t,value\n"

    made = tmp_path / "made"
    with pytest.raises(RuntimeError):
        with atomic_open(made / "fit.json", "w", encoding="utf-8"):
            raise RuntimeError("interrupted")
    assert made.is_dir() and not os.listdir(made)

    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    for target in (taken / "fit.json", taken / "below" / "fit.json"):
        with pytest.raises(OSError, match="cannot make output directory") as info:
            with atomic_open(target, "w", encoding="utf-8"):
                pass
        assert repr(str(target.parent)) in str(info.value)
    assert taken.read_text(encoding="utf-8") == ""


# ---------------------------------------------------------------------------
# audits


def test_audit_energy_exit_and_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, "audit.cfg", dict(RUN_CFG, dt=0.025, **{
        "output.every": 0.025}))
    out = tmp_path / "out"
    assert cli.main(["audit-energy", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    report = json.loads((out / "energy_audit.json").read_text())
    assert report["within_caps"] is True
    assert np.isfinite(report["implied_C"]) and report["implied_C"] >= 0.0
    assert report["samples"] == 21
    lines = (out / "energy_audit.csv").read_text().strip().split("\n")
    assert lines[0] == "t,lhs,rhs"
    assert len(lines) == 22


def test_audit_energy_too_coarse_a_cadence_writes_nothing(tmp_path, capsys):
    # 3 samples, where the derivative audit needs 5: the gate fails, and as
    # the run writes no file before the audit, no directory is made
    cfg = write_cfg(tmp_path, "audit.cfg", dict(RUN_CFG, dt=0.02, t_end=0.08, **{
        "output.every": 0.04}))
    out = tmp_path / "out"
    assert cli.main(["audit-energy", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("audit cadence too coarse")
    assert not out.exists()


def test_audit_lemma_deterministic_and_capped(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "lemma.cfg", {
        "xi1.count": 40, "t.count": 12, "samples": 6})
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["audit-lemma", "--config", cfg, "--out", str(out),
                         "--seed", "11"]) == 0
        outs.append(out)
    assert (outs[0] / "lemma_rows.csv").read_bytes() == \
        (outs[1] / "lemma_rows.csv").read_bytes()
    report = json.loads((outs[0] / "lemma_audit.json").read_text())
    assert report["all_below_cap"] is True
    assert set(report["summary"]) == {"omg1", "omg2", "omg3", "omg4"}
    for s in report["summary"].values():
        assert 0.0 < s["max_ratio"] <= 1e3
    said = capsys.readouterr().out
    assert "omg1" in said and "max ratio" in said


def test_audit_lemma_tight_cap_fails(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "lemma.cfg", {
        "xi1.count": 40, "t.count": 12, "samples": 6})
    rc = cli.main(["audit-lemma", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--tolerance", "ratio=1e-6", "--quiet"])
    assert rc == 2
    assert "cap" in capsys.readouterr().err


def test_audit_embedding(tmp_path):
    cfg = write_cfg(tmp_path, "embed.cfg", {
        "n1": 32, "n2": 32, "widths": "1, 2", "modes": "4", "m": 4})
    out = tmp_path / "out"
    assert cli.main(["audit-embedding", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    report = json.loads((out / "embedding_audit.json").read_text())
    assert report["below_cap"] is True
    assert set(report["ratios"]) == {"gaussian_w1", "gaussian_w2",
                                     "mode_k4_v", "mode_k4_B"}
    assert report["max_ratio"] == pytest.approx(max(report["ratios"].values()))


def test_audit_embedding_repeated_profile_is_a_usage_error(tmp_path, capsys):
    # each profile labels its own ratio: a repeated width or mode would drop
    # ratios from the report, so it is refused before the scan
    for i, keys in enumerate(({"widths": "1.0, 1.0", "modes": "4, 4"},
                              {"widths": "1, 2", "modes": "4, 4"},
                              {"widths": "1, 1.0000001", "modes": "4"})):
        cfg = write_cfg(tmp_path, f"embed{i}.cfg", dict(n1=32, n2=32, **keys))
        out = tmp_path / f"o{i}"
        assert cli.main(["audit-embedding", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 64, keys
        assert "must not repeat" in capsys.readouterr().err
        assert not (out / "embedding_audit.json").exists()


def test_audit_embedding_non_positive_width_is_a_usage_error(tmp_path, capsys):
    # the envelope uses w^2, so a width of -1 would repeat 1 under another
    # label, and 0 would label the flat band profile a Gaussian
    for i, widths in enumerate(("1, -1", "0", "-2")):
        cfg = write_cfg(tmp_path, f"embed{i}.cfg", {"n1": 32, "n2": 32, "widths": widths})
        out = tmp_path / f"o{i}"
        assert cli.main(["audit-embedding", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 64, widths
        assert "widths must be positive" in capsys.readouterr().err
        assert not (out / "embedding_audit.json").exists()


def test_audit_embedding_mode_off_the_grid_is_a_usage_error(tmp_path, capsys):
    # k = 8 is the Nyquist mode of a 16-point axis
    cfg = write_cfg(tmp_path, "embed.cfg", {"n1": 16, "n2": 16, "modes": "8"})
    assert cli.main(["audit-embedding", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 64
    assert "single mode" in capsys.readouterr().err


def test_out_that_cannot_be_a_directory_is_a_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    cfg = write_cfg(tmp_path, "embed.cfg", {"n1": 16, "n2": 16, "modes": "2"})
    for out in (taken, taken / "below"):
        assert cli.main(["audit-embedding", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 64, out
        assert "cannot make output directory" in capsys.readouterr().err, out
    assert taken.read_text(encoding="utf-8") == ""


def test_output_file_that_cannot_be_written_is_a_usage_error(tmp_path, capsys):
    # a directory where the command's one output file goes: the move onto it
    # fails, and the command says which path in one line, with no traceback
    out = tmp_path / "out"
    (out / "embedding_audit.json").mkdir(parents=True)
    cfg = write_cfg(tmp_path, "embed.cfg", {"n1": 16, "n2": 16, "modes": "2"})
    assert cli.main(["audit-embedding", "--config", cfg, "--out", str(out), "--quiet"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(out / "embedding_audit.json") in err, err
    assert [p.name for p in out.iterdir()] == ["embedding_audit.json"]


# ---------------------------------------------------------------------------
# fit


def test_fit_roundtrip(tmp_path):
    times = np.geomspace(1.0, 1e4, 80)
    curve = tmp_path / "curve.csv"
    rows = ["t,value"] + [f"{t:.17g},{(1.0 + t) ** -0.75:.17g}" for t in times]
    curve.write_text("\n".join(rows) + "\n", encoding="utf-8")

    good = write_cfg(tmp_path, "fit.cfg", {
        "input": str(curve), "window.lo": 1e2, "expected": -0.75})
    out = tmp_path / "out"
    assert cli.main(["fit", "--config", good, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "fit.json").read_text())
    assert report["within_tolerance"] is True
    assert report["slope"] == pytest.approx(-0.75, abs=1e-10)

    wrong = write_cfg(tmp_path, "fit2.cfg", {
        "input": str(curve), "window.lo": 1e2, "expected": -2.0})
    assert cli.main(["fit", "--config", wrong, "--out", str(out), "--quiet"]) == 2

    # a curve that starts with a UTF-8 byte-order mark fits as the same curve
    # without it: its header is still recognised
    bom = tmp_path / "bom.csv"
    bom.write_text(curve.read_text(encoding="utf-8"), encoding="utf-8-sig")
    cfg = write_cfg(tmp_path, "fit3.cfg", {"input": str(bom), "window.lo": 1e2})
    assert cli.main(["fit", "--config", cfg, "--out", str(tmp_path / "bom"), "--quiet"]) == 0
    again = json.loads((tmp_path / "bom" / "fit.json").read_text())
    assert again["slope"] == report["slope"] and again["window"] == report["window"]


def test_fit_input_errors(tmp_path, capsys):
    empty = write_cfg(tmp_path, "fit.cfg", {})
    assert cli.main(["fit", "--config", empty, "--quiet"]) == 64
    missing = write_cfg(tmp_path, "fit2.cfg", {"input": str(tmp_path / "nope.csv")})
    assert cli.main(["fit", "--config", missing, "--quiet"]) == 64
    garbage = tmp_path / "garbage.csv"
    garbage.write_text("t,value\n1.0\n", encoding="utf-8")
    bad = write_cfg(tmp_path, "fit3.cfg", {"input": str(garbage)})
    assert cli.main(["fit", "--config", bad, "--quiet"]) == 64
    capsys.readouterr()
    # a curve that is not UTF-8, or a non-finite expected slope (which JSON
    # cannot hold), is refused with one line and writes no fit.json
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"t,value\n1.0,\xff\n")
    good = tmp_path / "good.csv"
    good.write_text("t,value\n" + "".join(f"{t},{1.0 / (1.0 + t)}\n" for t in range(1, 40)),
                    encoding="utf-8")
    for i, (keys, needle) in enumerate((({"input": str(latin)}, "latin.csv"),
                                        ({"input": str(good), "expected": "nan"}, "nan"),
                                        ({"input": str(good), "expected": "inf"}, "inf"),
                                        ({"input": str(good), "expected": "-inf"}, "-inf"))):
        cfg = write_cfg(tmp_path, f"refused{i}.cfg", keys)
        out = tmp_path / f"refused{i}"
        assert cli.main(["fit", "--config", cfg, "--out", str(out), "--quiet"]) == 64, i
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and needle in err, err
        assert not (out / "fit.json").exists()
    # a non-finite value or time anywhere in the curve, the last time
    # included, is refused before the fit and writes no fit.json
    times = [f"{t:.17g}" for t in np.geomspace(1.0, 1e4, 40)]
    for i, (row, col, token) in enumerate(((5, 1, "nan"), (5, 1, "inf"), (5, 0, "nan"),
                                           (-1, 0, "inf"))):
        rows = [[t, f"{(1.0 + float(t)) ** -0.75:.17g}"] for t in times]
        rows[row][col] = token
        curve = tmp_path / f"curve{i}.csv"
        curve.write_text("t,value\n" + "".join(f"{t},{v}\n" for t, v in rows), encoding="utf-8")
        cfg = write_cfg(tmp_path, f"nonfinite{i}.cfg", {"input": str(curve)})
        out = tmp_path / f"nonfinite{i}"
        assert cli.main(["fit", "--config", cfg, "--out", str(out), "--quiet"]) == 64, i
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "fit.json").exists()
    # log(1 + t) is undefined at t <= -1: a domain error, not a traceback
    rows = [f"{t:.17g},{np.exp(-0.1 * t):.17g}" for t in np.linspace(-3.0, 40.0, 40)]
    curve = tmp_path / "negative.csv"
    curve.write_text("t,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
    cfg = write_cfg(tmp_path, "negative.cfg", {"input": str(curve)})
    out = tmp_path / "negative"
    assert cli.main(["fit", "--config", cfg, "--out", str(out), "--quiet"]) == 64
    assert "t > -1" in capsys.readouterr().err
    assert not (out / "fit.json").exists()


def test_quiet_suppresses_stdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "embed.cfg", {
        "n1": 32, "n2": 32, "widths": "1", "modes": "4", "m": 4})
    assert cli.main(["audit-embedding", "--config", cfg,
                     "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
