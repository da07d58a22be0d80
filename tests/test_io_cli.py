"""Config parsing, command-line workflows, artifacts, and exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from mhd2d import cli, solver
from mhd2d.config import COMMAND_KEYS, parse_config, typed_config
from mhd2d.diagnostics import CSV_COLUMNS
from mhd2d.errors import ConfigError, DiagnosticIntegrityError
from mhd2d.spectral import (
    SpectralGrid,
    load_state,
    make_grid,
    random_div_free_state,
    save_state,
)


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
    for i, (cmd, mapping, flags) in enumerate(cases):
        path = write_cfg(tmp_path, f"case{i}.cfg", mapping)
        out = tmp_path / f"out{i}"
        argv = [cmd, "--config", path, "--out", str(out), "--quiet", *flags]
        assert cli.main(argv) == 64, (mapping, flags)
        assert capsys.readouterr().err.startswith("error:"), (mapping, flags)
        assert not list(out.glob("*.csv")), (mapping, flags)


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
                          capture_output=True, text=True)
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
    # weight writes, for a vector profile and for a repeated moment
    cfgs = {"prop25": {"t.min": 1.0, "t.max": 1.0e4, "t.count": 40, "j": "0,1,2"},
            "fstar": {"profile": "fstar", "t.count": 40, "j": "2,0,2"}}
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
        assert "decay_fits.json" in files and len(files) == (8 if name == "prop25" else 3)
        for f in files:
            assert (single / f).read_bytes() == (outs[name] / f).read_bytes(), (name, f)


def test_linear_decay_impossible_tolerance(tmp_path, decay_out):
    cfg = write_cfg(tmp_path, "decay.cfg", {
        "t.min": 1.0, "t.max": 1.0e4, "t.count": 60,
        "window.lo": 1.0e2, "j": "0"})
    rc = cli.main(["linear-decay", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--tolerance", "slope=1e-9", "--quiet"])
    assert rc == 2


# ---------------------------------------------------------------------------
# nonlinear-run


RUN_CFG = {
    "n1": 32, "n2": 32, "l1": 6.283185307179586, "l2": 6.283185307179586,
    "dt": 0.05, "t_end": 0.5, "output.every": 0.1,
    "data.kind": "random", "data.delta": 0.01, "m": 4,
}


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


def _fail_after_samples(monkeypatch, k):
    """Make run sample k + 1 raise, as a failed diagnostic invariant would."""
    real = solver.instantaneous
    samples = []

    def failing(grid, u, m, **kw):
        # run() samples pass energy_residual; initial_state's normalization does not
        if "energy_residual" in kw:
            samples.append(kw["time"])
            if len(samples) > k:
                raise DiagnosticIntegrityError("injected invariant failure")
        return real(grid, u, m, **kw)

    monkeypatch.setattr(solver, "instantaneous", failing)


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
    st = random_div_free_state(make_grid(8, 8, 2.0 * np.pi, 2.0 * np.pi), seed=1)
    save_state(st, path)
    before = path.read_bytes()
    broken = SimpleNamespace(grid=st.grid, time=1.0, u=Unreadable())
    with pytest.raises(RuntimeError):
        save_state(broken, path)  # fails after the header is written
    assert _only_file(bin_dir) == path and path.read_bytes() == before
    assert np.array_equal(load_state(path).u, st.u)


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
