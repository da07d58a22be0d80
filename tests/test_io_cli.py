"""Config parsing, command-line workflows, artifacts, and exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mhd2d import cli, solver
from mhd2d.config import parse_config, typed_config
from mhd2d.diagnostics import CSV_COLUMNS
from mhd2d.errors import ConfigError, DiagnosticIntegrityError
from mhd2d.spectral import load_state


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


# ---------------------------------------------------------------------------
# usage errors


def test_cli_usage_errors(tmp_path, capsys):
    assert cli.main([]) == 64
    assert cli.main(["no-such-command"]) == 64
    assert cli.main(["fit", "--bogus-flag"]) == 64
    assert cli.main(["nonlinear-run", "--config", str(tmp_path / "missing.cfg")]) == 64
    bad = write_cfg(tmp_path, "bad.cfg", {"profile": "fstar"})
    assert cli.main(["nonlinear-run", "--config", bad]) == 64
    assert cli.main(["audit-lemma", "--tolerance", "ratio"]) == 64
    capsys.readouterr()


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


def test_nonlinear_run_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "run.cfg", RUN_CFG)
    out = tmp_path / "out"
    assert cli.main(["nonlinear-run", "--config", cfg, "--out", str(out),
                     "--seed", "7"]) == 0
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
    real = solver.instantaneous
    samples = []

    def failing(state, m, **kw):
        # run() samples pass energy_residual; initial_state's normalization does not
        if "energy_residual" in kw:
            samples.append(state.time)
            if len(samples) > k:
                raise DiagnosticIntegrityError("injected invariant failure")
        return real(state, m, **kw)

    monkeypatch.setattr(solver, "instantaneous", failing)
    cfg = write_cfg(tmp_path, "run.cfg", RUN_CFG)
    out = tmp_path / "out"
    assert cli.main(["nonlinear-run", "--config", cfg, "--out", str(out)]) == 3
    assert "integrity failure" in capsys.readouterr().err
    lines = (out / "diagnostics.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + k


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


def test_quiet_suppresses_stdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "embed.cfg", {
        "n1": 32, "n2": 32, "widths": "1", "modes": "4", "m": 4})
    assert cli.main(["audit-embedding", "--config", cfg,
                     "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
