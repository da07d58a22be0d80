"""Golden digests of the command-line outputs on small fixed configs.

Eight cases run ``cli.main`` in-process, each into its own directory under
one root that is the working directory while they run, so every path a
command records is relative: gate 9's seeded ``nonlinear-run``, a 64^2
IFRK4 alpha = 0.5 ``audit-energy``, ``linear-decay`` and ``audit-lemma`` at
their defaults, a 64^2 ``audit-embedding``, a ``fit`` of the written
``linear-decay/decay_v1.csv``, a run that blows up (exit 4) and a run whose
fourth sample fails an injected invariant (exit 3), the last two with their
partial ``diagnostics.csv`` and ``initial.bin``. Each case's exit code,
stdout (not stderr, which carries source paths) and files are compared
with ``golden_digests.json``:

* always, the exit code, the file names, and each output's text with its
  numbers taken out exactly, and its numbers within 1e-12 relative: a
  JSON's and stdout's one by one, a CSV column's and a snapshot payload's
  through exactly rounded (``math.fsum``) sums of |x|, x and two fixed
  positive weightings of x;
* where numpy, python and ``platform.machine()`` are those the digests
  were made with, the sha256 of stdout and of every file, byte for byte.

Fields that measure roundoff themselves, such as ``e_residual`` and
``cancel_residual``, can move past 1e-12 on a platform that rounds
differently; there the test fails until the digests are regenerated on it.

A change that moves outputs on purpose regenerates the digests with

    PYTHONPATH=src python tests/test_golden.py

and the diff of ``golden_digests.json`` lists the files that moved.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import struct
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mhd2d import cli, solver
from reference import failing_instantaneous

DIGESTS = Path(__file__).with_name("golden_digests.json")
RTOL = 1e-12

TWO_PI = repr(2.0 * math.pi)
BOX = repr(32.0 * math.pi)
SMALL_RUN = {"n1": 32, "n2": 32, "l1": TWO_PI, "l2": TWO_PI, "dt": 0.05, "t_end": 0.5,
             "output.every": 0.1, "data.kind": "random", "data.delta": 0.01, "m": 4}

# name: (command, extra arguments, config keys or None, samples before an
# injected invariant failure or None); ``fit`` reads a curve ``linear-decay``
# wrote, so the order matters
CASES = {
    "nonlinear-run": ("nonlinear-run", ["--seed", "5"], {
        "n1": 64, "n2": 64, "l1": TWO_PI, "l2": TWO_PI, "dt": 0.04, "t_end": 2.0,
        "output.every": 0.2, "data.kind": "random", "data.delta": 0.01}, None),
    "audit-energy": ("audit-energy", [], {
        "n1": 64, "n2": 64, "l1": BOX, "l2": BOX, "dt": 0.04, "t_end": 0.4,
        "output.every": 0.04, "scheme": "ifrk4", "alpha": 0.5, "m": 4, "seed": 3,
        "data.kind": "random", "data.delta": 0.01}, None),
    "linear-decay": ("linear-decay", [], None, None),
    "audit-lemma": ("audit-lemma", [], None, None),
    "audit-embedding": ("audit-embedding", [], {"n1": 64, "n2": 64}, None),
    "fit": ("fit", [], {"input": "linear-decay/decay_v1.csv", "window.lo": 100.0,
                        "expected": -0.75}, None),
    "blow-up": ("nonlinear-run", [], dict(SMALL_RUN, dt=0.5, t_end=10.0, **{
        "output.every": 0.5, "data.delta": 1e4}), None),
    "integrity-failure": ("nonlinear-run", [], SMALL_RUN, 3),
}


def platform_key() -> dict:
    return {"machine": platform.machine(), "numpy": np.__version__,
            "python": platform.python_version()}


@contextlib.contextmanager
def _inside(root):
    here = os.getcwd()
    os.chdir(root)
    try:
        yield
    finally:
        os.chdir(here)


def run_cases(root) -> dict:
    """Run every case under ``root``: name -> (exit code, stdout, {file: bytes})."""
    results = {}
    with _inside(root):
        for name, (command, extra, keys, fail_after) in CASES.items():
            argv = [command, "--out", name] + extra
            if keys is not None:
                Path(name + ".cfg").write_text(
                    "".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
                argv += ["--config", name + ".cfg"]
            out = io.StringIO()
            with contextlib.ExitStack() as stack:
                stack.enter_context(contextlib.redirect_stdout(out))
                stack.enter_context(warnings.catch_warnings())
                warnings.simplefilter("ignore")
                stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
                if fail_after is not None:
                    stack.enter_context(mock.patch.object(
                        solver, "instantaneous", failing_instantaneous(fail_after)))
                rc = cli.main(argv)
            files = {p.name: p.read_bytes() for p in sorted(Path(name).iterdir())}
            results[name] = (rc, out.getvalue(), files)
    return results


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _number(text):
    """The finite float a token spells, else None."""
    try:
        x = float(text)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def _numbers(values):
    """One number as it is; more as [n, sum |x|, sum x, and two positive
    weightings of x], each exactly rounded, so they depend on the values alone."""
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 1:
        return float(x[0])
    i = np.arange(x.size, dtype=float)
    w1 = 1.0 + np.mod(i * 0.6180339887498949, 1.0)
    w2 = 1.0 + np.mod(i * 0.41421356237309503, 1.0)
    return [int(x.size), math.fsum(np.abs(x)), math.fsum(x), math.fsum(w1 * x),
            math.fsum(w2 * x)]


def _parse(name, data):
    """(the output with its numbers taken out, {series: numbers}) of one file."""
    if name.endswith(".bin"):
        head = 4 + struct.calcsize("<I5d")
        skeleton = data[:4].decode("latin-1") + f" v{struct.unpack_from('<I', data, 4)[0]}"
        return skeleton, {"header": struct.unpack_from("<5d", data, 8),
                          "payload": np.frombuffer(data[head:], dtype="<f8")}
    text = data.decode("utf-8")
    if name.endswith(".json"):
        series = {}

        def walk(node, path):
            if isinstance(node, dict):
                return {k: walk(v, f"{path}/{k}") for k, v in node.items()}
            if isinstance(node, list):
                return [walk(v, f"{path}/{i}") for i, v in enumerate(node)]
            if isinstance(node, (int, float)) and not isinstance(node, bool) \
                    and math.isfinite(node):
                series[path] = [node]
                return "#"
            return node

        return json.dumps(walk(json.loads(text), ""), sort_keys=True), series
    if name.endswith(".csv"):
        rows = [line.split(",") for line in text.split("\n")]
        header, body = rows[0], [r for r in rows[1:] if r != [""]]
        series, cells = {}, []
        for j, col in enumerate(header):
            column = [r[j] for r in body]
            series[col] = [x for x in map(_number, column) if x is not None]
            cells.append(["#" if _number(c) is not None else c for c in column])
        return json.dumps([header, cells, text.endswith("\n")]), series
    numbers = [x for x in map(_number, _NUMBER.findall(text)) if x is not None]
    return _NUMBER.sub("#", text), {f"#{i}": [x] for i, x in enumerate(numbers)}


def digest(name, data) -> dict:
    skeleton, series = _parse(name, data)
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "text": hashlib.sha256(skeleton.encode("utf-8")).hexdigest(),
            "numbers": {key: _numbers(v) for key, v in series.items()}}


def digests(results) -> dict:
    return {name: {"exit": rc, "stdout": digest("stdout", out.encode("utf-8")),
                   "files": {f: digest(f, data) for f, data in files.items()}}
            for name, (rc, out, files) in results.items()}


def numbers_differ(got, want) -> bool:
    """Whether two ``_numbers`` differ by more than values within RTOL
    relative of each other can make them: weights are below 2."""
    if not isinstance(want, list):
        return isinstance(got, list) or abs(got - want) > RTOL * abs(want)
    if not isinstance(got, list) or got[0] != want[0]:
        return True
    bound = RTOL * 2.0 * want[1] + 1e-300
    return abs(got[1] - want[1]) > RTOL * want[1] or any(
        abs(a - b) > bound for a, b in zip(got[2:], want[2:]))


def differences(got, want, same_platform) -> list:
    """Every way the digests ``got`` differ from ``want``, as readable lines."""
    found = []
    for case in sorted(set(got) | set(want)):
        if case not in got or case not in want:
            found.append(f"{case}: case only in {'want' if case in want else 'got'}")
            continue
        g, w = got[case], want[case]
        if g["exit"] != w["exit"]:
            found.append(f"{case}: exit {g['exit']} != {w['exit']}")
        outputs = [("stdout", g["stdout"], w["stdout"])]
        if set(g["files"]) != set(w["files"]):
            found.append(f"{case}: files {sorted(g['files'])} != {sorted(w['files'])}")
        outputs += [(f, g["files"][f], w["files"][f]) for f in sorted(w["files"])
                    if f in g["files"]]
        for name, a, b in outputs:
            if same_platform and a["sha256"] != b["sha256"]:
                found.append(f"{case}/{name}: bytes differ")
            if a["text"] != b["text"]:
                found.append(f"{case}/{name}: text outside the numbers differs")
            if set(a["numbers"]) != set(b["numbers"]):
                found.append(f"{case}/{name}: numbers {sorted(a['numbers'])} != "
                             f"{sorted(b['numbers'])}")
            for key in sorted(set(a["numbers"]) & set(b["numbers"])):
                if numbers_differ(a["numbers"][key], b["numbers"][key]):
                    found.append(f"{case}/{name}: {key} moved beyond {RTOL:g} relative")
    return found


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_the_golden_digests(results, case):
    want = load_digests()
    got = digests({case: results[case]})
    same = want["platform"] == platform_key()
    assert differences(got, {case: want["cases"][case]}, same) == []


def test_digests_cover_every_case():
    assert list(load_digests()["cases"]) == list(CASES)


def _json_moved(data, key, factor):
    payload = json.loads(data)
    payload[key] *= factor
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _csv_moved(data, row, col, factor):
    rows = [line.split(",") for line in data.decode("utf-8").split("\n")]
    rows[row][col] = format(float(rows[row][col]) * factor, ".17g")
    return "\n".join(",".join(r) for r in rows).encode("utf-8")


def _payload_moved(data, factor):
    head = 4 + struct.calcsize("<I5d")
    x = np.frombuffer(data[head:], dtype="<f8").copy()
    k = int(np.argmax(np.abs(x)))
    x[k] = x[k] * factor if factor != "ulp" else np.nextafter(x[k], np.inf)
    return data[:head] + x.tobytes()


def test_a_moved_output_fails_the_comparison(results):
    # values moved well past 1e-12 fail on every platform; one ulp of a
    # snapshot's largest coefficient fails on bytes, where they are compared
    rc, out, files = results["nonlinear-run"]
    want = digests({"nonlinear-run": results["nonlinear-run"]})
    assert differences(want, want, same_platform=True) == []
    for name, edit, across in (
            ("cumulative.json", lambda d: _json_moved(d, "G", 1.0 + 1e-10), True),
            ("diagnostics.csv", lambda d: _csv_moved(d, 5, 1, 1.0 + 1e-9), True),
            ("final.bin", lambda d: _payload_moved(d, 1.0 + 1e-6), True),
            ("final.bin", lambda d: _payload_moved(d, "ulp"), False)):
        got = digests({"nonlinear-run": (rc, out, dict(files, **{name: edit(files[name])}))})
        assert differences(got, want, same_platform=True) != [], name
        assert (differences(got, want, same_platform=False) != []) == across, name


def main():
    with tempfile.TemporaryDirectory() as root:
        cases = digests(run_cases(root))
    payload = {"platform": platform_key(),
               "regenerate": "PYTHONPATH=src python tests/test_golden.py",
               "cases": cases}
    text = json.dumps(payload, indent=1)
    # each list of numbers on one line
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  text)
    DIGESTS.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS.name}: {sum(len(c['files']) for c in cases.values())} files "
          f"in {len(cases)} cases", file=sys.stderr)


if __name__ == "__main__":
    main()
