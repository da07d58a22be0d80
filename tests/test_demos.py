"""Every script under demos/ runs to completion against the current API."""

import pathlib
import subprocess
import sys

import pytest

from reference import package_env

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # the package is found where this test imported it from; anything a demo
    # writes lands under tmp_path
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=package_env(TMPDIR=str(tmp_path)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
