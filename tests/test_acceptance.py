"""Acceptance gate: the nine headline checks, one PASS/FAIL line each.

Each test prints a single verdict line (visible with ``pytest -s`` or in
captured output) and then asserts it, so the suite doubles as a report:

    PASS 3 profile decay slopes: v1 -0.749 v2 -1.254 B1 -0.250 B2 -0.750

Run ``pytest tests/test_acceptance.py -s -v`` for the full report.
"""

import time

import numpy as np
import scipy.linalg

from mhd2d import cli
from mhd2d.diagnostics import fit_decay
from mhd2d.modes import mode_system, scan_lemma_bounds
from mhd2d.propagator import build_profile, linear_decay_curve, propagator_block
from mhd2d.solver import SolverConfig, Trajectory, run
from mhd2d.spectral import divergence_defect


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f": {detail}" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {num} {label}{tail}")
    assert ok, f"criterion {num} ({label}){tail}"


def test_1_eigensystem_reconstruction():
    rng = np.random.default_rng(0)
    pool = rng.uniform(-3.0, 3.0, 30_000)
    dist = np.min(np.abs(pool[:, None] - np.array([0.0, 0.5, -0.5])), axis=1)
    xi = pool[dist >= 1e-3][:10_000]
    assert len(xi) == 10_000
    us = rng.normal(size=(10_000, 4)) + 1j * rng.normal(size=(10_000, 4))

    t0 = time.perf_counter()
    worst = 0.0
    for x, u in zip(xi, us):
        ms = mode_system(float(x))
        err = np.linalg.norm(ms.reconstruct(u) - u) / np.linalg.norm(u)
        if err > worst:
            worst = err
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-10 and elapsed < 1.0
    _verdict(1, "eigen-system reconstruction", ok,
             f"max rel err {worst:.2e}, {elapsed:.2f} s")


def test_2_propagator_matches_matrix_exponential():
    xi_vals = np.concatenate([np.linspace(-2.0, 2.0, 4001),
                              [0.5 - 1e-9, 0.5 + 1e-9]])
    t_vals = (0.01, 0.1, 1.0, 10.0, 100.0)

    t0 = time.perf_counter()
    worst = 0.0
    for x in xi_vals:
        k = np.array([[1.0, 1j * x], [1j * x, 0.0]], dtype=complex)
        for t in t_vals:
            delta = np.max(np.abs(propagator_block(x, t) - scipy.linalg.expm(-t * k)))
            if delta > worst:
                worst = delta
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-12 and elapsed < 10.0
    _verdict(2, "propagator equals matrix exponential", ok,
             f"max entry delta {worst:.2e} over {len(xi_vals) * len(t_vals)} "
             f"blocks, {elapsed:.1f} s")


def test_3_component_decay_slopes():
    expected = {"v1": -0.75, "v2": -1.25, "B1": -0.25, "B2": -0.75}
    times = np.geomspace(1.0, 1.0e4, 161)
    profile = build_profile("prop25")

    t0 = time.perf_counter()
    slopes = {}
    for comp in ("v1", "v2", "B1", "B2"):
        curve = linear_decay_curve(profile, comp, times)
        slopes[comp] = fit_decay(curve, (1.0e2, 1.0e4)).slope
    elapsed = time.perf_counter() - t0

    ok = (all(abs(slopes[c] - expected[c]) <= 0.05 for c in expected)
          and elapsed < 60.0)
    detail = " ".join(f"{c} {slopes[c]:+.3f}" for c in ("v1", "v2", "B1", "B2"))
    _verdict(3, "component decay slopes within 0.05", ok,
             f"{detail}, {elapsed:.1f} s")


def test_4_weighted_curves_no_upward_trend():
    times = np.geomspace(1.0, 1.0e4, 161)
    profile = build_profile("fstar")
    last_decade = times >= 1.0e3

    details = []
    ok = True
    for j in (0, 1, 2):
        curve = linear_decay_curve(profile, j, times)
        q = (1.0 + times) ** (0.5 * j + 0.25) * curve.values
        ratio = float(np.max(q[last_decade]) / np.max(q))
        details.append(f"j{j} {ratio:.3f}")
        ok = ok and ratio <= 1.05
    _verdict(4, "normalized curves show no upward trend", ok,
             "last-decade/global max " + " ".join(details))


def test_5_weighted_curves_stay_bounded_below():
    times = np.geomspace(10.0, 1.0e4, 121)
    profile = build_profile("fstar")

    details = []
    ok = True
    for j in (0, 1, 2):
        curve = linear_decay_curve(profile, j, times)
        q = (1.0 + times) ** (0.5 * j + 0.25) * curve.values
        floor = float(np.min(q) / q[0])
        details.append(f"j{j} {floor:.3f}")
        ok = ok and floor >= 0.5
    _verdict(5, "normalized curves stay above half their t=10 value", ok,
             "min/initial " + " ".join(details))


def test_6_nonlinear_integrity_suite():
    base = dict(n1=128, n2=128, l1=32.0 * np.pi, l2=32.0 * np.pi,
                t_end=10.0, output_every=1.0, data_kind="prop25",
                data_delta=1e-2, m=4)

    t0 = time.perf_counter()
    coarse = run(SolverConfig(dt=0.04, **base), trajectory=Trajectory(keep_all=True))
    fine = run(SolverConfig(dt=0.02, **base))
    elapsed = time.perf_counter() - t0

    div = 0.0
    for st in coarse.states:
        if st is not None:
            div = max(div, *divergence_defect(st.grid, st.u))
    cross_ok = all(abs(r.A) <= 0.5 * r.E**2 * (1.0 + 1e-12)
                   for r in coarse.records + fine.records)
    cancel = max(r.cancel_residual for r in coarse.records + fine.records)
    r_coarse = coarse.records[-1].e_residual
    r_fine = fine.records[-1].e_residual
    ratio = abs(r_coarse) / abs(r_fine)

    ok = (div <= 1e-12 and cross_ok and cancel <= 1e-10
          and 3.5 <= ratio <= 4.5 and elapsed < 120.0)
    _verdict(6, "nonlinear integrity suite", ok,
             f"div {div:.1e}, cancel {cancel:.1e}, residual ratio {ratio:.2f}, "
             f"{elapsed:.0f} s")


def test_7_small_data_boundedness():
    cfg = SolverConfig(n1=256, n2=256, l1=32.0 * np.pi, l2=32.0 * np.pi,
                       dt=0.05, t_end=50.0, output_every=0.5,
                       data_kind="prop25", data_delta=1e-2, m=4)

    t0 = time.perf_counter()
    traj = run(cfg)
    elapsed = time.perf_counter() - t0

    from mhd2d.diagnostics import cumulative
    cum = cumulative(traj.records)
    e0 = traj.records[0].E
    ok = cum.G**2 <= 4.0 * e0**2 and elapsed < 600.0
    _verdict(7, "small-data run stays bounded", ok,
             f"G(T)^2 = {cum.G**2:.3e} vs 4 E(0)^2 = {4.0 * e0**2:.3e}, "
             f"{elapsed:.0f} s")


def test_8_propagator_bound_scan_capped():
    xi1 = np.unique(np.concatenate([
        np.linspace(0.005, 2.0, 100),
        [1e-3, 0.25, 0.5 - 1e-6, 0.5, 0.5 + 1e-6],
    ]))
    times = np.geomspace(0.1, 1.0e4, 25)
    summary, _ = scan_lemma_bounds(xi1, times, n_samples=20, seed=0)

    ok = all(np.isfinite(s["max_ratio"]) and s["max_ratio"] <= 1e3
             for s in summary.values())
    detail = " ".join(f"{k} {summary[k]['max_ratio']:.2f}" for k in sorted(summary))
    _verdict(8, "propagator bound ratios capped at 1e3", ok, detail)


def test_9_deterministic_diagnostics(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n1 = 64\nn2 = 64\nl1 = 6.283185307179586\nl2 = 6.283185307179586\n"
        "dt = 0.04\nt_end = 2.0\noutput.every = 0.2\n"
        "data.kind = random\ndata.delta = 0.01\n",
        encoding="utf-8")
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main(["nonlinear-run", "--config", str(cfg), "--out", str(out),
                       "--seed", "5", "--quiet"])
        assert rc == 0
        blobs.append((out / "diagnostics.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    _verdict(9, "repeated seeded runs byte-identical", ok,
             f"{len(blobs[0])} bytes compared")
