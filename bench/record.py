"""Run every workload untraced and traced and record one trajectory point.

    python3 bench/record.py --seed 1 --seconds 30 [--out bench/results/BENCH_<sha>.json]

Each workload runs in its own ``bench/run.py`` process, one after another:
first untraced (end-to-end metrics), then traced (per-layer metrics and the
tracing overhead).  Prints every metric with its unit.  With ``--out`` it also
writes the environment, the metrics, each workload's rationale from
``BENCHMARK.json`` and the traced run's per-``solver.run`` breakdown.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


SHARED_ENV = ("python", "numpy", "cpu_count", "threads", "llc_bytes", "git_sha",
              "src_sha256_16", "seed", "seconds")
WORKLOAD_ENV = ("grids", "operations", "steps_per_pass", "step_unit", "pass_s", "pass_raw_s",
                "host_speed", "setup_s", "setup_raw_s")


def invoke(workload, seed, seconds, trace):
    """Run one benchmark process to completion; returns (environment, result)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env = next(json.loads(x)["environment"] for x in lines if x.startswith('{"environment"'))
    return env, json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        env, plain = invoke(name, args.seed, args.seconds, 0)
        tenv, traced = invoke(name, args.seed, args.seconds, 1)
        record.setdefault("environment", {k: env[k] for k in SHARED_ENV})
        entry = {k: env[k] for k in WORKLOAD_ENV}
        entry.update({
            "why": w["why"],
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "passes": {"end_to_end": env["passes"], "traced": tenv["passes"]},
            "traced_pass_s": tenv["pass_raw_s"]["traced"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            # every operation of the run workloads is one solver.run
            "runs": [{"operation": op, **r} for op, r in zip(tenv["operations"], tenv["runs"])],
        })
        record["workloads"][name] = entry
        print(f"== {name}: correct={entry['correct']} "
              f"failed {entry['failed']} of {entry['attempted']}")
        for kind in ("end_to_end", "per_layer"):
            for metric, v in entry[kind].items():
                print(f"  {metric:40s} {v['value']:>16.6g} {v['unit']}")
        for r in entry["runs"]:
            print("  run", json.dumps(r))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0 if all(e["correct"] for e in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
