"""Self-test: count-type per-layer metrics repeat exactly.

    python3 bench/selftest.py [--seeds 1 2] [--seconds 1]

Runs every workload traced three times, twice with the first seed and once
with the second.  Metrics with unit ``count`` (FFT planes, block calls,
quadrature panels, samples, steps, spans) and ``B_computed`` (bytes computed
from array sizes) must be identical across all three runs; ``cli.bytes_written``
(unit ``B``, measured file sizes, whose float formatting depends on the data)
must be identical across the two runs of the same seed.  Every run must also
report ``correct``.  Exits 1 on any mismatch.
"""

import argparse
import json
import sys
from pathlib import Path

from record import invoke

EXACT_ALWAYS = ("count", "B_computed")
EXACT_PER_SEED = ("B",)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args(argv)

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    a, b = args.seeds
    ok = True
    for w in spec["workloads"]:
        runs = [(seed, invoke(w["name"], seed, args.seconds, 1)[1]) for seed in (a, a, b)]
        for seed, r in runs:
            if not r["correct"]:
                print(f"FAIL {w['name']} seed {seed}: {r['failed']} of {r['attempted']} failed")
                ok = False
        checked = 0
        for metric, first in runs[0][1]["metrics"].items():
            if first["unit"] in EXACT_ALWAYS:
                group = runs
            elif first["unit"] in EXACT_PER_SEED:
                group = runs[:2]
            else:
                continue
            values = [r["metrics"][metric]["value"] for _, r in group]
            checked += 1
            if len(set(values)) != 1:
                print(f"FAIL {w['name']} {metric}: {values}")
                ok = False
        print(f"{'ok' if ok else 'FAIL'} {w['name']}: {checked} exact metrics compared")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
