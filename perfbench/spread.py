"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

    python3 perfbench/spread.py --runs 10 [--workloads train-glue,eval-toy-noisy] [--first-seed 0]

Runs ``run.py --trace 0`` once per seed (seeds first-seed .. first-seed+runs-1)
for each workload, one run at a time, and prints for each metric its median
and the distance between the first and third quartile as a share of the
median, next to the metric's bound from BENCHMARK.json.  Run from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                 check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(out)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            worst = max(worst, share / bounds[name])
            print(f"{workload:19s} {name:12s} median {med:.6g}  IQR/median {share:.4f}  "
                  f"bound {bounds[name]}  ({share / bounds[name]:.2f} of bound)")
    print(f"largest spread: {worst:.2f} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
