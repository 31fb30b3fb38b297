"""Self-test of the benchmark at the smallest run length (``--seconds 1``).

    python3 perfbench/selftest.py

Checks, for every workload:

* the last stdout line has exactly the keys correct/attempted/failed/metrics,
  ``correct`` is true, and the metrics are exactly the end-to-end metrics of
  BENCHMARK.json (``--trace 0``) or its per-layer metrics (``--trace 1``),
  each with its declared unit;
* the workload's own timing prints with its unit and sample count;
* on the training workloads, the negative control trips the gradient gate;
* two traced runs with one seed report identical counts;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check passes.  Run from the repository root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import NOISY_FIXED_ROWS, TRAJECTORIES  # noqa: E402

PHASE_LINES = {
    "train-toy": [r"train_rows_per_s median \S+ rows/s .* n=\d+"],
    "train-glue": [r"step_ms median \S+ ms  n=\d+", r"step_ms_hi .* n=\d+"],
    "eval-toy-shots": [r"eval_shots_ms_per_row median \S+ ms/row .* n=\d+"],
    "eval-toy-noisy": [r"eval_noisy_ms_per_row median \S+ ms/row .* n=\d+"],
}
COMMON_LINES = [r"setup_s median \S+ s  n=\d+", r"peak_rss_mb \S+ MB",
                r"failed_frac \S+ \(\d+/\d+ operations\)", r"# machine \{.*\"commit\""]
COUNT_SUFFIXES = (".calls", ".bytes", ".rows", ".trajectories", ".shots",
                  "circuit_runs_per_step", "useful_param_frac")


def run(workload, trace, cwd=ROOT, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600, check=False)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in bench["workloads"]):
        counts = []
        for trace in (0, 1, 1):
            proc = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{tag} exits 0 (stderr: {proc.stderr[-500:]})")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag} result keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{tag} correct, nothing failed")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == declared[trace], f"{tag} metrics and units match BENCHMARK.json")
            text = "\n".join(lines[:-1])
            for pattern in (COMMON_LINES + PHASE_LINES[workload]) if trace == 0 else ():
                expect(re.search(pattern, text) is not None, f"{tag} prints /{pattern}/")
            if workload.startswith("train"):
                expect("negative control tripped the gradient gate: True" in text,
                       f"{tag} negative control trips the gradient gate")
            if trace == 1:
                counts.append({k: v["value"] for k, v in result["metrics"].items()
                               if k.endswith(COUNT_SUFFIXES)})
        if len(counts) == 2:
            expect(counts[0] == counts[1], f"{workload} traced counts repeat exactly")
            print(f"     {workload}: circuit_runs_per_step "
                  f"{counts[0]['gradients.circuit_runs_per_step']}, useful_param_frac "
                  f"{counts[0]['gradients.useful_param_frac']:.4f}")
            if workload == "eval-toy-noisy":
                expect(counts[0]["noise.noisy_expectations.trajectories"]
                       == TRAJECTORIES * NOISY_FIXED_ROWS,
                       "eval-toy-noisy trajectories = 1000 x noisy rows")

    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=HERE) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".selftest-*", "__pycache__"))
        proc = run("train-toy", 0, cwd=bare, root=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the program: non-zero exit and no result")

    print("selftest " + ("passed" if not failures else f"FAILED ({len(failures)})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
