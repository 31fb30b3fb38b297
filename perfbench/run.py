"""qmtl benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root; qmtl is imported from ``src/``.  With
``--trace 0`` the workload runs untraced for ``--seconds`` and the last
stdout line is a JSON object with the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` a fixed amount of the workload runs twice, untraced then
traced; the two must agree bit for bit, and the JSON carries the per-layer
metrics.  Human-readable lines before it give the median, tail percentile
and sample count of the workload's timing, the gates, and the machine.
"""

from __future__ import annotations

import os

# pin the load to this process's one thread before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 21         # set-up is timed in this many fresh processes
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("train-toy", "train-glue", "eval-toy-shots", "eval-toy-noisy")

def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    package = ROOT / "src" / "qmtl" / "__init__.py"
    if not package.is_file():
        _fail(f"qmtl sources not found at {package.parent}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import qmtl
    if Path(qmtl.__file__).resolve() != package.resolve():
        _fail(f"imported qmtl from {qmtl.__file__}, expected {package}")


# ---------------------------------------------------------------------------
# statistics


def summarize(samples):
    """Median and tail of per-row times (ms): the tail is the highest
    percentile with at least ten samples beyond it (None below 11 samples)."""
    per_row = sorted(1000.0 * seconds / rows for seconds, rows in samples)
    n = len(per_row)
    tail = (100.0 * (n - 10) / n, per_row[n - 11]) if n >= 11 else None
    return {"n": n, "median": statistics.median(per_row), "tail": tail,
            "rows": samples[0][1]}


# ---------------------------------------------------------------------------
# machine record


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record():
    import numpy as np
    return {"commit": _git_commit(), "numpy": np.__version__,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


# ---------------------------------------------------------------------------
# set-up time, measured in fresh processes


def probe_setup(workload, seed):
    """Seconds from process start until the workload's set-up is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return elapsed


# ---------------------------------------------------------------------------
# the two kinds of run


def run_untraced(name, seed, seconds):
    from workloads import WORKLOADS, Tally

    workload, tally = WORKLOADS[name], Tally()
    setups = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    ctx = workload.setup(seed)
    workload.gates(ctx, tally)
    samples = workload.timed(ctx, seconds, tally)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines = []
    if samples:
        stat = summarize(samples)
        lines += _phase_lines(workload.phase, stat)
    else:
        stat = {"median": 0.0}
        tally.notes.append("the timed loop recorded no samples")
    lines.append(f"setup_s median {statistics.median(setups):.4f} s  "
                 f"n={len(setups)}  values {[round(s, 4) for s in setups]}")
    lines.append(f"peak_rss_mb {rss_mb:.2f} MB")
    metrics = {
        "ms_per_row": (stat["median"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return tally, bool(samples), lines, metrics


def _phase_lines(phase, stat):
    """The median, tail and sample count in the phase's own unit."""
    if phase.endswith("_rows_per_s"):      # the slow tail of a rate is its low end
        fmt = lambda ms: f"{1000.0 / ms:.4f} rows/s"
    elif phase == "step_ms":
        fmt = lambda ms: f"{stat['rows'] * ms:.4f} ms"
    else:
        fmt = lambda ms: f"{ms:.4f} ms/row"
    tail = stat["tail"]
    tail_text = (f"p{tail[0]:.0f} {fmt(tail[1])}" if tail else
                 f"tail n/a ({stat['n']} samples; a tail needs 11)")
    count = f"n={stat['n']}"
    if phase == "step_ms":
        return [f"step_ms median {fmt(stat['median'])}  {count}",
                f"step_ms_hi {tail_text}  {count}"]
    return [f"{phase} median {fmt(stat['median'])}  {tail_text}  {count}"]


def _same(a, b):
    import numpy as np
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


def run_traced(name, seed):
    from tracing import Tracer
    from workloads import WORKLOADS, Tally

    workload, tally = WORKLOADS[name], Tally()
    # the gates run first, so both timed passes find the code paths warm
    ctx = workload.setup(seed)
    workload.gates(ctx, tally)

    def one_pass():
        start = time.perf_counter()
        outputs = workload.fixed(workload.setup(seed), tally)
        return time.perf_counter() - start, outputs

    plain_s, plain = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced = one_pass()
    finally:
        tracer.uninstall()

    workload.check(ctx, plain, tally)
    identical = _same(plain, traced)
    if not identical:
        tally.notes.append("traced outputs differ from untraced outputs")
    idle = [layer for layer in workload.required if tracer.calls[layer] == 0]
    if idle:
        tally.notes.append(f"required layers recorded zero calls: {idle}")

    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
    lines = [f"untraced pass {plain_s:.4f} s, traced pass {traced_s:.4f} s",
             f"traced outputs identical to untraced: {identical}"]
    lines += [f"{key} {value:.6g} {unit}" for key, (value, unit) in metrics.items()]
    return tally, identical and not idle, lines, metrics


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()

    if args.setup_probe:
        from workloads import WORKLOADS
        WORKLOADS[args.workload].setup(args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)

    print(f"# qmtl benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    print("# machine " + json.dumps(machine_record()))
    if args.trace:
        tally, ok, lines, metrics = run_traced(args.workload, args.seed)
    else:
        tally, ok, lines, metrics = run_untraced(args.workload, args.seed, args.seconds)
    for line in lines:
        print(line)
    controls = tally.control_tripped
    if controls:
        print(f"negative control tripped the gradient gate: {all(controls)} "
              f"({sum(controls)}/{len(controls)})")
    print(f"failed_frac {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed}/{tally.attempted} operations)")
    for note in tally.notes:
        print(f"# gate: {note}")
    if args.trace:
        print("# which end-to-end metric each layer should move: perfbench/README.md")
        metrics["failed_frac"] = (tally.failed / max(tally.attempted, 1), "frac")

    correct = ok and tally.failed == 0 and all(controls)
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            _fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
