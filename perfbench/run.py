"""Benchmark of cslsurf: its workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in its own process (``worker.py``), one after another,
single-threaded, with the BLAS thread count pinned to 1.  The program
under test is the ``src/cslsurf`` next to this directory; nothing is
installed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it reports every end-to-end figure of the
run by name and unit.  Full results, per-op records, the environment and the
trace spans go to ``.perfbench_out/`` in the repository root.

Workloads, what each one stresses and its known baseline failures are
defined in ``workloads.py``; ``all`` runs the ones ``BENCHMARK.json`` lists,
and any other one defined there runs by name.  Exits non-zero without a
result when the program is missing or a workload process fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_TIMEOUT_S = 170
# setup_s is the median of this many cold set-ups, each in its own process:
# the extra ones only set up and exit, the last one goes on to the timed ops
SETUP_PROCESSES = 3
# The workloads make no BLAS call large enough to share; a second OpenBLAS
# thread only spins on the other core and slows the measured one.
BLAS_THREADS = "1"


def _worker(name, seed, seconds, trace, deadline, extra=()):
    """Run one worker process to its end; returns its output lines."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(OUT), "--t0", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
    return proc.stdout.strip().splitlines()


def run_workload(name, seed, seconds, trace):
    """Run one workload: cold set-ups, then the measured process."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    setups = []
    if not trace:
        for _ in range(SETUP_PROCESSES - 1):
            lines = _worker(name, seed, seconds, trace, deadline, ["--setup-only"])
            setups.append(repr(json.loads(lines[-1])["setup_s"]))
    lines = _worker(name, seed, seconds, trace, deadline, ["--setup-samples", *setups])
    result = json.loads(lines[-1]) if lines else {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError(f"workload {name} printed no result line")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cslsurf" / "__init__.py").is_file():
        print(f"error: no cslsurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    if args.workload == "all":
        selected = [w["name"] for w in bench["workloads"]]
    else:
        selected = [args.workload]
    results = {}
    for name in selected:
        try:
            lines = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if len(selected) == 1:
            print("\n".join(lines))
            return 0
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        print(json.dumps({name: results[name]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": v for name, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
