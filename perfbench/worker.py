"""One workload in its own process: set-up, warm-up, timed rounds, traced round.

Started by ``run.py``; prints a report line and then, as its last line, the
result object.  A round is one pass over the workload's op list.  The timed
phase runs whole rounds, back to back in a closed loop, and stops before a
round that would end after ``--seconds``; at least one round always runs.

``setup_s`` is the time from the start of the process to the first timed
op: importing cslsurf, making the inputs and the warm-up op.  ``run.py``
measures it in separate processes started with ``--setup-only`` as well, and
passes their figures in with ``--setup-samples``; the reported value is the
median of all of them.

The wall time of an op moves with the host: on a shared host it drifts by
up to 1.5x over minutes, with no steal time.  So a fixed reference kernel
is timed on the same core before the first timed op, after every one and
every half second while one runs, and ``ops_per_ref`` and ``op_p50_ref``
give the ops' cost in units of that kernel's median time around each op
(``Reference``).  The host's speed divides out of them; the wall-time
figures ``ops_per_s`` and ``op_p50_ms`` are reported beside them.

``--trace 1`` runs the workload's ``trace_ops`` (a round, or one pass of a
round that repeats its bodies) once untraced, installs the tracer, sets up
once more and runs them once traced; it reports the per-layer metrics of
that set-up and pass, and the tracing overhead.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: end-to-end figures that are reported but not in BENCHMARK.json, which
#: lists only the ones that every workload has, that are never 0 and that
#: the host's speed does not move
REPORT_ONLY_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "failed_op_ratio": "1",
    "oracle_disagreement_max": "1",
}


def _import_cslsurf():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cslsurf

    if Path(cslsurf.__file__).resolve().parent != src / "cslsurf":
        raise ImportError(f"cslsurf imported from {cslsurf.__file__}, not {src}")


class Reference:
    """The reference kernel: pure Python, FFTs and a numpy ufunc, about 10 ms.

    It is benchmark code only and calls nothing in cslsurf, so no change to
    the library moves it; what moves it is the speed of the host.  It keeps
    its 2 MB of arrays, so that no run of it pays for page faults.

    The kernel runs between ops (``fill``) and, while an op runs, from a
    SIGALRM handler once every INTERVAL_S (``begin``/``end``), so that an op
    of many seconds is measured against the speed the host had while it ran.
    Every run is kept with the time it ended.  ``around`` gives the median
    time of the runs within WINDOW_S of an op: a single run of 10 ms is too
    noisy to stand for the host's speed during an op, so the runs next to it
    are pooled.
    """

    #: between ops the kernel runs at least once and for at least MIN_S:
    #: before the first op for FIRST_S, after an op for SHARE of its latency
    MIN_S = 0.01
    SHARE = 0.05
    FIRST_S = 0.25
    INTERVAL_S = 0.5
    WINDOW_S = 2.0

    def __init__(self):
        import numpy as np
        import scipy.fft

        self._np, self._rfftn = np, scipy.fft.rfftn
        self._grid = np.arange(48**3, dtype=float).reshape(48, 48, 48) % 7.0
        self._vector = np.arange(100_000) * 1e-3
        self._out = np.empty_like(self._vector)
        self._once()                      # plan the FFT before any run counts
        self.runs = []                    # (end, seconds) of every run
        self._handler_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _once(self):
        start = time.perf_counter()
        x = 0
        for i in range(40_000):
            x += i * i
        for _ in range(3):
            self._rfftn(self._grid)
        for _ in range(3):
            self._np.cos(self._vector, out=self._out).sum()
        end = time.perf_counter()
        return end, end - start

    def fill(self, budget_s):
        begin = time.perf_counter()
        self.runs.append(self._once())
        while time.perf_counter() - begin < max(self.MIN_S, budget_s):
            self.runs.append(self._once())

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.runs.append(self._once())
        self._handler_s += time.perf_counter() - start

    def begin(self):
        self._handler_s = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def end(self):
        """Stop the runs inside the op; returns the time the handler took."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return self._handler_s

    def around(self, start, end):
        """Median time of the runs that ended within WINDOW_S of [start, end]."""
        return statistics.median(dt for t, dt in self.runs
                                 if start - self.WINDOW_S <= t <= end + self.WINDOW_S)


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _environment(seed):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cslsurf").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def _run_op(op, known_failures, tracer=None, reference=None):
    """Time one op and check its output; returns its record."""
    if tracer is not None:
        tracer.begin_op(op.id, op.kind)
    error = None
    if reference is not None:
        reference.begin()
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            result = tracer.span("other", op.run)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        end = time.perf_counter()
        latency = end - start
        if reference is not None:
            latency -= reference.end()
    detail = {}
    if error is None:
        try:
            ok, detail = op.check(result)
        except Exception as exc:
            ok, error = False, f"check raised {type(exc).__name__}: {exc}"
    else:
        ok = False
    record = {"id": op.id, "kind": op.kind, "latency_s": latency, "ok": bool(ok),
              "info": op.info, "detail": detail}
    if reference is not None:
        record["span"] = (start, end)
    if error:
        record["error"] = error
    known = known_failures.get(op.id)
    if not ok and known is not None and known[1](record):
        record["known_failure"] = known[0]
    return record


def _rounds(ops, seconds, known_failures, reference, max_rounds=None):
    """Whole rounds of the op list; returns one list of op records per round.

    Each record gets ``ref_s``, the median time of the reference kernel
    around its op.
    """
    rounds = []
    reference.fill(reference.FIRST_S)
    begin = time.perf_counter()
    while True:
        records = []
        for op in ops:
            records.append(_run_op(op, known_failures, reference=reference))
            reference.fill(reference.SHARE * records[-1]["latency_s"])
        rounds.append(records)
        elapsed = time.perf_counter() - begin
        if max_rounds is not None and len(rounds) >= max_rounds:
            break
        if elapsed + elapsed / len(rounds) > seconds:
            break
    for record in (r for one in rounds for r in one):
        record["ref_s"] = reference.around(*record["span"])
    return rounds


def _traced_round(setup, known_failures):
    """Set up once more and run one round with every layer traced."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op("setup", "setup")
        start = time.perf_counter()
        wl = tracer.span("other", setup)
        setup_s = time.perf_counter() - start
        records = [_run_op(op, known_failures, tracer) for op in wl.trace_ops]
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    layers["trace.setup_s"] = setup_s
    return wl, records, layers, tracer.dump_spans()


def _summary(rounds):
    """End-to-end figures of the op records of some rounds.

    ``ops_per_s`` counts successful ops over the wall time of all ops, failed
    ones included, so that it averages over the whole timed phase;
    ``ops_per_ref`` does the same with each op's time in reference units.
    """
    records = [r for one in rounds for r in one]
    latencies = sorted(r["latency_s"] for r in records if r["ok"])
    wall = sum(r["latency_s"] for r in records)
    out = {
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "ops_per_s": len(latencies) / wall,
        "op_p50_ms": 1e3 * statistics.median(latencies) if latencies else None,
        "timed_wall_s": wall,
    }
    if all("ref_s" in r for r in records):
        costs = [r["latency_s"] / r["ref_s"] for r in records]
        ok_costs = [c for c, r in zip(costs, records) if r["ok"]]
        out["ops_per_ref"] = len(ok_costs) / sum(costs)
        out["op_p50_ref"] = statistics.median(ok_costs) if ok_costs else None
        out["ref_p50_ms"] = 1e3 * statistics.median(r["ref_s"] for r in records)
    out["failed_op_ratio"] = out["failed"] / out["attempted"]
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)           # nearest-rank percentile, 1-based
        if n - rank >= 10:
            out["op_tail_ms"] = {"value": 1e3 * latencies[int(rank) - 1],
                                 "percentile": p, "samples": n,
                                 "beyond": int(n - rank)}
            break
    errors = [r["detail"]["gradient_vs_kspace"] for r in records
              if "gradient_vs_kspace" in r.get("detail", {})]
    if errors:
        out["oracle_disagreement_max"] = max(errors)
    return out


def _correct(records):
    """True when every failed op failed as a listed known failure does."""
    return all(r["ok"] or r.get("known_failure") for r in records)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for results and inputs")
    ap.add_argument("--t0", type=float, default=None,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print setup_s and exit")
    ap.add_argument("--setup-samples", type=float, nargs="*", default=[],
                    help="setup_s of earlier --setup-only processes")
    args = ap.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0

    _import_cslsurf()
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(one of {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    build, why = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = Path(args.out)
    tmp = out_dir / f"inputs-{os.getpid()}"
    known = {k: v for k, v in workloads.KNOWN_FAILURES.items()
             if k.startswith(args.workload + ":")}

    def setup():
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        wl = build(np.random.default_rng(args.seed % 2**64), str(tmp))
        warm = _run_op(wl.warmup, {})
        if not warm["ok"]:
            raise RuntimeError(f"warm-up op failed: {warm}")
        return wl

    try:
        wl = setup()
        setups = args.setup_samples + [time.monotonic() - t0]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[-1]}))
            return 0

        reference = Reference()
        if args.trace:
            untraced = _rounds(wl.trace_ops, args.seconds, known, reference, max_rounds=1)
            wl, traced, layers, spans = _traced_round(setup, known)
            plain, summary = _summary(untraced), _summary([traced])
            layers.update({
                "trace.ops_per_s_untraced": plain["ops_per_s"],
                "trace.ops_per_s_traced": summary["ops_per_s"],
                "trace.overhead_ratio": 1.0 - summary["ops_per_s"] / plain["ops_per_s"],
            })
            metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)),
                                   "unit": m["unit"]} for m in spec["per_layer"]}
            rounds = [traced]
            extra = {"layers": layers}
            (out_dir / f"{args.workload}-seed{args.seed}-spans.json").write_text(
                json.dumps(spans))
        else:
            rounds = _rounds(wl.ops, args.seconds, known, reference)
            summary = _summary(rounds)
            summary["setup_s"] = statistics.median(setups)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            summary["peak_rss_mb"] = rss_kb / 1024.0
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics = {name: {"value": summary[name], "unit": unit}
                       for name, unit in units.items()}
            extra = {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    records = [r for one in rounds for r in one]
    known_passed = sorted({r["id"] for r in records if r["ok"] and r["id"] in known})
    result = {
        "correct": _correct(records),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    report = {
        "workload": args.workload,
        "why": why,
        "trace": args.trace,
        "rounds": len(rounds),
        "seconds": args.seconds,
        "setups_s": setups,
        "summary": summary,
        "known_failures": {k: cause for k, (cause, _) in known.items()},
        "known_failures_passed": known_passed,
        "environment": _environment(args.seed),
        "workload_info": wl.info,
        "ops": records,
        **extra,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1, default=str))
    units = dict({m["name"]: m["unit"] for m in spec["end_to_end"]}, **REPORT_ONLY_UNITS)
    headline = {}
    for key, unit in units.items():
        if key in summary:
            value = summary[key]
            headline[key] = dict(value, unit=unit) if isinstance(value, dict) else {
                "value": value, "unit": unit}
    # a known failure that passes means the library changed: say so
    print(json.dumps({"report": {"workload": args.workload, "rounds": len(rounds),
                                 "metrics": headline,
                                 "known_failures_passed": known_passed, "file": name}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
