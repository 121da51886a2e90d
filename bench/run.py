"""Run the randadj benchmark on one workload, or on all of them.

    python3 bench/run.py --workload desk-mc --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --seed 1 --seconds 22          # every workload

A run sets up (three probe processes, each importing randadj and making one
warm-up call), then calls the workload's entry point in whole rounds until
--seconds have passed, then checks every output. It prints each metric with
its unit and, as the last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The run record and, when traced, the
spans are written under bench/runs/.

The program is imported from src/ of the checkout that holds this file;
without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
WORKLOADS = ("desk-mc", "full-mc", "analyze-wide", "enumerate-exact")
SETUP_PROBES = 3
EXIT_USAGE = 2


def blas_info() -> dict:
    """BLAS vendor and version as numpy was built, and the thread count the
    loaded OpenBLAS reports at run time (None when it cannot be read)."""
    import numpy as np

    info = {"env": {k: v for k, v in os.environ.items()
                    if k.endswith("_NUM_THREADS") or k in ("OMP_DYNAMIC", "MKL_DYNAMIC")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(vendor=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        info.update(vendor=None, version=None)
    info["threads"] = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "host": socket.gethostname(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_info(),
        "commit": git_commit(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def cpu_steal_s() -> float | None:
    """Seconds of CPU time the hypervisor took from this machine so far."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def probe(workload: str, workdir: str) -> tuple[float, float]:
    """(set-up seconds, import seconds) of one fresh process."""
    start = time.monotonic()
    out = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), workload, workdir],
                         capture_output=True, text=True, timeout=150, cwd=ROOT)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result["ready"] - start, result["import_s"]


def measure(args, workdir: str) -> dict:
    """Set up, run whole rounds for args.seconds, check; return the run's
    summary. Imports randadj only after the probes have run."""
    setup = [probe(args.workload, workdir) for _ in range(SETUP_PROBES)]
    sys.path.insert(0, SRC)
    import randadj
    import spans
    import workloads

    if not os.path.abspath(randadj.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"randadj imported from {randadj.__file__}, not from {SRC}")
    workload = workloads.make(args.workload, args.seed, workdir)
    workloads.warmup(args.workload, workdir)
    calls = workload.calls()
    tracer = spans.Tracer() if args.trace else None
    times, outputs, errors, fails = [], [], [], []
    attempted = failed = 0
    steal = cpu_steal_s()
    start = spans.clock()
    while True:
        for k, call in enumerate(calls):
            attempted += call.ops
            if tracer is not None:
                tracer.op = len(times)
                entry = tracer.open(call.span)
            t0 = spans.clock()
            try:
                result = call.run()
                t1 = spans.clock()
                output = call.collect(result)
            except Exception:  # a failed operation is counted, not fatal
                t1 = spans.clock()
                failed += call.ops
                if len(errors) < 10:
                    errors.append(traceback.format_exc())
                output = None
            times.append(t1 - t0)
            if tracer is not None:
                tracer.close(entry, ok=output is not None)
                if output is not None:
                    fails += workload.replay(k, output, tracer, entry)
            if output is not None:
                outputs.append((k, output))
        if spans.clock() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elapsed = spans.clock() - start
    if steal is not None:
        steal = cpu_steal_s() - steal
    fails += workload.check(outputs)
    if tracer is not None:
        metrics = tracer.metrics(statistics.median(s[1] for s in setup))
    else:
        metrics = {
            "setup_s": (statistics.median(s[0] for s in setup), "s"),
            "ops_per_s": ((attempted - failed) / sum(times), "op/s"),
            "call_p50_s": (statistics.median(times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {"correct": not fails and bool(outputs), "attempted": attempted, "failed": failed,
            "metrics": metrics, "check_failures": fails, "errors": errors,
            "call_s": times, "setup_probes": setup, "elapsed_s": elapsed,
            "cpu_steal_s": steal, "tracer": tracer}


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "randadj", "__init__.py")):
        print(f"randadj sources not found under {SRC}", file=sys.stderr)
        return EXIT_USAGE
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = os.path.join(RUNS, run_id + ".work")
    os.makedirs(workdir)  # also makes RUNS
    try:
        summary = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tracer = summary.pop("tracer")
    if tracer is not None:
        tracer.write(os.path.join(RUNS, run_id + ".spans.jsonl"))
        summary["counts"] = tracer.counts
    summary["environment"] = environment(args)
    with open(os.path.join(RUNS, run_id + ".json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: attempted {summary['attempted']}, "
          f"failed {summary['failed']}, correct {summary['correct']}")
    for failure in summary["check_failures"][:20]:
        print(f"  CHECK FAILED: {failure}")
    for error in summary["errors"][:3]:
        print(f"  OPERATION FAILED: {error}")
    for name, (value, unit) in summary["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": summary["correct"], "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in summary["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results, code = {}, 0
    for name in WORKLOADS:
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if out.returncode == 0 else out.stdout + out.stderr)
        if out.returncode != 0 or not lines:
            code = out.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
