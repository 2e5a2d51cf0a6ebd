"""Benchmark of co3: one workload per process, end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload desk-fp4 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seconds 30        # every workload, each in its own process

One run repeats the workload's operations until the next repetition would end
after ``--seconds``, checks the program's outputs, writes
``bench/results/<workload>-seed<n>-trace<t>.json`` and prints, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the per-layer ones, from spans recorded
around every call into co3 (written to ``<workload>-seed<n>.spans.jsonl``).
BLAS and OpenMP are pinned to one thread in this process and its children.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_SAMPLES = 5  # fresh processes timed for setup_s; the median is reported
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one workload; omitted, every workload in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha():
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment():
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_sha": git_sha(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def time_setup(args):
    """Median wall time from spawning a fresh process to its first timed call."""
    samples = []
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    for _ in range(1 if args.tiny else SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def run_workload(args, spec, setup_s):
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.workload, args.seed, args.tiny)
    if args.setup_only:
        # CLOCK_MONOTONIC is system-wide, so the parent can subtract its spawn time
        print(repr(time.monotonic()))
        return 0

    results, failures = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.start_rep(len(results))
        n, bad, result, problems = wl.run(tracer)
        attempted += n
        failed += bad
        results.append(result)
        failures += [f"rep {len(results) - 1}: {p}" for p in problems]
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > args.seconds:
            break

    summary = wl.summarize(results)
    if tracer is None:
        metrics = {m["name"]: (m["unit"], summary.get(m["name"], workloads.NOT_MEASURED)) for m in spec["end_to_end"]}
        metrics["setup_s"] = ("s", setup_s)
        metrics["peak_rss_mb"] = ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        tracer.flush()
        layer = tracer.layer_metrics(list(range(len(results))))
        failures += tracer.failures
        metrics = {m["name"]: (m["unit"], layer[m["name"]]) for m in spec["per_layer"]}
        # training time with tracing on, check time taken out, for the overhead figure
        for r, result in enumerate(results):
            if "seconds" in result:
                result["seconds_less_checks"] = result["seconds"] - tracer.check_time[r]
        tracer.uninstall()
        RESULTS.mkdir(exist_ok=True)
        tracer.write_spans(RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl")

    out = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }
    record = dict(
        out,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        tiny=args.tiny,
        measured=list(wl.metrics),
        failures=failures,
        repetitions=results,
        environment=environment(),
    )
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for msg in failures[:20]:
        print("CHECK FAILED:", msg, file=sys.stderr)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def run_all(args, spec):
    """Every workload in its own process; prints each metric with its unit."""
    status = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w["name"], "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{w['name']} trace={trace}: exit code {proc.returncode}")
                status = 1
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{w['name']} trace={trace}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "co3" / "__init__.py").is_file():
        print(f"co3 sources not found under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))
    setup_s = None if (args.trace or args.setup_only) else time_setup(args)
    return run_workload(args, spec, setup_s)


if __name__ == "__main__":
    sys.exit(main())
