"""kleindim benchmark: one workload per invocation, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  After set-up the workload runs whole rounds until `--seconds`
have passed (at least one), checking each round's outputs.  The last
line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are end to end:
median `wall_s` and `cpu_s` per round (outputs ready, checks excluded),
`peak_rss_mb` after the first round and `setup_s`, the median of three
set-ups (this process and two fresh ones).  With `--trace 1` a traced
round and one more untraced round follow the untraced ones, and the
metrics are per layer, taken from spans around the public calls into
each module (see spans.py); the tracing overhead is the traced round's
wall time minus that of the untraced round after it.
Run records and span files go to `.perfbench_out/`.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 60
NPROC = len(os.sched_getaffinity(0))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def limit_threads():
    """At most one BLAS/OpenMP thread per available core; must run before
    NumPy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(NPROC))


def blas_threads():
    """Thread count reported by NumPy's bundled OpenBLAS, if it has one."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def process_threads():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def environment():
    import platform

    import mpmath
    import numpy
    import scipy

    from kleindim import _core

    return {
        "nproc": NPROC,
        "kernel": _core.KERNEL_NAME,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": process_threads(),
    }


def usage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": ru.ru_utime + ru.ru_stime, "sys_s": ru.ru_stime,
            "main_thread_cpu_s": time.thread_time(), "minor_faults": ru.ru_minflt,
            "involuntary_switches": ru.ru_nivcsw}


def checked_round(workload, inputs, context):
    """One round inside `context`, timed; then its checks, untimed.

    Returns the problems found and the round's record: wall time, the
    process's resource use over the round (all threads) and its peak RSS
    before the checks ran."""
    with context:
        t0, u0 = time.perf_counter(), usage()
        out, attempted, failed = workload.run(inputs)
        wall, u1 = time.perf_counter() - t0, usage()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, info = workload.check(inputs, out)
    return problems, {"wall_s": wall, **{k: u1[k] - u0[k] for k in u0},
                      "peak_rss_mb": peak_rss_mb, "attempted": attempted,
                      "failed": failed, "problems": len(problems), "info": info}


def child_setup_seconds(args):
    """Set-up time of a fresh process running the same set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "kleindim")):
        print(f"no kleindim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    limit_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_ROOT, exist_ok=True)

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        with recorder.installed():
            inputs = workload.setup(args.seed, OUT_ROOT)
    else:
        inputs = workload.setup(args.seed, OUT_ROOT)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment()
    print(json.dumps({"env": env}), flush=True)

    rounds = []
    problems = []
    t_ready = time.perf_counter()
    while not rounds or time.perf_counter() - t_ready < args.seconds:
        found, rnd = checked_round(workload, inputs, contextlib.nullcontext())
        problems += found
        rounds.append(rnd)
        print(json.dumps({"round": rnd}, default=str), flush=True)
    untraced = list(rounds)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "rounds": rounds, "problems": problems}
    if args.trace:
        # a first round pays for memory the process has not touched yet, so
        # the overhead is taken against an untraced round run after the
        # traced one
        first_round_span = len(recorder.spans)
        for context in (recorder.installed(), contextlib.nullcontext()):
            found, rnd = checked_round(workload, inputs, context)
            problems += found
            rounds.append(rnd)
        traced, after = rounds[-2]["wall_s"], rounds[-1]["wall_s"]
        record["traced_round"] = len(rounds) - 2
        metrics = spans.layer_metrics(recorder, first_round_span, traced, traced - after)
        trace_path = os.path.join(OUT_ROOT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({**recorder.dump(), "round_spans_from": first_round_span}, fh)
    else:
        setups = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_RUNS - 1)]
        record["setup_s"] = setups
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in untraced), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in untraced), "unit": "s"},
            "peak_rss_mb": {"value": untraced[0]["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    record["metrics"] = metrics
    record["process_threads_end"] = process_threads()
    with open(os.path.join(OUT_ROOT, f"run-{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems,
                      "attempted": sum(r["attempted"] for r in rounds),
                      "failed": sum(r["failed"] for r in rounds), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
