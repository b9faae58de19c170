"""qcsol benchmark: one command, one fresh process per workload.

    python3 qcbench/run.py --workload grid_sweep --seed 1 --seconds 15 --trace 0
    python3 qcbench/run.py --workload all --seed 1 --seconds 15 --out results.json

Run from the root of a checkout; qcsol is imported from its ``src``
directory.  Each workload runs in its own single-threaded worker process
(BLAS and OpenMP limited to one thread in the worker's environment only).
``setup_s`` is the median of SETUP_RUNS worker starts, each timed from
spawning the process until it reports that the first op can run.  All
reported times are scaled to reference host speed (see speed.py).

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` a worker runs a fixed
number of blocks untraced and then traced, and the metrics are the
per-layer ones.  A human-readable summary goes to stderr.  The exit code
is 0 when every op's output checked out, 1 when some op failed, and 2 when
the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from speed import reference_time, scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".qcbench-work")

WORKLOADS = ("grid_sweep", "point_queries", "falsifiers", "lp_kernel")
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not run (as opposed to an op that failed)."""


def _child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


@contextlib.contextmanager
def _worker(args, extra=()):
    """Start a worker in its own scratch directory and wait until it prints
    `ready`; yield it with its set-up time, raw and at reference speed.  On
    leaving, a worker that is still running is killed, it is always waited
    for, and its directory is removed."""
    cmd = [
        sys.executable, WORKER,
        "--workload", args.name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.name}-", dir=WORK)
    cmd += ["--workdir", workdir]
    ref = reference_time()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"{args.name}: worker failed during set-up")
        yield proc, setup, setup * scale(ref)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)


def _output(proc):
    """The worker's remaining stdout once it has exited."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def run_workload(name, seed, seconds, trace, spans=None):
    args = argparse.Namespace(name=name, seed=seed, seconds=seconds, trace=trace)
    setups, raw_setups = [], []
    for _ in range(0 if trace else SETUP_RUNS - 1):
        with _worker(args, ("--setup-only",)) as (proc, raw, setup):
            _output(proc)
        setups.append(setup)
        raw_setups.append(raw)
    with _worker(args, ("--spans", spans) if spans else ()) as (proc, raw, setup):
        out = _output(proc)
    setups.append(setup)
    raw_setups.append(raw)
    result = json.loads(out.strip().splitlines()[-1])
    result["workload"] = name
    result["seed"] = seed
    if not trace:
        result["setup_s"] = statistics.median(setups)
        result["raw"]["setup_s"] = statistics.median(raw_setups)
        result["raw"]["setup_samples_s"] = raw_setups
    return result


def _metrics(result, trace):
    if trace:
        from tracer import per_layer_names

        per_layer = result["per_layer"]
        return {name: {"value": per_layer[name], "unit": unit}
                for name, unit, _ in per_layer_names()}
    return {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}


def _summary(result, trace):
    name = result["workload"]
    if trace:
        return (f"{name}: traced {result['blocks']} block(s), "
                f"{result['attempted']} ops, {result['failed']} failed, overhead "
                f"{result['per_layer']['trace.overhead_frac']:.2f}")
    return (
        f"{name}: seed {result['seed']}, {result['attempted']} ops in "
        f"{result['blocks']} block(s), failed_frac {result['failed_frac']:.4f} ratio, "
        f"setup_s {result['setup_s']:.4f} s, ops_per_s {result['ops_per_s']:.3f} 1/s, "
        f"op_p50_ms {result['op_p50_ms']:.4f} ms, op_tail_ms {result['op_tail_ms']:.4f} ms "
        f"(p{result['tail_percentile']:g}, {result['tail_samples_beyond']} of "
        f"{result['attempted']} samples beyond), peak_rss_mb {result['peak_rss_mb']:.1f} MB"
    )


def machine_facts():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="qcsol benchmark", formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__,
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full results, with machine facts, here")
    parser.add_argument("--spans", help="traced runs: write every span to this TSV file")
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds, so its worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))

    if not os.path.isfile(os.path.join(ROOT, "src", "qcsol", "__init__.py")):
        print(f"qcbench: no qcsol sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            spans = args.spans if len(names) == 1 else None
            result = run_workload(name, args.seed, args.seconds, args.trace, spans)
            print(_summary(result, args.trace), file=sys.stderr)
            for error in result["errors"]:
                print(f"  failed op: {error}", file=sys.stderr)
            results.append(result)
    except (BenchError, OSError, ValueError) as exc:
        print(f"qcbench: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    if len(results) == 1:
        metrics = _metrics(results[0], args.trace)
    else:
        metrics = {
            f"{r['workload']}.{name}": value
            for r in results
            for name, value in _metrics(r, args.trace).items()
        }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"machine": machine_facts(), "seconds": args.seconds,
                       "trace": args.trace, "workloads": results}, fh, indent=1)
            fh.write("\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
