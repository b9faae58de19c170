"""One workload in one fresh single-threaded process.

Started by run.py, never by hand.  The worker imports qcsol from the
checkout's ``src`` directory, builds the workload, prints ``ready`` (the
parent times set-up up to that line), then runs the timed or the traced
phase and prints one JSON result line.  With ``--setup-only`` it exits
right after ``ready``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from array import array

import numpy as np

from speed import SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MAX_REPORTED_FAILURES = 5


def _import_library():
    sys.path.insert(0, SRC)
    import qcsol

    where = os.path.dirname(os.path.abspath(qcsol.__file__))
    if where != os.path.join(SRC, "qcsol"):
        raise ImportError(f"qcsol imported from {where}, not from {SRC}")


class _Run:
    """Latencies and failures of the ops run so far, with the speed probes
    taken between them."""

    def __init__(self):
        self.probe = SpeedProbe()
        self.starts = array("d")
        self.latencies = array("d")
        self.failed = 0
        self.errors = []

    def fail(self, op, message):
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_FAILURES:
            self.errors.append(f"{op.kind}: {message}")

    def run_block(self, ops, span=None):
        clock = time.perf_counter
        for op in ops:
            t0 = clock()
            try:
                if span is None:
                    out = op.call()
                else:
                    with span(op.kind):
                        out = op.call()
            except Exception:  # an op that raises unexpectedly is a failed op
                self._record(t0, clock() - t0)
                self.fail(op, traceback.format_exc(limit=3))
                continue
            self._record(t0, clock() - t0)
            try:
                message = op.check(out)
            except Exception:
                message = traceback.format_exc(limit=3)
            if message is not None:
                self.fail(op, message)
            self.probe.maybe_probe()

    def _record(self, start, latency):
        self.starts.append(start)
        self.latencies.append(latency)

    def normalized(self):
        """Op latencies at reference speed; call after the last op."""
        self.probe.probe()
        return self.probe.normalize(self.starts, self.latencies)

    @property
    def attempted(self):
        return len(self.latencies)


def _tail(latencies, percentile):
    """Nearest-rank latency at `percentile`, with the number of samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = min(n, max(1, math.ceil(percentile * n / 100.0)))
    return ordered[rank - 1], n - rank


TAIL_LADDER = (50.0, 80.0, 90.0, 95.0, 99.0, 99.5, 99.9)


def _tail_percentile(preferred, n):
    """The workload's fixed tail percentile, or the highest ladder step
    below it that leaves at least ten samples beyond it."""
    for p in sorted((q for q in TAIL_LADDER if q <= preferred), reverse=True):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def timed_phase(workload, rng, seconds):
    """Whole blocks until the next one would end past `seconds`, counted
    at reference speed so that the number of blocks does not follow the
    host's speed."""
    run = _Run()
    start = time.perf_counter()
    blocks = 0
    elapsed = 0.0
    while True:
        ops = workload.block(rng)
        t0 = time.perf_counter()
        run.run_block(ops)
        blocks += 1
        block = (time.perf_counter() - t0) * run.probe.last_scale
        elapsed += block
        if elapsed + block > seconds:
            break
    wall = time.perf_counter() - start
    latencies = run.normalized()
    percentile = _tail_percentile(workload.tail_percentile, run.attempted)
    tail, beyond = _tail(latencies, percentile)
    raw_tail, _ = _tail(run.latencies, percentile)
    verified = run.attempted - run.failed
    return {
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "blocks": blocks,
        "wall_s": wall,
        "speed_probes": run.probe.samples,
        "ops_per_s": verified / float(sum(latencies)),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        "failed_frac": run.failed / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw": {
            "ops_per_s": verified / sum(run.latencies),
            "op_p50_ms": statistics.median(run.latencies) * 1e3,
            "op_tail_ms": raw_tail * 1e3,
        },
    }


def traced_phase(workload, seed, spans_path):
    """A fixed number of blocks, run untraced and then traced after one
    warm-up block, so call counts depend on the seed alone and the two
    busy times give the tracing overhead."""
    from tracer import Tracer

    def blocks():
        rng = np.random.default_rng(seed)
        return [workload.block(rng) for _ in range(workload.trace_blocks)]

    warm, plain, traced = _Run(), _Run(), _Run()
    warm.run_block(blocks()[0])
    for ops in blocks():
        plain.run_block(ops)
    tracer = Tracer()
    tracer.install()
    for ops in blocks():
        traced.run_block(ops, span=tracer.op_span)
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = float(
        sum(traced.normalized()) / sum(plain.normalized()) - 1.0
    )
    if spans_path:
        tracer.write_spans(spans_path)
    runs = (warm, plain, traced)
    return {
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "errors": [e for r in runs for e in r.errors],
        "blocks": workload.trace_blocks,
        "per_layer": metrics,
        "by_op": tracer.breakdown(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--workdir", required=True, help="scratch directory for files the workload writes")
    args = parser.parse_args(argv)

    _import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced_phase(workload, args.seed, args.spans)
    else:
        result = timed_phase(workload, np.random.default_rng(args.seed), args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
