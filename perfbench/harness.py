"""Closed-loop timing of one workload: one client, one thread, one op at a time.

The clock runs only while an op executes; its correctness check runs with
the clock stopped.  A run repeats whole passes of the workload until the
timed seconds and MIN_OPS executions are both reached, so every run sees
the workload's size mix exactly.

Times are reported as measured, over every execution.
"""

import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from reference import CheckFailed
from spans import Tracer, layer_metric_names, nesting_errors, pass_metrics

MIN_OPS = 100             # so that ten or more latencies lie beyond the 90th percentile
HARD_STOP_S = 150.0       # no op starts later than this after the run began


def execute(op):
    """(seconds, failure message or None) for one op and its check."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # an op that raises unexpectedly counts as failed
        return time.perf_counter() - start, f"{op.kind}: raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        op.check(out)
    except CheckFailed as exc:
        return elapsed, f"{op.kind}: {exc}"
    except Exception as exc:  # a check that cannot read the output also fails the op
        return elapsed, f"{op.kind}: check raised {type(exc).__name__}: {exc}"
    return elapsed, None


class Tally:
    """Latencies and failures of the passes run so far."""

    def __init__(self):
        self.latencies = []
        self.failures = []
        self.busy = 0.0
        self.passes = 0

    def run_pass(self, ops, deadline, tracer=None):
        """Run every op once; False when the deadline cut the pass short."""
        for op_id, op in enumerate(ops):
            if time.perf_counter() > deadline:
                return False
            if tracer is not None:
                tracer.op_id = op_id
            elapsed, failure = execute(op)
            self.latencies.append(elapsed)
            self.busy += elapsed
            if failure is not None:
                self.failures.append(failure)
        self.passes += 1
        return True

    def throughput(self):
        """Ops per second of op time."""
        return len(self.latencies) / self.busy

    def merge(self, other):
        self.latencies += other.latencies
        self.failures += other.failures
        self.busy += other.busy
        self.passes += other.passes


def timed_run(ops, seconds, started):
    """Whole passes until `seconds` of op time and MIN_OPS executions are reached."""
    tally = Tally()
    deadline = started + HARD_STOP_S
    while tally.busy < seconds or len(tally.latencies) < MIN_OPS:
        if not tally.run_pass(ops, deadline):
            break
    return tally


def end_to_end(tally, setup_values):
    p50, p90 = np.percentile(np.asarray(tally.latencies) * 1e3, [50, 90])
    n = len(tally.latencies)
    return {
        "throughput_ops_s": (tally.throughput(), "ops/s", n),
        "latency_p50_ms": (float(p50), "ms", n),
        "latency_p90_ms": (float(p90), "ms", n),
        "success_ratio": (1.0 - len(tally.failures) / n, "1", n),
        "setup_s": (statistics.median(setup_values), "s", len(setup_values)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_run(ops, seconds, started):
    """Untraced and traced passes in turn; per-layer metrics per traced pass.

    Returns (tally over all executions, metrics, problems, spans per traced
    pass).  Seconds are medians over the traced passes; counts come from the
    first traced pass and must repeat exactly in every later one.
    """
    plain, traced = Tally(), Tally()
    tracer = Tracer()
    per_pass, span_passes, problems = [], [], []
    deadline = started + HARD_STOP_S
    while (plain.busy < seconds / 2 or traced.busy < seconds / 2
           or not plain.passes or not traced.passes):
        if not plain.run_pass(ops, deadline):
            break
        tracer.install()
        try:
            done = traced.run_pass(ops, deadline, tracer)
        finally:
            tracer.uninstall()
        spans, counts = tracer.take()
        if not done:
            break
        per_pass.append(pass_metrics(spans, counts))
        span_passes.append(spans)
        problems += [f"span {i}: {why}" for i, why in nesting_errors(spans)]
    tally = Tally()
    tally.merge(plain)
    tally.merge(traced)
    if not per_pass:
        problems.append("no traced pass completed")
        return tally, {}, problems, span_passes

    metrics = {}
    for name, unit in layer_metric_names().items():
        values = [m[name] for m in per_pass]
        if unit == "s":
            metrics[name] = (float(np.median(values)), unit, len(values))
        else:
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs between passes: {values}")
            metrics[name] = (values[0], unit, len(values))
    steps = metrics["sphere.horizontal_lift.steps"][0]
    self_s = metrics["sphere.horizontal_lift.self_s"][0]
    metrics["sphere.horizontal_lift.self_us_per_step"] = (
        self_s / steps * 1e6 if steps else 0.0, "us/step", len(per_pass))
    metrics["trace.throughput_ops_s"] = (traced.throughput(), "ops/s", len(traced.latencies))
    metrics["trace.overhead_ops_s"] = (plain.throughput() - traced.throughput(), "ops/s",
                                       len(plain.latencies))
    return tally, metrics, problems, span_passes


# environment record --------------------------------------------------------

def cache_sizes():
    """{'L1d': bytes, 'L2': bytes, 'L3': bytes} read from sysfs for cpu0."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
        out[f"L{level}" + ("d" if level == "1" else "")] = int(size.rstrip("KM")) * scale
    return out


def blas_threads():
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"
    return ",".join(str(i.get("num_threads")) for i in threadpool_info()
                    if i.get("user_api") == "blas")


def environment(notes):
    import scipy

    caches = cache_sizes()
    lines = [
        f"python {platform.python_version()}  numpy {np.__version__}  scipy {scipy.__version__}"
        f"  nproc {os.cpu_count()}  affinity {len(os.sched_getaffinity(0))}"
        f"  blas threads {blas_threads()}",
        "caches " + "  ".join(f"{k} {v // 1024} KiB" for k, v in caches.items()),
    ]
    for label, size in notes.get("computed_bytes", []):
        rel = "  ".join(f"{size / caches[k]:.2f} x {k}" for k in ("L2", "L3") if k in caches)
        lines.append(f"computed {label}: {size} B  ({rel})")
    return lines
