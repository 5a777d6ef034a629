"""Benchmark of the bileg package: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  With --trace 0 the run measures the end-to-end metrics; with
--trace 1 it wraps the public functions of every layer and reports
per-layer metrics instead.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 whenever that line is printed.
See DESIGN.md for the workloads, metrics and predictions.
"""

import os

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in a fresh process and print it
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import bileg from this checkout's sources, never from elsewhere."""
    if not (SRC / "bileg" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import bileg
    elapsed = time.perf_counter() - start
    if Path(bileg.__file__).resolve().parent != SRC / "bileg":
        raise SystemExit(f"error: imported bileg from {bileg.__file__}, not from {SRC}")
    return elapsed


def setup(args, workdir):
    """Import, input generation and one warm-up op; returns (workload, seconds)."""
    import_s = import_package()
    import harness
    import workloads

    start = time.perf_counter()
    workload = workloads.build(args.workload, args.seed, workdir=workdir)
    elapsed, failure = harness.execute(workload.warmup)
    if failure is not None:
        raise SystemExit(f"error: warm-up op failed: {failure}")
    return workload, import_s + time.perf_counter() - start


def probe_setup(args):
    """Set-up seconds of fresh processes, one after another."""
    values = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {done.stderr.strip()[-500:]}")
        values.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return values


def report(args, workload, tally, metrics, problems):
    import harness

    lines = [f"# bileg benchmark: workload {args.workload}, seed {args.seed}, "
             f"trace {args.trace}"]
    lines += ["# " + line for line in harness.environment(workload.notes)]
    n = len(tally.latencies)
    lines.append(f"# {tally.passes} passes of {len(workload.ops)} ops, {n} executions, "
                 f"{tally.busy:.3f} s of op time")
    printed = {"fail_ratio": (len(tally.failures) / n, "1", n)}
    printed.update(metrics)
    for name, (value, unit, count) in printed.items():
        lines.append(f"{name} {value:.9g} {unit} (n={count})")
    for message in (tally.failures + problems)[:20]:
        lines.append(f"# FAILED {message}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not tally.failures and not problems,
        "attempted": n,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))


def write_spans(args, span_passes):
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "fields": ["name", "start", "end", "parent", "op_id"],
        "passes": span_passes,
    }))


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload, setup_s = setup(args, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        import harness

        if args.trace:
            tally, metrics, problems, span_passes = harness.traced_run(
                workload.ops, args.seconds, started)
            write_spans(args, span_passes)
        else:
            setup_values = probe_setup(args)
            tally = harness.timed_run(workload.ops, args.seconds, started)
            metrics, problems = harness.end_to_end(tally, setup_values), []
        report(args, workload, tally, metrics, problems)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
