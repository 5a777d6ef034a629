"""The benchmark's own tests: smoke runs, exact counts, and span nesting.

Run from the checkout root:  python3 -m pytest perfbench/tests
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def tiny(name, seed, tmp_path):
    return workloads.build(name, seed, tiny=True, workdir=tmp_path / name)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_pass_has_no_failures(name, tmp_path):
    workload = tiny(name, 3, tmp_path)
    ops = [workload.warmup] + workload.ops
    tally = harness.Tally()
    assert tally.run_pass(ops, time.perf_counter() + 120)
    assert tally.failures == []  # fail_ratio == 0
    assert len(tally.latencies) == len(ops)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_repeat_exactly(name, tmp_path):
    counts = []
    for run in range(2):
        workload = workloads.build(name, 5, tiny=True, workdir=tmp_path / f"run{run}")
        tally, metrics, problems, _ = harness.traced_run(workload.ops, 0.0,
                                                         time.perf_counter())
        assert problems == [] and tally.failures == []
        counts.append({k: v for k, (v, unit, _) in metrics.items()
                       if unit in ("count", "B", "B_computed")})
    assert counts[0] == counts[1]
    assert any(v for k, v in counts[0].items() if k.endswith(".calls"))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_spans_nest(name, tmp_path):
    workload = tiny(name, 7, tmp_path)
    _, _, problems, span_passes = harness.traced_run(workload.ops, 0.0, time.perf_counter())
    assert problems == []
    for recorded in span_passes:
        assert recorded
        for (_, start, end, parent, op_id), own in zip(recorded, spans.self_times(recorded)):
            assert own >= 0.0
            if parent >= 0:
                p = recorded[parent]
                assert p[1] <= start <= end <= p[2]
                assert p[4] == op_id


def test_nested_calls_are_children(tmp_path):
    # holonomy_area_check reaches horizontal_lift through a module global
    workload = workloads.build("lift_algebra", 1, tiny=True, workdir=tmp_path)
    op = next(o for o in workload.ops if o.kind == "holonomy.latitude")
    tracer = spans.Tracer()
    tracer.install()
    try:
        op.check(op.run())
    finally:
        tracer.uninstall()
    recorded, counts = tracer.take()
    names = [s[0] for s in recorded]
    lift = recorded[names.index("sphere.horizontal_lift")]
    assert recorded[lift[3]][0] == "sphere.holonomy_area_check"
    assert counts["sphere.horizontal_lift.steps"] > 0


def test_tracer_restores_the_package():
    from bileg import factory, sphere

    before = (sphere.horizontal_lift, factory.construct)
    tracer = spans.Tracer()
    tracer.install()
    assert sphere.horizontal_lift is not before[0]
    tracer.uninstall()
    assert (sphere.horizontal_lift, factory.construct) == before


def test_reference_algebra_matches_the_package():
    from bileg import clifford, quat

    rng = np.random.default_rng(0)
    p, q = rng.standard_normal((2, 5, 4))
    assert np.allclose(reference.qmul(p, q), quat.mul(p, q), atol=1e-14)
    for s1, s2 in ((1, 1), (1, -1), (-1, -1)):
        C, _, _ = reference.clifford_tables(s1, s2)
        sig = clifford.Signature2(s1, s2)
        x, y = rng.standard_normal((2, 4))
        want = clifford.mul(clifford.from_coeffs(sig, x), clifford.from_coeffs(sig, y)).coeffs
        assert np.allclose(reference.left_matrix(C, x) @ y, want, atol=1e-14)


def test_every_layer_metric_is_reported(tmp_path):
    workload = tiny("grid_files", 1, tmp_path)
    _, metrics, _, _ = harness.traced_run(workload.ops, 0.0, time.perf_counter())
    assert set(metrics) == set(spans.layer_metric_names())
    assert len(metrics) <= 128
