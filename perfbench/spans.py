"""Spans around the public functions of each layer, installed from outside.

`Tracer.install` replaces module attributes of the package under test with
wrappers that record one span per call: name, start, end, parent span and
op id.  Because the package calls its own layers through module globals
(`factory.construct` inside `from_theta`, `sphere.horizontal_lift` inside
`holonomy_area_check`, `frame_at` inside `covariant_constancy_residual`), a
replaced attribute also catches the nested cross-layer calls.  Hot inner
helpers (`quat.*`, `clifford.mul`) are left alone.  Counters are read from
the wrapped calls' arguments and return values, so they repeat exactly.
"""

import importlib
import os
import time
from collections import Counter

# the wrapped public functions of each layer; `cli.cmd_lift` reports as `cli.lift`
TRACED = {
    "sphere": ("reparametrize", "horizontal_lift", "holonomy", "signed_area",
               "gauss_bonnet_check", "holonomy_area_check"),
    "factory": ("construct", "residual_suite", "angle_function", "asymptotic_frame",
                "factorize", "lie_factorize", "from_theta", "torus_ansatz",
                "period_lattice"),
    "cec": ("fundamental_forms", "gauss_lift", "flat_metric", "chebyshev_forms",
            "sine_gordon_residual", "hazzidaki"),
    "clifford": ("classify_plane", "principal_vectors", "bilagrangian_test"),
    "contact": ("frame_at", "curvature_pairing", "covariant_constancy_residual"),
    "cli": ("cmd_lift", "cmd_area", "cmd_construct", "cmd_verify", "cmd_factorize",
            "cmd_angle", "cmd_export", "read_surface", "write_surface"),
}


def traced_functions():
    """(layer, attribute, span name) for every wrapped function."""
    for layer, attrs in TRACED.items():
        for attr in attrs:
            yield layer, attr, f"{layer}.{attr.removeprefix('cmd_')}"


# counters, with their units; each is summed over the calls of one pass
COUNTS = {
    "sphere.horizontal_lift.steps": "count",
    "factory.from_theta.frenet_steps": "count",
    "factory.grid_nodes": "count",
    "factory.bytes_computed": "B_computed",
    "factory.factorize.refused": "count",
    "factory.lie_factorize.refused": "count",
    "cec.patch_nodes": "count",
    "cli.bytes_read": "B",
    "cli.bytes_written": "B",
}

_QUAT_BYTES = 4 * 8


def _nodes(arr):
    return int(arr.shape[0] * arr.shape[1])


def _file_size(path):
    if path is None:
        return 0
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Hooks read counts off a wrapped call.  `before(counts, args, kwargs)`
# runs ahead of the call, outside its span, and returns a value handed to
# `after(counts, args, kwargs, result, pre)` when the call returns;
# `refused(counts, exc)` runs when it raises.

def _count_lift(counts, args, kwargs, result, pre):
    counts["sphere.horizontal_lift.steps"] += len(result.params) - 1


def _count_from_theta(counts, args, kwargs, result, pre):
    # the factor splines interpolate the Frenet samples, one knot per step
    f = result.factors
    counts["factory.from_theta.frenet_steps"] += (len(f.gamma1.x) - 1) + (len(f.gamma2.x) - 1)


def _count_construct(counts, args, kwargs, result, pre):
    n = _nodes(result.X)
    counts["factory.grid_nodes"] += n
    counts["factory.bytes_computed"] += 2 * n * _QUAT_BYTES  # X and Y written


def _count_grid_reader(scalar_grids_written):
    def count(counts, args, kwargs):
        n = _nodes((args[0] if args else kwargs["grid"]).X)
        counts["factory.grid_nodes"] += n
        counts["factory.bytes_computed"] += (2 * n * _QUAT_BYTES  # X and Y read
                                             + scalar_grids_written * n * 8)
    return count


def _count_lie(counts, args, kwargs):
    n = _nodes(args[2] if len(args) > 2 else kwargs["M"])
    counts["factory.grid_nodes"] += n
    counts["factory.bytes_computed"] += n * _QUAT_BYTES  # M read


def _count_patch(counts, args, kwargs):
    counts["cec.patch_nodes"] += _nodes(args[0].e)


def _count_theta_grid(counts, args, kwargs):
    counts["cec.patch_nodes"] += int(args[0].theta.size)


def _refusal(key):
    def refused(counts, exc):
        from bileg.errors import NotFactorizable
        if isinstance(exc, NotFactorizable):
            counts[key] += 1
    return refused


def _cli_bytes_in(counts, args, kwargs):
    counts["cli.bytes_read"] += sum(_file_size(getattr(args[0], name, None))
                                    for name in ("curve", "spec", "inp", "config"))


def _cli_bytes_out(counts, args, kwargs, result, pre):
    if result == 0:
        counts["cli.bytes_written"] += _file_size(getattr(args[0], "out", None))


HOOKS = {
    "sphere.horizontal_lift": (None, _count_lift, None),
    "factory.from_theta": (None, _count_from_theta, None),
    "factory.construct": (None, _count_construct, None),
    "factory.residual_suite": (_count_grid_reader(0), None, None),
    "factory.angle_function": (_count_grid_reader(1), None, None),
    "factory.factorize": (_count_grid_reader(0), None, _refusal("factory.factorize.refused")),
    "factory.lie_factorize": (_count_lie, None, _refusal("factory.lie_factorize.refused")),
    "cec.fundamental_forms": (_count_patch, None, None),
    "cec.gauss_lift": (_count_patch, None, None),
    "cec.flat_metric": (_count_patch, None, None),
    "cec.chebyshev_forms": (_count_theta_grid, None, None),
    "cec.sine_gordon_residual": (_count_theta_grid, None, None),
    "cec.hazzidaki": (_count_theta_grid, None, None),
}
for _layer, _attr, _name in traced_functions():
    if _attr.startswith("cmd_"):
        HOOKS[_name] = (_cli_bytes_in, _cli_bytes_out, None)


class Tracer:
    """Span recorder; `install` wraps the package, `uninstall` restores it.

    Spans are lists [name, start, end, parent index, op id]; the caller sets
    `op_id` before each op.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = -1
        self._stack = []
        self._saved = []

    def _wrap(self, module, attr, name, layer):
        fn = getattr(module, attr)
        before, after, refused = HOOKS.get(name, (None, None, None))
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            pre = before(counts, args, kwargs) if before is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                stack.pop()
                counts[layer + ".failed"] += 1
                if refused is not None:
                    refused(counts, exc)
                raise
            span[2] = clock()
            stack.pop()
            if after is not None:
                after(counts, args, kwargs, result, pre)
            return result

        traced.__wrapped__ = fn
        setattr(module, attr, traced)
        self._saved.append((module, attr, fn))

    def install(self):
        for layer, attr, name in traced_functions():
            self._wrap(importlib.import_module(f"bileg.{layer}"), attr, name, layer)

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans):
    """Per-span self time: duration minus the time its direct children cover.

    Children run inside their parent on one thread, so their intervals
    never overlap and no time is subtracted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [(s[2] - s[1]) - child_time[i] for i, s in enumerate(spans)]


def nesting_errors(spans):
    """Spans that stick out of their parent, or have negative self time."""
    bad = []
    selfs = self_times(spans)
    for i, (name, start, end, parent, op_id) in enumerate(spans):
        if end < start:
            bad.append((i, "ends before it starts"))
        if parent >= 0:
            p = spans[parent]
            if start < p[1] or end > p[2]:
                bad.append((i, f"{name} lies outside its parent {p[0]}"))
            if op_id != p[4]:
                bad.append((i, f"{name} carries another op id than its parent"))
        if selfs[i] < 0.0:
            bad.append((i, f"{name} has negative self time"))
    return bad


def layer_metric_names():
    """Every per-layer metric with its unit, in a fixed order."""
    out = {}
    for _, _, name in traced_functions():
        out[name + ".calls"] = "count"
        out[name + ".busy_s"] = "s"
        out[name + ".self_s"] = "s"
    for layer in TRACED:
        out[layer + ".failed"] = "count"
    out.update(COUNTS)
    out["sphere.horizontal_lift.self_us_per_step"] = "us/step"
    out["trace.throughput_ops_s"] = "ops/s"
    out["trace.overhead_ops_s"] = "ops/s"
    return out


def pass_metrics(spans, counts):
    """Calls, busy and self seconds per function, plus counters, for one pass."""
    out = {name: 0 for name in layer_metric_names()}
    for key, value in counts.items():
        out[key] = value
    selfs = self_times(spans)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name + ".calls"] += 1
        out[name + ".busy_s"] += end - start
        out[name + ".self_s"] += selfs[i]
    return out
