"""The two workloads, each built from two modules of seeded ops.

Each module's `build(seed, tiny, workdir)` returns one pass of its ops as a
`Workload`: a fixed list whose composition (the size mix) is the same for
every seed, while the seed picks the geometry.  One op calls into the
program through module attributes only, so a traced run sees every call;
its check compares the output against the references in `reference.py`
and raises `CheckFailed`.  `tiny` shrinks every size for the benchmark's
own smoke tests.

lift_algebra joins the serial ODE marching of `lift_march` with the scalar
algebra of `pointwise_algebra`; grid_files joins the whole-grid numpy of
`grid_verify` with the file pipelines of `cli_files`.  Four separate
workloads were too unsteady on a shared host at the run length the time
budget allows for four (see DESIGN.md).
"""

import importlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def chain(kind, ops):
    """One op that runs the given ops in order, then checks each output."""
    def check(outs):
        for op, out in zip(ops, outs):
            op.check(out)

    return Op(kind, lambda: [op.run() for op in ops], check)


@dataclass
class Workload:
    name: str
    ops: list
    warmup: Op
    notes: dict = field(default_factory=dict)


def stratified(rng, lo, hi, n, jitter=1.0):
    """n values, one from each of n equal bins of [lo, hi], shuffled.

    Each value is drawn uniformly from the central `jitter` share of its
    bin.  This keeps the per-pass total of a size parameter nearly
    seed-independent while every value still varies with the seed.
    """
    offsets = 0.5 + jitter * (rng.uniform(size=n) - 0.5)
    values = lo + (hi - lo) * (np.arange(n) + offsets) / n
    rng.shuffle(values)
    return values


def shuffled(rng, items):
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def riffled(rng, lists):
    """The lists merged in a seeded order that keeps each list's own order."""
    tags = np.concatenate([np.full(len(items), i) for i, items in enumerate(lists)])
    rng.shuffle(tags)
    streams = [iter(items) for items in lists]
    return [next(streams[t]) for t in tags]


MODULES = ("lift_march", "grid_verify", "cli_files", "pointwise_algebra")
WORKLOADS = {"lift_algebra": ("lift_march", "pointwise_algebra"),
             "grid_files": ("grid_verify", "cli_files")}
NAMES = tuple(WORKLOADS)


def seeded_rng(seed, module):
    """The random stream of one module (or workload) for one seed."""
    return np.random.default_rng([int(seed), (MODULES + NAMES).index(module)])


def build(name, seed, tiny=False, workdir=None):
    """One pass of the named workload: its modules' ops in a seeded order."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose one of {NAMES}")
    parts = [importlib.import_module(f"{__name__}.{module}").build(
        seed, tiny=tiny, workdir=workdir) for module in WORKLOADS[name]]
    # riffled, not shuffled: a CLI pipeline's steps must keep their order
    ops = riffled(seeded_rng(seed, name), [part.ops for part in parts])
    notes = {"computed_bytes": [nb for part in parts
                                for nb in part.notes.get("computed_bytes", [])]}
    return Workload(name, ops, chain(f"{name}.warmup", [p.warmup for p in parts]), notes)
