"""cli_files: the README pipelines through `bileg.cli.main`, in process.

One op is one `cli.main(argv)` call on files in the run's work directory:
`construct` -> `verify` -> `factorize` -> `angle` -> `export` on a product
surface of n x n nodes, `lift` and `area` on curve files, a malformed file
that must exit 2, or a non-product surface that `verify` and `factorize`
must reject with exit 3.  Writes (`construct`, `angle`, `export`, `lift`)
sit beside reads (`verify`, `factorize`).  Every output file is read back:
its floats must reproduce their 17-digit tokens exactly.
"""

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
from bileg import cli

from reference import (
    exp_axis,
    factor_axes,
    geodesic_polygon_area,
    hopf_left,
    orthonormal_pair,
    product_grid,
    q_from_area,
    qconj,
    qmul,
    random_unit,
    require,
    sphere_frame,
)
from workloads import Op, Workload, chain, seeded_rng, shuffled, stratified

# surface nodes per axis: pipelines per pass; the median of a pass's 56
# latencies falls inside the 49-node pipelines, not on a class boundary
PIPELINES = {49: 6, 81: 2, 121: 1}
TINY_PIPELINES = {17: 1}
LIFTS = 3                               # lift and area ops per pass, each
FMT = "{:.17g}".format


def _call(argv):
    """Exit code, stdout and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _write(path, obj):
    Path(path).write_text(json.dumps(obj) + "\n")
    return str(path)


def _exact_floats(tokens, what):
    for tok in tokens:
        require(FMT(float(tok)) == tok, f"{what}: token {tok!r} does not read back exactly")


def _read_json_exact(path):
    """Parse a JSON output and require it to re-serialise to the same bytes."""
    text = Path(path).read_text()
    data = json.loads(text)
    require(json.dumps(data) + "\n" == text, f"{Path(path).name} does not re-read bit-exactly")
    return data


def _checked_once(check, *paths):
    """Run the full check once; later outputs must then repeat it byte for byte.

    Every pass writes the same files, so an output whose exit code, stdout
    and file digests equal those of an output that passed is correct too.
    """
    passed = set()

    def checked(out):
        code, stdout, _ = out
        key = (code, stdout) + tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest()
                                     for p in paths)
        if key not in passed:
            check(out)
            passed.add(key)

    return checked


def _expect_code(code, want, err):
    require(code == want, f"exit code {code}, expected {want}: {err.strip()[:200]}")


def _pipeline(rng, d, idx, n, tols):
    a, b = orthonormal_pair(rng)
    w1, w2 = factor_axes(rng, a, b)
    # a spacing of at most 0.02 keeps the finite-difference residuals that
    # `verify` computes from the file well inside the shipped tolerances
    half = float(rng.uniform(0.01, 0.02)) * (n - 1) / 2
    x = np.linspace(-half, half, n)
    spec = {"version": "bileg/1", "a": a.tolist(), "b": b.tolist(),
            "gamma1": {"kind": "exp_circle", "axis": w1.tolist()},
            "gamma2": {"kind": "exp_circle", "axis": w2.tolist()},
            "t1_range": [-half, half], "t2_range": [-half, half], "n1": n, "n2": n}
    paths = {k: str(d / f"{k}_{idx}.{ext}") for k, ext in
             (("spec", "json"), ("surface", "json"), ("report", "json"),
              ("factors", "json"), ("angle", "csv"), ("mesh", "obj"))}
    _write(paths["spec"], spec)
    G1, G2 = exp_axis(x, w1), exp_axis(x, w2)
    X, Y = product_grid(a, b, G1, G2)
    while True:
        pole = random_unit(rng, 4)
        if np.linalg.norm(X.reshape(-1, 4) - pole, axis=1).min() > 0.05:
            break
    pole_arg = ",".join(FMT(v) for v in pole)

    def check_construct(out):
        code, _, err = out
        _expect_code(code, 0, err)
        data = _read_json_exact(paths["surface"])
        got_X = np.asarray(data["X"]).reshape(n, n, 4)
        got_Y = np.asarray(data["Y"]).reshape(n, n, 4)
        require(max(np.abs(got_X - X).max(), np.abs(got_Y - Y).max()) < 1e-12,
                "surface file differs from the product of the factors")

    def check_verify(out):
        code, stdout, err = out
        _expect_code(code, 0, err)
        report = _read_json_exact(paths["report"])
        require(report["all_pass"] is True, "verify report does not pass")
        for name, value in report["residuals"].items():
            require(value <= tols[name], f"residual {name} = {value:.3e}")

    def check_factorize(out):
        code, _, err = out
        _expect_code(code, 0, err)
        data = _read_json_exact(paths["factors"])
        require(np.abs(np.asarray(data["a"]) - a).max() < 1e-15
                and np.abs(np.asarray(data["b"]) - b).max() < 1e-15, "wrong (a, b)")
        require(data["t1"] == x.tolist(), "factor parameters differ from the grid")
        err1 = np.abs(np.asarray(data["gamma1"]) - G1).max()
        err2 = np.abs(np.asarray(data["gamma2"]) - G2).max()
        require(max(err1, err2) < 1e-12, f"factor samples off by {max(err1, err2):.2e}")

    def check_angle(out):
        code, _, err = out
        _expect_code(code, 0, err)
        lines = Path(paths["angle"]).read_text().splitlines()
        require(lines[0] == "x1,x2,theta" and len(lines) == n * n + 1, "angle CSV shape")
        rows = [line.split(",") for line in lines[1:]]
        _exact_floats((tok for row in rows for tok in row), "angle CSV")
        cols = np.array(rows, dtype=float)
        require(np.array_equal(cols[::n, 0], x) and np.array_equal(cols[:n, 1], x),
                "angle CSV parameters differ from the grid")
        theta = cols[:, 2].reshape(n, n)
        c = n // 2
        split = theta - theta[:, [c]] - theta[[c], :] + theta[c, c]
        require(np.abs(split).max() < 1e-5, f"theta does not split: {np.abs(split).max():.2e}")

    def check_export(out):
        code, _, err = out
        _expect_code(code, 0, err)
        lines = Path(paths["mesh"]).read_text().splitlines()
        verts = [line.split()[1:] for line in lines if line.startswith("v ")]
        faces = [line for line in lines if line.startswith("f ")]
        require(len(verts) == n * n and len(faces) == 2 * (n - 1) ** 2, "mesh size")
        _exact_floats((tok for v in verts for tok in v), "OBJ vertices")
        p = pole / np.linalg.norm(pole)
        body = X.reshape(-1, 4)
        frame = np.stack([qmul(p, e) for e in np.eye(4)[1:]])
        want = (body @ frame.T) / (1.0 - body @ p)[:, None]
        got = np.asarray(verts, dtype=float)
        require(np.abs(got - want).max() < 1e-9 * max(1.0, np.abs(want).max()),
                "stereographic vertices differ from the reference")

    s = paths
    steps = [
        (["construct", "--spec", s["spec"], "--out", s["surface"]],
         _checked_once(check_construct, s["surface"])),
        (["verify", "--in", s["surface"], "--out", s["report"]],
         _checked_once(check_verify, s["report"])),
        (["factorize", "--in", s["surface"], "--out", s["factors"]],
         _checked_once(check_factorize, s["factors"])),
        (["angle", "--in", s["surface"], "--out", s["angle"]],
         _checked_once(check_angle, s["angle"])),
        (["export", "--in", s["surface"], f"--pole={pole_arg}", "--out", s["mesh"]],
         _checked_once(check_export, s["mesh"])),
    ]
    return [Op(f"cli.{argv[0]}.{n}", lambda argv=argv: _call(argv), check)
            for argv, check in steps]


def _curve_ops(rng, d, idx, colat, samples):
    """A lift and an area op on one curve file (colat None: great circle)."""
    axis = random_unit(rng, 3)
    side = "left" if rng.uniform() < 0.5 else "right"
    if colat is None:
        kind, payload = "great_circle", {"samples": samples}
        t = np.linspace(0.0, 2.0 * math.pi, samples)
        _, e2 = sphere_frame(axis)
        points = np.cos(t)[:, None] * axis - np.sin(t)[:, None] * e2
        height = None
    else:
        kind, payload = "latitude", {"colatitude": colat, "samples": samples}
        e1, e2 = sphere_frame(axis)
        t = np.linspace(0.0, 2.0 * math.pi, samples)
        points = (math.cos(colat) * axis + math.sin(colat)
                  * (np.cos(t)[:, None] * e1 - np.sin(t)[:, None] * e2))
        height = math.cos(colat)
    points[-1] = points[0]
    curve = _write(d / f"curve_{idx}.json", {"version": "bileg/1", "kind": kind,
                                            "axis": axis.tolist(), "closed": True,
                                            "payload": payload})
    out_csv = str(d / f"lift_{idx}.csv")
    area = 2.0 * math.pi if colat is None else geodesic_polygon_area(points, axis)

    def check_lift(out):
        code, _, err = out
        _expect_code(code, 0, err)
        lines = Path(out_csv).read_text().splitlines()
        require(lines[0] == "t,q0,q1,q2,q3" and len(lines) > 100, "lift CSV shape")
        rows = [line.split(",") for line in lines[1:]]
        _exact_floats((tok for row in rows for tok in row), "lift CSV")
        cols = np.asarray(rows, dtype=float)
        g = cols[:, 1:]
        require(np.abs(np.linalg.norm(g, axis=1) - 1.0).max() < 1e-12, "lift leaves S^3")
        base = hopf_left(g if side == "left" else qconj(g), axis)
        if height is None:
            # unit (b/4) speed: the great circle turns at twice the lift parameter
            require(np.abs(base @ axis - np.cos(2.0 * cols[:, 0])).max() < 1e-6,
                    "great-circle lift does not track its curve")
        else:
            require(np.abs(base @ axis - height).max() < 1e-8,
                    "lift does not project onto its latitude")

    def check_area(out):
        code, stdout, err = out
        _expect_code(code, 0, err)
        values = dict(line.split(":", 1) for line in stdout.splitlines() if ":" in line)
        got = float(values["signed area mod 4pi"])
        gap = abs(got - area) % (4.0 * math.pi)
        require(min(gap, 4.0 * math.pi - gap) < 1e-9, f"area {got!r} against {area!r}")
        q = float(values[f"holonomy q mod 1 ({side} lift)"])
        require(abs(q - q_from_area(area, side)) < 1e-9 or colat is None, f"q {q!r}")
        if colat is None:
            require("q snaps to 1/2" in stdout, "great circle does not snap to 1/2")

    lift = ["lift", "--curve", curve, "--side", side, "--out", out_csv]
    return [Op(f"cli.lift.{kind}", lambda: _call(lift),
               _checked_once(check_lift, out_csv)),
            Op(f"cli.area.{kind}",
               lambda: _call(["area", "--curve", curve, "--side", side]), check_area)]


def _refusal_ops(rng, d, n):
    """Malformed files (exit 2) and a non-product surface (exit 3)."""
    spec = {"version": "bileg/0", "a": [1, 0, 0, 0], "b": [0, 0, 0, 1],
            "gamma1": {"kind": "exp_circle", "axis": [1, 0, 0]},
            "gamma2": {"kind": "exp_circle", "axis": [0, 1, 0]},
            "t1_range": [-0.5, 0.5], "t2_range": [-0.5, 0.5], "n1": n, "n2": n}
    bad_spec = _write(d / "bad_version.json", spec)
    bad_curve = _write(d / "bad_kind.json", {"version": "bileg/1", "kind": "spiral",
                                             "axis": [0, 0, 1], "closed": True,
                                             "payload": {}})
    # a non-product surface: the product grid under a non-separable left twist
    a, b = orthonormal_pair(rng)
    w1, w2 = factor_axes(rng, a, b)
    x = np.linspace(-0.6, 0.6, n)
    X, Y = product_grid(a, b, exp_axis(x, w1), exp_axis(x, w2))
    twist = exp_axis(4e-3 * np.sin(1.5 * np.multiply.outer(x, x) + 0.3), random_unit(rng, 3))
    X, Y = qmul(twist, X), qmul(twist, Y)
    h = float(x[1] - x[0])
    surface = {"version": "bileg/1",
               "header": {"n1": n, "n2": n, "t1_range": [-0.6, 0.6],
                          "t2_range": [-0.6, 0.6], "h1": h, "h2": h},
               "X": X.reshape(-1, 4).tolist(), "Y": Y.reshape(-1, 4).tolist()}
    twisted = _write(d / "twisted.json", surface)
    text = json.dumps(surface)
    truncated = d / "truncated.json"
    truncated.write_text(text[: len(text) // 2])

    def expect(code):
        def check(out):
            _expect_code(out[0], code, out[2])
        return check

    cases = [
        ("cli.malformed.truncated", ["verify", "--in", str(truncated)], 2),
        ("cli.malformed.version", ["construct", "--spec", bad_spec,
                                   "--out", str(d / "never.json")], 2),
        ("cli.malformed.kind", ["area", "--curve", bad_curve], 2),
        ("cli.nonproduct.verify", ["verify", "--in", twisted], 3),
        ("cli.nonproduct.factorize", ["factorize", "--in", twisted,
                                      "--out", str(d / "never.json")], 3),
    ]
    return [Op(kind, lambda argv=argv: _call(argv), expect(code))
            for kind, argv, code in cases]


def build(seed, tiny=False, workdir=None):
    if workdir is None:
        raise ValueError("cli_files needs a work directory")
    d = Path(workdir)
    d.mkdir(parents=True, exist_ok=True)
    rng = seeded_rng(seed, "cli_files")
    tols = json.loads(Path(cli.__file__).with_name("tolerances.json").read_text())["tolerances"]
    blocks = []
    idx = 0
    for n, count in (TINY_PIPELINES if tiny else PIPELINES).items():
        for _ in range(count):
            blocks.append(_pipeline(rng, d, idx, n, tols))
            idx += 1
    samples = 1024 if tiny else 4096
    lifts = 1 if tiny else LIFTS
    # narrow jitter keeps the pass's lift length steady across seeds
    colats = [None] + list(stratified(rng, 0.3, 1.2, lifts - 1, jitter=0.2))
    for j, colat in enumerate(colats):
        lift, area = _curve_ops(rng, d, j, colat, samples)
        blocks += [[lift], [area]]
    blocks += [[op] for op in _refusal_ops(rng, d, 17 if tiny else 49)]
    ops = [op for block in shuffled(rng, blocks) for op in block]
    warmup = _pipeline(rng, d, "warmup", 17, tols)
    sizes = [(f"surface grids X and Y, n={n}", 2 * n * n * 4 * 8)
             for n in (TINY_PIPELINES if tiny else PIPELINES)]
    return Workload("cli_files", ops, chain("cli.pipeline.warmup", warmup),
                    notes={"computed_bytes": sizes})
