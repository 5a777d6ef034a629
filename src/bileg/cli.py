"""Command-line front end: curve files, surface files, lifts, verification, export.

All structured files are JSON carrying a version field "bileg/1"; quaternions
are serialized as [w, x, y, z].  CSV output uses 17 significant digits so every
double survives a read back.  Files are written atomically (temp file in the
target directory, then rename).

Exit codes: 0 success, 2 malformed input, 3 mathematical precondition failure.

Curve files describe sphere curves::

    {"version": "bileg/1", "kind": "latitude", "axis": [0, 0, 1],
     "closed": true, "payload": {"colatitude": 1.0471975511965976}}

kinds: "latitude" (payload colatitude, optional samples), "great_circle"
(a great circle through the axis pole; optional samples), "fourier" (payload
mean/cos/sin harmonic 3-vectors, normalized to the sphere), "samples"
(payload points and optional params).

Surface files carry the immersion grids::

    {"version": "bileg/1",
     "header": {"n1": ..., "n2": ..., "t1_range": [...], "t2_range": [...],
                "h1": ..., "h2": ...},
     "X": [[w, x, y, z], ...], "Y": [[w, x, y, z], ...],
     "factorization": {"a": ..., "b": ..., "gamma1": [...], "gamma2": [...]}}

X and Y are row-major over the (x1, x2) grid; the factorization block is
optional and passes through read/write untouched.
"""

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy.interpolate import CubicSpline

from . import factory, quat, sphere
from ._fd import finite
from .errors import BilegError, PreconditionError, ValidationError

FORMAT_VERSION = "bileg/1"
CURVE_KINDS = ("fourier", "samples", "latitude", "great_circle")
_NAMED_AXES = {"i": (1.0, 0.0, 0.0), "j": (0.0, 1.0, 0.0), "k": (0.0, 0.0, 1.0)}
_VECTOR_OPTIONS = ("--axis", "--start", "--pole")
# largest curve sample count, and grid node count, that a file may ask for;
# checked before anything of that size is allocated
_MAX_COUNT = 1 << 20


def _fmt(x):
    return format(float(x), ".17g")


def _format_rows(row_format, rows):
    """One line of row_format per row of a 2-d array, in a single %-format;
    "%.17g" % x spells x exactly as _fmt(x) does."""
    rows = np.asarray(rows)
    return (row_format + "\n") * len(rows) % tuple(rows.ravel().tolist())


def _require(cond, message):
    if not cond:
        raise ValidationError(message)


def _atomic_write(path, text):
    """Write text to path via a temp file in the same directory and a rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bileg-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_json(path):
    with open(path, "r") as handle:
        return json.load(handle)


def _dump_json(obj):
    return json.dumps(obj) + "\n"


def _float(value, name):
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None
    return finite(value, name)


def _float_list(value, name, length):
    _require(isinstance(value, (list, tuple)) and len(value) == length,
             f"{name} must be a list of {length} numbers")
    return [_float(v, f"each entry of {name}") for v in value]


def _float_array(value, name):
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be an array of numbers") from None


def _count(value, name, low, high=_MAX_COUNT):
    """An integral number (not a bool or a string) read from a file, in [low, high]."""
    _require(type(value) is int or isinstance(value, float) and value.is_integer(),
             f"{name} must be an integer, got {value!r}")
    _require(low <= value <= high, f"{name} must lie between {low} and {high}, got {value}")
    return int(value)


def _parse_axis(text):
    """Axis from 'i', 'j', 'k', or a comma triple; normalized."""
    if text in _NAMED_AXES:
        return np.array(_NAMED_AXES[text])
    parts = text.split(",")
    _require(len(parts) == 3, f"axis must be i, j, k, or three comma numbers, got {text!r}")
    try:
        a = np.array([float(p) for p in parts])
    except ValueError:
        raise ValidationError(f"axis must be numeric, got {text!r}") from None
    n = np.linalg.norm(a)
    _require(n > 1e-9, "axis must be nonzero")
    return a / n


def _parse_quat(text, name="quaternion"):
    parts = text.split(",")
    _require(len(parts) == 4, f"{name} must be four comma numbers w,x,y,z, got {text!r}")
    try:
        q = np.array([float(p) for p in parts])
    except ValueError:
        raise ValidationError(f"{name} must be numeric, got {text!r}") from None
    _require(np.linalg.norm(q) > 1e-9, f"{name} must be nonzero")
    return q


def _unit3(values, name):
    a = np.asarray(_float_list(values, name, 3))
    n = np.linalg.norm(a)
    _require(n > 1e-9, f"{name} must be nonzero")
    return a / n


@dataclass
class CurveSpec:
    """Parsed curve file; axis and payload are kept verbatim for round trips."""

    kind: str
    axis: list
    payload: dict
    closed: bool

    @classmethod
    def from_mapping(cls, data):
        _require(isinstance(data, dict), "curve file must be a JSON object")
        _require(data.get("version") == FORMAT_VERSION,
                 f"curve file version must be {FORMAT_VERSION!r}")
        kind = data.get("kind")
        _require(kind in CURVE_KINDS, f"kind must be one of {CURVE_KINDS}, got {kind!r}")
        axis = _float_list(data.get("axis", [0.0, 0.0, 1.0]), "axis", 3)
        payload = data.get("payload", {})
        _require(isinstance(payload, dict), "payload must be an object")
        closed = data.get("closed", True)
        _require(isinstance(closed, bool), "closed must be a boolean")
        return cls(kind=kind, axis=axis, payload=payload, closed=closed)

    def to_mapping(self):
        return {"version": FORMAT_VERSION, "kind": self.kind, "axis": self.axis,
                "closed": self.closed, "payload": self.payload}

    def decode(self):
        """Build the SphereCurve this spec describes."""
        axis = _unit3(self.axis, "axis")
        if self.kind == "latitude":
            _require(self.closed, "latitude curves are closed")
            colat = self.payload.get("colatitude")
            _require(colat is not None, "latitude payload needs a colatitude")
            n = _count(self.payload.get("samples", 1024), "samples", 2)
            return sphere.latitude_circle(axis, _float(colat, "colatitude"), n=n)
        if self.kind == "great_circle":
            _require(self.closed, "great_circle curves are closed")
            n = _count(self.payload.get("samples", 4096), "samples", 8)
            if n % 2 == 1:
                n += 1  # an odd count puts a node antipodal to the start; the area fan degenerates there
            _, e2 = sphere.axis_frame(axis)
            t = np.linspace(0.0, 2.0 * math.pi, n)
            samples = np.cos(t)[:, None] * axis - np.sin(t)[:, None] * e2
            samples[-1] = samples[0]
            return sphere.SphereCurve(samples, t, closed=True)
        if self.kind == "fourier":
            mean = np.asarray(_float_list(self.payload.get("mean", [0.0, 0.0, 0.0]),
                                          "mean", 3))
            harmonics = [self.payload.get(name, []) for name in ("cos", "sin")]
            _require(all(isinstance(h, list) for h in harmonics),
                     "fourier cos and sin must be lists of 3-vectors")
            cos_terms, sin_terms = ([np.asarray(_float_list(v, "harmonic", 3)) for v in h]
                                    for h in harmonics)
            n = _count(self.payload.get("samples", 2048), "samples", 2)
            t = np.linspace(0.0, 2.0 * math.pi, n)
            v = np.broadcast_to(mean, (n, 3)).copy()
            for m, c in enumerate(cos_terms, start=1):
                v += np.cos(m * t)[:, None] * c
            for m, s in enumerate(sin_terms, start=1):
                v += np.sin(m * t)[:, None] * s
            norms = np.linalg.norm(v, axis=1)
            _require(norms.min() > 1e-6, "fourier curve passes too close to the origin")
            v /= norms[:, None]
            if self.closed:
                v[-1] = v[0]
            return sphere.SphereCurve(v, t, closed=self.closed)
        points = self.payload.get("points")
        _require(isinstance(points, list) and len(points) >= 2,
                 "samples payload needs a list of points")
        pts = np.asarray([_float_list(p, "point", 3) for p in points])
        params = self.payload.get("params")
        if params is None:
            t = np.linspace(0.0, 1.0, len(pts))
        else:
            t = np.asarray(_float_list(params, "params", len(pts)))
        return sphere.SphereCurve(pts, t, closed=self.closed)


def read_curve_spec(path):
    return CurveSpec.from_mapping(_load_json(path))


def write_curve_spec(path, spec):
    _atomic_write(path, _dump_json(spec.to_mapping()))


def write_surface(path, grid, factorization=None):
    header = {
        "n1": len(grid.x1), "n2": len(grid.x2),
        "t1_range": [float(grid.x1[0]), float(grid.x1[-1])],
        "t2_range": [float(grid.x2[0]), float(grid.x2[-1])],
        "h1": float(grid.x1[1] - grid.x1[0]), "h2": float(grid.x2[1] - grid.x2[0]),
    }
    data = {"version": FORMAT_VERSION, "header": header,
            "X": grid.X.reshape(-1, 4).tolist(),
            "Y": grid.Y.reshape(-1, 4).tolist()}
    if factorization is not None:
        data["factorization"] = factorization
    _atomic_write(path, _dump_json(data))


def read_surface(path):
    """Load a surface file; returns (grid, factorization block or None).

    Axes are rebuilt as linspace over the stored ranges, so a file written by
    `write_surface` reads back to bit-identical grids.
    """
    data = _load_json(path)
    _require(isinstance(data, dict), "surface file must be a JSON object")
    _require(data.get("version") == FORMAT_VERSION,
             f"surface file version must be {FORMAT_VERSION!r}")
    header = data.get("header")
    _require(isinstance(header, dict), "surface file needs a header object")
    try:
        # no cap: the X and Y shape check that follows bounds them
        n1, n2 = (_count(header[n], n, 2, math.inf) for n in ("n1", "n2"))
        r1 = _float_list(header["t1_range"], "t1_range", 2)
        r2 = _float_list(header["t2_range"], "t2_range", 2)
    except KeyError as exc:
        raise ValidationError(f"surface header is missing {exc.args[0]!r}") from None
    X = _float_array(data.get("X"), "X")
    Y = _float_array(data.get("Y"), "Y")
    # the data present bounds the header sizes before any axis is allocated
    _require(X.shape == (n1 * n2, 4) and Y.shape == (n1 * n2, 4),
             f"X and Y must be flat lists of {n1 * n2} quaternions")
    x1 = np.linspace(r1[0], r1[1], n1)
    x2 = np.linspace(r2[0], r2[1], n2)
    grid = factory.ImmersionGrid(x1, x2, X.reshape(n1, n2, 4), Y.reshape(n1, n2, 4))
    return grid, data.get("factorization")


def load_tolerances(config_path=None, overrides=()):
    """Default tolerance table, optional config file, then --tol overrides."""
    base = json.loads(resources.files("bileg").joinpath("tolerances.json").read_text())
    tols = {k: float(v) for k, v in base["tolerances"].items()}
    if config_path is not None:
        data = _load_json(config_path)
        _require(isinstance(data, dict) and isinstance(data.get("tolerances"), dict),
                 "tolerance config needs a tolerances object")
        for k, v in data["tolerances"].items():
            _require(k in tols, f"unknown tolerance name {k!r}")
            tols[k] = _float(v, f"tolerance {k}")
    for item in overrides:
        if "=" in item:
            name, _, value = item.partition("=")
            _require(name in tols, f"unknown tolerance name {name!r}")
            tols[name] = _float(value, f"tolerance {name}")
        else:
            everywhere = _float(item, "tolerance")
            tols = {k: everywhere for k in tols}
    return tols


def cmd_lift(args):
    spec = read_curve_spec(args.curve)
    curve = spec.decode()
    axis = _parse_axis(args.axis) if args.axis else _unit3(spec.axis, "axis")
    unit = sphere.reparametrize(curve, n=max(len(curve), 4096))
    if args.step > 0.0:  # horizontal_lift rejects every other step
        _require(unit.b4_length / args.step <= _MAX_COUNT,
                 f"--step {args.step} needs more than {_MAX_COUNT} steps for this curve")
    if args.start is not None:
        start = _parse_quat(args.start, "start")
    else:
        start = sphere.hopf_preimage(axis, unit.samples[0], args.side)
    lift = sphere.horizontal_lift(unit, axis, args.side, start, step=args.step)
    if args.out:
        table = np.column_stack([lift.params, lift.samples])
        _atomic_write(args.out, "t,q0,q1,q2,q3\n" + _format_rows(",".join(["%.17g"] * 5), table))
    print(f"lifted {len(lift.params)} samples on the {lift.side} side, "
          f"(b/4)-length {_fmt(unit.b4_length)}")
    print(f"horizontality residual: {lift.horizontality_residual:.3e}")
    print(f"speed residual: {lift.speed_residual:.3e}")
    print(f"tracking residual: {lift.tracking_residual:.3e}")
    end = lift.samples[-1]
    print(f"endpoint t={_fmt(lift.params[-1])}: "
          f"[{', '.join(_fmt(v) for v in end)}]")
    return 0


def cmd_area(args):
    spec = read_curve_spec(args.curve)
    curve = spec.decode()
    area = sphere.signed_area(curve)
    side_sign = 1.0 if args.side == "left" else -1.0
    q = (-side_sign * area / (4.0 * math.pi)) % 1.0
    print(f"signed area mod 4pi: {_fmt(area)}")
    print(f"holonomy q mod 1 ({args.side} lift): {_fmt(q)}")
    snap = factory._snap_rational(q, 24, 1e-6)
    if snap is not None:
        print(f"q snaps to {snap.numerator}/{snap.denominator}")
    else:
        print("no rational snap with denominator <= 24")
    return 0


def _decode_factor(data, name):
    """Factor curve spec -> (gamma, dgamma) callables."""
    _require(isinstance(data, dict), f"{name} must be an object")
    kind = data.get("kind")
    if kind == "exp_circle":
        axis3 = _unit3(data.get("axis"), f"{name}.axis")

        def gamma(ts):
            ts = np.asarray(ts, dtype=float)
            out = np.zeros(ts.shape + (4,))
            out[..., 0] = np.cos(ts)
            out[..., 1:] = np.sin(ts)[..., None] * axis3
            return out

        def dgamma(ts):
            ts = np.asarray(ts, dtype=float)
            out = np.zeros(ts.shape + (4,))
            out[..., 0] = -np.sin(ts)
            out[..., 1:] = np.cos(ts)[..., None] * axis3
            return out

        return gamma, dgamma
    if kind == "samples":
        t = _float_array(data.get("t"), f"{name}.t")
        pts = _float_array(data.get("points"), f"{name}.points")
        _require(t.ndim == 1 and pts.shape == (len(t), 4),
                 f"{name} samples need matching t and (N, 4) points")
        spl = CubicSpline(t, pts)
        return spl, spl.derivative()
    raise ValidationError(f"unknown factor kind {kind!r} in {name}")


def cmd_construct(args):
    data = _load_json(args.spec)
    _require(isinstance(data, dict), "construct spec must be a JSON object")
    _require(data.get("version") == FORMAT_VERSION,
             f"construct spec version must be {FORMAT_VERSION!r}")
    a = np.asarray(_float_list(data.get("a"), "a", 4))
    b = np.asarray(_float_list(data.get("b"), "b", 4))
    gamma1, dgamma1 = _decode_factor(data.get("gamma1"), "gamma1")
    gamma2, dgamma2 = _decode_factor(data.get("gamma2"), "gamma2")
    r1 = _float_list(data.get("t1_range"), "t1_range", 2)
    r2 = _float_list(data.get("t2_range"), "t2_range", 2)
    n1, n2 = _count(data.get("n1", 0), "n1", 2), _count(data.get("n2", 0), "n2", 2)
    _require(n1 * n2 <= _MAX_COUNT, f"n1 * n2 must be at most {_MAX_COUNT}, got {n1 * n2}")
    x1 = np.linspace(r1[0], r1[1], n1)
    x2 = np.linspace(r2[0], r2[1], n2)
    grid = factory.construct(a, b, gamma1, gamma2, x1, x2,
                             dgamma1=dgamma1, dgamma2=dgamma2,
                             t1_range=tuple(r1), t2_range=tuple(r2),
                             tol=_float(args.tol, "--tol"))
    block = {"a": grid.factors.a.tolist(), "b": grid.factors.b.tolist(),
             "gamma1": np.asarray(gamma1(x1)).tolist(),
             "gamma2": np.asarray(gamma2(x2)).tolist()}
    write_surface(args.out, grid, factorization=block)
    print(f"constructed {n1} x {n2} immersion grid -> {args.out}")
    return 0


def cmd_factorize(args):
    grid, _ = read_surface(args.inp)
    fz = factory.factorize(grid, tol=_float(args.tol, "--tol"))
    out = {"version": FORMAT_VERSION,
           "a": fz.a.tolist(), "b": fz.b.tolist(),
           "t1": grid.x1.tolist(),
           "gamma1": np.asarray(fz.gamma1(grid.x1)).tolist(),
           "t2": grid.x2.tolist(),
           "gamma2": np.asarray(fz.gamma2(grid.x2)).tolist(),
           "t1_range": list(fz.t1_range), "t2_range": list(fz.t2_range)}
    _atomic_write(args.out, _dump_json(out))
    print(f"factored: a=[{', '.join(_fmt(v) for v in fz.a)}], "
          f"b=[{', '.join(_fmt(v) for v in fz.b)}]")
    print(f"factor curves sampled at {len(grid.x1)} + {len(grid.x2)} nodes -> {args.out}")
    return 0


def cmd_verify(args):
    grid, _ = read_surface(args.inp)
    tols = load_tolerances(args.config, args.tol or ())
    suite = factory.residual_suite(grid)
    verdicts = {}
    for name, value in suite.items():
        tol = tols.get(name, 1e-6)
        verdicts[name] = bool(value <= tol)
        state = "pass" if verdicts[name] else "FAIL"
        print(f"{name:18s} {value:.6e} <= {tol:.1e}  {state}")
    all_pass = all(verdicts.values())
    failed = [n for n, ok in verdicts.items() if not ok]
    if all_pass:
        print("all residuals pass")
    else:
        print(f"FAILED: {len(failed)} residuals exceed tolerance: {', '.join(failed)}")
    if args.out:
        report = {"version": FORMAT_VERSION, "tolerances": tols,
                  "residuals": suite, "pass": verdicts, "all_pass": all_pass}
        _atomic_write(args.out, _dump_json(report))
    return 0 if all_pass else 3


def cmd_angle(args):
    grid, _ = read_surface(args.inp)
    data = factory.angle_function(grid)
    x1, x2 = np.meshgrid(grid.x1, grid.x2, indexing="ij")
    table = np.stack([x1, x2, data.theta], axis=-1).reshape(-1, 3)
    _atomic_write(args.out, "x1,x2,theta\n" + _format_rows("%.17g,%.17g,%.17g", table))
    print(f"theta0: {_fmt(data.theta0)}")
    print(f"exp(i theta0): {_fmt(math.cos(data.theta0))}, {_fmt(math.sin(data.theta0))}")
    print(f"wave residual: {data.wave_residual:.3e}")
    print(f"split residual: {data.split_residual:.3e}")
    print(f"frame residual: {data.frame_residual:.3e}")
    print(f"{data.theta.size} theta samples -> {args.out}")
    return 0


def cmd_export(args):
    grid, _ = read_surface(args.inp)
    comp = grid.X if args.component == "X" else grid.Y
    pole = _parse_quat(args.pole, "pole")
    pole = pole / np.linalg.norm(pole)
    flat = comp.reshape(-1, 4)
    nearest = float(np.linalg.norm(flat - pole, axis=1).min())
    if nearest < 1e-6:
        raise PreconditionError(
            f"pole lies on the surface image (distance {nearest:.3e}); move the pole"
        )
    n1, n2 = comp.shape[:2]
    # weld duplicated seam rows so periodic grids close up
    wrap1 = bool(np.linalg.norm(comp[-1] - comp[0], axis=-1).max() < 1e-9)
    wrap2 = bool(np.linalg.norm(comp[:, -1] - comp[:, 0], axis=-1).max() < 1e-9)
    m1 = n1 - 1 if wrap1 else n1
    m2 = n2 - 1 if wrap2 else n2
    body = comp[:m1, :m2].reshape(-1, 4)
    frame = np.stack([quat.mul(pole, quat.QI), quat.mul(pole, quat.QJ),
                      quat.mul(pole, quat.QK)])
    denom = 1.0 - body @ pole
    verts = (body @ frame.T) / denom[:, None]
    # 1-based vertex numbers of the cell corners; index n - 1 wraps onto 0 when welded
    i = (np.arange(n1) % m1)[:, None] * m2
    j = (np.arange(n2) % m2)[None, :] + 1
    v00, v10 = i[:-1] + j[:, :-1], i[1:] + j[:, :-1]
    v01, v11 = i[:-1] + j[:, 1:], i[1:] + j[:, 1:]
    faces = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    _atomic_write(args.out, _format_rows("v %.17g %.17g %.17g", verts)
                  + _format_rows("f %d %d %d", faces))
    n_faces = 2 * (n1 - 1) * (n2 - 1)
    closed = "closed" if wrap1 and wrap2 else "open"
    print(f"exported {len(verts)} vertices, {n_faces} faces ({closed} grid) -> {args.out}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bileg",
        description="Horizontal lifts, product immersions, and their verifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lift", help="integrate the horizontal lift of a sphere curve")
    p.add_argument("--curve", required=True, help="curve spec JSON")
    p.add_argument("--axis", default=None,
                   help="i, j, k, or x,y,z (default: the curve's own axis)")
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("--start", default=None,
                   help="w,x,y,z start over the curve start (default: fiber point)")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("area", help="signed area and holonomy rotation number")
    p.add_argument("--curve", required=True, help="curve spec JSON (closed)")
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("construct", help="assemble a product immersion from factors")
    p.add_argument("--spec", required=True, help="construct spec JSON")
    p.add_argument("--out", required=True, help="surface file output path")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="horizontality/speed validation tolerance")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("factorize", help="recover factor curves from a surface file")
    p.add_argument("--in", dest="inp", required=True, help="surface file")
    p.add_argument("--out", required=True, help="factors JSON output path")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="reconstruction tolerance")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("verify", help="run the structural residual suite")
    p.add_argument("--in", dest="inp", required=True, help="surface file")
    p.add_argument("--config", default=None, help="tolerance config JSON")
    p.add_argument("--tol", action="append", default=None, metavar="NAME=VALUE",
                   help="override one tolerance, or a bare value for all")
    p.add_argument("--out", default=None, help="report JSON output path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("angle", help="extract the angle function to CSV")
    p.add_argument("--in", dest="inp", required=True, help="surface file")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_angle)

    p = sub.add_parser("export", help="stereographic mesh export")
    p.add_argument("--in", dest="inp", required=True, help="surface file")
    p.add_argument("--format", choices=("obj",), default="obj")
    p.add_argument("--pole", required=True,
                   help="w,x,y,z projection pole, must avoid the surface")
    p.add_argument("--component", choices=("X", "Y"), default="X")
    p.add_argument("--out", required=True, help="mesh output path")
    p.set_defaults(func=cmd_export)
    return parser


def _join_vector_values(argv):
    """Write '--pole -0.5,...' as '--pole=-0.5,...'.

    argparse takes a value that starts with '-' and is not a plain negative
    number for an option, so a negative comma vector would lose its flag.
    """
    out = []
    for token in argv:
        if out and out[-1] in _VECTOR_OPTIONS and token.startswith("-") and "," in token:
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_join_vector_values(argv))
    except SystemExit as exc:
        # argparse exits 2 on a usage error (message already printed) and 0 on --help
        return exc.code
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BilegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
