"""Command-line workflows: file formats, exit codes, end-to-end pipelines."""

import contextlib
import copy
import functools
import io
import json
import math
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bileg import cli, quat


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _great_circle_spec(tmp_path, **payload):
    return _write_json(tmp_path / "gc.json", {
        "version": "bileg/1", "kind": "great_circle", "axis": [1, 0, 0],
        "closed": True, "payload": payload})


def _clifford_spec(tmp_path, t_range=(-0.8, 0.8), n=81):
    return _write_json(tmp_path / "clifford.json", {
        "version": "bileg/1",
        "a": [1, 0, 0, 0], "b": [0, 0, 0, 1],
        "gamma1": {"kind": "exp_circle", "axis": [1, 0, 0]},
        "gamma2": {"kind": "exp_circle", "axis": [0, 1, 0]},
        "t1_range": list(t_range), "t2_range": list(t_range),
        "n1": n, "n2": n})


def _stdout_value(out, label):
    for line in out.splitlines():
        if line.startswith(label):
            return float(line.split(":")[-1].split()[0])
    raise AssertionError(f"no line starting with {label!r} in output")


class TestLift:
    def test_great_circle_endpoint(self, tmp_path, capsys):
        spec = _great_circle_spec(tmp_path)
        out_csv = tmp_path / "lift.csv"
        assert cli.main(["lift", "--curve", spec, "--out", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "horizontality residual" in out
        rows = out_csv.read_text().strip().splitlines()
        assert rows[0] == "t,q0,q1,q2,q3"
        last = [float(v) for v in rows[-1].split(",")]
        # the lift of the great circle through the axis pole is a one-parameter
        # subgroup; at t = pi it reaches the antipode -1
        assert abs(last[0] - math.pi) < 1e-9
        assert np.abs(np.array(last[1:]) - [-1.0, 0.0, 0.0, 0.0]).max() < 1e-6

    def test_negative_vectors_are_values(self, tmp_path, capsys):
        spec = _great_circle_spec(tmp_path, samples=512)
        # -1 lies in the fiber over the curve start, as does +1
        assert cli.main(["lift", "--curve", spec, "--start", "-1,0,0,0"]) == 0
        assert cli.main(["lift", "--curve", spec, "--axis", "-1,0,0"]) == 0
        assert cli.main(["lift", "--curve", spec, "--start", "-0.5,0.5,0.5,0.5"]) == 3

    def test_usage_errors_return_instead_of_exiting(self, tmp_path, capsys):
        assert cli.main(["lift"]) == 2
        assert cli.main(["lift", "--curve"]) == 2
        assert cli.main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert cli.main(["lift", "--curve", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_zero_step_exits_2(self, tmp_path, capsys):
        spec = _great_circle_spec(tmp_path)
        assert cli.main(["lift", "--curve", spec, "--step", "0"]) == 2
        assert "step" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["1e-13", "1e-300"])
    def test_step_count_is_bounded(self, tmp_path, capsys, step):
        # rejected before the step grid is allocated
        spec = _great_circle_spec(tmp_path)
        assert cli.main(["lift", "--curve", spec, "--step", step]) == 2
        assert "more than 1048576 steps" in capsys.readouterr().err

    @pytest.mark.parametrize("start, message", [
        ("nan,0,0,0", "start must be finite"), ("1,-inf,0,0", "start must be finite"),
        ("1e308,1e308,0,0", "squared norm overflows"),
        ("1e200,0,0,1e200", "squared norm overflows")])
    def test_non_finite_or_overflowing_start_exits_2(self, tmp_path, capsys, start, message):
        spec = _great_circle_spec(tmp_path)
        assert cli.main(["lift", "--curve", spec, f"--start={start}"]) == 2
        assert message in capsys.readouterr().err

    def test_large_axis_is_read_as_its_direction(self, tmp_path, capsys):
        spec = _great_circle_spec(tmp_path, samples=512)
        assert cli.main(["lift", "--curve", spec, "--axis=1e200,0,0"]) == 0
        np.testing.assert_array_equal(cli._parse_axis("1e200,0,0"), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(cli._unit3([0, 0, 1e300], "axis"), [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("axis, message", [
        ("nan,0,0", "axis must be finite"), ("0,inf,0", "axis must be finite"),
        ("0,0,0", "axis must be nonzero"), ("0,1e-200,0", "axis must be nonzero")])
    def test_non_finite_or_zero_axis_exits_2(self, tmp_path, capsys, axis, message):
        spec = _great_circle_spec(tmp_path, samples=512)
        assert cli.main(["lift", "--curve", spec, f"--axis={axis}"]) == 2
        assert message in capsys.readouterr().err

    def test_wrong_start_exits_3(self, tmp_path, capsys):
        spec = _great_circle_spec(tmp_path)
        assert cli.main(["lift", "--curve", spec, "--start", "0,0,1,0"]) == 3
        assert "project" in capsys.readouterr().err


class TestArea:
    def test_latitude_cap(self, tmp_path, capsys):
        spec = _write_json(tmp_path / "lat.json", {
            "version": "bileg/1", "kind": "latitude", "axis": [0, 0, 1],
            "closed": True, "payload": {"colatitude": math.pi / 3, "samples": 8193}})
        assert cli.main(["area", "--curve", spec]) == 0
        out = capsys.readouterr().out
        assert abs(_stdout_value(out, "signed area") - math.pi) < 1e-6
        assert abs(_stdout_value(out, "holonomy q") - 0.75) < 1e-6
        assert "q snaps to 3/4" in out

    def test_great_circle(self, tmp_path, capsys):
        spec = _great_circle_spec(tmp_path)
        assert cli.main(["area", "--curve", spec]) == 0
        out = capsys.readouterr().out
        assert abs(_stdout_value(out, "signed area") - 2 * math.pi) < 1e-9
        assert "q snaps to 1/2" in out

    def test_point_curve(self, tmp_path, capsys):
        spec = _write_json(tmp_path / "pt.json", {
            "version": "bileg/1", "kind": "samples", "axis": [0, 0, 1],
            "closed": True, "payload": {"points": [[0, 0, 1]] * 5}})
        assert cli.main(["area", "--curve", spec]) == 0
        out = capsys.readouterr().out
        assert _stdout_value(out, "signed area") == 0.0
        assert "q snaps to 0/1" in out

    def test_open_curve_exits_2(self, tmp_path, capsys):
        t = np.linspace(0.0, 1.2, 20)
        points = np.stack([np.cos(t), np.sin(t), 0 * t], axis=1).tolist()
        spec = _write_json(tmp_path / "arc.json", {
            "version": "bileg/1", "kind": "samples", "axis": [0, 0, 1],
            "closed": False, "payload": {"points": points}})
        assert cli.main(["area", "--curve", spec]) == 2
        assert "closed" in capsys.readouterr().err

    def test_fourier_curve_runs(self, tmp_path, capsys):
        spec = _write_json(tmp_path / "four.json", {
            "version": "bileg/1", "kind": "fourier", "axis": [0, 0, 1],
            "closed": True,
            "payload": {"mean": [0, 0, 1], "cos": [[0.2, 0, 0]],
                        "sin": [[0, 0.15, 0]], "samples": 2048}})
        assert cli.main(["area", "--curve", spec]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("kind, payload", [
        ("latitude", {"colatitude": 1.0}),
        ("great_circle", {}),
        ("fourier", {"mean": [0, 0, 1], "cos": [[0.2, 0, 0]]}),
    ])
    @pytest.mark.parametrize("samples", [10**15, float("inf"), None, 2.5, "12", True])
    def test_sample_counts_are_bounded(self, tmp_path, capsys, kind, payload, samples):
        # rejected before anything of that size is allocated
        spec = _write_json(tmp_path / "huge.json", {
            "version": "bileg/1", "kind": kind, "axis": [0, 0, 1], "closed": True,
            "payload": dict(payload, samples=samples)})
        assert cli.main(["area", "--curve", spec]) == 2
        assert "samples must" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["area", "lift"])
    @pytest.mark.parametrize("field", ["cos", "sin"])
    def test_fourier_harmonics_must_be_lists(self, tmp_path, capsys, command, field):
        payload = {"mean": [0, 0, 1], "cos": [[0.2, 0, 0]], "sin": [[0, 0.15, 0]],
                   "samples": 256}
        payload[field] = 5
        spec = _write_json(tmp_path / "four.json", {
            "version": "bileg/1", "kind": "fourier", "axis": [0, 0, 1], "closed": True,
            "payload": payload})
        assert cli.main([command, "--curve", spec]) == 2
        assert "fourier cos and sin must be lists" in capsys.readouterr().err

    def test_unknown_kind_exits_2(self, tmp_path, capsys):
        spec = _write_json(tmp_path / "odd.json", {
            "version": "bileg/1", "kind": "spiral", "axis": [0, 0, 1],
            "closed": True, "payload": {}})
        assert cli.main(["area", "--curve", spec]) == 2
        assert "kind" in capsys.readouterr().err


class TestConstructVerify:
    def test_pipeline_passes(self, tmp_path, capsys):
        spec = _clifford_spec(tmp_path)
        surface = tmp_path / "surface.json"
        report = tmp_path / "report.json"
        assert cli.main(["construct", "--spec", spec, "--out", str(surface)]) == 0
        assert cli.main(["verify", "--in", str(surface), "--out", str(report)]) == 0
        out = capsys.readouterr().out
        assert "all residuals pass" in out
        data = json.loads(report.read_text())
        assert data["all_pass"] is True
        assert data["tolerances"]["flat_metric"] == 1e-6
        assert set(data["residuals"]) == set(data["tolerances"])

    def test_vertical_factor_exits_3(self, tmp_path, capsys):
        spec = {
            "version": "bileg/1", "a": [1, 0, 0, 0], "b": [0, 0, 0, 1],
            "gamma1": {"kind": "exp_circle", "axis": [0, 0, 1]},
            "gamma2": {"kind": "exp_circle", "axis": [0, 1, 0]},
            "t1_range": [-0.5, 0.5], "t2_range": [-0.5, 0.5], "n1": 17, "n2": 17}
        path = _write_json(tmp_path / "vertical.json", spec)
        assert cli.main(["construct", "--spec", path,
                         "--out", str(tmp_path / "s.json")]) == 3
        assert "horizontal" in capsys.readouterr().err

    @pytest.mark.parametrize("n1, n2", [(10**15, 81), (81, float("inf")), (1025, 1025),
                                        (40.5, 41), (41, "41")])
    def test_grid_sizes_are_bounded(self, tmp_path, capsys, n1, n2):
        spec = json.loads(open(_clifford_spec(tmp_path)).read())
        spec.update(n1=n1, n2=n2)
        path = _write_json(tmp_path / "huge.json", spec)
        assert cli.main(["construct", "--spec", path, "--out", str(tmp_path / "s.json")]) == 2
        err = capsys.readouterr().err
        assert "n1" in err or "n2" in err

    def test_factorize_round_trip(self, tmp_path, capsys):
        spec = _clifford_spec(tmp_path)
        surface = tmp_path / "surface.json"
        factors = tmp_path / "factors.json"
        assert cli.main(["construct", "--spec", spec, "--out", str(surface)]) == 0
        assert cli.main(["factorize", "--in", str(surface),
                         "--out", str(factors)]) == 0
        capsys.readouterr()
        data = json.loads(factors.read_text())
        assert np.abs(np.array(data["a"]) - [1, 0, 0, 0]).max() < 1e-9
        assert np.abs(np.array(data["b"]) - [0, 0, 0, 1]).max() < 1e-9
        t1 = np.array(data["t1"])
        g1 = np.array(data["gamma1"])
        expect1 = np.stack([np.cos(t1), np.sin(t1), 0 * t1, 0 * t1], axis=1)
        assert np.abs(g1 - expect1).max() < 1e-7
        t2 = np.array(data["t2"])
        g2 = np.array(data["gamma2"])
        expect2 = np.stack([np.cos(t2), 0 * t2, np.sin(t2), 0 * t2], axis=1)
        assert np.abs(g2 - expect2).max() < 1e-7

    def test_corrupted_surface_fails_with_3(self, tmp_path, capsys):
        spec = _clifford_spec(tmp_path, n=41)
        surface = tmp_path / "surface.json"
        assert cli.main(["construct", "--spec", spec, "--out", str(surface)]) == 0
        data = json.loads(surface.read_text())
        n1, n2 = data["header"]["n1"], data["header"]["n2"]
        X = np.array(data["X"]).reshape(n1, n2, 4)
        Y = np.array(data["Y"]).reshape(n1, n2, 4)
        # left-translating half the grid keeps it unit and orthogonal but
        # tears every derivative-based residual at the seam
        g = np.array([0.9, 0.1, 0.2, 0.0])
        g /= np.linalg.norm(g)
        X[: n1 // 2] = quat.mul(g, X[: n1 // 2])
        Y[: n1 // 2] = quat.mul(g, Y[: n1 // 2])
        data["X"] = X.reshape(-1, 4).tolist()
        data["Y"] = Y.reshape(-1, 4).tolist()
        corrupt = _write_json(tmp_path / "corrupt.json", data)
        assert cli.main(["verify", "--in", corrupt]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_tolerance_overrides(self, tmp_path, capsys):
        spec = _clifford_spec(tmp_path, n=41)
        surface = tmp_path / "surface.json"
        assert cli.main(["construct", "--spec", spec, "--out", str(surface)]) == 0
        assert cli.main(["verify", "--in", str(surface),
                         "--tol", "flat_metric=1e-15"]) == 3
        out = capsys.readouterr().out
        assert "1.0e-15" in out and "FAIL" in out
        assert cli.main(["verify", "--in", str(surface), "--tol", "bogus=1"]) == 2
        capsys.readouterr()
        # a bare value applies to every residual
        assert cli.main(["verify", "--in", str(surface), "--tol", "1e-15"]) == 3
        capsys.readouterr()


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerances_exit_2(self, tmp_path, capsys, value):
        spec = _clifford_spec(tmp_path, n=17)
        surface = tmp_path / "surface.json"
        out = str(tmp_path / "out.json")
        assert cli.main(["construct", "--spec", spec, "--out", out, f"--tol={value}"]) == 2
        assert cli.main(["construct", "--spec", spec, "--out", str(surface)]) == 0
        assert cli.main(["verify", "--in", str(surface), f"--tol={value}"]) == 2
        assert cli.main(["verify", "--in", str(surface), f"--tol=flat_metric={value}"]) == 2
        config = _write_json(tmp_path / "tols.json", {"tolerances": {"flat_metric": float(value)}})
        assert cli.main(["verify", "--in", str(surface), "--config", config]) == 2
        # twisting X and Y by the same non-separable rotation keeps them unit and
        # orthogonal, and factorize refuses the result (exit 3) at a finite tolerance
        data = json.loads(surface.read_text())
        u = np.multiply.outer(np.arange(17), np.arange(17)).reshape(-1) / 100.0
        twist = np.stack([np.cos(u), 0 * u, 0 * u, np.sin(u)], axis=-1)
        for key in ("X", "Y"):
            data[key] = quat.mul(np.array(data[key]), twist).tolist()
        twisted = _write_json(tmp_path / "twisted.json", data)
        assert cli.main(["factorize", "--in", twisted, "--out", out]) == 3
        assert cli.main(["factorize", "--in", twisted, "--out", out, f"--tol={value}"]) == 2
        assert not pathlib.Path(out).exists()
        err = capsys.readouterr().err
        assert err.count("must be finite") == 5


class TestAngle:
    def test_theta_csv(self, tmp_path, capsys):
        spec = _clifford_spec(tmp_path, n=41)
        surface = tmp_path / "surface.json"
        theta_csv = tmp_path / "theta.csv"
        assert cli.main(["construct", "--spec", spec, "--out", str(surface)]) == 0
        assert cli.main(["angle", "--in", str(surface),
                         "--out", str(theta_csv)]) == 0
        out = capsys.readouterr().out
        assert abs(_stdout_value(out, "theta0") - math.pi / 2) < 1e-9
        rows = theta_csv.read_text().strip().splitlines()
        assert rows[0] == "x1,x2,theta"
        assert len(rows) == 1 + 41 * 41
        theta = float(rows[1].split(",")[2])
        # constant angle pi/4 up to the sign gauge
        assert abs(math.cos(2 * theta)) < 1e-9


class TestSurfaceFiles:
    def test_round_trip_is_bit_identical(self, tmp_path, capsys):
        spec = _clifford_spec(tmp_path, n=21)
        first = tmp_path / "surface.json"
        second = tmp_path / "surface2.json"
        assert cli.main(["construct", "--spec", spec, "--out", str(first)]) == 0
        capsys.readouterr()
        grid, block = cli.read_surface(str(first))
        assert block is not None
        cli.write_surface(str(second), grid, factorization=block)
        assert first.read_text() == second.read_text()
        again, block2 = cli.read_surface(str(second))
        assert np.array_equal(grid.X, again.X) and np.array_equal(grid.Y, again.Y)
        assert np.array_equal(grid.x1, again.x1) and block == block2

    def test_curve_spec_round_trip(self, tmp_path):
        spec = cli.CurveSpec(kind="latitude", axis=[0.0, 0.6, 0.8],
                             payload={"colatitude": 1.05, "samples": 256},
                             closed=True)
        path = tmp_path / "curve.json"
        cli.write_curve_spec(str(path), spec)
        back = cli.read_curve_spec(str(path))
        assert back == spec
        assert back.to_mapping() == spec.to_mapping()

    def test_bad_header_exits_2(self, tmp_path, capsys):
        path = _write_json(tmp_path / "broken.json",
                           {"version": "bileg/1", "header": {"n1": 4}})
        assert cli.main(["verify", "--in", path]) == 2
        assert "header" in capsys.readouterr().err

    def test_header_sizes_are_bounded_by_the_data(self, tmp_path, capsys):
        # the axes are never allocated at the header's size, so this exits at once
        quats = [[1.0, 0.0, 0.0, 0.0]] * 4
        path = _write_json(tmp_path / "huge.json", {
            "version": "bileg/1", "X": quats, "Y": quats,
            "header": {"n1": 10**15, "n2": 2, "t1_range": [-1, 1], "t2_range": [-1, 1]}})
        assert cli.main(["verify", "--in", path]) == 2
        assert "quaternions" in capsys.readouterr().err

    @pytest.mark.parametrize("n1", [None, [3], "17", 17.5, True])
    def test_header_sizes_must_be_integers(self, tmp_path, capsys, n1):
        spec = _clifford_spec(tmp_path, n=17)
        surface = tmp_path / "surface.json"
        assert cli.main(["construct", "--spec", spec, "--out", str(surface)]) == 0
        data = json.loads(surface.read_text())
        data["header"]["n1"] = n1
        bad = _write_json(tmp_path / "bad.json", data)
        for command in (["verify", "--in", bad],
                        ["angle", "--in", bad, "--out", str(tmp_path / "theta.csv")],
                        ["factorize", "--in", bad, "--out", str(tmp_path / "factors.json")],
                        ["export", "--in", bad, "--pole", "0.5,0.5,0.5,0.5",
                         "--out", str(tmp_path / "mesh.obj")]):
            assert cli.main(command) == 2
            assert "n1 must be an integer" in capsys.readouterr().err

    def test_non_finite_node_exits_2(self, tmp_path, capsys):
        spec = _clifford_spec(tmp_path, n=17)
        surface = tmp_path / "surface.json"
        assert cli.main(["construct", "--spec", spec, "--out", str(surface)]) == 0
        data = json.loads(surface.read_text())
        data["X"][5 * 17 + 3][1] = float("nan")  # node (5, 3), row-major
        bad = _write_json(tmp_path / "nan.json", data)
        for command in (["verify", "--in", bad],
                        ["angle", "--in", bad, "--out", str(tmp_path / "theta.csv")],
                        ["factorize", "--in", bad, "--out", str(tmp_path / "factors.json")]):
            capsys.readouterr()
            assert cli.main(command) == 2, command[0]
            assert "first bad node (5, 3)" in capsys.readouterr().err


class TestExport:
    def test_torus_is_watertight(self, tmp_path, capsys):
        spec = _clifford_spec(tmp_path, t_range=(0.0, 2 * math.pi), n=17)
        surface = tmp_path / "torus.json"
        mesh = tmp_path / "torus.obj"
        assert cli.main(["construct", "--spec", spec, "--out", str(surface)]) == 0
        assert cli.main(["export", "--in", str(surface),
                         "--pole", "0.5,0.5,0.5,0.5", "--out", str(mesh)]) == 0
        assert "closed grid" in capsys.readouterr().out
        lines = mesh.read_text().splitlines()
        verts = [l for l in lines if l.startswith("v ")]
        faces = [l for l in lines if l.startswith("f ")]
        # seam rows welded: 16 x 16 vertices, two triangles per cell
        assert len(verts) == 256
        assert len(faces) == 512
        edges = {}
        for face in faces:
            i, j, k = (int(p) for p in face.split()[1:])
            assert 1 <= i <= 256 and 1 <= j <= 256 and 1 <= k <= 256
            for e in (frozenset((i, j)), frozenset((j, k)), frozenset((k, i))):
                edges[e] = edges.get(e, 0) + 1
        # Euler characteristic 0 and every edge shared by exactly two faces
        assert len(verts) - len(edges) + len(faces) == 0
        assert all(count == 2 for count in edges.values())

    def test_open_patch_counts(self, tmp_path, capsys):
        from bileg.factory import ImmersionGrid

        x = np.linspace(0.0, 0.2, 3)
        A = np.stack([np.cos(x), np.sin(x), 0 * x, 0 * x], axis=1)
        B = np.stack([np.cos(x), 0 * x, np.sin(x), 0 * x], axis=1)
        X = quat.mul(A[:, None], B[None, :])
        Y = quat.mul(X, quat.QK)
        surface = tmp_path / "patch.json"
        cli.write_surface(str(surface), ImmersionGrid(x, x, X, Y))
        mesh = tmp_path / "patch.obj"
        assert cli.main(["export", "--in", str(surface),
                         "--pole", "0,0.6,0,-0.8", "--out", str(mesh)]) == 0
        capsys.readouterr()
        lines = mesh.read_text().splitlines()
        assert sum(l.startswith("v ") for l in lines) == 9
        assert sum(l.startswith("f ") for l in lines) == 8
        # a pole given with a leading minus sign is a value, not an option
        assert cli.main(["export", "--in", str(surface),
                         "--pole", "-0.8,0,0.6,0", "--out", str(mesh)]) == 0

    @pytest.mark.parametrize("pole, message", [
        ("inf,0,0,0", "pole must be finite"), ("0,nan,0,0", "pole must be finite"),
        ("1e308,1e308,0,0", "squared norm overflows"), ("0,0,-1e160,0", "squared norm overflows")])
    def test_non_finite_or_overflowing_pole_exits_2(self, tmp_path, capsys, pole, message):
        spec = _clifford_spec(tmp_path, n=17)
        surface = tmp_path / "surface.json"
        mesh = tmp_path / "mesh.obj"
        assert cli.main(["construct", "--spec", spec, "--out", str(surface)]) == 0
        assert cli.main(["export", "--in", str(surface), f"--pole={pole}",
                         "--out", str(mesh)]) == 2
        assert message in capsys.readouterr().err
        assert not mesh.exists()

    def test_pole_on_surface_exits_3(self, tmp_path, capsys):
        spec = _clifford_spec(tmp_path, t_range=(0.0, 2 * math.pi), n=17)
        surface = tmp_path / "torus.json"
        assert cli.main(["construct", "--spec", spec, "--out", str(surface)]) == 0
        assert cli.main(["export", "--in", str(surface), "--pole", "1,0,0,0",
                         "--out", str(tmp_path / "bad.obj")]) == 3
        assert "pole" in capsys.readouterr().err


def _fmt17(x):
    return format(float(x), ".17g")


def _recorded(monkeypatch, module, name):
    """Wrap module.name so the returned values are kept in a list."""
    seen = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        seen.append(fn(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(module, name, wrapper)
    return seen


class TestWriterBytes:
    """CSV and OBJ writers against a node-by-node reference formatter."""

    def test_lift_csv(self, tmp_path, monkeypatch, capsys):
        lifts = _recorded(monkeypatch, cli.sphere, "horizontal_lift")
        out_csv = tmp_path / "lift.csv"
        spec = _great_circle_spec(tmp_path, samples=512)
        assert cli.main(["lift", "--curve", spec, "--out", str(out_csv)]) == 0
        capsys.readouterr()
        lift = lifts[-1]
        rows = ["t,q0,q1,q2,q3"] + [",".join([_fmt17(t)] + [_fmt17(v) for v in q])
                                    for t, q in zip(lift.params, lift.samples)]
        assert out_csv.read_bytes() == ("\n".join(rows) + "\n").encode()

    def test_angle_csv(self, tmp_path, monkeypatch, capsys):
        angles = _recorded(monkeypatch, cli.factory, "angle_function")
        spec = _clifford_spec(tmp_path, n=21)
        surface = tmp_path / "surface.json"
        theta_csv = tmp_path / "theta.csv"
        assert cli.main(["construct", "--spec", spec, "--out", str(surface)]) == 0
        assert cli.main(["angle", "--in", str(surface), "--out", str(theta_csv)]) == 0
        capsys.readouterr()
        theta = angles[-1].theta
        grid, _ = cli.read_surface(str(surface))
        rows = ["x1,x2,theta"] + [f"{_fmt17(t1)},{_fmt17(t2)},{_fmt17(theta[i, j])}"
                                  for i, t1 in enumerate(grid.x1)
                                  for j, t2 in enumerate(grid.x2)]
        assert theta_csv.read_bytes() == ("\n".join(rows) + "\n").encode()

    @pytest.mark.parametrize("r1, r2", [
        ((0.0, 2 * math.pi), (0.0, 2 * math.pi)),  # both seams welded
        ((0.0, 2 * math.pi), (-0.4, 0.3)),         # one seam welded
        ((-0.4, 0.3), (-0.2, 0.5)),                # an open patch
    ])
    def test_export_obj(self, tmp_path, capsys, r1, r2):
        spec = json.loads(open(_clifford_spec(tmp_path, n=13)).read())
        spec.update(n1=17, t1_range=list(r1), t2_range=list(r2))
        surface = tmp_path / "surface.json"
        mesh = tmp_path / "mesh.obj"
        assert cli.main(["construct", "--spec", _write_json(tmp_path / "s.json", spec),
                         "--out", str(surface)]) == 0
        assert cli.main(["export", "--in", str(surface), "--pole=-0.5,0.5,0.5,-0.5",
                         "--out", str(mesh)]) == 0
        capsys.readouterr()
        comp = cli.read_surface(str(surface))[0].X
        pole = np.array([-0.5, 0.5, 0.5, -0.5])
        n1, n2 = comp.shape[:2]
        wrap1 = bool(np.linalg.norm(comp[-1] - comp[0], axis=-1).max() < 1e-9)
        wrap2 = bool(np.linalg.norm(comp[:, -1] - comp[:, 0], axis=-1).max() < 1e-9)
        m1, m2 = n1 - wrap1, n2 - wrap2
        body = comp[:m1, :m2].reshape(-1, 4)
        frame = np.stack([quat.mul(pole, quat.QI), quat.mul(pole, quat.QJ),
                          quat.mul(pole, quat.QK)])
        verts = (body @ frame.T) / (1.0 - body @ pole)[:, None]
        lines = [f"v {_fmt17(v[0])} {_fmt17(v[1])} {_fmt17(v[2])}" for v in verts]
        for i in range(n1 - 1):
            for j in range(n2 - 1):
                v00 = (i % m1) * m2 + (j % m2)
                v10 = ((i + 1) % m1) * m2 + (j % m2)
                v01 = (i % m1) * m2 + ((j + 1) % m2)
                v11 = ((i + 1) % m1) * m2 + ((j + 1) % m2)
                lines.append(f"f {v00 + 1} {v10 + 1} {v11 + 1}")
                lines.append(f"f {v00 + 1} {v11 + 1} {v01 + 1}")
        assert mesh.read_bytes() == ("\n".join(lines) + "\n").encode()


# every malformed file: one field of a valid file replaced by something else

def _circle_points(n):
    t = np.linspace(0.0, 2.0 * math.pi, n)
    return np.stack([np.cos(t), np.sin(t), 0.0 * t], axis=1).tolist()


def _curve_documents():
    def curve(kind, **payload):
        return {"version": "bileg/1", "kind": kind, "axis": [0, 0, 1], "closed": True,
                "payload": payload}
    return [curve("latitude", colatitude=1.0, samples=256),
            curve("great_circle", samples=256),
            curve("fourier", mean=[0, 0, 1], cos=[[0.2, 0, 0]], sin=[[0, 0.15, 0]],
                  samples=256),
            curve("samples", points=_circle_points(129),
                  params=np.linspace(0.0, 1.0, 129).tolist())]


def _spec_documents():
    t = np.linspace(-0.8, 0.8, 641)
    clifford = {"version": "bileg/1", "a": [1, 0, 0, 0], "b": [0, 0, 0, 1],
                "gamma1": {"kind": "exp_circle", "axis": [1, 0, 0]},
                "gamma2": {"kind": "exp_circle", "axis": [0, 1, 0]},
                "t1_range": [-0.8, 0.8], "t2_range": [-0.8, 0.8], "n1": 17, "n2": 17}
    sampled = copy.deepcopy(clifford)
    sampled["gamma2"] = {"kind": "samples", "t": t.tolist(),
                         "points": [[math.cos(s), 0.0, math.sin(s), 0.0] for s in t]}
    return [clifford, sampled]


def _run(argv):
    """cli.main with its printing swallowed; any exception propagates."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _commands(kind, path, tmp):
    if kind == "curve":
        return [["lift", "--curve", path, "--out", f"{tmp}/lift.csv"],
                ["area", "--curve", path]]
    if kind == "spec":
        return [["construct", "--spec", path, "--out", f"{tmp}/surface.json"]]
    return [["verify", "--in", path],
            ["angle", "--in", path, "--out", f"{tmp}/theta.csv"],
            ["factorize", "--in", path, "--out", f"{tmp}/factors.json"],
            ["export", "--in", path, "--pole", "0.5,0.5,0.5,0.5", "--out", f"{tmp}/mesh.obj"]]


@functools.cache
def _valid_documents():
    """The valid files each malformed one is made from, keyed by file kind."""
    docs = {"curve": _curve_documents(), "spec": _spec_documents()}
    with tempfile.TemporaryDirectory() as tmp:
        # finite differences on a coarser grid miss the flat-metric tolerance
        spec = _write_json(pathlib.Path(tmp) / "spec.json", dict(docs["spec"][0], n1=61, n2=61))
        assert _run(["construct", "--spec", spec, "--out", f"{tmp}/surface.json"]) == 0
        docs["surface"] = [json.loads(pathlib.Path(f"{tmp}/surface.json").read_text())]
    return docs


def _field_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


_NUMBERS = st.one_of(st.integers(-5, 100), st.floats(-1e3, 1e3),
                     st.sampled_from([10**15, 10**400, 1e300, -1e300, math.inf]))
_REPLACEMENTS = st.one_of(
    st.none(),
    st.text(max_size=4),
    st.lists(st.one_of(st.none(), st.text(max_size=2), _NUMBERS), max_size=4),
    _NUMBERS,
    st.dictionaries(st.text(max_size=3),
                    st.one_of(st.none(), _NUMBERS, st.dictionaries(st.text(max_size=2),
                                                                   _NUMBERS, max_size=2)),
                    max_size=3),
    st.just(math.nan),
)


@pytest.mark.parametrize("kind", ["curve", "surface", "spec"])
def test_valid_documents_exit_0(kind):
    for doc in _valid_documents()[kind]:
        with tempfile.TemporaryDirectory() as tmp:
            path = _write_json(pathlib.Path(tmp) / "in.json", doc)
            assert [_run(argv) for argv in _commands(kind, path, tmp)] == \
                [0] * len(_commands(kind, path, tmp))


@pytest.mark.parametrize("kind", ["curve", "surface", "spec"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_malformed_files_exit_cleanly(kind, data):
    """One field replaced by null, a string, a list, a number, an object or NaN:
    every command returns 0, 2 or 3 and nothing escapes cli.main."""
    doc = copy.deepcopy(data.draw(st.sampled_from(_valid_documents()[kind]), label="base"))
    path = data.draw(st.sampled_from(sorted(_field_paths(doc))), label="field")
    parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
    parent[path[-1]] = data.draw(_REPLACEMENTS, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        file = _write_json(pathlib.Path(tmp) / "in.json", doc)
        for argv in _commands(kind, file, tmp):
            assert _run(argv) in (0, 2, 3), argv


def test_module_entry_point(tmp_path):
    spec = _great_circle_spec(tmp_path, samples=512)
    result = subprocess.run(
        [sys.executable, "-m", "bileg.cli", "area", "--curve", spec],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "q snaps to 1/2" in result.stdout


# every writer's output re-reads bit-exactly

_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n1=st.integers(2, 9), n2=st.integers(2, 9),
       start=st.floats(-1e3, 1e3), span=st.floats(1e-6, 1e3),
       exponent=st.integers(-300, 0))
def test_surface_file_re_reads_bit_exactly(seed, n1, n2, start, span, exponent):
    from bileg.factory import ImmersionGrid

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n1, n2, 4))
    X[..., 3] *= 10.0 ** exponent  # tiny components print with an exponent
    X /= np.linalg.norm(X, axis=-1)[..., None]
    Y = quat.mul(X, quat.QK)  # orthogonal to X at every node
    grid = ImmersionGrid(np.linspace(start, start + span, n1),
                         np.linspace(-start, -start + 2 * span, n2), X, Y)
    block = {"a": rng.standard_normal(4).tolist()}
    with tempfile.TemporaryDirectory() as tmp:
        first, second = pathlib.Path(tmp) / "a.json", pathlib.Path(tmp) / "b.json"
        cli.write_surface(str(first), grid, factorization=block)
        back, back_block = cli.read_surface(str(first))
        for name in ("x1", "x2", "X", "Y"):
            assert getattr(back, name).tobytes() == getattr(grid, name).tobytes(), name
        assert _bits(back_block["a"]) == _bits(block["a"])
        cli.write_surface(str(second), back, factorization=back_block)
        assert second.read_bytes() == first.read_bytes()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(cli.CURVE_KINDS), axis=st.lists(_FINITE, min_size=3, max_size=3),
       values=st.lists(_FINITE, min_size=3, max_size=9), closed=st.booleans(),
       samples=st.integers(2, 2**20))
def test_curve_spec_re_reads_bit_exactly(kind, axis, values, closed, samples):
    payload = {"samples": samples, "colatitude": values[0], "mean": values[:3],
               "cos": [values[:3]], "points": [values[:3], values[-3:]]}
    spec = cli.CurveSpec(kind=kind, axis=axis, payload=payload, closed=closed)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = pathlib.Path(tmp) / "a.json", pathlib.Path(tmp) / "b.json"
        cli.write_curve_spec(str(first), spec)
        back = cli.read_curve_spec(str(first))
        assert back == spec
        assert _bits(back.axis) == _bits(axis)
        assert _bits(back.payload["mean"] + back.payload["points"][1]) == \
            _bits(values[:3] + values[-3:])
        cli.write_curve_spec(str(second), back)
        assert second.read_bytes() == first.read_bytes()


@settings(max_examples=6, deadline=None)
@given(n=st.integers(9, 25), half=st.floats(0.2, 1.2), tol=st.floats(1e-12, 1.0))
def test_verify_report_re_reads_bit_exactly(n, half, tol):
    from bileg import factory

    with tempfile.TemporaryDirectory() as tmp:
        spec = _clifford_spec(pathlib.Path(tmp), t_range=(-half, half), n=n)
        surface, report = f"{tmp}/surface.json", pathlib.Path(tmp) / "report.json"
        assert _run(["construct", "--spec", spec, "--out", surface]) == 0
        code = _run(["verify", "--in", surface, f"--tol={tol!r}", "--out", str(report)])
        text = report.read_text()
        data = json.loads(text)
        suite = factory.residual_suite(cli.read_surface(surface)[0])
        assert list(data["residuals"]) == list(suite)
        assert _bits(data["residuals"].values()) == _bits(suite.values())
        assert _bits(data["tolerances"].values()) == _bits([tol] * len(data["tolerances"]))
        assert data["all_pass"] is (code == 0)
        assert json.dumps(data) + "\n" == text
