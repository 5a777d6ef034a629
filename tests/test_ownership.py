"""Every record the package returns owns its arrays.

A field that is a view keeps the whole array it was cut from alive: a
4-vector read off a grid node keeps the grid.  So each ndarray field of a
returned record, and of the records nested in it, must either own its data
or be one of the caller's own input arrays passed through unchanged, such
as `grid.x1`.  Owning here means keeping alive no more memory than the
field's own: `np.linspace` returns a reshaped view of an array of the same
size, which counts as owned.
"""

import dataclasses
import math

import numpy as np
import pytest

from bileg import cec, contact, factory, quat, sphere

HALF = 0.5
X = np.linspace(-HALF, HALF, 17)


def _exp_circle(axis):
    w = np.asarray(axis, float)

    def gamma(t):
        t = np.asarray(t, float)
        return np.concatenate([np.cos(t)[..., None], np.sin(t)[..., None] * w], axis=-1)

    def dgamma(t):
        t = np.asarray(t, float)
        return np.concatenate([-np.sin(t)[..., None], np.cos(t)[..., None] * w], axis=-1)

    return gamma, dgamma


G1, DG1 = _exp_circle([1.0, 0.0, 0.0])
G2, DG2 = _exp_circle([0.0, 1.0, 0.0])


def _great_circle(start3, pole3, ccw):
    """Great circle about pole3 through start3, (b/4) arc length from 0."""
    p, e1 = np.asarray(pole3, float), np.asarray(start3, float)
    e2 = np.cross(p, e1) if ccw else -np.cross(p, e1)
    t = np.linspace(0.0, math.pi, 513)
    plane = np.cos(2.0 * t)[:, None] * e1 + np.sin(2.0 * t)[:, None] * e2
    plane[-1] = plane[0]
    return sphere.SphereCurve(plane, t, closed=True)


def _arrays(obj):
    """The ndarrays an input holds: itself, or the fields of a record, one level down."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if dataclasses.is_dataclass(obj):
        found = []
        for f in dataclasses.fields(obj):
            found += _arrays(getattr(obj, f.name))
        return found
    return []


def _views(record, inputs, path="record"):
    """Paths of the ndarray fields of a record (and of its nested records and
    tuples) that neither own their data nor are one of the input arrays."""
    if isinstance(record, np.ndarray):
        owner = record
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        if owner.nbytes <= record.nbytes or any(record is a for a in inputs):
            return []
        return [f"{path} (a view of shape {owner.shape})"]
    if isinstance(record, tuple):
        return [v for k, item in enumerate(record) for v in _views(item, inputs, f"{path}[{k}]")]
    if dataclasses.is_dataclass(record):
        return [v for f in dataclasses.fields(record)
                for v in _views(getattr(record, f.name), inputs, f"{path}.{f.name}")]
    return []


def _grid():
    return factory.construct(quat.ONE, quat.QK, G1, G2, X, X, dgamma1=DG1, dgamma2=DG2)


def _fd_grid():
    g = _grid()
    return factory.ImmersionGrid(g.x1, g.x2, g.X, g.Y)


def _torus_curves():
    return (_great_circle([0, 0, 1], [1, 0, 0], False),
            _great_circle([0, 0, -1], [0, 1, 0], True))


def _lift():
    curve = sphere.reparametrize(sphere.latitude_circle([0.0, 0.0, 1.0], 1.0, n=257))
    start = sphere.hopf_preimage([0.0, 0.0, 1.0], curve.samples[0], "left")
    return sphere.horizontal_lift(curve, [0.0, 0.0, 1.0], "left", start, step=1e-2)


def _period_factors():
    return factory.Factorization(quat.ONE, quat.QK, G1, G2,
                                 t1_range=(0.0, 2 * math.pi), t2_range=(0.0, 2 * math.pi))


def _theta_grid():
    x = np.linspace(-0.5, 0.5, 33)
    arg = 1.2 * (x[None, :] - 0.3 * x[:, None]) + 1.5
    return cec.ThetaGrid(x, x, np.arctan(np.sinh(arg)), 1.0)


# name: (inputs, call); the call takes the inputs and returns the record
CALLS = {
    "construct": (lambda: (X, X), lambda x1, x2: factory.construct(
        quat.ONE, quat.QK, G1, G2, x1, x2, dgamma1=DG1, dgamma2=DG2)),
    "from_theta": (lambda: (X, X), lambda x1, x2: factory.from_theta(
        0.7, lambda t: 0.2 * np.sin(t), lambda t: 0.1 * np.cos(t), x1, x2, step=1e-2)),
    "factorize": (lambda: (_grid(),), factory.factorize),
    "factorize.fd": (lambda: (_fd_grid(),), factory.factorize),
    "lie_factorize": (lambda: (X, X, _grid().X), factory.lie_factorize),
    "angle_function": (lambda: (_grid(),), factory.angle_function),
    "angle_function.fd": (lambda: (_fd_grid(),), factory.angle_function),
    **{f"asymptotic_frame.{kind}{index}": (
        lambda make=make: (make(),),
        lambda grid, index=index: factory.asymptotic_frame(grid, index))
       for kind, make in (("", _grid), ("fd", _fd_grid)) for index in (1, 2)},
    "torus_ansatz": (_torus_curves, lambda c1, c2: factory.torus_ansatz(
        quat.ONE, quat.QK, c1, c2, n1=17, n2=17, step=1e-2)),
    "period_lattice": (lambda: (_period_factors(),), factory.period_lattice),
    "gauss_map": (lambda: (_period_factors(),), factory.gauss_map),
    "reparametrize": (lambda: (sphere.latitude_circle([0.0, 1.0, 0.0], 0.8, n=129),),
                      lambda curve: sphere.reparametrize(curve, n=200)),
    "horizontal_lift": (lambda: (), _lift),
    "holonomy": (lambda: (_lift(),), lambda lift: sphere.holonomy(lift, lift.params[-1])),
    "pseudosphere_patch": (lambda: (), lambda: cec.pseudosphere_patch(17)),
    "hyperbolic_cylinder_patch": (lambda: (), lambda: cec.hyperbolic_cylinder_patch(0.7, 17)),
    "fundamental_forms": (lambda: (cec.pseudosphere_patch(17),), cec.fundamental_forms),
    "gauss_lift": (lambda: (cec.hyperbolic_cylinder_patch(0.7, 17),),
                   lambda patch: cec.gauss_lift(patch, 1.0)),
    "flat_metric": (lambda: (cec.pseudosphere_patch(17),),
                    lambda patch: cec.flat_metric(patch, 1.0, "+", tol=1e-2)),
    "chebyshev_forms": (lambda: (_theta_grid(),), cec.chebyshev_forms),
    "sine_gordon_residual": (lambda: (_theta_grid(),), cec.sine_gordon_residual),
    "hazzidaki": (lambda: (_theta_grid(),), cec.hazzidaki),
    "frame_at": (lambda: (contact.BasePoint(contact.AmbientForm4((1, 1, 1, -1), -1),
                                            (0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0)),),
                 contact.frame_at),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_returned_records_own_their_arrays(name):
    make_inputs, call = CALLS[name]
    inputs = make_inputs()
    record = call(*inputs)
    held = [a for obj in inputs for a in _arrays(obj)]
    assert _views(record, held) == []
