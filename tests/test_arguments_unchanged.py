"""Library calls leave their arguments unchanged.

Label grids, landmark points and plain point arrays are writable arrays
that the caller still holds after a call; every array an argument holds
must keep its identity and its contents.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from deformreg import (
    DisplacementField,
    LossConfig,
    ModalityRemap,
    OptimizerConfig,
    Tensor3,
    build_model,
    compose,
    dice,
    evaluate_pair,
    instance_optimize,
    loss_breakdown,
    make_deformation,
    make_phantom,
    mtre,
    render_pair,
    sample_trilinear_values,
    warp,
    warp_nearest,
)
from deformreg.transforms import inverse_displacement


def held_arrays(obj) -> list[np.ndarray]:
    """Every numpy array ``obj`` holds, in a fixed order."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, Tensor3):
        return [obj.data]
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in held_arrays(item)]
    return []


@pytest.fixture(scope="module")
def task():
    phantom = make_phantom(3, (16, 16, 16), n_structures=2)
    field = make_deformation(4, (16, 16, 16), 0.03)
    other_field = make_deformation(6, (12, 12, 12), 0.02)
    a, b, truth = render_pair(phantom, ModalityRemap("identity"), ModalityRemap("invert"), field)
    model = build_model((16, 16, 16))
    model.params["ab2"] = Tensor3(np.full((16, 16, 16, 3), 0.01))
    rng = np.random.default_rng(5)
    points = rng.uniform(0.2, 0.8, (6, 3))
    # full-shape, C-contiguous coordinate arrays: the kind a plan writes over
    coords = [np.ascontiguousarray(c) for c in rng.uniform(-0.1, 1.1, (3, 5, 4, 3))]
    return SimpleNamespace(phantom=phantom, field=field, other_field=other_field, a=a, b=b,
                           truth=truth, model=model, points=points, coords=coords)


# name -> (function, positional arguments) built from the task
CALLS = {
    "render_pair": lambda t: (
        render_pair, (t.phantom, ModalityRemap("sigmoid"), ModalityRemap("invert"), t.field)),
    "evaluate_pair": lambda t: (
        evaluate_pair, (t.field, t.truth.labels_a, t.truth.labels_b, t.truth.landmarks_a,
                        t.truth.landmarks_b, t.a.geometry)),
    "dice": lambda t: (dice, (t.truth.labels_a, t.truth.labels_b)),
    "mtre": lambda t: (mtre, (t.truth.landmarks_a, t.truth.landmarks_b, t.field, t.a.geometry)),
    "warp_nearest": lambda t: (warp_nearest, (t.truth.labels_a, t.field)),
    "inverse_displacement": lambda t: (inverse_displacement, (t.field, t.points)),
    "map_points": lambda t: (DisplacementField.map_points, (t.field, t.points)),
    "sample_trilinear_values": lambda t: (sample_trilinear_values, (t.a.grid.data, t.coords)),
    "compose": lambda t: (compose, (t.field, t.other_field)),
    "warp": lambda t: (warp, (t.a, t.field)),
    "instance_optimize": lambda t: (
        instance_optimize, (t.a, t.b, LossConfig(), OptimizerConfig(steps=2))),
    "loss_breakdown": lambda t: (loss_breakdown, (t.a, t.b, t.model, LossConfig())),
}


@pytest.mark.parametrize("name", CALLS)
def test_call_leaves_its_arguments_unchanged(task, name):
    function, args = CALLS[name](task)
    before = [(a, a.copy()) for a in held_arrays(args)]
    function(*args)
    after = held_arrays(args)
    assert len(after) == len(before)
    for now, (then, copy) in zip(after, before):
        assert now is then and np.array_equal(now, copy)
