"""Isolated timings of field, similarity, Adam and phantom kernels at one cube side.

Prints the min-of-N wall time of the trilinear plan's forward (its
set-up and corner blend, each call given a fresh untimed copy of the
coordinates, which it writes its fractions over), its full vjp and its coordinate-only vjp for a
1-, 3- and 4-channel image sampled at every node of an n^3 grid; of the
loss's shared plan (a 3-channel field and a 1-channel
image sampled at the same points) and its vjp for the field's and the
points' adjoints, as the loss asks for them; of the pyramid's
``upsample_sum`` forward and vjp (quarter, half and full grid of the same
side); of one ``adam`` step of a side-n model's six keys (both
directions' three grids, the gradients laid out as ``upsample_sum``'s vjp
leaves them, after a first, untimed step that makes the moments); of the
forward and vjp of the two similarity ops built on box means: the
MIND_SSC term (``mind_ssc_loss``) and the LNCC map (``lncc_map``), each of
a random n^3 image against a fixed one; and of the inverse-consistency
penalty op (``consistency``, ``losses._consistency_of``) of a random
3-channel n^3 composed displacement. The ``box_mean LNCC`` row times the
box mean (``tape._box_mean``, forward) and its transpose
(``tape._box_mean_t``, vjp) alone, on a 1-channel LNCC volume at window
radius 2. A box mean and its transpose consume the buffer they are given
(the spatial axes are the three before the last), so each call gets a
fresh untimed copy.
The ``phantom noise`` row times the forward of ``synthetic._smooth_noise``
(no vjp: the phantom is not differentiated), the background's 16 passes
on the (2n - 1)^3 grid a side-n phantom is rendered on; each axis pass is
the box mean's window sum (``tape._box_sum_axis``) at radius 1. The
``make_phantom`` row times the whole phantom of side n (seed 7, 4
structures, as ``synth`` makes it), forward only: both noise volumes and
the structures over their bounding boxes. It is printed for sides of 16
or more, the smallest phantom.

The tool takes the CLI's process set-up (``cli._keep_heap_resident``):
freed memory stays in the heap, so that the arrays of one step do not
page-fault in again in the next (without it, 64^3 timings read about 1.6x
high), and OpenBLAS runs on one thread, so that the second core is free
for the worker half of every point-wise pass over a grid of 2^16 points
or more (``tape._in_halves``): a plan's forward and projection, a window
sum, the phantom's divide and an Adam key. A 32^3 grid has 32,768
points, so at side 32 only the phantom's passes split (its 63^3 grid has
250,047 points); at side 64 every such pass splits but Adam's updates of
the quarter and half grids.

Run: PYTHONPATH=src python3 tools/kernel_times.py [--side 64] [--repeats 5]
"""

import argparse
import time

import numpy as np

from deformreg.cli import _keep_heap_resident
from deformreg.losses import _consistency_of
from deformreg.pipeline import DIRECTIONS, STAGE_COUNT, Adam, build_model, stage_grid_dims
from deformreg.similarity import (SimilarityConfig, fixed_side, lncc_map_nodes,
                                  mind_ssc_loss_nodes)
from deformreg.synthetic import _SUPERSAMPLE, _smooth_noise, make_phantom
from deformreg.tape import Tape, _box_mean, _box_mean_t, _TrilinearPlan
from deformreg.tensor import Tensor3, displaced_axes


def best_ms(fn, repeats: int, setup=None) -> float:
    """The smallest wall time of ``repeats`` calls of ``fn``, in ms; with
    ``setup``, of ``fn(setup())``, each with a fresh untimed ``setup()``."""
    times = []
    for _ in range(repeats):
        args = () if setup is None else (setup(),)
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def fresh(coords) -> list[np.ndarray]:
    """Copies of ``coords``: a plan writes its fractions over the
    coordinates it is given."""
    return [c.copy() for c in coords]


def trilinear_times(n: int, channels: int, repeats: int, rng) -> dict[str, float]:
    img = rng.uniform(-1.0, 1.0, size=(n, n, n, channels))
    coords = displaced_axes(rng.uniform(-0.05, 0.05, size=(n, n, n, 3)))
    g = rng.normal(size=(n, n, n, channels))
    plan = _TrilinearPlan((img,), fresh(coords))
    return {"forward": best_ms(lambda c: _TrilinearPlan((img,), c), repeats,
                               setup=lambda: fresh(coords)),
            "vjp": best_ms(lambda: plan.vjp((g,), (True,), True), repeats),
            "coordinate vjp": best_ms(lambda: plan.vjp((g,), (False,), True), repeats)}


def shared_plan_times(n: int, repeats: int, rng) -> dict[str, float]:
    """The loss's shared plan: u_ab (3 channels) and B (1 channel) sampled
    at the same points, and its vjp for u_ab's and the points' adjoints."""
    field = rng.uniform(-0.05, 0.05, size=(n, n, n, 3))
    img = rng.uniform(0.0, 1.0, size=(n, n, n, 1))
    coords = displaced_axes(rng.uniform(-0.05, 0.05, size=(n, n, n, 3)))
    g = (rng.normal(size=(n, n, n, 3)), rng.normal(size=(n, n, n, 1)))
    plan = _TrilinearPlan((field, img), fresh(coords))
    return {"forward": best_ms(lambda c: _TrilinearPlan((field, img), c), repeats,
                               setup=lambda: fresh(coords)),
            "vjp": best_ms(lambda: plan.vjp(g, (True, False), True), repeats)}


def upsample_times(n: int, repeats: int, rng) -> dict[str, float]:
    dims = stage_grid_dims((n, n, n))
    fields = [Tensor3(rng.uniform(-0.01, 0.01, size=(*d, 3))) for d in dims]
    g = rng.normal(size=(*dims[-1], 3))

    def forward():
        tape = Tape()
        return tape.upsample_sum(*(tape.input(f) for f in fields))

    node = forward()
    return {"forward": best_ms(forward, repeats), "vjp": best_ms(lambda: node._vjp(g), repeats)}


def adam_times(n: int, repeats: int, rng) -> dict[str, float]:
    """One Adam step of a side-n model, each direction's gradients the
    adjoints ``upsample_sum``'s vjp hands its three grids."""
    model = build_model((n, n, n))
    tape = Tape()
    node = tape.upsample_sum(*(tape.input(model.params[model.param_key("ab", stage)])
                               for stage in range(STAGE_COUNT)))
    adjoints = node._vjp(rng.normal(size=node.value.shape))
    grads = {model.param_key(direction, stage): adjoints[stage]
             for direction in DIRECTIONS for stage in range(STAGE_COUNT)}
    adam = Adam({key: 1e-3 for key in model.params})
    adam.step(model.params, grads)
    return {"forward": best_ms(lambda: adam.step(model.params, grads), repeats)}


def op_times(forward, repeats: int) -> dict[str, float]:
    """The forward of the op ``forward()`` records, and the vjp of a fresh
    one per call (a tape runs each vjp once)."""
    g = np.ones(forward().value.shape)
    return {"forward": best_ms(forward, repeats),
            "vjp": best_ms(lambda node: node._vjp(g), repeats, setup=forward)}


def similarity_times(n: int, kind: str, repeats: int, rng) -> dict[str, float]:
    """The MIND_SSC term op (``kind`` MIND_SSC) or the LNCC map (LNCC2)."""
    image, fixed = (Tensor3(rng.uniform(0.0, 1.0, size=(n, n, n, 1))) for _ in range(2))
    cfg = SimilarityConfig(kind=kind)
    side = fixed_side(fixed, cfg)

    def forward():
        tape = Tape()
        a = tape.input(image, parameter=True)
        if kind == "MIND_SSC":
            return mind_ssc_loss_nodes(tape, a, side[1], cfg)
        return lncc_map_nodes(tape, a, side, cfg)

    return op_times(forward, repeats)


def consistency_times(n: int, repeats: int, rng) -> dict[str, float]:
    """The penalty op of a 3-channel n^3 composed displacement."""
    comp = Tensor3(rng.uniform(-0.05, 0.05, size=(n, n, n, 3)))

    def forward():
        tape = Tape()
        return _consistency_of(tape, tape.input(comp, parameter=True))

    return op_times(forward, repeats)


def box_mean_times(shape: tuple, radius: int, repeats: int, rng) -> dict[str, float]:
    """``_box_mean`` and ``_box_mean_t`` of a random ``shape`` array, each
    consuming a fresh copy."""
    arr = rng.uniform(0.0, 1.0, size=shape)
    return {"forward": best_ms(lambda x: _box_mean(x, radius), repeats, setup=arr.copy),
            "vjp": best_ms(lambda g: _box_mean_t(g, radius), repeats, setup=arr.copy)}


def phantom_noise_times(n: int, repeats: int) -> dict[str, float]:
    """``_smooth_noise`` with the background's passes on a side-n
    phantom's supersampled grid, its uniform draw included."""
    dims = ((n - 1) * _SUPERSAMPLE + 1,) * 3
    passes = 4 * _SUPERSAMPLE**2
    return {"forward": best_ms(lambda: _smooth_noise(np.random.default_rng(0), dims, passes),
                               repeats)}


def phantom_times(n: int, repeats: int) -> dict[str, float]:
    """``make_phantom`` of side n with ``synth``'s seed and structures."""
    return {"forward": best_ms(lambda: make_phantom(7, (n, n, n), 4), repeats)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", type=int, default=64, help="cube side n of the n^3 grid")
    parser.add_argument("--repeats", type=int, default=5, help="calls per timing; the min is shown")
    args = parser.parse_args(argv)
    if args.side < 2 or args.repeats < 1:
        parser.error("--side must be >= 2 and --repeats >= 1")
    _keep_heap_resident()
    rng = np.random.default_rng(0)
    rows = [(f"trilinear C={c}", trilinear_times(args.side, c, args.repeats, rng))
            for c in (1, 3, 4)]
    rows.append(("shared 3+1", shared_plan_times(args.side, args.repeats, rng)))
    rows.append(("upsample_sum", upsample_times(args.side, args.repeats, rng)))
    rows.append(("adam", adam_times(args.side, args.repeats, rng)))
    rows += [(name, similarity_times(args.side, kind, args.repeats, rng))
             for name, kind in (("mind_ssc_loss", "MIND_SSC"), ("lncc_map", "LNCC2"))]
    rows.append(("consistency", consistency_times(args.side, args.repeats, rng)))
    n = args.side
    rows += [("box_mean LNCC", box_mean_times((n, n, n, 1), 2, args.repeats, rng)),
             ("phantom noise", phantom_noise_times(n, args.repeats))]
    if n >= 16:
        rows.append(("make_phantom", phantom_times(n, args.repeats)))
    print(f"{args.side}^3, min of {args.repeats} (ms)")
    for name, times in rows:
        print(f"{name:15}" + "".join(f"  {key} {ms:8.2f}" for key, ms in times.items()))


if __name__ == "__main__":
    main()
