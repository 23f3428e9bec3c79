"""Reverse-mode automatic differentiation over dense 3D tensor operations.

The op set is deliberately small: elementwise arithmetic, reductions
(``sum_squares`` among them: a sum or mean of squares that keeps no
square for the sweep), count-normalized box filtering and pooling,
central-difference spatial gradients at interior nodes, edge-clamped
trilinear sampling at x + u(x) for a displacement u, the sum of fields
upsampled to the nodes of a finer grid, integer shifts and border crops.
That is enough to express and differentiate every registration loss in
this package with respect to displacement parameters. The LNCC map
(``"lncc_map"``), the MIND-SSC descriptor (``"mind_ssc"``) and the MIND_SSC
term (``"mind_ssc_loss"``) are ops of their own with hand-written vjps,
recorded through ``_append`` by the similarity module, which builds each
fixed side in plain numpy (``sum_squares``' ``minus`` serves the MSE term,
which subtracts its fixed image there). So
``sub``, ``mul``, ``div``, ``sqrt``, ``sum``, ``square``, ``box_filter``,
``avg_pool2``, ``crop_border``, ``shift``, ``exp``, ``clamp``,
``concat_channels`` and ``spatial_gradient`` have no caller in the
package; the tests build reference graphs from them and the benchmark's
tracer binds them by name. The inverse-consistency penalty is one op
(``"consistency"``) of the loss module that keeps only its operand: its
gradient is bitwise that of ``spatial_gradient`` -> ``sum_squares`` ->
``scale``, and its value is summed axis by axis.

Every box mean (the LNCC map, MIND-SSC, their fixed sides and
``box_filter``) runs one kernel: ``_box_sum_axis`` adds each shifted term
of a window sum in one pass over the flat C-contiguous array and sums the
end slabs again by slices. The phantom's noise smoothing
(``synthetic._smooth_noise``) runs it too, at radius 1, and redoes the
two end rows with periodic neighbors. ``_box_mean`` and its transpose own
their normalization: each scales once by the cached reciprocal counts
(``_box_scale``), after or before its sums, so no caller holds a scale.
One buffer rule holds for both: a box mean and its transpose consume the
buffer they are given; the spatial axes are the three before the last.

One split rule runs the point-wise passes on both cores: a pass over a
grid of ``_SPLIT_POINTS`` = 2^16 points or more runs in two halves, the
upper on a worker thread (``_in_halves``), and each half writes only its
own slice of the result, in the order of operations of one pass, so the
bits are those of one pass. The passes are a window sum's flat body, the
flat passes of ``_flat_in_halves`` (the phantom noise's divide and the
pipeline's Adam update), all counting the spatial axes, not the planes
of a stack or the channels, and a trilinear plan's forward and its
coordinate projection, counting the plan's points. So every 64^3 grid
and a 32^3 phantom's 63^3 grid split, and no 32^3 grid does: a 32^3
registration step, its 12-plane MIND-SSC stack included, starts no
thread (README gives the reasons).

One recorder, ``trilinear_samples``, samples images on one grid at displaced
points through one ``_TrilinearPlan``; ``trilinear_sample`` is its one-image
case and ``sample_trilinear_values`` the plan's plain one. Node values reach
another grid's nodes through one interpolation matrix per axis, with no
gather, and only in ``upsample_sum``: one stacked matrix product over the
fine grid per direction (forward and vjp) serves all its coarse grids, and
one field resampled up or down (``transforms.resample_field_to``) is its
one-grid case onto a zero field, on a throwaway tape.

Samplers take coordinates per axis: three normalized arrays that broadcast
to the point shape, e.g. ``tensor.node_axes`` or ``tensor.displaced_axes``;
(..., 3) points pass ``np.moveaxis(points, -1, 0)``. A plan writes each
axis's fractions over the coordinates it is given: ``trilinear_samples``
and the package's own plain samplers (``transforms.warp``, ``compose``
and ``inverse_displacement``, ``synthetic.render_pair``) hand it the
fresh arrays they built, ``sample_trilinear_values`` copies of its
caller's.

Epsilon policy: raw ``div``/``sqrt`` (and the LNCC map, which keeps
``sqrt``'s guard and message) reject non-positive operands. Losses that need
stabilizing add an explicit epsilon inside the radicand or denominator
before calling them (see the similarity module), so there is exactly one
documented epsilon per formula and finite-difference oracles can
reproduce it.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading

import numpy as np

from .tensor import ConfigError, Tensor3, TensorError, displaced_axes, node_axes


class Node:
    """One tape entry: an op, its parent nodes, its value, and (during a
    backward pass) its adjoint. ``needs_grad`` marks nodes on a path from
    a parameter so the reverse sweep can skip dead branches. The vjp maps
    the adjoint to one contribution per parent, in parent order, None
    where it skipped one. Backward consumes the tape; see ``Tape``."""

    __slots__ = ("id", "op", "parents", "value", "adjoint", "needs_grad", "_vjp")

    def __init__(self, node_id, op, parents, value, vjp, needs_grad):
        self.id = node_id
        self.op = op
        self.parents = parents
        self.value = value
        self.adjoint = None
        self.needs_grad = needs_grad
        self._vjp = vjp

    def __repr__(self):
        return f"Node(id={self.id}, op={self.op!r}, shape={getattr(self.value, 'shape', None)})"


def _box_sum_axis(arr: np.ndarray, axis: int, radius: int, out: np.ndarray) -> np.ndarray:
    """Sliding-window sum of radius r along one axis, truncated at edges:
    out[i] = sum of arr[j] over |j - i| <= r, 0 <= j < n.

    ``out`` (never ``arr`` itself) gets, at each i, arr[i] + arr[i-1],
    then arr[i+1], arr[i-2], arr[i+2], ... added in that order, each term
    that stays inside the axis. When ``arr`` and ``out`` are both
    C-contiguous and 2r < n, each term is one pass over the flat arrays, a
    shift by k * (the product of the dims after ``axis``), so the last
    axis runs as one long contiguous pass too; then the first r and the
    last r slabs along the axis, which took neighbors across the axis
    ends, are summed again by shifted slices (``_box_rows``), in the same
    order, so both forms give the same bits. Otherwise (a non-contiguous
    ``out`` reshapes to a copy, not a view) every slab is summed by
    shifted slices. The flat body splits by the one rule (``_in_halves``);
    each output keeps its order of adds. The stencil is symmetric, so the
    same sum is its own transpose and serves ``box_filter``'s vjp too.
    Needs r >= 1.
    """
    src, dst = np.moveaxis(arr, axis, 0), np.moveaxis(out, axis, 0)
    n = src.shape[0]
    if 2 * radius >= n or not (arr.flags.c_contiguous and out.flags.c_contiguous):
        _box_rows(src, dst, radius, 0, n)
        return out
    flat, flat_out = arr.reshape(-1), out.reshape(-1)
    step = math.prod(arr.shape[axis + 1:])
    lo = radius * step

    def part(s):
        i, j = lo + s.start, lo + s.stop
        body = flat_out[i:j]
        np.add(flat[i:j], flat[i - step:j - step], out=body)
        body += flat[i + step:j + step]
        for k in range(2, radius + 1):
            body += flat[i - k * step:j - k * step]
            body += flat[i + k * step:j + k * step]

    _in_halves(part, arr.size - 2 * lo, _grid_points(arr))
    _box_rows(src, dst, radius, 0, radius)
    _box_rows(src, dst, radius, n - radius, n)
    return out


def _box_rows(src: np.ndarray, dst: np.ndarray, radius: int, lo: int, hi: int):
    """Rows lo..hi-1 (along axis 0) of ``_box_sum_axis`` from ``src`` into
    ``dst``, by shifted slices: each row's terms in the order it gives (row
    0 starts with arr[0] + arr[1], its first neighbor inside the axis)."""
    n = src.shape[0]
    start, stop = max(lo, 1), min(hi, n - 1)
    if lo == 0 and n == 1:
        dst[0] = src[0]
    elif lo == 0:
        np.add(src[0], src[1], out=dst[0])
    np.add(src[start:hi], src[start - 1:hi - 1], out=dst[start:hi])
    dst[start:stop] += src[start + 1:stop + 1]
    for k in range(2, min(radius, n - 1) + 1):
        start, stop = max(lo, k), min(hi, n - k)
        dst[start:hi] += src[start - k:hi - k]
        dst[lo:stop] += src[lo + k:stop + k]


def _box_counts(n: int, radius: int) -> np.ndarray:
    i, r = np.arange(n), min(radius, n)  # any wider window holds the whole axis too
    return np.minimum(i + r, n - 1) - np.maximum(i - r, 0) + 1.0


@functools.lru_cache(maxsize=4)
def _box_scale(dims: tuple, radius: int) -> np.ndarray:
    """The product of the per-axis reciprocal box counts on a ``dims`` grid
    (1 / each window's voxel count), shaped ``dims + (1,)`` to broadcast
    over the channel axis, cached and read-only. The box mean and its
    transpose fetch it; a registration reads one or two of them a step."""
    rx, ry, rz = (1.0 / _box_counts(n, radius) for n in dims)
    scale = rx[:, None, None] * ry[None, :, None] * rz[None, None, :]
    scale = scale.reshape(dims + (1,))
    scale.setflags(write=False)
    return scale


def _box_sums(arr: np.ndarray, radius: int) -> np.ndarray:
    """The three axis sums of a box mean over the spatial axes of ``arr``
    (the three before the last): from ``arr`` into a fresh array, back
    into ``arr`` and into the fresh one again, which it returns."""
    out, first = np.empty(arr.shape), arr.ndim - 4
    _box_sum_axis(arr, first, radius, out)
    _box_sum_axis(out, first + 1, radius, arr)
    return _box_sum_axis(arr, first + 2, radius, out)


def _box_mean(arr: np.ndarray, radius: int) -> np.ndarray:
    """Count-normalized box mean of ``arr`` (..., nx, ny, nz, C): the axis
    sums (``_box_sums``, which consume ``arr``), then one in-place multiply
    by the cached reciprocal counts (``_box_scale``)."""
    out = _box_sums(arr, radius)
    out *= _box_scale(arr.shape[-4:-1], radius)
    return out


def _box_mean_t(g: np.ndarray, radius: int) -> np.ndarray:
    """The transpose of ``_box_mean`` applied to ``g``: one in-place
    multiply by the same reciprocal counts, then the three axis sums (the
    sum is symmetric). Consumes ``g``, like ``_box_mean`` its input."""
    g *= _box_scale(g.shape[-4:-1], radius)
    return _box_sums(g, radius)


def _pool2_sum_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    """Pairwise sum along one axis; a trailing odd element forms its own bin."""
    a = np.moveaxis(arr, axis, 0)
    n = a.shape[0]
    nev = (n // 2) * 2
    out = a[0:nev:2] + a[1:nev:2]
    if n % 2:
        out = np.concatenate([out, a[n - 1 : n]], axis=0)
    return np.moveaxis(out, 0, axis)


def _pool2_counts(n: int) -> np.ndarray:
    c = np.full((n + 1) // 2, 2.0)
    if n % 2:
        c[-1] = 1.0
    return c


def _central_stencils(shape) -> list[tuple]:
    """Per spatial axis of an array of ``shape``, its central differences
    at the interior nodes as (up, down, 2h): the interior slices shifted one
    node up and one down along the axis, and 2h for the node spacing
    h = 1 / (n - 1), formed as np.gradient forms it."""
    stencils = []
    for axis in range(3):
        up, down = [slice(1, -1)] * 3, [slice(1, -1)] * 3
        up[axis], down[axis] = slice(2, None), slice(None, -2)
        stencils.append((tuple(up), tuple(down), 2.0 * (1.0 / (shape[axis] - 1))))
    return stencils


# the 8 interpolation corners as (bx, by, bz) offset bits; corner k has
# bits k = bx << 2 | by << 1 | bz
_CORNERS = tuple((bx, by, bz) for bx in (0, 1) for by in (0, 1) for bz in (0, 1))


def _planes(arr: np.ndarray) -> list[np.ndarray]:
    """The channels of a (..., C) array as C contiguous flat arrays."""
    return [np.ascontiguousarray(arr[..., c]).ravel() for c in range(arr.shape[-1])]


# the split rule's cutoff in grid points (see the module docstring);
# below it a thread costs more than it saves
_SPLIT_POINTS = 1 << 16


def _grid_points(arr: np.ndarray) -> int:
    """The grid points of ``arr``: the product of its spatial axes, the
    three before the last."""
    return math.prod(arr.shape[-4:-1])


def _in_halves(part, n: int, points: int) -> None:
    """Run ``part(s)`` over slices ``s`` that cover range(n): in one pass
    for a grid of fewer than ``_SPLIT_POINTS`` ``points``, else the upper
    half on a worker thread while the caller runs the lower. The worker
    runs under the caller's numpy error state (``np.errstate`` is per
    thread), so a half warns, raises or keeps quiet as one pass would.
    Both halves end before this returns; an exception of the worker's is
    raised here. The cutoff is read at call time, so a test can lower it."""
    if points < _SPLIT_POINTS:
        part(slice(0, n))
        return
    mid, errors, err = n // 2, [], np.geterr()

    def upper():
        try:
            with np.errstate(**err):
                part(slice(mid, n))
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            errors.append(exc)

    worker = threading.Thread(target=upper)
    worker.start()
    try:
        part(slice(0, mid))
    finally:
        worker.join()
    if errors:
        raise errors[0]


def _flat_in_halves(fn, *arrays) -> None:
    """``fn`` on matching slices of the flat views of ``arrays`` (same
    shape, C-contiguous), split by their grid (``_grid_points``) as
    ``_in_halves`` splits: the phantom noise's divide and Adam's update."""
    flat = [a.reshape(-1) for a in arrays]
    _in_halves(lambda s: fn(*[a[s] for a in flat]), flat[0].size, _grid_points(arrays[0]))


class _TrilinearPlan:
    """Edge-clamped trilinear sample of each of ``imgs`` (nx, ny, nz, C_k),
    all on one grid, at the normalized per-axis ``coords`` (three float64
    arrays that broadcast to the point shape), kept for the vjp. The plan
    owns ``coords``: it writes each axis's fractions over a point-shaped
    C-contiguous one, so a caller that keeps its coordinates hands copies.

    Coordinates are clamped to [0,1] and mapped onto node index space
    (node i at i/(n-1)). The plan keeps only what the 8 corners derive
    from: the images by reference (on the tape they are the parent nodes'
    read-only data, so nothing is copied), the flat index ``base`` of each
    point's low corner, one flat stride per axis (0 on a length-1 axis,
    where both corners coincide), the three fractions, and the three masks
    that are False where the raw coordinate left the domain (the clamp
    makes the sampled value constant there): 35 bytes a point, however
    many images share them. It also holds the sampled values ``out`` (one
    array per image) until a caller takes them; no vjp reads them, so the
    tape does not leave them there. Corner (bx, by, bz) sits
    ``bx*sx + by*sy + bz*sz`` past ``base`` with weight
    ``w0[bx]*w1[by]*w2[bz]``, ``w = (1 - f, f)``.

    Every pass works on one channel at a time, as contiguous flat arrays:
    over (..., C) rows each gather, product and reduction runs numpy's
    inner loop over the short channel axis, at several times the cost of
    the arithmetic. A corner gathers with ``base`` from the view of a
    channel plane that starts at the corner's offset, so no corner builds
    an index array of its own. Weights and the images' channel planes are
    rebuilt where a pass needs them instead of being held until the vjp.

    The forward locates each point (inside mask, clip, snap, low corner's
    index, fraction) and blends its corners from its own coordinates
    alone, so it splits by the one rule (``_in_halves``) as one pass over
    each half of the flat points; so does the coordinate projection. The
    image adjoint's ``bincount`` scatter sums over points, so it stays
    whole, on the caller, before the projection starts (beside it, both
    would hold their temporaries).
    """

    __slots__ = ("imgs", "base", "strides", "fracs", "inside", "out")

    def __init__(self, imgs, coords):
        self.imgs = list(imgs)
        shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
        # the fractions are written over a point-shaped C-contiguous array
        # itself (its flat view) and over a C-ordered copy of any other
        self.fracs = [(c if np.shape(c) == shape and c.flags.c_contiguous
                       else np.array(np.broadcast_to(c, shape), order="C")).reshape(-1)
                      for c in coords]
        size, (nx, ny, nz) = self.fracs[0].size, self.imgs[0].shape[:3]
        self.strides = [stride if n > 1 else 0 for n, stride in ((nx, ny * nz), (ny, nz), (nz, 1))]
        self.base = np.empty(size, dtype=np.int64)
        self.inside = [np.empty(size, dtype=bool) for _ in range(3)]
        planes = [plane for im in self.imgs for plane in _planes(im)]
        sums = [np.empty(size) for _ in planes]
        _in_halves(functools.partial(self._forward, planes, sums), size, size)
        del planes  # before the outputs are stacked
        self.out = []
        for im in self.imgs:
            self.out.append(np.stack(sums[: im.shape[3]], axis=-1).reshape(*shape, im.shape[3]))
            del sums[: im.shape[3]]

    def _forward(self, planes, sums, s: slice) -> None:
        """Locate the points ``s`` into ``base``, ``inside`` and ``fracs``,
        each axis's fractions written over its coordinates, then write each
        channel plane's weighted sum of its values at their 8 corners into
        ``sums``."""
        base = self.base[s]
        for axis, (p, n, stride) in enumerate(zip(self.fracs, self.imgs[0].shape, self.strides)):
            p, inside = p[s], self.inside[axis][s]
            # False where the clamp moves the coordinate
            np.greater_equal(p, 0.0, out=inside)
            inside &= p <= 1.0
            np.clip(p, 0.0, 1.0, out=p)
            p *= n - 1
            # snap to the node when within 1e-9 index units so sampling at
            # voxel centers reproduces stored values exactly
            node = np.round(p)
            gap = np.subtract(p, node)
            np.abs(gap, out=gap)
            np.copyto(p, node, where=gap < 1e-9)
            del node, gap
            # the first axis's index is cast straight into base
            i0 = np.empty(p.size, dtype=np.int64) if axis else base
            np.copyto(i0, p, casting="unsafe")
            np.minimum(i0, max(n - 2, 0), out=i0)
            p -= i0
            if stride != 1:
                i0 *= stride
            if axis:
                base += i0
            del p, inside, i0
        w = self._weights(s)
        for k, ((_, _, bz), off, w01) in enumerate(self._corners(w)):
            weight = w01 * w[2][bz]
            for plane, acc in zip(planes, sums):
                term = plane[off:].take(base)
                if k:
                    term *= weight
                    acc[s] += term
                else:
                    np.multiply(term, weight, out=acc[s])

    def _weights(self, s: slice):
        """The per-axis weights ``(1 - f, f)`` of the points ``s``."""
        return [(1.0 - f[s], f[s]) for f in self.fracs]

    def _corners(self, w):
        """Yield each corner's bits, its flat offset from ``base`` and
        ``w0[bx] * w1[by]`` (formed once per (bx, by)), in ``_CORNERS``
        order, for the per-axis weights ``w``."""
        sx, sy, sz = self.strides
        for bx, by, bz in _CORNERS:
            if not bz:
                w01 = w[0][bx] * w[1][by]
            yield (bx, by, bz), bx * sx + by * sy + bz * sz, w01

    def vjp(self, g, want_image, want_coords: bool):
        """The images' adjoints, then the coordinates', for the output
        adjoints ``g`` (one (..., C_k) array per image, None for an image
        whose output got no adjoint), None where not wanted (``want_image``
        has one flag per image).

        The image half scatters ``w * g`` per channel with ``bincount``
        into the slice of the flat adjoint that starts at the corner's
        offset. The coordinate half (``_project``) then projects the
        corners onto the adjoints of every image at once. Each result is a
        view of a component-major array."""
        points = next(g_k.shape[:-1] for g_k in g if g_k is not None)
        size = self.imgs[0].size // self.imgs[0].shape[3]
        g_planes = [None if g_k is None else _planes(g_k) for g_k in g]
        g_images = [np.zeros((len(g_c), size)) if want and g_c is not None else None
                    for want, g_c in zip(want_image, g_planes)]
        scatter = [pair for acc, g_c in zip(g_images, g_planes) if acc is not None
                   for pair in zip(acc, g_c)]
        if scatter:
            w = self._weights(slice(None))
            for (_, _, bz), off, w01 in self._corners(w):
                weight = w01 * w[2][bz]
                for acc, g_c in scatter:
                    acc[off:] += np.bincount(self.base, weights=weight * g_c,
                                             minlength=size - off)
                del weight
            del w, w01  # the loop leaves its last w01 bound through the projection
        g_coords = None
        if want_coords:
            project = [pair for im, g_c in zip(self.imgs, g_planes) if g_c is not None
                       for pair in zip(_planes(im), g_c)]
            g_coords = np.zeros((3, self.base.size))
            _in_halves(functools.partial(self._project, project, g_coords), self.base.size,
                       self.base.size)
            g_coords = g_coords.T.reshape(*points, 3)
        return (*(None if acc is None else acc.T.reshape(im.shape)
                  for acc, im in zip(g_images, self.imgs)), g_coords)

    def _project(self, project, g_coords, s: slice):
        """Add the coordinates' adjoint at the points ``s`` into
        ``g_coords[:, s]``, for the (channel plane, adjoint plane) pairs
        ``project`` of every image.

        A corner's projection is ``p = sum_c v_c g_c`` over all those
        channels. Corners (bx, by, 0) and (bx, by, 1) go as a pair: their
        difference ``p1 - p0``, times ``w0[bx] * w1[by]``, is the z
        adjoint's term, and their z-lerp ``p0 + f2 (p1 - p0)``, times
        ``w1[by]`` or ``w0[bx]``, the x or y adjoint's, with the sign of
        the pair's bit on that axis. Each axis is then masked where the
        clamp saturates and scaled by the coordinate-to-index factor."""
        base, f2 = self.base[s], self.fracs[2][s]
        w0, w1 = ((1.0 - f[s], f[s]) for f in self.fracs[:2])
        acc = [g_coords[axis, s] for axis in range(3)]
        sx, sy, sz = self.strides
        tmp = np.empty(base.size)
        for bx, by in ((0, 0), (0, 1), (1, 0), (1, 1)):
            low, diff = (self._projection(project, base, s, bx * sx + by * sy + bz * sz)
                         for bz in (0, 1))
            diff -= low
            np.multiply(diff, f2, out=tmp)
            low += tmp
            for axis, (weight, bit) in enumerate(((w1[by], bx), (w0[bx], by))):
                np.multiply(low, weight, out=tmp)
                (np.add if bit else np.subtract)(acc[axis], tmp, out=acc[axis])
            diff *= w0[bx]
            diff *= w1[by]
            acc[2] += diff
            del low, diff
        for axis in range(3):
            acc[axis] *= self.inside[axis][s]
            acc[axis] *= self.imgs[0].shape[axis] - 1

    @staticmethod
    def _projection(project, base, s, off):
        """``sum_c v_c g_c`` at the corner ``off`` past ``base``, for the
        points ``s``."""
        proj = None
        for plane, g_c in project:
            term = plane[off:].take(base)
            term *= g_c[s]
            if proj is None:
                proj = term
            else:
                proj += term
        return proj


def sample_trilinear_values(img: np.ndarray, coords) -> np.ndarray:
    """Plain (non-tape) trilinear sampling, same kernel as the tape op.

    ``img`` is (nx, ny, nz, C); ``coords`` is three arrays of normalized
    x, y and z coordinates that broadcast to the point shape, edge-clamped
    to the unit cube (an infinite one too; a NaN raises ConfigError). The
    result is (*point shape, C). The plan gets copies of ``coords``, so
    the caller's arrays are not written.
    """
    copies = [np.array(c, dtype=np.float64, order="C") for c in _not_nan(coords)]
    return _TrilinearPlan((img,), copies).out[0]


def _not_nan(coords):
    """``coords``, which a public sampler takes from its caller, unless
    one is NaN: the index cast has no value for it, so ConfigError."""
    if any(np.isnan(c).any() for c in coords):
        raise ConfigError("sample coordinates must not be NaN")
    return coords


@functools.cache
def _node_interpolation(n: int, m: int) -> np.ndarray:
    """The (m, n) matrix that interpolates values on an axis's n nodes to
    its m nodes: row i holds the (at most 2) weights the trilinear kernel
    gives node i / (m - 1), read off by sampling the identity. Cached and
    read-only: a forward needs the same few matrices every step."""
    mat = sample_trilinear_values(np.eye(n).reshape(n, 1, 1, n), node_axes((m, 1, 1)))[:, 0, 0]
    mat.setflags(write=False)
    return mat


def sample_nearest_values(img: np.ndarray, coords) -> np.ndarray:
    """Nearest-node sampling with edge clamp, for label volumes; ``coords``
    as for ``sample_trilinear_values``."""
    return img[tuple(np.round(np.clip(c, 0.0, 1.0) * (n - 1)).astype(np.int64)
                     for c, n in zip(_not_nan(coords), img.shape[:3]))]


class Tape:
    """Single-owner op recorder with one reverse sweep per built graph.

    Backward consumes the tape (no checkpointing): each vjp closure holds
    its own operands, so the sweep drops every value but the parameters'
    and the loss's up front, then each vjp (a trilinear plan with it)
    and intermediate adjoint as it passes. One graph may span tapes: a
    node's value enters another tape as a parameter leaf, and the leaf's
    gradient from that tape's sweep, set as the node's adjoint, is added
    to by its own tape's sweep. Distinct tapes are safe on distinct
    threads.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.parameter_ids: set[int] = set()
        self._swept = False

    # -- construction -----------------------------------------------------

    def input(self, value, parameter: bool = False) -> Node:
        t = value if isinstance(value, Tensor3) else Tensor3(value)
        node = Node(
            len(self.nodes), "param" if parameter else "input", (), t, None, parameter
        )
        self.nodes.append(node)
        if parameter:
            self.parameter_ids.add(node.id)
        return node

    def _append(self, op, parents, value, vjp) -> Node:
        if isinstance(value, np.ndarray):
            value = Tensor3._wrap(value)
        needs = any(p.needs_grad for p in parents)
        node = Node(len(self.nodes), op, parents, value, vjp, needs)
        self.nodes.append(node)
        return node

    def _check_elementwise(self, op, a: Node, b: Node):
        if a.value.shape != b.value.shape:
            raise ConfigError(
                f"{op}: operand shapes differ: {a.value.shape} vs {b.value.shape}"
            )

    # -- elementwise ops ---------------------------------------------------

    def add(self, a: Node, b: Node) -> Node:
        self._check_elementwise("add", a, b)
        val = a.value.data + b.value.data
        return self._append("add", (a, b), val, lambda g: (g, g))

    def sub(self, a: Node, b: Node) -> Node:
        self._check_elementwise("sub", a, b)
        val = a.value.data - b.value.data
        return self._append("sub", (a, b), val, lambda g: (g, -g))

    def mul(self, a: Node, b: Node) -> Node:
        self._check_elementwise("mul", a, b)
        av, bv = a.value.data, b.value.data
        return self._append("mul", (a, b), av * bv, lambda g: (g * bv, g * av))

    def div(self, a: Node, b: Node) -> Node:
        self._check_elementwise("div", a, b)
        av, bv = a.value.data, b.value.data
        if np.min(bv) <= 0.0:
            raise TensorError("div: non-positive denominator (add an epsilon upstream)")
        return self._append(
            "div", (a, b), av / bv,
            lambda g: (g / bv, -g * av / (bv * bv)),
        )

    def scale(self, a: Node, k: float) -> Node:
        k = float(k)
        return self._append("scale", (a,), a.value.data * k, lambda g: (g * k,))

    def add_const(self, a: Node, k: float) -> Node:
        k = float(k)
        return self._append("add_const", (a,), a.value.data + k, lambda g: (g,))

    def square(self, a: Node) -> Node:
        av = a.value.data
        return self._append("square", (a,), av * av, lambda g: (2.0 * av * g,))

    def sqrt(self, a: Node) -> Node:
        av = a.value.data
        if np.min(av) <= 0.0:
            raise TensorError("sqrt: non-positive radicand (add an epsilon upstream)")
        rt = np.sqrt(av)
        return self._append("sqrt", (a,), rt, lambda g: (g / (2.0 * rt),))

    def exp(self, a: Node) -> Node:
        ev = np.exp(a.value.data)
        return self._append("exp", (a,), ev, lambda g: (g * ev,))

    def clamp(self, a: Node, lo: float) -> Node:
        av = a.value.data
        pass_mask = av > lo
        return self._append("clamp", (a,), np.maximum(av, lo), lambda g: (g * pass_mask,))

    def concat_channels(self, nodes: list[Node]) -> Node:
        if not nodes:
            raise ConfigError("concat_channels: need at least one node")
        dims = nodes[0].value.dims
        for n in nodes:
            if n.value.dims != dims:
                raise ConfigError(
                    f"concat_channels: spatial dims differ: {n.value.dims} vs {dims}"
                )
        val = np.concatenate([n.value.data for n in nodes], axis=3)
        splits = np.cumsum([n.value.channels for n in nodes])[:-1]
        return self._append("concat_channels", tuple(nodes), val,
                            lambda g: np.split(g, splits, axis=3))

    # -- reductions ---------------------------------------------------------

    def sum(self, a: Node) -> Node:
        shape = a.value.shape
        val = Tensor3.scalar(float(np.sum(a.value.data)))
        return self._append(
            "sum", (a,), val, lambda g: (np.full(shape, g.reshape(())),)
        )

    def mean(self, a: Node) -> Node:
        shape = a.value.shape
        n = a.value.size
        val = Tensor3.scalar(float(np.sum(a.value.data)) / n)
        return self._append(
            "mean", (a,), val, lambda g: (np.full(shape, g.reshape(()) / n),)
        )

    def sum_squares(self, a: Node, mean: bool = False, minus: Tensor3 | None = None) -> Node:
        """sum(d * d) for d = a, or d = a - ``minus``, a constant of a's
        shape, divided by a's size when ``mean``: the value and gradient of
        ``sum(square(d))`` or ``mean(square(d))``, with d a ``sub`` of an
        input when ``minus`` is given, bit for bit, without keeping the
        square or d until backward (its vjp forms d again)."""
        av = a.value.data
        if minus is not None and minus.shape != av.shape:
            raise ConfigError(f"sum_squares: minus shape {minus.shape} is not {av.shape}")
        n = av.size if mean else 1

        def d():
            return av if minus is None else av - minus.data

        def times(x, k):  # x * k, written into x when x is a fresh d
            return x * k if minus is None else np.multiply(x, k, out=x)

        x = d()
        val = Tensor3.scalar(float(np.sum(times(x, x))) / n)
        return self._append("sum_squares", (a,), val,
                            lambda g: (times(d(), 2.0 * g.reshape(()) / n),))

    # -- spatial ops ----------------------------------------------------------

    def avg_pool2(self, a: Node) -> Node:
        """Halve each spatial dim by 2x2x2 block means; a trailing odd slice
        forms a partial block averaged over the voxels it actually has."""
        av = a.value.data
        counts = 1.0
        pooled = av
        for axis in range(3):
            pooled = _pool2_sum_axis(pooled, axis)
            shape = [1] * 4
            shape[axis] = pooled.shape[axis]
            counts = counts * _pool2_counts(av.shape[axis]).reshape(shape)
        val = pooled / counts
        in_shape = av.shape

        def vjp(g):
            spread = g / counts
            for axis in range(3):
                reps = np.full(g.shape[axis], 2, dtype=np.int64)
                if in_shape[axis] % 2:
                    reps[-1] = 1
                spread = np.repeat(spread, reps, axis=axis)
            return (spread,)

        return self._append("avg_pool2", (a,), val, vjp)

    def box_filter(self, a: Node, radius: int) -> Node:
        """Separable box mean of the given radius per axis; boundary windows
        are averaged over the voxels present (count-normalized, no padding)."""
        if radius < 1:
            raise ConfigError(f"box_filter: radius must be >= 1, got {radius}")
        return self._append("box_filter", (a,), _box_mean(a.value.data.copy(), radius),
                            lambda g: (_box_mean_t(g.copy(), radius),))

    def spatial_gradient(self, a: Node) -> Node:
        """Per-channel gradient in normalized coordinates by central
        differences at the interior nodes: each spatial dim loses its two
        boundary slices. Output channel 3*c+axis holds d(channel c)/d(axis)."""
        av = a.value.data
        if min(av.shape[:3]) < 3:
            raise ConfigError(f"spatial_gradient: dims {av.shape[:3]} need >= 3 per axis")
        stencils = _central_stencils(av.shape)
        out = np.empty(tuple(n - 2 for n in av.shape[:3]) + (3 * av.shape[3],))
        for axis, (up, down, step) in enumerate(stencils):
            out[..., axis::3] = (av[up] - av[down]) / step

        shape = av.shape

        def vjp(g):
            back = np.zeros(shape)
            for axis, (up, down, step) in enumerate(stencils):
                g_axis = g[..., axis::3] / step
                back[up] += g_axis
                back[down] -= g_axis
            return (back,)

        return self._append("spatial_gradient", (a,), out, vjp)

    def trilinear_sample(self, image: Node, u: Node) -> Node:
        """Sample ``image`` at x + u(x) for each node x of the 3-channel
        displacement ``u``'s grid, normalized coordinates with edge clamp,
        differentiable in both: ``trilinear_samples`` of one image."""
        return self.trilinear_samples((image,), u)[0]

    def trilinear_samples(self, images, u: Node) -> tuple[Node, ...]:
        """Sample each of ``images`` (on one grid) at the same points
        x + u(x) through one plan. The outputs and the images' adjoints are
        bitwise those of one sample per image; u's adjoint is one projection
        over all their channels, so it differs from their sum by rounding.

        Records a plan node (parents: the images, then ``u``; a placeholder
        scalar value) and one output node per image. An output's vjp hands
        its adjoint to the plan and marks the plan node with a zero
        adjoint; the sweep reaches the plan node after every output and
        runs the plan's vjp once."""
        if not images:
            raise ConfigError("trilinear_samples: need at least one image")
        if u.value.channels != 3:
            raise ConfigError(f"trilinear_samples: displacement needs 3 channels, "
                              f"got {u.value.channels}")
        dims = images[0].value.dims
        for image in images:
            if image.value.dims != dims:
                raise ConfigError(f"trilinear_samples: image dims differ: "
                                  f"{image.value.dims} vs {dims}")
        plan = _TrilinearPlan([image.value.data for image in images], displaced_axes(u.value.data))
        outs, plan.out = plan.out, None
        handed, wants = [None] * len(images), [image.needs_grad for image in images]
        node = self._append("trilinear_sample", (*images, u), Tensor3.scalar(0.0),
                            lambda _: plan.vjp(handed, wants, u.needs_grad))

        def hand(k):
            def vjp(g):
                handed[k] = g
                return (np.zeros((1, 1, 1, 1)),)
            return vjp

        return tuple(self._append("trilinear_output", (node,), out, hand(k))
                     for k, out in enumerate(outs))

    def upsample_sum(self, *fields: Node) -> Node:
        """The sum of ``fields`` on the grid of the last one: each other
        field is first interpolated to that grid's nodes, one (m, n)
        matrix per axis (``trilinear_sample``'s values at those nodes, up
        to rounding, with no gather). Each coarse grid's axes 2 and 1 go
        to the fine nodes by contiguous matmuls, into that grid's rows of
        one stacked (sum of n0, N1, N2 C) buffer; one product with the
        grids' axis-0 matrices side by side sums them, and the last field
        is added in place: s + (up(q) + up(h)). Linear, so the vjp keeps
        only the matrices and dims: one product of the side-by-side
        matrix's transpose with ``g``, then each grid's two inner
        transposes; the last field's adjoint is ``g``. A "coarse" grid
        may be finer than the last: it is resampled down."""
        if not fields:
            raise ConfigError("upsample_sum: need at least one field")
        *coarse, fine = fields
        for f in coarse:
            if f.value.channels != fine.value.channels:
                raise ConfigError(f"upsample_sum: channels differ: {f.value.channels} "
                                  f"vs {fine.value.channels}")
        (nx, ny, nz), c = fine.value.dims, fine.value.channels
        dims = [f.value.dims for f in coarse]
        mats = [[_node_interpolation(n, m) for n, m in zip(d, fine.value.dims)] for d in dims]
        rows = list(itertools.accumulate((d[0] for d in dims), initial=0))
        side_by_side = np.empty((nx, rows[-1]))
        stacked = np.empty((rows[-1], ny, nz * c))
        for f, (n0, n1, n2), (m0, m1, m2), r0, r1 in zip(coarse, dims, mats, rows, rows[1:]):
            side_by_side[:, r0:r1] = m0
            inner = np.matmul(m2, f.value.data.reshape(n0 * n1, n2, c))
            np.matmul(m1, inner.reshape(n0, n1, nz * c), out=stacked[r0:r1])
        out = np.matmul(side_by_side, stacked.reshape(rows[-1], -1)).reshape(fine.value.shape)
        out += fine.value.data

        def vjp(g):
            up = np.matmul(side_by_side.T, g.reshape(nx, -1))
            adjoints = []
            for (n0, n1, n2), (_, m1, m2), r0, r1 in zip(dims, mats, rows, rows[1:]):
                inner = np.matmul(m1.T, up[r0:r1].reshape(n0, ny, nz * c))
                adjoints.append(np.matmul(m2.T, inner.reshape(n0 * n1, nz, c))
                                .reshape(n0, n1, n2, c))
            return (*adjoints, g)

        return self._append("upsample_sum", fields, out, vjp)

    def shift(self, a: Node, offset) -> Node:
        """Integer-voxel shift with edge clamp: out(x) = in(clip(x + offset))."""
        av = a.value.data
        idx = tuple(
            np.clip(np.arange(av.shape[axis]) + int(offset[axis]), 0, av.shape[axis] - 1)
            for axis in range(3)
        )
        sel = np.ix_(*idx)
        val = av[sel]

        def vjp(g):
            back = np.zeros_like(av)
            np.add.at(back, sel, g)
            return (back,)

        return self._append("shift", (a,), val, vjp)

    def crop_border(self, a: Node, width: int = 1) -> Node:
        """Drop ``width`` voxels from every spatial face."""
        av = a.value.data
        if min(av.shape[:3]) <= 2 * width:
            raise ConfigError(f"crop_border: dims {av.shape[:3]} too small for width {width}")
        sl = slice(width, -width)
        val = av[sl, sl, sl, :]

        def vjp(g):
            back = np.zeros_like(av)
            back[sl, sl, sl, :] = g
            return (back,)

        return self._append("crop_border", (a,), val, vjp)

    # -- backward ------------------------------------------------------------

    def backward(self, loss: Node) -> dict[int, Tensor3]:
        """Reverse sweep from the scalar ``loss``; returns one gradient per
        flagged parameter (zero tensors for parameters ``loss`` never saw).
        An adjoint another node already holds when the sweep starts (a
        share of its gradient that another tape's sweep found) is added
        to. A tape is swept once: a second call raises ConfigError."""
        if self._swept:
            raise ConfigError("backward: the tape was already swept; record a new one")
        if loss.id >= len(self.nodes) or self.nodes[loss.id] is not loss:
            raise ConfigError("backward: the node does not belong to this tape")
        if loss.value.shape != (1, 1, 1, 1):
            raise ConfigError(f"backward: loss must be scalar, got shape {loss.value.shape}")
        self._swept = True
        for node in self.nodes:
            if node is not loss and node.id not in self.parameter_ids:
                node.value = None
        loss.adjoint = np.ones((1, 1, 1, 1))
        for node in reversed(self.nodes[: loss.id + 1]):
            vjp, node._vjp = node._vjp, None
            if node.adjoint is None or vjp is None or not node.needs_grad:
                continue
            # the closure goes before the adds, so none of them sits beside it
            contribs, vjp = vjp(node.adjoint), None
            for parent, contrib in zip(node.parents, contribs):
                if contrib is None or not parent.needs_grad:
                    continue
                # a contribution may be shared (add hands g to both parents)
                # or be another node's adjoint, so it is never written into
                if parent.adjoint is None:
                    parent.adjoint = contrib
                else:
                    parent.adjoint = parent.adjoint + contrib
            # parameters have no vjp, so only intermediate adjoints get here
            node.adjoint = None
        grads = {}
        for pid in self.parameter_ids:
            node = self.nodes[pid]
            if node.adjoint is None:
                grads[pid] = Tensor3.zeros(node.value.dims, node.value.channels)
            else:
                grads[pid] = Tensor3._wrap(node.adjoint)
        return grads


def grad_check(f, x0: Tensor3, h: float = 1e-4, n_coords: int = 64, seed: int = 0) -> float:
    """Max relative error between f's analytic gradient and central finite
    differences at a fixed random sample of coordinates.

    ``f`` maps a Tensor3 to ``(value, gradient Tensor3)``. At least 64
    coordinates are probed (all of them on smaller tensors).
    """
    value, grad = f(x0)
    if not np.isfinite(value):
        raise TensorError("grad_check: non-finite function value at x0")
    flat_grad = grad.data.ravel()
    size = x0.size
    rng = np.random.default_rng(seed)
    if size <= n_coords:
        coords = np.arange(size)
    else:
        coords = rng.choice(size, size=max(n_coords, 64), replace=False)
    base = x0.data.ravel().copy()
    worst = 0.0
    for i in coords:
        bumped = base.copy()
        bumped[i] = base[i] + h
        f_hi, _ = f(Tensor3(bumped.reshape(x0.shape)))
        bumped[i] = base[i] - h
        f_lo, _ = f(Tensor3(bumped.reshape(x0.shape)))
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise TensorError(f"grad_check: non-finite function value near coordinate {i}")
        numeric = (f_hi - f_lo) / (2.0 * h)
        analytic = flat_grad[i]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
