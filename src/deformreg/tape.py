"""Reverse-mode automatic differentiation over dense 3D tensor operations.

The op set is deliberately small: elementwise arithmetic, reductions
(``sum_squares`` among them: a sum or mean of squares that keeps no
square for the sweep), count-normalized box filtering and pooling,
central-difference spatial gradients at interior nodes, edge-clamped
trilinear sampling of an image at x + u(x) for a displacement u, integer
shifts and border crops. That is enough to express and differentiate
every registration loss in this package with respect to displacement
parameters. The LNCC map (``"lncc_map"``) and the MIND-SSC descriptor
(``"mind_ssc"``) are ops of their own with hand-written vjps, recorded
through ``_append`` by the similarity module. So ``mul``, ``div``,
``sqrt``, ``sum``, ``shift``, ``exp``, ``clamp`` and ``concat_channels``
have no caller in the package; the tests build reference graphs from
them and the benchmark's tracer binds them by name.

Samplers take coordinates per axis: three normalized arrays that broadcast
to the point shape, e.g. ``tensor.node_axes`` or ``tensor.displaced_axes``;
(..., 3) points pass ``np.moveaxis(points, -1, 0)``.

Epsilon policy: raw ``div``/``sqrt`` (and the LNCC map, which keeps their
guards and messages) reject non-positive operands. Losses that need
stabilizing add an explicit epsilon inside the radicand or denominator
before calling them (see the similarity module), so there is exactly one
documented epsilon per formula and finite-difference oracles can
reproduce it.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor3, displaced_axes


class TapeError(ValueError):
    """Operation rejected: bad dims, bad domain, or tape misuse."""


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


def _box_sum_axis(arr: np.ndarray, axis: int, radius: int) -> np.ndarray:
    """Sliding-window sum of radius r along one axis, truncated at edges:
    out[i] = sum of arr[j] over |j - i| <= r, 0 <= j < n.

    A copy of ``arr`` gets the 2r shifted slices added in place, offsets
    1..r on each side, each cut to the part that stays inside the axis
    (none is left past offset n - 1). The stencil is symmetric, so the
    same sum is its own transpose and serves ``box_filter``'s vjp too.
    """
    out = arr.copy()
    src, dst = np.moveaxis(arr, axis, 0), np.moveaxis(out, axis, 0)
    n = src.shape[0]
    for k in range(1, min(radius, n - 1) + 1):
        dst[k:] += src[: n - k]
        dst[: n - k] += src[k:]
    return out


def _box_counts(n: int, radius: int) -> np.ndarray:
    i = np.arange(n)
    return np.minimum(i + radius, n - 1) - np.maximum(i - radius, 0) + 1.0


def _box_mean(arr: np.ndarray, radius: int, first: int = 0):
    """Count-normalized box mean of ``arr`` over its spatial axes ``first``
    to ``first + 2``, one axis after another, and the per-axis counts
    (shaped to broadcast against ``arr``) that its transpose divides by."""
    out, counts = arr, []
    for axis in range(first, first + 3):
        shape = [1] * arr.ndim
        shape[axis] = arr.shape[axis]
        counts.append(_box_counts(arr.shape[axis], radius).reshape(shape))
        out = _box_sum_axis(out, axis, radius) / counts[-1]
    return out, counts


def _box_mean_t(g: np.ndarray, counts, radius: int, first: int = 0) -> np.ndarray:
    """The transpose of ``_box_mean`` applied to ``g``, with the counts it
    returned: per axis, divide by the counts, then box-sum (the sum is
    symmetric). ``g`` is left as it is."""
    out = g / counts[0]
    for k, c in enumerate(counts):
        if k:
            out /= c
        out = _box_sum_axis(out, first + k, radius)
    return out


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


# the 8 interpolation corners as (bx, by, bz) offset bits; corner k has
# bits k = bx << 2 | by << 1 | bz
_CORNERS = tuple((bx, by, bz) for bx in (0, 1) for by in (0, 1) for bz in (0, 1))


def _planes(arr: np.ndarray) -> list[np.ndarray]:
    """The channels of a (..., C) array as C contiguous flat arrays."""
    return [np.ascontiguousarray(arr[..., c]).ravel() for c in range(arr.shape[-1])]


class _TrilinearPlan:
    """Edge-clamped trilinear sample of ``img`` (nx, ny, nz, C) at the
    normalized per-axis ``coords`` (three arrays that broadcast to the
    point shape), kept for the vjp.

    Coordinates are clamped to [0,1] and mapped onto node index space
    (node i at i/(n-1)). The plan keeps only what the 8 corners derive
    from: the image by reference (on the tape it is the parent node's
    read-only data, so nothing is copied), the flat index ``base`` of each
    point's low corner, one flat stride per axis (0 on a length-1 axis,
    where both corners coincide), the three fractions, and the three masks
    that are False where the raw coordinate left the domain (the clamp
    makes the sampled value constant there): 35 bytes a point. It also
    holds the sampled values ``out`` until a caller takes them; no vjp
    reads them, so ``Tape.trilinear_sample`` does not leave them there.
    Corner (bx, by, bz) sits at ``base + bx*sx + by*sy + bz*sz`` with
    weight ``w0[bx]*w1[by]*w2[bz]``, ``w = (1 - f, f)``.

    Every pass works on one channel at a time, as contiguous flat arrays:
    over (..., C) rows each gather, product and reduction runs numpy's
    inner loop over the short channel axis, at several times the cost of
    the arithmetic. Indices, weights and the image's channel planes are
    rebuilt where a pass needs them instead of being held until the vjp.
    """

    __slots__ = ("img", "base", "strides", "fracs", "inside", "out")

    def __init__(self, img: np.ndarray, coords):
        nx, ny, nz = img.shape[:3]
        shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
        self.img = img
        self.base, self.strides, self.fracs, self.inside = 0, [], [], []
        for c, n, stride in zip(coords, (nx, ny, nz), (ny * nz, nz, 1)):
            c_raw = np.broadcast_to(c, shape).ravel()
            p = np.clip(c_raw, 0.0, 1.0) * (n - 1)
            # snap to the node when within 1e-9 index units so sampling at
            # voxel centers reproduces stored values exactly
            p_round = np.round(p)
            p = np.where(np.abs(p - p_round) < 1e-9, p_round, p)
            i0 = np.minimum(p.astype(np.int64), max(n - 2, 0))
            self.base = self.base + i0 * stride
            self.strides.append(stride if n > 1 else 0)
            self.fracs.append(p - i0)
            self.inside.append((c_raw >= 0.0) & (c_raw <= 1.0))
        planes, corners = _planes(img), self._corners()
        idx, w = next(corners)
        out = [w * plane.take(idx) for plane in planes]
        for idx, w in corners:
            for acc, plane in zip(out, planes):
                acc += w * plane.take(idx)
        self.out = np.stack(out, axis=-1).reshape(*shape, len(out))

    def _indices(self):
        """Yield each corner's flat index in ``_CORNERS`` order."""
        sx, sy, sz = self.strides
        for bx, by, bz in _CORNERS:
            yield self.base + (bx * sx + by * sy + bz * sz)

    def _corners(self):
        """Yield each corner's flat index and weight in ``_CORNERS`` order."""
        w0, w1, w2 = ((1.0 - f, f) for f in self.fracs)
        for idx, (bx, by, bz) in zip(self._indices(), _CORNERS):
            yield idx, w0[bx] * w1[by] * w2[bz]

    def vjp(self, g: np.ndarray, want_image: bool, want_coords: bool):
        """The image's and the coordinates' adjoints for the output adjoint
        ``g`` (..., C), None where not wanted. The image half runs first and
        scatters ``w * g``. The coordinate half projects each corner onto
        ``g``, ``p_k = sum_c v_kc g_c``, and frees the channel planes; per
        axis it blends the differences of the ``p_k`` along that axis by
        the other two axes' weights (lower axis bit outermost), scales by
        the coordinate-to-index factor and masks where the clamp
        saturates."""
        g_planes = _planes(g)
        g_image = g_coords = None
        if want_image:
            size = self.img.size // len(g_planes)
            acc = [np.zeros(size) for _ in g_planes]
            for idx, w in self._corners():
                for a, g_c in zip(acc, g_planes):
                    a += np.bincount(idx, weights=w * g_c, minlength=size)
            g_image = np.stack(acc, axis=-1).reshape(self.img.shape)
            del acc
        if want_coords:
            planes, proj = _planes(self.img), []
            for idx in self._indices():
                terms = (plane.take(idx) * g_c for plane, g_c in zip(planes, g_planes))
                proj.append(next(terms))
                for term in terms:
                    proj[-1] += term
            del planes, g_planes
            w = [(1.0 - f, f) for f in self.fracs]
            g_coords = np.empty((self.base.size, 3))
            for axis in range(3):
                comp = 0.0
                for lo, corner in enumerate(_CORNERS):
                    if corner[axis]:
                        continue
                    wa, wb = (w[other][corner[other]] for other in range(3) if other != axis)
                    comp = comp + (wa * wb) * (proj[lo | (4 >> axis)] - proj[lo])
                g_coords[:, axis] = comp * (self.img.shape[axis] - 1) * self.inside[axis]
            g_coords = g_coords.reshape(*g.shape[:-1], 3)
        return g_image, g_coords


def sample_trilinear_values(img: np.ndarray, coords) -> np.ndarray:
    """Plain (non-tape) trilinear sampling, same kernel as the tape op.

    ``img`` is (nx, ny, nz, C); ``coords`` is three arrays of normalized
    x, y and z coordinates that broadcast to the point shape, edge-clamped
    to the unit cube. The result is (*point shape, C).
    """
    return _TrilinearPlan(img, coords).out


def sample_nearest_values(img: np.ndarray, coords) -> np.ndarray:
    """Nearest-node sampling with edge clamp, for label volumes; ``coords``
    as for ``sample_trilinear_values``."""
    return img[tuple(np.round(np.clip(c, 0.0, 1.0) * (n - 1)).astype(np.int64)
                     for c, n in zip(coords, img.shape[:3]))]


class Tape:
    """Single-owner op recorder with one reverse sweep per built graph.

    Backward consumes the tape (no checkpointing): each vjp closure holds
    its own operands, so the sweep drops every value but the parameters'
    and the loss's up front, then each vjp (a trilinear plan with it) and
    intermediate adjoint as it passes. Distinct tapes are safe on distinct threads.
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
            raise TapeError(
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
            raise TapeError("div: non-positive denominator (add an epsilon upstream)")
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
            raise TapeError("sqrt: non-positive radicand (add an epsilon upstream)")
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
            raise TapeError("concat_channels: need at least one node")
        dims = nodes[0].value.dims
        for n in nodes:
            if n.value.dims != dims:
                raise TapeError(
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

    def sum_squares(self, a: Node, mean: bool = False) -> Node:
        """sum(a * a), divided by a's size when ``mean``: the value and
        gradient of ``sum(square(a))`` or ``mean(square(a))`` bit for bit,
        without keeping the square until backward."""
        av = a.value.data
        n = av.size if mean else 1
        val = Tensor3.scalar(float(np.sum(av * av)) / n)
        return self._append("sum_squares", (a,), val,
                            lambda g: (av * (2.0 * g.reshape(()) / n),))

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
            raise TapeError(f"box_filter: radius must be >= 1, got {radius}")
        val, counts = _box_mean(a.value.data, radius)
        return self._append("box_filter", (a,), val,
                            lambda g: (_box_mean_t(g, counts, radius),))

    def spatial_gradient(self, a: Node) -> Node:
        """Per-channel gradient in normalized coordinates by central
        differences at the interior nodes: each spatial dim loses its two
        boundary slices. Output channel 3*c+axis holds d(channel c)/d(axis)."""
        av = a.value.data
        if min(av.shape[:3]) < 3:
            raise TapeError(f"spatial_gradient: dims {av.shape[:3]} need >= 3 per axis")
        stencils = []
        for axis in range(3):
            up, down = [slice(1, -1)] * 3, [slice(1, -1)] * 3
            up[axis], down[axis] = slice(2, None), slice(None, -2)
            # 2h for the node spacing h = 1 / (n - 1), formed as np.gradient forms it
            stencils.append((tuple(up), tuple(down), 2.0 * (1.0 / (av.shape[axis] - 1))))
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
        displacement ``u``'s grid, normalized coordinates with edge clamp.
        Differentiable in both the image and the displacement."""
        if u.value.channels != 3:
            raise TapeError(
                f"trilinear_sample: displacement needs 3 channels, got {u.value.channels}"
            )
        plan = _TrilinearPlan(image.value.data, displaced_axes(u.value.data))
        out, plan.out = plan.out, None
        return self._append("trilinear_sample", (image, u), out,
                            lambda g: plan.vjp(g, image.needs_grad, u.needs_grad))

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
            raise TapeError(f"crop_border: dims {av.shape[:3]} too small for width {width}")
        sl = slice(width, -width)
        val = av[sl, sl, sl, :]

        def vjp(g):
            back = np.zeros_like(av)
            back[sl, sl, sl, :] = g
            return (back,)

        return self._append("crop_border", (a,), val, vjp)

    # -- backward ------------------------------------------------------------

    def backward(self, loss: Node) -> dict[int, Tensor3]:
        """Reverse sweep from a scalar loss; returns one gradient per
        flagged parameter (zero tensors for parameters the loss never saw).
        A tape is swept once: a second call raises TapeError."""
        if self._swept:
            raise TapeError("backward: the tape was already swept; record a new one")
        if loss.value.shape != (1, 1, 1, 1):
            raise TapeError(f"backward: loss must be scalar, got shape {loss.value.shape}")
        if loss.id >= len(self.nodes) or self.nodes[loss.id] is not loss:
            raise TapeError("backward: loss node does not belong to this tape")
        self._swept = True
        for node in self.nodes:
            if node is not loss and node.id not in self.parameter_ids:
                node.value = None
        loss.adjoint = np.ones((1, 1, 1, 1))
        for node in reversed(self.nodes[: loss.id + 1]):
            vjp, node._vjp = node._vjp, None
            if node.adjoint is None or vjp is None or not node.needs_grad:
                continue
            for parent, contrib in zip(node.parents, vjp(node.adjoint)):
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
        raise TapeError("grad_check: non-finite function value at x0")
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
            raise TapeError(f"grad_check: non-finite function value near coordinate {i}")
        numeric = (f_hi - f_lo) / (2.0 * h)
        analytic = flat_grad[i]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
