"""Tape forward/backward unit tests and finite-difference gradient checks."""

import gc
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from deformreg import tape as tape_module
from deformreg.losses import LossConfig
from deformreg.pipeline import Adam, OptimizerConfig, build_model, instance_optimize
from deformreg.similarity import SimilarityConfig
from deformreg.synthetic import _smooth_noise, make_deformation, make_phantom
from deformreg.tape import (
    _CORNERS,
    Tape,
    TapeError,
    _box_mean,
    _box_mean_t,
    _box_scale,
    _box_sum_axis,
    _TrilinearPlan,
    grad_check,
    sample_trilinear_values,
)
from deformreg.tensor import (ConfigError, Tensor3, TensorError, displaced_axes,
                              grid_coordinates, node_axes)
from deformreg.transforms import DisplacementField, resample_field_nodes, resample_field_to
from deformreg.volume import Volume

from tests_helpers_interp import lerp3


def rng_tensor(rng, dims, channels=1, lo=0.0, hi=1.0):
    return Tensor3(rng.uniform(lo, hi, size=(*dims, channels)))


def displacement_to(points) -> Tensor3:
    """The displacement u with which ``trilinear_sample`` reads the
    normalized ``points`` (nx, ny, nz, 3): the sample at node x is at x + u(x)."""
    return Tensor3(points - grid_coordinates(points.shape[:3]).data)


class TestTensor3:
    def test_rejects_nan(self):
        a = np.ones((2, 2, 2))
        a[0, 0, 0] = np.nan
        with pytest.raises(TensorError):
            Tensor3(a)

    def test_rejects_inf(self):
        a = np.ones((2, 2, 2))
        a[1, 1, 1] = np.inf
        with pytest.raises(TensorError):
            Tensor3(a)

    def test_immutable_does_not_freeze_source(self):
        src = np.ones((2, 2, 2))
        t = Tensor3(src)
        src[0, 0, 0] = 5.0  # caller's array stays writeable
        assert t.data[0, 0, 0, 0] == 1.0
        with pytest.raises((ValueError, AttributeError)):
            t.data[0, 0, 0, 0] = 2.0

    # each entry point that takes dims: (call, the smallest side it accepts)
    DIMS_ENTRY_POINTS = {
        "build_model": (build_model, 8),
        "make_phantom": (lambda dims: make_phantom(1, dims), 16),
        "make_deformation": (lambda dims: make_deformation(1, dims, 0.01), 16),
        "DisplacementField.identity": (DisplacementField.identity, 1),
        "DisplacementField.translation": (
            lambda dims: DisplacementField.translation(dims, (0.1, 0.0, 0.0)), 1),
        "Tensor3.zeros": (Tensor3.zeros, 1),
        "resample_field_to": (lambda dims: resample_field_to(
            DisplacementField.identity((4, 4, 4)), dims), 1),
        "node_axes": (node_axes, 1),
        "grid_coordinates": (grid_coordinates, 1),
    }
    BAD_DIMS = {
        "fraction": lambda n: (n + 0.7, n, n),
        "integral-float": lambda n: (n, float(n), n),
        "string": lambda n: (n, n, str(n)),
        "bool": lambda n: (True, n, n),
        "two": lambda n: (n, n),
        "zero": lambda n: (n, 0, n),
        "scalar": lambda n: n,
    }

    @pytest.mark.parametrize("bad", sorted(BAD_DIMS))
    @pytest.mark.parametrize("entry", sorted(DIMS_ENTRY_POINTS))
    def test_one_dims_rule(self, entry, bad):
        # three integers >= 1, no bool or str: nothing truncated, cast or
        # left to fail later with another error
        call, side = self.DIMS_ENTRY_POINTS[entry]
        dims = self.BAD_DIMS[bad](max(side, 2))
        with pytest.raises(ConfigError, match="dims must be"):
            call(dims)

    def test_channel_handling(self):
        t = Tensor3(np.zeros((2, 3, 4, 5)))
        assert t.dims == (2, 3, 4) and t.channels == 5


class TestForwardValues:
    def test_mean_constant(self):
        tape = Tape()
        x = tape.input(Tensor3.full((2, 2, 2), 4.0))
        assert tape.mean(x).value.item() == pytest.approx(4.0, abs=0)

    def test_avg_pool2_constant(self):
        tape = Tape()
        x = tape.input(Tensor3.full((4, 4, 4), 1.0))
        out = tape.avg_pool2(x)
        assert out.value.dims == (2, 2, 2)
        assert np.allclose(out.value.data, 1.0)

    def test_avg_pool2_odd_dims_partial_blocks(self):
        tape = Tape()
        arr = np.arange(5, dtype=float).reshape(5, 1, 1, 1)
        out = tape.avg_pool2(tape.input(Tensor3(arr)))
        assert out.value.dims == (3, 1, 1)
        # blocks: (0,1), (2,3), (4,)
        assert np.allclose(out.value.data.ravel(), [0.5, 2.5, 4.0])

    def test_spatial_gradient_linear_ramp(self):
        dims = (9, 9, 9)
        coords = grid_coordinates(dims).data
        tape = Tape()
        x = tape.input(Tensor3(coords[..., 0:1]))
        g = tape.spatial_gradient(x).value.data
        assert g.shape == (7, 7, 7, 3)
        assert np.max(np.abs(g[..., 0] - 1.0)) < 1e-6
        assert np.max(np.abs(g[..., 1])) < 1e-6
        assert np.max(np.abs(g[..., 2])) < 1e-6

    def test_spatial_gradient_matches_per_voxel_oracle(self):
        """Each axis's difference over its own node spacing, at a grid
        whose three axes all differ, so no axis's step can stand in for
        another's."""
        dims = (5, 6, 7)
        x = np.random.default_rng(17).uniform(size=(*dims, 3))
        tape = Tape()
        got = tape.spatial_gradient(tape.input(Tensor3(x))).value.data
        want = np.empty((3, 4, 5, 9))
        for i, j, k in np.ndindex(want.shape[:3]):
            node = np.array((i + 1, j + 1, k + 1))
            for c in range(3):
                for axis in range(3):
                    step = np.eye(3, dtype=int)[axis]
                    hi, lo = x[(*(node + step), c)], x[(*(node - step), c)]
                    want[i, j, k, 3 * c + axis] = (hi - lo) * (dims[axis] - 1) / 2.0
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 5, 5), (5, 5, 1)])
    def test_spatial_gradient_rejects_thin_grid(self, dims):
        tape = Tape()
        with pytest.raises(TapeError, match="spatial_gradient"):
            tape.spatial_gradient(tape.input(Tensor3(np.zeros((*dims, 1)))))

    def test_trilinear_sample_at_nodes_is_exact(self):
        rng = np.random.default_rng(3)
        img_t = rng_tensor(rng, (5, 6, 7))
        tape = Tape()
        img = tape.input(img_t)
        u = tape.input(displacement_to(grid_coordinates((5, 6, 7)).data))
        out = tape.trilinear_sample(img, u)
        assert np.array_equal(out.value.data, img_t.data)

    def test_trilinear_sample_edge_clamp(self):
        tape = Tape()
        img = tape.input(Tensor3(np.arange(8, dtype=float).reshape(2, 2, 2, 1)))
        far = Tensor3(np.array([[[[2.0, 2.0, 2.0]]]]))  # beyond the cube
        out = tape.trilinear_sample(img, tape.input(far))
        assert out.value.item() == pytest.approx(7.0)

    def test_box_filter_constant(self):
        tape = Tape()
        x = tape.input(Tensor3.full((6, 6, 6), 2.5))
        out = tape.box_filter(x, radius=2)
        assert np.allclose(out.value.data, 2.5)

    def test_shift_clamps_edges(self):
        tape = Tape()
        arr = np.arange(4, dtype=float).reshape(4, 1, 1, 1)
        out = tape.shift(tape.input(Tensor3(arr)), (1, 0, 0))
        assert np.allclose(out.value.data.ravel(), [1, 2, 3, 3])

    def test_elementwise_dim_mismatch_rejected(self):
        tape = Tape()
        a = tape.input(Tensor3.zeros((2, 2, 2)))
        b = tape.input(Tensor3.zeros((3, 2, 2)))
        with pytest.raises(TapeError, match="add"):
            tape.add(a, b)

    def test_sqrt_guard(self):
        tape = Tape()
        x = tape.input(Tensor3.zeros((2, 2, 2)))
        with pytest.raises(TapeError, match="sqrt"):
            tape.sqrt(x)

    def test_div_guard(self):
        tape = Tape()
        a = tape.input(Tensor3.full((2, 2, 2), 1.0))
        b = tape.input(Tensor3.zeros((2, 2, 2)))
        with pytest.raises(TapeError, match="div"):
            tape.div(a, b)


def box_sum_oracle(arr, axis, radius):
    """Explicit window loop: out[i] = sum of arr[j] over |j - i| <= radius."""
    src = np.moveaxis(arr, axis, 0)
    out = np.zeros_like(src)
    n = src.shape[0]
    for i in range(n):
        for j in range(max(i - radius, 0), min(i + radius, n - 1) + 1):
            out[i] += src[j]
    return np.moveaxis(out, 0, axis)


def box_sum_slices(arr, axis, radius):
    """The window sum by shifted slices along the moved axis: at each i,
    arr[i] + arr[i-1], then arr[i+1], arr[i-2], arr[i+2], ... in place."""
    src = np.moveaxis(arr, axis, 0)
    out = np.empty(src.shape)
    n = src.shape[0]
    out[0] = src[0]
    np.add(src[1:], src[: n - 1], out=out[1:])
    out[: n - 1] += src[1:]
    for k in range(2, min(radius, n - 1) + 1):
        out[k:] += src[: n - k]
        out[: n - k] += src[k:]
    return np.moveaxis(out, 0, axis)


class TestBoxSum:
    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9])
    def test_matches_window_loop_on_every_axis(self, n, radius):
        rng = np.random.default_rng(10 * n + radius)
        for axis in range(3):
            shape = [4, 3, 2, 2]
            shape[axis] = n
            arr = rng.uniform(-1.0, 1.0, shape)
            got = _box_sum_axis(arr, axis, radius, np.empty(shape))
            assert np.max(np.abs(got - box_sum_oracle(arr, axis, radius))) <= 1e-12

    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 32])
    @pytest.mark.parametrize("shape, axes", [((12, None, None, None), (1, 2, 3)),
                                             ((None, None, None, 1), (0, 1, 2))])
    def test_flat_passes_equal_the_slice_form(self, shape, axes, n, radius):
        # bit for bit, into a C-contiguous out, and from a non-contiguous
        # input into a non-contiguous out (written through, not into a
        # copy); the MIND stack and the LNCC volume
        shape = tuple(n if d is None else d for d in shape)
        rng = np.random.default_rng(100 * n + radius)
        arr = rng.uniform(-1.0, 1.0, shape)
        strided = rng.uniform(-1.0, 1.0, shape + (2,))[..., 1]
        for axis in axes:
            want = box_sum_slices(arr, axis, radius)
            out = np.full(shape, np.nan)
            assert _box_sum_axis(arr, axis, radius, out=out) is out
            assert np.array_equal(out, want)
            out = np.full(shape + (2,), np.nan)[..., 0]
            assert _box_sum_axis(strided, axis, radius, out=out) is out
            assert np.array_equal(out, box_sum_slices(strided, axis, radius))

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_box_filter_vjp_is_the_transpose(self, radius):
        # <box(x), y> == <x, vjp(y)>: the backward is the exact adjoint of
        # the count-normalized (so not symmetric) forward
        rng = np.random.default_rng(radius)
        x, y = (rng_tensor(rng, (5, 2, 9), lo=-1.0) for _ in range(2))
        tape = Tape()
        xn = tape.input(x, parameter=True)
        box = tape.box_filter(xn, radius)
        loss = tape.sum(tape.mul(box, tape.input(y)))
        lhs = float(np.sum(box.value.data * y.data))  # backward drops box's value
        vjp_y = tape.backward(loss)[xn.id].data
        assert abs(lhs - float(np.sum(x.data * vjp_y))) <= 1e-12

    @pytest.mark.parametrize("radius", [1, 2, 8])
    @pytest.mark.parametrize("shape, lead", [((7, 8, 9, 1), 0), ((12, 7, 8, 9, 1), 1)])
    def test_box_mean_t_is_the_adjoint_of_box_mean(self, shape, lead, radius):
        # B averages over the three axes before the last, lead..lead+2, and
        # <B x, y> == <x, B^T y>, also where the radius exceeds an axis (8 > 7)
        rng = np.random.default_rng(radius + lead)
        x, y = rng.uniform(-1.0, 1.0, (2, *shape))
        bx = _box_mean(x.copy(), radius)
        want = x
        for axis in range(lead, lead + 3):
            counts = box_sum_oracle(np.ones(shape), axis, radius)
            want = box_sum_oracle(want, axis, radius) / counts
        assert np.max(np.abs(bx - want)) <= 1e-12
        lhs = np.sum(bx * y)
        rhs = np.sum(x * _box_mean_t(y.copy(), radius))
        assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(bx * y))

    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("shape, lead", [((7, 8, 9, 1), 0), ((12, 7, 8, 9, 1), 1)])
    def test_overwrite_changes_only_the_buffer(self, shape, lead, radius):
        # both consume their input as the sums' second buffer and give the
        # bits of the same sums and scale through fresh arrays, in a new one
        x = np.random.default_rng(radius + lead).uniform(-1.0, 1.0, shape)
        scale = _box_scale(shape[lead:lead + 3], radius)

        def sums(arr):
            for axis in range(lead, lead + 3):
                arr = _box_sum_axis(arr, axis, radius, np.empty(shape))
            return arr

        for got, buffer, want in ((_box_mean, x.copy(), sums(x) * scale),
                                  (_box_mean_t, x.copy(), sums(x * scale))):
            out = got(buffer, radius)
            assert np.array_equal(out, want)
            assert not np.shares_memory(out, buffer)

    def test_a_radius_past_int64_averages_whole_axes(self):
        # a config may give any integer radius; a window wider than an axis
        # holds the whole axis, so the counts stop growing there
        x = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 6, 7, 1))
        assert np.array_equal(_box_mean(x.copy(), 10**20), _box_mean(x.copy(), 7))
        assert np.allclose(_box_mean(x.copy(), 2**63), np.mean(x), rtol=0, atol=1e-15)


class TestBackward:
    def test_sum_of_squares(self):
        tape = Tape()
        x = tape.input(Tensor3(np.array([3.0, -2.0]).reshape(2, 1, 1, 1)), parameter=True)
        loss = tape.sum(tape.square(x))
        grads = tape.backward(loss)
        assert np.allclose(grads[x.id].data.ravel(), [6.0, -4.0])

    def test_mean_gradient(self):
        tape = Tape()
        x = tape.input(Tensor3.zeros((2, 2, 2)), parameter=True)
        grads = tape.backward(tape.mean(x))
        assert np.allclose(grads[x.id].data, 1.0 / 8.0)

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = tape.input(Tensor3.zeros((2, 2, 2)), parameter=True)
        with pytest.raises(TapeError, match="scalar"):
            tape.backward(tape.square(x))

    def test_unused_parameter_gets_zero_gradient(self):
        tape = Tape()
        x = tape.input(Tensor3.full((2, 1, 1), 1.0), parameter=True)
        y = tape.input(Tensor3.full((2, 1, 1), 1.0), parameter=True)
        grads = tape.backward(tape.sum(x))
        assert np.allclose(grads[y.id].data, 0.0)

    def test_shared_contribution_is_not_written_into(self):
        # add hands one array to both of its parents; x's later contribution
        # (from square) must not reach y's adjoint through that array
        tape = Tape()
        x = tape.input(Tensor3(np.array([3.0, -2.0]).reshape(2, 1, 1, 1)), parameter=True)
        y = tape.input(Tensor3.zeros((2, 1, 1)), parameter=True)
        squares = tape.square(x)
        loss = tape.add(tape.sum(squares), tape.sum(tape.add(x, y)))
        grads = tape.backward(loss)
        assert np.array_equal(grads[x.id].data.ravel(), [7.0, -3.0])
        assert np.array_equal(grads[y.id].data.ravel(), [1.0, 1.0])

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(7)
        xv = rng_tensor(rng, (4, 4, 4))
        a, b = 2.25, -0.75

        def run(build):
            tape = Tape()
            x = tape.input(xv, parameter=True)
            grads = tape.backward(build(tape, x))
            return grads[x.id].data

        f = lambda tape, x: tape.sum(tape.square(x))
        g = lambda tape, x: tape.mean(tape.mul(x, x))
        combo = lambda tape, x: tape.add(tape.scale(f(tape, x), a), tape.scale(g(tape, x), b))
        lhs = run(combo)
        rhs = a * run(f) + b * run(g)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(11)
            tape = Tape()
            x = tape.input(rng_tensor(rng, (6, 6, 6)), parameter=True)
            y = tape.input(rng_tensor(rng, (6, 6, 6)))
            f = tape.box_filter(tape.mul(x, y), radius=1)
            loss = tape.mean(tape.square(f))
            return tape.backward(loss)[x.id].data

        first, second = run(), run()
        assert np.array_equal(first, second)


class TestSumSquares:
    """The squared reduction against the two-node ``sum``/``mean`` of
    ``square`` it stands for, in value and gradient, bit for bit."""

    @pytest.mark.parametrize("mean", [False, True], ids=["sum", "mean"])
    def test_matches_the_reduction_of_square_bitwise(self, mean):
        x0 = rng_tensor(np.random.default_rng(70), (5, 6, 7), channels=3, lo=-2.0, hi=2.0)
        results = []
        for one_node in (True, False):
            tape = Tape()
            x = tape.input(x0, parameter=True)
            if one_node:
                loss = tape.sum_squares(x, mean=mean)
                assert [node.op for node in tape.nodes] == ["param", "sum_squares"]
            else:
                loss = (tape.mean if mean else tape.sum)(tape.square(x))
            results.append((loss.value.item(), tape.backward(loss)[x.id].data))
        (value, grad), (ref_value, ref_grad) = results
        assert value == ref_value
        assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("mean", [False, True], ids=["sum", "mean"])
    def test_minus_matches_the_reduction_of_a_sub_bitwise(self, mean):
        # sum_squares(a, minus=c) against sum_squares(sub(a, input(c))): one
        # node, the same value and gradient, and c as it was
        rng = np.random.default_rng(71)
        x0, c = (rng_tensor(rng, (5, 6, 7), channels=3, lo=-2.0, hi=2.0) for _ in range(2))
        c_before = c.data.copy()
        results = []
        for one_node in (True, False):
            tape = Tape()
            x = tape.input(x0, parameter=True)
            if one_node:
                loss = tape.sum_squares(x, mean=mean, minus=c)
                assert [node.op for node in tape.nodes] == ["param", "sum_squares"]
            else:
                loss = tape.sum_squares(tape.sub(x, tape.input(c)), mean=mean)
            results.append((loss.value.item(), tape.backward(loss)[x.id].data))
        (value, grad), (ref_value, ref_grad) = results
        assert value == ref_value
        assert grad.tobytes() == ref_grad.tobytes()
        assert c.data.tobytes() == c_before.tobytes()

    def test_minus_of_another_shape_rejected(self):
        tape = Tape()
        x = tape.input(Tensor3(np.ones((3, 3, 3))), parameter=True)
        with pytest.raises(TapeError, match="minus shape"):
            tape.sum_squares(x, minus=Tensor3(np.ones((3, 3, 2))))


class TestConsumedTape:
    """Backward consumes the tape: intermediate values and vjps go, the
    parameters, the loss and the returned gradients stay."""

    def swept(self):
        tape = Tape()
        x = tape.input(Tensor3(np.array([3.0, -2.0]).reshape(2, 1, 1, 1)), parameter=True)
        squares = tape.square(x)
        loss = tape.sum(squares)
        return tape, x, squares, loss, tape.backward(loss)

    def test_second_backward_raises(self):
        tape, _, _, loss, _ = self.swept()
        with pytest.raises(TapeError, match="already swept"):
            tape.backward(loss)

    def test_intermediate_values_go_and_parameters_stay(self):
        _, x, squares, loss, grads = self.swept()
        assert squares.value is None
        assert np.array_equal(x.value.data.ravel(), [3.0, -2.0])
        assert loss.value.item() == 13.0
        assert np.array_equal(grads[x.id].data.ravel(), [6.0, -4.0])

    def test_repr_of_a_released_node(self):
        _, _, squares, _, _ = self.swept()
        assert repr(squares) == "Node(id=1, op='square', shape=None)"


def tape_fn(build, dims, channels=1):
    """Wrap a tape-graph builder as the (value, grad) callable grad_check wants."""

    def f(x0):
        tape = Tape()
        x = tape.input(x0, parameter=True)
        loss = build(tape, x)
        grads = tape.backward(loss)
        return loss.value.item(), grads[x.id]

    return f


class TestGradCheck:
    def test_linear_is_exact(self):
        f = tape_fn(lambda tape, x: tape.sum(x), (4, 4, 4))
        x0 = Tensor3(np.random.default_rng(0).uniform(size=(4, 4, 4, 1)))
        assert grad_check(f, x0) < 1e-10

    @pytest.mark.parametrize(
        "name,build",
        [
            ("square_mean", lambda tape, x: tape.mean(tape.square(x))),
            ("sqrt_sum", lambda tape, x: tape.sum(tape.sqrt(tape.add_const(x, 2.0)))),
            ("exp_mean", lambda tape, x: tape.mean(tape.exp(x))),
            ("pool", lambda tape, x: tape.sum(tape.square(tape.avg_pool2(x)))),
            ("box", lambda tape, x: tape.sum(tape.square(tape.box_filter(x, 2)))),
            ("grad", lambda tape, x: tape.mean(tape.square(tape.spatial_gradient(x)))),
            ("crop", lambda tape, x: tape.sum(tape.square(tape.crop_border(x, 1)))),
            ("shift", lambda tape, x: tape.sum(tape.square(tape.shift(x, (1, -1, 0))))),
            (
                "div",
                lambda tape, x: tape.mean(
                    tape.div(tape.square(x), tape.add_const(tape.square(x), 0.5))
                ),
            ),
        ],
    )
    def test_composite_ops_match_finite_differences(self, name, build):
        rng = np.random.default_rng(hash(name) % 2**32)
        x0 = rng_tensor(rng, (5, 5, 5), lo=0.1, hi=0.9)
        err = grad_check(tape_fn(build, (5, 5, 5)), x0, h=1e-5)
        assert err < 1e-4, f"{name}: grad error {err}"

    def test_spatial_gradient_non_cubic_three_channels(self):
        f = tape_fn(lambda tape, x: tape.sum(tape.square(tape.spatial_gradient(x))),
                    (5, 6, 7), channels=3)
        x0 = rng_tensor(np.random.default_rng(18), (5, 6, 7), channels=3)
        err = grad_check(f, x0, h=1e-5, n_coords=128)
        assert err < 1e-6, f"grad error {err}"

    def test_trilinear_sample_wrt_coords(self):
        rng = np.random.default_rng(21)
        img_t = rng_tensor(rng, (6, 6, 6))

        def f(u0):
            tape = Tape()
            img = tape.input(img_t)
            u = tape.input(u0, parameter=True)
            out = tape.trilinear_sample(img, u)
            loss = tape.mean(tape.square(out))
            grads = tape.backward(loss)
            return loss.value.item(), grads[u.id]

        # interior coordinates away from node boundaries and the clamp
        u0 = displacement_to(rng.uniform(0.15, 0.85, size=(4, 4, 4, 3)))
        assert grad_check(f, u0, h=1e-6) < 1e-3

    def test_trilinear_sample_wrt_image(self):
        rng = np.random.default_rng(22)
        u_t = displacement_to(rng.uniform(0.1, 0.9, size=(5, 5, 5, 3)))

        def f(i0):
            tape = Tape()
            img = tape.input(i0, parameter=True)
            out = tape.trilinear_sample(img, tape.input(u_t))
            loss = tape.sum(tape.square(out))
            grads = tape.backward(loss)
            return loss.value.item(), grads[img.id]

        i0 = rng_tensor(rng, (6, 6, 6))
        assert grad_check(f, i0, h=1e-5) < 1e-4


# Non-cubic 3-channel images: a length-1 axis has a zero corner stride, a
# length-2 axis is all last cell, so every low corner hits the n - 2 clamp.
ODD_SHAPES = [(1, 4, 6), (2, 5, 3)]


class TestTrilinearOddShapes:
    @pytest.mark.parametrize("dims", ODD_SHAPES)
    def test_values_match_lerp3(self, dims):
        rng = np.random.default_rng(sum(dims))
        img_t = rng_tensor(rng, dims, channels=3)
        pts = rng.uniform(-0.2, 1.2, size=(4, 3, 2, 3))
        pts[0, 0, :] = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]  # faces and far corners
        u = displacement_to(pts).data
        tape = Tape()
        out = tape.trilinear_sample(tape.input(img_t), tape.input(Tensor3(u)))
        oracle = np.array([lerp3(img_t.data, p) for p in pts.reshape(-1, 3)])
        assert np.allclose(out.value.data.reshape(-1, 3), oracle, rtol=0, atol=1e-12)
        grid = grid_coordinates(pts.shape[:3]).data
        assert np.array_equal(sample_trilinear_values(img_t.data, np.moveaxis(grid + u, -1, 0)),
                              out.value.data)

    @pytest.mark.parametrize("dims", ODD_SHAPES)
    def test_grad_wrt_image(self, dims):
        rng = np.random.default_rng(40 + sum(dims))
        pts = rng.uniform(-0.2, 1.2, size=(3, 4, 2, 3))
        pts[0, 0, 0] = [1.0, 1.0, 1.0]
        u_t = displacement_to(pts)

        def f(i0):
            tape = Tape()
            img = tape.input(i0, parameter=True)
            out = tape.trilinear_sample(img, tape.input(u_t))
            loss = tape.sum(tape.square(out))
            return loss.value.item(), tape.backward(loss)[img.id]

        assert grad_check(f, rng_tensor(rng, dims, channels=3), h=1e-5) < 1e-4

    @pytest.mark.parametrize("dims", ODD_SHAPES)
    def test_grad_wrt_coords(self, dims):
        rng = np.random.default_rng(60 + sum(dims))
        img_t = rng_tensor(rng, dims, channels=3)

        def f(u0):
            tape = Tape()
            u = tape.input(u0, parameter=True)
            out = tape.trilinear_sample(tape.input(img_t), u)
            loss = tape.mean(tape.square(out))
            return loss.value.item(), tape.backward(loss)[u.id]

        # interior coordinates away from node boundaries and the clamp
        u0 = displacement_to(rng.uniform(0.15, 0.85, size=(3, 4, 2, 3)))
        assert grad_check(f, u0, h=1e-6) < 1e-3


def trilinear_oracle(img, pts, g):
    """Per point: the 8-corner value, the image adjoint scattered from the
    output adjoint ``g`` and the coordinate adjoint, with the edge clamp,
    its masks and the coordinate-to-index factor (n - 1)."""
    dims = img.shape[:3]
    values = np.zeros((len(pts), img.shape[3]))
    g_img, g_pts = np.zeros_like(img), np.zeros((len(pts), 3))
    for k, (pt, g_k) in enumerate(zip(pts, g)):
        lo, frac = [], []
        for n, c in zip(dims, pt):
            pos = min(max(c, 0.0), 1.0) * (n - 1)
            lo.append(min(int(np.floor(pos)), max(n - 2, 0)))
            frac.append(pos - lo[-1])
        for bits in _CORNERS:
            node = tuple(i + b if n > 1 else i for i, b, n in zip(lo, bits, dims))
            w = [f if b else 1.0 - f for f, b in zip(frac, bits)]
            values[k] += w[0] * w[1] * w[2] * img[node]
            g_img[node] += w[0] * w[1] * w[2] * g_k
            for axis in range(3):
                dw = np.prod([(1.0 if b else -1.0) if a == axis else w[a]
                              for a, b in enumerate(bits)])
                inside = 0.0 <= pt[axis] <= 1.0
                g_pts[k, axis] += inside * (dims[axis] - 1) * dw * (img[node] @ g_k)
    return values, g_img, g_pts


def channel_last_sample(img, coords):
    """The sample and image adjoint as computed over (..., C) rows before
    the kernel went per channel: the bit-identity reference."""
    plan = _TrilinearPlan((img,), np.moveaxis(coords, -1, 0))
    flat = img.reshape(-1, img.shape[3])
    w0, w1, w2 = ((1.0 - f, f) for f in plan.fracs)
    out = None
    corners = []
    for bx, by, bz in _CORNERS:
        idx = plan.base + sum(b * s for b, s in zip((bx, by, bz), plan.strides))
        w = w0[bx] * w1[by] * w2[bz]
        corners.append((idx, w))
        term = w[..., None] * flat.take(idx, axis=0)
        out = term if out is None else out + term
    return out.reshape(plan.out[0].shape), corners


VJP_CASES = [(dims, c) for dims in [(1, 4, 6), (2, 5, 3), (6, 6, 6)] for c in (1, 3, 4)]
VJP_IDS = ["x".join(map(str, dims)) + f"-C{c}" for dims, c in VJP_CASES]


class TestTrilinearVjpOracle:
    @staticmethod
    def case(dims, channels):
        rng = np.random.default_rng(7 * sum(dims) + channels)
        img = rng.uniform(-1.0, 1.0, size=(*dims, channels))
        pts = rng.uniform(-0.2, 1.2, size=(3, 4, 2, 3))
        pts[0, 0, 0] = [0.0, 1.0, 1.0]
        return img, pts, rng.normal(size=(3, 4, 2, channels))

    @pytest.mark.parametrize("dims,channels", VJP_CASES, ids=VJP_IDS)
    def test_each_request_matches_oracle(self, dims, channels):
        img, pts, g = self.case(dims, channels)
        values, g_img, g_pts = trilinear_oracle(img, pts.reshape(-1, 3), g.reshape(-1, channels))
        plan = _TrilinearPlan((img,), np.moveaxis(pts, -1, 0))
        assert np.allclose(plan.out[0].reshape(-1, channels), values, rtol=0, atol=1e-12)
        image_only, coords_only, both = (plan.vjp((g,), (image,), coords) for image, coords in
                                         [(True, False), (False, True), (True, True)])
        assert image_only[1] is None and coords_only[0] is None
        for got_img, got_pts in [(image_only[0], coords_only[1]), both]:
            assert np.allclose(got_img, g_img, rtol=0, atol=1e-12)
            assert np.allclose(got_pts.reshape(-1, 3), g_pts, rtol=0, atol=1e-12)
        assert image_only[0].tobytes() == both[0].tobytes()
        assert coords_only[1].tobytes() == both[1].tobytes()

    @pytest.mark.parametrize("dims,channels", VJP_CASES, ids=VJP_IDS)
    def test_sample_and_image_adjoint_match_channel_last_bitwise(self, dims, channels):
        img, pts, g = self.case(dims, channels)
        out, corners = channel_last_sample(img, pts)
        plan = _TrilinearPlan((img,), np.moveaxis(pts, -1, 0))
        assert plan.out[0].tobytes() == out.tobytes()
        acc = np.zeros((img.size // channels, channels))
        for idx, w in corners:
            wg = w.reshape(g.shape[:-1])[..., None] * g
            for c in range(channels):
                acc[:, c] += np.bincount(idx, weights=wg[..., c].ravel(), minlength=len(acc))
        assert plan.vjp((g,), (True,), False)[0].tobytes() == acc.reshape(img.shape).tobytes()


class TestTrilinearMemory:
    def test_sample_keeps_at_most_128_bytes_per_point(self):
        """What one sample keeps alive until backward: its output (24 B a
        point for 3 channels) plus the plan both vjp halves read."""
        rng = np.random.default_rng(33)
        dims = (24, 24, 24)
        tape = Tape()
        img = tape.input(rng_tensor(rng, dims, channels=3), parameter=True)
        coords = tape.input(Tensor3(rng.uniform(-0.1, 1.1, size=(*dims, 3))), parameter=True)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = tape.trilinear_sample(img, coords)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        per_point = kept / out.value.size * out.value.channels
        assert per_point <= 128, f"trilinear_sample keeps {per_point:.0f} B per point"

    @pytest.mark.parametrize("channels, bound", [(1, 105), (3, 145)])
    def test_recorded_sample_forward_peaks_at_most(self, channels, bound):
        """The transient peak of one ``Tape.trilinear_samples`` forward
        above the state before it, its output included. The plan writes its
        fractions over ``displaced_axes``' fresh coordinates (24 B a point
        more when it held both: 123.5 and 163.6 B)."""
        rng = np.random.default_rng(35)
        dims = (24, 24, 24)
        tape = Tape()
        img = tape.input(rng_tensor(rng, dims, channels=channels), parameter=True)
        u = tape.input(Tensor3(rng.uniform(-0.1, 0.1, size=(*dims, 3))), parameter=True)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tape.trilinear_samples((img,), u)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        per_point = peak / np.prod(dims)
        assert per_point <= bound, f"a recorded sample peaks at {per_point:.1f} B per point"

    def test_sample_forward_peaks_at_most_140_bytes_per_point(self):
        """The transient peak of one 3-channel sample above the state
        before it, its 24 B output included: the per-axis set-up runs in
        place and the corner blend's temporaries go before the channels
        are stacked (172 B a point when neither held)."""
        rng = np.random.default_rng(34)
        dims = (24, 24, 24)
        img = rng.uniform(size=(*dims, 3))
        coords = displaced_axes(rng.uniform(-0.1, 0.1, size=(*dims, 3)))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sample_trilinear_values(img, coords)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        per_point = peak / np.prod(dims)
        assert per_point <= 140, f"a sample's forward peaks at {per_point:.1f} B per point"


class TestSharedSample:
    """``trilinear_samples``: one plan samples a 3-channel field and a
    1-channel image at the same points, as the loss samples u_ab (the
    penalty's compose) and B (its warp) at x + u_ba. The oracle is two
    separate ``trilinear_sample`` calls."""

    DIMS = (6, 5, 7)

    @classmethod
    def inputs(cls):
        rng = np.random.default_rng(51)
        field = rng_tensor(rng, cls.DIMS, channels=3, lo=-0.5, hi=0.5)
        image = rng_tensor(rng, cls.DIMS)
        # within a quarter cell of every node, so that each node carries weight
        u = rng_tensor(rng, cls.DIMS, channels=3, lo=-0.04, hi=0.04)
        weights = [rng_tensor(rng, cls.DIMS, channels=c) for c in (3, 1)]
        return field, image, u, weights

    @classmethod
    def gradients(cls, shared: bool, use_image: bool = True, field=None, u=None):
        """The loss and the gradients of field, image and u, with the image's
        output left off the loss (and fed to a node it never reads) unless
        ``use_image``."""
        field0, image0, u0, weights = cls.inputs()
        tape = Tape()
        params = [tape.input(t, parameter=True) for t in
                  (field0 if field is None else field, image0, u0 if u is None else u)]
        *images, u_node = params
        if shared:
            outs = tape.trilinear_samples(images, u_node)
        else:
            outs = [tape.trilinear_sample(image, u_node) for image in images]
        terms = [tape.sum_squares(tape.mul(out, tape.input(w))) for out, w in zip(outs, weights)]
        if use_image:
            loss = tape.add(*terms)
        else:
            loss = terms[0]
            tape.scale(outs[1], 2.0)
        values, grads = [out.value.data for out in outs], tape.backward(loss)
        return values, loss.value.item(), [grads[node.id].data for node in params]

    def test_outputs_and_image_adjoints_are_bitwise_and_u_within_rounding(self):
        shared_outs, shared_loss, shared = self.gradients(True)
        separate_outs, separate_loss, separate = self.gradients(False)
        for got, want in zip(shared_outs, separate_outs):
            assert got.tobytes() == want.tobytes()
        assert shared_loss == separate_loss
        assert shared[0].tobytes() == separate[0].tobytes()
        assert shared[1].tobytes() == separate[1].tobytes()
        # u's adjoint projects the corners onto all 4 channels at once
        assert np.max(np.abs(shared[2] - separate[2])) <= 1e-13
        assert np.max(np.abs(shared[2])) > 1.0

    def test_an_output_without_adjoint_leaves_the_other_bitwise(self):
        _, _, shared = self.gradients(True, use_image=False)
        _, _, separate = self.gradients(False, use_image=False)
        assert not shared[1].any() and not separate[1].any()
        assert shared[0].tobytes() == separate[0].tobytes()
        assert shared[2].tobytes() == separate[2].tobytes()

    @pytest.mark.parametrize("wrt", [0, 2], ids=["field", "u"])
    def test_grad_check(self, wrt):
        field0, _, u0, _ = self.inputs()

        def f(x0):
            kwargs = {"field": x0} if wrt == 0 else {"u": x0}
            _, loss, grads = self.gradients(True, **kwargs)
            return loss, Tensor3(grads[wrt])

        # quadratic in the field, so a wide step is exact up to rounding;
        # multilinear in the points within a cell, which a narrow step
        # keeps them in
        err = grad_check(f, field0 if wrt == 0 else u0, h=1e-3 if wrt == 0 else 1e-6)
        assert err < 1e-5, f"grad error {err}"

    def test_image_dims_must_match(self):
        field0, _, u0, _ = self.inputs()
        tape = Tape()
        with pytest.raises(TapeError, match="image dims differ"):
            tape.trilinear_samples((tape.input(field0), tape.input(Tensor3.zeros((6, 5, 6)))),
                                   tape.input(u0))

    def test_no_image_rejected(self):
        tape = Tape()
        with pytest.raises(TapeError, match="at least one image"):
            tape.trilinear_samples((), tape.input(self.inputs()[2]))


class TestTrilinearSplit:
    """A plan of ``_SPLIT_POINTS`` points or more runs its forward (the
    set-up and the corner blend) and its coordinate projection as two
    halves of the point range, the upper on a worker thread. The cases
    sample a 9 x 8 x 7 image at 41^3 points, some of them outside the
    domain."""

    SIDE = 41

    @classmethod
    def case(cls, channels, seed=0):
        rng = np.random.default_rng(61 + 10 * seed + channels)
        img = rng.uniform(-1.0, 1.0, size=(9, 8, 7, channels))
        pts = rng.uniform(-0.1, 1.1, size=(3, cls.SIDE, cls.SIDE, cls.SIDE))
        return img, pts, rng.normal(size=(cls.SIDE,) * 3 + (channels,))

    @staticmethod
    def run(img, pts, g):
        """The sample, then the image's and the points' adjoints. The plan
        writes its fractions over the coordinates it is given, so it gets a
        copy of ``pts``."""
        plan = _TrilinearPlan((img,), pts.copy())
        return (plan.out[0], *plan.vjp((g,), (True,), True))

    @pytest.mark.parametrize("channels", [1, 3, 4])
    def test_halves_match_one_pass_bitwise(self, channels, monkeypatch):
        started = started_threads(monkeypatch)
        assert self.SIDE**3 >= tape_module._SPLIT_POINTS
        split = self.run(*self.case(channels))
        assert len(started) == 2  # the forward's worker and the projection's
        monkeypatch.setattr(tape_module, "_SPLIT_POINTS", self.SIDE**3 + 1)
        one_pass = self.run(*self.case(channels))
        assert len(started) == 2
        for got, want in zip(split, one_pass):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("channels", [1, 3, 4])
    def test_halves_match_oracle(self, channels):
        # the adjoint is zero but at 400 points in both halves, so the
        # oracle's image adjoint is over those points alone
        img, pts, g = self.case(channels)
        n = self.SIDE**3
        picked = np.random.default_rng(channels).choice(n, 400, replace=False)
        assert picked.min() < n // 2 <= picked.max()
        flat_pts, flat_g = pts.reshape(3, -1).T[picked], g.reshape(-1, channels)[picked]
        g_sparse = np.zeros((n, channels))
        g_sparse[picked] = flat_g
        values, g_img, g_pts = trilinear_oracle(img, flat_pts, flat_g)
        out, got_img, got_pts = self.run(img, pts, g_sparse.reshape(g.shape))
        assert np.allclose(out.reshape(-1, channels)[picked], values, rtol=0, atol=1e-12)
        assert np.allclose(got_img, g_img, rtol=0, atol=1e-12)
        got_pts = got_pts.reshape(-1, 3)
        assert np.allclose(got_pts[picked], g_pts, rtol=0, atol=1e-12)
        assert np.count_nonzero(got_pts.any(axis=1)) <= len(picked)

    def test_two_split_plans_on_two_threads(self):
        # distinct tapes are safe on distinct threads, so two plans that
        # each start a worker must not disturb each other
        cases = [self.case(3, seed) for seed in (1, 2)]
        alone = [self.run(*case) for case in cases]
        together, barrier = [None, None], threading.Barrier(2)

        def work(k):
            barrier.wait()
            together[k] = self.run(*cases[k])

        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for got, want in zip(together, alone):
            assert got is not None
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    def test_worker_error_is_raised_in_the_caller(self):
        ran, n = [], tape_module._SPLIT_POINTS

        def part(s):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("worker half")
            ran.append(s)

        with pytest.raises(MemoryError, match="worker half"):
            tape_module._in_halves(part, n, n)
        assert ran == [slice(0, n // 2)]


def started_threads(monkeypatch) -> list:
    """The names of the threads started from here on, in order."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


class TestBoxSumSplit:
    """A window sum over a grid of ``_SPLIT_POINTS`` points or more adds
    its flat body as two halves, the upper on a worker thread. The cases
    lower the cutoff so that small odd grids split too."""

    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize("shape, axes", [((9, 8, 11, 1), (0, 1, 2)),
                                             ((12, 7, 9, 10, 1), (1, 2, 3))],
                             ids=["odd", "stack"])
    def test_halves_match_one_pass_bitwise(self, shape, axes, radius, monkeypatch):
        started = started_threads(monkeypatch)
        arr = np.random.default_rng(7 * radius + len(shape)).uniform(-1.0, 1.0, shape)
        for axis in axes:
            monkeypatch.setattr(tape_module, "_SPLIT_POINTS", 1)
            split = _box_sum_axis(arr, axis, radius, np.full(shape, np.nan))
            monkeypatch.setattr(tape_module, "_SPLIT_POINTS", arr.size + 1)
            one_pass = _box_sum_axis(arr, axis, radius, np.full(shape, np.nan))
            assert split.tobytes() == one_pass.tobytes()
            assert np.array_equal(one_pass, box_sum_slices(arr, axis, radius))
        assert len(started) == len(axes)  # one worker a split pass, none unsplit

    def test_every_box_mean_at_32_runs_in_one_pass(self, monkeypatch):
        # MIND-SSC's 12-plane stack is the largest box mean of a 32^3 run:
        # 393,216 values, but 32,768 grid points
        started = started_threads(monkeypatch)
        _box_mean(np.ones((12, 32, 32, 32, 1)), 1)
        assert started == []
        assert 32**3 < tape_module._SPLIT_POINTS <= 12 * 32**3

    def test_stack_splits_by_its_grid_not_its_values(self, monkeypatch):
        # a 12-plane stack of 7 x 9 x 10 grids: 7,560 values, 630 points
        started = started_threads(monkeypatch)
        arr = np.ones((12, 7, 9, 10, 1))
        monkeypatch.setattr(tape_module, "_SPLIT_POINTS", 631)
        _box_sum_axis(arr, 1, 1, np.empty(arr.shape))
        assert started == []
        monkeypatch.setattr(tape_module, "_SPLIT_POINTS", 630)
        _box_sum_axis(arr, 1, 1, np.empty(arr.shape))
        assert len(started) == 1

    def test_worker_error_is_raised_in_the_caller(self, monkeypatch):
        add, shape = np.add, (9, 8, 11, 1)

        def fail_in_worker(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("worker half")
            return add(*args, **kwargs)

        monkeypatch.setattr(tape_module, "_SPLIT_POINTS", 1)
        monkeypatch.setattr(np, "add", fail_in_worker)
        arr = np.random.default_rng(5).uniform(-1.0, 1.0, shape)
        with pytest.raises(MemoryError, match="worker half"):
            _box_sum_axis(arr, 0, 2, np.empty(shape))

    @staticmethod
    def inf_in_upper_half():
        """An (8, 8, 8, 1) array whose window sum along x at radius 1 adds
        inf to -inf in rows 4 and 5 only: the upper half of its flat body
        (rows 1-6), and no end slab."""
        arr = np.zeros((8, 8, 8, 1))
        arr[4], arr[5] = -np.inf, np.inf
        return arr

    @pytest.mark.parametrize("cutoff", [1, 8**3 + 1], ids=["split", "one_pass"])
    def test_worker_half_raises_under_the_callers_errstate(self, cutoff, monkeypatch):
        monkeypatch.setattr(tape_module, "_SPLIT_POINTS", cutoff)
        arr = self.inf_in_upper_half()
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError, match="invalid"):
            _box_sum_axis(arr, 0, 1, np.empty(arr.shape))

    @pytest.mark.parametrize("cutoff", [1, 8**3 + 1], ids=["split", "one_pass"])
    def test_worker_half_is_silent_under_the_callers_errstate(self, cutoff, monkeypatch):
        monkeypatch.setattr(tape_module, "_SPLIT_POINTS", cutoff)
        arr = self.inf_in_upper_half()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a worker's warning would raise there
            with np.errstate(invalid="ignore"):
                out = _box_sum_axis(arr, 0, 1, np.empty(arr.shape))
        assert np.isnan(out[4:6]).all() and not np.isnan(out[:4]).any()


class TestSplitRule:
    """Which passes split at the real cutoff: every pass over a 64^3 grid
    (or a 32^3 phantom's 63^3 grid) starts a worker, and no pass of a
    32^3 registration step does."""

    def test_lncc_box_mean_at_64_starts_one_worker_an_axis(self, monkeypatch):
        started = started_threads(monkeypatch)
        _box_mean(np.ones((64, 64, 64, 1)), 2)
        assert len(started) == 3

    def test_phantom_noise_at_32_splits_each_sum_and_divide(self, monkeypatch):
        # a 32^3 phantom is rendered on a 63^3 grid
        started = started_threads(monkeypatch)
        _smooth_noise(np.random.default_rng(0), (63, 63, 63), passes=1)
        assert len(started) == 6  # three window sums, three divides

    def test_plan_forward_at_64_starts_one_worker(self, monkeypatch):
        # the set-up and the corner blend of each half run on one thread
        started = started_threads(monkeypatch)
        _TrilinearPlan((np.ones((64, 64, 64, 3)),), node_axes((64, 64, 64)))
        assert len(started) == 1

    def test_adam_splits_the_full_grid_key_at_64(self, monkeypatch):
        # the full grid of a 64^3 model; its half grid is 32^3
        started = started_threads(monkeypatch)
        adam = Adam({"full": 1e-3, "half": 1e-3})
        params = {key: Tensor3.zeros((n, n, n), channels=3)
                  for key, n in (("full", 64), ("half", 32))}
        adam.step(params, {key: np.ones(value.shape) for key, value in params.items()})
        assert len(started) == 1

    @pytest.mark.parametrize("kind", ["LNCC2", "MIND_SSC"])
    def test_a_step_at_32_starts_no_thread(self, kind, monkeypatch):
        # MIND_SSC's 12-plane stack (393,216 values) is on 32^3 points too
        rng = np.random.default_rng(4)
        a, b = (Volume(Tensor3(rng.uniform(0.1, 0.9, (32, 32, 32))), modality="SYNTH-BASE",
                       preprocessed=True) for _ in range(2))
        started = started_threads(monkeypatch)
        instance_optimize(a, b, LossConfig(similarity=SimilarityConfig(kind=kind)),
                          OptimizerConfig(steps=1))
        assert started == []


# (coarse dims, coarse dims, fine dims): the pyramid's odd halvings, and a
# length-1 axis (one node, read everywhere) next to a downsampled one
UPSAMPLE_CASES = [((5, 4, 4), (9, 8, 7), (17, 15, 13)), ((1, 3, 6), (2, 5, 6), (3, 7, 4))]
UPSAMPLE_IDS = ["pyramid", "thin"]


class TestUpsampleSum:
    @staticmethod
    def fields(dims, channels=3, seed=0):
        rng = np.random.default_rng(seed + sum(map(sum, dims)))
        return [rng_tensor(rng, d, channels=channels, lo=-1.0, hi=1.0) for d in dims]

    @pytest.mark.parametrize("dims", UPSAMPLE_CASES, ids=UPSAMPLE_IDS)
    def test_matches_trilinear_sample_at_the_nodes(self, dims):
        # the oracle: every coarse field sampled at the fine grid's nodes
        q, h, s = self.fields(dims)
        tape = Tape()
        out = tape.upsample_sum(*(tape.input(t) for t in (q, h, s)))
        nodes = node_axes(dims[2])
        want = s.data + sample_trilinear_values(q.data, nodes) + sample_trilinear_values(h.data, nodes)
        assert out.value.shape == s.shape
        assert np.max(np.abs(out.value.data - want)) <= 1e-13

    @pytest.mark.parametrize("dims", UPSAMPLE_CASES, ids=UPSAMPLE_IDS)
    @pytest.mark.parametrize("parent", [0, 1, 2], ids=["q", "h", "s"])
    def test_grad_wrt_each_parent(self, dims, parent):
        fields = self.fields(dims, seed=1)
        weight = rng_tensor(np.random.default_rng(parent), dims[2], channels=3)

        def f(x0):
            tape = Tape()
            nodes = [tape.input(t) for t in fields]
            nodes[parent] = tape.input(x0, parameter=True)
            out = tape.mul(tape.upsample_sum(*nodes), tape.input(weight))
            loss = tape.sum_squares(out, mean=True)
            return loss.value.item(), tape.backward(loss)[nodes[parent].id]

        # the loss is quadratic, so central differences are exact up to
        # rounding, which a wide step keeps small
        err = grad_check(f, fields[parent], h=1e-3)
        assert err < 1e-5, f"grad error {err}"

    @staticmethod
    def dot(a, b):
        return np.ravel(a) @ np.ravel(b)

    @pytest.mark.parametrize("coarse", [[(6, 5, 4)], [(6, 5, 4), (11, 10, 9)]],
                             ids=["one", "two"])
    def test_vjp_is_the_adjoint(self, coarse):
        # <up(x_k), g> = <x_k, vjp_k(g)> for each coarse field x_k, up(x_k)
        # the op's output with every other field zero
        fields = self.fields([*coarse, (21, 19, 17)], seed=2)
        g = np.random.default_rng(4).normal(size=fields[-1].shape)
        tape = Tape()
        adjoints = tape.upsample_sum(*(tape.input(t) for t in fields))._vjp(g)
        for k, x in enumerate(fields[:-1]):
            alone = [t if i == k else Tensor3.zeros(t.dims, 3) for i, t in enumerate(fields)]
            want = self.dot(tape.upsample_sum(*map(tape.input, alone)).value.data, g)
            assert abs(self.dot(x.data, adjoints[k]) - want) <= 1e-12 * abs(want)

    def test_vjp_through_resample_field_nodes_reads_no_node_value(self):
        # the resampled field is an intermediate node, so the sweep drops
        # its value (and the op's) before the op's vjp runs
        (x,) = self.fields([(6, 5, 4)], seed=3)
        g = np.random.default_rng(5).normal(size=(21, 19, 17, 3))
        tape = Tape()
        param = tape.input(x, parameter=True)
        u = tape.scale(param, 1.0)
        out = resample_field_nodes(tape, u, g.shape[:3])
        loss = tape.sum(tape.mul(out, tape.input(Tensor3(g))))
        want = self.dot(out.value.data, g)
        grad = tape.backward(loss)[param.id]
        assert u.value is None and out.value is None
        assert abs(self.dot(x.data, grad.data) - want) <= 1e-12 * abs(want)

    def test_one_node_whose_vjp_hands_the_fine_field_g(self):
        q, s = self.fields([(4, 4, 4), (7, 7, 7)])
        tape = Tape()
        nodes = [tape.input(q, parameter=True), tape.input(s, parameter=True)]
        out = tape.upsample_sum(*nodes)
        assert [node.op for node in tape.nodes] == ["param", "param", "upsample_sum"]
        g = np.random.default_rng(3).normal(size=s.shape)
        g_q, g_s = out._vjp(g)
        assert g_s is g and g_q.shape == q.shape

    def test_channel_mismatch_rejected(self):
        q, s = self.fields([(4, 4, 4), (7, 7, 7)])
        tape = Tape()
        with pytest.raises(TapeError, match="channels differ"):
            tape.upsample_sum(tape.input(q), tape.input(Tensor3(s.data[..., :1])))

    def test_no_field_rejected(self):
        with pytest.raises(TapeError, match="at least one field"):
            Tape().upsample_sum()


class TestBackwardMemory:
    def test_sweep_releases_intermediate_adjoints(self):
        """A chain of 16 ops needs only a few adjoints alive at once: the
        one being consumed and its vjp's contribution, which the parent
        keeps as its adjoint."""
        dims, channels = (32, 32, 32), 3
        tape = Tape()
        x = tape.input(Tensor3(np.full((*dims, channels), 0.5)), parameter=True)
        node = x
        for _ in range(16):
            node = tape.scale(node, 1.01)
        loss = tape.sum(node)
        array_bytes = x.value.data.nbytes
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grads = tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert np.allclose(grads[x.id].data, 1.01**16)
        assert peak <= 4 * array_bytes, (
            f"backward peaked at {peak / array_bytes:.1f} arrays above its start")
