"""Pyramid wiring, model construction, and instance optimization."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import deformreg
from deformreg import pipeline
from deformreg import tape as tape_module
from deformreg.losses import LossConfig, randomized_loss_nodes
from deformreg.pipeline import (
    DIRECTIONS,
    STAGE_COUNT,
    BoundPyramid,
    NumericalAbort,
    OptimizerConfig,
    RunConfig,
    build_model,
    instance_optimize,
    loss_breakdown,
    stage_grid_dims,
)
from deformreg.similarity import (
    SIMILARITY_KINDS,
    SimilarityConfig,
    fixed_side,
    loss_similarity,
)
from deformreg.tape import Tape, _node_interpolation, grad_check
from deformreg.tensor import ConfigError, Tensor3, grid_coordinates
from deformreg.transforms import (
    DisplacementField,
    compose_nodes,
    resample_field_nodes,
    resample_field_to,
    warp,
)
from deformreg.volume import Volume


def make_volume(values):
    return Volume(grid=Tensor3(np.asarray(values, dtype=np.float64)),
                  modality="SYNTH-BASE", preprocessed=True)


def random_model(dims, seed, scale=0.02):
    rng = np.random.default_rng(seed)
    model = build_model(dims)
    for key in model.params:
        model.params[key] = Tensor3(rng.uniform(-scale, scale, (*model.params[key].dims, 3)))
    return model


def plain_pyramid(model, direction):
    """The pyramid written in plain numpy, in the op's association
    s + (up(q) + up(h)): each coarse stage's axes 2 and then 1
    interpolated to the full grid with the op's per-axis matrices, both
    stages stacked along axis 0, and one product with their axis-0
    matrices side by side."""
    q, h, s = (model.params[model.param_key(direction, i)].data for i in range(STAGE_COUNT))

    def mats(t):
        return [_node_interpolation(n, m) for n, m in zip(t.shape[:3], s.shape[:3])]

    def inner(t):
        for axis in (2, 1):
            t = np.moveaxis(np.tensordot(mats(t)[axis], t, axes=(1, axis)), 0, axis)
        return t

    side_by_side = np.hstack([mats(q)[0], mats(h)[0]])
    return s + np.tensordot(side_by_side, np.concatenate([inner(q), inner(h)]), axes=(1, 0))


def first_step_tape(monkeypatch, kind, n):
    """The tape of the first (gradient-taking) loss forward of a one-step
    instance_optimize run on a random pair of side n."""
    tapes = []

    def spy(tape, *args):
        tapes.append(tape)
        return randomized_loss_nodes(tape, *args)

    monkeypatch.setattr(pipeline, "randomized_loss_nodes", spy)
    rng = np.random.default_rng(5)
    a, b = (make_volume(rng.uniform(0.1, 0.9, (n, n, n))) for _ in range(2))
    instance_optimize(a, b, LossConfig(similarity=SimilarityConfig(kind=kind)),
                      OptimizerConfig(steps=1))
    return tapes[0]


def constant_field_node(tape, dims, t):
    """Constant-translation stage field as a tape input."""
    return tape.input(DisplacementField.translation(dims, t).u)


class TestTwoStep:
    """compose_nodes, with which the consistency penalty composes the maps."""

    def test_identity_stages(self):
        tape = Tape()
        dims = (8, 8, 8)
        u1 = constant_field_node(tape, dims, (0, 0, 0))
        u2 = constant_field_node(tape, dims, (0, 0, 0))
        out = compose_nodes(tape, u1, u2)
        assert np.max(np.abs(out.value.data)) <= 1e-12

    def test_translation_then_identity(self):
        tape = Tape()
        dims = (8, 8, 8)
        u1 = constant_field_node(tape, dims, (0.1, 0.0, 0.0))
        u2 = constant_field_node(tape, dims, (0.0, 0.0, 0.0))
        out = compose_nodes(tape, u1, u2)
        assert np.allclose(out.value.data, [0.1, 0.0, 0.0], atol=1e-12)

    def test_translations_compose_additively(self):
        tape = Tape()
        dims = (8, 8, 8)
        u1 = constant_field_node(tape, dims, (0.05, -0.02, 0.0))
        u2 = constant_field_node(tape, dims, (0.03, 0.01, -0.04))
        out = compose_nodes(tape, u1, u2)
        assert np.allclose(out.value.data, [0.08, -0.01, -0.04], atol=1e-12)


class TestDownSample:
    """warp_nodes' resample: a field on a coarser grid than the image it warps."""

    def test_identity_passthrough(self):
        tape = Tape()
        dims = (16, 16, 16)
        coarse = constant_field_node(tape, (8, 8, 8), (0, 0, 0))
        out = resample_field_nodes(tape, coarse, dims)
        assert out.value.dims == dims
        assert np.max(np.abs(out.value.data)) <= 1e-12

    def test_constant_translation_is_scale_free(self):
        tape = Tape()
        dims = (16, 16, 16)
        coarse = constant_field_node(tape, (8, 8, 8), (0.07, 0.0, -0.01))
        out = resample_field_nodes(tape, coarse, dims)
        assert out.value.dims == dims
        assert np.allclose(out.value.data, [0.07, 0.0, -0.01], atol=1e-12)


class TestExplicitComposition:
    """The pyramid u = up(q) + up(h) + s: an explicit sum of its stages."""

    @pytest.mark.parametrize("dims", [(16, 16, 16), (21, 19, 17)])
    def test_bitwise_oracle(self, dims):
        model = random_model(dims, seed=11)
        fields = model.fields()
        for direction, phi in zip(DIRECTIONS, fields):
            assert phi.dims == dims
            assert np.array_equal(phi.u.data, plain_pyramid(model, direction))
            # the same sum with each coarse stage resampled by the trilinear kernel
            q, h, s = (DisplacementField(model.params[model.param_key(direction, i)])
                       for i in range(STAGE_COUNT))
            sampled = s.u.data + resample_field_to(q, dims).u.data + resample_field_to(h, dims).u.data
            assert np.max(np.abs(phi.u.data - sampled)) <= 1e-13

    def test_node_counts_per_direction(self):
        model = build_model((16, 16, 16))
        for direction in DIRECTIONS:
            tape = Tape()
            bound = BoundPyramid(tape, model)
            u = bound.evaluate(direction)
            assert [node.op for node in tape.nodes] == ["param"] * 6 + ["upsample_sum"]
            assert u.parents == tuple(bound.nodes[model.param_key(direction, i)]
                                      for i in range(STAGE_COUNT))

    def test_constant_translations_sum(self):
        model = build_model((16, 16, 16))
        shifts = [(0.05, -0.02, 0.0), (0.03, 0.01, -0.04), (-0.01, 0.015, 0.03)]
        for stage, (dims, t) in enumerate(zip(stage_grid_dims(model.base_dims), shifts)):
            model.params[model.param_key("ab", stage)] = DisplacementField.translation(dims, t).u
        phi_ab, phi_ba = model.fields()
        assert np.allclose(phi_ab.u.data, np.sum(shifts, axis=0), atol=1e-12)
        assert np.max(np.abs(phi_ba.u.data)) == 0.0


class TestLossNodeInventory:
    """One step's loss forward. Each direction's map is one
    ``upsample_sum`` node, and a trilinear sample adds the identity grid
    itself, so the only inputs are the two images, each the source of its
    warp; the MSE term subtracts the fixed image inside its sum of
    squares, and each MIND_SSC term is one ``mind_ssc_loss`` node. Every
    sample is a
    plan node (op ``trilinear_sample``) with one ``trilinear_output`` node
    per image it reads. Two plans remain: A's warp, with one output, and
    one plan that samples both u_ab (the penalty's compose) and B (its
    warp) at x + u_ba, with two. The penalty is one ``consistency`` node
    (30 and 24 nodes a forward when it was a spatial gradient, a sum of
    squares and a scale)."""

    @pytest.mark.parametrize("kind, n, nodes, inputs", [
        ("LNCC2", 16, 28, 2), ("MIND_SSC", 16, 22, 2), ("MSE", 16, 22, 2),
        ("LNCC2", 32, 28, 2)], ids=["LNCC2-16", "MIND_SSC-16", "MSE-16", "LNCC2-32"])
    def test_one_forward(self, monkeypatch, kind, n, nodes, inputs):
        tape = first_step_tape(monkeypatch, kind, n)
        ops = Counter(node.op for node in tape.nodes)
        assert len(tape.nodes) == nodes
        assert (ops["input"], ops["param"], ops["upsample_sum"], ops["trilinear_sample"],
                ops["trilinear_output"], ops["consistency"]) == (inputs, 6, 2, 2, 3, 1)


class TestFixedSideHoisting:
    """Each similarity term's fixed side is built once per pair, so a
    step's tape records only work that depends on the parameters."""

    @pytest.mark.parametrize("kind", SIMILARITY_KINDS)
    def test_step_tape_holds_no_constant_work(self, monkeypatch, kind):
        tape = first_step_tape(monkeypatch, kind, 16)
        constant = [node.op for node in tape.nodes
                    if node.op not in ("input", "param") and not node.needs_grad]
        assert constant == []

    @pytest.mark.parametrize("kind", SIMILARITY_KINDS)
    def test_identity_loss_pairs_each_image_with_the_other_fixed_side(self, kind):
        # at the identity the penalty is exactly 0, so the first trace
        # value is the two similarity terms: A against B, then B against A
        rng = np.random.default_rng(8)
        a, b = (make_volume(rng.uniform(0.1, 0.9, (12, 12, 12))) for _ in range(2))
        sim = SimilarityConfig(kind=kind)
        trace = instance_optimize(a, b, LossConfig(similarity=sim),
                                  OptimizerConfig(steps=0)).loss_trace
        assert trace[0] == loss_similarity(a, b, sim) + loss_similarity(b, a, sim)


class TestCoarseStageGradients:
    """Finite-difference check of the pair objective through the coarse
    stages ab0, ab1 and ba0, which the pyramid interpolates to every full-
    resolution node. The full-resolution stage ab2 enters the sum as it
    is; A1 probes it.

    A coarse coordinate moves many warped points at once, so a step of
    1e-6 can carry one of them across a face of the image warp's trilinear
    cells, where the objective has a kink: probe 21 of ab1 (seed 1) reads
    6.387e-3 there against an analytic 6.5665e-3. A step of 1e-7 stays
    clear of it and keeps the rounding error far below the bound."""

    @pytest.mark.parametrize("kind", ["LNCC2", "MIND_SSC"])
    def test_objective_gradient_per_stage(self, kind):
        # the A1 set-up: the same random stream, images and model
        dims = (8, 8, 8)
        rng = np.random.default_rng(101)
        a, b = (Tensor3(rng.uniform(0.1, 0.9, (*dims, 1))) for _ in range(2))
        rng.uniform(-0.03, 0.03, (2, *dims, 3))  # A1's two similarity-check fields
        model = build_model(dims)
        for key in model.params:
            model.params[key] = Tensor3(rng.uniform(-0.01, 0.01, (*model.params[key].dims, 3)))
        cfg = LossConfig(similarity=SimilarityConfig(kind=kind, window_radius=1))

        def objective(key):
            def f(x0):
                probe = model.copy()
                probe.params[key] = x0
                tape = Tape()
                bound = BoundPyramid(tape, probe)
                fa, fb = (fixed_side(x, cfg.similarity) for x in (a, b))
                total, _ = randomized_loss_nodes(tape, bound.evaluate("ab"), bound.evaluate("ba"),
                                                 fa, fb, cfg)
                return total.value.item(), tape.backward(total)[bound.nodes[key].id]

            return f

        for seed, key in ((0, "ab0"), (1, "ab1"), (3, "ba0")):
            worst = grad_check(objective(key), model.params[key], h=1e-7, seed=seed)
            assert worst < 1e-3, f"{kind} {key}: {worst:.2e}"


class TestBuildModel:
    def test_stage_dims_from_nesting(self):
        assert stage_grid_dims((32, 32, 32)) == ((8,) * 3, (16,) * 3, (32,) * 3)
        model = build_model((32, 32, 32))
        assert model.params["ab0"].dims == (8, 8, 8)
        assert model.params["ab1"].dims == (16, 16, 16)
        assert model.params["ab2"].dims == (32, 32, 32)
        assert model.params["ba2"].dims == (32, 32, 32)

    def test_odd_dims_pool_with_ceil(self):
        assert stage_grid_dims((21, 21, 21)) == ((6,) * 3, (11,) * 3, (21,) * 3)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError, match=r"base dims must be >= 8 per axis"):
            build_model((6, 32, 32))

    def test_fresh_model_is_identity(self):
        phi_ab, phi_ba = build_model((16, 16, 16)).fields()
        assert np.max(np.abs(phi_ab.u.data)) == 0.0
        assert np.max(np.abs(phi_ba.u.data)) == 0.0

    def test_model_dims_must_match_volumes(self):
        rng = np.random.default_rng(3)
        a = make_volume(rng.uniform(0.1, 0.9, (16, 16, 16)))
        b = make_volume(rng.uniform(0.1, 0.9, (16, 16, 16)))
        model = build_model((20, 20, 20))
        with pytest.raises(ConfigError, match=r"\(20, 20, 20\).*\(16, 16, 16\)"):
            loss_breakdown(a, b, model, LossConfig())

    def test_unknown_direction(self):
        bound = BoundPyramid(Tape(), build_model((16, 16, 16)))
        with pytest.raises(ConfigError, match="direction must be one of"):
            bound.evaluate("xy")


class TestInstanceOptimize:
    def test_aligned_pair_stays_near_identity(self):
        rng = np.random.default_rng(4)
        v = make_volume(rng.uniform(0.1, 0.9, (16, 16, 16)))
        res = instance_optimize(v, v, LossConfig(), OptimizerConfig(steps=10))
        from deformreg.transforms import percent_neg_jac

        assert percent_neg_jac(res.phi_ab) == 0.0
        assert len(res.loss_trace) == 11
        # Adam steps +-lr even at a perfect optimum, so allow either the
        # 2x-slack bound or an absolute epsilon-scale ceiling
        assert res.loss_trace[-1] <= max(2 * res.loss_trace[0], 5e-3)
        assert np.max(np.abs(res.phi_ab.u.data)) < 0.5 / 15.0  # half a voxel

    def test_trace_deterministic(self):
        rng = np.random.default_rng(5)
        a = make_volume(rng.uniform(0.1, 0.9, (16, 16, 16)))
        b = make_volume(rng.uniform(0.1, 0.9, (16, 16, 16)))
        cfg = OptimizerConfig(steps=5)
        first = instance_optimize(a, b, LossConfig(), cfg)
        second = instance_optimize(a, b, LossConfig(), cfg)
        assert first.loss_trace == second.loss_trace
        assert np.array_equal(first.phi_ab.u.data, second.phi_ab.u.data)

    def test_each_forward_evaluates_the_pyramid_once_per_direction(self, monkeypatch):
        # the maps of the final forward are the result: nothing evaluates
        # the pyramid again after the last step
        directions, evaluate = [], BoundPyramid.evaluate

        def counted(bound, direction):
            directions.append(direction)
            return evaluate(bound, direction)

        monkeypatch.setattr(BoundPyramid, "evaluate", counted)
        rng = np.random.default_rng(12)
        a, b = (make_volume(rng.uniform(0.1, 0.9, (16, 16, 16))) for _ in range(2))
        steps = 3
        instance_optimize(a, b, LossConfig(), OptimizerConfig(steps=steps))
        assert directions == ["ab", "ba"] * (steps + 1)

    def test_a_step_builds_no_identity_grid(self, monkeypatch):
        # every sample reads the per-axis node coordinates, so no module
        # rebuilds the (n^3, 3) grid of grid_coordinates within a run
        calls = []

        def counted(dims):
            calls.append(dims)
            return grid_coordinates(dims)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "deformreg" and hasattr(module, "grid_coordinates"):
                monkeypatch.setattr(module, "grid_coordinates", counted)
        rng = np.random.default_rng(13)
        a, b = (make_volume(rng.uniform(0.1, 0.9, (16, 16, 16))) for _ in range(2))
        instance_optimize(a, b, LossConfig(), OptimizerConfig(steps=1))
        assert calls == []

    def test_translation_recovery(self):
        rng = np.random.default_rng(6)
        n = 16
        base = rng.uniform(0, 1, (n, n, n))
        for _ in range(2):
            for axis in range(3):
                base = (np.roll(base, 1, axis) + base + np.roll(base, -1, axis)) / 3
        base = (base - base.min()) / (base.max() - base.min())
        a = make_volume(base)
        t = (0.05, 0.0, 0.0)
        b = warp(a, DisplacementField.translation((n, n, n), t))
        res = instance_optimize(a, b, LossConfig(), OptimizerConfig(steps=150))
        interior = res.phi_ab.u.data[3:-3, 3:-3, 3:-3, :]
        assert interior[..., 0].mean() == pytest.approx(t[0], rel=0.1)

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        a = make_volume(rng.uniform(0, 1, (16, 16, 16)))
        b = make_volume(rng.uniform(0, 1, (18, 16, 16)))
        with pytest.raises(ConfigError, match="volume dims differ"):
            instance_optimize(a, b)

    def test_unpreprocessed_rejected(self):
        rng = np.random.default_rng(8)
        raw = Volume(Tensor3(rng.uniform(0, 500, (16, 16, 16))), modality="CT")
        with pytest.raises(ConfigError, match="pair losses expect preprocessed volumes"):
            instance_optimize(raw, raw)

    def test_numerical_abort_carries_step(self):
        rng = np.random.default_rng(9)
        a = make_volume(rng.uniform(0.1, 0.9, (16, 16, 16)))
        b = make_volume(rng.uniform(0.1, 0.9, (16, 16, 16)))
        absurd = OptimizerConfig(steps=3, lr=2e185)
        with pytest.raises(NumericalAbort) as err:
            instance_optimize(a, b, LossConfig(), absurd)
        assert err.value.step >= 1

    @pytest.mark.parametrize("loss_cfg, opt_cfg, step, reason", [
        # lr * damping overflows to inf, so the first update is not finite
        (LossConfig(), OptimizerConfig(steps=2, lr=1e308, stage_damping=(2, 0.3, 0.1)), 0,
         "non-finite values"),
        # the penalty's gradient squares past the float range in v
        (LossConfig(lam=1e200), OptimizerConfig(steps=3), 1, "overflow")],
        ids=["update", "second_moment"])
    def test_non_finite_adam_step_aborts_at_its_step(self, loss_cfg, opt_cfg, step, reason):
        rng = np.random.default_rng(9)
        a, b = (make_volume(rng.uniform(0.1, 0.9, (16, 16, 16))) for _ in range(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns of no overflow on the way
            with pytest.raises(NumericalAbort) as err:
                instance_optimize(a, b, loss_cfg, opt_cfg)
        assert err.value.step == step
        assert str(err.value).startswith(f"Adam update of ab0: {reason}")



class TestAdam:
    """``Adam.step`` against the closed form, on gradients that are not
    C-contiguous (``np.moveaxis`` views), in one pass and with every key
    split in halves."""

    LR = {"a": 0.3, "b": 2e-3}

    @staticmethod
    def gradients(rng):
        return {"a": np.moveaxis(rng.normal(size=(3, 5, 4, 6)), 0, -1),
                "b": np.moveaxis(rng.normal(size=(2, 6, 3, 3)), 0, 1)}

    @pytest.mark.parametrize("cutoff", [1, 5 * 4 * 6 + 1], ids=["split", "one_pass"])
    def test_three_steps_equal_the_closed_form_bitwise(self, cutoff, monkeypatch):
        monkeypatch.setattr(tape_module, "_SPLIT_POINTS", cutoff)
        rng = np.random.default_rng(14)
        params = {"a": Tensor3(rng.normal(size=(5, 4, 6, 3))),
                  "b": Tensor3(rng.normal(size=(6, 2, 3, 3)))}
        want = {key: (value.data, 0.0, 0.0) for key, value in params.items()}
        adam = pipeline.Adam(self.LR)
        for t in (1, 2, 3):
            grads = self.gradients(rng)
            assert not any(g.flags.c_contiguous for g in grads.values())
            params = adam.step(params, grads)
            for key, g in grads.items():
                x, m, v = want[key]
                m = m * pipeline.BETA1 + g * (1 - pipeline.BETA1)
                v = v * pipeline.BETA2 + g * (1 - pipeline.BETA2) * g
                x = x - m / (1 - pipeline.BETA1**t) * self.LR[key] / (
                    np.sqrt(v / (1 - pipeline.BETA2**t)) + pipeline.ADAM_EPS)
                want[key] = (x, m, v)
                assert params[key].data.tobytes() == np.ascontiguousarray(x).tobytes()

    def test_overflow_in_the_upper_half_names_the_key(self, monkeypatch):
        monkeypatch.setattr(tape_module, "_SPLIT_POINTS", 1)
        params = {key: Tensor3.zeros((4, 4, 4), channels=3) for key in ("ab0", "ab1")}
        grads = {key: np.ones((4, 4, 4, 3)) for key in params}
        grads["ab1"][-1, -1, -1, -1] = 1e200  # v squares it past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="^Adam update of ab1: overflow"):
                pipeline.Adam({"ab0": 1e-3, "ab1": 1e-3}).step(params, grads)

    @pytest.mark.parametrize("shape", [(4, 4, 4, 1), (4, 4, 5, 3), (192,)],
                             ids=["channels", "dims", "flat"])
    def test_gradient_of_another_shape_names_the_key(self, shape):
        # the same number of values (flat) is not enough either, and the
        # rejected step leaves the first key's moments and the count alone
        params = {key: Tensor3.zeros((4, 4, 4), channels=3) for key in ("a", "b")}
        adam = pipeline.Adam({"a": 1e-3, "b": 1e-3})
        with pytest.raises(ConfigError, match=r"^Adam update of b: gradient shape "):
            adam.step(params, {"a": np.ones((4, 4, 4, 3)), "b": np.ones(shape)})
        assert adam.t == 0 and adam.m == {} and adam.v == {}

    def test_missing_gradient_names_the_key(self):
        params = {key: Tensor3.zeros((4, 4, 4), channels=3) for key in ("a", "b")}
        adam = pipeline.Adam({"a": 1e-3, "b": 1e-3})
        with pytest.raises(ConfigError, match=r"^Adam update of b: no gradient$"):
            adam.step(params, {"a": np.ones((4, 4, 4, 3))})
        assert adam.t == 0 and adam.m == {} and adam.v == {}


def backward_memory(monkeypatch, steps, n=24, kind="LNCC2"):
    """(entry, peak, step peak) traced bytes of each ``Tape.backward`` call
    in a ``kind`` ``instance_optimize`` run of ``steps`` steps on a random
    pair of side n. The peak is the highest point the sweep reaches; the
    step peak is the highest point since the previous sweep ended (since
    the run began, fixed sides included, for the first), or the sweep's."""
    sweep, calls = Tape.backward, []

    def traced(tape, loss):
        entry, before = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        grads = sweep(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
        calls.append((entry, peak, max(before, peak)))
        tracemalloc.reset_peak()
        return grads

    monkeypatch.setattr(Tape, "backward", traced)
    rng = np.random.default_rng(12)
    a, b = (make_volume(rng.uniform(0.1, 0.9, (n, n, n))) for _ in range(2))
    tracemalloc.start()
    try:
        instance_optimize(a, b, LossConfig(similarity=SimilarityConfig(kind=kind)),
                          OptimizerConfig(steps=steps))
    finally:
        tracemalloc.stop()
    return calls


class TestStepMemory:
    """Backward consumes its tape, and a step's gradients are gone before
    the next step records its own."""

    def test_sweep_rises_at_most_one_field_above_its_entry(self, monkeypatch):
        # values no vjp reads go before the sweep, and each vjp's closure
        # (a trilinear plan among them) once the sweep has passed it; the
        # peak (0.87 fields) is in the shared plan's vjp, 6.35 fields above
        # that vjp's start
        ((entry, peak, _),) = backward_memory(monkeypatch, steps=1)
        field_bytes = 24**3 * 3 * 8
        assert peak - entry <= field_bytes, (
            f"backward rose {(peak - entry) / field_bytes:.2f} fields above its entry")

    def test_sweep_enters_with_at_most_15_fields(self, monkeypatch):
        # what a step keeps for its sweep: the LNCC maps keep E[a], cov and
        # the denominator, the squared reductions no square, the trilinear
        # plans no output and the penalty its operand, not its 9-channel
        # gradient (32.6 fields when none of them did, 16.7 when the
        # penalty kept its gradient; 14.4 now)
        ((entry, _, _),) = backward_memory(monkeypatch, steps=1)
        field_bytes = 24**3 * 3 * 8
        assert entry <= 15 * field_bytes, (
            f"backward entered with {entry / field_bytes:.2f} fields")

    def test_second_step_holds_only_adams_moments_more(self, monkeypatch):
        # Adam's m and v appear with the first update; the first step's
        # gradients (one more parameter set) must not outlive it
        (first, _, _), (second, _, _) = backward_memory(monkeypatch, steps=2)
        param_bytes = sum(value.data.nbytes for value in build_model((24,) * 3).params.values())
        grown = second - first
        assert grown <= 2.5 * param_bytes, (
            f"backward entry grew {grown / param_bytes:.2f} parameter sets from step 1 to 2")


class TestMindSscStepMemory:
    """What a MIND_SSC step keeps: each term is one op that keeps the
    padded image, the 12 distances, V and the floor's mask, and no
    descriptor, and the penalty keeps its operand, not its 9-channel
    gradient (37.9 fields at the sweep's entry, a 9.6-field rise and a
    47.5-field step peak when a term was a descriptor node, which kept its
    output, and a sum of squares; 53.1 and 66.0 when the descriptor also
    kept the pair differences and the sum a 12-plane sub node; 30.2, 1.8
    and 34.3 when the penalty kept its gradient and a term's vjp held two
    12-plane stacks; 27.9, 0.3 and 32.0 now). The step peak is reached in
    the second term's forward, not in the sweep: that forward holds the
    first term's closure next to its own distances and the box mean's
    second 12-plane buffer."""

    def test_sweep_enters_with_at_most_29_fields(self, monkeypatch):
        ((entry, _, _),) = backward_memory(monkeypatch, steps=1, kind="MIND_SSC")
        field_bytes = 24**3 * 3 * 8
        assert entry <= 29 * field_bytes, (
            f"backward entered with {entry / field_bytes:.2f} fields")

    def test_sweep_rises_at_most_2_5_fields_above_its_entry(self, monkeypatch):
        # a term's vjp holds one 12-plane stack and half of another at
        # most: it writes each distance's adjoint over that distance and
        # takes the box transpose half a stack at a time
        ((entry, peak, _),) = backward_memory(monkeypatch, steps=1, kind="MIND_SSC")
        field_bytes = 24**3 * 3 * 8
        assert peak - entry <= 2.5 * field_bytes, (
            f"backward rose {(peak - entry) / field_bytes:.2f} fields above its entry")

    def test_step_peaks_at_most_33_fields(self, monkeypatch):
        # the fixed sides, the forward and the sweep of the one step; the
        # highest point is the second term's forward, not the sweep
        ((_, _, step_peak),) = backward_memory(monkeypatch, steps=1, kind="MIND_SSC")
        field_bytes = 24**3 * 3 * 8
        assert step_peak <= 33 * field_bytes, (
            f"the step peaked at {step_peak / field_bytes:.2f} fields")


class TestRunConfig:
    def test_dict_round_trip(self):
        custom = RunConfig(LossConfig(lam=0.5, similarity=SimilarityConfig(kind="MIND_SSC")),
                           OptimizerConfig(steps=7, stage_damping=[1, 0.5, 0]))
        assert custom.optimizer.stage_damping == (1, 0.5, 0)
        assert RunConfig.from_dict(custom.to_dict()) == custom
        assert RunConfig.from_dict({}) == RunConfig()


# a registration of a random pair with the similarity, cube side and step
# count given as arguments; prints the sha256 of its loss trace and both maps
_DIGEST = """
import sys
import hashlib
import numpy as np
from deformreg import (LossConfig, OptimizerConfig, SimilarityConfig, Tensor3, Volume,
                       instance_optimize)
kind, n, steps = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rng = np.random.default_rng(3)
a, b = (Volume(Tensor3(rng.uniform(0.1, 0.9, (n, n, n))), modality="SYNTH-BASE",
               preprocessed=True) for _ in range(2))
res = instance_optimize(a, b, LossConfig(similarity=SimilarityConfig(kind=kind)),
                        OptimizerConfig(steps=steps))
h = hashlib.sha256(np.asarray(res.loss_trace).tobytes())
h.update(res.phi_ab.u.data.tobytes())
h.update(res.phi_ba.u.data.tobytes())
print(h.hexdigest())
"""


@pytest.mark.parametrize("kind, n, steps", [("LNCC2", 20, 3), ("MIND_SSC", 20, 3),
                                            ("LNCC2", 64, 2)],
                         ids=["LNCC2", "MIND_SSC", "LNCC2-64"])
def test_registration_does_not_depend_on_blas_threads(kind, n, steps):
    # the pyramid's upsampling (and the MIND vjp) multiply by matrices
    # through BLAS; the result must be the same however many threads BLAS
    # splits the products over, which at 64^3 it can for the stacked
    # axis-0 product of each direction
    src_dir = str(Path(deformreg.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _DIGEST, kind, str(n), str(steps)],
                              capture_output=True, text=True, env=env, timeout=300,
                              check=True)
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
