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


def first_step_tapes(monkeypatch, kind, n):
    """The three tapes of the first (gradient-taking) loss forward of a
    one-step instance_optimize run on a random pair of side n, in the
    order recorded: the pyramid's (u_ab), branch (b)'s and branch (a)'s."""
    tapes = []

    class Recorded(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(pipeline, "Tape", Recorded)
    rng = np.random.default_rng(5)
    a, b = (make_volume(rng.uniform(0.1, 0.9, (n, n, n))) for _ in range(2))
    instance_optimize(a, b, LossConfig(similarity=SimilarityConfig(kind=kind)),
                      OptimizerConfig(steps=1))
    assert len(tapes) == 6  # the step's forward, then the final one
    return tapes[:3]


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
        # a direction's grids enter the tape when it is first evaluated,
        # and the other direction's never do
        model = build_model((16, 16, 16))
        for direction in DIRECTIONS:
            tape = Tape()
            bound = BoundPyramid(tape, model)
            u = bound.evaluate(direction)
            keys = [model.param_key(direction, i) for i in range(STAGE_COUNT)]
            assert [node.op for node in tape.nodes] == ["param"] * 3 + ["upsample_sum"]
            assert list(bound.nodes) == keys
            assert u.parents == tuple(bound.nodes[key] for key in keys)
            bound.evaluate(direction)
            assert [node.op for node in tape.nodes] == ["param"] * 3 + ["upsample_sum"] * 2

    def test_constant_translations_sum(self):
        model = build_model((16, 16, 16))
        shifts = [(0.05, -0.02, 0.0), (0.03, 0.01, -0.04), (-0.01, 0.015, 0.03)]
        for stage, (dims, t) in enumerate(zip(stage_grid_dims(model.base_dims), shifts)):
            model.params[model.param_key("ab", stage)] = DisplacementField.translation(dims, t).u
        phi_ab, phi_ba = model.fields()
        assert np.allclose(phi_ab.u.data, np.sum(shifts, axis=0), atol=1e-12)
        assert np.max(np.abs(phi_ba.u.data)) == 0.0


class TestLossNodeInventory:
    """One step's loss forward, on three tapes. The pyramid's tape holds
    the ``ab`` grids and u_ab, one ``upsample_sum`` node. Branch (b)'s
    holds u_ab as a parameter leaf, the ``ba`` grids and u_ba, B (the
    source of its warp), one plan (op ``trilinear_sample``) that samples
    both u_ab (the penalty's compose) and B at x + u_ba, with one
    ``trilinear_output`` node per image, the penalty (one ``consistency``
    node), sim_ba and its weighted sum. Branch (a)'s holds its own u_ab
    leaf, A, A's warp (a plan with one output) and sim_ab. A trilinear
    sample adds the identity grid itself, the MSE term subtracts the fixed
    image inside its sum of squares, and each MIND_SSC term is one
    ``mind_ssc_loss`` node (28, 22 and 22 nodes on one tape, before the
    branches had tapes of their own; 30 and 24 when the penalty was a
    spatial gradient, a sum of squares and a scale)."""

    @pytest.mark.parametrize("kind, n, nodes", [
        ("LNCC2", 16, (4, 17, 8)), ("MIND_SSC", 16, (4, 14, 5)), ("MSE", 16, (4, 14, 5)),
        ("LNCC2", 32, (4, 17, 8))], ids=["LNCC2-16", "MIND_SSC-16", "MSE-16", "LNCC2-32"])
    def test_one_forward(self, monkeypatch, kind, n, nodes):
        tapes = first_step_tapes(monkeypatch, kind, n)
        assert tuple(len(tape.nodes) for tape in tapes) == nodes
        counts = []
        for tape in tapes:
            ops = Counter(node.op for node in tape.nodes)
            counts.append((ops["input"], ops["param"], ops["upsample_sum"],
                           ops["trilinear_sample"], ops["trilinear_output"], ops["consistency"]))
        assert counts == [(0, 3, 1, 0, 0, 0), (1, 4, 1, 1, 2, 1), (1, 1, 0, 1, 1, 0)]


class TestFixedSideHoisting:
    """Each similarity term's fixed side is built once per pair, so a
    step's tapes record only work that depends on the parameters."""

    @pytest.mark.parametrize("kind", SIMILARITY_KINDS)
    def test_step_tape_holds_no_constant_work(self, monkeypatch, kind):
        for tape in first_step_tapes(monkeypatch, kind, 16):
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


class TestBranchTapes:
    """A step records u_ab on the pyramid's tape and each loss branch on a
    tape of its own, and sweeps u_ab's tape from the sum of the branches'
    shares of its adjoint. Its loss value and every gradient, and each
    term ``loss_breakdown`` returns, are those of one tape holding
    ``randomized_loss_nodes`` and its ``backward``, byte for byte."""

    @pytest.mark.parametrize("dims", [(16, 16, 16), (21, 19, 17)], ids=["16", "21x19x17"])
    @pytest.mark.parametrize("kind", SIMILARITY_KINDS)
    def test_step_equals_one_tape_bitwise(self, monkeypatch, kind, dims):
        model = random_model(dims, seed=21)
        rng = np.random.default_rng(22)
        a, b = (make_volume(rng.uniform(0.1, 0.9, dims)) for _ in range(2))
        cfg = LossConfig(similarity=SimilarityConfig(kind=kind))
        tape = Tape()
        bound = BoundPyramid(tape, model)
        side_a, side_b = (fixed_side(v.grid, cfg.similarity) for v in (a, b))
        total, terms = randomized_loss_nodes(tape, bound.evaluate("ab"), bound.evaluate("ba"),
                                             side_a, side_b, cfg)
        value = total.value.item()
        want = {"total": value, **{key: node.value.item() for key, node in terms.items()}}
        got = loss_breakdown(a, b, model, cfg)
        assert list(got) == ["total", "sim_ab", "sim_ba", "reg"]
        for key, term in want.items():
            assert np.float64(got[key]).tobytes() == np.float64(term).tobytes(), key
        grads = tape.backward(total)
        expected = {key: grads[node.id].data for key, node in bound.nodes.items()}

        seen, step = [], pipeline.Adam.step

        def spy(adam, params, grads):
            seen.append(grads)
            return step(adam, params, grads)

        monkeypatch.setattr(pipeline, "build_model", lambda dims: model.copy())
        monkeypatch.setattr(pipeline.Adam, "step", spy)
        trace = instance_optimize(a, b, cfg, OptimizerConfig(steps=1)).loss_trace
        assert np.float64(trace[0]).tobytes() == np.float64(value).tobytes()
        (got,) = seen
        assert sorted(got) == sorted(expected)
        for key, grad in expected.items():
            assert got[key].shape == grad.shape and got[key].tobytes() == grad.tobytes(), key


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


def sweep_memory(monkeypatch, steps, n=24, kind="LNCC2"):
    """Per step of a ``kind`` ``instance_optimize`` run of ``steps`` steps
    on a random pair of side n: the (entry, peak) traced bytes of each of
    its three ``Tape.sweep`` calls (branch (b)'s, branch (a)'s, then
    u_ab's), and the step peak. A sweep's peak is the highest point it
    reaches; the step peak is the highest point from the end of the
    previous step's last sweep (from the run's start, fixed sides
    included, for the first) to the end of the step's last sweep."""
    sweep, calls = Tape.sweep, []

    def traced(tape, top, adjoint):
        entry, before = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        grads = sweep(tape, top, adjoint)
        peak = tracemalloc.get_traced_memory()[1]
        calls.append((entry, peak, max(before, peak)))
        tracemalloc.reset_peak()
        return grads

    monkeypatch.setattr(Tape, "sweep", traced)
    rng = np.random.default_rng(12)
    a, b = (make_volume(rng.uniform(0.1, 0.9, (n, n, n))) for _ in range(2))
    tracemalloc.start()
    try:
        instance_optimize(a, b, LossConfig(similarity=SimilarityConfig(kind=kind)),
                          OptimizerConfig(steps=steps))
    finally:
        tracemalloc.stop()
    assert len(calls) == 3 * steps
    return [([(entry, peak) for entry, peak, _ in calls[k:k + 3]],
             max(step_peak for *_, step_peak in calls[k:k + 3]))
            for k in range(0, len(calls), 3)]


FIELD_BYTES = 24**3 * 3 * 8


def in_fields(readings) -> str:
    return ", ".join(f"{reading / FIELD_BYTES:.2f}" for reading in readings)


class TestStepMemory:
    """Each sweep consumes its tape, the two branches' tapes are never
    held at once, and a step's gradients are gone before the next step
    records its own. At 24^3, one step's three sweeps (branch (b)'s,
    branch (a)'s, u_ab's) enter with 11.20, 10.33 and 7.19 fields and
    peak at 14.21, 12.33 and 8.95 (one tape with one sweep entered with
    14.4 and peaked 0.87 fields above that, in the shared plan's vjp, when
    it also held u_ab's adjoint from A's warp)."""

    def test_each_sweep_peaks_at_most_14_5_fields(self, monkeypatch):
        # values no vjp reads go before each sweep, and each vjp's closure
        # (a trilinear plan among them) once the sweep has passed it; the
        # highest point is the shared plan's vjp in branch (b)'s sweep
        ((sweeps, _),) = sweep_memory(monkeypatch, steps=1)
        peaks = [peak for _, peak in sweeps]
        assert max(peaks) <= 14.5 * FIELD_BYTES, f"the sweeps peaked at {in_fields(peaks)} fields"

    def test_sweep_enters_with_at_most_15_fields(self, monkeypatch):
        # what a step keeps for each sweep: the LNCC maps keep E[a], cov
        # and the denominator, the squared reductions no square, the
        # trilinear plans no output and the penalty its operand, not its
        # 9-channel gradient (32.6 fields when none of them did, 16.7 when
        # the penalty kept its gradient, 14.4 on one tape with one sweep)
        ((sweeps, _),) = sweep_memory(monkeypatch, steps=1)
        entries = [entry for entry, _ in sweeps]
        assert max(entries) <= 15 * FIELD_BYTES, (
            f"the sweeps entered with {in_fields(entries)} fields")

    def test_second_step_holds_only_adams_moments_more(self, monkeypatch):
        # Adam's m and v appear with the first update; the first step's
        # gradients (one more parameter set) must not outlive it
        (first, _), (second, _) = sweep_memory(monkeypatch, steps=2)
        param_bytes = sum(value.data.nbytes for value in build_model((24,) * 3).params.values())
        for (before, _), (after, _) in zip(first, second):
            grown = after - before
            assert grown <= 2.5 * param_bytes, (
                f"a sweep's entry grew {grown / param_bytes:.2f} parameter sets from step 1 to 2")


class TestMindSscStepMemory:
    """What a MIND_SSC step keeps: each term is one op that keeps the
    padded image, the 12 distances, V and the floor's mask, and no
    descriptor, and the penalty keeps its operand, not its 9-channel
    gradient. Each branch is recorded and swept before the next, so the
    step never holds both terms' distances: the three sweeps enter with
    21.35, 20.50 and 13.90 fields and peak at 22.03, 23.18 and 15.65, the
    step's peak, which branch (a)'s MIND_SSC vjp reaches. With both
    terms on one tape the sweep entered with 28.0 fields and rose 0.3
    above that, and the step peaked at 28.4 fields in the second term's
    forward, which held the first term's closure (37.9, 9.6 and 47.5 when
    a term was a descriptor node, which kept its output, and a sum of
    squares; 53.1 and 66.0 when the descriptor also kept the pair
    differences and the sum a 12-plane sub node; 30.2, 1.8 and 34.3 when
    the penalty kept its gradient and a term's vjp held two 12-plane
    stacks; 27.9, 0.3 and 32.0 when a term's forward also held two)."""

    def test_sweep_enters_with_at_most_29_fields(self, monkeypatch):
        ((sweeps, _),) = sweep_memory(monkeypatch, steps=1, kind="MIND_SSC")
        entries = [entry for entry, _ in sweeps]
        assert max(entries) <= 29 * FIELD_BYTES, (
            f"the sweeps entered with {in_fields(entries)} fields")

    def test_each_sweep_peaks_at_most_24_fields(self, monkeypatch):
        # a term's vjp holds one 12-plane stack and half of another at
        # most: it writes each distance's adjoint over that distance and
        # takes the box transpose half a stack at a time
        ((sweeps, _),) = sweep_memory(monkeypatch, steps=1, kind="MIND_SSC")
        peaks = [peak for _, peak in sweeps]
        assert max(peaks) <= 24 * FIELD_BYTES, f"the sweeps peaked at {in_fields(peaks)} fields"

    def test_step_peaks_at_most_24_fields(self, monkeypatch):
        # the fixed sides, the three forwards and the three sweeps of the
        # one step; the highest point is branch (a)'s sweep
        ((_, step_peak),) = sweep_memory(monkeypatch, steps=1, kind="MIND_SSC")
        assert step_peak <= 24 * FIELD_BYTES, (
            f"the step peaked at {step_peak / FIELD_BYTES:.2f} fields")


class TestLossBreakdownMemory:
    """``loss_breakdown`` records the step's three tapes unswept, freeing
    branch (b)'s before branch (a)'s is recorded, so it never holds both
    similarity terms. On a random 24^3 pair it peaks at 19.05 fields with
    MIND_SSC and 9.52 with LNCC2 (25.68 and 12.67 when it recorded both
    branches on one tape)."""

    @pytest.mark.parametrize("kind, bound", [("MIND_SSC", 21), ("LNCC2", 11)])
    def test_peak_in_fields(self, kind, bound):
        rng = np.random.default_rng(23)
        a, b = (make_volume(rng.uniform(0.1, 0.9, (24, 24, 24))) for _ in range(2))
        model = random_model((24, 24, 24), seed=24)
        cfg = LossConfig(similarity=SimilarityConfig(kind=kind))
        loss_breakdown(a, b, model, cfg)  # fills the box-scale and interpolation caches
        tracemalloc.start()
        try:
            loss_breakdown(a, b, model, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * FIELD_BYTES, (
            f"loss_breakdown peaked at {peak / FIELD_BYTES:.2f} fields")


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
                                            ("MIND_SSC", 32, 2), ("LNCC2", 64, 2)],
                         ids=["LNCC2", "MIND_SSC", "MIND_SSC-32", "LNCC2-64"])
def test_registration_does_not_depend_on_blas_threads(kind, n, steps):
    # the pyramid's upsampling (and the MIND vjp) multiply by matrices
    # through BLAS; the result must be the same however many threads BLAS
    # splits the products over, which at 64^3 it can for the stacked
    # axis-0 product of each direction. The MIND_SSC term sums its value
    # plane by plane with np.sum, which BLAS does not run; 32^3 is the
    # benchmark's MIND_SSC size
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
