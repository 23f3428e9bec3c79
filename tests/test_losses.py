"""Inverse-consistency penalty and the symmetric pair loss."""

import gc
import tracemalloc

import numpy as np
import pytest

from deformreg import losses
from deformreg.losses import (
    LossConfig,
    gradient_inverse_consistency,
    gradient_inverse_consistency_nodes,
)
from deformreg.similarity import loss_similarity
from deformreg.tape import Tape, grad_check
from deformreg.tensor import ConfigError, Tensor3
from deformreg.transforms import DisplacementField, compose_nodes
from deformreg.pipeline import build_model, loss_breakdown, stage_grid_dims
from deformreg.volume import Volume


def make_volume(values):
    return Volume(grid=Tensor3(np.asarray(values, dtype=np.float64)),
                  modality="SYNTH-BASE", preprocessed=True)


def rng_pair(seed, dims):
    rng = np.random.default_rng(seed)
    a = make_volume(rng.uniform(0.1, 0.9, dims))
    b = make_volume(rng.uniform(0.1, 0.9, dims))
    return a, b


def gicon_brute_force(u_ab, u_ba):
    """Explicit composition + per-voxel central differences + Frobenius
    sum over interior voxels / interior count, written with plain loops."""
    from tests_helpers_interp import lerp3

    dims = u_ba.shape[:3]
    grid = np.stack(
        np.meshgrid(*[np.linspace(0, 1, n) for n in dims], indexing="ij"), axis=-1
    )
    comp = np.empty_like(u_ba)
    for idx in np.ndindex(*dims):
        y = grid[idx] + u_ba[idx]
        u1 = np.array([lerp3(u_ab[..., c], y) for c in range(3)])
        comp[idx] = u_ba[idx] + u1
    total = 0.0
    count = 0
    for idx in np.ndindex(*dims):
        if any(i == 0 or i == n - 1 for i, n in zip(idx, dims)):
            continue
        count += 1
        for comp_c in range(3):
            for axis in range(3):
                n = dims[axis]
                h = 1.0 / (n - 1)
                lo = list(idx)
                hi = list(idx)
                lo[axis] -= 1
                hi[axis] += 1
                d = (comp[tuple(hi)][comp_c] - comp[tuple(lo)][comp_c]) / (2 * h)
                total += d * d
    return total / count


class TestInverseConsistency:
    def test_identity_pair_exact_zero(self):
        ident = DisplacementField.identity((6, 6, 6))
        assert gradient_inverse_consistency(ident, ident) == 0.0

    def test_exact_translation_inverses(self):
        t = (0.07, -0.03, 0.05)
        fwd = DisplacementField.translation((6, 6, 6), t)
        back = DisplacementField.translation((6, 6, 6), tuple(-x for x in t))
        assert gradient_inverse_consistency(fwd, back) <= 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        u_ab = rng.uniform(-0.04, 0.04, size=(6, 6, 6, 3))
        u_ba = np.zeros((6, 6, 6, 3))
        got = gradient_inverse_consistency(
            DisplacementField(Tensor3(u_ab)), DisplacementField(Tensor3(u_ba))
        )
        expect = gicon_brute_force(u_ab, u_ba)
        assert abs(got - expect) <= 1e-10

    def test_small_grid_rejected(self):
        small = DisplacementField.identity((2, 6, 6))
        with pytest.raises(ConfigError, match=r"consistency penalty needs a grid >= 3\^3"):
            gradient_inverse_consistency(small, small)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(2)
        u_ba_t = Tensor3(rng.uniform(-0.03, 0.03, size=(8, 8, 8, 3)))

        def f(u0):
            tape = Tape()
            u_ab = tape.input(u0, parameter=True)
            u_ba = tape.input(u_ba_t)
            loss = gradient_inverse_consistency_nodes(tape, u_ab, u_ba)
            grads = tape.backward(loss)
            return loss.value.item(), grads[u_ab.id]

        u0 = Tensor3(rng.uniform(-0.03, 0.03, size=(8, 8, 8, 3)))
        assert grad_check(f, u0, h=1e-6, seed=3) < 1e-3


def chain_penalty(tape, comp):
    """The penalty as the three nodes the ``consistency`` op replaces."""
    n_interior = int(np.prod([n - 2 for n in comp.value.dims]))
    return tape.scale(tape.sum_squares(tape.spatial_gradient(comp)), 1.0 / n_interior)


def penalty_and_gradient(record, comp0: Tensor3):
    """The penalty ``record(tape, comp)`` of ``comp0`` and its gradient."""
    tape = Tape()
    comp = tape.input(comp0, parameter=True)
    node = record(tape, comp)
    return node.value.item(), tape.backward(node)[comp.id].data


def penalty_brute_force(comp):
    """Per interior voxel, each channel's squared central difference along
    each axis, summed with plain loops and divided by the interior count."""
    dims = comp.shape[:3]
    total, count = 0.0, 0
    for idx in np.ndindex(*dims):
        if any(i == 0 or i == n - 1 for i, n in zip(idx, dims)):
            continue
        count += 1
        for c in range(comp.shape[3]):
            for axis in range(3):
                hi, lo = list(idx), list(idx)
                hi[axis] += 1
                lo[axis] -= 1
                d = (comp[tuple(hi)][c] - comp[tuple(lo)][c]) * (dims[axis] - 1) / 2.0
                total += d * d
    return total / count


class TestConsistencyOp:
    """The penalty is one op (``consistency``) with the gradient, bit for
    bit, and the value, to rounding, of ``spatial_gradient`` ->
    ``sum_squares`` -> ``scale``."""

    CASES = [((3, 4, 5), 1), ((3, 4, 5), 3), ((9, 7, 6), 1), ((9, 7, 6), 3)]
    IDS = ["3x4x5-C1", "3x4x5-C3", "9x7x6-C1", "9x7x6-C3"]

    @staticmethod
    def operand(dims, channels, seed=0):
        rng = np.random.default_rng(seed + 10 * channels + sum(dims))
        return Tensor3(rng.uniform(-0.05, 0.05, size=(*dims, channels)))

    @pytest.mark.parametrize("dims, channels", CASES, ids=IDS)
    def test_value_and_gradient_equal_the_three_nodes_bitwise(self, dims, channels):
        """The gradient is the chain's byte for byte. The value is the
        chain's ``spatial_gradient`` output summed axis by axis, bit for
        bit: it differs from the chain's ``sum_squares`` over the
        interleaved 9 channels only in summation order, within 1e-15."""
        comp = self.operand(dims, channels)
        value, grad = penalty_and_gradient(losses._consistency_of, comp)
        want_value, want_grad = penalty_and_gradient(chain_penalty, comp)
        tape = Tape()
        jac = chain_penalty(tape, tape.input(comp)).parents[0].parents[0]
        assert jac.op == "spatial_gradient"
        by_axis = 0.0
        for axis in range(3):
            d = np.ascontiguousarray(jac.value.data[..., axis::3])
            by_axis += float(np.sum(d * d))
        by_axis *= 1.0 / int(np.prod([n - 2 for n in dims]))
        assert value > 0.0 and value == by_axis
        assert value == pytest.approx(want_value, rel=1e-15, abs=0)
        assert grad.tobytes() == want_grad.tobytes()

    def test_one_node_that_keeps_its_operand_only(self):
        tape = Tape()
        comp = tape.input(self.operand((5, 5, 5), 3), parameter=True)
        before = len(tape.nodes)
        node = losses._consistency_of(tape, comp)
        assert len(tape.nodes) == before + 1
        assert node.op == "consistency" and node.parents == (comp,)

    @pytest.mark.parametrize("dims, channels", CASES, ids=IDS)
    def test_matches_brute_force(self, dims, channels):
        comp = self.operand(dims, channels, seed=1)
        value, _ = penalty_and_gradient(losses._consistency_of, comp)
        assert value == pytest.approx(penalty_brute_force(comp.data), rel=1e-12, abs=0)

    def test_gradient_against_finite_differences(self):
        def f(comp):
            value, grad = penalty_and_gradient(losses._consistency_of, comp)
            return value, Tensor3(grad)

        comp = self.operand((6, 5, 7), 3, seed=2)
        assert grad_check(f, comp, h=1e-6, seed=4) < 1e-6

    @pytest.mark.parametrize("dims", [(2, 5, 5), (5, 2, 5), (5, 5, 2)])
    def test_below_3_cubed_rejected(self, dims):
        tape = Tape()
        comp = tape.input(Tensor3.zeros(dims, channels=3))
        with pytest.raises(ConfigError, match=r"^consistency penalty needs a grid >= 3\^3, got "):
            losses._consistency_of(tape, comp)

    @pytest.mark.parametrize("record, bound", [(losses._consistency_of, 0.05),
                                               (chain_penalty, None)],
                             ids=["op", "three-nodes"])
    def test_keeps_no_gradient_until_backward(self, record, bound):
        """Recorded on a 24^3 3-channel operand, the op keeps less than 5 %
        of its operand's bytes beyond the operand; the three nodes keep the
        9-channel gradient, about 2.3 operands."""
        rng = np.random.default_rng(36)
        tape = Tape()
        comp = tape.input(Tensor3(rng.uniform(-0.02, 0.02, (24, 24, 24, 3))), parameter=True)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            node = record(tape, comp)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert node.value.item() > 0.0
        share = kept / comp.value.data.nbytes
        if bound is None:
            assert 2.2 <= share <= 2.4, f"the three nodes keep {share:.2f} operands"
        else:
            assert share < bound, f"the penalty op keeps {share:.3f} operands"

    def test_forward_peaks_below_2_interior_fields(self):
        """Recorded on a 24^3 3-channel operand, the op's forward holds one
        axis's differences at a time: its peak above its entry is about 1.5
        interior 3-channel fields (5.0 when it built the 9-channel interior
        gradient, 2.5 if an axis's differences outlived their sum)."""
        rng = np.random.default_rng(37)
        tape = Tape()
        comp = tape.input(Tensor3(rng.uniform(-0.02, 0.02, (24, 24, 24, 3))), parameter=True)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            node = losses._consistency_of(tape, comp)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert node.value.item() > 0.0
        fields = peak / (22**3 * 3 * 8)
        assert fields < 2.0, f"the penalty's forward peaks at {fields:.2f} interior fields"


class TestInverseConsistencyMemory:
    def test_penalty_keeps_at_most_160_bytes_per_interior_point(self, monkeypatch):
        """What the penalty keeps alive until backward beyond its compose:
        its one op keeps the compose's value and no gradient, about 0 B per
        interior point (72 B when it kept the 9-channel gradient, about
        180 B when that gradient was taken over the whole grid and
        cropped); ``TestConsistencyOp`` bounds it tightly."""
        rng = np.random.default_rng(34)
        dims = (16, 16, 16)
        tape = Tape()
        u_ab, u_ba = (tape.input(Tensor3(rng.uniform(-0.02, 0.02, (*dims, 3))),
                                 parameter=True) for _ in range(2))
        comp = compose_nodes(tape, u_ab, u_ba)
        monkeypatch.setattr(losses, "compose_nodes", lambda *_: comp)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            penalty = gradient_inverse_consistency_nodes(tape, u_ab, u_ba)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert penalty.value.item() > 0.0
        per_point = kept / np.prod([n - 2 for n in dims])
        assert per_point <= 160, f"the penalty keeps {per_point:.0f} B per interior point"


class TestTotalLoss:
    def test_aligned_pair_identity_model(self):
        rng = np.random.default_rng(4)
        v = make_volume(rng.uniform(0.1, 0.9, (8, 8, 8)))
        model = build_model((8, 8, 8))
        cfg = LossConfig()
        breakdown = loss_breakdown(v, v, model, cfg)
        assert breakdown["total"] < 4e-3
        assert breakdown["reg"] == 0.0

    def test_lambda_zero_equals_similarity_terms(self):
        a, b = rng_pair(5, (8, 8, 8))
        model = build_model((8, 8, 8))
        breakdown = loss_breakdown(a, b, model, LossConfig(lam=0.0))
        assert abs(breakdown["total"] - (breakdown["sim_ab"] + breakdown["sim_ba"])) <= 1e-12

    def test_termwise_assembly_oracle(self):
        a, b = rng_pair(6, (8, 8, 8))
        model = build_model((8, 8, 8))  # identity: warps are no-ops
        cfg = LossConfig(lam=1.5)
        got = loss_breakdown(a, b, model, cfg)["total"]
        expect = loss_similarity(a.grid, b.grid, cfg.similarity) + loss_similarity(
            b.grid, a.grid, cfg.similarity
        )
        assert abs(got - expect) <= 1e-12

    def test_monotone_in_lambda(self):
        a, b = rng_pair(7, (8, 8, 8))
        model = build_model((8, 8, 8))
        rng = np.random.default_rng(8)
        for key in model.params:  # non-identity model so reg > 0
            model.params[key] = Tensor3(
                rng.uniform(-0.02, 0.02, size=(*model.params[key].dims, 3))
            )
        values = [loss_breakdown(a, b, model, LossConfig(lam=lam))["total"]
                  for lam in (0.0, 0.5, 1.5, 3.0)]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_swap_symmetry_with_tied_direction_sets(self):
        a, b = rng_pair(9, (8, 8, 8))
        model = build_model((8, 8, 8))
        rng = np.random.default_rng(10)
        for stage, dims in enumerate(stage_grid_dims(model.base_dims)):
            u = Tensor3(rng.uniform(-0.02, 0.02, size=(*dims, 3)))
            model.params[model.param_key("ab", stage)] = u
            model.params[model.param_key("ba", stage)] = u
        cfg = LossConfig()
        ab, ba = loss_breakdown(a, b, model, cfg), loss_breakdown(b, a, model, cfg)
        assert abs(ab["total"] - ba["total"]) <= 1e-12

    def test_dim_mismatch(self):
        a, _ = rng_pair(16, (8, 8, 8))
        c, _ = rng_pair(17, (9, 8, 8))
        with pytest.raises(ConfigError, match="volume dims differ"):
            loss_breakdown(a, c, build_model((8, 8, 8)), LossConfig())
