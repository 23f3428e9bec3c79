"""Inverse-consistency penalty and the symmetric pair loss."""

import gc
import tracemalloc

import numpy as np
import pytest

from deformreg import losses
from deformreg.losses import (
    LossConfig,
    LossError,
    gradient_inverse_consistency,
    gradient_inverse_consistency_nodes,
)
from deformreg.similarity import loss_similarity
from deformreg.tape import Tape, grad_check
from deformreg.tensor import Tensor3
from deformreg.transforms import DisplacementField, compose_nodes
from deformreg.pipeline import PipelineError, build_model, loss_breakdown, stage_grid_dims
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
        with pytest.raises(LossError):
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


class TestInverseConsistencyMemory:
    def test_penalty_keeps_at_most_160_bytes_per_interior_point(self, monkeypatch):
        """What the penalty keeps alive until backward beyond its compose:
        the 9-channel gradient at the interior nodes and its square, 72 B
        a point each. Taking the gradient over the whole grid and cropping
        it would keep about 180 B per interior point at 16^3."""
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
        with pytest.raises(PipelineError):
            loss_breakdown(a, c, build_model((8, 8, 8)), LossConfig())
