"""Similarity losses against brute-force oracles and their sign/affine claims."""

import tracemalloc

import numpy as np
import pytest

from deformreg.similarity import (
    NEIGHBOR_OFFSETS,
    SIMILARITY_KINDS,
    SSC_PAIRS,
    SimilarityConfig,
    fixed_side,
    lncc_map,
    lncc_map_nodes,
    loss_similarity,
    loss_similarity_nodes,
    mind_ssc_descriptor,
    mind_ssc_descriptor_nodes,
    mind_ssc_loss_nodes,
)
from deformreg.tape import Tape, grad_check
from deformreg.tensor import ConfigError, Tensor3, TensorError
from deformreg.transforms import warp_nodes


def lncc_brute_force(a, b, radius, eps):
    """Literal per-voxel windowed Pearson with truncated windows."""
    dims = a.shape
    out = np.empty(dims)
    for idx in np.ndindex(*dims):
        sl = tuple(
            slice(max(i - radius, 0), min(i + radius, n - 1) + 1)
            for i, n in zip(idx, dims)
        )
        wa, wb = a[sl], b[sl]
        ma, mb = wa.mean(), wb.mean()
        cov = (wa * wb).mean() - ma * mb
        va = (wa * wa).mean() - ma * ma
        vb = (wb * wb).mean() - mb * mb
        out[idx] = cov / np.sqrt((va + eps) * (vb + eps))
    return out


def mind_brute_force(img, patch_radius, eps):
    """Literal SSC descriptor: clamped shifts, truncated patch means,
    exp(-SSD/V) with V the floored mean of the 12 distances."""
    dims = img.shape

    def clamped(x, y, z):
        return img[
            min(max(x, 0), dims[0] - 1),
            min(max(y, 0), dims[1] - 1),
            min(max(z, 0), dims[2] - 1),
        ]

    shifted = []
    for off in NEIGHBOR_OFFSETS:
        s = np.empty(dims)
        for x, y, z in np.ndindex(*dims):
            s[x, y, z] = clamped(x + off[0], y + off[1], z + off[2])
        shifted.append(s)

    desc = np.empty((*dims, 12))
    r = patch_radius
    for x, y, z in np.ndindex(*dims):
        sl = tuple(
            slice(max(i - r, 0), min(i + r, n - 1) + 1) for i, n in zip((x, y, z), dims)
        )
        ssds = []
        for i, j in SSC_PAIRS:
            d = shifted[i][sl] - shifted[j][sl]
            ssds.append((d * d).mean())
        v = max(np.mean(ssds), eps)
        desc[x, y, z, :] = np.exp(-np.array(ssds) / v)
    return desc


def mind_ssc_composed_nodes(tape, a, cfg):
    """The descriptor as a graph of elementwise tape ops (6 shifts; 12 each
    of sub, square and box filter; 11 adds; scale and clamp; 12 each of
    div, scale and exp; a concat): the reference the one-node op must match
    bit for bit."""
    shifted = [tape.shift(a, off) for off in NEIGHBOR_OFFSETS]
    ssds = []
    for i, j in SSC_PAIRS:
        diff = tape.sub(shifted[i], shifted[j])
        ssds.append(tape.box_filter(tape.square(diff), cfg.mind_patch_radius))
    total = ssds[0]
    for k in range(1, 12):
        total = tape.add(total, ssds[k])
    v_floor = tape.clamp(tape.scale(total, 1.0 / 12.0), lo=cfg.eps)
    channels = [tape.exp(tape.scale(tape.div(ssd, v_floor), -1.0)) for ssd in ssds]
    return tape.concat_channels(channels)


def rng_volume(rng, dims):
    return Tensor3(rng.uniform(0.05, 0.95, size=(*dims, 1)))


class TestLnccMap:
    def test_self_correlation_near_one(self):
        rng = np.random.default_rng(1)
        a = rng_volume(rng, (8, 8, 8))
        rho = lncc_map(a, a).data[2:-2, 2:-2, 2:-2]
        assert np.min(rho) > 1 - 1e-3

    def test_anticorrelation_near_minus_one(self):
        rng = np.random.default_rng(2)
        a = rng_volume(rng, (8, 8, 8))
        b = Tensor3(1.0 - a.data)
        rho = lncc_map(a, b).data[2:-2, 2:-2, 2:-2]
        assert np.max(rho) < -1 + 1e-3

    @pytest.mark.parametrize("radius", [1, 2])
    def test_matches_brute_force(self, radius):
        rng = np.random.default_rng(3 + radius)
        a = rng.uniform(0, 1, (8, 8, 8))
        b = rng.uniform(0, 1, (8, 8, 8))
        cfg = SimilarityConfig(kind="LNCC", window_radius=radius)
        got = lncc_map(Tensor3(a), Tensor3(b), cfg).data[..., 0]
        expect = lncc_brute_force(a, b, radius, cfg.eps)
        assert np.max(np.abs(got - expect)) <= 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(ConfigError, match="input dims differ"):
            lncc_map(Tensor3.zeros((4, 4, 4)), Tensor3.zeros((5, 4, 4)))


class TestLossSimilarity:
    def test_lncc2_self(self):
        rng = np.random.default_rng(5)
        a = rng_volume(rng, (8, 8, 8))
        assert loss_similarity(a, a, SimilarityConfig(kind="LNCC2")) < 2e-3

    def test_sign_agnosticism(self):
        rng = np.random.default_rng(6)
        a = rng_volume(rng, (8, 8, 8))
        b = Tensor3(1.0 - a.data)
        assert loss_similarity(a, b, SimilarityConfig(kind="LNCC2")) < 2e-3
        assert loss_similarity(a, b, SimilarityConfig(kind="LNCC")) > 1.9

    def test_plain_wrappers_take_raw_arrays(self):
        rng = np.random.default_rng(10)
        a, b = rng_volume(rng, (8, 8, 8)), rng_volume(rng, (8, 8, 8))
        raw_a, raw_b = a.data[..., 0], b.data[..., 0]
        assert np.array_equal(lncc_map(raw_a, raw_b).data, lncc_map(a, b).data)
        for kind in SIMILARITY_KINDS:
            cfg = SimilarityConfig(kind=kind)
            assert loss_similarity(raw_a, raw_b, cfg) == loss_similarity(a, b, cfg), kind

    def test_mse_exact_zero(self):
        rng = np.random.default_rng(7)
        a = rng_volume(rng, (6, 6, 6))
        assert loss_similarity(a, a, SimilarityConfig(kind="MSE")) == 0.0

    def test_symmetry_bit_exact(self):
        rng = np.random.default_rng(8)
        a, b = rng_volume(rng, (7, 7, 7)), rng_volume(rng, (7, 7, 7))
        cfg = SimilarityConfig(kind="LNCC2")
        assert loss_similarity(a, b, cfg) == loss_similarity(b, a, cfg)

    @pytest.mark.parametrize("alpha", [2.0, -1.0, -0.5])
    @pytest.mark.parametrize("beta", [0.0, 0.3])
    def test_lncc2_affine_intensity_robustness(self, alpha, beta):
        rng = np.random.default_rng(9)
        a = rng_volume(rng, (8, 8, 8))
        b = Tensor3(alpha * a.data + beta)
        assert loss_similarity(a, b, SimilarityConfig(kind="LNCC2")) < 2e-3
        if alpha < 0:
            assert loss_similarity(a, b, SimilarityConfig(kind="LNCC")) > 1.9


class TestMindSsc:
    def test_pair_set(self):
        assert len(SSC_PAIRS) == 12
        for i, j in SSC_PAIRS:
            dot = sum(a * b for a, b in zip(NEIGHBOR_OFFSETS[i], NEIGHBOR_OFFSETS[j]))
            assert dot == 0

    def test_constant_volume_all_ones(self):
        d = mind_ssc_descriptor(Tensor3.full((7, 7, 7), 0.4))
        assert np.allclose(d.data, 1.0, atol=1e-12)
        assert d.channels == 12

    def test_affine_intensity_invariance(self):
        rng = np.random.default_rng(10)
        a = rng.uniform(0.1, 0.9, (9, 9, 9, 1))
        da = mind_ssc_descriptor(Tensor3(a))
        db = mind_ssc_descriptor(Tensor3(2.0 * a + 0.1))
        assert np.max(np.abs(da.data - db.data)) < 1e-2

    def test_matches_literal_reimplementation(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0, 1, (9, 9, 9))
        cfg = SimilarityConfig(kind="MIND_SSC")
        got = mind_ssc_descriptor(Tensor3(a), cfg).data
        expect = mind_brute_force(a, cfg.mind_patch_radius, cfg.eps)
        assert np.max(np.abs(got - expect)) <= 1e-10

    def test_too_small_volume_rejected(self):
        with pytest.raises(ConfigError, match="too small for patch radius"):
            mind_ssc_descriptor(Tensor3.zeros((3, 3, 3)))


def floored_volume(seed, dims=(7, 8, 9)):
    """Random values with a flat corner: at voxel (0, 0, 0) every shifted
    patch lies in it, so all 12 distances are 0 and V sits on its floor."""
    vol = np.random.default_rng(seed).uniform(0, 1, dims)
    vol[:4, :4, :4] = 0.3
    return vol


def weighted_descriptor_sum(build, vol, weights, cfg):
    """(sum of descriptor * weights, its gradient in the image, the
    descriptor) with the descriptor node from ``build``."""
    tape = Tape()
    a = tape.input(Tensor3(vol), parameter=True)
    d = build(tape, a, cfg)
    descriptor = d.value.data
    loss = tape.sum(tape.mul(d, tape.input(Tensor3(weights))))
    return loss.value.item(), tape.backward(loss)[a.id], descriptor


class TestMindSscOneNode:
    """The one-node descriptor against the composed graph it replaces, at
    non-cubic dims and on an image where V is floored at some voxels."""

    @pytest.mark.parametrize("radius", [1, 2])
    def test_forward_bitwise_and_backward_to_float_order(self, radius):
        vol = floored_volume(20 + radius)
        cfg = SimilarityConfig(kind="MIND_SSC", mind_patch_radius=radius)
        weights = np.random.default_rng(30 + radius).uniform(-1, 1, (7, 8, 9, 12))
        loss, grad, d = weighted_descriptor_sum(mind_ssc_descriptor_nodes, vol, weights, cfg)
        ref_loss, ref_grad, ref_d = weighted_descriptor_sum(
            mind_ssc_composed_nodes, vol, weights, cfg)
        assert d.shape == (7, 8, 9, 12)
        # exp(-0 / eps) where V is floored; < 1 wherever V is the mean
        assert np.all(d[0, 0, 0] == 1.0) and np.any(d < 1.0)
        assert np.array_equal(d, ref_d)
        assert loss == ref_loss
        assert np.max(np.abs(grad.data - ref_grad.data)) <= 1e-12 * np.max(np.abs(ref_grad.data))

    @pytest.mark.parametrize("radius", [1, 2])
    def test_vjp_matches_finite_differences(self, radius):
        vol = floored_volume(20 + radius)
        cfg = SimilarityConfig(kind="MIND_SSC", mind_patch_radius=radius)
        weights = np.random.default_rng(30 + radius).uniform(-1, 1, (7, 8, 9, 12))

        def f(x):
            return weighted_descriptor_sum(mind_ssc_descriptor_nodes, x.data, weights, cfg)[:2]

        assert grad_check(f, Tensor3(vol), h=1e-6, n_coords=128, seed=radius) < 1e-5

    def test_records_one_node(self):
        tape = Tape()
        mind_ssc_descriptor_nodes(tape, tape.input(Tensor3(floored_volume(3))),
                                  SimilarityConfig(kind="MIND_SSC"))
        assert [node.op for node in tape.nodes] == ["input", "mind_ssc"]

    def test_node_retains_at_most_16_float64_per_voxel(self):
        # what the vjp keeps: the padded image (26^3 / 24^3 = 1.27 planes),
        # the 12 distances, V and the floor's mask, about 14.4 float64 a
        # voxel; with the output, which the sweep drops, about 26.4 (37
        # when the vjp kept the pair differences and the output too). The
        # input is allocated before tracing starts, so it is not counted.
        dims = (24, 24, 24)
        tape = Tape()
        a = tape.input(Tensor3(np.random.default_rng(4).uniform(0, 1, dims)), parameter=True)
        tracemalloc.start()
        try:
            d = mind_ssc_descriptor_nodes(tape, a, SimilarityConfig(kind="MIND_SSC"))
            with_output = tracemalloc.get_traced_memory()[0]
            d.value = None
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert d.needs_grad
        assert with_output <= 28 * 8 * np.prod(dims)
        assert retained <= 16 * 8 * np.prod(dims)


def mind_term(build, vol, fixed_descriptor, cfg):
    """(value, gradient in the image) of the MIND_SSC term of ``vol``
    against ``fixed_descriptor``, with the term from ``build``."""
    tape = Tape()
    a = tape.input(Tensor3(vol), parameter=True)
    loss = build(tape, a, fixed_descriptor, cfg)
    return loss.value.item(), tape.backward(loss)[a.id]


def two_node_term(tape, a, fixed_descriptor, cfg):
    """The MIND_SSC term as the descriptor node and a mean of squares that
    subtracts the fixed descriptor: what the one-node term replaces."""
    return tape.sum_squares(mind_ssc_descriptor_nodes(tape, a, cfg), mean=True,
                            minus=fixed_descriptor)


class TestMindSscLoss:
    """The one-node MIND_SSC term against the two nodes it replaces, on an
    image where V is floored at some voxels and at non-cubic dims."""

    @staticmethod
    def case(radius):
        cfg = SimilarityConfig(kind="MIND_SSC", mind_patch_radius=radius)
        fixed = np.random.default_rng(50 + radius).uniform(0, 1, (7, 8, 9))
        return floored_volume(20 + radius), mind_ssc_descriptor(Tensor3(fixed), cfg), cfg

    @pytest.mark.parametrize("radius", [1, 2])
    def test_value_and_gradient_bitwise(self, radius):
        vol, fixed, cfg = self.case(radius)
        loss, grad = mind_term(mind_ssc_loss_nodes, vol, fixed, cfg)
        ref_loss, ref_grad = mind_term(two_node_term, vol, fixed, cfg)
        assert loss > 0.0 and np.any(grad.data != 0.0)
        assert loss == ref_loss
        assert np.array_equal(grad.data, ref_grad.data)

    @pytest.mark.parametrize("radius", [1, 2])
    def test_vjp_matches_finite_differences(self, radius):
        vol, fixed, cfg = self.case(radius)

        def f(x):
            return mind_term(mind_ssc_loss_nodes, x.data, fixed, cfg)

        assert grad_check(f, Tensor3(vol), h=1e-6, n_coords=128, seed=radius) < 1e-5

    def test_records_one_node(self):
        vol, fixed, cfg = self.case(1)
        tape = Tape()
        a = tape.input(Tensor3(vol))
        loss = mind_ssc_loss_nodes(tape, a, fixed, cfg)
        assert [node.op for node in tape.nodes] == ["input", "mind_ssc_loss"]
        assert loss.parents == (a,) and loss.value.shape == (1, 1, 1, 1)

    def test_fixed_descriptor_of_other_shape_rejected(self):
        vol, fixed, cfg = self.case(1)
        tape = Tape()
        with pytest.raises(ConfigError, match="fixed descriptor shape"):
            mind_ssc_loss_nodes(tape, tape.input(Tensor3(vol)),
                                Tensor3(fixed.data[..., :6]), cfg)

    def test_node_retains_at_most_16_float64_per_voxel(self):
        # the padded image, the 12 distances, V and the floor's mask, as the
        # descriptor op keeps, and no output: the value is a scalar, so
        # dropping it frees nothing. The images and the fixed descriptor are
        # allocated before tracing starts, so they are not counted.
        dims = (24, 24, 24)
        rng = np.random.default_rng(4)
        cfg = SimilarityConfig(kind="MIND_SSC")
        fixed = mind_ssc_descriptor(Tensor3(rng.uniform(0, 1, dims)), cfg)
        tape = Tape()
        a = tape.input(Tensor3(rng.uniform(0, 1, dims)), parameter=True)
        tracemalloc.start()
        try:
            loss = mind_ssc_loss_nodes(tape, a, fixed, cfg)
            with_output = tracemalloc.get_traced_memory()[0]
            loss.value = None
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert loss.needs_grad
        assert retained <= 16 * 8 * np.prod(dims)
        assert with_output - retained <= 1024

    @pytest.mark.parametrize("dims", [(24, 24, 24), (21, 19, 17)])
    def test_forward_peaks_at_most_18_float64_per_voxel(self, dims):
        # the forward holds what the op keeps (15 float64 a voxel) and a
        # plane or two beside it: each distance is formed in its plane of
        # the kept stack and each pair's D_k - D_fixed,k in one plane
        # buffer (26.8 and 27.3 when the box mean wrote a second 12-plane
        # stack and the value a third)
        rng = np.random.default_rng(4)
        cfg = SimilarityConfig(kind="MIND_SSC")
        fixed = mind_ssc_descriptor(Tensor3(rng.uniform(0, 1, dims)), cfg)
        tape = Tape()
        a = tape.input(Tensor3(rng.uniform(0, 1, dims)), parameter=True)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            mind_ssc_loss_nodes(tape, a, fixed, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_voxel = (peak - entry) / (8 * np.prod(dims))
        assert per_voxel <= 18, f"the forward peaked at {per_voxel:.2f} float64 per voxel"


def lncc_map_composed_nodes(tape, a, fixed, cfg):
    """The LNCC map as a graph of elementwise tape ops (3 box filters, 3
    muls, 2 squares, 2 subs, add_const, sqrt, div): the reference the
    one-node op must match bit for bit. The fixed side's tensors enter the
    tape as inputs."""
    b, eb, var_b_eps = (tape.input(t) for t in fixed)
    r = cfg.window_radius
    ea = tape.box_filter(a, r)
    eab = tape.box_filter(tape.mul(a, b), r)
    ea2 = tape.box_filter(tape.square(a), r)
    cov = tape.sub(eab, tape.mul(ea, eb))
    var_a = tape.sub(ea2, tape.square(ea))
    denom = tape.sqrt(tape.mul(tape.add_const(var_a, cfg.eps), var_b_eps))
    return tape.div(cov, denom)


def weighted_map_sum(build, a_vol, b_vol, weights, cfg):
    """(sum of the LNCC map * weights, its gradient in the moving image,
    the map) with the map node from ``build``, given ``b_vol``'s fixed
    side."""
    tape = Tape()
    a = tape.input(Tensor3(a_vol), parameter=True)
    rho = build(tape, a, fixed_side(Tensor3(b_vol), cfg), cfg)
    lncc = rho.value.data
    loss = tape.sum(tape.mul(rho, tape.input(Tensor3(weights))))
    grads = tape.backward(loss)
    return loss.value.item(), grads[a.id].data, lncc


class TestLnccMapOneNode:
    """The one-node LNCC map against the composed graph it replaces, at
    non-cubic dims."""

    @staticmethod
    def case(radius):
        rng = np.random.default_rng(40 + radius)
        return (rng.uniform(0, 1, (7, 8, 9)), rng.uniform(0, 1, (7, 8, 9)),
                rng.uniform(-1, 1, (7, 8, 9, 1)), SimilarityConfig(window_radius=radius))

    @pytest.mark.parametrize("radius", [1, 2])
    def test_forward_bitwise_and_backward_to_float_order(self, radius):
        a_vol, b_vol, weights, cfg = self.case(radius)
        loss, g_a, rho = weighted_map_sum(lncc_map_nodes, a_vol, b_vol, weights, cfg)
        ref_loss, ref_g_a, ref_rho = weighted_map_sum(
            lncc_map_composed_nodes, a_vol, b_vol, weights, cfg)
        assert rho.shape == (7, 8, 9, 1) and np.all(np.abs(rho) < 1.0)
        assert np.array_equal(rho, ref_rho)
        assert loss == ref_loss
        assert np.max(np.abs(g_a - ref_g_a)) <= 1e-12 * np.max(np.abs(ref_g_a))

    @pytest.mark.parametrize("radius", [1, 2])
    def test_vjp_matches_finite_differences(self, radius):
        a_vol, b_vol, weights, cfg = self.case(radius)

        def f(x):
            loss, grad, _ = weighted_map_sum(lncc_map_nodes, x.data, b_vol, weights, cfg)
            return loss, Tensor3(grad)

        # h = 1e-5: at 1e-6 the central differences reach their rounding floor
        assert grad_check(f, Tensor3(a_vol), h=1e-5, n_coords=128, seed=radius) < 1e-5

    def test_records_one_node(self):
        a_vol, b_vol, _, cfg = self.case(1)
        tape = Tape()
        a = tape.input(Tensor3(a_vol))
        rho = lncc_map_nodes(tape, a, fixed_side(Tensor3(b_vol), cfg), cfg)
        assert [node.op for node in tape.nodes] == ["input", "lncc_map"]
        assert rho.parents == (a,)

    def test_flat_pair_trips_the_same_sqrt_guard(self):
        # 0.5 makes every box mean exact, so both variances are exactly 0
        # and the radicand eps^2 underflows to 0
        flat = np.full((7, 8, 9), 0.5)
        cfg = SimilarityConfig(eps=1e-200)
        messages = []
        for build in (lncc_map_nodes, lncc_map_composed_nodes):
            tape = Tape()
            with pytest.raises(TensorError, match="sqrt: non-positive radicand") as err:
                build(tape, tape.input(Tensor3(flat)), fixed_side(Tensor3(flat), cfg), cfg)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_node_retains_at_most_4_5_float64_per_voxel(self):
        # the map, E[a], cov and the denominator: 4 float64 a voxel (the
        # composed graph kept 13). The images and the fixed side are
        # allocated before tracing starts, so they are not counted.
        dims = (24, 24, 24)
        rng = np.random.default_rng(4)
        tape = Tape()
        a = tape.input(Tensor3(rng.uniform(0, 1, dims)), parameter=True)
        cfg = SimilarityConfig()
        fixed = fixed_side(Tensor3(rng.uniform(0, 1, dims)), cfg)
        tracemalloc.start()
        try:
            rho = lncc_map_nodes(tape, a, fixed, cfg)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert rho.needs_grad
        assert retained <= 4.5 * 8 * np.prod(dims)


class TestFixedSide:
    """The fixed side is plain data, built without a tape: each value
    equals the graph that would compute it on one."""

    @pytest.mark.parametrize("kind", SIMILARITY_KINDS)
    def test_starts_with_its_image(self, kind):
        # a pair loss warps side[0], so each volume enters a tape once
        image = rng_volume(np.random.default_rng(6), (8, 8, 8))
        assert fixed_side(image, SimilarityConfig(kind=kind))[0] is image

    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("kind", ["LNCC", "LNCC2"])
    def test_lncc_side_equals_the_tape_chain(self, kind, radius):
        image = rng_volume(np.random.default_rng(20 + radius), (7, 8, 9))
        cfg = SimilarityConfig(kind=kind, window_radius=radius)
        tape = Tape()
        b = tape.input(image)
        eb = tape.box_filter(b, radius)
        var_b = tape.sub(tape.box_filter(tape.square(b), radius), tape.square(eb))
        chain = (b, eb, tape.add_const(var_b, cfg.eps))
        side = fixed_side(image, cfg)
        assert len(side) == 3
        assert all(np.array_equal(got.data, ref.value.data) for got, ref in zip(side, chain))

    @pytest.mark.parametrize("radius", [1, 2])
    def test_mind_side_equals_the_descriptor_node(self, radius):
        image = rng_volume(np.random.default_rng(30 + radius), (7, 8, 9))
        cfg = SimilarityConfig(kind="MIND_SSC", mind_patch_radius=radius)
        tape = Tape()
        descriptor = mind_ssc_descriptor_nodes(tape, tape.input(image), cfg)
        side = fixed_side(image, cfg)
        assert len(side) == 2 and np.array_equal(side[1].data, descriptor.value.data)

    @pytest.mark.parametrize("kind", SIMILARITY_KINDS)
    def test_builds_no_tape(self, kind, monkeypatch):
        # every Tape construction passes through __init__, whatever name
        # the caller reaches the class by
        built, init = [], Tape.__init__

        def counting_init(tape):
            built.append(tape)
            init(tape)

        monkeypatch.setattr(Tape, "__init__", counting_init)
        fixed_side(rng_volume(np.random.default_rng(8), (7, 8, 9)), SimilarityConfig(kind=kind))
        assert built == []

    @pytest.mark.parametrize("kind", SIMILARITY_KINDS)
    def test_leaves_its_image_and_returns_read_only_values(self, kind):
        data = np.random.default_rng(9).uniform(0, 1, (7, 8, 9, 1))
        image = Tensor3(data)
        side = fixed_side(image, SimilarityConfig(kind=kind))
        assert np.array_equal(image.data, data)
        assert len(side) == {"MSE": 1, "MIND_SSC": 2}.get(kind, 3)
        assert all(isinstance(t, Tensor3) and not t.data.flags.writeable for t in side)


class TestDifferentiability:
    @pytest.mark.parametrize("kind", ["LNCC", "LNCC2", "MSE", "MIND_SSC"])
    def test_grad_through_warp(self, kind):
        rng = np.random.default_rng(12)
        dims = (8, 8, 8)
        a = rng_volume(rng, dims)
        b = rng_volume(rng, dims)
        cfg = SimilarityConfig(kind=kind, window_radius=1)
        side = fixed_side(b, cfg)

        def f(u0):
            tape = Tape()
            u = tape.input(u0, parameter=True)
            warped = warp_nodes(tape, tape.input(a), u)
            loss = loss_similarity_nodes(tape, warped, side, cfg)
            grads = tape.backward(loss)
            return loss.value.item(), grads[u.id]

        u0 = Tensor3(rng.uniform(-0.03, 0.03, size=(*dims, 3)))
        assert grad_check(f, u0, h=1e-6, seed=1) < 1e-3


class TestReadOnlyAdjoint:
    # an adjoint can be shared (``add`` hands one to both parents), and the
    # box means consume their buffers: each vjp must copy or make its own
    @pytest.mark.parametrize("op", ["box_filter", "lncc_map", "mind_ssc", "mind_ssc_loss"])
    def test_vjp_leaves_its_adjoint_as_it_is(self, op):
        rng = np.random.default_rng(13)
        a, b = (rng_volume(rng, (7, 8, 9)) for _ in range(2))
        cfg = SimilarityConfig(kind="MIND_SSC" if op.startswith("mind") else "LNCC2")
        tape = Tape()
        x = tape.input(a, parameter=True)
        node = {"box_filter": lambda: tape.box_filter(x, 2),
                "lncc_map": lambda: lncc_map_nodes(tape, x, fixed_side(b, cfg), cfg),
                "mind_ssc": lambda: mind_ssc_descriptor_nodes(tape, x, cfg),
                "mind_ssc_loss": lambda: mind_ssc_loss_nodes(
                    tape, x, mind_ssc_descriptor(b, cfg), cfg)}[op]()
        g = rng.normal(size=node.value.shape)
        g.setflags(write=False)
        g_before = g.copy()
        (g_a,) = node._vjp(g)
        assert g_a.shape == a.shape and np.all(np.isfinite(g_a))
        assert np.array_equal(g, g_before)
