"""Phantom generation, fold-free deformations, and pair rendering."""

import tracemalloc

import numpy as np
import pytest

from deformreg import synthetic, tape
from deformreg.metrics import mtre
from deformreg.synthetic import (
    ModalityRemap,
    _smooth_noise,
    deformation_amplitude_bound,
    make_deformation,
    make_phantom,
    render_pair,
)
from deformreg.tape import sample_trilinear_values
from deformreg.tensor import ConfigError
from deformreg.transforms import DisplacementField, compose, percent_neg_jac, warp


class TestMakePhantom:
    def test_single_structure_labels(self):
        ph = make_phantom(seed=1, dims=(16, 16, 16), n_structures=1)
        assert set(np.unique(ph.labels.labels)) == {0, 1}
        assert len(ph.landmarks) >= 4

    def test_determinism(self):
        a = make_phantom(seed=2, dims=(16, 16, 16), n_structures=2)
        b = make_phantom(seed=2, dims=(16, 16, 16), n_structures=2)
        assert np.array_equal(a.base.values(), b.base.values())
        assert np.array_equal(a.labels.labels, b.labels.labels)
        assert np.array_equal(a.landmarks.points, b.landmarks.points)

    def test_intensity_modes_separated(self):
        ph = make_phantom(seed=3, dims=(24, 24, 24), n_structures=3)
        values = ph.base.values()
        labels = ph.labels.labels
        region_means = [values[labels == 0].mean()]
        for sid in ph.labels.label_ids():
            region_means.append(values[labels == sid].mean())
        region_means.sort()
        gaps = np.diff(region_means)
        assert (gaps >= 0.1).all()

    def test_landmarks_inside_labeled_structures(self):
        ph = make_phantom(seed=4, dims=(24, 24, 24), n_structures=2)
        geo = ph.base.geometry
        norm = geo.mm_to_normalized(ph.landmarks.points)
        idx = np.clip(np.round(norm * (np.array(ph.labels.dims) - 1)).astype(int), 0, 23)
        hit = ph.labels.labels[idx[:, 0], idx[:, 1], idx[:, 2]]
        assert (hit > 0).all()

    def test_too_many_structures_rejected(self):
        with pytest.raises(ConfigError, match="cannot keep mean separation"):
            make_phantom(seed=5, dims=(16, 16, 16), n_structures=10)

    def test_dims_too_small(self):
        with pytest.raises(ConfigError, match="phantom dims must be >= 16 per axis"):
            make_phantom(seed=6, dims=(8, 8, 8))

    @pytest.mark.parametrize("n_structures", [0, 2.5, True, "3"])
    def test_structure_count_must_be_a_positive_integer(self, n_structures):
        with pytest.raises(ConfigError, match="n_structures must be"):
            make_phantom(7, (32, 32, 32), n_structures)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            make_phantom(seed=seed, dims=(16, 16, 16))
        with pytest.raises(ConfigError, match="seed"):
            make_deformation(seed=seed, dims=(16, 16, 16), amplitude=0.05)

    def test_phantom_memory_at_32(self):
        # composing the phantom in place, each structure over its bounding
        # box: at most 4 supersampled 63^3 grids at once (keeping the
        # background and a grid per structure peaked at about 7.4 grids,
        # each structure over the whole grid at about 5.3)
        grid = 63**3 * 8
        tracemalloc.start()
        try:
            make_phantom(seed=7, dims=(32, 32, 32), n_structures=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * grid, f"{peak / 2**20:.1f} MiB, {peak / grid:.2f} grids"

    @pytest.mark.parametrize("dims", [(17, 20, 23), (25, 19, 22), (24, 24, 24)])
    @pytest.mark.parametrize("n_structures", [1, 4])
    def test_bounding_boxes_match_the_full_grid_bitwise(self, dims, n_structures, monkeypatch):
        # the reference forms each structure over the whole supersampled
        # grid: a box of every node
        seeds = (0, 3, 8)
        boxed = [make_phantom(seed, dims, n_structures) for seed in seeds]
        monkeypatch.setattr(synthetic, "_ellipsoid_box", lambda *args: (slice(None),) * 3)
        for seed, got in zip(seeds, boxed):
            want = make_phantom(seed, dims, n_structures)
            for a, b in ((got.base_supersampled.values(), want.base_supersampled.values()),
                         (got.base.values(), want.base.values()),
                         (got.labels.labels, want.labels.labels),
                         (got.landmarks.points, want.landmarks.points)):
                assert a.tobytes() == b.tobytes()


class TestMakeDeformation:
    def test_zero_amplitude_is_identity(self):
        phi = make_deformation(seed=7, dims=(16, 16, 16), amplitude=0.0)
        assert np.max(np.abs(phi.u.data)) == 0.0

    @pytest.mark.parametrize("n_bumps", [-1, 1.5, True, "2"])
    def test_bump_count_must_be_a_non_negative_integer(self, n_bumps):
        with pytest.raises(ConfigError, match="n_bumps must be"):
            make_deformation(8, (32, 32, 32), 0.01, n_bumps=n_bumps)

    def test_generated_fields_fold_free(self):
        for seed in range(5):
            phi = make_deformation(seed=seed, dims=(20, 20, 20), amplitude=0.05, n_bumps=3)
            assert percent_neg_jac(phi) == 0.0

    def test_amplitude_bound_rejection_names_bound(self):
        with pytest.raises(ConfigError, match="bound"):
            make_deformation(seed=8, dims=(16, 16, 16), amplitude=1.0, n_bumps=2)

    @pytest.mark.parametrize("amplitude",
                             [-1.0, -100.0, float("nan"), float("inf"), -float("inf")])
    def test_negative_beyond_bound_and_nan_rejected(self, amplitude):
        with pytest.raises(ConfigError, match="bound"):
            make_deformation(seed=8, dims=(16, 16, 16), amplitude=amplitude, n_bumps=2)
        if not np.isfinite(amplitude):  # rejected also where no bump sets a bound
            with pytest.raises(ConfigError, match="amplitude must be a finite number"):
                make_deformation(seed=8, dims=(16, 16, 16), amplitude=amplitude, n_bumps=0)

    def test_negative_amplitude_within_bound_flips_field(self):
        pos = make_deformation(seed=18, dims=(20, 20, 20), amplitude=0.05, n_bumps=3)
        neg = make_deformation(seed=18, dims=(20, 20, 20), amplitude=-0.05, n_bumps=3)
        assert np.array_equal(neg.u.data, -pos.u.data)
        assert percent_neg_jac(neg) == 0.0

    def test_bound_formula(self):
        sigmas = [0.3, 0.3]
        bound = deformation_amplitude_bound(sigmas)
        # sum of per-bump gradient peaks times the bound stays below 1
        assert bound * sum(np.exp(-0.5) / s for s in sigmas) == pytest.approx(0.95)

    def test_numerical_inverse_quality(self):
        dims = (20, 20, 20)
        phi = make_deformation(seed=9, dims=dims, amplitude=0.06, n_bumps=2)
        from deformreg.transforms import approximate_inverse

        inv = approximate_inverse(phi)
        comp = compose(phi, inv)
        voxel = 1.0 / (dims[0] - 1)
        assert np.max(np.abs(comp.u.data)) < 0.1 * voxel


class TestRemaps:
    def test_invert_is_involution(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 1, (5, 5, 5))
        remap = ModalityRemap("invert")
        assert np.array_equal(remap.apply(remap.apply(x)), x)

    def test_sigmoid_stays_in_unit_range(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, (6, 6, 6))
        out = ModalityRemap("sigmoid").apply(x)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert np.allclose(ModalityRemap("sigmoid").apply(np.array([0.0, 0.5, 1.0])),
                           [0.0, 0.5, 1.0])

    def test_unknown_kind(self):
        for kind in ("nope", "gamma", "piecewise"):
            with pytest.raises(ConfigError, match="unknown remap kind"):
                ModalityRemap(kind)


class TestRenderPair:
    def test_identity_everything_gives_equal_pair(self):
        ph = make_phantom(seed=12, dims=(16, 16, 16), n_structures=1)
        ident = DisplacementField.identity((16, 16, 16))
        a, b, truth = render_pair(ph, ModalityRemap(), ModalityRemap(), ident)
        assert np.max(np.abs(a.values() - b.values())) < 1e-10
        assert np.array_equal(truth.labels_a.labels, truth.labels_b.labels)

    def test_invert_law_on_undeformed_pair(self):
        ph = make_phantom(seed=13, dims=(16, 16, 16), n_structures=2)
        ident = DisplacementField.identity((16, 16, 16))
        a, b, _ = render_pair(ph, ModalityRemap(), ModalityRemap("invert"), ident)
        assert np.max(np.abs(a.values() + b.values() - 1.0)) < 1e-10

    def test_truth_bundle_mtre_below_interpolation_tolerance(self):
        dims = (24, 24, 24)
        ph = make_phantom(seed=14, dims=dims, n_structures=2)
        defo = make_deformation(seed=15, dims=dims, amplitude=0.05, n_bumps=2)
        _, _, truth = render_pair(ph, ModalityRemap(), ModalityRemap("invert"), defo)
        geo = ph.base.geometry
        residual = mtre(truth.landmarks_a, truth.landmarks_b, truth.field, geo)
        voxel_mm = geo.spacing[0]
        assert residual < 0.5 * voxel_mm

    def test_landmarks_b_map_onto_landmarks_a(self):
        # the truth field takes each B-frame landmark exactly back to A
        dims = (24, 24, 24)
        ph = make_phantom(seed=14, dims=dims, n_structures=2)
        defo = make_deformation(seed=15, dims=dims, amplitude=0.05, n_bumps=2)
        _, _, truth = render_pair(ph, ModalityRemap(), ModalityRemap("invert"), defo)
        geo = ph.base.geometry
        pts_a = geo.mm_to_normalized(truth.landmarks_a.points)
        pts_b = geo.mm_to_normalized(truth.landmarks_b.points)
        voxels = np.abs(truth.field.map_points(pts_b) - pts_a) * (np.array(dims) - 1)
        assert voxels.max() < 1e-9

    def test_mapped_landmarks_hit_same_feature(self):
        # the warped base at a mapped landmark is base(phi(q)); it must
        # match the base intensity at the original landmark
        dims = (24, 24, 24)
        ph = make_phantom(seed=16, dims=dims, n_structures=2)
        defo = make_deformation(seed=17, dims=dims, amplitude=0.05, n_bumps=2)
        _, _, truth = render_pair(ph, ModalityRemap(), ModalityRemap(), defo)
        geo = ph.base.geometry
        pts_a = geo.mm_to_normalized(truth.landmarks_a.points)
        pts_b = geo.mm_to_normalized(truth.landmarks_b.points)
        mapped = truth.field.map_points(pts_b)
        vals_a = sample_trilinear_values(ph.base.grid.data, np.moveaxis(pts_a, -1, 0))[..., 0]
        vals_b = sample_trilinear_values(ph.base.grid.data, np.moveaxis(mapped, -1, 0))[..., 0]
        assert np.max(np.abs(vals_a - vals_b)) < 0.02


def even_nodes(full):
    """The supersampled grid's values at its even nodes, which are the
    nodes of the phantom's grid."""
    step = synthetic._SUPERSAMPLE
    return full[::step, ::step, ::step]


def rendered_and_resized(phantom, remap_a, remap_b, deformation):
    """The pair as rendered over the whole supersampled grid and then
    read at the phantom's nodes."""
    src = phantom.base_supersampled
    full_a = remap_a.apply(src.values())
    full_b = remap_b.apply(warp(src, deformation).values())
    return even_nodes(full_a), even_nodes(full_b)


class TestRenderAtOutputNodes:
    """The renderer reads the supersampled base at the output nodes only;
    that must equal rendering every supersampled node and resizing."""

    @pytest.mark.parametrize("dims, field_dims, remap_a, remap_b", [
        ((16, 16, 16), (16, 16, 16), "identity", "invert"),
        ((17, 17, 17), (17, 17, 17), "invert", "sigmoid"),
        ((16, 19, 17), (16, 19, 17), "sigmoid", "identity"),
        ((17, 16, 18), (12, 13, 11), "identity", "sigmoid"),
    ])
    def test_bitwise_equal_to_full_render_and_resize(self, dims, field_dims, remap_a,
                                                     remap_b):
        ph = make_phantom(seed=21, dims=dims, n_structures=2)
        defo = make_deformation(seed=22, dims=field_dims, amplitude=0.08, n_bumps=2)
        remaps = ModalityRemap(remap_a), ModalityRemap(remap_b)
        a, b, _ = render_pair(ph, *remaps, defo)
        ref_a, ref_b = rendered_and_resized(ph, *remaps, defo)
        assert a.values().tobytes() == ref_a.tobytes()
        assert b.values().tobytes() == ref_b.tobytes()
        base = even_nodes(ph.base_supersampled.values())
        assert ph.base.values().tobytes() == base.tobytes()

    def test_smooth_noise_equals_roll_formula(self):
        # axes of length 1 and 2 take their far neighbors modulo n;
        # (63, 63, 63) is a 32^3 phantom's background, (31, 33, 35) a
        # (16, 17, 18) phantom's texture
        for dims, passes in (((1, 2, 5), 3), ((7, 6, 9), 4), ((31, 4, 3), 1),
                             ((63, 63, 63), 16), ((31, 33, 35), 4)):
            got = _smooth_noise(np.random.default_rng(23), dims, passes)
            a = np.random.default_rng(23).uniform(0.0, 1.0, size=dims)
            for _ in range(passes):
                for axis in range(3):
                    a = (np.roll(a, 1, axis) + a + np.roll(a, -1, axis)) / 3.0
            a -= a.min()
            if a.max() > 0:
                a /= a.max()
            assert got.tobytes() == a.tobytes()

    def test_smooth_noise_in_halves_equals_roll_formula(self, monkeypatch):
        # the same cases with every window sum and every divide split
        monkeypatch.setattr(tape, "_SPLIT_POINTS", 1)
        self.test_smooth_noise_equals_roll_formula()

    def test_render_memory_at_32(self):
        # rendering all 63^3 supersampled nodes peaked at 42.7 MiB
        dims = (32, 32, 32)
        ph = make_phantom(seed=24, dims=dims, n_structures=4)
        defo = make_deformation(seed=25, dims=dims, amplitude=2.4 / 31, n_bumps=2)
        tracemalloc.start()
        try:
            render_pair(ph, ModalityRemap(), ModalityRemap("invert"), defo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, f"{peak / 2**20:.1f} MiB"
