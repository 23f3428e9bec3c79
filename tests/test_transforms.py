"""Field composition, warping, and Jacobian analysis."""

import numpy as np
import pytest

from deformreg.tape import (
    Tape,
    _node_interpolation,
    sample_nearest_values,
    sample_trilinear_values,
)
from deformreg.tensor import ConfigError, Tensor3, grid_coordinates
from deformreg.transforms import (
    DisplacementField,
    approximate_inverse,
    compose,
    inverse_displacement,
    jacobian_det_map,
    percent_neg_jac,
    resample_field_to,
    warp,
    warp_nearest,
)
from deformreg.volume import LabelVolume, Volume


def lerp_oracle(values, point):
    """Independent trilinear evaluation: sequential 1D lerps with edge clamp."""
    out = np.asarray(values, dtype=np.float64)
    for axis in range(3):
        n = out.shape[0]
        c = min(max(point[axis], 0.0), 1.0)
        p = c * (n - 1)
        i0 = min(int(np.floor(p)), n - 2) if n > 1 else 0
        f = p - i0 if n > 1 else 0.0
        out = (1 - f) * out[i0] + f * out[min(i0 + 1, n - 1)]
    return out


def smooth_field(rng, dims, amplitude=0.05):
    u = rng.uniform(-amplitude, amplitude, size=(*dims, 3))
    return DisplacementField(Tensor3(u))


def make_volume(values, **kw):
    kw.setdefault("modality", "SYNTH-BASE")
    kw.setdefault("preprocessed", True)
    return Volume(grid=Tensor3(np.asarray(values, dtype=np.float64)), **kw)


class TestCompose:
    def test_identity_laws(self):
        rng = np.random.default_rng(1)
        phi = smooth_field(rng, (5, 5, 5))
        ident = DisplacementField.identity((5, 5, 5))
        left = compose(ident, phi)
        right = compose(phi, ident)
        assert np.max(np.abs(left.u.data - phi.u.data)) <= 1e-12
        assert np.max(np.abs(right.u.data - phi.u.data)) <= 1e-12

    def test_translation_additivity(self):
        a, b = (0.1, -0.05, 0.02), (0.03, 0.04, -0.01)
        pa = DisplacementField.translation((4, 4, 4), a)
        pb = DisplacementField.translation((4, 4, 4), b)
        out = compose(pa, pb)
        assert np.allclose(out.u.data, np.add(a, b), atol=1e-12)

    def test_matches_pointwise_oracle(self):
        rng = np.random.default_rng(2)
        phi1 = smooth_field(rng, (5, 5, 5))
        phi2 = smooth_field(rng, (5, 5, 5))
        out = compose(phi1, phi2)
        grid = grid_coordinates((5, 5, 5)).data
        for idx in np.ndindex(5, 5, 5):
            x = grid[idx]
            y = x + phi2.u.data[idx]  # phi2(x)
            u1_at = np.array([lerp_oracle(phi1.u.data[..., c], y) for c in range(3)])
            expect = y + u1_at  # phi1(phi2(x))
            got = x + out.u.data[idx]
            assert np.max(np.abs(got - expect)) <= 1e-10

    def test_mixed_grids(self):
        rng = np.random.default_rng(3)
        phi1 = smooth_field(rng, (4, 4, 4))
        phi2 = smooth_field(rng, (7, 6, 5))
        out = compose(phi1, phi2)
        assert out.dims == (7, 6, 5)


class TestComposeWarpLaw:
    def test_warp_of_composition_matches_sequential_warps(self):
        # exact when the first map is a whole-voxel translation and the
        # comparison stays where no sample coordinate is edge-clamped
        n = 12
        k = 2  # voxels
        rng = np.random.default_rng(40)
        v = make_volume(rng.uniform(0, 1, (n, n, n)))
        t = (k / (n - 1), 0.0, 0.0)
        phi1 = DisplacementField.translation((n, n, n), t)
        phi2 = smooth_field(rng, (n, n, n), amplitude=0.02)
        combined = warp(v, compose(phi1, phi2))
        sequential = warp(warp(v, phi1), phi2)
        coords = grid_coordinates((n, n, n)).data + phi2.u.data
        safe = np.all((coords > 1.0 / (n - 1)) & (coords < (n - 2 - k) / (n - 1)), axis=-1)
        diff = np.abs(combined.values() - sequential.values())[safe]
        assert diff.size > 0 and np.max(diff) <= 1e-10

    def test_identity_laws_hold_from_two_cubed(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 5):
            phi = smooth_field(rng, (n, n, n), amplitude=0.05)
            ident = DisplacementField.identity((n, n, n))
            assert np.max(np.abs(compose(ident, phi).u.data - phi.u.data)) <= 1e-12
            assert np.max(np.abs(compose(phi, ident).u.data - phi.u.data)) <= 1e-12
            a, b = (0.04, -0.02, 0.01), (-0.01, 0.03, 0.02)
            out = compose(
                DisplacementField.translation((n, n, n), a),
                DisplacementField.translation((n, n, n), b),
            )
            assert np.allclose(out.u.data, np.add(a, b), atol=1e-12)


class TestWarp:
    def test_displacement_needs_3_channels(self):
        with pytest.raises(ConfigError, match="displacement needs 3 channels, got 1"):
            DisplacementField(Tensor3.zeros((4, 4, 4)))

    def test_identity_warp(self):
        rng = np.random.default_rng(4)
        v = make_volume(rng.uniform(0, 1, (6, 6, 6)))
        out = warp(v, DisplacementField.identity((6, 6, 6)))
        assert np.max(np.abs(out.values() - v.values())) < 1e-6

    def test_constant_volume_invariant(self):
        rng = np.random.default_rng(5)
        v = make_volume(np.full((6, 6, 6), 0.42))
        out = warp(v, smooth_field(rng, (6, 6, 6), amplitude=0.2))
        assert np.allclose(out.values(), 0.42)

    def test_ramp_translation(self):
        n = 11
        ramp = np.broadcast_to(np.linspace(0, 1, n)[:, None, None], (n, n, n)).copy()
        v = make_volume(ramp)
        t = 0.25
        out = warp(v, DisplacementField.translation((n, n, n), (t, 0, 0)))
        grid_x = np.linspace(0, 1, n)
        interior = grid_x + t <= 1.0
        expect = np.where(interior, grid_x + t, 1.0)
        assert np.max(np.abs(out.values()[:, 0, 0] - expect)) < 1e-6

    def test_warp_field_on_other_grid(self):
        rng = np.random.default_rng(6)
        v = make_volume(rng.uniform(0, 1, (8, 8, 8)))
        phi = DisplacementField.translation((4, 4, 4), (0.1, 0.0, 0.0))
        out = warp(v, phi)
        assert out.dims == (8, 8, 8)

    def test_warp_nearest_labels(self):
        labels = np.zeros((6, 6, 6), dtype=np.int64)
        labels[3:, :, :] = 2
        lv = LabelVolume(labels)
        out = warp_nearest(lv, DisplacementField.identity((6, 6, 6)))
        assert np.array_equal(out.labels, labels)


def jacobian_brute_force(u):
    """Independent per-voxel FD stencil + 3x3 determinant, plain loops."""
    dims = u.shape[:3]
    det = np.empty(dims)
    for idx in np.ndindex(*dims):
        J = np.eye(3)
        for comp in range(3):
            for axis in range(3):
                n = dims[axis]
                h = 1.0 / (n - 1)
                i = idx[axis]
                lo = list(idx)
                hi = list(idx)
                if i == 0:
                    hi[axis] = i + 1
                    d = (u[tuple(hi)][comp] - u[tuple(lo)][comp]) / h
                elif i == n - 1:
                    lo[axis] = i - 1
                    d = (u[tuple(hi)][comp] - u[tuple(lo)][comp]) / h
                else:
                    lo[axis] = i - 1
                    hi[axis] = i + 1
                    d = (u[tuple(hi)][comp] - u[tuple(lo)][comp]) / (2 * h)
                J[comp, axis] += d
        det[idx] = np.linalg.det(J)
    return det


class TestJacobian:
    def test_identity(self):
        phi = DisplacementField.identity((5, 5, 5))
        det = jacobian_det_map(phi).data
        assert np.allclose(det, 1.0, atol=1e-12)
        assert percent_neg_jac(phi) == 0.0

    def test_translation(self):
        phi = DisplacementField.translation((5, 5, 5), (0.2, -0.1, 0.05))
        assert np.allclose(jacobian_det_map(phi).data, 1.0, atol=1e-12)
        assert percent_neg_jac(phi) == 0.0

    def test_constructed_fold_matches_brute_force(self):
        n = 9
        grid = grid_coordinates((n, n, n)).data
        u = np.zeros((n, n, n, 3))
        band = (grid[..., 0] > 0.3) & (grid[..., 0] < 0.7)
        u[..., 0] = np.where(band, -2.0 * grid[..., 0], 0.0)
        phi = DisplacementField(Tensor3(u))
        det = jacobian_det_map(phi).data[..., 0]
        oracle = jacobian_brute_force(u)
        assert np.max(np.abs(det - oracle)) < 1e-10
        assert np.count_nonzero(det < 0) == np.count_nonzero(oracle < 0)
        assert np.count_nonzero(det < 0) > 0
        assert percent_neg_jac(phi) == pytest.approx(
            100.0 * np.count_nonzero(oracle < 0) / oracle.size
        )

    def test_translation_invariance_of_folding(self):
        rng = np.random.default_rng(7)
        phi = smooth_field(rng, (6, 6, 6), amplitude=0.3)
        shifted = DisplacementField(Tensor3(phi.u.data + np.array([0.1, 0.2, -0.3])))
        assert percent_neg_jac(phi) == percent_neg_jac(shifted)

    def test_small_grid_rejected(self):
        with pytest.raises(ConfigError, match="jacobian needs >= 3 voxels per axis"):
            jacobian_det_map(DisplacementField.identity((2, 5, 5)))


class TestResampleField:
    def test_same_dims(self):
        rng = np.random.default_rng(8)
        phi = smooth_field(rng, (6, 6, 6))
        assert resample_field_to(phi, (6, 6, 6)) is phi

    def test_constant_any_dims(self):
        phi = DisplacementField.translation((4, 4, 4), (0.07, 0.0, -0.02))
        out = resample_field_to(phi, (9, 3, 5))
        assert np.allclose(out.u.data, [0.07, 0.0, -0.02], atol=1e-12)

    def test_matches_direct_evaluation_oracle(self):
        rng = np.random.default_rng(9)
        phi = smooth_field(rng, (8, 8, 8))
        out = resample_field_to(phi, (15, 15, 15))
        grid = grid_coordinates((15, 15, 15)).data
        for idx in [(0, 0, 0), (7, 7, 7), (14, 14, 14), (3, 11, 6), (10, 2, 13)]:
            x = grid[idx]
            expect = np.array([lerp_oracle(phi.u.data[..., c], x) for c in range(3)])
            assert np.max(np.abs(out.u.data[idx] - expect)) <= 1e-10


class TestInverse:
    def test_fixed_point_inverse_small_field(self):
        rng = np.random.default_rng(11)
        phi = smooth_field(rng, (8, 8, 8), amplitude=0.04)
        inv = approximate_inverse(phi)
        comp = compose(phi, inv)
        # deviation from identity below 0.1 voxel (1/(n-1) normalized units)
        voxel = 1.0 / 7.0
        assert np.max(np.abs(comp.u.data)) < 0.1 * voxel

    def test_grid_inverse_is_the_grid_wide_fixed_point_loop(self):
        rng = np.random.default_rng(12)
        phi = smooth_field(rng, (9, 7, 6), amplitude=0.04)
        grid = grid_coordinates(phi.dims).data
        v = np.zeros_like(phi.u.data)
        for _ in range(40):
            v = -sample_trilinear_values(phi.u.data, np.moveaxis(grid + v, -1, 0))
        assert np.array_equal(approximate_inverse(phi).u.data, v)

    def test_point_inverse_matches_grid_nodes_and_inverts_phi(self):
        rng = np.random.default_rng(13)
        phi = smooth_field(rng, (8, 8, 8), amplitude=0.04)
        grid = grid_coordinates(phi.dims).data
        nodes = grid[[1, 4, 6], [2, 0, 7], [5, 3, 1]]
        at_nodes = approximate_inverse(phi).u.data[[1, 4, 6], [2, 0, 7], [5, 3, 1]]
        assert np.array_equal(inverse_displacement(phi, nodes), at_nodes)
        points = rng.uniform(0.1, 0.9, size=(5, 3))
        mapped = phi.map_points(points + inverse_displacement(phi, points))
        assert np.max(np.abs(mapped - points)) < 1e-12


def at_displaced_grid(img, u):
    """``img`` sampled at grid_coordinates + u on u's grid, the stacked
    (..., 3) points passed one axis at a time."""
    points = grid_coordinates(u.shape[:3]).data + u
    return sample_trilinear_values(img, np.moveaxis(points, -1, 0))


class TestSamplingAtDisplacedNodes:
    """Every sampler reads at grid_coordinates(dims) + u, bit for bit, on
    non-cubic grids with a length-1 axis and points outside [0, 1]."""

    @staticmethod
    def fields(seed):
        rng = np.random.default_rng(seed)
        img = rng.uniform(-1.0, 1.0, size=(5, 1, 4, 2))
        phi = DisplacementField(Tensor3(rng.uniform(-0.4, 0.4, size=(4, 3, 1, 3))))
        psi = DisplacementField(Tensor3(rng.uniform(-0.4, 0.4, size=(5, 1, 4, 3))))
        return img, phi, psi

    def test_tape_sample_and_compose(self):
        img, phi, psi = self.fields(21)
        tape = Tape()
        out = tape.trilinear_sample(tape.input(Tensor3(img)), tape.input(phi.u))
        assert out.value.data.tobytes() == at_displaced_grid(img, phi.u.data).tobytes()
        want = psi.u.data + at_displaced_grid(phi.u.data, psi.u.data)
        assert compose(phi, psi).u.data.tobytes() == want.tobytes()

    def test_resample_and_resize_sample_at_the_nodes(self):
        """Field resampling, up or down, is the pyramid's op onto a zero
        field, and the op does the same on one channel: both equal the
        op's association 0 + up(u) bit for bit (axes 2 and then 1, then
        axis 0, each by its per-axis matrix) and read what a gather at
        the target nodes reads, up to rounding."""
        img, phi, _ = self.fields(22)
        fine = np.random.default_rng(22).uniform(-1.0, 1.0, size=(9, 8, 7, 3))
        for arr, dims in [(phi.u.data, (2, 6, 3)), (fine, (5, 4, 4)),
                          (img[..., :1], (2, 6, 3)), (fine[..., :1], (5, 4, 4))]:
            if arr.shape[3] == 3:
                got = resample_field_to(DisplacementField(Tensor3(arr)), dims).u.data
            else:
                tape = Tape()
                zero = tape.input(Tensor3.zeros(dims, channels=arr.shape[3]))
                got = tape.upsample_sum(tape.input(Tensor3(arr)), zero).value.data
            mats = [_node_interpolation(n, m) for n, m in zip(arr.shape[:3], dims)]
            want = arr
            for axis in (2, 1):
                want = np.moveaxis(np.tensordot(mats[axis], want, axes=(1, axis)), 0, axis)
            want = np.zeros((*dims, arr.shape[3])) + np.tensordot(mats[0], want, axes=(1, 0))
            assert got.tobytes() == want.tobytes()
            gathered = at_displaced_grid(arr, np.zeros((*dims, 3)))
            assert np.max(np.abs(got - gathered)) <= 1e-13

    def test_warps_sample_at_the_displaced_nodes(self):
        img, _, psi = self.fields(23)
        v = make_volume(img[..., :1])
        want = at_displaced_grid(img[..., :1], psi.u.data)
        assert warp(v, psi).values().tobytes() == want[..., 0].tobytes()
        labels = np.arange(20).reshape(5, 1, 4)
        points = grid_coordinates(psi.dims).data + psi.u.data
        want = sample_nearest_values(labels[..., None], np.moveaxis(points, -1, 0))[..., 0]
        assert np.array_equal(warp_nearest(LabelVolume(labels), psi).labels, want)

    def test_inverse_and_map_points(self):
        _, phi, psi = self.fields(24)
        v = np.zeros_like(phi.u.data)
        for _ in range(40):
            v = -at_displaced_grid(phi.u.data, v)
        assert approximate_inverse(phi).u.data.tobytes() == v.tobytes()
        points = grid_coordinates(psi.dims).data + psi.u.data
        want = points + at_displaced_grid(phi.u.data, psi.u.data)
        assert phi.map_points(points).tobytes() == want.tobytes()


class TestNanCoordinates:
    """A public sampler rejects a NaN coordinate with ConfigError (its
    index cast has no value for NaN), and still clamps an infinite one."""

    IMG = np.arange(27.0).reshape(3, 3, 3, 1)

    @pytest.mark.parametrize("sampler", [sample_trilinear_values, sample_nearest_values])
    def test_sampler_rejects_nan(self, sampler):
        with pytest.raises(ConfigError, match="must not be NaN"):
            sampler(self.IMG, [np.array([np.nan]), np.array([0.5]), np.array([0.5])])

    @pytest.mark.parametrize("sampler", [sample_trilinear_values, sample_nearest_values])
    def test_sampler_clamps_infinity(self, sampler):
        got = sampler(self.IMG, [np.array([np.inf, -np.inf]), np.array([0.5]), np.array([0.5])])
        assert got.ravel().tolist() == [22.0, 4.0]

    def test_inverse_displacement_rejects_nan(self):
        with pytest.raises(ConfigError, match="must not be NaN"):
            inverse_displacement(DisplacementField.identity((5, 5, 5)),
                                 np.array([[0.5, np.nan, 0.5]]))

    def test_map_points_rejects_nan(self):
        with pytest.raises(ConfigError, match="must not be NaN"):
            DisplacementField.identity((4, 4, 4)).map_points([[np.nan, 0.5, 0.5]])
