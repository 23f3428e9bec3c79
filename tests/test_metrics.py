"""Dice, mTRE, and report assembly."""

import json

import numpy as np
import pytest

from deformreg import metrics
from deformreg.metrics import (
    MetricsReport,
    dice,
    evaluate_pair,
    mtre,
)
from deformreg.tensor import ConfigError, Tensor3
from deformreg.transforms import DisplacementField, percent_neg_jac, warp_nearest
from deformreg.volume import Geometry, LabelVolume, LandmarkSet


def cube_labels(dims, slabs):
    arr = np.zeros(dims, dtype=np.int64)
    for lid, sl in slabs.items():
        arr[sl] = lid
    return LabelVolume(arr)


class TestDice:
    def test_identical_is_100(self):
        lv = cube_labels((8, 8, 8), {1: np.s_[0:3], 2: np.s_[5:8]})
        per_label, mean = dice(lv, lv)
        assert per_label == {1: 100.0, 2: 100.0}
        assert mean == 100.0

    def test_disjoint_is_zero(self):
        a = cube_labels((8, 8, 8), {1: np.s_[0:2]})
        b = cube_labels((8, 8, 8), {1: np.s_[4:6]})
        per_label, mean = dice(a, b)
        assert per_label[1] == 0.0 and mean == 0.0

    def test_hand_counted_overlap(self):
        # label 1: 4 voxels in a, 5 in b, 3 shared -> 2*3/9
        a = np.zeros((8, 8, 8), dtype=np.int64)
        b = np.zeros((8, 8, 8), dtype=np.int64)
        a[0, 0, 0:4] = 1
        b[0, 0, 1:6] = 1
        per_label, mean = dice(LabelVolume(a), LabelVolume(b))
        assert per_label[1] == pytest.approx(100.0 * 2 * 3 / 9)
        assert mean == pytest.approx(66.666666, rel=1e-5)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = LabelVolume(rng.integers(0, 4, (8, 8, 8)))
        b = LabelVolume(rng.integers(0, 4, (8, 8, 8)))
        assert dice(a, b) == dice(b, a)

    def test_label_only_in_one_counts_as_zero(self):
        a = cube_labels((6, 6, 6), {1: np.s_[0:2]})
        b = cube_labels((6, 6, 6), {2: np.s_[3:5]})
        per_label, mean = dice(a, b)
        assert per_label == {1: 0.0, 2: 0.0}

    def test_dim_mismatch(self):
        with pytest.raises(ConfigError, match="label dims differ"):
            dice(cube_labels((6, 6, 6), {}), cube_labels((7, 6, 6), {}))


class TestMtre:
    def geometry(self, n=16):
        return Geometry((n, n, n), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))

    def test_identity_identical_zero(self):
        geo = self.geometry()
        pts = np.array([[3.0, 4.0, 5.0], [7.0, 7.0, 7.0]])
        lm = LandmarkSet(pts)
        phi = DisplacementField.identity((16, 16, 16))
        assert mtre(lm, lm, phi, geo) == 0.0

    def test_uniform_offset(self):
        geo = self.geometry()
        src = LandmarkSet(np.array([[3.0, 4.0, 5.0], [8.0, 8.0, 8.0]]))
        tgt = LandmarkSet(src.points + np.array([3.0, 0.0, 0.0]))
        phi = DisplacementField.identity((16, 16, 16))
        assert mtre(src, tgt, phi, geo) == pytest.approx(3.0)

    def test_translation_covariance(self):
        geo = self.geometry()
        src = LandmarkSet(np.array([[3.0, 4.0, 5.0], [8.0, 8.0, 8.0]]))
        tgt = LandmarkSet(src.points + np.array([2.0, 1.0, 0.0]))
        phi = DisplacementField.identity((16, 16, 16))
        shift = np.array([1.0, 1.0, 1.0])
        shifted = mtre(LandmarkSet(src.points + shift), LandmarkSet(tgt.points + shift), phi, geo)
        assert shifted == pytest.approx(mtre(src, tgt, phi, geo))

    def test_count_mismatch(self):
        geo = self.geometry()
        with pytest.raises(ConfigError, match="landmark counts differ"):
            mtre(LandmarkSet(np.zeros((2, 3)) + 1), LandmarkSet(np.zeros((3, 3)) + 1),
                 DisplacementField.identity((16, 16, 16)), geo)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_landmark_rejected(self, bad):
        # rejected where it is made, not blamed on the volume extent by mtre
        with pytest.raises(ConfigError, match="landmarks of frame 'b' must be finite"):
            LandmarkSet(np.array([[3.0, 3.0, 3.0], [bad, 1.0, 1.0]]), frame="b")

    def test_landmark_outside_domain(self):
        geo = self.geometry()
        inside = LandmarkSet(np.array([[3.0, 3.0, 3.0]]))
        outside = LandmarkSet(np.array([[40.0, 3.0, 3.0]]))
        with pytest.raises(Exception):
            mtre(inside, outside, DisplacementField.identity((16, 16, 16)), geo)

    def test_maps_target_onto_source(self):
        geo = self.geometry()
        src = LandmarkSet(np.array([[4.0, 4.0, 4.0]]))
        tgt = LandmarkSet(np.array([[6.0, 4.0, 4.0]]))
        phi = DisplacementField.translation((16, 16, 16), (-2.0 / 15.0, 0, 0))
        assert mtre(src, tgt, phi, geo) == pytest.approx(0.0, abs=1e-9)
        assert mtre(tgt, src, phi, geo) == pytest.approx(4.0)


class TestEvaluatePair:
    def test_identity_on_identical_pair(self):
        lv = cube_labels((8, 8, 8), {1: np.s_[2:5]})
        report = evaluate_pair(
            DisplacementField.identity((8, 8, 8)), labels_a=lv, labels_b=lv,
            pair_id="self",
        )
        assert report.mean_dice == 100.0
        assert report.percent_neg_jacobian == 0.0
        assert report.mtre_mm is None

    def test_compositional_consistency(self):
        rng = np.random.default_rng(2)
        geo = Geometry((12, 12, 12), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        lv_a = cube_labels((12, 12, 12), {1: np.s_[2:6]})
        lv_b = cube_labels((12, 12, 12), {1: np.s_[3:7]})
        lm_a = LandmarkSet(np.array([[3.0, 3.0, 3.0], [6.0, 6.0, 6.0]]))
        lm_b = LandmarkSet(np.array([[4.0, 3.0, 3.0], [7.0, 6.0, 6.0]]))
        phi = DisplacementField(Tensor3(rng.uniform(-0.02, 0.02, (12, 12, 12, 3))))
        report = evaluate_pair(phi, labels_a=lv_a, labels_b=lv_b,
                               landmarks_a=lm_a, landmarks_b=lm_b, geometry=geo)
        from deformreg.transforms import warp_nearest, percent_neg_jac
        from deformreg.metrics import dice as dice_fn, mtre as mtre_fn
        _, expect_dice = dice_fn(warp_nearest(lv_a, phi), lv_b)
        assert report.mean_dice == expect_dice
        assert report.mtre_mm == mtre_fn(lm_a, lm_b, phi, geo)
        assert report.percent_neg_jacobian == percent_neg_jac(phi)

    def test_field_on_a_coarser_grid_than_the_truth(self):
        # a 9^3 field scored on 17^3 labels: every metric as computed directly
        rng = np.random.default_rng(3)
        geo = Geometry((17, 17, 17), (1.0, 1.5, 2.0), (-4.0, 0.0, 3.0))
        lv_a = cube_labels((17, 17, 17), {1: np.s_[3:9], 2: np.s_[10:15, 2:12]})
        lv_b = cube_labels((17, 17, 17), {1: np.s_[4:10], 2: np.s_[9:14, 3:13]})
        lm_a = LandmarkSet(geo.normalized_to_mm(rng.uniform(0.2, 0.8, (5, 3))))
        lm_b = LandmarkSet(geo.normalized_to_mm(rng.uniform(0.2, 0.8, (5, 3))))
        phi = DisplacementField(Tensor3(rng.uniform(-0.05, 0.05, (9, 9, 9, 3))))
        report = evaluate_pair(phi, labels_a=lv_a, labels_b=lv_b,
                               landmarks_a=lm_a, landmarks_b=lm_b, geometry=geo)
        per_label, mean = dice(warp_nearest(lv_a, phi), lv_b)
        assert report.per_label_dice == per_label and report.mean_dice == mean
        assert 0.0 < mean < 100.0
        assert report.mtre_mm == mtre(lm_a, lm_b, phi, geo)
        assert report.percent_neg_jacobian == percent_neg_jac(phi)

    @pytest.mark.parametrize("missing", ["labels_a", "labels_b", "landmarks_a", "landmarks_b"])
    def test_half_a_truth_pair_rejected(self, missing):
        # one of a pair alone is an error, also when the other truth is whole
        geo = Geometry((8, 8, 8), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        lv = cube_labels((8, 8, 8), {1: np.s_[2:5]})
        lm = LandmarkSet(np.array([[3.0, 3.0, 3.0]]))
        truth = {"labels_a": lv, "labels_b": lv, "landmarks_a": lm, "landmarks_b": lm}
        truth.pop(missing)
        with pytest.raises(ConfigError, match=f"^{missing} missing"):
            evaluate_pair(DisplacementField.identity((8, 8, 8)), geometry=geo, **truth)

    @staticmethod
    def scored_grids(monkeypatch):
        """The grid of each map ``evaluate_pair`` scores, in call order."""
        grids = []

        def folding(phi):
            grids.append(phi.dims)
            return percent_neg_jac(phi)

        monkeypatch.setattr(metrics, "percent_neg_jac", folding)
        return grids

    def test_no_map_is_the_identity_on_the_labels_grid(self, monkeypatch):
        # a geometry on another grid does not move the identity off the labels'
        lv_a = cube_labels((8, 9, 10), {1: np.s_[2:5]})
        lv_b = cube_labels((8, 9, 10), {1: np.s_[3:6]})
        geo = Geometry((12, 12, 12), (2.0, 2.0, 2.0), (0.0, 0.0, 0.0))
        grids = self.scored_grids(monkeypatch)
        report = evaluate_pair(None, labels_a=lv_a, labels_b=lv_b, geometry=geo)
        assert grids == [(8, 9, 10)]
        expected = evaluate_pair(DisplacementField.identity((8, 9, 10)),
                                 labels_a=lv_a, labels_b=lv_b, geometry=geo)
        assert report == expected and report.mean_dice == dice(lv_a, lv_b)[1]

    def test_no_map_is_the_identity_on_the_geometry_grid(self, monkeypatch):
        geo = Geometry((7, 8, 9), (1.0, 1.5, 2.0), (-3.0, 0.0, 1.0))
        lm_a = LandmarkSet(geo.normalized_to_mm([[0.2, 0.3, 0.4], [0.6, 0.5, 0.7]]))
        lm_b = LandmarkSet(geo.normalized_to_mm([[0.3, 0.3, 0.4], [0.5, 0.6, 0.7]]))
        grids = self.scored_grids(monkeypatch)
        report = evaluate_pair(None, landmarks_a=lm_a, landmarks_b=lm_b, geometry=geo)
        assert grids == [(7, 8, 9)]
        assert report.mtre_mm == mtre(lm_a, lm_b, DisplacementField.identity((7, 8, 9)), geo)
        assert report.mtre_mm == float(np.linalg.norm(lm_a.points - lm_b.points, axis=1).mean())

    def test_geometry_defaults_to_the_labels(self):
        lv = LabelVolume(cube_labels((9, 9, 9), {1: np.s_[2:5]}).labels,
                         spacing=(1.0, 1.5, 2.0), origin=(-4.0, 0.0, 3.0))
        lm_a = LandmarkSet(lv.geometry.normalized_to_mm([[0.2, 0.3, 0.4]]))
        lm_b = LandmarkSet(lv.geometry.normalized_to_mm([[0.4, 0.3, 0.4]]))
        phi = DisplacementField.translation((9, 9, 9), (0.1, 0.0, 0.0))
        report = evaluate_pair(phi, labels_a=lv, labels_b=lv, landmarks_a=lm_a,
                               landmarks_b=lm_b)
        assert report.mtre_mm == mtre(lm_a, lm_b, phi, lv.geometry)

    @pytest.mark.parametrize("phi", [None, DisplacementField.identity((8, 8, 8))],
                             ids=["no-map", "map"])
    def test_landmarks_without_labels_or_geometry_rejected(self, phi):
        lm = LandmarkSet(np.array([[3.0, 3.0, 3.0]]))
        with pytest.raises(ConfigError, match="needs the volume geometry"):
            evaluate_pair(phi, landmarks_a=lm, landmarks_b=lm)

    def test_no_truth_rejected(self):
        with pytest.raises(ConfigError, match="no truth supplied"):
            evaluate_pair(DisplacementField.identity((8, 8, 8)))

    def test_report_round_trip(self):
        report = MetricsReport(
            per_label_dice={1: 88.5, 2: 91.25},
            mean_dice=89.875,
            mtre_mm=1.75,
            percent_neg_jacobian=0.25,
            pair_id="pair-7",
            config_hash="abc123",
        )
        assert json.loads(report.to_json()) == {
            "pair_id": "pair-7", "config_hash": "abc123", "mean_dice": 89.875,
            "per_label_dice": {"1": 88.5, "2": 91.25}, "mtre_mm": 1.75,
            "percent_neg_jacobian": 0.25,
        }

    def test_report_text_pinned(self):
        # label ids are written as strings and sort as strings: "1", "10", "2"
        report = MetricsReport(per_label_dice={1: 88.5, 2: 91.25, 10: 70.0}, mean_dice=83.25,
                               mtre_mm=1.75, percent_neg_jacobian=0.25, pair_id="pair-7",
                               config_hash="abc123")
        assert report.to_json() == (
            '{\n "config_hash": "abc123",\n "mean_dice": 83.25,\n "mtre_mm": 1.75,\n'
            ' "pair_id": "pair-7",\n "per_label_dice": {\n  "1": 88.5,\n  "10": 70.0,\n'
            '  "2": 91.25\n },\n "percent_neg_jacobian": 0.25\n}')

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ConfigError, match="mean Dice out of range"):
            MetricsReport(mean_dice=120.0)
        with pytest.raises(ConfigError, match="negative mTRE"):
            MetricsReport(mtre_mm=-1.0)
