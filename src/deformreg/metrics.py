"""Evaluation metrics: label overlap (Dice), landmark error (mTRE), folding.

Conventions: Dice is reported in percent per label and averaged over the
labels present in either volume; labels are warped with nearest-neighbor
sampling. The label grids set the evaluation resolution (fields resample
onto them), so original-resolution evaluation means passing
original-resolution labels. mTRE maps the target-frame landmarks through
the A->B map into the source frame and measures mean distance in mm
against the source landmarks. Without a map, ``evaluate_pair`` scores
the identity: the pair's misalignment before registration.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .tensor import ConfigError
from .transforms import DisplacementField, percent_neg_jac, warp_nearest
from .volume import Geometry, LabelVolume, LandmarkSet


def dice(warped_labels: LabelVolume, target_labels: LabelVolume):
    """Per-label and mean Dice in percent over labels present in either
    volume (background excluded)."""
    if warped_labels.dims != target_labels.dims:
        raise ConfigError(
            f"label dims differ: {warped_labels.dims} vs {target_labels.dims}"
        )
    a, b = warped_labels.labels, target_labels.labels
    ids = sorted(set(warped_labels.label_ids()) | set(target_labels.label_ids()))
    per_label = {}
    for lid in ids:
        in_a = a == lid
        in_b = b == lid
        denom = int(in_a.sum()) + int(in_b.sum())
        inter = int(np.count_nonzero(in_a & in_b))
        per_label[lid] = 100.0 * 2.0 * inter / denom if denom else 0.0
    mean = float(np.mean(list(per_label.values()))) if per_label else 0.0
    return per_label, mean


def mtre(
    landmarks_src: LandmarkSet,
    landmarks_tgt: LandmarkSet,
    phi: DisplacementField,
    geometry: Geometry,
) -> float:
    """Mean target registration error in mm: target landmarks are pushed
    through phi (the A->B map) into source space and compared index-wise
    with the source landmarks.
    """
    if len(landmarks_src) != len(landmarks_tgt):
        raise ConfigError(
            f"landmark counts differ: {len(landmarks_src)} vs {len(landmarks_tgt)}"
        )
    landmarks_src.assert_inside(geometry)
    landmarks_tgt.assert_inside(geometry)
    norm_pts = geometry.mm_to_normalized(landmarks_tgt.points)
    mapped_mm = geometry.normalized_to_mm(phi.map_points(norm_pts))
    err = np.linalg.norm(mapped_mm - landmarks_src.points, axis=1)
    return float(err.mean())


@dataclass
class MetricsReport:
    """One evaluation row: overlap, landmark error, folding, provenance."""

    per_label_dice: dict = field(default_factory=dict)
    mean_dice: float | None = None
    mtre_mm: float | None = None
    percent_neg_jacobian: float | None = None
    pair_id: str = ""
    config_hash: str = ""

    def __post_init__(self):
        if self.mean_dice is not None and not 0.0 <= self.mean_dice <= 100.0:
            raise ConfigError(f"mean Dice out of range: {self.mean_dice}")
        if self.mtre_mm is not None and self.mtre_mm < 0:
            raise ConfigError(f"negative mTRE: {self.mtre_mm}")
        if self.percent_neg_jacobian is not None and not (
            0.0 <= self.percent_neg_jacobian <= 100.0
        ):
            raise ConfigError(f"folding percent out of range: {self.percent_neg_jacobian}")

    def to_json(self) -> str:
        # string label ids sort as the JSON keys they become ("1", "10", "2")
        labels = {str(k): v for k, v in self.per_label_dice.items()}
        return json.dumps(asdict(self) | {"per_label_dice": labels}, indent=1, sort_keys=True)


def evaluate_pair(
    phi_ab: DisplacementField | None = None,
    labels_a: LabelVolume | None = None,
    labels_b: LabelVolume | None = None,
    landmarks_a: LandmarkSet | None = None,
    landmarks_b: LandmarkSet | None = None,
    geometry: Geometry | None = None,
    pair_id: str = "",
    config_hash: str = "",
) -> MetricsReport:
    """Assemble a report from whichever truth is available.

    Dice compares A's labels warped by the A->B map against B's labels;
    mTRE maps B-frame landmarks through the same map onto A's. Labels and
    landmarks each come as a pair: one of a pair alone is a ConfigError.
    ``geometry`` defaults to A's labels' and is needed for landmarks;
    ``phi_ab`` None is the identity map on A's labels' grid, or else on
    the geometry's.
    """
    for name, a, b in (("labels", labels_a, labels_b), ("landmarks", landmarks_a, landmarks_b)):
        if (a is None) != (b is None):
            raise ConfigError(f"{name}_{'b' if b is None else 'a'} missing: "
                              f"{name} are scored in pairs of frames a and b")
    if labels_a is None and landmarks_a is None:
        raise ConfigError("no truth supplied: need labels and/or landmarks")
    if geometry is None and labels_a is not None:
        geometry = labels_a.geometry
    if geometry is None:  # landmarks alone
        raise ConfigError("landmark evaluation needs the volume geometry")
    if phi_ab is None:
        phi_ab = DisplacementField.identity((labels_a or geometry).dims)
    per_label, mean_dice, mtre_mm = {}, None, None
    if labels_a is not None:
        per_label, mean_dice = dice(warp_nearest(labels_a, phi_ab), labels_b)
    if landmarks_a is not None:
        mtre_mm = mtre(landmarks_a, landmarks_b, phi_ab, geometry)
    return MetricsReport(
        per_label_dice=per_label,
        mean_dice=mean_dice,
        mtre_mm=mtre_mm,
        percent_neg_jacobian=percent_neg_jac(phi_ab),
        pair_id=pair_id,
        config_hash=config_hash,
    )
