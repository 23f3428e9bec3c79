"""Volume data model and intensity preprocessing.

Intensity rules: CT-family volumes are clipped to [-1000, 1000] HU and
mapped linearly onto [0, 1]; everything else (MR-family and synthetic
modalities) is clipped above its 99th-percentile intensity and divided by
that percentile. A ``preprocessed`` flag marks normalized volumes so the
rules are applied exactly once.

A modality tag is a CT or MR family name, or ``SYNTH`` and printable
ASCII but space, ``;`` and ``=``, 55 characters at most, so that a NIfTI
``descrip`` holds it next to the flag.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from .tensor import ConfigError, Tensor3, check_number

CT_FAMILY = ("CT", "CBCT")
MR_FAMILY = ("T1w", "T1ce", "T2w", "T2", "FLAIR", "DESS", "FA", "MD", "DIXON-F", "DIXON-W")

HU_CLIP_LO = -1000.0
HU_CLIP_HI = 1000.0
MR_PERCENTILE = 99.0
# "modality=<tag>;preprocessed=0" must fit the 79 bytes of a NIfTI descrip
MAX_MODALITY_LEN = 79 - len("modality=;preprocessed=0")
_SYNTH_TAG = re.compile(r"SYNTH[!-:<>-~]*")  # printable ASCII but space, ";" and "="


def check_modality(tag, error: type[Exception] = ConfigError, prefix: str = "") -> None:
    """Raise ``error``, its message led by ``prefix`` and stating the rule,
    unless ``tag`` is a modality tag (see the module doc)."""
    if not (tag in CT_FAMILY or tag in MR_FAMILY or (
            isinstance(tag, str) and len(tag) <= MAX_MODALITY_LEN and _SYNTH_TAG.fullmatch(tag))):
        raise error(f"{prefix}modality tag {tag!r} is neither a CT or MR family name nor SYNTH "
                    f"followed by printable ASCII other than space, ';' and '=', "
                    f"{MAX_MODALITY_LEN} characters in all at most")


def _check_spacing_origin(spacing, origin, error: type[Exception] = ConfigError,
                          prefix: str = "") -> None:
    """Raise ``error``, its message led by ``prefix``, unless spacing and
    origin are three finite numbers each, the spacing strictly positive."""
    for name, vec, above in (("spacing", spacing, 0), ("origin", origin, None)):
        if not isinstance(vec, (tuple, list, np.ndarray)) or len(vec) != 3:
            raise error(f"{prefix}{name} must be three numbers, got {vec!r}")
        for x in vec:
            check_number(error, f"{prefix}{name}", x, above=above)


@dataclass(frozen=True)
class Geometry:
    """Grid-to-physical mapping: node i sits at origin + i * spacing mm."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]

    def extent_mm(self) -> np.ndarray:
        return np.array([(n - 1) * s for n, s in zip(self.dims, self.spacing)])

    def mm_to_normalized(self, points_mm: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points_mm, dtype=np.float64))
        ext = self.extent_mm()
        ext = np.where(ext > 0, ext, 1.0)
        return (pts - np.asarray(self.origin)) / ext

    def normalized_to_mm(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return pts * self.extent_mm() + np.asarray(self.origin)

    def contains_mm(self, points_mm: np.ndarray, tol: float = 1e-9) -> bool:
        p = self.mm_to_normalized(points_mm)
        return bool(np.all(p >= -tol) and np.all(p <= 1.0 + tol))


@dataclass(frozen=True)
class Volume:
    """Scalar 3D image with physical spacing/origin and a modality tag."""

    grid: Tensor3
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    modality: str = "SYNTH-BASE"
    preprocessed: bool = False

    def __post_init__(self):
        if self.grid.channels != 1:
            raise ConfigError(f"volume grid must have 1 channel, got {self.grid.channels}")
        _check_spacing_origin(self.spacing, self.origin)
        check_modality(self.modality)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.grid.dims

    @property
    def geometry(self) -> Geometry:
        return Geometry(self.dims, tuple(self.spacing), tuple(self.origin))

    def values(self) -> np.ndarray:
        return self.grid.data[..., 0]


@dataclass(frozen=True)
class LabelVolume:
    """Integer label grid; 0 is background."""

    labels: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 3:
            raise ConfigError(f"labels must be a 3D array, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ConfigError(f"labels must be integers, got dtype {arr.dtype}")
        if arr.min() < 0:
            raise ConfigError("labels must be non-negative")
        _check_spacing_origin(self.spacing, self.origin)
        object.__setattr__(self, "labels", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.labels.shape

    @property
    def geometry(self) -> Geometry:
        return Geometry(self.dims, tuple(self.spacing), tuple(self.origin))

    def label_ids(self) -> list[int]:
        return sorted(int(v) for v in np.unique(self.labels) if v != 0)


@dataclass(frozen=True)
class LandmarkSet:
    """Physical-space (mm) point list annotating one volume frame."""

    points: np.ndarray
    frame: str = ""

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ConfigError(f"landmarks must be (k, 3), got shape {pts.shape}")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]

    def assert_inside(self, geometry: Geometry):
        if not geometry.contains_mm(self.points):
            raise ConfigError(f"landmarks of frame {self.frame!r} leave the volume extent")


def preprocess(v: Volume) -> Volume:
    """Normalize intensities to [0, 1] by the modality-specific rule.

    Already-preprocessed volumes pass through unchanged, which makes the
    operation idempotent. MR-family values below zero are clipped to zero
    so the [0, 1] range invariant holds for signed inputs.
    """
    if v.preprocessed:
        return v
    vals = v.values()
    if v.modality in CT_FAMILY:
        out = (np.clip(vals, HU_CLIP_LO, HU_CLIP_HI) - HU_CLIP_LO) / (HU_CLIP_HI - HU_CLIP_LO)
    else:
        p = float(np.percentile(vals, MR_PERCENTILE))
        if p <= 0.0:
            raise ConfigError(
                f"99th-percentile intensity is {p}; cannot normalize modality {v.modality}"
            )
        out = np.clip(vals, 0.0, p) / p
    return replace(v, grid=Tensor3(out), preprocessed=True)


def invert_ct(v: Volume) -> Volume:
    """Intensity inversion 1 - v for normalized CT-family volumes."""
    if v.modality not in CT_FAMILY:
        raise ConfigError(f"intensity inversion applies to CT-family only, got {v.modality}")
    if not v.preprocessed:
        raise ConfigError("invert_ct expects a preprocessed (range [0,1]) volume")
    return replace(v, grid=Tensor3(1.0 - v.values()))
