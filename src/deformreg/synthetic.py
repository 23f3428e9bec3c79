"""Multimodal phantom generator with exact ground truth.

Phantoms are textured backgrounds plus non-overlapping ellipsoids with
well-separated mean intensities, labeled and landmarked. The base is
rendered on a grid twice as fine as the output (2n - 1 nodes per axis),
and the output grid's nodes are that grid's even nodes. A pair reads the
fine base only at output nodes: the undeformed image takes its values
there as they are, and the deformed one samples it trilinearly at each
deformed node x + u(x). So only the deformed image carries interpolation
smoothing, and at half the output spacing.

Ground-truth deformations are sums of wide Gaussian-envelope
displacements whose amplitude is bounded analytically, so the Jacobian
stays positive (fold-free) and a fixed-point inverse exists. Intensity
remaps stand in for cross-modality appearance change. There are three
(``REMAP_KINDS``): identity; invert, which produces the locally
anticorrelated regime where plain correlation losses fail and their
squared variant does not; and sigmoid, a monotone contrast stretch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tape import _box_sum_axis, _flat_in_halves, _TrilinearPlan
from .tensor import ConfigError, Tensor3, check_dims, check_number, displaced_axes, node_axes
from .transforms import DisplacementField, inverse_displacement, resample_field_to, warp_nearest
from .volume import LabelVolume, LandmarkSet, Volume

# max |d/dr exp(-r^2 / (2 s^2))| = exp(-1/2) / s
_GAUSS_GRAD_PEAK = float(np.exp(-0.5))
# wide envelopes: neighborhoods move coherently, which keeps windowed
# similarity informative across multi-voxel displacements
_SIGMA_RANGE = (0.25, 0.40)
# resolution multiple of the rendering copy of a phantom's base
_SUPERSAMPLE = 2
# placement draws per structure before giving up on a non-overlapping spot
_RETRY_BUDGET = 200
# the intensity remaps ModalityRemap applies
REMAP_KINDS = ("identity", "invert", "sigmoid")


class AmplitudeError(ConfigError):
    """A deformation amplitude outside the fold-free ``bound`` (normalized)."""

    def __init__(self, message: str, bound: float):
        super().__init__(message)
        self.bound = bound


@dataclass(frozen=True)
class Phantom:
    base: Volume
    labels: LabelVolume
    landmarks: LandmarkSet
    base_supersampled: Volume


@dataclass(frozen=True)
class TruthBundle:
    """Everything needed to score a registration of the rendered pair."""

    field: DisplacementField
    labels_a: LabelVolume
    labels_b: LabelVolume
    landmarks_a: LandmarkSet
    landmarks_b: LandmarkSet


@dataclass(frozen=True)
class ModalityRemap:
    """Intensity map [0,1] -> [0,1] simulating a different acquisition of
    the same anatomy: identity, invert (1 - x), or sigmoid (a logistic of
    slope 8 centered at 0.5, rescaled to map 0 and 1 onto themselves)."""

    kind: str = "identity"

    def __post_init__(self):
        if self.kind not in REMAP_KINDS:
            raise ConfigError(f"unknown remap kind {self.kind!r}; use one of {REMAP_KINDS}")

    def apply(self, values: np.ndarray) -> np.ndarray:
        x = np.clip(values, 0.0, 1.0)
        if self.kind == "identity":
            return x
        if self.kind == "invert":
            return 1.0 - x
        raw = 1.0 / (1.0 + np.exp(-8.0 * (x - 0.5)))
        lo = 1.0 / (1.0 + np.exp(-8.0 * (0.0 - 0.5)))
        hi = 1.0 / (1.0 + np.exp(-8.0 * (1.0 - 0.5)))
        return (raw - lo) / (hi - lo)


def _smooth_noise(rng, dims, passes=4):
    # one channel after the spatial axes, as the window sum counts its grid
    a = rng.uniform(0.0, 1.0, size=dims)[..., None]
    out = np.empty_like(a)
    for _ in range(passes):
        for axis in range(3):
            # (roll(a, 1) + a + roll(a, -1)) / 3 along axis: the window sum, whose
            # rows 0 and n-1 then take their far neighbor across the periodic end
            _box_sum_axis(a, axis, 1, out)
            src, dst = np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0)
            np.add(src[-1], src[0], out=dst[0])
            dst[0] += src[1 % len(src)]
            np.add(src[-2 % len(src)], src[-1], out=dst[-1])
            dst[-1] += src[0]
            _flat_in_halves(lambda x: np.divide(x, 3.0, out=x), out)
            a, out = out, a
    a -= a.min()
    peak = a.max()
    if peak > 0:
        a /= peak
    return a[..., 0]


def _ellipsoid_r2(axes, center, semi) -> np.ndarray:
    """Squared normalized radius on the grid spanned by ``node_axes``."""
    return sum(((ax - c) / s) ** 2 for ax, c, s in zip(axes, center, semi))


def _ellipsoid_box(axes, center, semi) -> tuple:
    """The bounding box of the ellipsoid's nodes on the grid spanned by
    ``node_axes``: per axis, the slice from the first to the last node
    whose own term of ``_ellipsoid_r2`` is at most 1. r2 sums those
    non-negative terms, and a rounded sum is never below a term, so no node
    outside the box has r2 <= 1; inside it r2 takes the same float ops."""
    box = []
    for ax, c, s in zip(axes, center, semi):
        near = np.flatnonzero(((ax.ravel() - c) / s) ** 2 <= 1.0)
        box.append(slice(near[0], near[-1] + 1) if near.size else slice(0, 0))
    return tuple(box)


def make_phantom(seed: int, dims, n_structures: int = 3) -> Phantom:
    """Textured background plus labeled ellipsoids with distinct intensities.

    Landmarks sit at every structure center and at three near-boundary
    extrema per structure (inside the labeled region), so even a single
    structure carries four landmarks.
    """
    check_number(ConfigError, "seed", seed, integer=True, at_least=0)
    dims = check_dims(dims)
    if min(dims) < 16:
        raise ConfigError(f"phantom dims must be >= 16 per axis, got {dims}")
    check_number(ConfigError, "n_structures", n_structures, integer=True, at_least=1)
    means = np.linspace(0.40, 0.85, n_structures)
    if n_structures > 1 and means[1] - means[0] < 0.1:
        raise ConfigError(
            f"{n_structures} structures cannot keep mean separation >= 0.1"
        )
    rng = np.random.default_rng(seed)
    hi_dims = tuple((n - 1) * _SUPERSAMPLE + 1 for n in dims)
    axes_hi, axes_lo = node_axes(hi_dims), node_axes(dims)

    # smoothing passes scale with the supersample factor squared to keep
    # the physical feature size of the noise fixed
    ss2 = _SUPERSAMPLE * _SUPERSAMPLE
    values_hi = 0.14 + 0.10 * _smooth_noise(rng, hi_dims, passes=4 * ss2)
    texture = _smooth_noise(rng, hi_dims, passes=ss2)
    texture -= texture.mean()
    texture *= 0.20

    labels_lo = np.zeros(dims, dtype=np.int64)
    landmark_rows = []

    for sid in range(1, n_structures + 1):
        placed = False
        for _ in range(_RETRY_BUDGET + 1):
            center = rng.uniform(0.22, 0.78, size=3)
            semi = rng.uniform(0.08, 0.16, size=3)
            r2_lo = _ellipsoid_r2(axes_lo, center, semi)
            # keep one clear voxel ring between structures
            if not np.any(labels_lo[r2_lo <= 1.6]):
                placed = True
                break
        if not placed:
            raise ConfigError(
                f"could not place structure {sid} without overlap "
                f"within {_RETRY_BUDGET} retries"
            )
        # r2, its falloff and the mask over the structure's box only
        box = _ellipsoid_box(axes_hi, center, semi)
        box_axes = [ax[(slice(None),) * a + (box[a],)] for a, ax in enumerate(axes_hi)]
        r2_hi = _ellipsoid_r2(box_axes, center, semi)
        # gentle interior falloff keeps local windows non-degenerate
        np.copyto(values_hi[box], means[sid - 1] + 0.04 * (1.0 - r2_hi), where=r2_hi <= 1.0)
        labels_lo[r2_lo <= 1.0] = sid
        landmark_rows.append(center)
        landmark_rows.append(center + np.array([0.8 * semi[0], 0.0, 0.0]))
        landmark_rows.append(center - np.array([0.0, 0.8 * semi[1], 0.0]))
        landmark_rows.append(center + np.array([0.0, 0.0, 0.8 * semi[2]]))

    values_hi += texture
    base_hi = Volume(
        grid=Tensor3(np.clip(values_hi, 0.0, 1.0, out=values_hi)),
        modality="SYNTH-BASE",
        preprocessed=True,
    )
    k = _SUPERSAMPLE
    base = Volume(Tensor3(base_hi.values()[::k, ::k, ::k]),
                  modality="SYNTH-BASE", preprocessed=True)
    geo = base.geometry
    landmarks = LandmarkSet(geo.normalized_to_mm(np.array(landmark_rows)), frame="base")
    landmarks.assert_inside(geo)
    return Phantom(
        base=base,
        labels=LabelVolume(labels_lo),
        landmarks=landmarks,
        base_supersampled=base_hi,
    )


def deformation_amplitude_bound(sigmas) -> float:
    """Largest per-bump displacement magnitude keeping the sum of envelope
    gradients below 1 (positive Jacobian), with a 5% safety margin."""
    total = sum(_GAUSS_GRAD_PEAK / s for s in sigmas)
    return 0.95 / total


def make_deformation(seed: int, dims, amplitude: float, n_bumps: int = 2) -> DisplacementField:
    """Sum of Gaussian-envelope displacements, fold-free by construction.

    ``amplitude`` is the displacement magnitude of each bump in normalized
    coordinates (a negative one flips every bump). Its magnitude must stay
    within the analytic bound for the drawn envelope widths; any other
    value, NaN included, is rejected with that bound. With no bumps there
    is no bound, but NaN and infinities are still rejected.
    """
    check_number(ConfigError, "seed", seed, integer=True, at_least=0)
    dims = check_dims(dims)
    check_number(ConfigError, "n_bumps", n_bumps, integer=True, at_least=0)
    rng = np.random.default_rng(seed)
    if n_bumps == 0 or amplitude == 0.0:
        check_number(ConfigError, "amplitude", amplitude)
        return DisplacementField.identity(dims)
    sigmas = rng.uniform(*_SIGMA_RANGE, size=n_bumps)
    bound = deformation_amplitude_bound(sigmas)
    if not abs(amplitude) <= bound:
        raise AmplitudeError(
            f"amplitude {amplitude:.4g} is not within +/-{bound:.4g}, the fold-free bound "
            f"for {n_bumps} bumps with envelopes {np.round(sigmas, 3)}",
            bound,
        )
    u = np.zeros((*dims, 3))
    for b in range(n_bumps):
        center = rng.uniform(0.3, 0.7, size=3)
        direction = rng.normal(size=3)
        direction *= amplitude / np.linalg.norm(direction)
        r2 = _ellipsoid_r2(node_axes(dims), center, (1, 1, 1))
        envelope = np.exp(-r2 / (2.0 * sigmas[b] ** 2))
        u += envelope[..., None] * direction
    return DisplacementField(Tensor3(u))


def render_pair(
    phantom: Phantom,
    remap_a: ModalityRemap,
    remap_b: ModalityRemap,
    deformation: DisplacementField,
):
    """Build the registration task (A, B, truth).

    A is the base under remap_a. B is the deformed base under remap_b, so
    the ground-truth map for the pair (A, B) is exactly ``deformation``;
    B-frame landmarks come from its fixed-point inverse at the landmarks.
    B samples the phantom's supersampled base trilinearly at each deformed
    node x + u(x) of the base grid, whose nodes are the supersampled
    grid's even nodes.
    """
    base = phantom.base
    hi = phantom.base_supersampled.grid.data
    coords = displaced_axes(resample_field_to(deformation, base.dims).u.data)
    values_a = remap_a.apply(base.grid.data)
    values_b = remap_b.apply(_TrilinearPlan((hi,), coords).out[0])
    vol_a = Volume(Tensor3(values_a), spacing=base.spacing, origin=base.origin,
                   modality="SYNTH-A", preprocessed=True)
    vol_b = Volume(Tensor3(values_b), spacing=base.spacing, origin=base.origin,
                   modality="SYNTH-B", preprocessed=True)
    geo = base.geometry
    lm_a_norm = geo.mm_to_normalized(phantom.landmarks.points)
    lm_b_norm = lm_a_norm + inverse_displacement(deformation, lm_a_norm)
    truth = TruthBundle(
        field=deformation,
        labels_a=phantom.labels,
        labels_b=warp_nearest(phantom.labels, deformation),
        landmarks_a=phantom.landmarks,
        landmarks_b=LandmarkSet(geo.normalized_to_mm(lm_b_norm), frame="b"),
    )
    return vol_a, vol_b, truth
