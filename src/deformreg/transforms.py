"""Displacement fields on the unit cube: composition, warping, Jacobians.

A field stores u with phi(x) = x + u(x); u is expressed in normalized
coordinates, so values are grid-independent and fields predicted at a
coarse resolution compose with full-resolution maps without rescaling.
Plain functions operate on arrays; the ``*_nodes`` variants build the
same computation on a tape so losses can differentiate through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tensor import ConfigError, Tensor3, check_dims, displaced_axes, grid_coordinates
from .tape import (Node, Tape, _not_nan, _TrilinearPlan, sample_nearest_values,
                   sample_trilinear_values)
from .volume import LabelVolume, Volume

# fixed-point iterations of inverse_displacement
INVERSE_ITERATIONS = 40


@dataclass(frozen=True)
class DisplacementField:
    """3-channel displacement u on an (nx, ny, nz) grid, phi(x) = x + u(x)."""

    u: Tensor3

    def __post_init__(self):
        if self.u.channels != 3:
            raise ConfigError(f"displacement needs 3 channels, got {self.u.channels}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.u.dims

    @staticmethod
    def identity(dims) -> "DisplacementField":
        return DisplacementField(Tensor3.zeros(dims, channels=3))

    @staticmethod
    def translation(dims, t) -> "DisplacementField":
        u = np.broadcast_to(np.asarray(t, dtype=np.float64), (*check_dims(dims), 3))
        return DisplacementField(Tensor3(np.array(u)))

    def map_points(self, points: np.ndarray) -> np.ndarray:
        """Evaluate phi at normalized points of shape (..., 3)."""
        pts = np.asarray(points, dtype=np.float64)
        return pts + sample_trilinear_values(self.u.data, np.moveaxis(pts, -1, 0))


def compose(phi1: DisplacementField, phi2: DisplacementField) -> DisplacementField:
    """(phi1 o phi2)(x) = phi2(x) + u1(phi2(x)), output on phi2's grid."""
    u1_at = _TrilinearPlan((phi1.u.data,), displaced_axes(phi2.u.data)).out[0]
    return DisplacementField(Tensor3(phi2.u.data + u1_at))


def compose_nodes(tape: Tape, u1: Node, u2: Node) -> Node:
    """Tape version of compose, differentiable through both fields."""
    return tape.add(u2, tape.trilinear_sample(u1, u2))


def resample_field_to(phi: DisplacementField, dims) -> DisplacementField:
    """u at the nodes of a ``dims`` grid (values are grid-free; phi
    itself on its own grid): ``resample_field_nodes`` on a throwaway tape."""
    dims = check_dims(dims)
    tape = Tape()
    u = resample_field_nodes(tape, tape.input(phi.u), dims).value
    return phi if u is phi.u else DisplacementField(u)


def resample_field_nodes(tape: Tape, u: Node, dims) -> Node:
    """u at the nodes of a ``dims`` grid (u itself on its own grid): the
    pyramid's ``upsample_sum`` onto a zero field, up or down."""
    if u.value.dims == tuple(dims):
        return u
    return tape.upsample_sum(u, tape.input(Tensor3.zeros(dims, channels=3)))


def warp(v: Volume, phi: DisplacementField) -> Volume:
    """Resample v at phi(x): out(x) = v(x + u(x)), edge-clamped."""
    phi_v = resample_field_to(phi, v.dims)
    out = _TrilinearPlan((v.grid.data,), displaced_axes(phi_v.u.data)).out[0]
    return replace(v, grid=Tensor3(out))


def warp_nodes(tape: Tape, image: Node, u: Node) -> Node:
    """Tape version of warp; resamples u onto the image grid if needed."""
    return tape.trilinear_sample(image, resample_field_nodes(tape, u, image.value.dims))


def warp_nearest(lv: LabelVolume, phi: DisplacementField) -> LabelVolume:
    """Label-safe warp: nearest-neighbor lookup of labels at phi(x)."""
    phi_v = resample_field_to(phi, lv.dims)
    out = sample_nearest_values(lv.labels[..., None], displaced_axes(phi_v.u.data))[..., 0]
    return replace(lv, labels=out)


def jacobian_det_map(phi: DisplacementField) -> Tensor3:
    """Per-voxel determinant of the 3x3 Jacobian of phi.

    Central differences in normalized coordinates, one-sided at the
    boundary slices; the identity field gives det = 1 everywhere.
    """
    if min(phi.dims) < 3:
        raise ConfigError(f"jacobian needs >= 3 voxels per axis, got {phi.dims}")
    spacing = [1.0 / (n - 1) for n in phi.dims]
    # J[..., comp, axis] = d(u comp)/d(axis) + (comp == axis)
    J = np.stack(np.gradient(phi.u.data, *spacing, axis=(0, 1, 2)), axis=-1) + np.eye(3)
    det = (
        J[..., 0, 0] * (J[..., 1, 1] * J[..., 2, 2] - J[..., 1, 2] * J[..., 2, 1])
        - J[..., 0, 1] * (J[..., 1, 0] * J[..., 2, 2] - J[..., 1, 2] * J[..., 2, 0])
        + J[..., 0, 2] * (J[..., 1, 0] * J[..., 2, 1] - J[..., 1, 1] * J[..., 2, 0])
    )
    return Tensor3(det)


def percent_neg_jac(phi: DisplacementField) -> float:
    """Folding fraction: percent of phi's grid voxels with negative Jacobian determinant."""
    det = jacobian_det_map(phi).data
    return 100.0 * float(np.count_nonzero(det < 0.0)) / det.size


def inverse_displacement(phi: DisplacementField, points: np.ndarray) -> np.ndarray:
    """Fixed-point inverse at normalized points of shape (..., 3):
    v <- -u(p + v), so that phi(p + v) = p once it has converged.

    u is made channel-planar once (a (..., 3) view of a component-major
    copy), so each pass's plan reads its channels without copying them.
    ``points`` is checked for NaN once; each pass's plan writes over the
    coordinates that pass builds."""
    axes = _not_nan(np.moveaxis(np.asarray(points, dtype=np.float64), -1, 0))
    u = np.moveaxis(np.ascontiguousarray(np.moveaxis(phi.u.data, -1, 0)), 0, -1)
    v = np.zeros(3)  # v = 0 at every point; the first pass gives it the point shape
    for _ in range(INVERSE_ITERATIONS):
        v = -_TrilinearPlan((u,), [p + v[..., a] for a, p in enumerate(axes)]).out[0]
    return v


def approximate_inverse(phi: DisplacementField) -> DisplacementField:
    """Fixed-point inverse on phi's grid: ``inverse_displacement`` at every node."""
    return DisplacementField(Tensor3(inverse_displacement(phi, grid_coordinates(phi.dims).data)))
