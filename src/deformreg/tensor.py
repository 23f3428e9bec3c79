"""Dense 3D tensor carrier used by every numeric module.

A Tensor3 is an (nx, ny, nz, channels) float64 array with finiteness
enforced at construction. Volumes are 1-channel, displacement fields are
3-channel, descriptors can be wider. All differentiated computation runs
in float64; file formats downcast to float32 at the I/O boundary.
"""

from __future__ import annotations

import numbers
import sys

import numpy as np


class TensorError(ValueError):
    """A value outside the finite range or outside an op's domain."""


class ConfigError(ValueError):
    """An input or setting the caller got wrong."""


class Tensor3:
    """Immutable dense scalar grid: spatial dims (nx, ny, nz) plus channels."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.array(data, dtype=np.float64, copy=True, order="C")
        if arr.ndim == 3:
            arr = arr[..., np.newaxis]
        if arr.ndim != 4:
            raise ConfigError(f"expected 3 or 4 array dims, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ConfigError(f"all dims must be positive, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise TensorError("non-finite values rejected at tensor construction")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor3 is immutable")

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor3":
        """No-copy constructor for freshly computed (nx,ny,nz,C) arrays.

        Internal fast path: the caller hands over ownership; the finiteness
        invariant is still enforced.
        """
        if arr.ndim != 4:
            raise ConfigError(f"expected 4 array dims, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise TensorError("non-finite values rejected at tensor construction")
        arr.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "data", arr)
        return obj

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[:3]

    @property
    def channels(self) -> int:
        return self.data.shape[3]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ConfigError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor3(dims={self.dims}, channels={self.channels})"

    @staticmethod
    def full(dims, value: float, channels: int = 1) -> "Tensor3":
        nx, ny, nz = check_dims(dims)
        return Tensor3(np.full((nx, ny, nz, channels), value, dtype=np.float64))

    @staticmethod
    def zeros(dims, channels: int = 1) -> "Tensor3":
        return Tensor3.full(dims, 0.0, channels)

    @staticmethod
    def scalar(value: float) -> "Tensor3":
        return Tensor3(np.full((1, 1, 1, 1), value, dtype=np.float64))


def node_axes(dims) -> list[np.ndarray]:
    """Normalized node coordinates per axis, shaped (nx,1,1), (1,ny,1), (1,1,nz).

    Node i along an axis of length n sits at i/(n-1); a length-1 axis sits
    at 0. This node-centered convention is shared by interpolation, spatial
    gradients and displacement-field composition, so maps expressed on the
    unit cube stay consistent across grid resolutions. ``dims`` obeys
    ``check_dims``.
    """
    return [np.linspace(0.0, 1.0, n).reshape([n if a == axis else 1 for a in range(3)])
            for axis, n in enumerate(check_dims(dims))]


def grid_coordinates(dims) -> Tensor3:
    """The node coordinates of ``node_axes`` as a 3-channel tensor."""
    return Tensor3(np.stack(np.broadcast_arrays(*node_axes(dims)), axis=-1))


def displaced_axes(u: np.ndarray) -> list[np.ndarray]:
    """Per-axis coordinates x + u(x) at the nodes x of the (nx, ny, nz, 3)
    displacement ``u``: the points a map built from ``u`` samples at."""
    return [x + u[..., axis] for axis, x in enumerate(node_axes(u.shape[:3]))]


def check_number(error: type[Exception], name: str, value, *, integer: bool = False,
                 at_least=None, above=None) -> None:
    """Raise ``error`` unless ``value`` is a finite real (an integer when
    ``integer``; never a bool) with at_least <= value and above < value."""
    if (not isinstance(value, numbers.Integral if integer else numbers.Real)
            or isinstance(value, bool) or not abs(value) <= sys.float_info.max):
        raise error(f"{name} must be a finite {'integer' if integer else 'number'}, got {value!r}")
    for bad, rule in ((at_least is not None and value < at_least, f">= {at_least}"),
                      (above is not None and value <= above, f"> {above}")):
        if bad:
            raise error(f"{name} must be {rule}, got {value!r}")


def check_dims(dims, name: str = "dims") -> tuple[int, int, int]:
    """``dims`` as a tuple of ints; ConfigError unless it holds three integers >= 1, no bool."""
    if not isinstance(dims, (tuple, list, np.ndarray)) or len(dims) != 3:
        raise ConfigError(f"{name} must be three integers >= 1, got {dims!r}")
    for n in dims:
        check_number(ConfigError, name, n, integer=True, at_least=1)
    return tuple(int(n) for n in dims)
