"""File formats: minimal NIfTI-1, raw+sidecar, landmark CSV.

NIfTI support covers uncompressed single-file .nii with the minimal field
set (dim, datatype, bitpix, pixdim, vox_offset >= 352, descrip, qoffset,
magic "n+1"), little-endian, datatypes float32 (16) and int16 (4).
Orientation matrices are ignored; the grid is treated as axis-aligned.
The native raw format is a little-endian float32 payload plus a JSON
sidecar carrying dims/spacing/origin/modality, trivially parseable
anywhere; multi-channel data is stored channel-major, x-fastest.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor3, check_number
from .volume import LabelVolume, LandmarkSet, Volume, known_modality

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC = b"n+1\x00"
DT_INT16 = 4
DT_FLOAT32 = 16


class FormatError(ValueError):
    """Malformed file for the declared format."""


class UnsupportedError(ValueError):
    """Well-formed file using a feature outside the supported subset."""


def _pack_header(dims, pixdim, datatype, bitpix, descrip: bytes, qoffset) -> bytes:
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    dim = [3, dims[0], dims[1], dims[2], 1, 1, 1, 1]
    struct.pack_into("<8h", hdr, 40, *dim)
    struct.pack_into("<h", hdr, 70, datatype)
    struct.pack_into("<h", hdr, 72, bitpix)
    pd = [0.0, pixdim[0], pixdim[1], pixdim[2], 0.0, 0.0, 0.0, 0.0]
    struct.pack_into("<8f", hdr, 76, *pd)
    struct.pack_into("<f", hdr, 108, float(VOX_OFFSET))
    struct.pack_into("<80s", hdr, 148, descrip[:79])
    struct.pack_into("<3f", hdr, 268, *qoffset)
    struct.pack_into("<4s", hdr, 344, MAGIC)
    return bytes(hdr)


def _parse_header(hdr: bytes):
    if len(hdr) < HEADER_SIZE:
        raise FormatError(f"file shorter than the {HEADER_SIZE}-byte header")
    (sizeof_hdr,) = struct.unpack_from("<i", hdr, 0)
    if sizeof_hdr != HEADER_SIZE:
        raise FormatError(f"sizeof_hdr is {sizeof_hdr}, expected {HEADER_SIZE}")
    magic = struct.unpack_from("<4s", hdr, 344)[0]
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    dim = struct.unpack_from("<8h", hdr, 40)
    if dim[0] < 3:
        raise FormatError(f"need >= 3 dims, header declares {dim[0]}")
    extra = 1
    for d in dim[4 : 1 + dim[0]]:
        extra *= max(d, 1)
    if extra != 1:
        raise UnsupportedError("only scalar 3D volumes are supported")
    (datatype,) = struct.unpack_from("<h", hdr, 70)
    pixdim = struct.unpack_from("<8f", hdr, 76)
    (vox_offset,) = struct.unpack_from("<f", hdr, 108)
    descrip = struct.unpack_from("<80s", hdr, 148)[0].split(b"\x00", 1)[0]
    qoffset = struct.unpack_from("<3f", hdr, 268)
    return {
        "dims": (dim[1], dim[2], dim[3]),
        "datatype": datatype,
        "pixdim": (pixdim[1], pixdim[2], pixdim[3]),
        "vox_offset": vox_offset,
        "descrip": descrip.decode("ascii", errors="replace"),
        "qoffset": qoffset,
    }


def _descrip_fields(descrip: str) -> dict:
    out = {}
    for part in descrip.split(";"):
        if "=" in part:
            k, v = part.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def write_nifti(v: Volume, path):
    """Write a volume as float32 .nii; modality and the preprocessed flag
    ride in the descrip field."""
    descrip = f"modality={v.modality};preprocessed={int(v.preprocessed)}".encode("ascii")
    hdr = _pack_header(v.dims, v.spacing, DT_FLOAT32, 32, descrip, v.origin)
    data = v.values().astype("<f4").tobytes(order="F")
    with open(path, "wb") as f:
        f.write(hdr)
        f.write(b"\x00" * (VOX_OFFSET - HEADER_SIZE))
        f.write(data)


def read_nifti(path, modality: str | None = None) -> Volume:
    """Read an uncompressed NIfTI-1 volume (float32 or int16 data). A given
    ``modality`` replaces the file's tag, which is then not checked."""
    raw = Path(path).read_bytes()
    meta = _parse_header(raw)
    nx, ny, nz = meta["dims"]
    if min(nx, ny, nz) < 1:
        raise FormatError(f"non-positive dims {meta['dims']}")
    count = nx * ny * nz
    if meta["datatype"] == DT_FLOAT32:
        dtype = np.dtype("<f4")
    elif meta["datatype"] == DT_INT16:
        dtype = np.dtype("<i2")
    else:
        raise UnsupportedError(f"unsupported NIfTI datatype code {meta['datatype']}")
    offset = meta["vox_offset"]
    if not (np.isfinite(offset) and offset >= VOX_OFFSET):
        raise FormatError(f"{path}: vox_offset {offset} must be finite and >= {VOX_OFFSET}")
    start = int(round(offset))
    end = start + count * dtype.itemsize
    if len(raw) < end:
        raise FormatError(f"data section truncated: need {end} bytes, have {len(raw)}")
    flat = np.frombuffer(raw[start:end], dtype=dtype)
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: non-finite voxel values")
    if not np.isfinite(meta["pixdim"] + meta["qoffset"]).all():
        raise FormatError(f"{path}: non-finite pixdim or qoffset in the header")
    grid = flat.reshape((nx, ny, nz), order="F").astype(np.float64)
    fields = _descrip_fields(meta["descrip"])
    if modality is None:
        modality = fields.get("modality", "SYNTH-UNKNOWN")
        if not known_modality(modality):
            raise FormatError(f"{path}: unknown modality tag {modality!r} in descrip")
    spacing = tuple(p if p > 0 else 1.0 for p in meta["pixdim"])
    return Volume(
        grid=Tensor3(grid),
        spacing=spacing,
        origin=tuple(float(q) for q in meta["qoffset"]),
        modality=modality,
        preprocessed=fields.get("preprocessed", "0") == "1",
    )


def write_nifti_labels(lv: LabelVolume, path):
    if lv.labels.max(initial=0) > np.iinfo(np.int16).max:
        raise UnsupportedError("label ids exceed int16 range")
    hdr = _pack_header(lv.dims, lv.spacing, DT_INT16, 16, b"labels", lv.origin)
    data = lv.labels.astype("<i2").tobytes(order="F")
    with open(path, "wb") as f:
        f.write(hdr)
        f.write(b"\x00" * (VOX_OFFSET - HEADER_SIZE))
        f.write(data)


def read_nifti_labels(path) -> LabelVolume:
    v = read_nifti(path)
    arr = v.values()
    rounded = np.rint(arr)
    top = np.iinfo(np.int32).max
    if np.max(np.abs(arr - rounded)) > 1e-6 or rounded.min() < 0 or rounded.max() > top:
        raise FormatError(f"{path}: labels must be integers in [0, {top}]")
    return LabelVolume(rounded.astype(np.int64), spacing=v.spacing, origin=v.origin)


# -- raw + sidecar ------------------------------------------------------------


def _sidecar_path(base) -> Path:
    return Path(str(base) + ".json")


def _raw_path(base) -> Path:
    return Path(str(base) + ".raw")


def write_raw(data: np.ndarray, base, meta: dict):
    """Write (nx,ny,nz,C) float data channel-major x-fastest with a JSON sidecar."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr[..., None]
    payload = b"".join(
        arr[..., c].astype("<f4").tobytes(order="F") for c in range(arr.shape[3])
    )
    sidecar = {
        "dims": list(arr.shape[:3]),
        "channels": arr.shape[3],
        "dtype": "float32",
        "layout": "channel-major,x-fastest",
    }
    sidecar.update(meta)
    _raw_path(base).write_bytes(payload)
    _sidecar_path(base).write_text(json.dumps(sidecar, indent=1, sort_keys=True))


def read_raw(base) -> tuple[np.ndarray, dict]:
    sidecar = _sidecar_path(base)
    try:
        meta = json.loads(sidecar.read_text())
        nx, ny, nz = meta["dims"]
    except (ValueError, KeyError, TypeError) as exc:  # not JSON, or no three dims
        raise FormatError(f"{sidecar}: not a JSON object with three 'dims': {exc!r}") from exc
    if meta.get("dtype") != "float32":
        raise UnsupportedError(f"unsupported raw dtype {meta.get('dtype')!r}")
    channels = meta.get("channels", 1)
    for n in (nx, ny, nz, channels):
        check_number(FormatError, f"{sidecar}: dims and channels", n, integer=True, at_least=1)
    flat = np.frombuffer(_raw_path(base).read_bytes(), dtype="<f4")
    if flat.size != nx * ny * nz * channels:
        raise FormatError(
            f"raw payload has {flat.size} values, sidecar promises {nx * ny * nz * channels}"
        )
    if not np.isfinite(flat).all():
        raise FormatError(f"{_raw_path(base)}: non-finite values")
    per = nx * ny * nz
    out = np.empty((nx, ny, nz, channels))
    for c in range(channels):
        out[..., c] = flat[c * per : (c + 1) * per].reshape((nx, ny, nz), order="F")
    return out, meta


def write_volume_raw(v: Volume, base):
    write_raw(
        v.grid.data,
        base,
        {
            "kind": "volume",
            "spacing": list(v.spacing),
            "origin": list(v.origin),
            "modality": v.modality,
            "preprocessed": v.preprocessed,
        },
    )


def read_volume_raw(base, modality: str | None = None) -> Volume:
    """Read a 1-channel raw volume; ``modality`` as in ``read_nifti``."""
    data, meta = read_raw(base)
    if meta.get("kind") != "volume" or data.shape[3] != 1:
        raise FormatError("raw payload is not a 1-channel volume")
    sidecar = _sidecar_path(base)
    spacing = meta.get("spacing", [1.0, 1.0, 1.0])
    origin = meta.get("origin", [0.0, 0.0, 0.0])
    for name, vec, above in (("spacing", spacing, 0), ("origin", origin, None)):
        if not isinstance(vec, list) or len(vec) != 3:
            raise FormatError(f"{sidecar}: {name} must be three numbers, got {vec!r}")
        for x in vec:
            check_number(FormatError, f"{sidecar}: {name}", x, above=above)
    if modality is None:
        modality = meta.get("modality", "SYNTH-UNKNOWN")
        if not isinstance(modality, str) or not known_modality(modality):
            raise FormatError(f"{sidecar}: unknown modality tag {modality!r}")
    preprocessed = meta.get("preprocessed", False)
    if not isinstance(preprocessed, bool):
        raise FormatError(f"{sidecar}: preprocessed must be true or false, got {preprocessed!r}")
    return Volume(grid=Tensor3(data), spacing=tuple(spacing), origin=tuple(origin),
                  modality=modality, preprocessed=preprocessed)


def write_field_raw(u: np.ndarray, base, meta: dict | None = None):
    if u.ndim != 4 or u.shape[3] != 3:
        raise FormatError(f"displacement payload must be (nx,ny,nz,3), got {u.shape}")
    write_raw(u, base, {"kind": "field", **(meta or {})})


def read_field_raw(base) -> np.ndarray:
    data, meta = read_raw(base)
    if meta.get("kind") != "field" or data.shape[3] != 3:
        raise FormatError("raw payload is not a 3-channel displacement field")
    return data


# -- landmark CSV --------------------------------------------------------------


def write_landmarks_csv(lm: LandmarkSet, path):
    """One "x,y,z" line per point, mm units, no header."""
    with open(path, "w") as f:
        for x, y, z in lm.points:
            f.write(f"{x:.10g},{y:.10g},{z:.10g}\n")


def read_landmarks_csv(path, frame: str = "") -> LandmarkSet:
    rows = []
    for line_no, line in enumerate(Path(path).read_text(errors="replace").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(p) for p in line.split(",")]
        except ValueError:  # a field that is not a number
            row = []
        if len(row) != 3 or not np.isfinite(row).all():
            raise FormatError(f"{path}:{line_no}: expected finite numbers 'x,y,z', got {line!r}")
        rows.append(row)
    if not rows:
        raise FormatError(f"{path}: no landmark lines")
    return LandmarkSet(np.array(rows, dtype=np.float64), frame=frame)
