"""File formats: minimal NIfTI-1, raw+sidecar, landmark CSV.

NIfTI support covers uncompressed single-file .nii with the minimal field
set (dim, datatype, bitpix, pixdim, vox_offset >= 352, descrip, qoffset,
magic "n+1"), little-endian, datatypes float32 (16) and int16 (4).
Orientation matrices are ignored; the grid is treated as axis-aligned.
The native raw format is a little-endian float32 payload plus a JSON
sidecar carrying dims/spacing/origin/modality, trivially parseable
anywhere; multi-channel data is stored channel-major, x-fastest. Raw
readers and writers take ``X`` or ``X.raw`` for the files X.raw and X.json.
"""

from __future__ import annotations

import json
import re
import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor3, check_number
from .volume import LabelVolume, LandmarkSet, Volume, _check_spacing_origin, check_modality

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC = b"n+1\x00"
DT_INT16 = 4
DT_FLOAT32 = 16
# a landmark field: an ASCII decimal or scientific numeral, spaces around it
_NUMERAL = re.compile(r"[ \t]*[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?[ \t]*")


class FormatError(ValueError):
    """Malformed file for the declared format."""


class UnsupportedError(ValueError):
    """Well-formed file using a feature outside the supported subset."""


# NIfTI-1 header fields this package writes or reads: name -> (byte offset, struct format)
HEADER_FIELDS = {"sizeof_hdr": (0, "<i"), "dim": (40, "<8h"), "datatype": (70, "<h"),
                 "bitpix": (72, "<h"), "pixdim": (76, "<8f"), "vox_offset": (108, "<f"),
                 "descrip": (148, "<80s"), "qoffset": (268, "<3f"), "magic": (344, "<4s")}


def _pack_header(dims, pixdim, datatype, bitpix, descrip: bytes, qoffset) -> bytes:
    """The header plus the zero bytes up to the data at VOX_OFFSET."""
    with np.errstate(over="ignore"):
        stored = np.array([*pixdim, *qoffset], np.float64).astype(np.float32).tolist()
    _check_spacing_origin(stored[:3], stored[3:], UnsupportedError,
                          f"a NIfTI header holds float32, so spacing {tuple(pixdim)} and "
                          f"origin {tuple(qoffset)} do not fit: ")
    values = {"sizeof_hdr": [HEADER_SIZE], "dim": [3, *dims, 1, 1, 1, 1], "datatype": [datatype],
              "bitpix": [bitpix], "pixdim": [0.0, *stored[:3], 0.0, 0.0, 0.0, 0.0],
              "vox_offset": [float(VOX_OFFSET)], "descrip": [descrip[:79]],
              "qoffset": stored[3:], "magic": [MAGIC]}
    hdr = bytearray(VOX_OFFSET)
    for name, (offset, fmt) in HEADER_FIELDS.items():
        struct.pack_into(fmt, hdr, offset, *values[name])
    return bytes(hdr)


def _parse_header(hdr: bytes, path) -> dict:
    """The HEADER_FIELDS of ``hdr``, a one-value field as its value and
    descrip as text."""
    if len(hdr) < HEADER_SIZE:
        raise FormatError(f"{path}: file shorter than the {HEADER_SIZE}-byte header")
    h = {name: struct.unpack_from(fmt, hdr, at) for name, (at, fmt) in HEADER_FIELDS.items()}
    h = {name: v[0] if len(v) == 1 else v for name, v in h.items()}
    if h["sizeof_hdr"] != HEADER_SIZE:
        raise FormatError(f"{path}: sizeof_hdr is {h['sizeof_hdr']}, expected {HEADER_SIZE}")
    if h["magic"] != MAGIC:
        raise FormatError(f"{path}: bad magic {h['magic']!r}, expected {MAGIC!r}")
    dim = h["dim"]
    if dim[0] < 3:
        raise FormatError(f"{path}: need >= 3 dims, header declares {dim[0]}")
    extra = 1
    for d in dim[4 : 1 + dim[0]]:
        extra *= max(d, 1)
    if extra != 1:
        raise UnsupportedError(f"{path}: only scalar 3D volumes are supported")
    h["descrip"] = h["descrip"].split(b"\x00", 1)[0].decode("ascii", errors="replace")
    return h


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
    Path(path).write_bytes(hdr + v.values().astype("<f4").tobytes(order="F"))


def read_nifti(path, modality: str | None = None) -> Volume:
    """Read an uncompressed NIfTI-1 volume (float32 or int16 data). A given
    ``modality`` replaces the file's tag, which is then not checked."""
    raw = Path(path).read_bytes()
    meta = _parse_header(raw, path)
    nx, ny, nz = meta["dim"][1:4]
    if min(nx, ny, nz) < 1:
        raise FormatError(f"{path}: non-positive dims {(nx, ny, nz)}")
    count = nx * ny * nz
    if meta["datatype"] == DT_FLOAT32:
        dtype = np.dtype("<f4")
    elif meta["datatype"] == DT_INT16:
        dtype = np.dtype("<i2")
    else:
        raise UnsupportedError(f"{path}: unsupported NIfTI datatype code {meta['datatype']}")
    offset = meta["vox_offset"]
    if not (np.isfinite(offset) and offset >= VOX_OFFSET):
        raise FormatError(f"{path}: vox_offset {offset} must be finite and >= {VOX_OFFSET}")
    start = int(round(offset))
    end = start + count * dtype.itemsize
    if len(raw) < end:
        raise FormatError(f"{path}: data section truncated: need {end} bytes, have {len(raw)}")
    flat = np.frombuffer(raw[start:end], dtype=dtype)
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: non-finite voxel values")
    pixdim = meta["pixdim"][1:4]
    if not np.isfinite(pixdim + meta["qoffset"]).all():
        raise FormatError(f"{path}: non-finite pixdim or qoffset in the header")
    grid = flat.reshape((nx, ny, nz), order="F").astype(np.float64)
    fields = _descrip_fields(meta["descrip"])
    if modality is None:
        modality = fields.get("modality", "SYNTH-UNKNOWN")
        check_modality(modality, FormatError, f"{path}: descrip ")
    spacing = tuple(p if p > 0 else 1.0 for p in pixdim)
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
    Path(path).write_bytes(hdr + lv.labels.astype("<i2").tobytes(order="F"))


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
    return Path(str(base).removesuffix(".raw") + ".json")


def _raw_path(base) -> Path:
    return Path(str(base).removesuffix(".raw") + ".raw")


def write_raw(data: np.ndarray, base, meta: dict) -> Path:
    """Write (nx,ny,nz,C) float data channel-major x-fastest with a JSON sidecar; return X.raw."""
    payload = np.asarray(data, dtype="<f4").tobytes(order="F")
    sidecar = {
        "dims": list(data.shape[:3]),
        "channels": data.shape[3],
        "dtype": "float32",
        "layout": "channel-major,x-fastest",
    }
    sidecar.update(meta)
    path = _raw_path(base)
    path.write_bytes(payload)
    _sidecar_path(base).write_text(json.dumps(sidecar, indent=1, sort_keys=True))
    return path


def read_raw(base) -> tuple[np.ndarray, dict]:
    sidecar = _sidecar_path(base)
    try:
        meta = json.loads(sidecar.read_text())
        nx, ny, nz = meta["dims"]
    except (ValueError, KeyError, TypeError) as exc:  # not JSON, or no three dims
        raise FormatError(f"{sidecar}: not a JSON object with three 'dims': {exc!r}") from exc
    if meta.get("dtype") != "float32":
        raise UnsupportedError(f"{sidecar}: unsupported raw dtype {meta.get('dtype')!r}")
    channels = meta.get("channels", 1)
    for n in (nx, ny, nz, channels):
        check_number(FormatError, f"{sidecar}: dims and channels", n, integer=True, at_least=1)
    payload, count = _raw_path(base), nx * ny * nz * channels
    raw = payload.read_bytes()
    if len(raw) != 4 * count:
        raise FormatError(f"{payload}: raw payload has {len(raw)} bytes, sidecar "
                          f"promises {count} float32 values ({4 * count} bytes)")
    flat = np.frombuffer(raw, dtype="<f4")
    if not np.isfinite(flat).all():
        raise FormatError(f"{payload}: non-finite values")
    return np.ascontiguousarray(flat.reshape((nx, ny, nz, channels), order="F"), np.float64), meta


def write_volume_raw(v: Volume, base) -> Path:
    return write_raw(
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
    sidecar = _sidecar_path(base)
    if meta.get("kind") != "volume" or data.shape[3] != 1:
        raise FormatError(f"{sidecar}: raw payload is not a 1-channel volume")
    spacing = meta.get("spacing", [1.0, 1.0, 1.0])
    origin = meta.get("origin", [0.0, 0.0, 0.0])
    _check_spacing_origin(spacing, origin, FormatError, f"{sidecar}: ")
    if modality is None:
        modality = meta.get("modality", "SYNTH-UNKNOWN")
        check_modality(modality, FormatError, f"{sidecar}: ")
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
        raise FormatError(f"{_sidecar_path(base)}: raw payload is not a 3-channel field")
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
        fields = line.split(",")
        row = [float(p) for p in fields] if all(map(_NUMERAL.fullmatch, fields)) else []
        if len(row) != 3 or not np.isfinite(row).all():
            raise FormatError(f"{path}:{line_no}: expected finite numbers 'x,y,z', got {line!r}")
        rows.append(row)
    if not rows:
        raise FormatError(f"{path}: no landmark lines")
    return LandmarkSet(np.array(rows, dtype=np.float64), frame=frame)
