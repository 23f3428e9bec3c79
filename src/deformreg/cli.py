"""Command-line entry point for reproducible registration runs.

Subcommands: register (per-pair optimization), synth (phantom pair with
ground truth), evaluate (metrics report from a field, or the identity,
plus truth), preprocess (intensity rules).
Exit codes: 0 success, 2 configuration error (ConfigError, TensorError),
3 I/O error or out of memory, 4 numerical abort (a non-finite loss, a
tripped domain guard in an op, or either register map folding more than
FOLD_LIMIT_PCT percent of its voxels).
Reports embed a hash of the fully-resolved configuration.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import sys
from pathlib import Path

from .fileio import (
    FormatError,
    UnsupportedError,
    read_field_raw,
    read_landmarks_csv,
    read_nifti,
    read_nifti_labels,
    read_volume_raw,
    write_field_raw,
    write_landmarks_csv,
    write_nifti,
    write_nifti_labels,
    write_volume_raw,
)
from .metrics import evaluate_pair
from .pipeline import NumericalAbort, RunConfig, instance_optimize
from .synthetic import (
    AmplitudeError,
    ModalityRemap,
    REMAP_KINDS,
    make_deformation,
    make_phantom,
    render_pair,
)
from .tensor import ConfigError, Tensor3, TensorError
from .transforms import DisplacementField, percent_neg_jac
from .volume import Volume, preprocess

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
# a registered map with more folded voxels (|J| < 0) than this has diverged
FOLD_LIMIT_PCT = 5.0
# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
# OpenBLAS's runtime thread-count setter under the names its builds export
_OPENBLAS_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads")


@functools.cache
def _keep_heap_resident() -> None:
    """Keep the memory freed in this process in its heap, and its second
    core for the trilinear plan's worker half.

    By default glibc gives each large allocation a mapping of its own,
    unmaps it when freed and trims the heap once a few MiB at its top are
    free, so every optimization step faults its arrays in again. After
    this call, allocations up to 32 MiB come from the heap, which is
    trimmed only past 512 MiB free, and every thread allocates from that
    one heap (one arena). OpenBLAS, where numpy's has a runtime setter,
    runs on one thread: otherwise the thread it starts for a product stays
    spinning on a core after it. ``main`` calls it; library calls leave the
    allocator and BLAS alone. Each part does nothing where its library
    cannot be loaded.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        pass
    else:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 512 << 20)
        mallopt(_M_ARENA_MAX, 1)
    try:
        from numpy.linalg import _umath_linalg

        # dlsym on an extension module also searches the libraries it links
        blas = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return
    for name in _OPENBLAS_SETTERS:
        setter = getattr(blas, name, None)
        if setter is not None:
            setter(1)
            return


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        overrides = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise FileNotFoundError(f"config file not found: {path}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(overrides)


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def _read_volume(path: str, modality: str | None = None) -> Volume:
    p = Path(path)
    if p.suffix == ".nii":
        return read_nifti(p, modality)
    return read_volume_raw(p, modality)


def cmd_register(args) -> int:
    config = _load_config(args.config)
    source = preprocess(_read_volume(args.source))
    target = preprocess(_read_volume(args.target))
    out_dir = Path(args.out_dir)
    if out_dir.exists() and not out_dir.is_dir():  # fail before optimizing, not after
        raise NotADirectoryError(f"--out-dir is not a directory: {out_dir}")
    result = instance_optimize(source, target, config.loss, config.optimizer)
    folding = {name: percent_neg_jac(getattr(result, name)) for name in ("phi_ab", "phi_ba")}
    for name, percent in folding.items():
        if percent > FOLD_LIMIT_PCT:
            print(f"numerical abort: %|J|<0 = {percent:.4g} of {name} is above the "
                  f"{FOLD_LIMIT_PCT:g} % limit; no field written", file=sys.stderr)
            return EXIT_NUMERIC
    out_dir.mkdir(parents=True, exist_ok=True)
    write_field_raw(result.phi_ab.u.data, out_dir / "phi_ab", {"direction": "ab"})
    write_field_raw(result.phi_ba.u.data, out_dir / "phi_ba", {"direction": "ba"})
    with open(out_dir / "trace.csv", "w") as f:
        f.write("step,loss\n")
        for step, value in enumerate(result.loss_trace):
            f.write(f"{step},{value:.12g}\n")
    report = {
        "config_hash": config_hash(config.to_dict()),
        "initial_loss": result.loss_trace[0],
        "final_loss": result.loss_trace[-1],
        "steps": config.optimizer.steps,
        "percent_neg_jacobian": folding["phi_ab"],
        "warning": result.warning,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print(f"register: final loss {report['final_loss']:.6g}, "
          f"%|J|<0 = {report['percent_neg_jacobian']:.4g}")
    return EXIT_OK


def cmd_synth(args) -> int:
    dims = (args.dims,) * 3
    phantom = make_phantom(args.seed, dims, n_structures=args.structures)
    amplitude = args.amplitude_voxels / (args.dims - 1)
    try:
        deformation = make_deformation(args.seed + 1, dims, amplitude, n_bumps=args.bumps)
    except AmplitudeError as exc:
        raise ConfigError(
            f"--amplitude-voxels {args.amplitude_voxels:.4g} is not within "
            f"+/-{exc.bound * (args.dims - 1):.4g} voxels, the fold-free bound "
            f"for {args.bumps} bumps at --dims {args.dims}"
        ) from exc
    vol_a, vol_b, truth = render_pair(
        phantom,
        ModalityRemap(args.remap_a),
        ModalityRemap(args.remap_b),
        deformation,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_nifti(vol_a, out_dir / "a.nii")
    write_nifti(vol_b, out_dir / "b.nii")
    write_nifti_labels(truth.labels_a, out_dir / "labels_a.nii")
    write_nifti_labels(truth.labels_b, out_dir / "labels_b.nii")
    write_landmarks_csv(truth.landmarks_a, out_dir / "landmarks_a.csv")
    write_landmarks_csv(truth.landmarks_b, out_dir / "landmarks_b.csv")
    write_field_raw(truth.field.u.data, out_dir / "truth_field", {"direction": "ab"})
    # every synth option but where it writes, dims as the grid's three
    meta = {k: v for k, v in vars(args).items() if k not in ("func", "command", "out_dir")}
    meta["dims"] = list(dims)
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))
    print(f"synth: pair written to {out_dir}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    phi = DisplacementField(Tensor3(read_field_raw(args.field))) if args.field else None
    labels_a = read_nifti_labels(args.labels_a) if args.labels_a else None
    labels_b = read_nifti_labels(args.labels_b) if args.labels_b else None
    landmarks_a = read_landmarks_csv(args.landmarks_a, "a") if args.landmarks_a else None
    landmarks_b = read_landmarks_csv(args.landmarks_b, "b") if args.landmarks_b else None
    geometry = _read_volume(args.reference).geometry if args.reference else None
    # the command line but its output and label: the same inputs hash the same
    invocation = {k: v for k, v in vars(args).items() if k not in ("func", "out", "pair_id")}
    report = evaluate_pair(
        phi,
        labels_a=labels_a,
        labels_b=labels_b,
        landmarks_a=landmarks_a,
        landmarks_b=landmarks_b,
        geometry=geometry,
        pair_id=args.pair_id,
        config_hash=config_hash(invocation),
    )
    Path(args.out).write_text(report.to_json())
    summary = []
    if report.mean_dice is not None:
        summary.append(f"Dice {report.mean_dice:.2f}")
    if report.mtre_mm is not None:
        summary.append(f"mTRE {report.mtre_mm:.4g} mm")
    summary.append(f"%|J|<0 = {report.percent_neg_jacobian:.4g}")
    print("evaluate: " + ", ".join(summary))
    return EXIT_OK


def cmd_preprocess(args) -> int:
    out = preprocess(_read_volume(args.input, args.modality or None))
    out_path = Path(args.output)
    if out_path.suffix == ".nii":
        write_nifti(out, out_path)
    else:  # X and X.raw both write X.raw + X.json; the line names the payload
        out_path = write_volume_raw(out, out_path)
    vals = out.values()
    print(f"preprocess: wrote {out_path} (range [{vals.min():.4g}, {vals.max():.4g}])")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deformreg",
        description="Optimization-based multimodal deformable 3D registration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("register", help="optimize a displacement field for one pair")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--config")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("synth", help="write a phantom pair with ground truth")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--dims", type=int, default=32)
    p.add_argument("--structures", type=int, default=4)
    p.add_argument("--remap-a", choices=REMAP_KINDS, default="identity")
    p.add_argument("--remap-b", choices=REMAP_KINDS, default="invert")
    p.add_argument("--amplitude-voxels", type=float, default=2.0)
    p.add_argument("--bumps", type=int, default=2)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("evaluate", help="score a registration against truth")
    p.add_argument("--field")
    p.add_argument("--labels-a")
    p.add_argument("--labels-b")
    p.add_argument("--landmarks-a")
    p.add_argument("--landmarks-b")
    p.add_argument("--reference", help="volume supplying the mm geometry")
    p.add_argument("--pair-id", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("preprocess", help="apply the intensity normalization rules")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--modality")
    p.set_defaults(func=cmd_preprocess)

    return parser


def main(argv=None) -> int:
    _keep_heap_resident()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, FormatError, UnsupportedError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # an allocation the machine cannot make
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, TensorError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
