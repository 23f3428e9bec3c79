"""Digests of six short registrations: the bit-identity gate.

A change that claims "no behaviour change" must leave all six digests
as they were. Each digest is the first 16 hex characters of the sha256
of the float64 loss trace, then phi_ab, then phi_ba. Every run registers
the contrast-inverted phantom pair of the acceptance suite (phantom seed
7 with 4 structures, deformation seed 9 with 2 bumps of 2.4 voxels).

A change that reorders float operations changes the digests; for it,
``--save FILE`` stores each run's float64 loss trace, phi_ab and phi_ba
as a NumPy .npz archive (before the change), and ``--compare FILE``
prints the largest absolute and relative deviation of each trace, and
the largest absolute deviation of each field, from the stored ones
(after the change).

``--memory`` also prints, after each digest, the tracemalloc peak of a
two-step registration of the same pair (the fixed sides, two steps and
the final forward; the pair is rendered before tracing starts). Adam's
moments exist from the first update on, so the second step is the first
steady-state one. Beside the peak it names the tape op in whose forward
or vjp the peak was reached (``peak_site``, a second two-step run). Both
run apart from the digest's registration, so the digests do not change.
With ``--save`` it also stores each peak; with ``--compare`` it prints
each peak beside the stored one (or says that the file stores none).

Run: PYTHONPATH=src python3 tools/trace_digest.py [--save FILE | --compare FILE] [--memory]
"""

import argparse
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np

from deformreg import (
    LossConfig,
    ModalityRemap,
    OptimizerConfig,
    SimilarityConfig,
    instance_optimize,
    make_deformation,
    make_phantom,
    render_pair,
)
from deformreg.tape import Tape

# (cube side, similarity, optimization steps)
RUNS = ((32, "LNCC2", 6), (32, "MIND_SSC", 4), (21, "LNCC2", 6), (19, "MIND_SSC", 4),
        (21, "LNCC", 6), (21, "MSE", 6))


def run_name(n: int, kind: str, steps: int) -> str:
    return f"{n}^3 {kind} {steps} steps"


def pair(n: int):
    dims = (n, n, n)
    phantom = make_phantom(7, dims, n_structures=4)
    deformation = make_deformation(9, dims, amplitude=2.4 / (n - 1), n_bumps=2)
    a, b, _ = render_pair(phantom, ModalityRemap(), ModalityRemap("invert"), deformation)
    return a, b


def register(a, b, kind: str, steps: int):
    return instance_optimize(a, b, LossConfig(similarity=SimilarityConfig(kind=kind)),
                             OptimizerConfig(steps=steps))


def step_peak_mb(a, b, kind: str) -> float:
    """The tracemalloc peak of a two-step registration of ``a`` and ``b``."""
    tracemalloc.start()
    try:
        register(a, b, kind, 2)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def peak_site(a, b, kind: str) -> str:
    """Where ``step_peak_mb``'s peak is reached: ``"<op> forward"`` or
    ``"<op> vjp"``, found in a run of its own.

    For that run only, ``Tape._append`` and each vjp it records are
    wrapped (from outside the package, as ``perfbench/tracing.py`` does).
    At each tape event (an op recorded, a vjp's start or end) the peak of
    the stretch that ends there is read and reset, and the run's highest
    stretch names the site. A stretch that ends where an op is recorded is
    that op's forward, code outside any op included; the one inside a vjp
    is that vjp, and so is the sweep's sum of its contributions after it.
    The wrappers' own few kilobytes can move this run's peak, so the
    printed peak comes from ``step_peak_mb``'s unwrapped run.
    """
    best = [0, "no op"]
    after = [None]  # the open stretch's name once a vjp has returned

    def mark(site):
        peak = tracemalloc.get_traced_memory()[1]
        if peak > best[0]:
            best[:] = peak, site
        tracemalloc.reset_peak()

    def traced_vjp(op, vjp):
        def run(g):
            mark(after[0] or f"{op} vjp")
            try:
                return vjp(g)
            finally:
                mark(f"{op} vjp")
                after[0] = f"{op} vjp"
        return run

    append = vars(Tape)["_append"]

    def traced_append(tape, op, parents, value, vjp):
        mark(f"{op} forward")
        after[0] = None
        return append(tape, op, parents, value, vjp and traced_vjp(op, vjp))

    Tape._append = traced_append
    tracemalloc.start()
    try:
        register(a, b, kind, 2)
        mark(after[0] or "no op")
        return best[1]
    finally:
        tracemalloc.stop()
        Tape._append = append


def outputs(result) -> dict[str, np.ndarray]:
    """The arrays a digest covers, in its order."""
    return {"trace": np.asarray(result.loss_trace, dtype=np.float64),
            "phi_ab": result.phi_ab.u.data, "phi_ba": result.phi_ba.u.data}


def digest(result) -> str:
    h = hashlib.sha256()
    for array in outputs(result).values():
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def deviation(trace, stored) -> tuple[float, float]:
    """Largest absolute and largest relative difference of two traces."""
    got, ref = np.asarray(trace), np.asarray(stored)
    if got.shape != ref.shape:
        raise SystemExit(f"trace length {got.size} differs from the stored {ref.size}")
    diff = np.abs(got - ref)
    return float(diff.max()), float(np.max(diff / np.maximum(np.abs(ref), 1e-300)))


def field_deviation(field, stored) -> float:
    """Largest absolute difference of two fields."""
    if field.shape != stored.shape:
        raise SystemExit(f"field shape {field.shape} differs from the stored {stored.shape}")
    return float(np.max(np.abs(field - stored)))


def describe(dev: dict) -> str:
    return (f"trace abs {dev['trace abs']:.3g} rel {dev['trace rel']:.3g}, "
            f"phi_ab abs {dev['phi_ab']:.3g}, phi_ba abs {dev['phi_ba']:.3g}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--save", metavar="FILE",
                       help="store the six loss traces and fields (and, with --memory, "
                            "the two-step peaks) as a .npz archive")
    group.add_argument("--compare", metavar="FILE",
                       help="print each trace's and field's largest deviation from a stored "
                            "file (and, with --memory, each stored peak)")
    parser.add_argument("--memory", action="store_true",
                        help="print each run's tracemalloc peak for two steps after its digest")
    args = parser.parse_args(argv)
    # a --save path in no directory fails here, not after the six registrations
    if args.save and not Path(args.save).parent.is_dir():
        raise SystemExit(f"{args.save}: no such directory to save the archive in")
    stored = np.load(args.compare) if args.compare else None
    if stored is not None:
        for name in (run_name(*run) for run in RUNS):
            for key in ("trace", "phi_ab", "phi_ba"):
                if f"{name} {key}" not in stored.files:
                    raise SystemExit(f"{args.compare}: no '{name} {key}' array in the archive")
    saved = {}
    worst = dict.fromkeys(("trace abs", "trace rel", "phi_ab", "phi_ba"), 0.0)
    for n, kind, steps in RUNS:
        name = run_name(n, kind, steps)
        a, b = pair(n)
        result = register(a, b, kind, steps)
        arrays = outputs(result)
        saved.update({f"{name} {key}": array for key, array in arrays.items()})
        line = f"{name}: {digest(result)}"
        if stored is not None:
            dev = dict(zip(("trace abs", "trace rel"),
                           deviation(arrays["trace"], stored[f"{name} trace"])))
            for key in ("phi_ab", "phi_ba"):
                dev[key] = field_deviation(arrays[key], stored[f"{name} {key}"])
            worst = {key: max(worst[key], dev[key]) for key in worst}
            line += f"  deviation {describe(dev)}"
        if args.memory:
            peak = step_peak_mb(a, b, kind)
            saved[f"{name} peak"] = np.float64(peak)
            line += f"  two-step peak {peak:.2f} MB in {peak_site(a, b, kind)}"
            if stored is not None:
                line += (f" (stored {float(stored[f'{name} peak']):.2f} MB)"
                         if f"{name} peak" in stored.files else " (none stored)")
        print(line, flush=True)
    if stored is not None:
        print(f"largest deviation: {describe(worst)}")
    if args.save:
        # a file object, so that numpy does not append .npz to the name
        with open(args.save, "wb") as fh:
            np.savez(fh, **saved)


if __name__ == "__main__":
    main()
