"""Digests of four short registrations: the bit-identity gate.

A change that claims "no behaviour change" must leave all four digests
as they were. Each digest is the first 16 hex characters of the sha256
of the float64 loss trace, then phi_ab, then phi_ba. Every run registers
the contrast-inverted phantom pair of the acceptance suite (phantom seed
7 with 4 structures, deformation seed 9 with 2 bumps of 2.4 voxels).

A change that reorders float operations changes the digests; for it,
``--save FILE`` stores the four float64 loss traces as JSON (before the
change) and ``--compare FILE`` prints the largest absolute and relative
deviation of each trace from the stored one (after the change).

Run: PYTHONPATH=src python3 tools/trace_digest.py [--save FILE | --compare FILE]
"""

import argparse
import hashlib
import json

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

# (cube side, similarity, optimization steps)
RUNS = ((32, "LNCC2", 6), (32, "MIND_SSC", 4), (21, "LNCC2", 6), (19, "MIND_SSC", 4))


def register(n: int, kind: str, steps: int):
    dims = (n, n, n)
    phantom = make_phantom(7, dims, n_structures=4)
    deformation = make_deformation(9, dims, amplitude=2.4 / (n - 1), n_bumps=2)
    a, b, _ = render_pair(phantom, ModalityRemap(), ModalityRemap("invert"), deformation)
    return instance_optimize(a, b, LossConfig(similarity=SimilarityConfig(kind=kind)),
                             OptimizerConfig(steps=steps))


def digest(result) -> str:
    h = hashlib.sha256(np.asarray(result.loss_trace, dtype=np.float64).tobytes())
    h.update(result.phi_ab.u.data.tobytes())
    h.update(result.phi_ba.u.data.tobytes())
    return h.hexdigest()[:16]


def deviation(trace, stored) -> tuple[float, float]:
    """Largest absolute and largest relative difference of two traces."""
    got, ref = np.asarray(trace), np.asarray(stored)
    if got.shape != ref.shape:
        raise SystemExit(f"trace length {got.size} differs from the stored {ref.size}")
    diff = np.abs(got - ref)
    return float(diff.max()), float(np.max(diff / np.maximum(np.abs(ref), 1e-300)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--save", metavar="FILE", help="store the four loss traces as JSON")
    group.add_argument("--compare", metavar="FILE",
                       help="print each trace's largest deviation from a stored file")
    args = parser.parse_args(argv)
    stored = None
    if args.compare:
        with open(args.compare) as fh:
            stored = json.load(fh)
    traces = {}
    worst_abs = worst_rel = 0.0
    for n, kind, steps in RUNS:
        name = f"{n}^3 {kind} {steps} steps"
        result = register(n, kind, steps)
        traces[name] = result.loss_trace
        line = f"{name}: {digest(result)}"
        if stored is not None:
            dev_abs, dev_rel = deviation(result.loss_trace, stored[name])
            worst_abs, worst_rel = max(worst_abs, dev_abs), max(worst_rel, dev_rel)
            line += f"  trace deviation abs {dev_abs:.3g} rel {dev_rel:.3g}"
        print(line, flush=True)
    if stored is not None:
        print(f"largest trace deviation: abs {worst_abs:.3g} rel {worst_rel:.3g}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(traces, fh, indent=1)


if __name__ == "__main__":
    main()
