"""Digests of four short registrations: the bit-identity gate.

A change that claims "no behaviour change" must leave all four digests
as they were. Each digest is the first 16 hex characters of the sha256
of the float64 loss trace, then phi_ab, then phi_ba. Every run registers
the contrast-inverted phantom pair of the acceptance suite (phantom seed
7 with 4 structures, deformation seed 9 with 2 bumps of 2.4 voxels).

Run: PYTHONPATH=src python3 tools/trace_digest.py
"""

import hashlib

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


def digest(n: int, kind: str, steps: int) -> str:
    dims = (n, n, n)
    phantom = make_phantom(7, dims, n_structures=4)
    deformation = make_deformation(9, dims, amplitude=2.4 / (n - 1), n_bumps=2)
    a, b, _ = render_pair(phantom, ModalityRemap(), ModalityRemap("invert"), deformation)
    result = instance_optimize(a, b, LossConfig(similarity=SimilarityConfig(kind=kind)),
                               OptimizerConfig(steps=steps))
    h = hashlib.sha256(np.asarray(result.loss_trace, dtype=np.float64).tobytes())
    h.update(result.phi_ab.u.data.tobytes())
    h.update(result.phi_ba.u.data.tobytes())
    return h.hexdigest()[:16]


if __name__ == "__main__":
    for n, kind, steps in RUNS:
        print(f"{n}^3 {kind} {steps} steps: {digest(n, kind, steps)}", flush=True)
