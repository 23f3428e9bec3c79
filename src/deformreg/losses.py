"""Registration objectives: symmetric similarity + inverse-consistency penalty.

The pair loss evaluates a model in both directions and assembles

    L = L_sim(A o phi_ab, B) + L_sim(B o phi_ba, A)
        + lam * mean_interior ||grad(phi_ab o phi_ba) - I||_F^2

with the gradient taken by deterministic central differences and the
Frobenius term averaged over interior voxels (so lam is grid-size
independent).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .similarity import SimilarityConfig, fixed_side_nodes, loss_similarity_nodes
from .tape import Node, Tape
from .tensor import check_number
from .transforms import DisplacementField, compose_nodes, warp_nodes
from .volume import Volume


class LossError(ValueError):
    """Bad loss configuration or incompatible inputs."""


@dataclass(frozen=True)
class LossConfig:
    lam: float = 1.5
    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)

    def __post_init__(self):
        check_number(LossError, "lambda", self.lam, at_least=0)


def gradient_inverse_consistency_nodes(tape: Tape, u_ab: Node, u_ba: Node) -> Node:
    """Mean squared Frobenius norm of grad(phi_ab o phi_ba) - I over
    interior voxels (central differences; boundary slices excluded)."""
    dims = u_ba.value.dims
    if min(dims) < 3:
        raise LossError(f"consistency penalty needs a grid >= 3^3, got {dims}")
    comp = compose_nodes(tape, u_ab, u_ba)
    # displacement of the composition is exactly J - I of the composed map
    jac_minus_i = tape.spatial_gradient(comp)
    interior = tape.crop_border(jac_minus_i, 1)
    n_interior = int(np.prod([d - 2 for d in dims]))
    return tape.scale(tape.sum(tape.square(interior)), 1.0 / n_interior)


def gradient_inverse_consistency(phi_ab: DisplacementField, phi_ba: DisplacementField) -> float:
    tape = Tape()
    node = gradient_inverse_consistency_nodes(
        tape, tape.input(phi_ab.u), tape.input(phi_ba.u)
    )
    return node.value.item()


def _check_pair(a: Volume, b: Volume):
    if a.dims != b.dims:
        raise LossError(f"volume dims differ: {b.dims} vs {a.dims}")
    if not (a.preprocessed and b.preprocessed):
        raise LossError("pair losses expect preprocessed volumes")


def randomized_loss_nodes(
    tape: Tape,
    bound_model,
    loss_a: Node,
    loss_b: Node,
    fixed_a: tuple,
    fixed_b: tuple,
    cfg: LossConfig,
):
    """Assemble the loss on an existing tape; returns (total, terms dict).

    Evaluates the bound model's maps in both directions and compares each
    warped image of the loss pair with the other image's fixed side
    (``fixed_side_nodes``): ``fixed_b`` for A warped to B, ``fixed_a`` for
    B warped to A. The model must be built for the loss pair's dims.
    """
    bound_model.model.check_dims(loss_a.value.dims)
    u_ab = bound_model.evaluate("ab")
    u_ba = bound_model.evaluate("ba")
    sim_ab = loss_similarity_nodes(tape, warp_nodes(tape, loss_a, u_ab), fixed_b, cfg.similarity)
    sim_ba = loss_similarity_nodes(tape, warp_nodes(tape, loss_b, u_ba), fixed_a, cfg.similarity)
    total = tape.add(sim_ab, sim_ba)
    reg = gradient_inverse_consistency_nodes(tape, u_ab, u_ba)
    total = tape.add(total, tape.scale(reg, cfg.lam))
    return total, {"sim_ab": sim_ab, "sim_ba": sim_ba, "reg": reg}


def loss_breakdown(a: Volume, b: Volume, model, cfg: LossConfig) -> dict[str, float]:
    """Term-wise evaluation on a throwaway tape (no gradients)."""
    _check_pair(a, b)
    tape = Tape()
    bound = model.bind(tape)
    na, nb = tape.input(a.grid), tape.input(b.grid)
    fixed_a, fixed_b = (fixed_side_nodes(tape, n, cfg.similarity) for n in (na, nb))
    total, terms = randomized_loss_nodes(tape, bound, na, nb, fixed_a, fixed_b, cfg)
    return {"total": total.value.item(), **{k: n.value.item() for k, n in terms.items()}}
