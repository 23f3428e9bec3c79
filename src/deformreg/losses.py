"""Registration objectives: symmetric similarity + inverse-consistency penalty.

The pair loss takes the maps of both directions and assembles

    L = L_sim(A o phi_ab, B) + L_sim(B o phi_ba, A)
        + lam * mean_interior ||grad(phi_ab o phi_ba) - I||_F^2

with the gradient taken by deterministic central differences and the
Frobenius term averaged over interior voxels (so lam is grid-size
independent).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .similarity import SimilarityConfig, loss_similarity_nodes
from .tape import Node, Tape
from .tensor import ConfigError, check_number
from .transforms import DisplacementField, compose_nodes, warp_nodes


@dataclass(frozen=True)
class LossConfig:
    lam: float = 1.5
    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)

    def __post_init__(self):
        check_number(ConfigError, "lambda", self.lam, at_least=0)


def gradient_inverse_consistency_nodes(tape: Tape, u_ab: Node, u_ba: Node) -> Node:
    """Mean squared Frobenius norm of grad(phi_ab o phi_ba) - I over
    interior voxels, where the central differences are taken."""
    return _consistency_of(tape, compose_nodes(tape, u_ab, u_ba))


def _consistency_of(tape: Tape, comp: Node) -> Node:
    """The penalty of the composed displacement ``comp`` on u_ba's grid."""
    dims = comp.value.dims
    if min(dims) < 3:
        raise ConfigError(f"consistency penalty needs a grid >= 3^3, got {dims}")
    # the gradient of the composition's displacement is exactly J - I of
    # the composed map, taken at the interior nodes only
    jac_minus_i = tape.spatial_gradient(comp)
    n_interior = int(np.prod(jac_minus_i.value.dims))
    return tape.scale(tape.sum_squares(jac_minus_i), 1.0 / n_interior)


def gradient_inverse_consistency(phi_ab: DisplacementField, phi_ba: DisplacementField) -> float:
    tape = Tape()
    node = gradient_inverse_consistency_nodes(
        tape, tape.input(phi_ab.u), tape.input(phi_ba.u)
    )
    return node.value.item()


def randomized_loss_nodes(tape: Tape, u_ab: Node, u_ba: Node, side_a: tuple, side_b: tuple,
                          cfg: LossConfig):
    """Assemble the loss on an existing tape; returns (total, terms dict).

    ``side_a`` and ``side_b`` are the images' fixed sides (``fixed_side``),
    each led by its image, which enters the tape once, as the source of its
    own warp. A warped by ``u_ab`` is compared with ``side_b``, B warped by
    ``u_ba`` with ``side_a``. The maps are on the images' grid.
    """
    sim = cfg.similarity
    # B's warp and the penalty's compose u_ab o (x + u_ba) read at the same
    # points, so one plan samples both. It is recorded first, so that the
    # sweep reaches its vjp (both halves) after every term has handed it
    # its adjoint and released what it kept
    u_ab_at, b_warped = tape.trilinear_samples((u_ab, tape.input(side_b[0])), u_ba)
    reg = _consistency_of(tape, tape.add(u_ba, u_ab_at))
    sim_ab = loss_similarity_nodes(tape, warp_nodes(tape, tape.input(side_a[0]), u_ab),
                                   side_b, sim)
    sim_ba = loss_similarity_nodes(tape, b_warped, side_a, sim)
    total = tape.add(tape.add(sim_ab, sim_ba), tape.scale(reg, cfg.lam))
    return total, {"sim_ab": sim_ab, "sim_ba": sim_ba, "reg": reg}
