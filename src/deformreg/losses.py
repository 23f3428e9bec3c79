"""Registration objectives: symmetric similarity + inverse-consistency penalty.

The pair loss takes the maps of both directions and assembles

    L = L_sim(A o phi_ab, B) + L_sim(B o phi_ba, A)
        + lam * mean_interior ||grad(phi_ab o phi_ba) - I||_F^2

with the gradient taken by deterministic central differences and the
Frobenius term averaged over interior voxels (so lam is grid-size
independent). The penalty is one tape op (``"consistency"``) that keeps
the composed displacement alone; its gradient is bitwise that of
``spatial_gradient`` -> ``sum_squares`` -> ``scale``, its value summed by axis.

The loss is two branches that meet only in the total and in u_ab's
adjoint: (a) A warped by u_ab and sim_ab (``sim_ab_nodes``), and (b) one
plan sampling u_ab and B at x + u_ba, the penalty and sim_ba
(``sim_ba_and_penalty_nodes``). Every evaluation, ``loss_breakdown``
included, records each on a tape of its own (``pipeline._pair_loss``);
``randomized_loss_nodes`` records both on one, the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .similarity import SimilarityConfig, loss_similarity_nodes
from .tape import Node, Tape, _central_stencils
from .tensor import ConfigError, Tensor3, check_number
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
    """The penalty of the composed displacement ``comp`` on u_ba's grid, as
    one tape node (op ``"consistency"``) whose one parent is ``comp``.

    The spatial gradient of ``comp`` is J - I of the composed map at its
    interior nodes. Forward and vjp form one axis's differences at a time
    (``difference``) and keep only ``comp``'s value. The value adds each
    axis's ``np.sum`` of squares and scales once by one over the interior
    count. The gradient is bitwise that of the module's three-node chain.
    """
    cv, dims = comp.value.data, comp.value.dims
    if min(dims) < 3:
        raise ConfigError(f"consistency penalty needs a grid >= 3^3, got {dims}")

    def difference(up, down, step):  # a fresh (cv[up] - cv[down]) / step
        d = np.subtract(cv[up], cv[down])
        d /= step
        return d

    value, k = 0.0, 1.0 / math.prod(n - 2 for n in dims)
    for stencil in _central_stencils(cv.shape):
        d = difference(*stencil)
        value += float(np.sum(np.multiply(d, d, out=d)))
        del d  # before the next axis's differences
    value *= k

    def vjp(g):
        back, twice_g = np.zeros(cv.shape), 2.0 * (g.reshape(()) * k)
        for up, down, step in _central_stencils(cv.shape):
            d = difference(up, down, step)
            d *= twice_g
            d /= step
            back[up] += d
            back[down] -= d
        return (back,)

    return tape._append("consistency", (comp,), Tensor3.scalar(value), vjp)


def gradient_inverse_consistency(phi_ab: DisplacementField, phi_ba: DisplacementField) -> float:
    tape = Tape()
    node = gradient_inverse_consistency_nodes(tape, tape.input(phi_ab.u), tape.input(phi_ba.u))
    return node.value.item()


def sim_ab_nodes(tape: Tape, u_ab: Node, side_a: tuple, side_b: tuple, cfg: LossConfig) -> Node:
    """Branch (a) of the loss: A, which enters the tape as the source of
    its warp, warped by ``u_ab`` and compared with ``side_b``."""
    return loss_similarity_nodes(tape, warp_nodes(tape, tape.input(side_a[0]), u_ab),
                                 side_b, cfg.similarity)


def sim_ba_and_penalty_nodes(tape: Tape, u_ab: Node, u_ba: Node, side_a: tuple, side_b: tuple,
                             cfg: LossConfig) -> tuple[Node, Node]:
    """Branch (b) of the loss: (sim_ba, the unweighted penalty). B warped
    by ``u_ba`` is compared with ``side_a``, and B's warp and the penalty's
    compose u_ab o (x + u_ba) read at the same points, so one plan samples
    both. It is recorded first, so that the sweep reaches its vjp (both
    halves) after both terms have handed it their adjoints and released
    what they kept."""
    u_ab_at, b_warped = tape.trilinear_samples((u_ab, tape.input(side_b[0])), u_ba)
    reg = _consistency_of(tape, tape.add(u_ba, u_ab_at))
    return loss_similarity_nodes(tape, b_warped, side_a, cfg.similarity), reg


def randomized_loss_nodes(tape: Tape, u_ab: Node, u_ba: Node, side_a: tuple, side_b: tuple,
                          cfg: LossConfig):
    """Assemble the loss on an existing tape; returns (total, terms dict).

    ``side_a`` and ``side_b`` are the images' fixed sides (``fixed_side``),
    each led by its image. Both branches go on the one tape, (a) and then
    (b), and the total is (sim_ab + sim_ba) + lam * reg. The maps are on
    the images' grid. The package never calls it: ``pipeline._pair_loss``
    records each branch on a tape of its own, and the tests hold that to
    this tape's values and gradients bit for bit.
    """
    sim_ab = sim_ab_nodes(tape, u_ab, side_a, side_b, cfg)
    sim_ba, reg = sim_ba_and_penalty_nodes(tape, u_ab, u_ba, side_a, side_b, cfg)
    total = tape.add(tape.add(sim_ab, sim_ba), tape.scale(reg, cfg.lam))
    return total, {"sim_ab": sim_ab, "sim_ba": sim_ba, "reg": reg}
