"""Differentiable similarity losses: 1-LNCC, 1-LNCC^2, MIND-SSC, MSE.

LNCC is a windowed Pearson correlation computed with separable
count-normalized box filters; its squared variant is agnostic to the
local correlation sign, which is what makes contrast-inverted pairs
registrable. The moving image's correlation map is one tape op
(``"lncc_map"``) with a hand-written vjp that keeps three arrays beyond
its operands. MIND-SSC compares 12-channel self-similarity descriptors
instead of raw intensities; each descriptor is one tape op (``"mind_ssc"``)
with a hand-written vjp, which takes its six shifts as windows of one
edge-padded copy of the image. Both vjps share the box mean's transpose
with ``Tape.box_filter``, and every term's mean of squares is one
``Tape.sum_squares`` node.

Each term compares a moving image with a fixed one. The fixed side is
the fixed image followed by everything the term computes from it alone:
for LNCC and LNCC2 its box mean E[b] and its variance E[b^2] - E[b]^2
plus epsilon; for MIND-SSC its descriptor; for MSE nothing more.
``fixed_side_nodes`` builds it and ``loss_similarity_nodes`` takes it in
place of the fixed image. A symmetric pair loss warps each side's image
and compares it with the other side, so each volume enters a tape once,
and an optimizer whose images never change builds both sides once per
pair and feeds their values to every step as tape inputs. The builder
runs the same ops on the same operands as a term built in one piece, so
the values are bit-identical.

The single epsilon of the package (default 1e-5) sits inside each
variance before the product under the square root, and floors the MIND
normalizer; no other stabilizers exist, so brute-force oracles can
reproduce every value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tape import Node, Tape, TapeError, _box_mean, _box_mean_t
from .tensor import Tensor3, check_number
from .volume import Volume

SIMILARITY_KINDS = ("LNCC", "LNCC2", "MIND_SSC", "MSE")

# The 6 unit-offset neighbors, then the 12 mutually-adjacent (orthogonal)
# neighbor pairs in lexicographic neighbor-index order. This enumeration
# fixes the descriptor channel order.
NEIGHBOR_OFFSETS = (
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
)
SSC_PAIRS = tuple(
    (i, j)
    for i in range(6)
    for j in range(i + 1, 6)
    if sum(a * b for a, b in zip(NEIGHBOR_OFFSETS[i], NEIGHBOR_OFFSETS[j])) == 0
)
assert len(SSC_PAIRS) == 12


class SimilarityError(ValueError):
    """Bad configuration or incompatible inputs."""


@dataclass(frozen=True)
class SimilarityConfig:
    kind: str = "LNCC2"
    window_radius: int = 2
    eps: float = 1e-5
    mind_patch_radius: int = 1

    def __post_init__(self):
        if self.kind not in SIMILARITY_KINDS:
            raise SimilarityError(f"unknown similarity kind {self.kind!r}")
        for name in ("window_radius", "mind_patch_radius"):
            check_number(SimilarityError, name, getattr(self, name), integer=True, at_least=1)
        check_number(SimilarityError, "eps", self.eps, above=0)


def _check_same_dims(a: Node, b: Node):
    if a.value.dims != b.value.dims:
        raise SimilarityError(f"input dims differ: {a.value.dims} vs {b.value.dims}")


def _lncc_fixed_nodes(tape: Tape, b: Node, cfg: SimilarityConfig) -> tuple[Node, Node, Node]:
    """(b, E[b], var_b + eps): the fixed image's share of the LNCC map."""
    r = cfg.window_radius
    eb = tape.box_filter(b, r)
    eb2 = tape.box_filter(tape.square(b), r)
    var_b = tape.sub(eb2, tape.square(eb))
    return b, eb, tape.add_const(var_b, cfg.eps)


def lncc_map_nodes(tape: Tape, a: Node, fixed: tuple, cfg: SimilarityConfig) -> Node:
    """Per-voxel windowed correlation rho = cov / sqrt((var_a+eps)(var_b+eps))
    of ``a`` with the fixed image whose LNCC fixed side is ``fixed``,
    recorded as one tape node.

    The forward runs the float ops of the elementwise graph (box means of
    a, a*b and a*a; cov = E[ab] - E[a]E[b]; var_a = E[a^2] - E[a]^2; eps;
    the product with var_b + eps; sqrt; div) in its order, with the same
    sqrt and div domain guards, so its values equal that graph's bit for
    bit. Beyond its operands, the vjp keeps E[a], cov and the denominator
    (and var_a + eps where the fixed variance needs a gradient).
    """
    b, eb, var_b_eps = fixed
    _check_same_dims(a, b)
    r = cfg.window_radius
    av, bv, ebv, vbv = (node.value.data for node in (a, b, eb, var_b_eps))
    ea, counts = _box_mean(av, r)
    cov = _box_mean(av * bv, r)[0]
    cov -= ea * ebv
    var_a_eps = _box_mean(av * av, r)[0]
    var_a_eps -= ea * ea
    var_a_eps += float(cfg.eps)
    denom = var_a_eps * vbv
    if np.min(denom) <= 0.0:
        raise TapeError("sqrt: non-positive radicand (add an epsilon upstream)")
    np.sqrt(denom, out=denom)
    if np.min(denom) <= 0.0:
        raise TapeError("div: non-positive denominator (add an epsilon upstream)")
    # held only where var_b + eps is to get its share
    var_a_eps = var_a_eps if var_b_eps.needs_grad else None

    def vjp(g):
        # through the division, then the square root: the radicand's adjoint
        g_cov = g / denom
        g_rad = -g * cov / (denom * denom)
        g_rad /= 2.0 * denom
        g_var_b = g_rad * var_a_eps if var_b_eps.needs_grad else None
        g_var_a = g_rad
        g_var_a *= vbv
        g_ea = (2.0 * ea) * -g_var_a
        g_ea += -g_cov * ebv
        # the box means' transposes; a's shares in the order the sweep of
        # the elementwise graph adds them
        g_ab = _box_mean_t(g_cov, counts, r)
        g_a = (2.0 * av) * _box_mean_t(g_var_a, counts, r)
        g_a += g_ab * bv
        g_a += _box_mean_t(g_ea, counts, r)
        return (g_a, g_ab * av if b.needs_grad else None,
                -g_cov * ea if eb.needs_grad else None, g_var_b)

    return tape._append("lncc_map", (a, b, eb, var_b_eps), cov / denom, vjp)


# the window of an edge-padded copy (one voxel per face) that holds the
# edge-clamped shift by each neighbor offset, in NEIGHBOR_OFFSETS order
_WINDOWS = tuple(tuple(slice(1 + o, o - 1 or None) for o in off) for off in NEIGHBOR_OFFSETS)
# _PAIR_SIGNS[n, k] is +1 (-1) where neighbor n is the first (second) of pair k
_PAIR_SIGNS = np.array([[(n == i) - (n == j) for i, j in SSC_PAIRS] for n in range(6)],
                       dtype=np.float64)


def mind_ssc_descriptor_nodes(tape: Tape, a: Node, cfg: SimilarityConfig) -> Node:
    """12-channel self-similarity descriptor, recorded as one tape node.

    For each of the 12 orthogonal neighbor pairs (i, j), the pair distance
    is the patch-mean squared difference between the images shifted by the
    two neighbor offsets (edge-clamped shifts, count-normalized patch
    mean). Channels are exp(-SSD_k / V) with V the per-voxel mean of the
    12 distances, floored at eps.

    Each shift is a window of one copy of the image padded by its edge
    values. The forward works on pair-major (12, nx, ny, nz, C) stacks and
    runs the float ops of the elementwise graph (shift, sub, square, box
    mean, 11 adds, scale by 1/12, floor, div, scale by -1, exp) in its
    order, so its values equal that graph's bit for bit. The vjp keeps the
    pair differences, the distances, V, the floor's pass mask and the
    output; it adds each shift's adjoint into its window of a padded zero
    array and folds each padded face onto the face it copies.
    """
    av, dims = a.value.data, a.value.dims
    need = 2 * (cfg.mind_patch_radius + 1) + 1
    if min(dims) < need:
        raise SimilarityError(
            f"volume dims {dims} too small for patch radius {cfg.mind_patch_radius}"
        )
    padded = np.pad(av, ((1, 1),) * 3 + ((0, 0),), mode="edge")
    diff = np.empty((12,) + av.shape)
    for k, (i, j) in enumerate(SSC_PAIRS):
        np.subtract(padded[_WINDOWS[i]], padded[_WINDOWS[j]], out=diff[k])
    pad_shape, shape = padded.shape, av.shape
    r = cfg.mind_patch_radius
    ssd, counts = _box_mean(diff * diff, r, first=1)
    mean = ssd[0] + ssd[1]
    for k in range(2, 12):
        mean += ssd[k]
    mean *= 1.0 / 12.0
    v, passed = np.maximum(mean, cfg.eps), mean > cfg.eps
    y = ssd / v
    y *= -1.0
    np.exp(y, out=y)
    val = np.moveaxis(y, 0, 3).reshape(*dims, -1)

    def planar(x):
        return np.moveaxis(x.reshape(*dims, 12, -1), 3, 0)

    def vjp(g):
        # twice the adjoint of each SSD_k (the 2 of d(diff^2)/d(diff) taken
        # early): through the numerator of exp(-SSD_k / V) ...
        g_ssd = np.multiply(planar(g), planar(val), out=np.empty_like(ssd))
        g_ssd *= -2.0 / v
        # ... plus the share through V = max(mean, eps), common to all 12
        g_ssd += (np.sum(g_ssd * ssd, axis=0) / v * passed) * (-1.0 / 12.0)
        # the box mean's transpose, then the square's
        g_diff = _box_mean_t(g_ssd, counts, r, first=1)
        g_diff *= diff
        g_shifted = (_PAIR_SIGNS @ g_diff.reshape(12, -1)).reshape((6,) + shape)
        g_padded = np.zeros(pad_shape)
        for g_shift, window in zip(g_shifted, _WINDOWS):
            g_padded[window] += g_shift
        for axis in range(3):
            faces = np.moveaxis(g_padded, axis, 0)
            faces[1] += faces[0]
            faces[-2] += faces[-1]
        return (g_padded[1:-1, 1:-1, 1:-1],)

    return tape._append("mind_ssc", (a,), val, vjp)


def fixed_side_nodes(tape: Tape, fixed: Node, cfg: SimilarityConfig) -> tuple:
    """The fixed side of a ``cfg.kind`` term whose fixed image is ``fixed``:
    ``fixed`` itself, then the nodes ``loss_similarity_nodes`` reads of it
    (see the module doc)."""
    if cfg.kind in ("LNCC", "LNCC2"):
        return _lncc_fixed_nodes(tape, fixed, cfg)
    if cfg.kind == "MSE":
        return (fixed,)
    return fixed, mind_ssc_descriptor_nodes(tape, fixed, cfg)


def loss_similarity_nodes(tape: Tape, a: Node, fixed: tuple, cfg: SimilarityConfig) -> Node:
    """Scalar similarity loss of ``a`` against the fixed image whose fixed
    side (``fixed_side_nodes``) is ``fixed``; >= 0 up to the epsilon slack
    of LNCC."""
    _check_same_dims(a, fixed[0])
    if cfg.kind == "LNCC":
        rho = lncc_map_nodes(tape, a, fixed, cfg)
        return tape.add_const(tape.scale(tape.mean(rho), -1.0), 1.0)
    if cfg.kind == "LNCC2":
        rho = lncc_map_nodes(tape, a, fixed, cfg)
        return tape.add_const(tape.scale(tape.sum_squares(rho, mean=True), -1.0), 1.0)
    if cfg.kind == "MSE":
        return tape.sum_squares(tape.sub(a, fixed[0]), mean=True)
    da = mind_ssc_descriptor_nodes(tape, a, cfg)  # MIND_SSC, the one kind left
    return tape.sum_squares(tape.sub(da, fixed[1]), mean=True)


# -- plain wrappers (fresh throwaway tape, value only) ---------------------------


def _as_tensor(x) -> Tensor3:
    if isinstance(x, Volume):
        return x.grid
    if isinstance(x, Tensor3):
        return x
    return Tensor3(np.asarray(x, dtype=np.float64))


def lncc_map(a, b, cfg: SimilarityConfig = SimilarityConfig()) -> Tensor3:
    tape = Tape()
    fixed = _lncc_fixed_nodes(tape, tape.input(_as_tensor(b)), cfg)
    return lncc_map_nodes(tape, tape.input(_as_tensor(a)), fixed, cfg).value


def loss_similarity(a, b, cfg: SimilarityConfig = SimilarityConfig()) -> float:
    tape = Tape()
    fixed = fixed_side_nodes(tape, tape.input(_as_tensor(b)), cfg)
    return loss_similarity_nodes(tape, tape.input(_as_tensor(a)), fixed, cfg).value.item()


def mind_ssc_descriptor(a, cfg: SimilarityConfig = SimilarityConfig(kind="MIND_SSC")) -> Tensor3:
    tape = Tape()
    return mind_ssc_descriptor_nodes(tape, tape.input(_as_tensor(a)), cfg).value
