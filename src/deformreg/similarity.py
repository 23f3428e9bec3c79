"""Differentiable similarity losses: 1-LNCC, 1-LNCC^2, MIND-SSC, MSE.

LNCC is a windowed Pearson correlation computed with separable
count-normalized box filters; its squared variant is agnostic to the
local correlation sign, which is what makes contrast-inverted pairs
registrable. The moving image's correlation map is one tape op
(``"lncc_map"``) with a hand-written vjp that keeps three arrays beyond
its operand. MIND-SSC compares 12-channel self-similarity descriptors
instead of raw intensities. A MIND_SSC term, mean((D(a) - D_fixed)^2), is
one tape op (``"mind_ssc_loss"``) that keeps no descriptor: its vjp forms
D(a) again. It shares one forward and one backward with the descriptor op
(``"mind_ssc"``, unused in the package like the ops ``tape`` lists), which
take the six shifts as windows of one edge-padded copy of the image. Every
box mean runs ``tape._box_mean``, which owns its normalization, and the
LNCC, LNCC2 and MSE terms reduce with ``Tape.mean`` or ``Tape.sum_squares``.

Each term compares a moving image with a fixed one, and its gradient
reaches the map only through the moving image. The fixed side is data:
the fixed image followed by everything the term computes from it alone,
for LNCC and LNCC2 its moments E[b] and E[b^2] - E[b]^2 + epsilon
(``_moments``, which the map runs on the moving image too), for MIND-SSC
its descriptor, for MSE nothing more. ``fixed_side`` builds it in plain
numpy, records no tape for any kind, and returns read-only tensors that
``loss_similarity_nodes`` takes in place of the fixed image. A symmetric
pair loss warps each side's image and compares it with the other side,
and an optimizer whose images never change builds both sides once per
pair. The builder runs the float ops a tape graph of the same formulas
would, so the values are bit-identical to a term built in one piece.

The single epsilon of the package (default 1e-5) sits inside each
variance before the product under the square root, and floors the MIND
normalizer; no other stabilizers exist, so brute-force oracles can
reproduce every value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tape import Node, Tape, TapeError, _box_mean, _box_mean_t
from .tensor import ConfigError, Tensor3, check_number
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


@dataclass(frozen=True)
class SimilarityConfig:
    kind: str = "LNCC2"
    window_radius: int = 2
    eps: float = 1e-5
    mind_patch_radius: int = 1

    def __post_init__(self):
        if self.kind not in SIMILARITY_KINDS:
            raise ConfigError(f"unknown similarity kind {self.kind!r}")
        for name in ("window_radius", "mind_patch_radius"):
            check_number(ConfigError, name, getattr(self, name), integer=True, at_least=1)
        check_number(ConfigError, "eps", self.eps, above=0)


def _check_same_dims(a: Tensor3, b: Tensor3):
    if a.dims != b.dims:
        raise ConfigError(f"input dims differ: {a.dims} vs {b.dims}")


def _moments(x: np.ndarray, cfg: SimilarityConfig) -> tuple:
    """E[x] and var_x + eps = E[x^2] - E[x]^2 + eps over each window of
    ``x``: both LNCC sides' share of the map, in the graph's float ops."""
    r = cfg.window_radius
    ex = _box_mean(x.copy(), r)  # a box mean consumes its buffer; x is read-only
    var_eps = _box_mean(x * x, r)
    var_eps -= ex * ex
    var_eps += float(cfg.eps)
    return ex, var_eps


def lncc_map_nodes(tape: Tape, a: Node, fixed: tuple, cfg: SimilarityConfig) -> Node:
    """Per-voxel windowed correlation rho = cov / sqrt((var_a+eps)(var_b+eps))
    of ``a`` with the fixed image whose LNCC fixed side is ``fixed``,
    recorded as one tape node whose one parent is ``a``.

    The forward runs the float ops of the elementwise graph (``_moments``;
    cov = E[ab] - E[a]E[b]; the product with var_b + eps; sqrt; div), so
    its values equal that graph's bit for bit, with sqrt's domain guard
    (a positive radicand leaves div nothing to reject). The fixed side's
    arrays are closure constants; beyond ``a``, the vjp keeps E[a], cov and
    the denominator.
    """
    _check_same_dims(a.value, fixed[0])
    r = cfg.window_radius
    av = a.value.data
    bv, ebv, vbv = (t.data for t in fixed)
    ea, denom = _moments(av, cfg)  # var_a + eps, then times var_b + eps
    cov = _box_mean(av * bv, r)
    cov -= ea * ebv
    denom *= vbv
    if np.min(denom) <= 0.0:
        raise TapeError("sqrt: non-positive radicand (add an epsilon upstream)")
    np.sqrt(denom, out=denom)

    def vjp(g):
        # through the division, then the square root, to var_a's adjoint
        g_cov = g / denom
        g_var_a = -g * cov / (denom * denom)
        g_var_a /= 2.0 * denom
        g_var_a *= vbv
        g_ea = (2.0 * ea) * -g_var_a
        g_ea += -g_cov * ebv
        # the box means' transposes in the elementwise graph's sweep order;
        # each consumes its adjoint, whose spatial axes precede the last
        g_a = (2.0 * av) * _box_mean_t(g_var_a, r)
        g_a += _box_mean_t(g_cov, r) * bv
        g_a += _box_mean_t(g_ea, r)
        return (g_a,)

    return tape._append("lncc_map", (a,), cov / denom, vjp)


# the window of an edge-padded copy (one voxel per face) that holds the
# edge-clamped shift by each neighbor offset, in NEIGHBOR_OFFSETS order
_WINDOWS = tuple(tuple(slice(1 + o, o - 1 or None) for o in off) for off in NEIGHBOR_OFFSETS)
# _PAIR_SIGNS[n, k] is +1 (-1) where neighbor n is the first (second) of pair k
_PAIR_SIGNS = np.array([[(n == i) - (n == j) for i, j in SSC_PAIRS] for n in range(6)],
                       dtype=np.float64)


def _mind_ssc(av: np.ndarray, cfg: SimilarityConfig):
    """The work both MIND ops share, for the (*dims, C) image ``av``. The
    forward keeps the edge-padded copy (each shift is a window of it), the
    12 distances, V and the floor's pass mask, and runs the elementwise
    graph's float ops in its order. It returns two closures:
    ``descriptors(minus)``, D or D - ``minus`` (pair-major) formed pair by
    pair, in the (*dims, 12 C) layout (a view for one channel), and
    ``backward(adjoint)``, the image's adjoint given ``adjoint(k, d)``,
    which multiplies d = D_k in place by its adjoint. ``backward`` forms D
    and the pair differences again and runs once, as a sweep does: it
    writes each distance's adjoint over that distance, takes the box mean's
    transpose half a stack (6 planes) at a time and drops the stack once
    the shifts' adjoints are formed, so it holds one 12-plane stack and
    half of another at most (the forward's box mean holds two).
    """
    dims = av.shape[:3]
    need = 2 * (cfg.mind_patch_radius + 1) + 1
    if min(dims) < need:
        raise ConfigError(
            f"volume dims {dims} too small for patch radius {cfg.mind_patch_radius}"
        )
    padded = np.pad(av, ((1, 1),) * 3 + ((0, 0),), mode="edge")
    pad_shape, shape = padded.shape, av.shape
    r = cfg.mind_patch_radius

    def pair_difference(k, out):
        i, j = SSC_PAIRS[k]
        return np.subtract(padded[_WINDOWS[i]], padded[_WINDOWS[j]], out=out)

    sq = np.empty((12,) + shape)
    for k in range(12):
        pair_difference(k, sq[k])
    sq *= sq
    ssd = _box_mean(sq, r)
    del sq
    mean = np.sum(ssd, axis=0)
    mean *= 1.0 / 12.0
    v, passed = np.maximum(mean, cfg.eps), mean > cfg.eps

    def descriptor(k, out):
        np.divide(ssd[k], v, out=out)
        out *= -1.0
        return np.exp(out, out=out)

    def descriptors(minus=None):
        out = np.empty((12,) + shape)
        for k in range(12):
            descriptor(k, out[k])
            if minus is not None:
                out[k] -= minus[k]
        return np.moveaxis(out, 0, 3).reshape(*dims, -1)

    def backward(adjoint):
        nonlocal ssd
        # twice the adjoint of each SSD_k (the 2 of d(diff^2)/d(diff) taken
        # early): through the numerator of exp(-SSD_k / V) ...
        m, plane = -2.0 / v, np.empty(shape)
        for k in range(12):
            adjoint(k, descriptor(k, plane))
            plane *= m
            # ... plus the share through V = max(mean, eps), common to all
            # 12, summed plane by plane as np.sum(..., axis=0) sums; once the
            # share has read a distance, its adjoint is written over it
            if k:
                ssd[k] *= plane
                share += ssd[k]
            else:
                share = ssd[0] * plane
            ssd[k] = plane
        share /= v
        share *= passed
        share *= -1.0 / 12.0
        g, ssd = ssd, None
        g += share
        del share, plane
        # the box mean's transpose, half a stack at a time (it consumes the
        # half it is given and returns a half-size stack), then the square's
        for half in (slice(0, 6), slice(6, 12)):
            g[half] = _box_mean_t(g[half], r)
        diff = np.empty(shape)
        for k in range(12):
            g[k] *= pair_difference(k, diff)
        g_shifted = (_PAIR_SIGNS @ g.reshape(12, -1)).reshape((6,) + shape)
        del g, diff
        # each shift's adjoint goes into its window of a padded zero array,
        # and each padded face folds onto the face it copies
        g_padded = np.zeros(pad_shape)
        for g_shift, window in zip(g_shifted, _WINDOWS):
            g_padded[window] += g_shift
        for axis in range(3):
            faces = np.moveaxis(g_padded, axis, 0)
            faces[1] += faces[0]
            faces[-2] += faces[-1]
        return g_padded[1:-1, 1:-1, 1:-1]

    return descriptors, backward


def mind_ssc_descriptor_nodes(tape: Tape, a: Node, cfg: SimilarityConfig) -> Node:
    """12-channel self-similarity descriptor, recorded as one tape node
    (op ``"mind_ssc"``); no caller in the package records it.

    For each of the 12 orthogonal neighbor pairs (i, j), the pair distance
    is the patch-mean squared difference between the images shifted by the
    two neighbor offsets (edge-clamped shifts, count-normalized patch
    mean). Channels are exp(-SSD_k / V) with V the per-voxel mean of the
    12 distances, floored at eps. The values equal the elementwise graph's
    bit for bit; the vjp keeps what ``_mind_ssc`` keeps.
    """
    descriptors, backward = _mind_ssc(a.value.data, cfg)
    dims = a.value.dims

    def vjp(g):
        g_pairs = np.moveaxis(g.reshape(*dims, 12, -1), 3, 0)
        return (backward(lambda k, d: np.multiply(d, g_pairs[k], out=d)),)

    return tape._append("mind_ssc", (a,), descriptors(), vjp)


def mind_ssc_loss_nodes(tape: Tape, a: Node, fixed_descriptor: Tensor3,
                        cfg: SimilarityConfig) -> Node:
    """The MIND_SSC term mean((D(a) - D_fixed)^2) as one tape node (op
    ``"mind_ssc_loss"``) whose one parent is ``a``: the value and gradient
    of ``sum_squares(D, mean=True, minus=fixed_descriptor)`` on the
    descriptor node D, bit for bit (the sum runs in D's layout). It keeps
    what the descriptor op keeps, and neither D nor its 12-channel adjoint:
    the vjp forms D again and multiplies each pair by (D - D_fixed) * 2g / n
    with the two nodes' float ops before the descriptor's backward.
    """
    shape = a.value.shape
    expect = shape[:3] + (12 * shape[3],)
    if fixed_descriptor.shape != expect:
        raise ConfigError(f"fixed descriptor shape {fixed_descriptor.shape} is not {expect}")
    descriptors, backward = _mind_ssc(a.value.data, cfg)
    fixed = np.moveaxis(fixed_descriptor.data.reshape(*shape[:3], 12, -1), 3, 0)
    x = descriptors(minus=fixed)
    n = x.size
    val = Tensor3.scalar(float(np.sum(np.multiply(x, x, out=x))) / n)

    def vjp(g):
        scale, plane = 2.0 * g.reshape(()) / n, np.empty(shape)

        def adjoint(k, d):
            g_d = np.subtract(d, fixed[k], out=plane)
            g_d *= scale
            return np.multiply(d, g_d, out=d)

        return (backward(adjoint),)

    return tape._append("mind_ssc_loss", (a,), val, vjp)


def _lncc_side(b: Tensor3, cfg: SimilarityConfig) -> tuple:
    """(b, E[b], var_b + eps): the fixed image's share of the LNCC map."""
    return (b, *(Tensor3._wrap(m) for m in _moments(b.data, cfg)))


def fixed_side(image: Tensor3, cfg: SimilarityConfig) -> tuple:
    """The fixed side of a ``cfg.kind`` term whose fixed image is ``image``:
    ``image`` itself, then the read-only tensors ``loss_similarity_nodes``
    reads of it (see the module doc). Records no tape for any kind."""
    if cfg.kind in ("LNCC", "LNCC2"):
        return _lncc_side(image, cfg)
    if cfg.kind == "MSE":
        return (image,)
    return image, mind_ssc_descriptor(image, cfg)


def loss_similarity_nodes(tape: Tape, a: Node, fixed: tuple, cfg: SimilarityConfig) -> Node:
    """Scalar similarity loss of ``a`` against the fixed image whose fixed
    side (``fixed_side``) is ``fixed``; >= 0 up to the epsilon slack of
    LNCC. Only ``a`` carries a gradient."""
    _check_same_dims(a.value, fixed[0])
    if cfg.kind == "LNCC":
        rho = lncc_map_nodes(tape, a, fixed, cfg)
        return tape.add_const(tape.scale(tape.mean(rho), -1.0), 1.0)
    if cfg.kind == "LNCC2":
        rho = lncc_map_nodes(tape, a, fixed, cfg)
        return tape.add_const(tape.scale(tape.sum_squares(rho, mean=True), -1.0), 1.0)
    if cfg.kind == "MSE":
        return tape.sum_squares(a, mean=True, minus=fixed[0])
    return mind_ssc_loss_nodes(tape, a, fixed[1], cfg)  # MIND_SSC, the one kind left


# -- plain wrappers (fresh throwaway tape, value only) ---------------------------


def _as_tensor(x) -> Tensor3:
    if isinstance(x, Volume):
        return x.grid
    if isinstance(x, Tensor3):
        return x
    return Tensor3(np.asarray(x, dtype=np.float64))


def lncc_map(a, b, cfg: SimilarityConfig = SimilarityConfig()) -> Tensor3:
    tape = Tape()
    fixed = _lncc_side(_as_tensor(b), cfg)
    return lncc_map_nodes(tape, tape.input(_as_tensor(a)), fixed, cfg).value


def loss_similarity(a, b, cfg: SimilarityConfig = SimilarityConfig()) -> float:
    tape = Tape()
    fixed = fixed_side(_as_tensor(b), cfg)
    return loss_similarity_nodes(tape, tape.input(_as_tensor(a)), fixed, cfg).value.item()


def mind_ssc_descriptor(a, cfg: SimilarityConfig = SimilarityConfig(kind="MIND_SSC")) -> Tensor3:
    """``mind_ssc_descriptor_nodes``' values by ``_mind_ssc``'s forward alone, with no tape."""
    return Tensor3._wrap(_mind_ssc(_as_tensor(a).data, cfg)[0]())
