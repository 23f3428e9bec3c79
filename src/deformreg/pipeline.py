"""Multi-resolution registration model and per-pair instance optimization.

The model is a three-level sum of displacement parameter grids: a
quarter-resolution grid q, a half-resolution grid h and a full-
resolution grid s, evaluated as

    u = up(q) + up(h) + s

where up interpolates a coarse grid linearly to the full grid's nodes,
as multi-level free-form deformations sum the displacements of their
levels. The stages are optimized per pair and read no images, so the map
depends on the parameters alone, and summing them needs no sample at
warped points. Each direction (A->B, B->A) keeps its own set of grids,
tied only through the inverse-consistency penalty. A fresh (zero) model
is the identity map.

Every evaluation of the loss (each forward and ``loss_breakdown``)
records two tapes in ``_pair_loss``. The pyramid's holds the ``ab``
grids and u_ab. Branch (b)'s holds u_ab's value as a parameter leaf, the
``ba`` grids and u_ba, the plan that samples u_ab and B at x + u_ba, the
penalty and sim_ba; it is swept (leaving the ``ba`` gradients and the
leaf's) or keeps u_ba, and is freed before branch (a), A's warp of u_ab
and sim_ab, extends the pyramid's tape. The leaf's gradient becomes
u_ab's adjoint, and that tape's one sweep from sim_ab adds (a)'s share
to it. So no evaluation holds both similarity terms, and each value and
gradient is bit for bit that of ``losses.randomized_loss_nodes``'s one
tape.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

import numpy as np

from .losses import LossConfig, sim_ab_nodes, sim_ba_and_penalty_nodes
from .similarity import SimilarityConfig, fixed_side
from .tape import Node, Tape, _flat_in_halves
from .tensor import ConfigError, Tensor3, TensorError, check_dims, check_number
from .transforms import DisplacementField
from .volume import Volume

STAGE_COUNT = 3
DIRECTIONS = ("ab", "ba")
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and guard


class NumericalAbort(RuntimeError):
    """The loss left the finite range, or an op's domain guard tripped,
    during optimization."""

    def __init__(self, step: int, reason: str = "non-finite loss"):
        super().__init__(f"{reason} at optimization step {step}")
        self.step = step


def stage_grid_dims(base_dims) -> tuple:
    """Grid dims of the three stages: quarter, half, full (halving rounds up)."""
    half = tuple((n + 1) // 2 for n in base_dims)
    quarter = tuple((n + 1) // 2 for n in half)
    return (quarter, half, tuple(base_dims))


@dataclass
class PyramidModel:
    """Three displacement parameter grids per direction."""

    base_dims: tuple
    params: dict[str, Tensor3] = field(default_factory=dict)

    def param_key(self, direction: str, stage: int) -> str:
        return f"{direction}{stage}"

    def copy(self) -> "PyramidModel":
        return PyramidModel(self.base_dims, dict(self.params))

    def fields(self) -> tuple[DisplacementField, DisplacementField]:
        """Evaluate the current parameters into full-resolution maps."""
        bound = BoundPyramid(Tape(), self)
        return (
            DisplacementField(bound.evaluate("ab").value),
            DisplacementField(bound.evaluate("ba").value),
        )


def build_model(base_dims) -> PyramidModel:
    """Zero-initialized model; evaluating it yields the identity map."""
    base_dims = check_dims(base_dims, "base dims")
    if min(base_dims) < 8:
        raise ConfigError(f"base dims must be >= 8 per axis to quarter, got {base_dims}")
    model = PyramidModel(base_dims)
    for direction in DIRECTIONS:
        for stage, dims in enumerate(stage_grid_dims(base_dims)):
            model.params[model.param_key(direction, stage)] = Tensor3.zeros(dims, channels=3)
    return model


class BoundPyramid:
    """Model parameters evaluated on one tape: a direction's grids enter
    it as parameters (``nodes``, by key) when it first evaluates that
    direction."""

    def __init__(self, tape: Tape, model: PyramidModel):
        self.tape = tape
        self.model = model
        self.nodes: dict[str, Node] = {}

    def evaluate(self, direction: str) -> Node:
        """Full-resolution map u = s + (up(q) + up(h)) of one direction:
        one ``upsample_sum`` node, which applies a fixed interpolation
        matrix per axis to each coarse grid, axis 0 of both grids in one
        stacked matrix product."""
        if direction not in DIRECTIONS:
            raise ConfigError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
        keys = [self.model.param_key(direction, i) for i in range(STAGE_COUNT)]
        for key in keys:
            if key not in self.nodes:
                self.nodes[key] = self.tape.input(self.model.params[key], parameter=True)
        return self.tape.upsample_sum(*(self.nodes[key] for key in keys))


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam settings; the moment rates and guard are module constants.

    ``lr`` is the step of the coarsest stage; ``stage_damping`` multiplies
    it per pyramid stage (coarse to fine): grids have no architectural
    smoothness prior, and without damping the full-resolution stage
    chases local texture before the coarse stages can move, folding the
    map. Flat damping (1, 1, 1) recovers the undamped behavior."""

    steps: int = 50
    lr: float = 2e-3
    stage_damping: tuple = (1.0, 0.3, 0.1)

    def __post_init__(self):
        check_number(ConfigError, "steps", self.steps, integer=True, at_least=0)
        check_number(ConfigError, "lr", self.lr, above=0)
        damping = self.stage_damping
        if not isinstance(damping, (list, tuple)) or len(damping) != STAGE_COUNT:
            raise ConfigError(f"stage_damping needs {STAGE_COUNT} factors, got {damping!r}")
        for factor in damping:
            check_number(ConfigError, "stage_damping factor", factor, at_least=0)
        object.__setattr__(self, "stage_damping", tuple(damping))


def _overlay(defaults: dict, overrides, name: str) -> dict:
    """``defaults`` with each key the JSON object ``overrides`` names replaced."""
    if not isinstance(overrides, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(overrides).__name__}")
    for key, value in overrides.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key: {name}.{key}")
        defaults[key] = (_overlay(defaults[key], value, f"{name}.{key}")
                         if isinstance(defaults[key], dict) else value)
    return defaults


@dataclass(frozen=True)
class RunConfig:
    """The settings a command-line run reads from its JSON config file."""

    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def to_dict(self) -> dict:
        """The JSON shape: what the config file holds and config_hash covers."""
        opt = self.optimizer
        return {"similarity": asdict(self.loss.similarity),
                "loss": {"lambda": self.loss.lam},
                "optimizer": {**asdict(opt), "stage_damping": list(opt.stage_damping)}}

    @classmethod
    def from_dict(cls, overrides) -> "RunConfig":
        """The defaults overlaid with the parsed JSON config ``overrides``."""
        config = _overlay(cls().to_dict(), overrides, "config")
        sim, loss = SimilarityConfig(**config["similarity"]), config["loss"]
        return cls(LossConfig(loss["lambda"], sim),
                   OptimizerConfig(**config["optimizer"]))


@dataclass
class RegistrationResult:
    phi_ab: DisplacementField
    phi_ba: DisplacementField
    loss_trace: list[float]
    warning: str | None = None


class Adam:
    """Standard bias-corrected Adam over a name->array parameter dict,
    with a step size per key. A step whose moments or update leave the
    finite range raises FloatingPointError naming the key; a missing
    gradient or one whose shape is not its parameter's raises ConfigError
    before the step changes anything. The moments are C-contiguous,
    whatever the gradient's layout, so each key's update (``_update``)
    runs over flat slices (``tape._flat_in_halves``)."""

    def __init__(self, step_sizes: dict):
        self.step_sizes = step_sizes
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict[str, Tensor3], grads: dict[str, np.ndarray]) -> dict[str, Tensor3]:
        for key, value in params.items():
            if key not in grads:
                raise ConfigError(f"Adam update of {key}: no gradient")
            if np.shape(grads[key]) != value.shape:
                raise ConfigError(f"Adam update of {key}: gradient shape {np.shape(grads[key])} "
                                  f"differs from the parameter's {value.shape}")
        self.t += 1
        c1, c2 = 1 - BETA1**self.t, 1 - BETA2**self.t
        out = {}
        try:
            with np.errstate(over="raise", invalid="raise"):
                for key, value in params.items():
                    g = np.ascontiguousarray(grads[key])
                    if key not in self.m:
                        self.m[key], self.v[key] = np.zeros(g.shape), np.zeros(g.shape)
                    new = np.empty(g.shape)
                    _flat_in_halves(functools.partial(self._update, self.step_sizes[key], c1, c2),
                                    g, self.m[key], self.v[key], value.data, new)
                    out[key] = Tensor3._wrap(new)
        except (FloatingPointError, TensorError) as exc:
            raise FloatingPointError(f"Adam update of {key}: {exc}") from None
        return out

    @staticmethod
    def _update(lr: float, c1: float, c2: float, g, m, v, x, new) -> None:
        """``m = b1 m + (1 - b1) g``, ``v = b2 v + ((1 - b2) g) g`` in
        place and ``x - (m / c1) lr / (sqrt(v / c2) + eps)`` into ``new``,
        with one temporary."""
        tmp = np.multiply(g, 1 - BETA1)
        m *= BETA1
        m += tmp
        np.multiply(g, 1 - BETA2, out=tmp)
        tmp *= g
        v *= BETA2
        v += tmp
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        np.divide(m, c1, out=new)
        new *= lr
        new /= tmp
        np.subtract(x, new, out=new)


def _check_pair(a: Volume, b: Volume, model: PyramidModel | None = None) -> None:
    """Equal dims, both volumes preprocessed, and ``model`` (if any) built
    for those dims."""
    if a.dims != b.dims:
        raise ConfigError(f"volume dims differ: {a.dims} vs {b.dims}")
    if not (a.preprocessed and b.preprocessed):
        raise ConfigError("pair losses expect preprocessed volumes")
    if model is not None and model.base_dims != a.dims:
        raise ConfigError(f"model built for dims {model.base_dims}, volumes have dims {a.dims}")


def _branch_ba(model: PyramidModel, u_ab: Node, sides: tuple, cfg: LossConfig, sweep: bool):
    """Branch (b)'s tape: its terms, then u_ba's value or, when ``sweep``
    (keeping u_ba would hold a field through it), the gradients of the
    ``ba`` grids and the leaf's (key ``"u_ab"``)."""
    bound = BoundPyramid(Tape(), model)
    leaf = bound.tape.input(u_ab.value, parameter=True)
    u_ba = bound.evaluate("ba")
    sim_ba, reg = sim_ba_and_penalty_nodes(bound.tape, leaf, u_ba, *sides, cfg)
    terms = {"sim_ba": sim_ba.value.item(), "reg": reg.value.item()}
    if not sweep:
        return terms, u_ba.value
    grads = bound.tape.backward(bound.tape.add(sim_ba, bound.tape.scale(reg, cfg.lam)))
    return terms, {"u_ab": grads[leaf.id].data,
                   **{key: grads[node.id].data for key, node in bound.nodes.items()}}


def _pair_loss(model: PyramidModel, sides: tuple, cfg: LossConfig, sweep: bool):
    """The loss of ``model`` on the fixed ``sides`` (A's, B's) on the two
    tapes above: the terms ``total``, ``sim_ab``, ``sim_ba`` and ``reg``
    (unweighted), then the gradient per key when ``sweep``, else both maps."""
    pyramid = BoundPyramid(Tape(), model)
    u_ab = pyramid.evaluate("ab")
    # (b) first: its shared plan's vjp is the step's highest point,
    # which (a)'s share of u_ab's adjoint would otherwise sit beside
    terms, out = _branch_ba(model, u_ab, sides, cfg, sweep)
    sim_ab = sim_ab_nodes(pyramid.tape, u_ab, *sides, cfg)
    terms = {"total": (sim_ab.value.item() + terms["sim_ba"]) + terms["reg"] * cfg.lam,
             "sim_ab": sim_ab.value.item(), **terms}
    if not sweep:
        return terms, (DisplacementField(u_ab.value), DisplacementField(out))
    u_ab.adjoint = out.pop("u_ab")  # (b)'s share, which the sweep adds (a)'s to
    swept = pyramid.tape.backward(sim_ab)
    return terms, {**out, **{key: swept[node.id].data for key, node in pyramid.nodes.items()}}


def loss_breakdown(a: Volume, b: Volume, model: PyramidModel, cfg: LossConfig) -> dict[str, float]:
    """The terms of the pair loss (``total``, ``sim_ab``, ``sim_ba`` and the
    unweighted ``reg``), recorded as a step records them but never swept."""
    _check_pair(a, b, model)
    sides = tuple(fixed_side(v.grid, cfg.similarity) for v in (a, b))
    return _pair_loss(model, sides, cfg, sweep=False)[0]


def instance_optimize(
    ia: Volume,
    ib: Volume,
    loss_cfg: LossConfig | None = None,
    opt_cfg: OptimizerConfig | None = None,
) -> RegistrationResult:
    """Per-pair Adam refinement of all stage parameters, starting from a
    fresh (identity) model.

    The images never move, so each image's fixed side (the image, then
    what its similarity term computes from it alone; see ``fixed_side``)
    is built once, in plain numpy, before the first step. Each image
    enters its branch's tape once, as the source of its warp, so a step's
    tapes record only the work that depends on the parameters.

    The trace holds the loss before each update plus the final value
    (length steps + 1); the maps are those the final forward evaluated.
    Raises NumericalAbort if the loss or an Adam update leaves the finite
    range or an op rejects its input's domain. Deterministic: same inputs
    and config give a bit-identical trace.
    """
    loss_cfg = loss_cfg or LossConfig()
    opt_cfg = opt_cfg or OptimizerConfig()
    _check_pair(ia, ib)
    model = build_model(ia.dims)
    adam = Adam({model.param_key(direction, stage): opt_cfg.lr * opt_cfg.stage_damping[stage]
                 for direction in DIRECTIONS for stage in range(STAGE_COUNT)})
    trace: list[float] = []
    sides = tuple(fixed_side(v.grid, loss_cfg.similarity) for v in (ia, ib))
    for step in range(opt_cfg.steps + 1):
        sweep = step < opt_cfg.steps  # the last forward only records the loss and the maps
        try:
            # overflow here is not a crash: it surfaces as a TensorError or
            # a non-finite loss and becomes a NumericalAbort below
            with np.errstate(over="ignore", invalid="ignore"):
                terms, out = _pair_loss(model, sides, loss_cfg, sweep)
            if not np.isfinite(terms["total"]):
                raise NumericalAbort(step)
            trace.append(terms["total"])
            if sweep:
                model.params = adam.step(model.params, out)
                del out  # the gradients are not kept alive while the next forward records its tape
        except (TensorError, FloatingPointError) as exc:  # overflow or a domain guard
            raise NumericalAbort(step, str(exc)) from exc

    warning = None
    if trace[-1] > trace[0]:
        warning = (
            f"final loss {trace[-1]:.6g} exceeds initial {trace[0]:.6g}; "
            "Adam is not monotone"
        )
    return RegistrationResult(*out, trace, warning)
