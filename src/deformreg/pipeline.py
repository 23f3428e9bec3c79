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
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

import numpy as np

from .losses import LossConfig, randomized_loss_nodes
from .similarity import SimilarityConfig, fixed_side
from .tape import Node, Tape, TapeError, _flat_in_halves
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
    """Model parameters registered on one tape as parameters, ready for
    evaluation."""

    def __init__(self, tape: Tape, model: PyramidModel):
        self.tape = tape
        self.model = model
        self.nodes = {key: tape.input(value, parameter=True)
                      for key, value in model.params.items()}

    def evaluate(self, direction: str) -> Node:
        """Full-resolution map u = s + (up(q) + up(h)) of one direction:
        one ``upsample_sum`` node, which applies a fixed interpolation
        matrix per axis to each coarse grid, axis 0 of both grids in one
        stacked matrix product."""
        if direction not in DIRECTIONS:
            raise ConfigError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
        q, h, s = (self.nodes[self.model.param_key(direction, i)] for i in range(STAGE_COUNT))
        return self.tape.upsample_sum(q, h, s)


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


def loss_breakdown(a: Volume, b: Volume, model: PyramidModel, cfg: LossConfig) -> dict[str, float]:
    """Term-wise evaluation on a throwaway tape (no gradients)."""
    _check_pair(a, b, model)
    tape = Tape()
    bound = BoundPyramid(tape, model)
    side_a, side_b = (fixed_side(v.grid, cfg.similarity) for v in (a, b))
    total, terms = randomized_loss_nodes(tape, bound.evaluate("ab"), bound.evaluate("ba"),
                                         side_a, side_b, cfg)
    return {"total": total.value.item(), **{k: n.value.item() for k, n in terms.items()}}


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
    is built once, in plain numpy, before the first step. Each step's
    tape enters each image once, as the source of its warp, and so records
    only the work that depends on the parameters.

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
    side_a, side_b = (fixed_side(v.grid, loss_cfg.similarity) for v in (ia, ib))

    def forward(final: bool):
        """(loss, the gradient per key), or (loss, both maps) when ``final``."""
        # overflow here is not a crash: it surfaces as a TensorError or a
        # non-finite loss and becomes a NumericalAbort below. The tape is
        # local, so it is freed before the next step builds its own.
        with np.errstate(over="ignore", invalid="ignore"):
            tape = Tape()
            bound = BoundPyramid(tape, model)
            u_ab, u_ba = bound.evaluate("ab"), bound.evaluate("ba")
            total, _ = randomized_loss_nodes(tape, u_ab, u_ba, side_a, side_b, loss_cfg)
            value = total.value.item()
            if final:
                return value, (DisplacementField(u_ab.value), DisplacementField(u_ba.value))
            grads = tape.backward(total)
            return value, {key: grads[node.id].data for key, node in bound.nodes.items()}

    for step in range(opt_cfg.steps + 1):
        final = step == opt_cfg.steps  # the last forward only records the loss and the maps
        try:
            value, out = forward(final)
            if not np.isfinite(value):
                raise NumericalAbort(step)
            trace.append(value)
            if not final:
                model.params = adam.step(model.params, out)
                del out  # the gradients are not kept alive while the next forward records its tape
        except (TensorError, TapeError, FloatingPointError) as exc:  # overflow or a domain guard
            raise NumericalAbort(step, str(exc)) from exc

    phi_ab, phi_ba = out
    warning = None
    if trace[-1] > trace[0]:
        warning = (
            f"final loss {trace[-1]:.6g} exceeds initial {trace[0]:.6g}; "
            "Adam is not monotone"
        )
    return RegistrationResult(phi_ab, phi_ba, trace, warning)
