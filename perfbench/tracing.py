"""Span tracing for the benchmark, installed from outside the program.

A traced run replaces deformreg's public functions with wrappers that
record one span per call: a name, a start, an end and the index of the
span that was open when the call began (its parent). Spans stay in
memory and are written out when the run ends. Nothing in deformreg is
edited: a function imported by name into another module is replaced in
every module namespace that holds it, because that is where the caller
looks it up (``deformreg.cli.instance_optimize`` is the binding the CLI
calls, not ``deformreg.pipeline.instance_optimize``). Tape ops are
replaced on the ``Tape`` class, and each vjp closure the tape records is
wrapped as it is appended, so the reverse sweep is split by op too.

Every wrapper only reads the clock and its arguments' shapes, so a
traced run computes bit-identical results; ``Tracer.uninstall`` puts
every original back and ``assert_clean`` proves it.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

# Layers on the timed path plus the set-up layer, in report order.
LAYERS = ("cli", "fileio", "pipeline", "losses", "similarity", "transforms",
          "tape", "metrics", "synthetic")
# Namespaces searched for bindings: the layers plus the carrier modules
# that import from them.
MODULES = LAYERS + ("volume",)

# Module-level functions wrapped in every namespace that binds them.
FUNCTIONS = {
    "cli": ("main", "cmd_register", "cmd_evaluate", "cmd_synth"),
    "fileio": ("read_nifti", "read_nifti_labels", "read_landmarks_csv",
               "read_field_raw", "write_field_raw", "write_nifti",
               "write_nifti_labels", "write_landmarks_csv"),
    "pipeline": ("instance_optimize",),
    "losses": ("randomized_loss_nodes", "gradient_inverse_consistency_nodes"),
    "similarity": ("loss_similarity_nodes", "lncc_map_nodes",
                   "mind_ssc_descriptor_nodes"),
    "transforms": ("warp_nodes", "compose_nodes", "resample_field_nodes",
                   "approximate_inverse", "percent_neg_jac", "warp", "warp_nearest"),
    "metrics": ("evaluate_pair", "dice", "mtre"),
    "synthetic": ("make_phantom", "make_deformation", "render_pair"),
}

# Methods wrapped on their class.
METHODS = {
    "pipeline": (("Adam", "step"), ("BoundPyramid", "evaluate"),
                 ("PyramidModel", "fields")),
}

ELEMENTWISE_OPS = ("add", "sub", "mul", "div", "scale", "add_const", "square",
                   "sqrt", "exp", "clamp")
OTHER_OPS = ("concat_channels", "sum", "mean", "avg_pool2", "spatial_gradient",
             "shift", "crop_border")
TAPE_OPS = ELEMENTWISE_OPS + OTHER_OPS + ("box_filter", "trilinear_sample")

# Spans under these roots are the measured work; anything else the
# benchmark traces (the identity-map reference evaluation) is excluded.
MEASURED_ROOTS = ("bench.setup", "bench.register", "bench.evaluate")

MARK = "_perfbench_span"


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, level_names: dict | None = None):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        # image dims -> "quarter" / "half" / "full" for trilinear spans
        self.level_names = level_names or {}
        self.trilinear_points: list[int] = []
        self.trilinear_bytes: list[int] = []
        self.backward_nodes: list[int] = []
        self.backward_retained_bytes: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        traced.__wrapped__ = fn
        setattr(traced, MARK, name)
        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self, package):
        """Wrap deformreg's public functions, methods and tape ops."""
        modules = {name: getattr(package, name) for name in MODULES}
        namespaces = list(modules.values()) + [package]
        for layer, func_names in FUNCTIONS.items():
            for func_name in func_names:
                original = getattr(modules[layer], func_name)
                wrapped = self.wrap(original, f"{layer}.{func_name}")
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, attr, wrapped)
        for layer, pairs in METHODS.items():
            for cls_name, method in pairs:
                cls = getattr(modules[layer], cls_name)
                self._patch(cls, method, self.wrap(vars(cls)[method],
                                                   f"{layer}.{cls_name}.{method}"))
        self._install_tape(modules["tape"].Tape)

    def _install_tape(self, tape_cls):
        for op in TAPE_OPS:
            if op == "trilinear_sample":
                continue
            self._patch(tape_cls, op, self.wrap(vars(tape_cls)[op], f"tape.{op}.fwd"))

        sample = vars(tape_cls)["trilinear_sample"]
        tracer = self

        def trilinear_sample(tape, image, coords):
            points = math.prod(coords.value.dims)
            tracer.trilinear_points.append(points)
            # per corner: an int64 index, a float64 weight, C float64 values
            tracer.trilinear_bytes.append(points * 8 * (8 + 8 + 8 * image.value.channels))
            level = tracer.level_names.get(image.value.dims, "other")
            idx = tracer.open(f"tape.trilinear_sample.fwd.{level}")
            try:
                return sample(tape, image, coords)
            finally:
                tracer.close(idx)

        trilinear_sample.__wrapped__ = sample
        setattr(trilinear_sample, MARK, "tape.trilinear_sample.fwd")
        self._patch(tape_cls, "trilinear_sample", trilinear_sample)

        append = vars(tape_cls)["_append"]

        def _append(tape, op, parents, value, vjp):
            if vjp is not None:
                vjp = tracer.wrap(vjp, f"tape.{op}.bwd")
            return append(tape, op, parents, value, vjp)

        _append.__wrapped__ = append
        setattr(_append, MARK, "tape._append")
        self._patch(tape_cls, "_append", _append)

        backward = vars(tape_cls)["backward"]

        def traced_backward(tape, loss):
            tracer.backward_nodes.append(len(tape.nodes))
            tracer.backward_retained_bytes.append(
                sum(node.value.data.nbytes for node in tape.nodes))
            idx = tracer.open("tape.backward")
            try:
                return backward(tape, loss)
            finally:
                tracer.close(idx)

        traced_backward.__wrapped__ = backward
        setattr(traced_backward, MARK, "tape.backward")
        self._patch(tape_cls, "backward", traced_backward)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self) -> dict:
        """Spans as compact rows [name index, start, end, parent]."""
        index: dict[str, int] = {}
        rows = []
        t0 = self.starts[0] if self.starts else 0.0
        for name, start, end, parent in zip(self.names, self.starts, self.ends,
                                            self.parents):
            rows.append([index.setdefault(name, len(index)), start - t0,
                         end - t0, parent])
        return {"names": list(index), "columns": ["name", "start_s", "end_s", "parent"],
                "spans": rows}


def assert_clean(package):
    """Raise if any benchmark wrapper is still bound anywhere in deformreg."""
    namespaces = [package]
    for mod_name in MODULES:
        module = getattr(package, mod_name)
        namespaces += [module] + [v for v in vars(module).values() if isinstance(v, type)]
    left = {f"{ns.__name__}.{attr}" for ns in namespaces
            for attr, value in vars(ns).items() if hasattr(value, MARK)}
    if left:
        raise RuntimeError(f"tracing wrappers left installed: {sorted(left)}")


class SpanTable:
    """Per-name totals, self times and the derived per-layer metrics."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        names, parents = tracer.names, tracer.parents
        n = len(names)
        self.dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
        child = [0.0] * n
        root = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += self.dur[i]
                root[i] = root[p]
            else:
                root[i] = i
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        self.measured = [names[root[i]] in MEASURED_ROOTS for i in range(n)]

    def select(self, pred):
        return [i for i, name in enumerate(self.t.names) if self.measured[i] and pred(name)]

    def outer_total(self, pred) -> tuple[float, int]:
        """Sum of the spans matching ``pred`` that do not nest in another
        matching span, and how many spans matched."""
        names, parents = self.t.names, self.t.parents
        total, count = 0.0, 0
        for i in self.select(pred):
            count += 1
            p = parents[i]
            if p < 0 or not pred(names[p]):
                total += self.dur[i]
        return total, count

    def by_name(self) -> dict:
        """name -> [count, total seconds, self seconds] over measured spans."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i in self.select(lambda _: True):
            row = out[self.t.names[i]]
            row[0] += 1
            row[1] += self.dur[i]
            row[2] += self.self_time[i]
        return dict(out)

    def self_by_layer(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for i in self.select(lambda name: name.split(".", 1)[0] in out):
            out[self.t.names[i].split(".", 1)[0]] += self.self_time[i]
        return out

    def loss_terms(self) -> tuple[list, list]:
        """Durations of the first and second similarity call made directly
        by each randomized_loss_nodes span (sim_ab, then sim_ba)."""
        names, parents = self.t.names, self.t.parents
        children = defaultdict(list)
        for i in self.select(lambda name: name == "similarity.loss_similarity_nodes"):
            p = parents[i]
            if p >= 0 and names[p] == "losses.randomized_loss_nodes":
                children[p].append(i)
        ab = [self.dur[c[0]] for c in children.values()]
        ba = [self.dur[c[1]] for c in children.values() if len(c) > 1]
        return ab, ba

    def step_durations(self) -> list[float]:
        """Wall time of each optimization step, from the end of one
        Adam.step to the end of the next (the first step starts with
        instance_optimize)."""
        names, parents = self.t.names, self.t.parents
        last_end: dict[int, float] = {}
        steps = []
        for i in self.select(lambda name: name == "pipeline.Adam.step"):
            p = parents[i]
            if p < 0 or names[p] != "pipeline.instance_optimize":
                continue
            start = last_end.get(p, self.t.starts[p])
            steps.append(self.t.ends[i] - start)
            last_end[p] = self.t.ends[i]
        return steps


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile q in [0, 100]."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of no samples")
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def per_layer_metrics(table: SpanTable) -> tuple[dict, dict]:
    """The per-layer metrics of BENCHMARK.json: name -> (value, unit), and
    name -> sample count."""
    t = table.t
    m: dict[str, tuple] = {}
    n: dict[str, int] = {}

    def put(name, value_count, unit):
        value, count = value_count
        m[name] = (value, unit)
        n[name] = count

    def op_is(ops, phase):
        return lambda name: (name.startswith("tape.") and name.count(".") >= 2
                             and name.split(".")[1] in ops
                             and name.split(".")[2] == phase)

    tri_fwd = op_is(("trilinear_sample",), "fwd")
    total, calls = table.outer_total(tri_fwd)
    put("tape.trilinear_sample.fwd_s", (total, calls), "s")
    for level in ("quarter", "half", "full"):
        put(f"tape.trilinear_sample.fwd_s.{level}",
            table.outer_total(lambda name, lv=level: name == f"tape.trilinear_sample.fwd.{lv}"),
            "s")
    put("tape.trilinear_sample.bwd_s", table.outer_total(op_is(("trilinear_sample",), "bwd")), "s")
    put("tape.trilinear_sample.calls", (calls, calls), "count")
    put("tape.trilinear_sample.points", (sum(t.trilinear_points), len(t.trilinear_points)),
        "count")
    put("tape.trilinear_sample.bytes_computed",
        (sum(t.trilinear_bytes), len(t.trilinear_bytes)), "B")
    put("tape.backward_s", table.outer_total(lambda name: name == "tape.backward"), "s")
    box_total, box_calls = table.outer_total(op_is(("box_filter",), "fwd"))
    put("tape.box_filter.fwd_s", (box_total, box_calls), "s")
    put("tape.box_filter.bwd_s", table.outer_total(op_is(("box_filter",), "bwd")), "s")
    put("tape.box_filter.calls", (box_calls, box_calls), "count")
    put("tape.elementwise.fwd_s", table.outer_total(op_is(ELEMENTWISE_OPS, "fwd")), "s")
    put("tape.elementwise.bwd_s", table.outer_total(op_is(ELEMENTWISE_OPS, "bwd")), "s")
    put("tape.other.fwd_s", table.outer_total(op_is(OTHER_OPS, "fwd")), "s")
    put("tape.other.bwd_s", table.outer_total(op_is(OTHER_OPS, "bwd")), "s")
    for op in ("shift", "exp"):
        count = table.outer_total(op_is((op,), "fwd"))[1]
        put(f"tape.{op}.calls", (count, count), "count")
    put("tape.nodes", (statistics.median(t.backward_nodes), len(t.backward_nodes)), "count")
    put("tape.retained_mb",
        (statistics.median(t.backward_retained_bytes) / 2**20, len(t.backward_retained_bytes)),
        "MB")

    for func in ("warp_nodes", "compose_nodes", "resample_field_nodes"):
        count = table.outer_total(lambda name, f=func: name == f"transforms.{f}")[1]
        put(f"transforms.{func}.calls", (count, count), "count")
    put("transforms.approximate_inverse_s",
        table.outer_total(lambda name: name == "transforms.approximate_inverse"), "s")

    ab, ba = table.loss_terms()
    put("losses.sim_ab_s", (sum(ab), len(ab)), "s")
    put("losses.sim_ba_s", (sum(ba), len(ba)), "s")
    put("losses.consistency_s",
        table.outer_total(lambda name: name == "losses.gradient_inverse_consistency_nodes"), "s")

    put("similarity.map_s", table.outer_total(
        lambda name: name in ("similarity.lncc_map_nodes",
                              "similarity.mind_ssc_descriptor_nodes")), "s")
    for func in ("lncc_map_nodes", "mind_ssc_descriptor_nodes"):
        count = table.outer_total(lambda name, f=func: name == f"similarity.{f}")[1]
        put(f"similarity.{func}.calls", (count, count), "count")

    put("pipeline.evaluate_s",
        table.outer_total(lambda name: name == "pipeline.BoundPyramid.evaluate"), "s")
    put("pipeline.adam_s", table.outer_total(lambda name: name == "pipeline.Adam.step"), "s")
    steps = table.step_durations()
    put("pipeline.step_s.p50", (percentile(steps, 50), len(steps)), "s")
    put("pipeline.step_s.p90", (percentile(steps, 90), len(steps)), "s")

    put("synthetic.make_phantom_s",
        table.outer_total(lambda name: name == "synthetic.make_phantom"), "s")
    put("synthetic.render_pair_s",
        table.outer_total(lambda name: name == "synthetic.render_pair"), "s")

    put("fileio.read_nifti_s", table.outer_total(
        lambda name: name in ("fileio.read_nifti", "fileio.read_nifti_labels")), "s")
    put("fileio.write_nifti_s", table.outer_total(
        lambda name: name in ("fileio.write_nifti", "fileio.write_nifti_labels")), "s")
    put("fileio.field_raw_s", table.outer_total(
        lambda name: name in ("fileio.read_field_raw", "fileio.write_field_raw")), "s")
    put("metrics.evaluate_pair_s",
        table.outer_total(lambda name: name == "metrics.evaluate_pair"), "s")

    for layer, seconds in table.self_by_layer().items():
        count = len(table.select(lambda name, ly=layer: name.split(".", 1)[0] == ly))
        put(f"self_s.{layer}", (seconds, count), "s")
    put("trace.spans", (len(t.names), len(t.names)), "count")
    return m, n
