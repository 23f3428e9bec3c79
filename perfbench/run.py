"""Registration benchmark: phantom pairs through ``deformreg register``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload reg32_lncc2 --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: the benchmark writes a seeded set
of phantom pairs as NIfTI files (``deformreg synth``), then for each pair
in turn calls ``deformreg register`` and ``deformreg evaluate`` through
``deformreg.cli.main`` and checks what they produced. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``. Per-pair rows,
sample counts and digests go to ``.perfbench/`` in the checkout.

See perfbench/README.md for the workloads and what each metric should
move.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import SpanTable, Tracer, assert_clean, per_layer_metrics

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# %|J|<0 above this fails a pair (the acceptance suite's folding bound)
FOLD_LIMIT_PCT = 0.5
MIN_PAIRS = 2


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    dims: int
    kind: str
    steps: int
    # nominal register + evaluate seconds of one pair on the reference
    # machine: sizes the run so that one seed always yields the same pairs
    pair_seconds: float
    structures: int = 4
    # per-bump displacement of the A3 set-up; kept in voxels at 64^3 too,
    # where the same normalized displacement leaves some pairs outside
    # what 6 steps can recover (mTRE barely below identity)
    amplitude_voxels: float = 2.4

    def pairs(self, seconds: float) -> int:
        return max(MIN_PAIRS, round(seconds / self.pair_seconds))

    def config(self) -> dict:
        return {"similarity": {"kind": self.kind}, "optimizer": {"steps": self.steps}}

    def levels(self) -> dict:
        full = (self.dims,) * 3
        half = tuple((n + 1) // 2 for n in full)
        quarter = tuple((n + 1) // 2 for n in half)
        return {full: "full", half: "half", quarter: "quarter"}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reg32_lncc2", dims=32, kind="LNCC2", steps=10, pair_seconds=2.6),
        Workload("reg32_mind", dims=32, kind="MIND_SSC", steps=10, pair_seconds=4.2),
        Workload("reg64_lncc2", dims=64, kind="LNCC2", steps=6, pair_seconds=13.5),
    )
}


def import_deformreg():
    """Import deformreg from this checkout's src/ and nowhere else."""
    if not (SRC / "deformreg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no deformreg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import deformreg
    import deformreg.cli

    if not Path(deformreg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: deformreg imported from {deformreg.__file__}, not {SRC}")
    return deformreg


def digest(result) -> str:
    """Digest of the float64 loss trace and both fields of a registration."""
    h = hashlib.sha256()
    h.update(repr([float(v) for v in result.loss_trace]).encode())
    for phi in (result.phi_ab, result.phi_ba):
        h.update(str(phi.u.data.shape).encode())
        h.update(phi.u.data.tobytes())
    return h.hexdigest()[:32]


class Session:
    """One benchmark run: the pair files, the calls and the checks."""

    def __init__(self, deformreg, workload: Workload, seed: int, workdir: Path,
                 tracer=None):
        self.dr = deformreg
        self.cli = deformreg.cli
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(workload.config()))

    @contextlib.contextmanager
    def span(self, name):
        if self.tracer is None:
            yield
            return
        idx = self.tracer.open(name)
        try:
            yield
        finally:
            self.tracer.close(idx)

    def call(self, argv) -> tuple[int, str]:
        """deformreg.cli.main with its output captured; a traceback is a
        failure of the pair, not of the benchmark."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = self.cli.main(argv)
            except Exception:  # noqa: BLE001 - a crash is a failed registration
                traceback.print_exc()
                code = -1
        return code, out.getvalue()

    def pair_dir(self, k: int) -> Path:
        return self.workdir / f"pair{k:03d}"

    def setup_pair(self, k: int) -> float:
        d = self.pair_dir(k)
        t0 = time.perf_counter()
        with self.span("bench.setup"):
            code, log = self.call([
                "synth", "--out-dir", str(d), "--seed", str(1000 * self.seed + 2 * k),
                "--dims", str(self.w.dims), "--structures", str(self.w.structures),
                "--remap-a", "identity", "--remap-b", "invert",
                "--amplitude-voxels", repr(self.w.amplitude_voxels),
            ])
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"set-up of pair {k} failed ({code}): {log}")
        return elapsed

    def truth_args(self, k: int) -> list[str]:
        d = self.pair_dir(k)
        return ["--labels-a", str(d / "labels_a.nii"), "--labels-b", str(d / "labels_b.nii"),
                "--landmarks-a", str(d / "landmarks_a.csv"),
                "--landmarks-b", str(d / "landmarks_b.csv"),
                "--reference", str(d / "a.nii"), "--pair-id", f"pair{k:03d}"]

    def register_pair(self, k: int) -> dict:
        d = self.pair_dir(k)
        reg = d / "reg"
        captured = []
        original = self.cli.instance_optimize

        def capture(*args, **kwargs):
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            captured.append((result, time.perf_counter() - t0))
            return result

        self.cli.instance_optimize = capture
        try:
            t0 = time.perf_counter()
            with self.span("bench.register"):
                reg_code, reg_log = self.call([
                    "register", "--source", str(d / "a.nii"), "--target", str(d / "b.nii"),
                    "--config", str(self.config_path), "--out-dir", str(reg)])
            with self.span("bench.evaluate"):
                eval_code, eval_log = self.call([
                    "evaluate", "--field", str(reg / "phi_ab"), *self.truth_args(k),
                    "--out", str(d / "eval.json")])
            register_s = time.perf_counter() - t0
        finally:
            self.cli.instance_optimize = original
        with self.span("bench.identity"):
            id_code, id_log = self.call([
                "evaluate", *self.truth_args(k), "--out", str(d / "identity.json")])
        row = {"pair": k, "register_s": register_s, "failures": []}
        for what, code, log in (("register", reg_code, reg_log),
                                ("evaluate", eval_code, eval_log),
                                ("identity evaluate", id_code, id_log)):
            if code != 0:
                row["failures"].append(f"{what} exited {code}: {log.strip()[-400:]}")
        if row["failures"]:
            return row
        self.check(row, d, captured)
        return row

    def check(self, row: dict, d: Path, captured: list):
        """Output checks; each failed check marks the pair as failed."""
        fail = row["failures"].append
        if len(captured) != 1:
            fail(f"expected one instance_optimize call, saw {len(captured)}")
            return
        result, optimize_s = captured[0]
        report = json.loads((d / "reg" / "report.json").read_text())
        ev = json.loads((d / "eval.json").read_text())
        ident = json.loads((d / "identity.json").read_text())
        trace = np.asarray(result.loss_trace, dtype=np.float64)
        det = self.dr.transforms.jacobian_det_map(result.phi_ab).data
        row.update(
            optimize_s=optimize_s,
            step_s=optimize_s / len(trace),
            digest=digest(result),
            mtre_mm=ev["mtre_mm"],
            mtre_identity_mm=ident["mtre_mm"],
            mtre_ratio=ev["mtre_mm"] / ident["mtre_mm"],
            dice_mean=ev["mean_dice"],
            fold_pct=ev["percent_neg_jacobian"],
            jac_det_min=float(det.min()),
        )
        if len(trace) != self.w.steps + 1:
            fail(f"loss trace has {len(trace)} entries, expected {self.w.steps + 1}")
        if not np.all(np.isfinite(trace)):
            fail("loss trace is not finite")
        for phi in (result.phi_ab, result.phi_ba):
            if not np.all(np.isfinite(phi.u.data)):
                fail("field is not finite")
        written = self.dr.fileio.read_field_raw(str(d / "reg" / "phi_ab"))
        if not np.array_equal(written, result.phi_ab.u.data.astype(np.float32)):
            fail("phi_ab on disk differs from the returned field")
        if report.get("warning"):
            fail(f"report warning: {report['warning']}")
        if not ev["mtre_mm"] < ident["mtre_mm"]:
            fail(f"mTRE {ev['mtre_mm']:.4g} mm not below identity {ident['mtre_mm']:.4g} mm")
        if not ev["percent_neg_jacobian"] <= FOLD_LIMIT_PCT:
            fail(f"%|J|<0 = {ev['percent_neg_jacobian']:.4g} above {FOLD_LIMIT_PCT}")


def median_count(values) -> tuple[float, int]:
    return statistics.median(values), len(values)


def end_to_end_metrics(rows: list[dict], setup_times: list[float]) -> tuple[dict, dict]:
    ok = [r for r in rows if not r["failures"]]
    values = {
        "setup_s": (median_count(setup_times), "s"),
        "register_s": (median_count([r["register_s"] for r in rows]), "s"),
        "step_s": (median_count([r["step_s"] for r in ok]), "s"),
        "peak_rss_mb": ((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1), "MB"),
        "dice_mean": ((statistics.fmean(r["dice_mean"] for r in ok), len(ok)), "%"),
    }
    metrics = {k: (v[0][0], v[1]) for k, v in values.items()}
    samples = {k: v[0][1] for k, v in values.items()}
    return metrics, samples


def quality(rows: list[dict]) -> dict:
    """Registration quality over the pairs that passed, for the record:
    too seed-dependent at two pairs a run to serve as bounded metrics."""
    ok = [r for r in rows if not r["failures"]]
    if not ok:
        return {}
    return {"mtre_ratio_mean": statistics.fmean(r["mtre_ratio"] for r in ok),
            "jac_det_min_mean": statistics.fmean(r["jac_det_min"] for r in ok),
            "fold_pct_max": max(r["fold_pct"] for r in ok)}


def run(deformreg, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up and register the workload's pairs; return the full record."""
    n_pairs = workload.pairs(seconds)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{seed}-{int(trace)}-{time.time_ns()}"
    workdir.mkdir()
    try:
        record = {"workload": dataclasses.asdict(workload), "seed": seed,
                  "seconds": seconds, "trace": int(trace), "pairs": n_pairs}
        checks = []
        tracer = None
        reference = None
        if trace:
            # untraced registration of pair 0 first: the traced one must
            # reproduce its digest, and the two step times give the overhead
            session = Session(deformreg, workload, seed, workdir)
            session.setup_pair(0)
            reference = session.register_pair(0)
            tracer = Tracer(workload.levels())
            tracer.install(deformreg)
        session = Session(deformreg, workload, seed, workdir, tracer)
        setup_times, rows = [], []
        try:
            for k in range(n_pairs):
                setup_times.append(session.setup_pair(k))
                rows.append(session.register_pair(k))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if trace:
            assert_clean(deformreg)
            rows_all = [reference] + rows
        else:
            rows_all = rows
        failed = sum(1 for r in rows_all if r["failures"])
        if trace and not reference["failures"] and not rows[0]["failures"]:
            if reference["digest"] != rows[0]["digest"]:
                checks.append("traced registration of pair 0 differs from the untraced one")
        if any(not r["failures"] for r in rows):
            metrics_e2e, samples_e2e = end_to_end_metrics(rows, setup_times)
        else:
            metrics_e2e, samples_e2e = {}, {}
        record.update(rows=rows_all, setup_s=setup_times, failed=failed,
                      attempted=len(rows_all), end_to_end=metrics_e2e,
                      end_to_end_samples=samples_e2e, quality=quality(rows),
                      digests=[r.get("digest") for r in rows])
        if trace and failed == 0:
            table = SpanTable(tracer)
            layer, samples = per_layer_metrics(table)
            layer["trace.overhead_s"] = (metrics_e2e["step_s"][0] - reference["step_s"], "s")
            samples["trace.overhead_s"] = samples_e2e["step_s"]
            record.update(per_layer=layer, per_layer_samples=samples,
                          spans_by_name=table.by_name())
            spans_path = OUT / f"{workload.name}-seed{seed}-spans.json"
            spans_path.write_text(json.dumps(tracer.dump()))
            record["spans_file"] = spans_path.name
        checks.extend(compare_with_other_mode(record))
        record["checks"] = checks
        record["correct"] = failed == 0 and not checks
        (OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1))
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def compare_with_other_mode(record: dict) -> list[str]:
    """When the other trace mode already ran this workload and seed here,
    its digests must match: tracing may not change a result."""
    other = OUT / (f"{record['workload']['name']}-seed{record['seed']}"
                   f"-trace{1 - record['trace']}.json")
    if not other.is_file():
        return []
    previous = json.loads(other.read_text())
    if previous.get("workload") != record["workload"]:
        return []
    n = min(len(previous.get("digests", [])), len(record["digests"]))
    if previous["digests"][:n] != record["digests"][:n]:
        return [f"digests differ from the trace={1 - record['trace']} run of this seed"]
    return []


def declared_metrics() -> dict:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def result_line(record: dict) -> dict:
    key = "per_layer" if record["trace"] else "end_to_end"
    metrics = record.get(key, {})
    declared = declared_metrics()[key]
    correct = record["correct"]
    if set(metrics) != set(declared):
        correct = False
    return {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def summary(record: dict) -> str:
    key = "per_layer" if record["trace"] else "end_to_end"
    samples = record.get(f"{key}_samples", {})
    lines = [f"# {record['workload']['name']} seed {record['seed']} trace {record['trace']}: "
             f"{record['attempted']} registrations, {record['failed']} failed"]
    for row in record["rows"]:
        if row["failures"]:
            lines.append(f"#   pair {row['pair']}: FAILED {'; '.join(row['failures'])}")
        else:
            lines.append(
                f"#   pair {row['pair']}: register {row['register_s']:.3f} s, "
                f"step {row['step_s']:.4f} s, mTRE {row['mtre_mm']:.3f}/"
                f"{row['mtre_identity_mm']:.3f} mm, Dice {row['dice_mean']:.2f} %, "
                f"%|J|<0 {row['fold_pct']:.4g}, digest {row['digest'][:12]}")
    for name, value in record["quality"].items():
        lines.append(f"#   {name} = {value:.6g}")
    for check in record["checks"]:
        lines.append(f"#   CHECK FAILED: {check}")
    for name, (value, unit) in record.get(key, {}).items():
        lines.append(f"#   {name} = {value:.6g} {unit} (n={samples.get(name)})")
    return "\n".join(lines)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None, workloads=WORKLOADS) -> int:
    args = parse_args(argv, workloads)
    if not BENCHMARK_JSON.is_file():
        print(f"perfbench: {BENCHMARK_JSON} is missing", file=sys.stderr)
        return 2
    deformreg = import_deformreg()
    record = run(deformreg, workloads[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    print(summary(record))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
