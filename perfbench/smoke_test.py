"""Smoke test of the benchmark itself, at a tiny size with very few steps.

    python3 perfbench/smoke_test.py

Runs every workload's code path (16^3 pairs, 2 steps) with tracing off
and on, and checks that:

- BENCHMARK.json keeps to its format;
- every printed metric is declared in BENCHMARK.json, carries the
  declared unit, and every declared metric is printed;
- the result line has exactly correct/attempted/failed/metrics and the
  outputs pass the benchmark's own checks;
- the traced run reproduces the untraced digests and leaves no wrapper
  installed;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = {name: dataclasses.replace(w, dims=16, steps=2, pair_seconds=1e9)
        for name, w in run.WORKLOADS.items()}
SEED = 3


def check_spec(spec: dict):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["better"] in ("lower", "higher"), m
        assert UNIT.match(m["unit"]), m
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names)), "names must be unique"
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run_once(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                         "--trace", str(trace)], workloads=TINY)
    assert code == 0, code
    line = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int)
    return line


def check_metrics(line: dict, declared: dict):
    printed = line["metrics"]
    assert set(printed) == set(declared), (
        f"undeclared: {sorted(set(printed) - set(declared))}, "
        f"missing: {sorted(set(declared) - set(printed))}")
    for name, entry in printed.items():
        assert set(entry) == {"value", "unit"}, (name, entry)
        assert entry["unit"] == declared[name], (name, entry["unit"], declared[name])
        assert isinstance(entry["value"], (int, float)), (name, entry)


def check_bare_directory():
    """Without the sources the benchmark must fail cleanly."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.BENCHMARK_JSON, bare / "BENCHMARK.json")
    for f in Path(__file__).resolve().parent.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench" / f.name)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "reg32_lncc2", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert "correct" not in proc.stdout, proc.stdout


def main() -> int:
    spec = json.loads(run.BENCHMARK_JSON.read_text())
    check_spec(spec)
    declared = run.declared_metrics()
    run.OUT = run.OUT / "smoke"
    shutil.rmtree(run.OUT, ignore_errors=True)
    for workload in TINY:
        lines = {trace: run_once(workload, trace) for trace in (0, 1)}
        check_metrics(lines[0], declared["end_to_end"])
        check_metrics(lines[1], declared["per_layer"])
        for trace, line in lines.items():
            assert line["correct"] and line["failed"] == 0, (workload, trace, line)
        records = {trace: json.loads(
            (run.OUT / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
            for trace in (0, 1)}
        assert records[0]["digests"] == records[1]["digests"], workload
        assert records[1]["rows"][0]["digest"] == records[1]["rows"][1]["digest"], workload
        print(f"ok {workload}: {len(lines[0]['metrics'])} end-to-end and "
              f"{len(lines[1]['metrics'])} per-layer metrics, digests equal")
    shutil.rmtree(run.OUT, ignore_errors=True)
    run.OUT = run.OUT.parent
    check_bare_directory()
    print("ok bare directory: exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
