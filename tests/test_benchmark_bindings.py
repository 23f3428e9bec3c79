"""The traced benchmark can wrap, and then restore, every name it binds,
and its smoke test passes against the current package."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import deformreg
import deformreg.cli  # noqa: F401  (the tracer wraps names in every layer module)

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_cleanly():
    # a KeyError or AttributeError here names a function, method or tape op
    # that perfbench/tracing.py wraps but deformreg no longer defines
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install(deformreg)
    finally:
        tracer.uninstall()
    tracing.assert_clean(deformreg)


def test_benchmark_smoke_test_passes():
    # runs every workload at 16^3 for 2 steps, traced and untraced, through
    # the command line, so it catches a changed option or signature that the
    # names alone do not; it removes its own output folders
    proc = subprocess.run([sys.executable, "perfbench/smoke_test.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
