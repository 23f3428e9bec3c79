"""The traced benchmark can wrap, and then restore, every name it binds."""

import importlib.util
from pathlib import Path

import deformreg
import deformreg.cli  # noqa: F401  (the tracer wraps names in every layer module)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
