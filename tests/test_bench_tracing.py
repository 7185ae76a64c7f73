"""The benchmark's tracer binds cpsim functions by name; a rename or a
deletion under src/ that breaks it fails here, not only in a bench run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_bench_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        restored = tracer.uninstall()
    assert restored
