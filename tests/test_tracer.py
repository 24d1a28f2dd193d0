"""The benchmark tracer in ``perfbench/tracer.py`` wraps qball layers by
name.  A renamed or deleted layer would silently read 0 in its metrics, so
every name it wraps must still resolve."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_finds_every_layer_it_wraps():
    spec = importlib.util.spec_from_file_location("qball_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer().install()
    try:
        assert t.missing == []
    finally:
        t.uninstall()
