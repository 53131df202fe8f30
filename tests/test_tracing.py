"""The benchmark's tracer still sees the program call every traced gate function.

``bench/tracing.py`` wraps functions at the names through which the program
looks them up. The traced benchmark fails when such a name is gone, but not
when the program stops calling it: a caller that imported the function by
name would bypass the wrapper, and its per-layer metrics would read 0. This
test installs the tracer, runs one ``verify`` and one ``identify`` and
requires a call of each gate function.
"""

import importlib.util
from pathlib import Path

from fpverify.store import TemplateStore
from fpverify.synth import SynthConfig, gen_synthetic_minutiae

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
GATE_SPANS = [
    "graph.is_isomorphic",
    "store.best_rotation_alignment",
    "matching.score_point_sets",  # wrapped as store.score_point_sets
    "store.gate_trace",
    "store.compute_signature",
    "cluster.kmeans",
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_and_identify_call_every_traced_gate_function(tmp_path):
    store = TemplateStore(tmp_path / "db")
    fingers = [gen_synthetic_minutiae(SynthConfig(seed=s)) for s in (1, 2, 3)]
    for i, f in enumerate(fingers):
        store.enroll(f, f"f{i}", k=5)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        tracer.active = True
        store.verify(fingers[0], "f0")
        assert store.identify(fingers[1])
    finally:
        tracer.active = False
        tracer.uninstall()
    calls = {span: tracer.calls[span] for span in GATE_SPANS}
    assert all(calls.values()), calls
