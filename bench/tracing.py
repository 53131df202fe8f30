"""Per-layer tracing for the traced run.

The tracer replaces public functions of ``fpverify`` modules with timing
wrappers, at the names through which the program (or the benchmark) looks
them up, and puts the originals back afterwards. ``src/`` itself carries no
tracing code. Wrappers record only while ``active`` is set, which the
workloads do around their timed operations, so the benchmark's own output
checks never enter the figures.

A function that no longer exists under its name is skipped, and the metrics
that need it are reported as missing rather than failing the run.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter_ns

import fpverify.core
import fpverify.graph
import fpverify.orientation
import fpverify.som
import fpverify.store

_store = fpverify.store
_TS = fpverify.store.TemplateStore

# span name -> the (owner, attribute) that is wrapped to time it: the name
# through which the program, or the benchmark, calls the function.
SITES = {
    "core.parse": (fpverify.core, "parse_minutiae"),
    "cluster.kmeans": (_store, "kmeans_fing"),
    "graph.dist_matrix": (_store, "dist_matrix"),
    "graph.build_nn_graph": (_store, "build_nn_graph"),
    "graph.compute_index": (_store, "compute_index"),
    "graph.index_string": (_store, "index_string"),
    "graph.is_isomorphic": (fpverify.graph, "is_isomorphic"),
    "graph.bucket": (_TS, "bucket"),
    "store.compute_signature": (_store, "compute_signature"),
    "store.enroll": (_TS, "enroll"),
    "store.get": (_TS, "get"),
    "store.gate_trace": (_store, "gate_trace"),
    "store.best_rotation_alignment": (_store, "best_rotation_alignment"),
    "matching.score_point_sets": (_store, "score_point_sets"),
    "orientation.read_pgm": (fpverify.orientation, "read_pgm"),
    "orientation.estimate_block_directions": (fpverify.orientation, "estimate_block_directions"),
    "orientation.segment_by_certainty": (fpverify.orientation, "segment_by_certainty"),
    "orientation.detect_core": (fpverify.orientation, "detect_core"),
    "orientation.extract_feature_vector": (fpverify.orientation, "extract_feature_vector"),
    "som.train_som": (fpverify.som, "train_som"),
    "som.train_msom": (fpverify.som, "train_msom"),
    "som.classify": (fpverify.som, "classify"),
}

# per-layer metric -> (unit, spans it needs). The formulas are in metrics().
PER_LAYER = {
    "core.parse_ms": ("ms", ["core.parse"]),
    "cluster.kmeans_ms": ("ms", ["cluster.kmeans"]),
    "cluster.kmeans_iterations": ("count", ["cluster.kmeans"]),
    "graph.index_ms": (
        "ms",
        ["graph.dist_matrix", "graph.build_nn_graph", "graph.compute_index", "graph.index_string"],
    ),
    "graph.isomorphism_ms": ("ms", ["graph.is_isomorphic"]),
    "graph.bucket_size": ("records", ["graph.bucket"]),
    "graph.penetration_pct": ("%", ["graph.bucket"]),
    "graph.iso_candidates_pct": ("%", ["graph.is_isomorphic"]),
    "store.signature_ms": ("ms", ["store.compute_signature"]),
    "store.enroll_ms": ("ms", ["store.enroll"]),
    "store.enroll_write_ms": ("ms", ["store.enroll", "store.compute_signature"]),
    "store.get_ms": ("ms", ["store.get"]),
    "store.get_calls": ("count", ["store.get"]),
    "store.gate_trace_ms": ("ms", ["store.gate_trace"]),
    "store.align_ms": ("ms", ["store.best_rotation_alignment"]),
    "store.align_share_pct": ("%", ["store.best_rotation_alignment"]),
    "matching.score_ms": ("ms", ["matching.score_point_sets"]),
    "orientation.read_pgm_ms": ("ms", ["orientation.read_pgm"]),
    "orientation.estimate_ms": (
        "ms",
        ["orientation.estimate_block_directions", "orientation.segment_by_certainty"],
    ),
    "orientation.core_ms": ("ms", ["orientation.detect_core"]),
    "orientation.extract_ms": ("ms", ["orientation.extract_feature_vector"]),
    "som.train_som_s": ("s", ["som.train_som"]),
    "som.train_msom_s": ("s", ["som.train_msom"]),
    "som.epochs": ("count", ["som.train_som", "som.train_msom"]),
    "som.classify_us": ("us", ["som.classify"]),
}


class Tracer:
    """Timing wrappers around the program's public functions."""

    def __init__(self):
        self.active = False
        self.calls: dict[str, int] = defaultdict(int)
        self.ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        # Timed workload operations by kind: "claim", "search", "enroll", ...
        self.op_ns: dict[str, int] = defaultdict(int)
        self.ops: dict[str, int] = defaultdict(int)
        self._stack: list[dict[str, int]] = []
        self._undo: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()

    def install(self) -> None:
        for span, (owner, attr) in SITES.items():
            orig = owner.__dict__.get(attr)
            if orig is None:
                continue
            setattr(owner, attr, self._wrap(span, orig))
            self._undo.append((owner, attr, orig))
            self.installed.add(span)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _wrap(self, span: str, orig):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            children: dict[str, int] = {}
            tracer._stack.append(children)
            start = perf_counter_ns()
            try:
                out = orig(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                tracer._stack.pop()
                if tracer._stack:
                    parent = tracer._stack[-1]
                    parent[span] = parent.get(span, 0) + elapsed
            tracer._record(span, elapsed, children, args, out)
            return out

        return wrapper

    def _record(self, span: str, elapsed: int, children: dict[str, int], args, out) -> None:
        self.calls[span] += 1
        self.ns[span] += elapsed
        if span == "store.enroll":
            self.counts["enroll_write_ns"] += elapsed - children.get("store.compute_signature", 0)
        elif span == "cluster.kmeans":
            self.counts["kmeans_iterations"] += out.iterations
        elif span == "graph.bucket":
            self.counts["bucket_records"] += len(out)
            self.counts["bucket_share"] += len(out) / max(len(args[0]), 1)
        elif span == "graph.is_isomorphic":
            self.counts["isomorphic"] += bool(out)

    def operation(self, kind: str, elapsed_ns: int) -> None:
        """Book one timed workload operation of the given kind."""
        self.ops[kind] += 1
        self.op_ns[kind] += elapsed_ns

    def count_epoch(self, t, weights) -> None:
        """``on_epoch`` callback for the SOM trainers."""
        if self.active:
            self.counts["epochs"] += 1

    def metrics(self) -> tuple[dict[str, dict], list[str]]:
        """Per-layer metrics, plus the names of those whose functions are gone.

        Time metrics are means per call. A layer that exists but did no work
        on this workload reads 0.
        """
        calls, ns, counts = self.calls, self.ns, self.counts
        # Claims and searches are the operations that read the store.
        lookups = self.ops["claim"] + self.ops["search"]
        lookup_ns = self.op_ns["claim"] + self.op_ns["search"]

        def per_call(span: str, scale: float) -> float:
            return ns[span] / calls[span] * scale if calls[span] else 0.0

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return num / den * scale if den else 0.0

        index_spans = PER_LAYER["graph.index_ms"][1]
        values = {
            "core.parse_ms": per_call("core.parse", 1e-6),
            "cluster.kmeans_ms": per_call("cluster.kmeans", 1e-6),
            "cluster.kmeans_iterations": ratio(counts["kmeans_iterations"], calls["cluster.kmeans"]),
            "graph.index_ms": ratio(
                sum(ns[s] for s in index_spans), max(calls[s] for s in index_spans), 1e-6
            ),
            "graph.isomorphism_ms": per_call("graph.is_isomorphic", 1e-6),
            "graph.bucket_size": ratio(counts["bucket_records"], calls["graph.bucket"]),
            "graph.penetration_pct": ratio(counts["bucket_share"], calls["graph.bucket"], 100.0),
            "graph.iso_candidates_pct": ratio(counts["isomorphic"], calls["graph.is_isomorphic"], 100.0),
            "store.signature_ms": per_call("store.compute_signature", 1e-6),
            "store.enroll_ms": per_call("store.enroll", 1e-6),
            "store.enroll_write_ms": ratio(counts["enroll_write_ns"], calls["store.enroll"], 1e-6),
            "store.get_ms": per_call("store.get", 1e-6),
            "store.get_calls": ratio(calls["store.get"], lookups),
            "store.gate_trace_ms": per_call("store.gate_trace", 1e-6),
            "store.align_ms": per_call("store.best_rotation_alignment", 1e-6),
            "store.align_share_pct": ratio(ns["store.best_rotation_alignment"], lookup_ns, 100.0),
            "matching.score_ms": per_call("matching.score_point_sets", 1e-6),
            "orientation.read_pgm_ms": per_call("orientation.read_pgm", 1e-6),
            "orientation.estimate_ms": ratio(
                ns["orientation.estimate_block_directions"] + ns["orientation.segment_by_certainty"],
                calls["orientation.estimate_block_directions"],
                1e-6,
            ),
            "orientation.core_ms": per_call("orientation.detect_core", 1e-6),
            "orientation.extract_ms": per_call("orientation.extract_feature_vector", 1e-6),
            "som.train_som_s": per_call("som.train_som", 1e-9),
            "som.train_msom_s": per_call("som.train_msom", 1e-9),
            "som.epochs": ratio(counts["epochs"], calls["som.train_som"] + calls["som.train_msom"]),
            "som.classify_us": per_call("som.classify", 1e-3),
        }
        out, missing = {}, []
        for name, (unit, spans) in PER_LAYER.items():
            if any(s not in self.installed for s in spans):
                missing.append(name)
            else:
                out[name] = {"value": values[name], "unit": unit}
        return out, missing
