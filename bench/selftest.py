"""Fast self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at tiny sizes, plain and traced, and expects all checks
to pass; a traced run whose wrapped function has gone must still pass and
report the metrics that need it as missing. Then it corrupts one program
output at a time (an MHD nudged by 1e-6, a flipped decision, a dropped
minutia, a wrong SOM winner, a claim that raises instead of rejecting, ...)
and expects the run to come out not correct, without a better quality share. Last, it runs the
benchmark in a directory that holds only BENCHMARK.json and bench/, where it
must fail without printing a result. Exits 0 when every case behaves.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import fpverify.orientation as fp_orientation  # noqa: E402
import fpverify.som as fp_som  # noqa: E402
import fpverify.store as fp_store  # noqa: E402
from fpverify.errors import UnknownId  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = workloads.Sizes(
    setup_repeats={"enroll_verify": 1, "identify": 1, "classify": 1},
    enroll_fingers=6,
    claims_per_round=4,
    claim_block=2,
    claim_rounds=2,
    pure_motion_claims=2,
    store_templates=8,
    probes_per_round=4,
    probe_rounds=2,
    sampled_probes=2,
    train_per_class=2,
    heldout_per_class=3,
    image_block=5,
    som_side=3,
    epochs=5,
)
SEED = 3
# Every workload prints every metric that BENCHMARK.json names, each in its unit.
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
QUALITY = ["recall_pct", "accuracy_pct"]


def run_tiny(name: str, tracer=None) -> tuple[workloads.Run, dict]:
    run = workloads.Run(seconds=0.0, tracer=tracer)
    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        if tracer is not None:
            tracer.install()
        try:
            metrics = workloads.run_workload(name, SEED, run, TINY, tmp)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return run, metrics


@contextlib.contextmanager
def patched(owner, attr: str, make):
    """Replace owner.attr by make(original) for the duration of the block."""
    orig = owner.__dict__[attr]
    setattr(owner, attr, make(orig))
    try:
        yield
    finally:
        setattr(owner, attr, orig)


def nudged(score):
    """A copy of a MatchScore with its MHD 1e-6 higher, past its own validation."""
    out = copy.copy(score)
    object.__setattr__(out, "mhd", score.mhd + 1e-6)
    return out


def nudged_verify(orig):
    def verify(self, *args, **kwargs):
        res = orig(self, *args, **kwargs)
        return dataclasses.replace(res, score=nudged(res.score))

    return verify


def flipped_verify(orig):
    def verify(self, *args, **kwargs):
        res = orig(self, *args, **kwargs)
        return dataclasses.replace(res, accepted=not res.accepted)

    return verify


def raising_verify(orig):
    """Raises where the real verify would reject."""

    def verify(self, *args, **kwargs):
        res = orig(self, *args, **kwargs)
        if not res.accepted:
            raise UnknownId(f"no enrolled record {res.record_id!r}")
        return res

    return verify


def raising_identify(orig):
    """Raises where the real search finds no candidate first-ranked."""

    def identify(self, *args, **kwargs):
        out = orig(self, *args, **kwargs)
        if len(out) < 2:
            raise IndexError("list index out of range")
        return out

    return identify


def truncated_get(orig):
    def get(self, record_id):
        rec = orig(self, record_id)
        m = rec.minutiae
        return dataclasses.replace(rec, minutiae=dataclasses.replace(m, minutiae=m.minutiae[:-1]))

    return get


def nudged_identify(orig):
    def identify(self, *args, **kwargs):
        out = orig(self, *args, **kwargs)
        return [(rid, nudged(s)) for rid, s in out]

    return identify


def shortened_identify(orig):
    def identify(self, *args, **kwargs):
        return orig(self, *args, **kwargs)[:-1]

    return identify


def wrong_winner(orig):
    def classify(som_map, x, c=None):
        label, node = orig(som_map, x, c)
        return label, (node + 1) % (som_map.m * som_map.m)

    return classify


def shifted_core(orig):
    def detect_core(field):
        core = orig(field)
        return dataclasses.replace(core, x=core.x + 2 * field.block_size)

    return detect_core


TS = fp_store.TemplateStore
CORRUPTIONS = [
    ("enroll_verify", "verify MHD nudged by 1e-6", TS, "verify", nudged_verify),
    ("enroll_verify", "verify decision flipped", TS, "verify", flipped_verify),
    ("enroll_verify", "rejecting claims raise instead", TS, "verify", raising_verify),
    ("enroll_verify", "stored record loses a minutia", TS, "get", truncated_get),
    ("identify", "listed MHDs nudged by 1e-6", TS, "identify", nudged_identify),
    ("identify", "last bucket member dropped", TS, "identify", shortened_identify),
    ("identify", "searches with fewer than two candidates raise", TS, "identify", raising_identify),
    ("classify", "SOM winner off by one node", fp_som, "classify", wrong_winner),
    ("classify", "detected core moved two blocks", fp_orientation, "detect_core", shifted_core),
]


def bare_directory_fails() -> bool:
    """In a directory with only BENCHMARK.json and bench/, the benchmark must
    exit non-zero without printing a result line."""
    bare = Path(tempfile.mkdtemp(prefix=".bench-tmp-bare-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "classify", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        return proc.returncode != 0 and not last[0].startswith("{")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bad = []
    clean = {}

    for name in workloads.WORKLOADS:
        run, metrics = run_tiny(name)
        clean[name] = metrics
        units = {k: v["unit"] for k, v in metrics.items()}
        ok = run.correct and units == E2E and all(v["value"] > 0 for v in metrics.values())
        print(f"{'ok  ' if ok else 'FAIL'} {name}: clean run, {run.attempted} operations, {len(run.checks.failures)} failed checks")
        bad += [] if ok else [name] + run.checks.failures[:3] + run.errors

        tracer = Tracer()
        run, _ = run_tiny(name, tracer)
        layer, missing = tracer.metrics()
        busy = sorted(k for k, v in layer.items() if v["value"] > 0)
        units = {k: v["unit"] for k, v in layer.items()}
        ok = run.correct and not missing and busy and units == PER_LAYER
        print(f"{'ok  ' if ok else 'FAIL'} {name}: traced run, {len(busy)} busy layer metrics, missing {missing}")
        bad += [] if ok else [f"{name} traced"]

    # A wrapped function that a later change removes: its metrics go missing,
    # the run still succeeds.
    with patched(tracing, "SITES", lambda sites: {**sites, "store.best_rotation_alignment": (fp_store, "gone")}):
        tracer = Tracer()
        run, _ = run_tiny("identify", tracer)
        layer, missing = tracer.metrics()
    ok = run.correct and missing == ["store.align_ms", "store.align_share_pct"] and "store.get_ms" in layer
    print(f"{'ok  ' if ok else 'FAIL'} identify: traced run without best_rotation_alignment, missing {missing}")
    bad += [] if ok else ["missing wrapped function"]

    for name, what, owner, attr, make in CORRUPTIONS:
        with patched(owner, attr, make):
            run, metrics = run_tiny(name)
        # Operations that raise may not make any quality share read better.
        better = [k for k in QUALITY if run.failed and metrics[k]["value"] > clean[name][k]["value"]]
        caught = not run.correct and not better
        failures = run.checks.failures + [f"{run.failed} operations failed"] * (run.failed > 0)
        detail = f"{better} read better than the clean run" if better else (failures or ["nothing caught it"])[0]
        print(f"{'ok  ' if caught else 'FAIL'} {name}: {what} -> {detail}")
        bad += [] if caught else [f"{name}: {what}"]

    ok = bare_directory_fails()
    print(f"{'ok  ' if ok else 'FAIL'} run.py without the program exits non-zero and prints no result")
    bad += [] if ok else ["bare directory"]

    print("self-test passed" if not bad else f"self-test FAILED: {bad}")
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
