"""The benchmark's three workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. It generates its inputs from the seed
(``gen``), hands the program only MIN1 or PGM bytes, times every operation
with ``perf_counter_ns``, and checks every output it timed against the
reference computations in ``checks``. A run goes in whole rounds: it keeps
starting rounds until ``seconds`` have passed and one full pass over the
inputs is done, so every operation is attempted at least once and the
quality figures (acceptance and accuracy shares) come from that first pass
alone and repeat exactly for a given seed. Later rounds must reproduce the
first pass's outputs exactly.
"""

from __future__ import annotations

import math
import shutil
import statistics
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import fpverify.core as fp_core
import fpverify.orientation as fp_orientation
import fpverify.som as fp_som
import fpverify.store as fp_store
from fpverify.errors import LowConfidenceCoreWarning, NearTieWarning

import checks
import gen
from checks import Checks

TAU = 12.0  # the program's default acceptance threshold, in pixels
ENROLL_VERIFY_K = 5
IDENTIFY_K = 7
# op_tail_ms per workload: the highest whole percentile with at least ten
# samples beyond it in the first pass (1,500 claims, 192 searches, 500
# images), which every run completes.
TAIL_PERCENTILE = {"enroll_verify": 99, "identify": 94, "classify": 98}
RATE_PERCENTILE = 10  # of block rates (and 90 of block medians); see Rate
# Streams of random numbers: one per workload.
STREAM = {"enroll_verify": 1, "identify": 2, "classify": 3}
# The identify store and the classify training set are reference data drawn
# from a fixed stream, the same in every run; the seed draws everything else.
# A store or map drawn afresh per seed would move the identify rate and the
# accuracies by more than any useful bound from seed to seed.
SOM_SEED = 0


def seeded(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([STREAM[workload], 1, seed])


def fixed(workload: str) -> np.random.Generator:
    return np.random.default_rng([STREAM[workload], 2])


@dataclass(frozen=True)
class Sizes:
    """How much work one run does. The defaults are the benchmark; the
    self-test shrinks them."""

    # Set-ups per run, spread over the first pass; setup_s is their median.
    # The shorter the set-up, the more repeats it gets.
    setup_repeats: dict = field(default_factory=lambda: {"enroll_verify": 9, "identify": 12, "classify": 5})
    # enroll_verify: every round enrols a fresh store, then runs one block of
    # claims from the pool; ``claim_rounds`` rounds make one pass.
    enroll_fingers: int = 250
    claims_per_round: int = 150
    claim_block: int = 10  # operations per block of a Rate
    claim_rounds: int = 10
    pure_motion_claims: int = 10
    # identify
    store_templates: int = 64
    probes_per_round: int = 8
    probe_rounds: int = 24
    sampled_probes: int = 2
    # classify
    train_per_class: int = 20
    heldout_per_class: int = 100
    image_block: int = 25
    som_side: int = 10
    epochs: int = 100


@dataclass
class Run:
    """State of one workload run: its budget, tracer, checks and counters."""

    seconds: float
    tracer: object | None = None
    checks: Checks = field(default_factory=Checks)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    # Figures of the workload's own kind (per-method accuracies, training
    # time) that the end-to-end metrics fold together; printed and saved.
    details: dict[str, dict] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        """Every check passed and no operation raised: no workload holds an
        operation that is meant to fail."""
        return self.checks.correct and self.failed == 0

    def timed(self, kind: str, fn):
        """Run one operation and time it. Returns (output, ns); the output
        is None when the operation raised, which counts as a failure."""
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
        out = None
        start = perf_counter_ns()
        try:
            out = fn()
            ok = True
        except Exception as exc:  # an operation that fails is counted, not fatal
            ok = False
            if len(self.errors) < 5:
                self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
        finally:
            elapsed = perf_counter_ns() - start
            if tracer is not None:
                tracer.active = False
                tracer.operation(kind, elapsed)
        self.attempted += 1
        self.failed += not ok
        return out, elapsed

    def rounds(self, minimum: int):
        """Round numbers: at least ``minimum``, then whole rounds until the
        time budget is spent."""
        start = time.perf_counter()
        r = 0
        while r < minimum or time.perf_counter() - start < self.seconds:
            yield r
            r += 1


class Rate:
    """Completed operations per second and their median latency, taken over
    blocks of ``block`` consecutive operations of like work. The machine runs
    this code at a slower and a faster speed, each held for seconds to
    minutes: the slower one shows in nearly every run, the faster one in
    some. So the run reads both figures at the slower blocks, the rate at the
    ``RATE_PERCENTILE``th percentile of the block rates and the latency at
    the mirror percentile of the block medians; a figure over all operations
    jumps between the two levels from run to run. An operation that raised
    adds its time to its block but is neither counted nor part of the
    block's median, so failing fast never raises a rate or lowers a latency.

    Where operations differ in work, each completed one brings its ``work``
    (an identify search: one for its own signature and bucket lookup, plus
    one per candidate it scored). A block's rate then counts operations of
    the run's mean work, and each latency is scaled to an operation of the
    run's mean work, so that a block of heavy probes does not read as a slow
    machine, nor a seed that draws heavy probes as a slow program."""

    def __init__(self, block: int):
        self.block = block
        self.blocks: list[tuple[float, int]] = []  # (work, ns) per block
        self.done: list[list[tuple[int, float]]] = []  # (ns, work) of completed operations per block
        self._done: list[tuple[int, float]] = []
        self._n = self._ns = 0
        self._work = 0.0

    def add(self, ns: int, completed: bool = True, work: float = 1.0) -> None:
        self._n += 1
        self._ns += ns
        if completed:
            self._done.append((ns, work))
            self._work += work
        if self._n == self.block:
            self._close()

    def _close(self) -> None:
        if self._ns:
            self.blocks.append((self._work, self._ns))
        if self._done:
            self.done.append(self._done)
        self._done, self._n, self._ns, self._work = [], 0, 0, 0.0

    def _mean_work(self) -> float:
        ops = [w for block in self.done for _, w in block]
        return sum(ops) / len(ops) if ops else 1.0

    def per_s(self) -> float:
        self._close()
        mean_work = self._mean_work()
        rates = [work / mean_work / (ns / 1e9) for work, ns in self.blocks]
        return float(np.percentile(rates, RATE_PERCENTILE))

    def median_ms(self) -> float:
        self._close()
        mean_work = self._mean_work()
        medians = [statistics.median(ns * mean_work / w for ns, w in block) / 1e6 for block in self.done]
        return float(np.percentile(medians or [0.0], 100 - RATE_PERCENTILE))


class Setup:
    """A workload's set-up, timed ``repeats`` times: once before the first
    round, whose result the run uses, then after rounds spread over the first
    pass, whose results are dropped. The machine's speed moves between two
    levels held for seconds to minutes, so repeats made back to back all see
    one level, and their median jumps between levels from run to
    run; spread over the run, they sample it as the rates do."""

    def __init__(self, setup, repeats: int, pass_rounds: int):
        self._setup = setup
        self._repeats = repeats
        self._every = max(1, pass_rounds // repeats)
        self.times: list[float] = []
        self.result = self._once()

    def _once(self):
        start = time.perf_counter()
        result = self._setup()
        self.times.append(time.perf_counter() - start)
        return result

    def after_round(self, r: int) -> None:
        if len(self.times) < self._repeats and (r + 1) % self._every == 0:
            self._once()

    def median(self) -> float:
        """The median set-up time, after the repeats the run had no turn for."""
        while len(self.times) < self._repeats:
            self._once()
        return statistics.median(self.times)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def share(flags: list[bool]) -> float:
    return 100.0 * sum(flags) / max(len(flags), 1)


def latencies_ms(latencies: list[int]) -> np.ndarray:
    """Latencies of the completed operations in ms; a run in which none
    completed reads 0 (and is not correct)."""
    return np.array(latencies or [0]) / 1e6


def relative(data: bytes) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Core-relative coordinates, directions and kinds of MIN1 bytes, by the
    benchmark's own reading."""
    xy, theta, kinds, (cx, cy) = gen.read_min1(data)
    return np.stack([xy[:, 0] - cx, xy[:, 1] - cy], axis=1), theta, kinds


def read_manifest(directory: Path) -> dict[str, str]:
    """id -> index key, read from the store's manifest by the benchmark."""
    keys = {}
    for line in (directory / "manifest.txt").read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec_id, key, _ = line.split("\t")
            keys[rec_id] = key
    return keys


def signature_key(data: bytes, k: int) -> tuple[str, frozenset]:
    """Index key and NN-graph edges of a probe, built by the benchmark from
    the centroids that the program's k-means returns."""
    sig = fp_store.compute_signature(fp_core.parse_minutiae(data), k=k)
    edges = checks.nn_edges(sig.centroids)
    return checks.index_key(k, edges), edges


def check_records(run: Run, directory: Path, enrolled: dict[str, bytes], k: int) -> dict:
    """Reopen a store and compare every record with the enrolled input minus
    its core. Returns id -> NN-graph edges of the stored centroids."""
    chk = run.checks
    store = fp_store.TemplateStore(directory)
    manifest = read_manifest(directory)
    chk.expect(sorted(store.ids()) == sorted(enrolled), "reopened store lists other ids than were enrolled")
    graphs = {}
    for rec_id, data in enrolled.items():
        rec = store.get(rec_id)
        xy, theta, kinds = relative(data)
        got = rec.minutiae
        same = (
            len(got) == len(xy)
            and np.array_equal(got.coords(), xy)
            and [m.theta for m in got.minutiae] == theta.tolist()
            and [m.kind.value for m in got.minutiae] == kinds
            and got.core is not None
            and (got.core.x, got.core.y) == (0.0, 0.0)
        )
        chk.expect(same, f"record {rec_id} does not hold the enrolled minutiae minus the core")
        edges = checks.nn_edges(rec.centroids)
        graphs[rec_id] = edges
        chk.expect(
            checks.index_key(k, edges) == manifest.get(rec_id) == rec.index_key,
            f"record {rec_id}: index key disagrees with its centroids or the manifest",
        )
    return graphs


# --- enroll_verify ------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    claimed: str
    genuine: bool
    probe: bytes


def enroll_verify(seed: int, run: Run, sizes: Sizes, root: Path) -> dict:
    """Enrol a fresh store at k=5 each round, then run 1:1 claims against it."""
    k = ENROLL_VERIFY_K

    def make_inputs():
        rng = seeded("enroll_verify", seed)
        fingers = [gen.gen_finger(rng) for _ in range(sizes.enroll_fingers)]
        enrol = {f"f{i}": gen.min1_bytes(f) for i, f in enumerate(fingers)}
        n = len(fingers)
        claims = []
        for i in range(sizes.claim_rounds * sizes.claims_per_round):
            if i % 2 == 0:  # genuine: a fresh impression of the claimed finger
                claimed = (i // 2) % n
                source = claimed
            else:  # imposter: an impression of another enrolled finger
                claimed = int(rng.integers(n))
                source = (claimed + 1 + int(rng.integers(n - 1))) % n
            probe = gen.min1_bytes(gen.impression(fingers[source], rng))
            claims.append(Claim(f"f{claimed}", i % 2 == 0, probe))
        pure = [
            (f"f{i}", gen.min1_bytes(gen.impression(fingers[i], rng, jitter=0.0)))
            for i in range(min(sizes.pure_motion_claims, n))
        ]
        return enrol, claims, pure

    setup = Setup(make_inputs, sizes.setup_repeats["enroll_verify"], sizes.claim_rounds)
    enrol, claims, pure = setup.result
    template_xy = {rec_id: relative(data)[0] for rec_id, data in enrol.items()}
    chk = run.checks
    # Enrolments are timed operations, but no end-to-end rate is taken of
    # them: every rate of them tried moved by more than a quarter between runs
    # of the same code, also in runs whose claims ran at full speed. The
    # traced run's store.enroll_ms and its parts show the enrol side.
    claim_rate, latencies = Rate(sizes.claim_block), []
    first: list = [None] * len(claims)

    for r in run.rounds(sizes.claim_rounds):
        directory = root / f"store{r}"
        store = fp_store.TemplateStore(directory)
        enrolled = {}
        for rec_id, data in enrol.items():
            out, _ = run.timed(
                "enroll", lambda: store.enroll(fp_core.parse_minutiae(data), rec_id, k=k)
            )
            if out is not None:
                enrolled[rec_id] = data
        graphs = check_records(run, directory, enrolled, k)
        manifest = read_manifest(directory)

        block = r % sizes.claim_rounds
        lo = block * sizes.claims_per_round
        for i in range(lo, lo + sizes.claims_per_round):
            claim = claims[i]
            res, ns = run.timed(
                "claim",
                lambda: store.verify(fp_core.parse_minutiae(claim.probe), claim.claimed, tau=TAU),
            )
            claim_rate.add(ns, res is not None)
            if res is None:
                continue
            latencies.append(ns)
            if r < sizes.claim_rounds:
                first[i] = res
                check_claim(chk, claim, res, template_xy[claim.claimed], manifest, graphs, k)
            else:
                prev = first[i]
                chk.expect(
                    prev is not None
                    and (res.accepted, res.score.mhd, res.rotation)
                    == (prev.accepted, prev.score.mhd, prev.rotation),
                    f"claim {i} gave another result when repeated",
                )
        if r == 0:
            for rec_id, data in pure:
                res = store.verify(fp_core.parse_minutiae(data), rec_id, tau=TAU)
                chk.expect(
                    res.accepted and res.score.mhd < checks.PURE_MOTION_MHD,
                    f"pure rigid motion of {rec_id}: accepted={res.accepted} mhd={res.score.mhd:.3e}",
                )
        shutil.rmtree(directory)
        setup.after_round(r)

    # A claim that raised counts as a wrong decision on either side.
    genuine = [res is not None and res.accepted for c, res in zip(claims, first) if c.genuine]
    imposter = [res is not None and not res.accepted for c, res in zip(claims, first) if not c.genuine]
    run.details["genuine_accept_pct"] = metric(share(genuine), "%")
    run.details["imposter_reject_pct"] = metric(share(imposter), "%")
    return {
        "setup_s": metric(setup.median(), "s"),
        "ops_per_s": metric(claim_rate.per_s(), "1/s"),
        "op_p50_ms": metric(claim_rate.median_ms(), "ms"),
        "op_tail_ms": metric(np.percentile(latencies_ms(latencies), TAIL_PERCENTILE["enroll_verify"]), "ms"),
        "recall_pct": metric(share(genuine), "%"),
        "accuracy_pct": metric(share(genuine + imposter), "%"),
    }


def check_claim(chk: Checks, claim: Claim, res, template: np.ndarray, manifest, graphs, k: int) -> None:
    """MHD by brute force, its minimality over the candidate angles, and the
    accept decision from the benchmark's own index key and isomorphism test."""
    probe = relative(claim.probe)[0]
    mhd = res.score.mhd
    brute = checks.brute_force_mhd(checks.rotate(probe, res.rotation), template)
    chk.expect(
        abs(brute - mhd) <= checks.MHD_TOLERANCE,
        f"claim on {claim.claimed}: reported MHD {mhd!r} but the probe rotated by "
        f"{res.rotation!r} gives {brute!r}",
    )
    chk.expect(
        mhd <= checks.min_candidate_mhd(probe, template) + checks.MHD_TOLERANCE,
        f"claim on {claim.claimed}: MHD {mhd!r} above the best candidate rotation",
    )
    key, edges = signature_key(claim.probe, k)
    expected = (
        key == manifest[claim.claimed]
        and checks.isomorphic(k, edges, graphs[claim.claimed])
        and brute <= TAU
    )
    chk.expect(
        res.accepted == expected,
        f"claim on {claim.claimed}: accepted={res.accepted}, expected {expected}",
    )


# --- identify -------------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    true_id: str | None  # None: the finger is not enrolled
    data: bytes


def identify(seed: int, run: Run, sizes: Sizes, root: Path) -> dict:
    """1:N searches against a k=7 store built in set-up."""
    k = IDENTIFY_K

    def make_inputs():
        rng = seeded("identify", seed)
        n = sizes.store_templates
        reference = fixed("identify")
        fingers = [gen.gen_finger(reference) for _ in range(n)]
        enrol = {f"f{i}": gen.min1_bytes(f) for i, f in enumerate(fingers)}
        order = rng.permutation(n)
        probes = []
        for j in range(sizes.probe_rounds * sizes.probes_per_round):
            if j % 8 == 7:  # one probe in eight is of a finger that is not enrolled
                probes.append(Probe(None, gen.min1_bytes(gen.impression(gen.gen_finger(rng), rng))))
            else:
                i = int(order[j % n])
                probes.append(Probe(f"f{i}", gen.min1_bytes(gen.impression(fingers[i], rng))))
        directory = Path(tempfile.mkdtemp(prefix="store", dir=root))
        store = fp_store.TemplateStore(directory)
        for rec_id, data in enrol.items():
            store.enroll(fp_core.parse_minutiae(data), rec_id, k=k)
        return enrol, probes, directory, store

    setup = Setup(make_inputs, sizes.setup_repeats["identify"], sizes.probe_rounds)
    # Each set-up builds its own store under root; the run searches the first.
    enrol, probes, directory, store = setup.result
    chk = run.checks
    check_records(run, directory, enrol, k)
    manifest = read_manifest(directory)
    template_xy = {rec_id: relative(data)[0] for rec_id, data in enrol.items()}
    search_rate, latencies = Rate(sizes.probes_per_round), []
    first: list = [None] * len(probes)

    for r in run.rounds(sizes.probe_rounds):
        block = r % sizes.probe_rounds
        lo = block * sizes.probes_per_round
        for j in range(lo, lo + sizes.probes_per_round):
            probe = probes[j]
            res, ns = run.timed(
                "search", lambda: store.identify(fp_core.parse_minutiae(probe.data), tau=TAU, k=k)
            )
            search_rate.add(ns, res is not None, 1 + len(res) if res is not None else 0)
            if res is None:
                continue
            latencies.append(ns)
            if r < sizes.probe_rounds:
                first[j] = res
                check_search(chk, j, probe, res, manifest, template_xy, k)
            else:
                chk.expect(
                    [(rid, s.mhd) for rid, s in res] == [(rid, s.mhd) for rid, s in first[j] or []],
                    f"search {j} gave another ranking when repeated",
                )
        setup.after_round(r)

    sampled = [j for j, p in enumerate(probes) if p.true_id is not None][: sizes.sampled_probes // 2]
    sampled += [j for j, p in enumerate(probes) if p.true_id is None][: sizes.sampled_probes - len(sampled)]
    for j in sampled:
        if first[j] is not None:
            check_against_verify(chk, j, store, probes[j], first[j])

    # The decision is the first-ranked id, taken when verify accepts it: a
    # hit for an enrolled finger, no accepted id for an unenrolled one. A
    # search that raised is a wrong decision either way.
    hits, rejects = [], []
    for probe, res in zip(probes, first):
        top = res[0][0] if res else None
        taken = top is not None and store.verify(fp_core.parse_minutiae(probe.data), top, tau=TAU).accepted
        if probe.true_id is None:
            rejects.append(res is not None and not taken)
        else:
            hits.append(taken and top == probe.true_id)
    run.details["identify_hit_pct"] = metric(share(hits), "%")
    run.details["unenrolled_reject_pct"] = metric(share(rejects), "%")
    return {
        "setup_s": metric(setup.median(), "s"),
        "ops_per_s": metric(search_rate.per_s(), "1/s"),
        "op_p50_ms": metric(search_rate.median_ms(), "ms"),
        "op_tail_ms": metric(np.percentile(latencies_ms(latencies), TAIL_PERCENTILE["identify"]), "ms"),
        "recall_pct": metric(share(hits), "%"),
        "accuracy_pct": metric(share(hits + rejects), "%"),
    }


def check_search(chk: Checks, j: int, probe: Probe, res, manifest, template_xy, k: int) -> None:
    """Ranking order, bucket membership, and the top candidate's MHD."""
    order = [(s.mhd, rid) for rid, s in res]
    chk.expect(order == sorted(order), f"search {j}: ranking not sorted by (MHD, id)")
    key, _ = signature_key(probe.data, k)
    bucket = sorted(rid for rid, rkey in manifest.items() if rkey == key)
    chk.expect(sorted(rid for rid, _ in res) == bucket, f"search {j}: candidates are not the probe's bucket")
    if res:
        rid, score = res[0]
        best = checks.min_candidate_mhd(relative(probe.data)[0], template_xy[rid])
        chk.expect(
            score.mhd <= best + checks.MHD_TOLERANCE,
            f"search {j}: top MHD {score.mhd!r} above the best candidate rotation {best!r}",
        )


def check_against_verify(chk: Checks, j: int, store, probe: Probe, res) -> None:
    """Every listed MHD equals verify's; every id verify accepts is listed."""
    listed = {rid: s.mhd for rid, s in res}
    mset = fp_core.parse_minutiae(probe.data)
    for rid in store.ids():
        v = store.verify(mset, rid, tau=TAU)
        if rid in listed:
            chk.expect(v.score.mhd == listed[rid], f"search {j}: {rid} listed with MHD {listed[rid]!r}, verify gives {v.score.mhd!r}")
        chk.expect(not v.accepted or rid in listed, f"search {j}: verify accepts {rid} but identify does not list it")


# --- classify -------------------------------------------------------------------


def classify(seed: int, run: Run, sizes: Sizes, root: Path) -> dict:
    """Train a SOM and an MSOM on labelled images, then classify a held-out stream."""

    def make_inputs():
        rng = seeded("classify", seed)
        reference = fixed("classify")
        train = [gen.render(c, reference, clean=False) for c in gen.CLASSES for _ in range(sizes.train_per_class)]
        heldout = [
            gen.render(gen.CLASSES[j % len(gen.CLASSES)], rng, clean=(j // len(gen.CLASSES)) % 3 == 0)
            for j in range(sizes.heldout_per_class * len(gen.CLASSES))
        ]
        return train, heldout

    setup = Setup(make_inputs, sizes.setup_repeats["classify"], 1)
    train, heldout = setup.result
    chk = run.checks
    cfg = fp_som.TrainConfig(epochs=sizes.epochs, seed=SOM_SEED)
    on_epoch = run.tracer.count_epoch if run.tracer is not None else None
    train_times, image_rate, latencies = [], Rate(sizes.image_block), []
    first: list = [None] * len(heldout)

    def fit():
        vectors = []
        for im in train:
            fv = features(im.pgm)[2]
            vectors.append(fp_orientation.FeatureVector(fv.directions, fv.certainties, fp_orientation.FingerClass(im.label)))
        return (
            fp_som.train_som(vectors, sizes.som_side, cfg, on_epoch=on_epoch),
            fp_som.train_msom(vectors, sizes.som_side, cfg, on_epoch=on_epoch),
        )

    for r in run.rounds(1):
        maps, ns = run.timed("train", fit)
        train_times.append(ns / 1e9)
        if maps is None:
            setup.after_round(r)
            continue
        plain, weighted = maps
        for j, im in enumerate(heldout):
            out, ns = run.timed("image", lambda: classify_image(im.pgm, plain, weighted))
            image_rate.add(ns, out is not None)
            if out is None:
                continue
            latencies.append(ns)
            if r == 0:
                first[j] = out
                check_image(chk, j, im, out, plain, weighted)
            else:
                chk.expect(
                    first[j] is not None and out[3:] == first[j][3:],
                    f"image {j} classified differently when repeated",
                )
        setup.after_round(r)

    # An image that raised counts as a wrong label for both maps.
    def right(at: int) -> list[bool]:
        return [out is not None and out[at] == im.label for im, out in zip(heldout, first)]

    plain_right, weighted_right = right(3), right(5)
    run.details["train_s"] = metric(statistics.median(train_times), "s")
    run.details["som_accuracy_pct"] = metric(share(plain_right), "%")
    run.details["msom_accuracy_pct"] = metric(share(weighted_right), "%")
    return {
        "setup_s": metric(setup.median(), "s"),
        "ops_per_s": metric(image_rate.per_s(), "1/s"),
        "op_p50_ms": metric(image_rate.median_ms(), "ms"),
        "op_tail_ms": metric(np.percentile(latencies_ms(latencies), TAIL_PERCENTILE["classify"]), "ms"),
        "recall_pct": metric(share(weighted_right), "%"),
        "accuracy_pct": metric(share(plain_right + weighted_right), "%"),
    }


def features(pgm: bytes):
    """PGM bytes -> (segmented field, detected core, feature vector)."""
    img = fp_orientation.read_pgm(pgm)
    field = fp_orientation.segment_by_certainty(
        fp_orientation.estimate_block_directions(img), fp_orientation.DEFAULT_SEGMENT_THRESHOLD
    )
    core = fp_orientation.detect_core(field)
    return field, core, fp_orientation.extract_feature_vector(field, core)


def classify_image(pgm: bytes, plain, weighted):
    """One held-out image through the coarse level, labelled by both maps."""
    field, core, fv = features(pgm)
    label, node = fp_som.classify(plain, fv.directions)
    wlabel, wnode = fp_som.classify(weighted, fv.directions, fv.certainties)
    return field, core, fv, label.value, node, wlabel.value, wnode


def check_image(chk: Checks, j: int, im, out, plain, weighted) -> None:
    """Winners by brute force; on clean images, directions and core position."""
    field, core, fv, label, node, wlabel, wnode = out
    for name, som_map, c, got, got_label in (
        ("SOM", plain, None, node, label),
        ("MSOM", weighted, fv.certainties, wnode, wlabel),
    ):
        chk.expect(
            got in checks.winners(som_map.weights, fv.directions, c),
            f"image {j}: {name} winner {got} is not the brute-force argmin",
        )
        node_label = som_map.labels[got]
        chk.expect(
            node_label is None or node_label.value == got_label,
            f"image {j}: {name} label {got_label} is not the winner's label",
        )
    if im.clean:
        gap = checks.direction_gap(field.directions, im.directions)
        chk.expect(
            float(gap.max()) <= checks.DIRECTION_TOLERANCE,
            f"image {j} ({im.label}): a block direction is {float(gap.max()):.3f} rad off the rendered field",
        )
        if im.label in ("left_loop", "right_loop", "whorl"):
            dist = min(math.hypot(core.x - x, core.y - y) for x, y in im.cores)
            chk.expect(
                dist <= checks.CORE_TOLERANCE,
                f"image {j} ({im.label}): detected core {dist:.1f} px from the planted one",
            )


WORKLOADS = {"enroll_verify": enroll_verify, "identify": identify, "classify": classify}


def run_workload(name: str, seed: int, run: Run, sizes: Sizes, root: Path) -> dict:
    """Run one workload; end-to-end metrics, peak memory included."""
    with warnings.catch_warnings():
        # The arch class has no core, so detect_core warns on every arch image.
        warnings.simplefilter("ignore", LowConfidenceCoreWarning)
        warnings.simplefilter("ignore", NearTieWarning)
        metrics = WORKLOADS[name](seed, run, sizes, root)
    metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    return metrics
