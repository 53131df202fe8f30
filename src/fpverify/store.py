"""Enrollment store and the end-to-end verification pipeline.

Enrollment runs minutiae -> core-relative k-means -> centroid distance
matrix -> nearest-neighbor graph -> four-parameter index. That template is a
``Signature``, whether of a probe or of an enrolled print; a stored
``TemplateRecord`` is a signature plus its id, class and enrollment time.
The store persists one text record per template plus a manifest line
``id<TAB>index_key<TAB>file``.
The manifest alone answers bucket queries, so identification scans it
without parsing every record.

Verification walks three gates in order and records each in a trace:

1. index bucket  - the probe's canonical index string must match,
2. isomorphism   - the cluster graphs must be isomorphic,
3. MHD threshold - the Modified Hausdorff distance, after aligning the
                   probe to the template by the best candidate rotation
                   about the core, must not exceed tau.

``decide`` is the one accept rule (all three gates pass) behind ``verify``,
each ``identify`` candidate, the CLI tag and every ``evaluate`` threshold.
Gate 3 scores all candidate rotations (angle differences of similar-radius
point pairs, so a pure rotation aligns exactly) in one call of the
``matching`` kernel on the batch of rotated probes, so the MHD it minimizes is,
to the bit, the one reported. The kernel bounds that batch's tables by taking
the template a block of points at a time: one point, for the ~200 candidates
of a 30-point pair.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .cluster import kmeans_fing
from .core import (
    MinutiaeSet,
    fmt_real,
    parse_minutiae,
    serialize_minutiae,
    to_core_relative,
)
from .errors import DuplicateId, FingerprintError, UnknownId
from .graph import (
    MinutiaeGraph,
    build_nn_graph,
    compute_index,
    dist_matrix,
    fingerprint_distance,
    index_string,
)
from .matching import DEFAULT_TAU, Decision, MatchScore, check_tau, mhd_of, nearest_distances, score_point_sets
from .orientation import FingerClass

DEFAULT_K = 5
ALIGN_RADIUS_BAND = 10.0

_MANIFEST = "manifest.txt"
_MANIFEST_LINE = re.compile(r"[^\t]+\tV\d+\|[^\t]*\t[^\t]+")  # id, index key, file


@dataclass(frozen=True)
class Signature:
    """The template the three gates compare, derived from one impression."""

    graph: MinutiaeGraph
    index_key: str
    centroids: np.ndarray  # (k, 2) core-relative
    minutiae: MinutiaeSet  # core at (0, 0)


def compute_signature(mset: MinutiaeSet, k: int = DEFAULT_K) -> Signature:
    """Run the fine-level pipeline on one impression, about its own core."""
    clusters = kmeans_fing(mset, k)
    graph = build_nn_graph(dist_matrix(clusters.centroids))
    return Signature(
        graph=graph,
        index_key=index_string(compute_index(graph)),
        centroids=clusters.centroids,
        minutiae=to_core_relative(mset),
    )


@dataclass(frozen=True)
class TemplateRecord(Signature):
    """An enrolled signature: the template plus its id, class and time."""

    id: str
    class_label: FingerClass | None
    enrolled_at: str  # ISO-8601 UTC


@dataclass(frozen=True)
class GateCheck:
    name: str
    passed: bool


@dataclass(frozen=True)
class VerifyResult:
    record_id: str
    accepted: bool
    gates: tuple[GateCheck, ...]
    score: MatchScore
    rotation: float  # probe-to-template alignment angle used in gate 3

    @property
    def first_failed(self) -> str | None:
        for gate in self.gates:
            if not gate.passed:
                return gate.name
        return None


def _rotate(points: np.ndarray, cos, sin) -> np.ndarray:
    """Points rotated by an angle's math cos/sin: (n, 2) for scalars, (k, n, 2)
    for (k, 1) columns, and to the same bits either way."""
    x, y = points[:, 0], points[:, 1]
    return np.stack((x * cos - y * sin, x * sin + y * cos), axis=-1)


def best_rotation_alignment(probe: np.ndarray, template: np.ndarray) -> tuple[float, float]:
    """(angle, mhd) minimizing MHD over candidate rotations about the origin.

    Candidates are the identity, then angle differences of point pairs whose
    core distances differ by at most ALIGN_RADIUS_BAND; first least MHD wins.
    """
    pr = np.sqrt(probe[:, 0] ** 2 + probe[:, 1] ** 2)
    tr = np.sqrt(template[:, 0] ** 2 + template[:, 1] ** 2)
    pa = np.arctan2(probe[:, 1], probe[:, 0])
    ta = np.arctan2(template[:, 1], template[:, 0])

    close = np.abs(pr[:, None] - tr[None, :]) <= ALIGN_RADIUS_BAND
    diffs = (ta[None, :] - pa[:, None])[close]
    candidates = np.concatenate(([0.0], diffs))

    cos = np.array([math.cos(a) for a in candidates.tolist()])[:, None]
    sin = np.array([math.sin(a) for a in candidates.tolist()])[:, None]
    mhds = mhd_of(*nearest_distances(_rotate(probe, cos, sin), template))
    best = int(np.argmin(mhds))
    return float(candidates[best]), float(mhds[best])


def decide(index_ok: bool, iso_ok: bool, mhd: float, tau: float) -> tuple[tuple[GateCheck, ...], Decision]:
    """The accept rule, as the three gates in order and the decision: accept
    when the index keys match, the graphs are isomorphic and MHD <= tau."""
    gates = (
        GateCheck("index", index_ok),
        GateCheck("isomorphism", iso_ok),
        GateCheck("mhd", mhd <= tau),
    )
    return gates, Decision.ACCEPT if all(g.passed for g in gates) else Decision.REJECT


def gate_trace(
    probe_sig: Signature, template: Signature, tau: float
) -> tuple[tuple[GateCheck, ...], MatchScore, float]:
    """Gates, score (decided by ``decide``) and alignment angle for one pair."""
    index_ok = probe_sig.index_key == template.index_key
    iso_ok = fingerprint_distance(probe_sig.graph, template.graph) == 0

    probe_pts = probe_sig.minutiae.coords()
    template_pts = template.minutiae.coords()
    angle, _ = best_rotation_alignment(probe_pts, template_pts)
    score = score_point_sets(_rotate(probe_pts, math.cos(angle), math.sin(angle)), template_pts, tau)
    gates, decision = decide(index_ok, iso_ok, score.mhd, tau)
    return gates, replace(score, decision=decision), angle


class TemplateStore:
    """Directory-backed template database. Single writer, shareable reads.

    Records are immutable once enrolled: ``get`` parses each record file
    once per store object and hands every caller that same record from then
    on, so a record file edited behind the store's back is not seen again.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._index: dict[str, tuple[str, str]] = {}  # id -> (index_key, filename)
        self._parsed: dict[str, TemplateRecord] = {}  # filled by get, after a clean parse
        manifest = self.directory / _MANIFEST
        if manifest.exists():
            try:
                text = manifest.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise FingerprintError(f"manifest is not UTF-8 text: {exc}") from exc
            for number, line in enumerate(text.splitlines(), 1):
                if not line.strip():
                    continue
                if not _MANIFEST_LINE.fullmatch(line):
                    raise FingerprintError(f"manifest line {number} is not id<TAB>index_key<TAB>file")
                rec_id, key, fname = line.split("\t")
                self._index[rec_id] = (key, fname)

    def __len__(self) -> int:
        return len(self._index)

    def ids(self) -> list[str]:
        return list(self._index)

    def bucket(self, index_key: str) -> list[str]:
        """Ids sharing an index key, straight from the manifest."""
        return [rid for rid, (key, _) in self._index.items() if key == index_key]

    def enroll(
        self,
        mset: MinutiaeSet,
        record_id: str,
        k: int = DEFAULT_K,
        class_label: FingerClass | None = None,
    ) -> TemplateRecord:
        """Run the pipeline on an impression and persist the template."""
        if record_id in self._index:
            raise DuplicateId(f"id {record_id!r} already enrolled")
        # The manifest is read with str.splitlines, so an id may hold none of
        # the characters it splits on.
        if record_id.splitlines() != [record_id] or any(ch in record_id for ch in "\t/\\"):
            raise FingerprintError(f"record id {record_id!r} not storable")
        sig = compute_signature(mset, k=k)
        m = sig.minutiae  # core-relative
        record = TemplateRecord(
            id=record_id,
            class_label=class_label,
            index_key=sig.index_key,
            graph=sig.graph,
            centroids=sig.centroids,
            minutiae=MinutiaeSet(xy=m.xy, theta=m.theta, kind=m.kind, core=m.core, source_id=record_id),
            enrolled_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )
        fname = f"{record_id}.rec"
        (self.directory / fname).write_text(_record_text(record), encoding="utf-8")
        with (self.directory / _MANIFEST).open("a", encoding="utf-8") as fh:
            fh.write(f"{record_id}\t{record.index_key}\t{fname}\n")
        self._index[record_id] = (record.index_key, fname)
        return record

    def get(self, record_id: str) -> TemplateRecord:
        if record_id in self._parsed:
            return self._parsed[record_id]
        if record_id not in self._index:
            raise UnknownId(f"no enrolled record {record_id!r}")
        _, fname = self._index[record_id]
        try:
            text = (self.directory / fname).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise FingerprintError(f"record {record_id!r} unreadable: {exc}") from exc
        record = _parse_record(text)
        if record.id != record_id:
            raise FingerprintError(f"record file {fname!r} holds id {record.id!r}, not {record_id!r}")
        self._parsed[record_id] = record
        return record

    def verify(
        self,
        probe: MinutiaeSet,
        claimed_id: str,
        tau: float = DEFAULT_TAU,
    ) -> VerifyResult:
        """Check the probe, clustered with the record's k, through all gates."""
        record = self.get(claimed_id)
        probe_sig = compute_signature(probe, k=len(record.centroids))
        gates, score, angle = gate_trace(probe_sig, record, tau)
        return VerifyResult(
            record_id=claimed_id,
            accepted=score.decision is Decision.ACCEPT,
            gates=gates,
            score=score,
            rotation=angle,
        )

    def identify(
        self,
        probe: MinutiaeSet,
        tau: float = DEFAULT_TAU,
        k: int | None = None,
    ) -> list[tuple[str, MatchScore]]:
        """Score the probe against its index bucket, best (lowest MHD) first.

        Each decision is the one ``verify`` gives for that id. An empty list
        is a valid result: nothing shares the probe's bucket. Without k the
        probe is clustered with the k of the store's templates, which must
        all share one (DEFAULT_K for an empty store).
        """
        check_tau(tau)  # an empty bucket scores nothing, so check here too
        if k is None:  # the V<k> field of the manifest keys
            ks = sorted({int(key[1 : key.index("|")]) for key, _ in self._index.values()})
            if len(ks) > 1:
                named = ", ".join(map(str, ks))
                raise FingerprintError(f"store holds templates of k = {named}; give one k (--k)")
            k = ks[0] if ks else DEFAULT_K
        probe_sig = compute_signature(probe, k=k)
        results: list[tuple[str, MatchScore]] = []
        for rid in self.bucket(probe_sig.index_key):
            record = self.get(rid)
            _, score, _ = gate_trace(probe_sig, record, tau)
            results.append((rid, score))
        results.sort(key=lambda pair: (pair[1].mhd, pair[0]))
        return results


# --- record file format -------------------------------------------------------


def _record_text(rec: TemplateRecord) -> str:
    # Records keep full float precision (17 significant digits) so a
    # verified probe sees exactly the coordinates that were enrolled; the
    # 9-digit default stays reserved for the external MIN1 interchange.
    lines = ["FPREC1"]
    lines.append(f"ID {rec.id}")
    lines.append(f"CLASS {rec.class_label.value if rec.class_label else '-'}")
    lines.append(f"INDEX {rec.index_key}")
    lines.append(f"ENROLLED {rec.enrolled_at}")
    lines.append(f"CENTROIDS {len(rec.centroids)}")
    for x, y in rec.centroids:
        lines.append(f"{fmt_real(x, 17)} {fmt_real(y, 17)}")
    edges = sorted(rec.graph.edges)
    lines.append(f"EDGES {len(edges)}")
    for a, b in edges:
        lines.append(f"{a} {b}")
    min_block = serialize_minutiae(rec.minutiae, sig_digits=17).decode("utf-8")
    lines.append(f"MINUTIAE {len(min_block.splitlines())}")
    lines.append(min_block.rstrip("\n"))
    return "\n".join(lines) + "\n"


def _parse_record(text: str) -> TemplateRecord:
    """Parse an FPREC1 record; a record cut short or malformed anywhere
    raises FingerprintError, never a partial template."""
    lines = text.splitlines()
    if not lines or lines[0] != "FPREC1":
        raise FingerprintError("not a template record file")
    if not text.endswith("\n"):
        raise FingerprintError("template record is cut short: no final newline")
    pos = 1

    def take(tag: str) -> str:
        nonlocal pos
        if pos >= len(lines) or not lines[pos].startswith(tag + " "):
            raise FingerprintError(f"expected {tag} line in record")
        pos += 1
        return lines[pos - 1][len(tag) + 1 :]

    def block(tag: str) -> list[str]:
        nonlocal pos
        count = take(tag)
        if not count.isdigit() or pos + int(count) > len(lines):
            raise FingerprintError(f"{tag} block shorter than its declared {count!r} lines")
        pos += int(count)
        return lines[pos - int(count) : pos]

    def pairs(tag: str, convert) -> list[tuple]:
        rows = [line.split() for line in block(tag)]
        if any(len(row) != 2 for row in rows):
            raise FingerprintError(f"each {tag} line must hold two values")
        return [(convert(a), convert(b)) for a, b in rows]

    try:
        rec_id = take("ID")
        cls_text = take("CLASS")
        class_label = None if cls_text == "-" else FingerClass(cls_text)
        index_key = take("INDEX")
        enrolled_at = take("ENROLLED")
        centroids = np.array(pairs("CENTROIDS", float), dtype=np.float64).reshape(-1, 2)
        edges = frozenset(pairs("EDGES", int))
        if any(not 0 <= v < len(centroids) for edge in edges for v in edge):
            raise FingerprintError("record edge names a missing centroid")
        graph = MinutiaeGraph(vertices=tuple(range(len(centroids))), edges=edges)
    except ValueError as exc:
        raise FingerprintError(f"malformed template record: {exc}") from exc
    min_block = block("MINUTIAE")
    if pos != len(lines):
        raise FingerprintError("template record has lines after its MINUTIAE block")
    minutiae = parse_minutiae("\n".join(min_block) + "\n", source_id=rec_id)

    return TemplateRecord(
        id=rec_id,
        class_label=class_label,
        index_key=index_key,
        graph=graph,
        centroids=centroids,
        minutiae=minutiae,
        enrolled_at=enrolled_at,
    )
