"""Enrollment store and the end-to-end verification pipeline.

Enrollment runs minutiae -> core-relative k-means -> centroid distance
matrix -> nearest-neighbor graph -> four-parameter index. That template is a
``Signature``, whether of a probe or of an enrolled print; a stored
``TemplateRecord`` is a signature plus its id, class and enrollment time.
The store persists one text record per template plus a manifest line
``id<TAB>index_key<TAB>file``.
The manifest alone answers bucket queries, so identification scans it
without parsing every record, and opening the store raises
``FingerprintError`` on a key that ``parse_index_string`` rejects. A record
(FPREC2) holds only what cannot be derived: its id, class, enrollment time,
index key and core-relative minutiae. Reading one re-derives the centroids,
graph and key from the minutiae with the k of its key, and raises
``FingerprintError`` unless that key is the one on its INDEX line and in the
manifest. FPREC1 records, which also stored centroids and graph edges, still
read; those blocks are skipped.

``gate_trace`` walks three gates in order for one pair and returns its
``VerifyResult``, which ``verify``, ``identify`` and ``evaluate`` all read:

1. index bucket  - the probe's canonical index string must match,
2. isomorphism   - the cluster graphs must be isomorphic,
3. MHD threshold - the Modified Hausdorff distance, after aligning the
                   probe to the template by the best candidate rotation
                   about the core, must not exceed tau.

``decide`` is the one accept rule (all three gates pass) and the one test of
MHD <= tau, behind ``verify``, each ``identify`` candidate, the CLI tag and
every ``evaluate`` threshold; its verdicts are bools named by ``GATES``.
Gate 3 scores all candidate rotations (angle differences of similar-radius
point pairs, so a pure rotation aligns exactly) in one ``score_point_sets``
call on the batch of rotated probes; the winning column is, to the bit, the
reported MHD and both directed distances.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import graph
from .cluster import kmeans_fing
from .core import ArrayValue, MinutiaeSet, parse_minutiae, serialize_minutiae, to_core_relative
from .errors import DuplicateId, FingerprintError, UnknownId
from .graph import MinutiaeGraph, build_nn_graph, compute_index, dist_matrix, index_string, parse_index_string
from .matching import DEFAULT_TAU, MatchScore, check_tau, score_point_sets
from .orientation import FingerClass

DEFAULT_K = 5
ALIGN_RADIUS_BAND = 10.0

_MANIFEST = "manifest.txt"
_MANIFEST_LINE = re.compile(r"([^\t]+)\t(V(\d+)\|[^\t]*)\t([^\t]+)")  # id, index key (k first), file
_MAX_K_DIGITS = 4  # k-means over 10,000 clusters is no template any store can hold


@dataclass(frozen=True, eq=False)
class Signature(ArrayValue):
    """The template the three gates compare, derived from one impression.
    The graph, key and centroids cache what the minutiae derive with k."""

    graph: MinutiaeGraph
    index_key: str
    centroids: np.ndarray  # (k, 2) core-relative
    minutiae: MinutiaeSet  # core at (0, 0)


def compute_signature(mset: MinutiaeSet, k: int = DEFAULT_K) -> Signature:
    """Run the fine-level pipeline on one impression, about its own core."""
    clusters = kmeans_fing(mset, k)
    nn_graph = build_nn_graph(dist_matrix(clusters.centroids))
    return Signature(
        graph=nn_graph,
        index_key=index_string(compute_index(nn_graph)),
        centroids=clusters.centroids,
        minutiae=to_core_relative(mset),
    )


@dataclass(frozen=True, eq=False)
class TemplateRecord(Signature):
    """An enrolled signature: the template plus its id, class and time."""

    id: str
    class_label: FingerClass | None
    enrolled_at: str  # ISO-8601 UTC


GATES = ("index", "isomorphism", "mhd")  # the names of VerifyResult.gates, in order


@dataclass(frozen=True)
class VerifyResult:
    record_id: str
    accepted: bool
    gates: tuple[bool, bool, bool]  # each gate's verdict, named by GATES
    score: MatchScore
    rotation: float  # probe-to-template alignment angle used in gate 3

    @property
    def first_failed(self) -> str | None:
        return next((name for name, passed in zip(GATES, self.gates) if not passed), None)


def best_rotation_alignment(probe: np.ndarray, template: np.ndarray) -> tuple[float, tuple[float, float, float]]:
    """(angle, (mhd, directed_ab, directed_ba)) of the least-MHD rotation.

    The candidate rotations about the origin, all scored in one batch, are the
    identity, then angle differences of point pairs whose core distances
    differ by at most ALIGN_RADIUS_BAND; first least MHD wins.
    """
    pr = np.sqrt(probe[:, 0] ** 2 + probe[:, 1] ** 2)
    tr = np.sqrt(template[:, 0] ** 2 + template[:, 1] ** 2)
    pa = np.arctan2(probe[:, 1], probe[:, 0])
    ta = np.arctan2(template[:, 1], template[:, 0])

    close = np.abs(pr[:, None] - tr[None, :]) <= ALIGN_RADIUS_BAND
    diffs = (ta[None, :] - pa[:, None])[close]
    angles = np.concatenate(([0.0], diffs)).tolist()
    # (2, n, C): the x and y columns the kernel reads; ``.T`` is the batch.
    cos = np.fromiter(map(math.cos, angles), float, len(angles))
    sin = np.fromiter(map(math.sin, angles), float, len(angles))
    x, y = probe[:, 0, None], probe[:, 1, None]
    rotated = np.empty((2, len(probe), len(angles)))
    np.subtract(x * cos, y * sin, out=rotated[0])
    np.add(x * sin, y * cos, out=rotated[1])
    mhds, d_ab, d_ba = score_point_sets(rotated.T, template)
    best = int(np.argmin(mhds))
    return angles[best], (float(mhds[best]), float(d_ab[best]), float(d_ba[best]))


def decide(index_ok: bool, iso_ok: bool, mhd: float, tau: float) -> tuple[tuple[bool, bool, bool], bool]:
    """The accept rule: the verdicts of the gates named by ``GATES`` (keys
    match, graphs isomorphic, MHD <= tau) and whether all of them pass."""
    gates = (index_ok, iso_ok, mhd <= tau)
    return gates, all(gates)


def gate_trace(probe_sig: Signature, template: Signature, tau: float) -> VerifyResult:
    """The one result of one pair, its gates and score decided by ``decide``;
    a bad tau raises before any gate runs. The record id is left empty for the
    caller that knows it. Gate 2 looks ``is_isomorphic`` up on the ``graph``
    module at each call, so a wrapper put there sees it."""
    check_tau(tau)
    index_ok = probe_sig.index_key == template.index_key
    iso_ok = graph.is_isomorphic(probe_sig.graph, template.graph)

    angle, (mhd, d_ab, d_ba) = best_rotation_alignment(probe_sig.minutiae.coords(), template.minutiae.coords())
    gates, accepted = decide(index_ok, iso_ok, mhd, tau)
    score = MatchScore(mhd=mhd, directed_ab=d_ab, directed_ba=d_ba, accepted=accepted)
    return VerifyResult(record_id="", accepted=accepted, gates=gates, score=score, rotation=angle)


class TemplateStore:
    """Directory-backed template database. Single writer, shareable reads.

    Records are immutable once enrolled: ``enroll`` keeps the record it
    wrote, and ``get`` parses each other record file once per store object
    and hands every caller that same record from then on, so a record file
    edited behind the store's back is not seen again.
    """

    def __init__(self, directory):
        self.directory = Path(directory)  # made by the first enroll, so a read leaves none behind
        self._index: dict[str, tuple[str, str, int]] = {}  # id -> (index_key, filename, k)
        self._parsed: dict[str, TemplateRecord] = {}  # filled by enroll, and by get after a clean parse
        manifest = self.directory / _MANIFEST
        if manifest.exists():
            try:
                text = manifest.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise FingerprintError(f"manifest is not UTF-8 text: {exc}") from exc
            for number, line in enumerate(text.splitlines(), 1):
                if not line.strip():
                    continue
                fields = _MANIFEST_LINE.fullmatch(line)
                if not fields:
                    raise FingerprintError(f"manifest line {number} is not id<TAB>index_key<TAB>file")
                rec_id, key, k_digits, fname = fields.groups()
                if len(k_digits) > _MAX_K_DIGITS:
                    raise FingerprintError(f"manifest line {number}: k has more than {_MAX_K_DIGITS} digits")
                try:
                    parse_index_string(key)
                except ValueError as exc:
                    raise FingerprintError(f"manifest line {number}: {exc}") from exc
                # Only a plain file name reads a file of this store; a NUL makes open() raise ValueError.
                if fname in (".", "..") or any(ch in fname for ch in "/\\\0"):
                    raise FingerprintError(f"manifest line {number}: {fname!r} is not a file name in the store")
                self._index[rec_id] = (key, fname, int(k_digits))

    def __len__(self) -> int:
        return len(self._index)

    def ids(self) -> list[str]:
        return list(self._index)

    def bucket(self, index_key: str) -> list[str]:
        """Ids sharing an index key, straight from the manifest."""
        return [rid for rid, (key, _, _) in self._index.items() if key == index_key]

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
        # the characters it splits on; a NUL makes open() raise ValueError.
        if record_id.splitlines() != [record_id] or any(ch in record_id for ch in "\t/\\\0"):
            raise FingerprintError(f"record id {record_id!r} not storable")
        # A k of more digits would write a manifest key the store cannot open.
        if not 2 <= k < 10**_MAX_K_DIGITS:
            raise FingerprintError(f"k must lie in [2, {10**_MAX_K_DIGITS}), not {k}")
        sig = compute_signature(mset, k=k)
        enrolled_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
        record = TemplateRecord(id=record_id, class_label=class_label, enrolled_at=enrolled_at, **vars(sig))
        fname = f"{record_id}.rec"
        self.directory.mkdir(parents=True, exist_ok=True)
        (self.directory / fname).write_text(_record_text(record), encoding="utf-8")
        with (self.directory / _MANIFEST).open("a", encoding="utf-8") as fh:
            fh.write(f"{record_id}\t{record.index_key}\t{fname}\n")
        self._index[record_id] = (record.index_key, fname, k)
        self._parsed[record_id] = record
        return record

    def get(self, record_id: str) -> TemplateRecord:
        if record_id in self._parsed:
            return self._parsed[record_id]
        if record_id not in self._index:
            raise UnknownId(f"no enrolled record {record_id!r}")
        key, fname, _ = self._index[record_id]
        try:
            text = (self.directory / fname).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise FingerprintError(f"record {record_id!r} unreadable: {exc}") from exc
        record = _parse_record(text)
        if record.id != record_id:
            raise FingerprintError(f"record file {fname!r} holds id {record.id!r}, not {record_id!r}")
        if record.index_key != key:
            raise FingerprintError(f"record {record_id!r} has index key {record.index_key!r}, manifest {key!r}")
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
        return replace(gate_trace(probe_sig, record, tau), record_id=claimed_id)

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
            ks = sorted({rec_k for _, _, rec_k in self._index.values()})
            if len(ks) > 1:
                named = ", ".join(map(str, ks))
                raise FingerprintError(f"store holds templates of k = {named}; give one k (--k)")
            k = ks[0] if ks else DEFAULT_K
        probe_sig = compute_signature(probe, k=k)
        bucket = self.bucket(probe_sig.index_key)
        results = [(rid, gate_trace(probe_sig, self.get(rid), tau).score) for rid in bucket]
        results.sort(key=lambda pair: (pair[1].mhd, pair[0]))
        return results


# --- record file format -------------------------------------------------------


def _record_text(rec: TemplateRecord) -> str:
    # Records keep full float precision (17 significant digits) so a
    # verified probe sees exactly the coordinates that were enrolled; the
    # 9-digit default stays reserved for the external MIN1 interchange.
    min_block = serialize_minutiae(rec.minutiae, sig_digits=17).decode("utf-8")
    lines = [
        "FPREC2",
        f"ID {rec.id}",
        f"CLASS {rec.class_label.value if rec.class_label else '-'}",
        f"INDEX {rec.index_key}",
        f"ENROLLED {rec.enrolled_at}",
        f"MINUTIAE {len(min_block.splitlines())}",
        min_block.rstrip("\n"),
    ]
    return "\n".join(lines) + "\n"


def _parse_record(text: str) -> TemplateRecord:
    """Parse an FPREC2 (or FPREC1) record and derive its template from the
    minutiae; a record cut short, malformed anywhere, or whose INDEX is not
    the key of its minutiae raises FingerprintError, never a partial template."""
    lines = text.splitlines()
    if not lines or lines[0] not in ("FPREC1", "FPREC2"):
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
        # ASCII digits only (str.isdigit also takes "\u00b2"), and few enough for int().
        if not re.fullmatch(r"[0-9]{1,18}", count) or pos + int(count) > len(lines):
            raise FingerprintError(f"{tag} block count {count!r} is not a line count within the record")
        pos += int(count)
        return lines[pos - int(count) : pos]

    rec_id = take("ID")
    cls_text = take("CLASS")
    index_key = take("INDEX")
    enrolled_at = take("ENROLLED")
    if lines[0] == "FPREC1":  # derived blocks, never trusted
        block("CENTROIDS")
        block("EDGES")
    min_block = block("MINUTIAE")
    if pos != len(lines):
        raise FingerprintError("template record has lines after its MINUTIAE block")
    try:
        class_label = None if cls_text == "-" else FingerClass(cls_text)
        k = parse_index_string(index_key).vertex_count
    except ValueError as exc:
        raise FingerprintError(f"malformed template record: {exc}") from exc
    if k < 2:
        raise FingerprintError(f"record INDEX {index_key!r} names no k of at least 2")
    sig = compute_signature(parse_minutiae("\n".join(min_block) + "\n"), k)
    if sig.index_key != index_key:
        raise FingerprintError(f"record INDEX {index_key!r} is not the key of its minutiae, {sig.index_key!r}")
    return TemplateRecord(id=rec_id, class_label=class_label, enrolled_at=enrolled_at, **vars(sig))
