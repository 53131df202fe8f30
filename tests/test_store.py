import copy
import dataclasses
import math
import pickle
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpverify.core import (
    MAX_COORDINATE,
    CorePoint,
    MinutiaeSet,
    RigidTransform,
    apply_transform,
    parse_minutiae,
    serialize_minutiae,
    to_core_relative,
)
from fpverify.cluster import ClusterResult, kmeans_fing
from fpverify.errors import DuplicateId, FingerprintError, UnknownId
from fpverify.matching import modified_hausdorff
from fpverify.orientation import FEATURE_LEN, FeatureVector, FingerClass, GrayImage, OrientationField
from fpverify.store import (
    Signature,
    TemplateRecord,
    TemplateStore,
    _parse_record,
    _record_text,
    best_rotation_alignment,
    compute_signature,
    gate_trace,
)
from fpverify.synth import SynthConfig, gen_synthetic_minutiae, perturb_impression


@pytest.fixture
def store(tmp_path):
    return TemplateStore(tmp_path / "db")


def finger(seed, n=30):
    return gen_synthetic_minutiae(SynthConfig(n_minutiae=n, seed=seed))


def candidate_angles(probe, template, band=10.0):
    """Gate 3's rotation candidates by a plain loop: the identity, then the
    angle difference of each probe/template pair, probe point by probe point,
    whose core distances differ by at most band."""
    radii = [np.sqrt(p[:, 0] ** 2 + p[:, 1] ** 2) for p in (probe, template)]
    angles = [np.arctan2(p[:, 1], p[:, 0]) for p in (probe, template)]
    found = [0.0]
    for i in range(len(probe)):
        for j in range(len(template)):
            if abs(radii[0][i] - radii[1][j]) <= band:
                found.append(angles[1][j] - angles[0][i])
    return found


class TestEnroll:
    def test_record_fields(self, store):
        s = finger(1, n=10)
        rec = store.enroll(s, "alice", k=5, class_label=FingerClass.WHORL)
        assert rec.id == "alice"
        assert rec.index_key.startswith("V5|")
        assert len(rec.centroids) == 5
        assert math.ceil(5 / 2) <= len(rec.graph.edges) <= 5
        assert rec.minutiae.core == CorePoint(0.0, 0.0)

    def test_duplicate_id_rejected(self, store):
        store.enroll(finger(1), "a")
        with pytest.raises(DuplicateId):
            store.enroll(finger(2), "a")

    @pytest.mark.parametrize("sep", ["\r", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_id_with_line_separator_rejected(self, tmp_path, sep):
        # The manifest is split with str.splitlines; such an id would tear it.
        store = TemplateStore(tmp_path / "db")
        store.enroll(finger(1), "good")
        with pytest.raises(FingerprintError):
            store.enroll(finger(2), f"bad{sep}id")
        assert TemplateStore(tmp_path / "db").ids() == ["good"]
        assert sorted(p.name for p in (tmp_path / "db").iterdir()) == ["good.rec", "manifest.txt"]

    def test_id_with_nul_rejected(self, tmp_path):
        # open() raises ValueError on a NUL in a file name; the id check
        # turns it away first, before the store makes its directory.
        store = TemplateStore(tmp_path / "db")
        with pytest.raises(FingerprintError, match="not storable"):
            store.enroll(finger(1), "a\0b")
        assert not (tmp_path / "db").exists()

    @pytest.mark.parametrize("k", [0, 1, 10_000])
    def test_k_out_of_range_rejected_before_clustering(self, tmp_path, monkeypatch, k):
        # A k of 10,000 or more would write a V<k> key of more digits than
        # the store opens again.
        def no_clustering(*args, **kwargs):
            raise AssertionError(f"clustered with k = {k}")

        monkeypatch.setattr("fpverify.store.kmeans_fing", no_clustering)
        with pytest.raises(FingerprintError, match="k must lie"):
            TemplateStore(tmp_path / "db").enroll(finger(1), "a", k=k)
        assert not (tmp_path / "db").exists()

    def test_same_file_same_index_key(self, store):
        s = finger(3)
        r1 = store.enroll(s, "x1")
        r2 = store.enroll(s, "x2")
        assert r1.index_key == r2.index_key

    def test_translated_copy_same_index_key(self, store):
        s = finger(4)
        moved = apply_transform(s, RigidTransform(translation=(37.25, -12.5)))
        r1 = store.enroll(s, "orig")
        r2 = store.enroll(moved, "moved")
        assert r1.index_key == r2.index_key

    def test_round_trip_byte_identical(self, store, tmp_path):
        s = finger(5)
        rec = store.enroll(s, "bob", class_label=FingerClass.ARCH)
        path = store.directory / "bob.rec"
        original = path.read_bytes()
        loaded = store.get("bob")
        assert loaded.index_key == rec.index_key
        assert loaded.enrolled_at == rec.enrolled_at
        assert loaded.graph == rec.graph
        from fpverify.store import _record_text

        assert _record_text(loaded).encode() == original

    def test_store_reopens_from_manifest(self, tmp_path):
        store = TemplateStore(tmp_path / "db")
        store.enroll(finger(6), "p1")
        store.enroll(finger(7), "p2")
        reopened = TemplateStore(tmp_path / "db")
        assert sorted(reopened.ids()) == ["p1", "p2"]
        assert reopened.get("p1").id == "p1"


class TestVerify:
    def test_self_probe_accepts(self, store):
        s = finger(8)
        store.enroll(s, "self")
        result = store.verify(s, "self", tau=12.0)
        assert result.accepted
        assert all(g.passed for g in result.gates)
        assert result.score.mhd == pytest.approx(0.0, abs=1e-9)

    def test_rotated_probe_accepts_with_zero_mhd(self, store):
        s = finger(9)
        store.enroll(s, "rot")
        probe = apply_transform(
            s, RigidTransform(rotation=1.234, pivot=(s.core.x, s.core.y))
        )
        result = store.verify(probe, "rot", tau=12.0)
        assert [g.passed for g in result.gates] == [True, True, True]
        assert result.score.mhd <= 1e-9
        assert result.accepted

    def test_unknown_id(self, store):
        with pytest.raises(UnknownId):
            store.verify(finger(1), "ghost")

    def test_imposters_mostly_rejected(self, store):
        template = finger(10)
        store.enroll(template, "t")
        rejects = 0
        trials = 40
        for i in range(trials):
            result = store.verify(finger(100 + i), "t", tau=12.0)
            rejects += not result.accepted
            if not result.accepted:
                assert result.first_failed in {"index", "isomorphism", "mhd"}
        assert rejects / trials >= 0.95

    def test_trace_records_failing_gate(self, store):
        store.enroll(finger(11), "t")
        result = store.verify(finger(312), "t", tau=0.0001)
        assert not result.accepted
        assert result.first_failed is not None

    def test_coordinates_at_the_parse_bound_keep_every_distance_finite(self, store):
        # MIN1 admits a core up to MAX_COORDINATE from the origin and minutiae up
        # to MAX_COORDINATE from the core. Every squared distance stays finite
        # there, so no RuntimeWarning (an error under pytest) is raised.
        rng = np.random.default_rng(8)
        offsets = rng.uniform(-1.0, 1.0, size=(12, 2)) * MAX_COORDINATE
        points = (offsets + (MAX_COORDINATE, -MAX_COORDINATE)).tolist()
        lines = [f"CORE {MAX_COORDINATE} {-MAX_COORDINATE}"] + [f"{x!r} {y!r} 0.5 E" for x, y in points]
        mset = parse_minutiae("\n".join(["MIN1", *lines]) + "\n")
        store.enroll(mset, "far", k=3)
        result = store.verify(mset, "far")
        assert result.accepted and result.score.mhd == 0.0
        assert store.identify(mset, k=3)[0][0] == "far"

    def test_verify_is_deterministic(self, store):
        s = finger(16)
        store.enroll(s, "d")
        probe = perturb_impression(s, SynthConfig(jitter_sigma=1.0, seed=55))
        r1 = store.verify(probe, "d", tau=12.0)
        r2 = store.verify(probe, "d", tau=12.0)
        assert r1 == r2


class TestIdentify:
    def test_single_record_match(self, store):
        s = finger(12)
        store.enroll(s, "only")
        matches = store.identify(s, tau=12.0)
        assert matches[0][0] == "only"
        assert matches[0][1].accepted is True

    def test_empty_bucket_is_valid(self, store):
        # Enroll with k=5 then probe with k=2: vertex counts differ, so the
        # bucket cannot match.
        store.enroll(finger(13), "a", k=5)
        matches = store.identify(finger(13), tau=12.0, k=2)
        assert matches == []

    def test_two_copies_of_same_finger_closest_first(self, store):
        # Two impressions of one finger land in the same bucket; the probe
        # derived from the first impression scores a lower MHD against it.
        s = finger(14)
        second = perturb_impression(s, SynthConfig(jitter_sigma=2.0, seed=98))
        store.enroll(s, "first", k=3)
        store.enroll(second, "second", k=3)
        probe = perturb_impression(s, SynthConfig(jitter_sigma=0.2, seed=99))
        matches = store.identify(probe, tau=12.0, k=3)
        assert {m[0] for m in matches} == {"first", "second"}
        mhds = [m[1].mhd for m in matches]
        assert mhds == sorted(mhds)
        assert matches[0][0] == "first"

    def test_bucket_soundness_from_manifest(self, store):
        # identify never misses a record whose graph is isomorphic to the
        # probe's: isomorphic => equal index => same bucket.
        ids = []
        for i in range(8):
            s = finger(200 + i)
            store.enroll(s, f"f{i}")
            ids.append((f"f{i}", s))
        from fpverify.graph import is_isomorphic

        for rid, s in ids:
            sig = compute_signature(s, 5)
            candidates = {m for m, _ in store.identify(s, tau=1e9)}
            for other_id, other_s in ids:
                other_sig = compute_signature(other_s, 5)
                if is_isomorphic(sig.graph, other_sig.graph):
                    assert other_id in candidates


class TestEvalAgreesWithStore:
    def test_gate_trace_of_signatures_is_verify_of_the_record(self, store):
        # eval compares two fresh signatures; verify compares a fresh probe
        # signature with a record read back from its file. Both must give the
        # same result, but for the record id, for accepted and rejected pairs alike.
        accepted = set()
        for seed, k in [(0, 3), (1, 3), (2, 5), (3, 5), (4, 7)]:
            template = finger(400 + seed)
            store.enroll(template, f"t{seed}", k=k)
            genuine = perturb_impression(template, SynthConfig(seed=500 + seed, jitter_sigma=1.0))
            for probe in (template, genuine, finger(600 + seed)):
                trace = gate_trace(compute_signature(probe, k), compute_signature(template, k), 12.0)
                result = store.verify(probe, f"t{seed}", tau=12.0)
                assert trace.record_id == ""
                assert dataclasses.replace(trace, record_id=f"t{seed}") == result
                accepted.add(result.accepted)
        assert accepted == {True, False}


class TestAlignment:
    def test_recovers_known_rotation(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-100, 100, size=(20, 2))
        angle = 2.1
        c, s = math.cos(angle), math.sin(angle)
        rotated = pts @ np.array([[c, s], [-s, c]])  # rotate by -angle
        best, mhd = best_rotation_alignment(rotated, pts)
        assert mhd <= 1e-9
        assert math.isclose(math.cos(best), math.cos(angle), abs_tol=1e-6)

    def test_identity_candidate_always_tried(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-3.0, 2.0]])
        best, mhd = best_rotation_alignment(pts, pts)
        assert mhd == 0.0

    def test_searched_mhd_is_reported_mhd(self, store):
        # The MHD the rotation search minimizes is the float that
        # modified_hausdorff, verify and identify report for the same pair.
        template = finger(1)
        probe = perturb_impression(template, SynthConfig(seed=1001, jitter_sigma=1.0))
        probe_pts = to_core_relative(probe).coords()
        angle, mhd = best_rotation_alignment(probe_pts, to_core_relative(template).coords())
        c, s = math.cos(angle), math.sin(angle)
        x, y = probe_pts[:, 0], probe_pts[:, 1]
        rotated = np.column_stack((x * c - y * s, x * s + y * c))
        assert modified_hausdorff(rotated, to_core_relative(template).coords()) == mhd

        store.enroll(template, "t", k=3)  # k=3: one bucket for every finger
        result = store.verify(probe, "t", tau=12.0)
        assert result.rotation == angle
        assert result.score.mhd == mhd
        assert dict(store.identify(probe, tau=12.0, k=3))["t"].mhd == mhd

    def test_chunk_size_does_not_change_the_result(self, monkeypatch):
        # The kernel takes the template a block of points at a time; any
        # budget, one point per block or all of them, picks the same angle and
        # MHD as a plain scan that takes the first least MHD over the angles.
        import fpverify.matching as matching_module

        pairs = []
        for seed in range(6):
            template = to_core_relative(finger(seed)).coords()
            probe = perturb_impression(finger(seed), SynthConfig(seed=2000 + seed, jitter_sigma=1.0))
            pairs.append((to_core_relative(probe).coords(), template))
        results = []
        for entries in (1, 900 * 7, matching_module.TABLE_ENTRIES, 10**9):
            monkeypatch.setattr(matching_module, "TABLE_ENTRIES", entries)
            results.append([best_rotation_alignment(p, t) for p, t in pairs])
        assert all(r == results[0] for r in results)

        for (probe, template), found in zip(pairs, results[0]):
            best = None
            for angle in candidate_angles(probe, template):
                c, s = math.cos(angle), math.sin(angle)
                x, y = probe[:, 0], probe[:, 1]
                rotated = np.column_stack((x * c - y * s, x * s + y * c))
                mhd = modified_hausdorff(rotated, template)
                if best is None or mhd < best[1]:
                    best = (angle, mhd)
            assert found == best

    @pytest.mark.parametrize("entries", [1, 4096])
    @pytest.mark.parametrize("candidates", [1, 2])
    def test_one_or_two_candidates_equal_a_brute_force_loop(self, monkeypatch, entries, candidates):
        # Probe radii 100, 125, ..., 825; template radii from 900 on, so no
        # pair lies in the radius band, plus for two candidates one template
        # point at radius 103, in the band of the probe's first point alone.
        # One candidate gives one probe column, which a pairwise sum would
        # read to another ulp; one table entry forces one template point per block.
        import fpverify.matching as matching_module

        monkeypatch.setattr(matching_module, "TABLE_ENTRIES", entries)
        rng = np.random.default_rng(candidates)

        def ring(radii):
            angles = rng.uniform(-math.pi, math.pi, len(radii))
            return np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))

        probe = ring(100.0 + 25.0 * np.arange(30))
        template = ring(np.concatenate(([103.0] if candidates == 2 else [], 900.0 + 25.0 * np.arange(29))))
        angles = candidate_angles(probe, template)
        assert len(angles) == candidates

        def mhd(a, b):
            means = []
            for src, dst in ((a, b), (b, a)):
                total = 0.0
                for x, y in src:
                    total += min(math.sqrt((x - u) * (x - u) + (y - v) * (y - v)) for u, v in dst)
                means.append(total / len(src))
            return max(means)

        best = None
        for angle in angles:
            c, s = math.cos(angle), math.sin(angle)
            rotated = [(x * c - y * s, x * s + y * c) for x, y in probe.tolist()]
            score = mhd(rotated, template.tolist())
            if best is None or score < best[1]:
                best = (angle, score)
        assert best_rotation_alignment(probe, template) == best

    def test_exact_tie_takes_first_candidate(self):
        # Candidates [0, 0, pi/2] all rotate the probe's one point onto the
        # origin, so all three score MHD 2.5; the first one wins.
        probe = np.array([[0.0, 0.0]])
        template = np.array([[0.0, 0.0], [0.0, 5.0]])
        assert candidate_angles(probe, template) == [0.0, 0.0, math.pi / 2]
        assert best_rotation_alignment(probe, template) == (0.0, 2.5)


class TestRecordParsing:
    def test_every_cut_of_a_record_raises(self, store):
        # A record cut at any shorter length raises FingerprintError; it
        # never parses as a shorter template or escapes as another error.
        mset = parse_minutiae(serialize_minutiae(finger(1)))
        store.enroll(mset, "a", k=5)
        path = store.directory / "a.rec"
        full = path.read_bytes()
        for n in range(len(full)):
            path.write_bytes(full[:n])
            with pytest.raises(FingerprintError):
                TemplateStore(store.directory).get("a")
        path.write_bytes(full)
        reopened = TemplateStore(store.directory).get("a")
        assert np.array_equal(reopened.minutiae.coords(), to_core_relative(mset).coords())

    @pytest.mark.parametrize(
        "tail, message",
        [
            (b"b\tV5|D1\n", "manifest line 2"),
            (b"\xff\n", "UTF-8"),
            (b"b\tV5|D2,2,2,1,1|H9|M1:2,2:3\tb.rec\n", "manifest line 2: not a canonical index string"),
            (b"b\tV5|x\tb.rec\n", "manifest line 2: not a canonical index string"),
        ],
    )
    def test_malformed_manifest_raises(self, store, tail, message):
        store.enroll(finger(1), "a")
        with (store.directory / "manifest.txt").open("ab") as fh:
            fh.write(tail)
        with pytest.raises(FingerprintError, match=message):
            TemplateStore(store.directory)

    @pytest.mark.parametrize("fname", ["/etc/hostname", "../outside.rec", "..", "sub/a.rec", "a\x00.rec"])
    def test_manifest_file_outside_the_store_raises(self, store, fname):
        # Each name would have get() read a path other than a file of the store directory.
        store.enroll(finger(1), "a")
        (store.directory.parent / "outside.rec").write_text((store.directory / "a.rec").read_text())
        manifest = store.directory / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("\ta.rec", f"\t{fname}"))
        with pytest.raises(FingerprintError, match="not a file name in the store"):
            TemplateStore(store.directory)

    def test_manifest_k_of_too_many_digits_raises(self, store):
        # int() of more than 4,300 digits raises ValueError, not FingerprintError.
        store.enroll(finger(1), "a")
        with (store.directory / "manifest.txt").open("a") as fh:
            fh.write(f"b\tV{'5' * 5000}|x\tb.rec\n")
        with pytest.raises(FingerprintError, match="manifest line 2: k has more than 4 digits"):
            TemplateStore(store.directory)

    def test_missing_record_file_raises(self, store):
        store.enroll(finger(1), "a")
        (store.directory / "a.rec").unlink()
        with pytest.raises(FingerprintError, match="'a'"):
            TemplateStore(store.directory).get("a")

    def test_each_record_parsed_once_per_store(self, store, monkeypatch):
        import fpverify.store as store_module

        enrolled = store.enroll(finger(1), "a", k=5)
        calls = []
        parse = store_module._parse_record
        monkeypatch.setattr(store_module, "_parse_record", lambda text: calls.append(1) or parse(text))
        # The enrolling store keeps the record it wrote; it parses nothing.
        assert store.get("a") is enrolled and store.identify(finger(1), k=5)[0][0] == "a"
        assert calls == []
        reopened = TemplateStore(store.directory)
        first = reopened.get("a")
        assert reopened.get("a") is first and reopened.identify(finger(1), k=5)[0][0] == "a"
        assert len(calls) == 1
        assert first.minutiae == enrolled.minutiae

    def test_record_holding_another_id_raises(self, store):
        store.enroll(finger(1), "f0")
        store.enroll(finger(2), "f1")
        (store.directory / "f0.rec").write_bytes((store.directory / "f1.rec").read_bytes())
        with pytest.raises(FingerprintError, match="'f1', not 'f0'"):
            TemplateStore(store.directory).get("f0")


# Written by the FPREC1 writer: 12-minutia synthetic fingers of seeds 1, 2 and
# 3, enrolled at k=5 as p1 (whorl), p2 (no class) and p3 (arch).
FPREC1_STORE = Path(__file__).parent / "data" / "fprec1_store"
FPREC1_FINGERS = {"p1": (1, FingerClass.WHORL), "p2": (2, None), "p3": (3, FingerClass.ARCH)}


class TestRecordFormat:
    def test_record_is_fprec2_and_round_trips(self, store):
        store.enroll(finger(5), "bob", k=5, class_label=FingerClass.ARCH)
        text = (store.directory / "bob.rec").read_text()
        assert text.startswith("FPREC2\nID bob\nCLASS arch\nINDEX V5|")
        assert "CENTROIDS" not in text and "EDGES" not in text
        assert _record_text(TemplateStore(store.directory).get("bob")) == text

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_reopened_record_is_the_enrolled_one(self, store, k):
        enrolled = store.enroll(finger(20 + k), "a", k=k, class_label=FingerClass.WHORL)
        got = TemplateStore(store.directory).get("a")
        assert got.centroids.tobytes() == enrolled.centroids.tobytes()
        assert (got.graph, got.index_key, got.minutiae) == (enrolled.graph, enrolled.index_key, enrolled.minutiae)
        assert (got.id, got.class_label, got.enrolled_at) == ("a", FingerClass.WHORL, enrolled.enrolled_at)

    def test_fprec1_store_still_opens(self, tmp_path):
        old = TemplateStore(shutil.copytree(FPREC1_STORE, tmp_path / "old"))
        assert sorted(old.ids()) == sorted(FPREC1_FINGERS)
        for rid, (seed, class_label) in FPREC1_FINGERS.items():
            rec = old.get(rid)
            sig = compute_signature(finger(seed, n=12), k=5)
            assert (rec.id, rec.class_label, rec.index_key) == (rid, class_label, sig.index_key)
            assert rec.graph == sig.graph and np.array_equal(rec.centroids, sig.centroids)
            assert np.array_equal(rec.minutiae.xy, sig.minutiae.xy)
            # The derived centroids are, to the bit, the ones the old record stored.
            lines = (FPREC1_STORE / f"{rid}.rec").read_text().splitlines()
            at = lines.index("CENTROIDS 5")
            stored = np.array([[float(v) for v in line.split()] for line in lines[at + 1 : at + 6]])
            assert stored.tobytes() == rec.centroids.tobytes()
            assert lines[4] == f"ENROLLED {rec.enrolled_at}"
        assert old.identify(finger(1, n=12), k=5)[0][0] == "p1"

    def test_record_index_that_is_not_its_key_raises(self, store):
        store.enroll(finger(1, n=12), "a", k=5)
        path = store.directory / "a.rec"
        text = path.read_text()
        key = text.splitlines()[3][len("INDEX ") :]
        assert key != "V5|D2,2,2,1,1|H2|M1:2,2:3"
        path.write_text(text.replace(key, "V5|D2,2,2,1,1|H2|M1:2,2:3"))
        with pytest.raises(FingerprintError, match="not the key of its minutiae"):
            TemplateStore(store.directory).get("a")

    def test_manifest_key_that_is_not_the_record_key_raises(self, store):
        rec = store.enroll(finger(1, n=12), "a", k=5)
        manifest = store.directory / "manifest.txt"
        manifest.write_text(manifest.read_text().replace(rec.index_key, "V5|D2,2,2,1,1|H2|M1:2,2:3"))
        with pytest.raises(FingerprintError, match="manifest"):
            TemplateStore(store.directory).get("a")

    @pytest.mark.parametrize("k", ["0", "1", "99", "-5", "x", "9" * 5000])
    def test_index_without_a_usable_k_raises(self, k):
        text = (FPREC1_STORE / "p1.rec").read_text().replace("INDEX V5|", f"INDEX V{k}|")
        with pytest.raises(FingerprintError):
            _parse_record(text)

    @pytest.mark.parametrize("count", ["\u00b2", "9" * 5000], ids=["superscript-2", "5000-digits"])
    @pytest.mark.parametrize("tag", ["MINUTIAE", "CENTROIDS"])
    def test_block_count_that_is_not_1_to_18_ascii_digits_raises(self, tag, count):
        # "\u00b2".isdigit() holds but int() refuses it; int() also refuses
        # more than 4,300 digits. MINUTIAE is read from an FPREC2 record,
        # CENTROIDS from an FPREC1 one.
        old = (FPREC1_STORE / "p1.rec").read_text()
        text = old if tag == "CENTROIDS" else _record_text(_parse_record(old))
        count_line = next(line for line in text.splitlines() if line.startswith(tag + " "))
        with pytest.raises(FingerprintError, match=f"{tag} block"):
            _parse_record(text.replace(count_line, f"{tag} {count}"))

    def test_non_canonical_index_raises_before_clustering(self, monkeypatch):
        # The INDEX line's k is read by parse_index_string, so a key that is
        # not canonical raises before k-means runs at its V field.
        def no_clustering(*args, **kwargs):
            raise AssertionError("clustered a record whose INDEX is not canonical")

        monkeypatch.setattr("fpverify.store.kmeans_fing", no_clustering)
        text = (FPREC1_STORE / "p1.rec").read_text()
        index_line = next(line for line in text.splitlines() if line.startswith("INDEX "))
        with pytest.raises(FingerprintError, match="not a canonical index string"):
            _parse_record(text.replace(index_line, "INDEX V5|D9|H9|M9:1"))


def _mutable_lines():
    old = (FPREC1_STORE / "p1.rec").read_text()
    return old.splitlines(), _record_text(_parse_record(old)).splitlines()


RECORD_LINES = _mutable_lines()  # an FPREC1 and an FPREC2 record
ODD_TOKENS = ["0", "-1", "1e300", "nan", "inf", "V0|", "V1|D1|H1|M1:1", "V99|", "FPREC2", "MINUTIAE", "CORE", "E"]


@st.composite
def mutated_records(draw):
    """A valid record with lines dropped, duplicated or replaced, or tokens swapped."""
    lines = list(draw(st.sampled_from(RECORD_LINES)))
    every_line = [line for record in RECORD_LINES for line in record]
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "replace", "swap", "token"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "replace":
            lines[i] = draw(st.sampled_from(every_line) | st.text(max_size=30))
        else:
            tokens = lines[i].split(" ")
            a = draw(st.integers(0, len(tokens) - 1))
            if op == "swap":
                b = draw(st.integers(0, len(tokens) - 1))
                tokens[a], tokens[b] = tokens[b], tokens[a]
            else:
                tokens[a] = draw(st.sampled_from(ODD_TOKENS) | st.text(max_size=8))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


class TestFuzz:
    @given(text=mutated_records())
    @settings(max_examples=300, deadline=None)
    @example(text="\n".join(RECORD_LINES[1]).replace("INDEX V5|", "INDEX V0|") + "\n")
    @example(text="\n".join(RECORD_LINES[1]).replace("INDEX V5|", "INDEX V1|") + "\n")
    @example(text="\n".join(RECORD_LINES[1]).replace("INDEX V5|", "INDEX V99|") + "\n")
    def test_mutated_record_parses_or_raises_fingerprint_error(self, text):
        try:
            record = _parse_record(text)
        except FingerprintError:
            return
        assert isinstance(record, TemplateRecord)
        assert record.index_key == compute_signature(record.minutiae, len(record.centroids)).index_key

    @given(
        data=st.binary(max_size=120)
        | st.lists(
            st.lists(st.sampled_from(["a", "V5|", "V7|D1", "\t", "\n", "\r", "a.rec", "|", "\x85", "\xff", " "])),
            max_size=4,
        ).map(lambda lines: "\n".join("".join(parts) for parts in lines).encode("utf-8", "surrogateescape"))
    )
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_manifest_bytes_open_or_raise_fingerprint_error(self, data):
        with tempfile.TemporaryDirectory() as directory:
            (Path(directory) / "manifest.txt").write_bytes(data)
            try:
                store = TemplateStore(directory)
            except FingerprintError:
                return
            assert len(store.ids()) == len(store)


def _arrays(value):
    """Every array a value holds, through its dataclass fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))


VALUES = {
    "MinutiaeSet": lambda: finger(1),
    "GrayImage": lambda: GrayImage(np.arange(12).reshape(3, 4)),
    "OrientationField": lambda: OrientationField(np.full((2, 3), 0.5), np.full((2, 3), 0.25)),
    "FeatureVector": lambda: FeatureVector(np.full(FEATURE_LEN, 0.5), np.ones(FEATURE_LEN), FingerClass.ARCH),
    "ClusterResult": lambda: kmeans_fing(finger(1), 5),
    "Signature": lambda: compute_signature(finger(1)),
    "TemplateRecord": lambda: TemplateRecord(
        **vars(compute_signature(finger(1))), id="a", class_label=FingerClass.WHORL, enrolled_at="2010-01-01"
    ),
}


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))])
@pytest.mark.parametrize("name", list(VALUES))
def test_copies_keep_read_only_arrays_in_every_value_type(name, clone):
    # A copy or an unpickled value is rebuilt through its constructor.
    value = VALUES[name]()
    other = clone(value)
    assert other == value
    arrays = list(_arrays(other))
    assert [a.dtype for a in arrays] == [a.dtype for a in _arrays(value)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    # One array element changed makes an unequal value.
    field = next(f.name for f in dataclasses.fields(other) if isinstance(getattr(other, f.name), np.ndarray))
    changed = getattr(other, field).copy()
    changed.flat[0] += 1
    assert dataclasses.replace(other, **{field: changed}) != value


def _signature_args():
    sig = compute_signature(finger(1))
    return [sig.graph, sig.index_key, np.array(sig.centroids), sig.minutiae]


# Each value type and the arguments of a fresh value, its arrays writable.
GIVEN = {
    "MinutiaeSet": (MinutiaeSet, lambda: [None, CorePoint(0.0, 0.0), np.ones((2, 2)), np.zeros(2), ["E", "B"]]),
    "GrayImage": (GrayImage, lambda: [np.arange(12, dtype=np.uint8).reshape(3, 4)]),
    "OrientationField": (OrientationField, lambda: [np.full((2, 3), 0.5), np.full((2, 3), 0.25)]),
    "FeatureVector": (FeatureVector, lambda: [np.full(FEATURE_LEN, 0.5), np.full(FEATURE_LEN, 0.25)]),
    "ClusterResult": (ClusterResult, lambda: [np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]), 0.0, 1]),
    "Signature": (Signature, _signature_args),
    "TemplateRecord": (TemplateRecord, lambda: [*_signature_args(), "a", None, "2010-01-01"]),
}


@pytest.mark.parametrize("name", list(GIVEN))
def test_value_types_copy_the_writable_arrays_they_are_given(name):
    # A value owns its arrays: the caller's stay writable, and writing to
    # them afterwards leaves the value as it was built.
    cls, make_args = GIVEN[name]
    args = make_args()
    value = cls(*args)
    given = [a for a in args if isinstance(a, np.ndarray)]
    assert given and all(a.flags.writeable for a in given)
    for a in given:
        a.flat[0] += 1
    assert value == cls(*make_args())


def _read_only_view(a):
    view = a.view()
    view.setflags(write=False)
    return view


@pytest.mark.parametrize("name", list(GIVEN))
def test_value_types_copy_read_only_views_of_writable_arrays(name):
    # A read-only view shares the memory of its writable base, so the value
    # copies it too: writing to the base afterwards leaves the value as built.
    cls, make_args = GIVEN[name]
    args = make_args()
    value = cls(*(_read_only_view(a) if isinstance(a, np.ndarray) else a for a in args))
    for a in args:
        if isinstance(a, np.ndarray):
            a.flat[0] += 1
    assert value == cls(*make_args())
