"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

Tolerances are pinned here, not configurable: exact (bitwise / byte) where
stated, 1e-9 for geometric residues, and the calibrated rate targets for the
end-to-end scenarios.
"""

import itertools
import math
import time

import numpy as np
import pytest

from fpverify.cluster import kmeans_fing
from fpverify.core import RigidTransform, apply_transform
from fpverify.evaluate import ScenarioConfig, compute_far, report_at, run_trials
from fpverify.graph import MinutiaeGraph, build_nn_graph, compute_index, dist_matrix, index_string, is_isomorphic
from fpverify.matching import directed_hausdorff, hausdorff, modified_hausdorff
from fpverify.orientation import FEATURE_LEN, FeatureVector, FingerClass, extract_feature_vector
from fpverify.som import InitMode, TrainConfig, classify, train_msom, train_som
from fpverify.store import compute_signature
from fpverify.synth import (
    SynthConfig,
    degrade_feature_vector,
    gen_synthetic_minutiae,
    gen_synthetic_orientation,
)

RESULTS = []


def record(name, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}" + (f" - {detail}" if detail else "")
    print(line)
    RESULTS.append(line)
    assert passed, line


def pipeline_index(mset, k=5):
    return compute_signature(mset, k=k).index_key


# --- criterion 1: translation leaves the index byte-identical ----------------


def test_criterion_01_translation_invariance():
    started = time.time()
    rng = np.random.default_rng(1001)
    identical = 0
    for i in range(1000):
        s = gen_synthetic_minutiae(SynthConfig(n_minutiae=30, seed=i))
        t = RigidTransform(
            translation=(float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500)))
        )
        if pipeline_index(s) == pipeline_index(apply_transform(s, t)):
            identical += 1
    elapsed = time.time() - started
    record(
        "criterion 1: translation invariance of the index",
        identical == 1000 and elapsed < 10.0,
        f"{identical}/1000 byte-identical in {elapsed:.1f}s",
    )


# --- criterion 2: rotation about the core leaves the index byte-identical ----


def tie_free(mset, min_gap=1e-6):
    pts = mset.coords() - (mset.core.x, mset.core.y)
    radii = np.sort(np.sqrt((pts**2).sum(axis=1)))
    if np.min(np.diff(radii)) <= min_gap:
        return False
    res = kmeans_fing(mset, 5)
    d = dist_matrix(res.centroids).copy()
    np.fill_diagonal(d, np.inf)
    two = np.partition(d, 1, axis=1)[:, :2]
    return float(np.min(two[:, 1] - two[:, 0])) > min_gap


def test_criterion_02_rotation_invariance():
    started = time.time()
    rng = np.random.default_rng(2002)
    identical = 0
    preserved = 0
    trials = 0
    seed = 0
    while trials < 1000:
        s = gen_synthetic_minutiae(SynthConfig(n_minutiae=30, seed=700_000 + seed))
        seed += 1
        if not tie_free(s):
            continue
        trials += 1
        angle = float(rng.uniform(0.0, 2 * math.pi))
        rotated = apply_transform(
            s, RigidTransform(rotation=angle, pivot=(s.core.x, s.core.y))
        )
        r1 = kmeans_fing(s, 5)
        r2 = kmeans_fing(rotated, 5)
        g1 = build_nn_graph(dist_matrix(r1.centroids))
        g2 = build_nn_graph(dist_matrix(r2.centroids))
        if index_string(compute_index(g1)) == index_string(compute_index(g2)):
            identical += 1
        d1 = dist_matrix(r1.centroids)
        d2 = dist_matrix(r2.centroids)
        if np.max(np.abs(d1 - d2)) <= 1e-9:
            preserved += 1
    elapsed = time.time() - started
    record(
        "criterion 2: rotation invariance of the index",
        identical == 1000 and preserved == 1000,
        f"{identical}/1000 identical, {preserved}/1000 centroid distances within 1e-9, {elapsed:.1f}s",
    )


# --- criterion 3: exact agreement with the brute-force distance oracle -------


def oracle_directed(m_pts, n_pts):
    worst = 0.0
    for mx, my in m_pts:
        best = math.inf
        for nx, ny in n_pts:
            dx, dy = mx - nx, my - ny
            d = math.sqrt(dx * dx + dy * dy)
            if d < best:
                best = d
        if best > worst:
            worst = best
    return worst


def oracle_directed_mean(m_pts, n_pts):
    total = 0.0
    for mx, my in m_pts:
        best = math.inf
        for nx, ny in n_pts:
            dx, dy = mx - nx, my - ny
            d = math.sqrt(dx * dx + dy * dy)
            if d < best:
                best = d
        total += best
    return total / len(m_pts)


def test_criterion_03_hausdorff_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(3003)
    exact = 0
    for _ in range(1000):
        a = rng.uniform(-250, 250, size=(int(rng.integers(1, 51)), 2))
        b = rng.uniform(-250, 250, size=(int(rng.integers(1, 51)), 2))
        al, bl = a.tolist(), b.tolist()
        h_ab = oracle_directed(al, bl)
        h_ba = oracle_directed(bl, al)
        ok = (
            directed_hausdorff(a, b) == h_ab
            and directed_hausdorff(b, a) == h_ba
            and hausdorff(a, b) == max(h_ab, h_ba)
            and modified_hausdorff(a, b)
            == max(oracle_directed_mean(al, bl), oracle_directed_mean(bl, al))
        )
        exact += ok
    elapsed = time.time() - started
    record(
        "criterion 3: brute-force oracle equality (h, H, MHD)",
        exact == 1000 and elapsed < 5.0,
        f"{exact}/1000 exact in {elapsed:.1f}s",
    )


# --- criterion 4: a single outlier blows up Hausdorff but not MHD ------------


def test_criterion_04_single_outlier_robustness():
    rng = np.random.default_rng(4004)
    good = 0
    for _ in range(200):
        n = int(rng.integers(5, 25))
        base = rng.uniform(-60, 60, size=(n, 2))
        diffs = base[:, None, :] - base[None, :, :]
        diameter = float(np.sqrt((diffs**2).sum(axis=2)).max())
        anchor = base[int(rng.integers(0, n))]
        d = float(rng.uniform(2.0, 3.0)) * diameter
        phi = float(rng.uniform(0, 2 * math.pi))
        outlier = (anchor[0] + d * math.cos(phi), anchor[1] + d * math.sin(phi))
        probe = np.vstack([base, outlier])

        h = directed_hausdorff(probe, base)
        outlier_min = oracle_directed([outlier], base.tolist())
        mhd_increase = modified_hausdorff(probe, base)  # was 0 without outlier
        ok = h >= d - diameter - 1e-9 and mhd_increase == outlier_min / len(probe)
        good += ok
    record(
        "criterion 4: single-outlier robustness (max vs mean)",
        good == 200,
        f"{good}/200 trials satisfied both bounds",
    )


# --- criterion 5: isomorphism agrees with the exhaustive permutation oracle --


def connected_bitmask(n, bits, slots):
    adj = [set() for _ in range(n)]
    for b, (i, j) in enumerate(slots):
        if bits >> b & 1:
            adj[i].add(j)
            adj[j].add(i)
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def enumerate_connected_classes(max_n=6):
    """One representative per isomorphism class of connected graphs.

    The canonical form minimizes the edge bitmask over all vertex
    permutations, i.e. the oracle is the full n! permutation scan.
    """
    classes = []
    for n in range(1, max_n + 1):
        slots = list(itertools.combinations(range(n), 2))
        ns = len(slots)
        slot_idx = {e: i for i, e in enumerate(slots)}
        perm_maps = np.array(
            [
                [slot_idx[tuple(sorted((p[i], p[j])))] for (i, j) in slots]
                for p in itertools.permutations(range(n))
            ],
            dtype=np.int64,
        ).reshape(-1, max(ns, 1))
        pow2 = 1 << np.arange(ns, dtype=np.int64)
        reps = {}
        for bits in range(1 << ns):
            if not connected_bitmask(n, bits, slots):
                continue
            if ns == 0:
                canon = 0
            else:
                vec = np.array([(bits >> b) & 1 for b in range(ns)], dtype=np.int64)
                canon = int((vec[perm_maps] * pow2).sum(axis=1).min())
            reps.setdefault(canon, bits)
        for canon, bits in reps.items():
            edges = frozenset(slots[b] for b in range(ns) if bits >> b & 1)
            classes.append((n, canon, MinutiaeGraph(vertices=tuple(range(n)), edges=edges)))
    return classes


def relabeled(g, perm):
    return MinutiaeGraph(
        vertices=tuple(range(len(g.vertices))),
        edges=frozenset((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in g.edges),
    )


def test_criterion_05_isomorphism_oracle():
    started = time.time()
    classes = enumerate_connected_classes(6)
    counts = {}
    for n, _, _ in classes:
        counts[n] = counts.get(n, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}

    rng = np.random.default_rng(5005)
    checked = disagreements = 0
    for i, (n1, c1, g1) in enumerate(classes):
        for n2, c2, g2 in classes[i:]:
            oracle_says = n1 == n2 and c1 == c2
            h = relabeled(g2, rng.permutation(n2).tolist())
            if is_isomorphic(g1, h) != oracle_says:
                disagreements += 1
            checked += 1

    c6 = MinutiaeGraph(
        vertices=tuple(range(6)),
        edges=frozenset((i, (i + 1) % 6) if i < (i + 1) % 6 else ((i + 1) % 6, i) for i in range(6)),
    )
    two_triangles = MinutiaeGraph(
        vertices=tuple(range(6)),
        edges=frozenset([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    )
    same_index = index_string(compute_index(c6)) == index_string(compute_index(two_triangles))
    counterexample_ok = same_index and not is_isomorphic(c6, two_triangles)

    elapsed = time.time() - started
    record(
        "criterion 5: exhaustive isomorphism oracle on <=6 vertices",
        disagreements == 0 and counterexample_ok,
        f"{checked} class pairs, 0 disagreements, C6 vs 2xC3 distinguished, {elapsed:.1f}s",
    )


# --- criterion 6: certainty weighting never hurts (ordering property) --------


def build_orientation_dataset(n_per_class, seed0):
    vecs = []
    for ci, cls in enumerate(FingerClass):
        for j in range(n_per_class):
            field, core = gen_synthetic_orientation(
                SynthConfig(finger_class=cls, seed=seed0 + ci * 1000 + j)
            )
            fv = extract_feature_vector(field, core)
            vecs.append(
                FeatureVector(fv.directions, fv.certainties, class_label=cls)
            )
    return vecs


def accuracy(som_map, vectors, weighted):
    hits = 0
    for v in vectors:
        label, _ = classify(som_map, v.directions, v.certainties if weighted else None)
        hits += label is v.class_label
    return hits / len(vectors)


def test_criterion_06_weighted_map_ordering():
    started = time.time()
    train = build_orientation_dataset(12, 0)  # 60 vectors
    test = build_orientation_dataset(4, 500_000)  # 20 vectors

    clean = train_som(train, 10, TrainConfig(epochs=40, seed=0))
    clean_acc = accuracy(clean, test, weighted=False)

    wins = 0
    details = []
    for seed in range(10):
        dtrain = [degrade_feature_vector(v, 0.4, seed * 10_000 + i) for i, v in enumerate(train)]
        dtest = [degrade_feature_vector(v, 0.4, seed * 20_000 + i + 777) for i, v in enumerate(test)]
        cfg = TrainConfig(epochs=40, seed=seed)
        a_som = accuracy(train_som(dtrain, 10, cfg), dtest, weighted=False)
        a_msom = accuracy(train_msom(dtrain, 10, cfg), dtest, weighted=True)
        wins += a_msom >= a_som
        details.append(f"{a_som:.2f}/{a_msom:.2f}")
    elapsed = time.time() - started
    record(
        "criterion 6: clean accuracy >= 90% and weighted >= plain under degradation",
        clean_acc >= 0.90 and wins >= 8 and elapsed < 120.0,
        f"clean {clean_acc:.2f}, weighted wins {wins}/10 ({', '.join(details)}), {elapsed:.0f}s",
    )


# --- criterion 7: FAR formula and the imposter scenario ----------------------


def test_criterion_07_far_formula_and_scenario():
    exact = (
        compute_far(0, 100) == 0.0
        and compute_far(5, 100) == 5.0
        and compute_far(100, 100) == 100.0
        and compute_far(7, 7) == 100.0
        and compute_far(1, 3) == 1 / 3 * 100.0
    )

    scenario = ScenarioConfig(
        seed=77, fingers=20, n_minutiae=30, k=3, genuine_pairs=0, imposter_pairs=200
    )
    outcomes = run_trials(scenario)
    at_default = report_at(outcomes, scenario.tau)
    far_ok = at_default.far_percent < 20.0

    taus = [0.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 40.0, 80.0]
    fars = [report_at(outcomes, t).far_percent for t in taus]
    monotone = all(a <= b for a, b in zip(fars, fars[1:]))

    record(
        "criterion 7: FAR = F/S*100 exactly; imposter FAR < 20%; monotone sweep",
        exact and far_ok and monotone,
        f"FAR at default tau {at_default.far_percent:.1f}%, sweep {fars}",
    )


# --- criterion 8: k-means sanity against brute force --------------------------


def brute_force_optimum(points, k):
    pts = np.asarray(points, dtype=np.float64)
    best = math.inf
    for assign in itertools.product(range(k), repeat=len(pts)):
        labels = np.array(assign)
        obj = 0.0
        for c in range(k):
            members = pts[labels == c]
            if len(members):
                obj += float(((members - members.mean(axis=0)) ** 2).sum())
        if obj < best:
            best = obj
    return best


def test_criterion_08_kmeans_sanity():
    # Lloyd monotonicity is asserted inside kmeans_fing on every iteration;
    # 100 random runs exercise that check across sizes.
    rng = np.random.default_rng(8008)
    for _ in range(100):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(1, min(n, 8) + 1))
        s = gen_synthetic_minutiae(SynthConfig(n_minutiae=n, seed=int(rng.integers(1 << 30))))
        kmeans_fing(s, k)

    from fpverify.core import CorePoint, Minutia, MinutiaeSet

    ok = 0
    cases = 0
    for k in (1, 2, 3):
        for n in range(k, 9):
            for rep in range(3):
                pts = rng.uniform(-50, 50, size=(n, 2))
                mset = MinutiaeSet(
                    minutiae=tuple(Minutia(float(x), float(y), 0.0) for x, y in pts),
                    core=CorePoint(0.0, 0.0),
                )
                res = kmeans_fing(mset, k)
                optimum = brute_force_optimum(pts, k)
                d2 = ((pts[:, None, :] - res.centroids[None, :, :]) ** 2).sum(axis=2)
                fixed_point = np.array_equal(np.argmin(d2, axis=1), res.assignment)
                ok += res.objective >= optimum - 1e-9 and fixed_point
                cases += 1
    record(
        "criterion 8: Lloyd monotone, never beats brute force, fixed point",
        ok == cases,
        f"{ok}/{cases} exhaustive small instances",
    )


# --- criterion 9: the weighted trainer reduces to the plain one at c = 1 -----


def test_criterion_09_msom_reduction():
    rng = np.random.default_rng(9009)
    all_identical = True
    for seed in range(5):
        vecs = []
        for _ in range(12):
            d = rng.uniform(0.0, np.pi - 1e-6, FEATURE_LEN)
            vecs.append(
                FeatureVector(
                    directions=d,
                    certainties=np.ones(FEATURE_LEN),
                    class_label=FingerClass.ARCH,
                )
            )
        cfg = TrainConfig(epochs=12, seed=seed, init_mode=InitMode.ZERO)
        traj_som, traj_msom = [], []
        a = train_som(vecs, 5, cfg, on_epoch=lambda t, w: traj_som.append(w))
        b = train_msom(vecs, 5, cfg, on_epoch=lambda t, w: traj_msom.append(w))
        identical = (
            len(traj_som) == len(traj_msom)
            and all(np.array_equal(x, y) for x, y in zip(traj_som, traj_msom))
            and np.array_equal(a.weights, b.weights)
        )
        all_identical = all_identical and identical
    record(
        "criterion 9: weighted trainer at full certainty = plain trainer, bitwise",
        all_identical,
        "5 seeds, per-epoch weight snapshots compared",
    )


# --- criterion 10: genuine/imposter separation at the default threshold ------


def test_criterion_10_end_to_end_separation():
    scenario = ScenarioConfig(
        seed=10_010,
        fingers=40,
        n_minutiae=30,
        jitter_sigma=1.0,
        k=3,
        genuine_pairs=200,
        imposter_pairs=200,
    )
    outcomes = run_trials(scenario)
    report = report_at(outcomes, scenario.tau)
    genuine_accept = 1.0 - report.wrong_rejects / scenario.genuine_pairs
    imposter_accept = report.wrong_accepts / scenario.imposter_pairs
    record(
        "criterion 10: genuine accept >= 95%, imposter accept <= 5% at default tau",
        genuine_accept >= 0.95 and imposter_accept <= 0.05,
        f"genuine {genuine_accept * 100:.1f}%, imposter {imposter_accept * 100:.1f}% "
        f"(calibrated scenario: k=3, 30 minutiae, jitter 1 px)",
    )


def test_zzz_summary():
    print()
    for line in RESULTS:
        print(line)
    assert len(RESULTS) == 10
