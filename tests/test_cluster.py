import itertools
import math

import numpy as np
import pytest

from fpverify.cluster import MAX_ITERATIONS, ClusterResult, kmeans_fing, radial_seed
from fpverify.core import CorePoint, Minutia, MinutiaeSet, RigidTransform, apply_transform
from fpverify.errors import MissingCore, TooFewPoints


def mset(points, core=(0.0, 0.0)):
    return MinutiaeSet(
        minutiae=tuple(Minutia(float(x), float(y), 0.0) for x, y in points),
        core=CorePoint(*core) if core is not None else None,
    )


def brute_force_optimum(points, k):
    """Best objective over every assignment of n points to k clusters."""
    pts = np.asarray(points, dtype=np.float64)
    best = math.inf
    for assign in itertools.product(range(k), repeat=len(pts)):
        labels = np.array(assign)
        obj = 0.0
        for c in range(k):
            members = pts[labels == c]
            if len(members):
                obj += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, obj)
    return best


def is_lloyd_fixed_point(points, result: ClusterResult):
    pts = np.asarray(points, dtype=np.float64)
    d2 = ((pts[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
    stable = np.array_equal(np.argmin(d2, axis=1), result.assignment)
    means_ok = all(
        np.allclose(result.centroids[c], pts[result.assignment == c].mean(axis=0), atol=1e-9)
        for c in range(result.k)
    )
    return stable and means_ok


def per_cluster_lloyd(points, k):
    """Lloyd's loop as kmeans_fing ran it with one mean per cluster, the
    oracle for its np.bincount means: (centroids, assignment, objective,
    iterations, whether an emptied cluster was ever reseeded)."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)

    def dist2(centroids):
        dx = pts[:, 0][:, None] - centroids[:, 0][None, :]
        dy = pts[:, 1][:, None] - centroids[:, 1][None, :]
        return dx * dx + dy * dy

    centroids = radial_seed(pts, k)
    prev_assign, prev_obj, iterations, ever_repaired = None, math.inf, 0, False
    while iterations < 500:
        iterations += 1
        d2 = dist2(centroids)
        assign = np.argmin(d2, axis=1)
        repaired = False
        while not all(np.any(assign == c) for c in range(k)):
            empty = next(c for c in range(k) if not np.any(assign == c))
            worst = int(np.argmax(d2[np.arange(n), assign]))
            centroids[empty] = pts[worst]
            assign[worst] = empty
            d2[:, empty] = dist2(centroids[empty : empty + 1])[:, 0]
            repaired = True
        ever_repaired |= repaired
        obj = float(d2[np.arange(n), assign].sum())
        if obj > prev_obj + 1e-9:
            raise RuntimeError("k-means objective increased; tie-break rules violated")
        prev_obj = obj
        if not repaired and prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        for c in range(k):
            centroids[c] = pts[assign == c].mean(axis=0)
    else:
        assign = prev_assign
        for c in range(k):
            centroids[c] = pts[assign == c].mean(axis=0)
    objective = float(dist2(centroids)[np.arange(n), assign].sum())
    return centroids, assign, objective, iterations, ever_repaired


class TestRadialSeed:
    def test_n_equals_k_uses_every_point(self):
        pts = [(1.0, 0.0), (0.0, 2.0), (-3.0, 0.0)]
        seeds = radial_seed(pts, 3)
        assert sorted(map(tuple, seeds)) == sorted(pts)

    def test_k1_takes_median_radius(self):
        pts = [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0), (5.0, 0.0)]
        assert tuple(radial_seed(pts, 1)[0]) == (3.0, 0.0)

    def test_equal_radius_circle_uses_angle_ranks(self):
        # 8 Pythagorean points of exactly equal float radius 5; the radius
        # key ties, so the ranks floor((2i+1)*8/4) = 2 and 6 index the
        # angle-sorted order (atan2 ascending in (-pi, pi]).
        by_angle = [(0, -5), (4, -3), (5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-5, 0)]
        rng = np.random.default_rng(5)
        shuffled = [by_angle[i] for i in rng.permutation(8)]
        seeds = radial_seed([(float(x), float(y)) for x, y in shuffled], 2)
        assert {tuple(s) for s in seeds} == {(5.0, 0.0), (-3.0, 4.0)}

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            radial_seed([(0.0, 0.0)], 2)


class TestKmeansFing:
    def test_k1_centroid_is_mean(self):
        s = mset([(1.0, 1.0), (3.0, 5.0), (5.0, 0.0)], core=(1.0, 1.0))
        res = kmeans_fing(s, 1)
        rel = s.coords() - [1.0, 1.0]
        assert np.allclose(res.centroids[0], rel.mean(axis=0))
        assert res.objective == pytest.approx(((rel - rel.mean(axis=0)) ** 2).sum())

    def test_symmetric_two_cluster_instance(self):
        s = mset([(0.0, 0.0), (0.0, 1.0), (10.0, 0.0), (10.0, 1.0)])
        res = kmeans_fing(s, 2)
        got = sorted(map(tuple, res.centroids))
        assert got == [(0.0, 0.5), (10.0, 0.5)]
        assert res.objective == pytest.approx(1.0)

    def test_missing_core(self):
        s = MinutiaeSet(minutiae=(Minutia(0, 0, 0), Minutia(1, 1, 0)))
        with pytest.raises(MissingCore):
            kmeans_fing(s, 1)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            kmeans_fing(mset([(0.0, 0.0)]), 2)

    def test_result_invariants(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n = int(rng.integers(5, 40))
            k = int(rng.integers(1, min(n, 7) + 1))
            pts = rng.uniform(-100, 100, size=(n, 2))
            res = kmeans_fing(mset(pts), k)
            # every cluster non-empty
            assert set(res.assignment.tolist()) == set(range(k))
            # objective matches a recomputation
            d2 = ((pts - res.centroids[res.assignment]) ** 2).sum()
            assert res.objective == pytest.approx(d2, abs=1e-9)
            # centroids are member means; assignment is nearest-centroid
            assert is_lloyd_fixed_point(pts, res)

    def test_never_beats_brute_force_and_is_fixed_point(self):
        rng = np.random.default_rng(123)
        for trial in range(12):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(k, 9))
            pts = rng.uniform(-50, 50, size=(n, 2))
            res = kmeans_fing(mset(pts), k)
            assert res.objective >= brute_force_optimum(pts, k) - 1e-9
            assert is_lloyd_fixed_point(pts, res)

    def test_equals_the_per_cluster_loop_bitwise(self):
        # Spread sets, and small sets of repeated grid points whose repeated
        # seeds empty clusters, so that the reseeding runs. A set of fewer
        # than k distinct points raises instead.
        rng = np.random.default_rng(14)
        sets = []
        for _ in range(150):
            sets.append((rng.uniform(-150, 150, size=(int(rng.integers(9, 40)), 2)), int(rng.integers(1, 10))))
        for _ in range(80):
            pts = rng.integers(-3, 4, size=(int(rng.integers(2, 9)), 2)).astype(float)
            pts[: len(pts) // 2] = pts[0]
            sets.append((pts, int(rng.integers(2, len(pts) + 1))))
        repaired = 0
        for pts, k in sets:
            if len(np.unique(pts, axis=0)) < k:
                with pytest.raises(TooFewPoints):
                    kmeans_fing(mset(pts), k)
                continue
            centroids, assign, objective, iterations, ever_repaired = per_cluster_lloyd(pts, k)
            res = kmeans_fing(mset(pts), k)
            assert res.centroids.tobytes() == centroids.tobytes()
            assert np.array_equal(res.assignment, assign)
            assert res.objective == objective
            assert res.iterations == iterations
            repaired += ever_repaired
        assert repaired >= 10


    def test_points_whose_squared_distance_underflows_raise(self):
        # Distinct, but every squared distance between them rounds to 0.
        with pytest.raises(TooFewPoints):
            kmeans_fing(mset([(0.0, 0.0), (1e-170, 0.0)]), 2)

    @pytest.mark.parametrize("spacing, offset", [(1.0, 0.0), (0.1, 0.37)])
    def test_repeated_points_converge_or_raise(self, spacing, offset):
        # Sets of 3-9 points of a 3x3 grid. Fewer than k distinct points
        # raise; every other set reaches a fixed point below the iteration
        # cap. At 0.1 spacing the mean of copies of a point can be an ulp off.
        rng = np.random.default_rng(1)
        raised = 0
        for _ in range(500):
            n = int(rng.integers(3, 10))
            pts = rng.integers(-1, 2, size=(n, 2)) * spacing + offset
            k = int(rng.integers(2, min(6, n) + 1))
            if len(np.unique(pts, axis=0)) < k:
                with pytest.raises(TooFewPoints):
                    kmeans_fing(mset(pts), k)
                raised += 1
                continue
            res = kmeans_fing(mset(pts), k)
            assert res.iterations < MAX_ITERATIONS and np.isfinite(res.centroids).all()
            assert is_lloyd_fixed_point(pts, res)
        assert 0 < raised < 500


class TestInvariance:
    def test_translation_bitwise_on_representable_grid(self):
        # Integer coordinates and translations keep every float operation
        # exact, so the core-relative frame cancels translation bit for bit.
        rng = np.random.default_rng(9)
        pts = rng.integers(-200, 200, size=(20, 2)).astype(float)
        pts = np.unique(pts, axis=0)
        s = mset(pts, core=(16.0, -32.0))
        res = kmeans_fing(s, 4)
        moved = apply_transform(s, RigidTransform(translation=(1024.0, -2048.0)))
        res2 = kmeans_fing(moved, 4)
        assert np.array_equal(res.assignment, res2.assignment)
        assert np.array_equal(res.centroids, res2.centroids)

    def test_rotation_covariance(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            pts = rng.uniform(-120, 120, size=(24, 2))
            s = mset(pts, core=(0.0, 0.0))
            res = kmeans_fing(s, 5)
            angle = float(rng.uniform(0.1, 6.0))
            rot = apply_transform(s, RigidTransform(rotation=angle, pivot=(0.0, 0.0)))
            res2 = kmeans_fing(rot, 5)
            assert np.array_equal(res.assignment, res2.assignment)
            c, sn = math.cos(angle), math.sin(angle)
            expected = res.centroids @ np.array([[c, sn], [-sn, c]])
            assert np.allclose(res2.centroids, expected, atol=1e-9)
            # pairwise centroid distances preserved
            def pd(cs):
                return np.sqrt(((cs[:, None, :] - cs[None, :, :]) ** 2).sum(axis=2))
            assert np.allclose(pd(res.centroids), pd(res2.centroids), atol=1e-9)
