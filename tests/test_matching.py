import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpverify.errors import EmptySet
from fpverify.matching import (
    directed_hausdorff,
    hausdorff,
    mhd_of,
    modified_hausdorff,
    nearest_distances,
    score_point_sets,
)

# Brute-force oracle: plain double loops, per-pair sqrt(dx*dx + dy*dy),
# sequential accumulation. Frozen; independent of the vectorized paths.


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


def oracle_hausdorff(m_pts, n_pts):
    return max(oracle_directed(m_pts, n_pts), oracle_directed(n_pts, m_pts))


def oracle_directed_mhd(m_pts, n_pts):
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


def oracle_mhd(m_pts, n_pts):
    return max(oracle_directed_mhd(m_pts, n_pts), oracle_directed_mhd(n_pts, m_pts))


def random_pair(rng, max_size=50):
    a = rng.uniform(-200, 200, size=(rng.integers(1, max_size + 1), 2))
    b = rng.uniform(-200, 200, size=(rng.integers(1, max_size + 1), 2))
    return a, b


class TestDirectedHausdorff:
    def test_identical_sets(self):
        pts = [(0.0, 0.0), (5.0, 5.0)]
        assert directed_hausdorff(pts, pts) == 0.0

    def test_asymmetry(self):
        m = [(0.0, 0.0), (1.0, 0.0)]
        n = [(0.0, 0.0)]
        assert directed_hausdorff(m, n) == 1.0
        assert directed_hausdorff(n, m) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            directed_hausdorff([], [(0, 0)])

    def test_agrees_with_oracle_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a, b = random_pair(rng)
            assert directed_hausdorff(a, b) == oracle_directed(a.tolist(), b.tolist())


class TestHausdorff:
    def test_single_pair(self):
        assert hausdorff([(0.0, 0.0)], [(3.0, 4.0)]) == 5.0

    def test_max_of_directions(self):
        m = [(0.0, 0.0), (1.0, 0.0)]
        n = [(0.0, 0.0)]
        assert hausdorff(m, n) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a, b = random_pair(rng, max_size=20)
            assert hausdorff(a, b) == hausdorff(b, a)


class TestModifiedHausdorff:
    def test_identical_sets(self):
        pts = [(1.0, 2.0), (3.0, 4.0)]
        assert modified_hausdorff(pts, pts) == 0.0

    def test_outlier_diluted(self):
        m = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (100.0, 0.0)]
        n = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        # Directed means: (0+0+0+98)/4 vs the max-based 98.
        assert oracle_directed_mhd(m, n) == 24.5
        assert oracle_directed(m, n) == 98.0
        assert modified_hausdorff(m, n) == 24.5

    def test_single_points(self):
        assert modified_hausdorff([(0.0, 0.0)], [(3.0, 4.0)]) == 5.0
        assert hausdorff([(0.0, 0.0)], [(3.0, 4.0)]) == 5.0

    def test_agrees_with_oracle_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = random_pair(rng)
            assert modified_hausdorff(a, b) == oracle_mhd(a.tolist(), b.tolist())

    def test_batch_rows_equal_single_sets(self):
        # Every row of a batch is the single-set call, to the bit.
        rng = np.random.default_rng(11)
        batch = rng.uniform(-200, 200, size=(7, 13, 2))
        b = rng.uniform(-200, 200, size=(100, 2))
        a_to_b, b_to_a = nearest_distances(batch, b)
        mhds = mhd_of(a_to_b, b_to_a)
        for row, a in enumerate(batch):
            single = nearest_distances(a, b)
            assert np.array_equal(a_to_b[row], single[0])
            assert np.array_equal(b_to_a[row], single[1])
            assert mhds[row] == oracle_mhd(a.tolist(), b.tolist())

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_dominated_by_hausdorff(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_pair(rng, max_size=25)
        assert modified_hausdorff(a, b) <= hausdorff(a, b)


class TestNearestDistances:
    @pytest.mark.parametrize("sets", [1, 2, 20, 40, 68, 69, 200])
    def test_every_batch_size_equals_a_brute_force_table(self, sets):
        # One loop serves one set (C = 1, the shape the Hausdorff functions
        # pass) and batches up to the ~200 rotated probes of gate 3. The
        # oracle builds the whole (C, n, m) table of per-pair sqrt(dx*dx +
        # dy*dy) and takes its minima; the MHD of the first and last set is
        # the double loop's.
        rng = np.random.default_rng(sets)
        for n, m in itertools.product([1, 13, 30, 100], repeat=2):
            batch, b = rng.uniform(-200, 200, (sets, n, 2)), rng.uniform(-200, 200, (m, 2))
            a = batch[0] if sets == 1 else batch
            dx = batch[:, :, None, 0] - b[None, None, :, 0]
            dy = batch[:, :, None, 1] - b[None, None, :, 1]
            table = np.sqrt(dx * dx + dy * dy)
            a_to_b, b_to_a = nearest_distances(a, b)
            assert np.array_equal(a_to_b, table.min(axis=2).reshape(a.shape[:-1]))
            assert np.array_equal(b_to_a, table.min(axis=1).reshape(a.shape[:-2] + (m,)))
            mhds = mhd_of(a_to_b, b_to_a).reshape(-1)
            for row in {0, sets - 1}:
                assert mhds[row] == oracle_mhd(batch[row].tolist(), b.tolist())


class TestRigidInvariance:
    def test_common_transform_leaves_distances(self):
        rng = np.random.default_rng(3)
        a, b = random_pair(rng, max_size=30)
        angle, dx, dy = 0.7, 12.0, -8.0
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        a2 = a @ rot.T + (dx, dy)
        b2 = b @ rot.T + (dx, dy)
        assert hausdorff(a2, b2) == pytest.approx(hausdorff(a, b), abs=1e-9)
        assert modified_hausdorff(a2, b2) == pytest.approx(modified_hausdorff(a, b), abs=1e-9)
        assert directed_hausdorff(a2, b2) == pytest.approx(directed_hausdorff(a, b), abs=1e-9)


class TestScorePointSets:
    """The three distances of score_point_sets, on raw point arrays; no
    threshold, since store.decide applies tau."""

    def test_self_match_is_zero(self):
        s = np.array([(1.0, 1.0), (4.0, 5.0), (-3.0, 2.0)])
        assert score_point_sets(s, s) == (0.0, 0.0, 0.0)

    def test_outlier_moves_hausdorff_not_mhd(self):
        base = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)]
        probe = np.array(base + [(200.0, 0.0)])
        mhd, d_ab, d_ba = score_point_sets(probe, np.array(base))
        outlier_min = oracle_directed([(200.0, 0.0)], base)
        assert (d_ab, d_ba) == (outlier_min, 0.0)
        assert mhd == outlier_min / len(probe)

    def test_batch_scores_each_set_as_alone(self):
        # A (C, n, 2) batch gives three (C,) arrays: per set, bit for bit the
        # floats of that set scored alone. An empty batch is an empty set.
        rng = np.random.default_rng(12)
        batch, b = rng.uniform(-50, 50, (5, 7, 2)), rng.uniform(-50, 50, (9, 2))
        scores = score_point_sets(batch, b)
        assert [s.shape for s in scores] == [(5,)] * 3
        assert [tuple(map(float, column)) for column in zip(*scores)] == [score_point_sets(a, b) for a in batch]
        for empty in (np.empty((0, 7, 2)), np.empty((5, 0, 2))):
            with pytest.raises(EmptySet):
                score_point_sets(empty, b)

    def test_invariants_of_score(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = random_pair(rng, max_size=20)
            mhd, d_ab, d_ba = score_point_sets(a, b)
            assert (mhd, d_ab, d_ba) == (modified_hausdorff(a, b), directed_hausdorff(a, b), directed_hausdorff(b, a))
            assert 0.0 <= mhd <= max(d_ab, d_ba) + 1e-12
