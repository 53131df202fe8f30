import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpverify.matching as matching_module
from fpverify.errors import BadThreshold, EmptySet
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

    def test_agrees_with_oracle_exactly(self, monkeypatch):
        # Under any table budget: one point of b per block, or all of them.
        rng = np.random.default_rng(42)
        pairs = [random_pair(rng) for _ in range(100)]
        for entries in (matching_module.TABLE_ENTRIES, 1, 10**9):
            monkeypatch.setattr(matching_module, "TABLE_ENTRIES", entries)
            for a, b in pairs:
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

    def test_agrees_with_oracle_exactly(self, monkeypatch):
        rng = np.random.default_rng(7)
        pairs = [random_pair(rng) for _ in range(100)]
        for entries in (matching_module.TABLE_ENTRIES, 1, 10**9):
            monkeypatch.setattr(matching_module, "TABLE_ENTRIES", entries)
            for a, b in pairs:
                assert modified_hausdorff(a, b) == oracle_mhd(a.tolist(), b.tolist())

    def test_batch_rows_equal_single_sets(self):
        # 7 sets of 13 points take b in blocks of 4096 // 91 = 45 points, so
        # 100 points of b end in a partial block; each set alone takes b in
        # one block. Every row is the single-set call, to the bit.
        rng = np.random.default_rng(11)
        batch = rng.uniform(-200, 200, size=(7, 13, 2))
        b = rng.uniform(-200, 200, size=(100, 2))
        assert len(b) % (matching_module.TABLE_ENTRIES // (7 * 13)) != 0
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


class TestMatchDecision:
    """The accept/reject decision of score_point_sets, on raw point arrays."""

    def test_self_match_accepts(self):
        s = np.array([(1.0, 1.0), (4.0, 5.0), (-3.0, 2.0)])
        score = score_point_sets(s, s, tau=0.001)
        assert score.mhd == 0.0
        assert score.accepted is True

    def test_outlier_moves_hausdorff_not_mhd(self):
        base = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)]
        probe = np.array(base + [(200.0, 0.0)])
        score = score_point_sets(probe, np.array(base), tau=12.0)
        outlier_min = oracle_directed([(200.0, 0.0)], base)
        assert score.hausdorff == outlier_min
        assert score.mhd == outlier_min / len(probe)
        assert score.accepted is (score.mhd <= 12.0)

    def test_distant_sets_reject(self):
        probe = np.array([(0.0, 0.0), (1.0, 0.0)])
        template = np.array([(500.0, 500.0), (501.0, 500.0)])
        assert score_point_sets(probe, template, tau=12.0).accepted is False

    @pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -1.0])
    def test_tau_must_be_positive_and_finite(self, tau):
        s = np.array([(1.0, 1.0), (4.0, 5.0)])
        with pytest.raises(BadThreshold):
            score_point_sets(s, s, tau)

    def test_invariants_of_score(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = random_pair(rng, max_size=20)
            score = score_point_sets(a, b, tau=10.0)
            assert score.hausdorff == max(score.directed_ab, score.directed_ba)
            assert 0.0 <= score.mhd <= score.hausdorff + 1e-12
