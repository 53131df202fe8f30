import numpy as np
import pytest

import fpverify.som as som_module
from fpverify.errors import EmptyTrainingSet, FingerprintError, UntrainedMap
from fpverify.orientation import FEATURE_LEN, FeatureVector, FingerClass
from fpverify.som import (
    MAX_MAP_SIDE,
    InitMode,
    SomMap,
    TrainConfig,
    classify,
    find_winner,
    load_som,
    msom_blend,
    save_som,
    train_msom,
    train_som,
)


def fv(direction_value, cert=1.0, label=None):
    return FeatureVector(
        directions=np.full(FEATURE_LEN, float(direction_value)),
        certainties=np.full(FEATURE_LEN, float(cert)),
        class_label=label,
    )


def cluster_vectors(center, n, spread, seed, label):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        d = np.clip(center + rng.normal(0, spread, FEATURE_LEN), 0, np.pi - 1e-9)
        out.append(FeatureVector(directions=d, certainties=np.ones(FEATURE_LEN), class_label=label))
    return out


def toy_map(weights_rows, m=None):
    w = np.asarray(weights_rows, dtype=float)
    n = w.shape[0]
    m = m if m is not None else int(np.sqrt(n))
    return SomMap(m=m, weights=w, labels=(None,) * n)


class TestFindWinner:
    def test_two_node_map(self):
        w = np.stack([np.zeros(FEATURE_LEN), np.ones(FEATURE_LEN)])
        som = SomMap(m=2, weights=np.vstack([w, w]), labels=(None,) * 4)
        x = np.full(FEATURE_LEN, 0.1)
        assert find_winner(som, x) == 0

    def test_exact_weight_match(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0, 1, size=(9, FEATURE_LEN))
        som = toy_map(w)
        assert find_winner(som, w[5]) == 5

    def test_all_identical_tie_breaks_to_zero(self):
        som = toy_map(np.full((9, FEATURE_LEN), 0.3))
        assert find_winner(som, np.full(FEATURE_LEN, 0.9)) == 0


class TestUpdateWeights:
    """The schedules of TrainConfig and the one window update, som._move_window."""

    def test_rate_schedule(self):
        # L(t) = 0.5 * (1 - t/epochs)
        cfg = TrainConfig(epochs=4)
        assert [cfg.learning_rate(t) for t in range(4)] == [0.5, 0.375, 0.25, 0.125]

    def test_radius_schedule(self):
        # round(m - (m-1) * t/epochs) for m = 4: 4, 3.25, 2.5, 1.75, then 1 at t = epochs
        cfg = TrainConfig(epochs=4)
        assert [cfg.radius(t, 4) for t in range(5)] == [4, 3, 2, 2, 1]

    def test_midpoint_step(self):
        # epoch 0 of 2: L = 0.5, and radius 2 covers the 2x2 map
        cfg = TrainConfig(epochs=2)
        w = np.zeros((4, FEATURE_LEN))
        som_module._move_window(w, 2, np.ones(FEATURE_LEN), None, 0, cfg.radius(0, 2), cfg.learning_rate(0))
        assert np.all(w == 0.5)

    def test_outside_window_unchanged(self):
        # t=3 of 4: radius = round(4 - 3*3/4) = 2; winner 0 at (0,0): the
        # nodes of row 3 or column 3 are outside Chebyshev distance 2.
        cfg = TrainConfig(epochs=4)
        w = np.zeros((16, FEATURE_LEN))
        som_module._move_window(w, 4, np.ones(FEATURE_LEN), None, 0, cfg.radius(3, 4), cfg.learning_rate(3))
        outside = [3, 7, 11, 12, 13, 14, 15]
        assert np.all(w[outside] == 0.0)
        assert np.all(np.delete(w, outside, axis=0) == 0.125)

    def test_full_rate_snaps_to_input(self):
        # 0.25 + 1.0 * (0.75 - 0.25) is exactly 0.75
        w = np.full((4, FEATURE_LEN), 0.25)
        x = np.full(FEATURE_LEN, 0.75)
        som_module._move_window(w, 2, x, None, 3, 1, 1.0)
        assert np.array_equal(w, np.broadcast_to(x, w.shape))

    def test_step_scaled_by_certainty(self):
        # A component of certainty 0 stays, one of certainty 1 takes the full step.
        w = np.zeros((4, FEATURE_LEN))
        c = np.zeros(FEATURE_LEN)
        c[0] = 1.0
        som_module._move_window(w, 2, np.ones(FEATURE_LEN), c, 0, 1, 0.5)
        assert np.all(w[:, 0] == 0.5) and np.all(w[:, 1:] == 0.0)


class TestMsomBlend:
    def test_full_certainty_returns_input(self):
        x = np.linspace(0, 1, FEATURE_LEN)
        avg = np.full(FEATURE_LEN, 0.5)
        assert np.array_equal(msom_blend(x, np.ones(FEATURE_LEN), avg), x)

    def test_zero_certainty_returns_average(self):
        x = np.linspace(0, 1, FEATURE_LEN)
        avg = np.full(FEATURE_LEN, 0.5)
        assert np.array_equal(msom_blend(x, np.zeros(FEATURE_LEN), avg), avg)

    def test_half_blend(self):
        x = np.full(FEATURE_LEN, 0.2)
        avg = np.full(FEATURE_LEN, 0.6)
        out = msom_blend(x, np.full(FEATURE_LEN, 0.5), avg)
        assert np.allclose(out, 0.4)


class TestMsomFindWinner:
    def test_full_certainty_reduces_to_plain(self):
        rng = np.random.default_rng(3)
        som = toy_map(rng.uniform(0, 1, size=(9, FEATURE_LEN)))
        x = rng.uniform(0, 1, FEATURE_LEN)
        assert find_winner(som, x, np.ones(FEATURE_LEN)) == find_winner(som, x)

    def test_zero_certainty_everything_ties_to_zero(self):
        rng = np.random.default_rng(4)
        som = toy_map(rng.uniform(0, 1, size=(9, FEATURE_LEN)))
        assert find_winner(som, rng.uniform(0, 1, FEATURE_LEN), np.zeros(FEATURE_LEN)) == 0

    def test_single_component_mask_decides(self):
        w = np.zeros((4, FEATURE_LEN))
        w[1, 7] = 1.0  # node 1 matches x on component 7; far on all others
        w[1, :7] = 50.0
        w[1, 8:] = 50.0
        som = toy_map(w, m=2)
        x = np.zeros(FEATURE_LEN)
        x[7] = 1.0
        c = np.zeros(FEATURE_LEN)
        c[7] = 1.0
        assert find_winner(som, x, c) == 1


class TestTraining:
    def test_single_vector_converges_to_fixed_point(self):
        # The update's fixed point is w = x; the early-stop rule bounds the
        # per-component residual, so measure the Chebyshev gap.
        v = fv(0.8, label=FingerClass.WHORL)
        som = train_som([v], 3, TrainConfig(epochs=300, seed=0))
        gaps = np.abs(som.weights - v.directions).max(axis=1)
        assert gaps.min() < 1e-5
        label, _ = classify(som, v.directions)
        assert label is FingerClass.WHORL

    def test_two_separated_clusters_fully_classified(self):
        a = cluster_vectors(np.full(FEATURE_LEN, 0.4), 10, 0.01, 1, FingerClass.ARCH)
        b = cluster_vectors(np.full(FEATURE_LEN, 2.6), 10, 0.01, 2, FingerClass.WHORL)
        som = train_som(a + b, 4, TrainConfig(epochs=60, seed=3))
        # Oracle: nearest-centroid classification (the clusters are separated
        # by far more than their spread, so every vector is unambiguous).
        for v in a + b:
            label, _ = classify(som, v.directions)
            assert label is v.class_label

    def test_identical_seed_identical_map(self):
        vecs = cluster_vectors(np.full(FEATURE_LEN, 1.0), 12, 0.3, 5, FingerClass.ARCH)
        m1 = train_som(vecs, 4, TrainConfig(epochs=20, seed=9))
        m2 = train_som(vecs, 4, TrainConfig(epochs=20, seed=9))
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.labels == m2.labels

    def test_one_epoch_on_one_vector_is_one_update_step(self):
        # The seed's first draw is the uniform [0, 0.01) start; epoch 0 of 1
        # has rate 0.5 and radius 4, which covers the 4x4 map.
        x = cluster_vectors(np.full(FEATURE_LEN, 1.0), 1, 0.3, 17, FingerClass.ARCH)[0]
        cfg = TrainConfig(epochs=1, seed=5)
        w0 = np.random.default_rng(5).uniform(0.0, 0.01, size=(16, FEATURE_LEN))
        assert np.array_equal(train_som([x], 4, cfg).weights, w0 + 0.5 * (x.directions - w0))

    @pytest.mark.parametrize("m", [0, 1, MAX_MAP_SIDE + 1, 100_000])
    def test_map_side_out_of_range_raises_before_allocating(self, m):
        # At m = 100,000 the weights alone would be 18.6 TiB.
        vecs = cluster_vectors(np.full(FEATURE_LEN, 1.0), 2, 0.3, 3, FingerClass.ARCH)
        with pytest.raises(FingerprintError):
            train_som(vecs, m, TrainConfig(epochs=1))
        with pytest.raises(FingerprintError):
            train_msom(vecs, m, TrainConfig(epochs=1))

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            train_som([], 3, TrainConfig())
        with pytest.raises(EmptyTrainingSet):
            train_msom([], 3, TrainConfig())

    def test_weights_stay_in_convex_hull(self):
        vecs = cluster_vectors(np.full(FEATURE_LEN, 1.0), 15, 0.5, 11, FingerClass.ARCH)
        som = train_som(vecs, 3, TrainConfig(epochs=25, seed=2))
        xs = np.stack([v.directions for v in vecs])
        lo = np.minimum(xs.min(axis=0), 0.0)  # init weights live in [0, 0.01]
        hi = np.maximum(xs.max(axis=0), 0.01)
        assert np.all(som.weights >= lo - 1e-12)
        assert np.all(som.weights <= hi + 1e-12)


class TestMsomTraining:
    def test_reduces_to_som_with_full_certainty(self):
        vecs = cluster_vectors(np.full(FEATURE_LEN, 1.2), 14, 0.3, 21, FingerClass.LEFT_LOOP)
        for seed in range(5):
            cfg = TrainConfig(epochs=15, seed=seed, init_mode=InitMode.ZERO)
            a = train_som(vecs, 4, cfg)
            b = train_msom(vecs, 4, cfg)
            assert np.array_equal(a.weights, b.weights)
            assert a.labels == b.labels

    def test_zero_certainty_component_never_moves(self):
        rng = np.random.default_rng(6)
        vecs = []
        for _ in range(10):
            d = rng.uniform(0.5, 2.5, FEATURE_LEN)
            c = np.ones(FEATURE_LEN)
            c[17] = 0.0
            vecs.append(FeatureVector(directions=d, certainties=c, class_label=FingerClass.ARCH))
        som = train_msom(vecs, 3, TrainConfig(epochs=10, seed=0))
        assert np.all(som.weights[:, 17] == 0.0)

    def test_certainty_above_one_rejected_before_first_epoch(self):
        vecs = cluster_vectors(np.full(FEATURE_LEN, 1.0), 4, 0.2, 41, FingerClass.ARCH)
        c = np.ones(FEATURE_LEN)
        c[3] = 1.5
        vecs.append(FeatureVector(directions=vecs[0].directions, certainties=c, class_label=FingerClass.ARCH))
        epochs = []
        with pytest.raises(ValueError, match="certainties"):
            train_msom(vecs, 3, TrainConfig(epochs=5), on_epoch=lambda t, w: epochs.append(t))
        assert epochs == []

    def test_identical_seed_identical_map(self):
        vecs = cluster_vectors(np.full(FEATURE_LEN, 2.0), 10, 0.2, 31, FingerClass.WHORL)
        m1 = train_msom(vecs, 3, TrainConfig(epochs=12, seed=4))
        m2 = train_msom(vecs, 3, TrainConfig(epochs=12, seed=4))
        assert np.array_equal(m1.weights, m2.weights)


class TestClassify:
    def test_untrained_map_rejected(self):
        som = toy_map(np.zeros((9, FEATURE_LEN)))
        with pytest.raises(UntrainedMap):
            classify(som, np.zeros(FEATURE_LEN))

    def test_exact_node_weight_returns_its_label(self):
        rng = np.random.default_rng(8)
        w = rng.uniform(0, 2, size=(9, FEATURE_LEN))
        som = SomMap(
            m=3,
            weights=w,
            labels=tuple([FingerClass.WHORL] + [FingerClass.ARCH] * 8),
        )
        label, node = classify(som, w[0])
        assert label is FingerClass.WHORL and node == 0

    def test_all_nodes_same_label(self):
        som = SomMap(
            m=2,
            weights=np.random.default_rng(1).uniform(0, 1, (4, FEATURE_LEN)),
            labels=(FingerClass.ARCH,) * 4,
        )
        assert classify(som, np.full(FEATURE_LEN, 0.5))[0] is FingerClass.ARCH

    def test_unlabeled_winner_borrows_nearest_label(self):
        w = np.full((9, FEATURE_LEN), 10.0)
        w[4] = 0.0  # winner for x=0, unlabeled
        labels = [None] * 9
        labels[8] = FingerClass.TENTED_ARCH  # grid (2,2), Chebyshev 1 from (1,1)
        som = SomMap(m=3, weights=w, labels=tuple(labels))
        label, node = classify(som, np.zeros(FEATURE_LEN))
        assert node == 4 and label is FingerClass.TENTED_ARCH

    def test_five_prototype_classes(self):
        protos = {
            cls: np.clip(np.full(FEATURE_LEN, 0.3 + 0.55 * i), 0, np.pi - 0.01)
            for i, cls in enumerate(FingerClass)
        }
        vecs = []
        rng = np.random.default_rng(12)
        for cls, center in protos.items():
            for _ in range(8):
                vecs.append(
                    FeatureVector(
                        directions=np.clip(center + rng.normal(0, 0.02, FEATURE_LEN), 0, np.pi - 1e-9),
                        certainties=np.ones(FEATURE_LEN),
                        class_label=cls,
                    )
                )
        som = train_som(vecs, 5, TrainConfig(epochs=40, seed=1))
        # Oracle: nearest-prototype classification is unambiguous here.
        for cls, center in protos.items():
            assert classify(som, center)[0] is cls


class TestMapFile:
    def test_round_trip(self, tmp_path):
        vecs = cluster_vectors(np.full(FEATURE_LEN, 1.1), 8, 0.2, 13, FingerClass.RIGHT_LOOP)
        som = train_som(vecs, 3, TrainConfig(epochs=10, seed=0))
        path = tmp_path / "map.som"
        save_som(som, path)
        loaded = load_som(path)
        assert loaded.m == som.m
        assert loaded.labels == som.labels
        assert np.allclose(loaded.weights, som.weights, rtol=1e-8, atol=1e-12)
        # 9-significant-digit stability: a second round trip is exact.
        save_som(loaded, path)
        again = load_som(path)
        assert np.array_equal(again.weights, loaded.weights)

    @pytest.mark.parametrize(
        "text",
        [
            "SOM1 m=x dim=256\n",
            "SOM1 m=-2 dim=256\n" + "arch\n" * 4 + ("0 " * 255 + "0\n") * 4,
            "SOM1 m=2 dim=256\n" + "-\n" * 4 + ("0 " * 255 + "zero\n") + ("0 " * 255 + "0\n") * 3,
            "SOM1 m=100000 dim=256\n",
        ],
        ids=["side", "negative-side", "weight", "side-too-large"],
    )
    def test_malformed_map_raises_fingerprint_error(self, tmp_path, text):
        # A bad header is test_rejects_bad_header.
        p = tmp_path / "bad.som"
        p.write_text(text)
        with pytest.raises(FingerprintError):
            load_som(p)

    def test_rejects_bad_header(self, tmp_path):
        p = tmp_path / "bad.som"
        p.write_text("SOM9 m=3 dim=256\n")
        with pytest.raises(FingerprintError):
            load_som(p)
