import math

import numpy as np
import pytest

from fpverify.core import CorePoint
from fpverify.errors import ConfigInfeasible, FingerprintError
from fpverify.orientation import FingerClass, OrientationField
from fpverify.synth import (
    DISK_CENTER,
    MIN_SEPARATION,
    SynthConfig,
    degrade_feature_vector,
    gen_synthetic_minutiae,
    gen_synthetic_orientation,
    load_orientation_field,
    perturb_impression,
    save_orientation_field,
    zero_pole_direction,
)


class TestGenMinutiae:
    def test_deterministic(self):
        cfg = SynthConfig(seed=42)
        assert gen_synthetic_minutiae(cfg) == gen_synthetic_minutiae(cfg)

    def test_single_point_inside_disk(self):
        s = gen_synthetic_minutiae(SynthConfig(n_minutiae=1, disk_radius=30.0, seed=1))
        assert len(s) == 1
        m = s.minutiae[0]
        assert math.hypot(m.x - DISK_CENTER[0], m.y - DISK_CENTER[1]) <= 30.0

    def test_min_separation(self):
        s = gen_synthetic_minutiae(SynthConfig(n_minutiae=30, disk_radius=120.0, seed=3))
        pts = s.coords()
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        assert d2.min() >= MIN_SEPARATION**2

    def test_core_at_disk_center(self):
        s = gen_synthetic_minutiae(SynthConfig(seed=0))
        assert s.core == CorePoint(*DISK_CENTER)

    def test_infeasible_config(self):
        with pytest.raises(ConfigInfeasible):
            gen_synthetic_minutiae(SynthConfig(n_minutiae=500, disk_radius=10.0, seed=0))


class TestPerturb:
    def test_no_jitter_no_motion_is_identity(self):
        s = gen_synthetic_minutiae(SynthConfig(seed=5))
        cfg = SynthConfig(jitter_sigma=0.0, seed=9)
        out = perturb_impression(s, cfg, max_rotation=0.0, max_translation=0.0)
        assert out == s

    def test_rigid_only_preserves_pairwise_distances(self):
        s = gen_synthetic_minutiae(SynthConfig(seed=6))
        out = perturb_impression(s, SynthConfig(jitter_sigma=0.0, seed=10))
        a, b = s.coords(), out.coords()
        da = np.sqrt(((a[:, None] - a[None, :]) ** 2).sum(axis=2))
        db = np.sqrt(((b[:, None] - b[None, :]) ** 2).sum(axis=2))
        assert np.allclose(da, db, atol=1e-9)

    def test_deterministic(self):
        s = gen_synthetic_minutiae(SynthConfig(seed=7))
        cfg = SynthConfig(jitter_sigma=1.5, seed=8)
        assert perturb_impression(s, cfg) == perturb_impression(s, cfg)

    def test_mean_radial_displacement_matches_gaussian(self):
        # For 2-D Gaussian jitter the mean displacement is sigma*sqrt(pi/2).
        s = gen_synthetic_minutiae(SynthConfig(n_minutiae=30, seed=11))
        sigma = 1.0
        total, count = 0.0, 0
        for seed in range(100):
            out = perturb_impression(
                s,
                SynthConfig(jitter_sigma=sigma, seed=seed),
                max_rotation=0.0,
                max_translation=0.0,
            )
            d = np.sqrt(((out.coords() - s.coords()) ** 2).sum(axis=1))
            total += d.sum()
            count += len(d)
        mean = total / count
        expected = sigma * math.sqrt(math.pi / 2)
        assert abs(mean - expected) / expected < 0.2


class TestGenOrientation:
    def test_deterministic(self):
        cfg = SynthConfig(finger_class=FingerClass.WHORL, seed=2)
        f1, c1 = gen_synthetic_orientation(cfg)
        f2, c2 = gen_synthetic_orientation(cfg)
        assert np.array_equal(f1.directions, f2.directions)
        assert c1 == c2

    def test_arch_has_no_singularity(self):
        field, _ = gen_synthetic_orientation(SynthConfig(finger_class=FingerClass.ARCH, seed=4))
        from fpverify.orientation import poincare_index_grid

        grid = np.abs(poincare_index_grid(field))
        assert float(grid.max()) < 0.25

    @pytest.mark.parametrize(
        "cls", [FingerClass.TENTED_ARCH, FingerClass.LEFT_LOOP, FingerClass.RIGHT_LOOP]
    )
    def test_one_core_classes_have_one_positive_window(self, cls):
        from fpverify.orientation import poincare_index_grid

        field, truth = gen_synthetic_orientation(SynthConfig(finger_class=cls, seed=6))
        grid = poincare_index_grid(field)
        hot = np.argwhere(np.abs(grid - 0.5) < 0.05)
        assert len(hot) == 1
        r, c = hot[0]
        assert abs((c + 0.5) * field.block_size - truth.x) <= 1.5 * field.block_size
        assert abs((r + 0.5) * field.block_size - truth.y) <= 1.5 * field.block_size

    def test_certainty_disk(self):
        field, _ = gen_synthetic_orientation(SynthConfig(seed=1))
        assert set(np.unique(field.certainties)) <= {0.0, 1.0}
        assert field.certainties.sum() > 0
        assert (field.certainties == 0).sum() > 0


class TestZeroPole:
    def test_winding_around_core_is_half(self):
        angles = np.linspace(0, 2 * math.pi, 200, endpoint=False)
        xs, ys = 50 + 10 * np.cos(angles), 50 + 10 * np.sin(angles)
        d = zero_pole_direction(xs, ys, [(50.0, 50.0)], [], 0.3)
        steps = np.mod(np.diff(np.concatenate([d, d[:1]])) + np.pi / 2, np.pi) - np.pi / 2
        assert float(steps.sum()) == pytest.approx(math.pi, abs=1e-6)

    def test_delta_winds_negative(self):
        angles = np.linspace(0, 2 * math.pi, 200, endpoint=False)
        xs, ys = 50 + 10 * np.cos(angles), 50 + 10 * np.sin(angles)
        d = zero_pole_direction(xs, ys, [], [(50.0, 50.0)], 0.3)
        steps = np.mod(np.diff(np.concatenate([d, d[:1]])) + np.pi / 2, np.pi) - np.pi / 2
        assert float(steps.sum()) == pytest.approx(-math.pi, abs=1e-6)


class TestDegrade:
    def test_fraction_zero_is_identity(self):
        field, core = gen_synthetic_orientation(SynthConfig(seed=3))
        from fpverify.orientation import extract_feature_vector

        fv = extract_feature_vector(field, core)
        out = degrade_feature_vector(fv, 0.0, seed=9)
        assert np.array_equal(out.directions, fv.directions)

    def test_fraction_hits_expected_count(self):
        field, core = gen_synthetic_orientation(SynthConfig(seed=3))
        from fpverify.orientation import extract_feature_vector

        fv = extract_feature_vector(field, core)
        out = degrade_feature_vector(fv, 0.25, seed=10)
        assert int((out.certainties == 0).sum()) >= 64  # hits plus any prior zeros


class TestFieldFile:
    def test_round_trip(self, tmp_path):
        field, core = gen_synthetic_orientation(SynthConfig(finger_class=FingerClass.WHORL, seed=8))
        p = tmp_path / "f.of1"
        save_orientation_field(field, p, core=core)
        loaded, loaded_core = load_orientation_field(p)
        assert loaded.block_size == field.block_size
        assert np.allclose(loaded.directions, field.directions, atol=1e-7)
        assert np.allclose(loaded.certainties, field.certainties)
        assert loaded_core.x == pytest.approx(core.x)
        # second pass is exact at 9 significant digits
        save_orientation_field(loaded, p, core=loaded_core)
        again, _ = load_orientation_field(p)
        assert np.array_equal(again.directions, loaded.directions)

    @pytest.mark.parametrize(
        "text",
        [
            b"OF1 x 2 16\n0 0\n1 1\n",
            b"OF1 2 1 16\nCORE 5\n0 0\n1 1\n",
            b"OF1 2 1 16\n0 zero\n1 1\n",
            b"OF1 2 1 16\n0 9\n1 1\n",
            b"OF1 2 1 0\n0 0\n1 1\n",
            b"OF1 2 1 -16\n0 0\n1 1\n",
            b"OF1 2 1 16\n0 nan\n1 1\n",
            b"OF1 2 1 16\n0 0\nnan 1\n",
        ],
        ids=["header", "core", "value", "direction", "block-0", "block-negative", "nan-direction", "nan-certainty"],
    )
    def test_malformed_field_raises_fingerprint_error(self, text):
        with pytest.raises(FingerprintError):
            load_orientation_field(text)

    def test_no_core_line(self, tmp_path):
        field, _ = gen_synthetic_orientation(SynthConfig(seed=8))
        p = tmp_path / "f.of1"
        save_orientation_field(field, p)
        _, core = load_orientation_field(p)
        assert core is None
