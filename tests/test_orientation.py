import math
import warnings

import numpy as np
import pytest

from fpverify.core import CorePoint
from fpverify.errors import FingerprintError, ImageTooSmall, LowConfidenceCoreWarning, NoForeground
from fpverify.orientation import (
    BLOCK_SIZE,
    FeatureVector,
    GrayImage,
    OrientationField,
    detect_core,
    estimate_block_directions,
    extract_feature_vector,
    poincare_index_grid,
    read_pgm,
    segment_by_certainty,
    write_pgm,
)
from fpverify.synth import SynthConfig, gen_synthetic_orientation, zero_pole_direction


def sinusoid_image(size, alpha, period=8.0):
    """Ridges flowing along angle alpha (intensity varies along the normal)."""
    yy, xx = np.mgrid[0:size, 0:size]
    phase = xx * math.cos(alpha + math.pi / 2) + yy * math.sin(alpha + math.pi / 2)
    return GrayImage.from_array(np.round(128 + 100 * np.sin(2 * np.pi * phase / period)))


def analytic_direction_oracle(alpha, size, period=8.0):
    """Independent estimate: analytic gradients of the sinusoid per pixel,
    then the same closed-form per-block combination, in scalar code."""
    w = 2 * math.pi / period
    nx, ny = math.cos(alpha + math.pi / 2), math.sin(alpha + math.pi / 2)
    deriv = lambda x, y: 100 * w * math.cos(w * (x * nx + y * ny))
    dirs = []
    for br in range(size // BLOCK_SIZE):
        for bc in range(size // BLOCK_SIZE):
            sxx = syy = sxy = 0.0
            for y in range(br * BLOCK_SIZE, (br + 1) * BLOCK_SIZE):
                for x in range(bc * BLOCK_SIZE, (bc + 1) * BLOCK_SIZE):
                    g = deriv(x, y)
                    gx, gy = g * nx, g * ny
                    sxx += gx * gx
                    syy += gy * gy
                    sxy += gx * gy
            theta = 0.5 * math.atan2(2 * sxy, sxx - syy) + math.pi / 2
            dirs.append(theta % math.pi)
    return np.array(dirs).reshape(size // BLOCK_SIZE, size // BLOCK_SIZE)


def circular_error(a, b):
    return np.abs(np.mod(a - b + np.pi / 2, np.pi) - np.pi / 2)


class TestEstimateBlockDirections:
    def test_uniform_image_zero_certainty(self):
        img = GrayImage.from_array(np.full((48, 48), 77))
        field = estimate_block_directions(img)
        assert np.all(field.certainties == 0.0)

    def test_horizontal_ridges(self):
        field = estimate_block_directions(sinusoid_image(64, 0.0))
        oracle = analytic_direction_oracle(0.0, 64)
        assert np.all(circular_error(field.directions, oracle) <= 0.02)
        assert np.all(circular_error(field.directions, 0.0) <= 0.02)
        assert np.all(field.certainties >= 0.95)

    def test_vertical_ridges(self):
        field = estimate_block_directions(sinusoid_image(64, math.pi / 2))
        oracle = analytic_direction_oracle(math.pi / 2, 64)
        assert np.all(circular_error(field.directions, oracle) <= 0.02)
        assert np.all(circular_error(field.directions, math.pi / 2) <= 0.02)

    @pytest.mark.parametrize("alpha", [i * math.pi / 8 for i in range(8)])
    def test_ridge_angle_family(self, alpha):
        field = estimate_block_directions(sinusoid_image(96, alpha))
        interior = field.directions[1:-1, 1:-1]
        assert np.all(circular_error(interior, alpha) <= 0.05)

    def test_too_small(self):
        with pytest.raises(ImageTooSmall):
            estimate_block_directions(GrayImage.from_array(np.zeros((8, 40))))

    def test_deterministic(self):
        img = sinusoid_image(64, 0.7)
        a = estimate_block_directions(img)
        b = estimate_block_directions(img)
        assert np.array_equal(a.directions, b.directions)
        assert np.array_equal(a.certainties, b.certainties)

    def test_ranges(self):
        rng = np.random.default_rng(0)
        img = GrayImage.from_array(rng.integers(0, 256, size=(80, 80)))
        field = estimate_block_directions(img)
        assert np.all((field.directions >= 0) & (field.directions < np.pi))
        assert np.all((field.certainties >= 0) & (field.certainties <= 1))


class TestSegment:
    def _field(self, certs):
        c = np.asarray(certs, dtype=float)
        return OrientationField(directions=np.full(c.shape, 0.5), certainties=c)

    def test_zero_threshold_keeps_everything(self):
        f = self._field([[0.1, 0.6], [0.0, 1.0]])
        out = segment_by_certainty(f, 0.0)
        assert np.array_equal(out.certainties, f.certainties)
        assert np.array_equal(out.directions, f.directions)

    def test_threshold_one_zeroes_all_below_one(self):
        out = segment_by_certainty(self._field([[0.99, 1.0]]), 1.0)
        assert np.array_equal(out.certainties, [[0.0, 1.0]])

    def test_mixed(self):
        out = segment_by_certainty(self._field([[0.1, 0.6]]), 0.3)
        assert np.array_equal(out.certainties, [[0.0, 0.6]])


def brute_force_poincare(directions, r, c):
    """Independent winding computation for the window anchored at (r, c)."""
    loop = [
        directions[r, c],
        directions[r, c + 1],
        directions[r + 1, c + 1],
        directions[r + 1, c],
        directions[r, c],
    ]
    total = 0.0
    for a, b in zip(loop, loop[1:]):
        d = b - a
        while d <= -math.pi / 2:
            d += math.pi
        while d > math.pi / 2:
            d -= math.pi
        total += d
    return total / (2 * math.pi)


class TestDetectCore:
    def test_loop_field_finds_planted_core(self):
        for seed in range(5):
            field, truth = gen_synthetic_orientation(
                SynthConfig(finger_class=__import__("fpverify").FingerClass.LEFT_LOOP, seed=seed)
            )
            core = detect_core(field)
            assert math.hypot(core.x - truth.x, core.y - truth.y) <= BLOCK_SIZE

    def test_index_grid_matches_brute_force(self):
        field, _ = gen_synthetic_orientation(SynthConfig(seed=1))
        grid = poincare_index_grid(field)
        rng = np.random.default_rng(0)
        for _ in range(40):
            r = int(rng.integers(0, field.rows - 1))
            c = int(rng.integers(0, field.cols - 1))
            assert grid[r, c] == pytest.approx(
                brute_force_poincare(field.directions, r, c), abs=1e-12
            )

    def test_loop_has_exactly_one_half_index_window(self):
        from fpverify import FingerClass

        field, truth = gen_synthetic_orientation(
            SynthConfig(finger_class=FingerClass.LEFT_LOOP, seed=11)
        )
        hot = []
        for r in range(field.rows - 1):
            for c in range(field.cols - 1):
                if abs(brute_force_poincare(field.directions, r, c) - 0.5) < 0.05:
                    hot.append((r, c))
        assert len(hot) == 1
        (r, c) = hot[0]
        assert abs((c + 0.5) * BLOCK_SIZE - truth.x) <= 1.5 * BLOCK_SIZE
        assert abs((r + 0.5) * BLOCK_SIZE - truth.y) <= 1.5 * BLOCK_SIZE

    def test_constant_field_warns_and_returns_best_certainty(self):
        directions = np.full((8, 8), 1.0)
        certs = np.full((8, 8), 0.5)
        certs[5:7, 3:5] = 0.9  # one clearly-best 2x2 window anchored at (5, 3)
        field = OrientationField(directions=directions, certainties=certs)
        with pytest.warns(LowConfidenceCoreWarning):
            core = detect_core(field)
        assert (core.x, core.y) == ((3 + 1) * BLOCK_SIZE, (5 + 1) * BLOCK_SIZE)

    def test_two_identical_loops_higher_certainty_wins(self):
        # Stamp one loop patch twice (bitwise-identical directions, so the
        # winding indexes tie exactly) and give the right stamp more
        # certainty.
        base = 1.2
        patch_blocks = 8
        px = (np.arange(patch_blocks) + 0.5) * BLOCK_SIZE
        gx, gy = np.meshgrid(px, px)
        sing = patch_blocks / 2 * BLOCK_SIZE  # corner shared by 4 blocks
        patch = zero_pole_direction(gx, gy, [(sing, sing)], [], base)

        directions = np.full((20, 24), base)
        directions[2:10, 2:10] = patch
        directions[10:18, 14:22] = patch
        certs = np.ones((20, 24))
        certs[2:10, 2:10] = 0.9
        field = OrientationField(directions=directions, certainties=certs)

        grid = poincare_index_grid(field)
        left_anchor = (2 + 3, 2 + 3)
        right_anchor = (10 + 3, 14 + 3)
        assert grid[left_anchor] == grid[right_anchor]  # exact tie

        core = detect_core(field)
        assert (core.x, core.y) == (
            (right_anchor[1] + 1) * BLOCK_SIZE,
            (right_anchor[0] + 1) * BLOCK_SIZE,
        )

    def test_no_foreground(self):
        field = OrientationField(directions=np.zeros((4, 4)), certainties=np.zeros((4, 4)))
        with pytest.raises(NoForeground):
            detect_core(field)

    def test_translation_moves_core_by_block_offset(self):
        side = 20
        px = (np.arange(side) + 0.5) * BLOCK_SIZE
        gx, gy = np.meshgrid(px, px)
        spots = [(9.5 * BLOCK_SIZE, 8.5 * BLOCK_SIZE)]
        f1 = OrientationField(
            directions=zero_pole_direction(gx, gy, spots, [], 0.3),
            certainties=np.ones((side, side)),
        )
        shifted = [(spots[0][0] + 3 * BLOCK_SIZE, spots[0][1] + 2 * BLOCK_SIZE)]
        f2 = OrientationField(
            directions=zero_pole_direction(gx, gy, shifted, [], 0.3),
            certainties=np.ones((side, side)),
        )
        c1 = detect_core(f1)
        c2 = detect_core(f2)
        assert (c2.x - c1.x, c2.y - c1.y) == (3 * BLOCK_SIZE, 2 * BLOCK_SIZE)


class TestExtractFeatureVector:
    def _random_field(self, rows, cols, seed=0):
        rng = np.random.default_rng(seed)
        return OrientationField(
            directions=rng.uniform(0, np.pi - 1e-9, size=(rows, cols)),
            certainties=rng.uniform(0.01, 1.0, size=(rows, cols)),
        )

    def test_centered_window_copied_verbatim(self):
        field = self._random_field(31, 31)
        core = CorePoint((15 + 0.5) * BLOCK_SIZE, (15 + 0.5) * BLOCK_SIZE)
        fv = extract_feature_vector(field, core)
        assert np.array_equal(fv.directions, field.directions[7:23, 7:23].reshape(-1))
        assert np.array_equal(fv.certainties, field.certainties[7:23, 7:23].reshape(-1))

    def test_corner_core_out_of_bounds_count(self):
        field = self._random_field(31, 31)
        fv = extract_feature_vector(field, CorePoint(0.0, 0.0))
        # Direct count: window rows/cols -8..7 around block (0, 0) leave an
        # 8x8 in-bounds corner.
        expected_oob = sum(
            1
            for r in range(-8, 8)
            for c in range(-8, 8)
            if not (0 <= r < 31 and 0 <= c < 31)
        )
        assert expected_oob == 256 - 64
        assert int(np.sum(fv.certainties == 0.0)) == expected_oob

    def test_constant_foreground_field(self):
        field = OrientationField(
            directions=np.full((40, 40), 0.7), certainties=np.ones((40, 40))
        )
        fv = extract_feature_vector(field, CorePoint(20 * BLOCK_SIZE, 20 * BLOCK_SIZE))
        assert np.all(fv.directions == 0.7)
        assert np.all(fv.certainties == 1.0)

    def test_background_gets_running_foreground_mean(self):
        # 0.5 is dyadic: the running mean of any number of copies is exact.
        directions = np.full((31, 31), 0.5)
        certs = np.ones((31, 31))
        certs[10, 10] = 0.0  # one background block inside the window
        field = OrientationField(directions=directions, certainties=certs)
        fv = extract_feature_vector(field, CorePoint(15.5 * BLOCK_SIZE, 15.5 * BLOCK_SIZE))
        bg = fv.certainties == 0.0
        assert bg.sum() == 1
        # all foreground so far had direction 0.5
        assert np.all(fv.directions[bg] == 0.5)

    def test_leading_background_defaults_to_zero(self):
        directions = np.full((31, 31), 0.75)
        certs = np.zeros((31, 31))
        certs[20:, 20:] = 1.0  # foreground only in the lower-right
        field = OrientationField(directions=directions, certainties=certs)
        fv = extract_feature_vector(field, CorePoint(15.5 * BLOCK_SIZE, 15.5 * BLOCK_SIZE))
        first_fg = int(np.argmax(fv.certainties > 0))
        assert np.all(fv.directions[:first_fg] == 0.0)
        assert np.all(fv.directions[first_fg:][fv.certainties[first_fg:] == 0.0] == 0.75)


class TestPgm:
    def test_p5_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = GrayImage.from_array(rng.integers(0, 256, size=(24, 18)))
        path = tmp_path / "x.pgm"
        write_pgm(img, path)
        back = read_pgm(path)
        assert back.width == 18 and back.height == 24
        assert np.array_equal(back.pixels, img.pixels)

    def test_p2_with_comments(self):
        text = b"P2\n# comment\n3 2\n255\n0 1 2\n# more\n3 4 255\n"
        img = read_pgm(text)
        assert img.width == 3 and img.height == 2
        assert np.array_equal(img.pixels, [[0, 1, 2], [3, 4, 255]])

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            read_pgm(b"P6\n2 2\n255\n" + bytes(12))

    def test_maxval_limit(self):
        with pytest.raises(ValueError):
            read_pgm(b"P2\n1 1\n65535\n12\n")

    @pytest.mark.parametrize(
        "data",
        [b"P2\n2 1\n255\n7 300\n", b"P2\n2 1\n255\n-1 7\n", b"P2\n2 1\n255\n7\n", b"P5\n2 2\n255\n\x00"],
        ids=["p2-300", "p2-minus-1", "p2-truncated", "p5-truncated"],
    )
    def test_bad_image_is_a_fingerprint_error(self, data):
        with pytest.raises(FingerprintError):
            read_pgm(data)
