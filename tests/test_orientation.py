import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpverify import FingerClass
from fpverify.core import CorePoint
from fpverify.errors import (
    FingerprintError,
    ImageTooSmall,
    LowConfidenceCoreWarning,
    MalformedImage,
    NoForeground,
)
from fpverify.orientation import (
    BLOCK_SIZE,
    FEATURE_LEN,
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
    return GrayImage(np.round(128 + 100 * np.sin(2 * np.pi * phase / period)))


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


def float64_block_directions(img, block_size=BLOCK_SIZE):
    """Reference: estimate_block_directions as it was in float64 arithmetic,
    with Sobel over the whole padded image and one 4-D block sum."""
    f = np.pad(img.pixels.astype(np.float64), 1, mode="symmetric")
    dx = f[:, 2:] - f[:, :-2]
    dy = f[2:, :] - f[:-2, :]
    gx = dx[:-2] + 2.0 * dx[1:-1] + dx[2:]
    gy = dy[:, :-2] + 2.0 * dy[:, 1:-1] + dy[:, 2:]

    rows = img.height // block_size
    cols = img.width // block_size
    h, w = rows * block_size, cols * block_size

    def block_sum(a):
        return a[:h, :w].reshape(rows, block_size, cols, block_size).sum(axis=(1, 3))

    sxx = block_sum(gx * gx)
    syy = block_sum(gy * gy)
    sxy = block_sum(gx * gy)

    theta = 0.5 * np.arctan2(2.0 * sxy, sxx - syy) + 0.5 * np.pi
    theta = np.mod(theta, np.pi)
    theta = np.where(theta >= np.pi, 0.0, theta)

    energy = sxx + syy
    coherence = np.zeros_like(energy)
    nz = energy > 0.0
    coherence[nz] = np.sqrt((sxx[nz] - syy[nz]) ** 2 + 4.0 * sxy[nz] ** 2) / energy[nz]
    np.clip(coherence, 0.0, 1.0, out=coherence)
    return theta, coherence


def loop_feature_vector(field, core):
    """Reference: extract_feature_vector as a scan over the 256 window cells."""
    bs = field.block_size
    bx = int(math.floor(core.x / bs))
    by = int(math.floor(core.y / bs))

    directions = np.zeros(FEATURE_LEN)
    certainties = np.zeros(FEATURE_LEN)
    fg_sum = 0.0
    fg_count = 0
    i = 0
    for r in range(by - 8, by + 8):
        for c in range(bx - 8, bx + 8):
            inside = 0 <= r < field.rows and 0 <= c < field.cols
            if inside and field.certainties[r, c] > 0.0:
                d = float(field.directions[r, c])
                directions[i] = d
                certainties[i] = float(field.certainties[r, c])
                fg_sum += d
                fg_count += 1
            else:
                directions[i] = fg_sum / fg_count if fg_count else 0.0
                certainties[i] = 0.0
            i += 1
    return directions, certainties


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def synth_field_image(finger_class, seed, period=8.0):
    """Ridges that follow a synthetic orientation field, one direction per block."""
    field, _ = gen_synthetic_orientation(SynthConfig(finger_class=finger_class, seed=seed))
    theta = np.repeat(np.repeat(field.directions, BLOCK_SIZE, axis=0), BLOCK_SIZE, axis=1)
    yy, xx = np.mgrid[0 : theta.shape[0], 0 : theta.shape[1]]
    phase = xx * np.cos(theta + math.pi / 2) + yy * np.sin(theta + math.pi / 2)
    return GrayImage(np.round(128 + 100 * np.sin(2 * np.pi * phase / period)))


def stripes(shape, axis):
    """0/255 stripes two pixels wide: across each edge Sobel reads |g| = 4 * 255 = 1020."""
    level = np.where(np.arange(shape[axis]) // 2 % 2 == 1, 255, 0)
    return np.broadcast_to(level[:, None] if axis == 0 else level[None, :], shape)


class TestEstimateBlockDirections:
    def test_uniform_image_zero_certainty(self):
        img = GrayImage(np.full((48, 48), 77))
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
            estimate_block_directions(GrayImage(np.zeros((8, 40))))

    def test_deterministic(self):
        img = sinusoid_image(64, 0.7)
        a = estimate_block_directions(img)
        b = estimate_block_directions(img)
        assert np.array_equal(a.directions, b.directions)
        assert np.array_equal(a.certainties, b.certainties)

    def test_ranges(self):
        rng = np.random.default_rng(0)
        img = GrayImage(rng.integers(0, 256, size=(80, 80)))
        field = estimate_block_directions(img)
        assert np.all((field.directions >= 0) & (field.directions < np.pi))
        assert np.all((field.certainties >= 0) & (field.certainties <= 1))


class TestIntegerArithmeticMatchesFloat64:
    """Integer Sobel and block sums give the float64 reference's field to the bit."""

    def check(self, img, block_size):
        field = estimate_block_directions(img, block_size)
        directions, certainties = float64_block_directions(img, block_size)
        assert_same_bits(field.directions, directions)
        assert_same_bits(field.certainties, certainties)

    @pytest.mark.parametrize("block_size", [8, 16, 32])
    @pytest.mark.parametrize("shape", [(16, 16), (17, 33), (100, 47), (255, 300), (64, 16)])
    def test_random_images(self, shape, block_size):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1] + block_size)
        img = GrayImage(rng.integers(0, 256, size=shape))
        if min(shape) < block_size:
            with pytest.raises(ImageTooSmall):
                estimate_block_directions(img, block_size)
        else:
            self.check(img, block_size)

    @pytest.mark.parametrize("finger_class", list(FingerClass))
    def test_synth_field_images(self, finger_class):
        for seed in range(2):
            self.check(synth_field_image(finger_class, seed), BLOCK_SIZE)

    @pytest.mark.parametrize("block_size", [8, 16, 32])
    @pytest.mark.parametrize(
        "pixels",
        [
            np.zeros((70, 90)),
            np.full((70, 90), 255),
            stripes((70, 90), axis=0),
            stripes((70, 90), axis=1),
            np.where(np.indices((70, 90)).sum(axis=0) // 2 % 2 == 1, 255, 0),
        ],
        ids=["all-0", "all-255", "row-stripes", "column-stripes", "diagonal-stripes"],
    )
    def test_extreme_images(self, pixels, block_size):
        self.check(GrayImage(pixels), block_size)


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


class TestExtractMatchesLoop:
    """Index arrays and cumulative sums give the cell scan's vector to the bit."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_fields_and_cores(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = (int(n) for n in rng.integers(2, 30, size=2))
        certainties = rng.uniform(0.01, 1.0, size=(rows, cols))
        certainties[rng.uniform(size=(rows, cols)) < rng.uniform()] = 0.0  # background
        field = OrientationField(rng.uniform(0, np.pi - 1e-9, size=(rows, cols)), certainties)
        far = [-1e300, -500.0, 1e300]
        cores = [
            (cols * BLOCK_SIZE / 2, rows * BLOCK_SIZE / 2),  # centre
            (0.0, 0.0),
            (cols * BLOCK_SIZE - 0.5, 0.0),
            (0.0, rows * BLOCK_SIZE - 0.5),
            (cols * BLOCK_SIZE - 0.5, rows * BLOCK_SIZE - 0.5),
            *[(x, y) for x in far for y in far],  # wholly off the field
            *[(x, rows * BLOCK_SIZE / 2) for x in far],
            *[tuple(rng.uniform(-300, 800, size=2)) for _ in range(20)],
        ]
        for x, y in cores:
            fv = extract_feature_vector(field, CorePoint(x, y))
            loop_directions, loop_certainties = loop_feature_vector(field, CorePoint(x, y))
            assert_same_bits(fv.directions, loop_directions)
            assert_same_bits(fv.certainties, loop_certainties)

    def test_synth_fields(self):
        for finger_class in FingerClass:
            field, truth = gen_synthetic_orientation(SynthConfig(finger_class=finger_class, seed=3))
            for core in (truth, CorePoint(0.0, 0.0), CorePoint(-40.0 * BLOCK_SIZE, 7.0)):
                fv = extract_feature_vector(field, core)
                directions, certainties = loop_feature_vector(field, core)
                assert_same_bits(fv.directions, directions)
                assert_same_bits(fv.certainties, certainties)


class TestGrayImage:
    @pytest.mark.parametrize(
        "pixels",
        [np.array([[300, -1]]), [[300, -1]], [[127.6]], [[math.nan]]],
        ids=["array-300-minus-1", "list-300-minus-1", "fraction", "nan"],
    )
    def test_pixel_value_it_would_wrap_is_malformed(self, pixels):
        # A uint8 cast would wrap an array (300 -> 44, -1 -> 255) and raise a
        # bare OverflowError on a list.
        with pytest.raises(MalformedImage, match="whole numbers in \\[0, 255\\]"):
            GrayImage(pixels)


class TestPgm:
    def test_p5_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = GrayImage(rng.integers(0, 256, size=(24, 18)))
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

    @pytest.mark.parametrize(
        "data",
        [b"P5 " + b"9" * 5000 + b" 2 255\n" + bytes(4), b"P2 2 1 255 7 " + b"9" * 5000 + b"\n"],
        ids=["width", "p2-pixel"],
    )
    def test_number_beyond_int_digit_limit_is_malformed(self, data):
        with pytest.raises(MalformedImage):
            read_pgm(data)

    def test_leading_zeros_are_dropped(self):
        img = read_pgm(b"P2 2 1 0255 " + b"0" * 5000 + b"7 000\n")
        assert np.array_equal(img.pixels, [[7, 0]])


def valid_pgm(magic, pixels):
    height, width = pixels.shape
    header = f"{magic}\n{width} {height}\n255\n".encode("ascii")
    if magic == "P5":
        return header + pixels.tobytes()
    return header + " ".join(str(v) for v in pixels.reshape(-1)).encode("ascii") + b"\n"


ODD_PGM_TOKENS = [b"0", b"-1", b"256", b"65536", b"1e3", b"0x10", b"#", b"P5", b"9" * 5000, b"0" * 5000 + b"1"]


@st.composite
def mutated_pgms(draw):
    """A valid P2 or P5 file with byte runs replaced, inserted or dropped, or
    space-separated fields swapped for odd tokens."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    n = shape[0] * shape[1]
    pixels = np.array(draw(st.lists(st.integers(0, 255), min_size=n, max_size=n)), dtype=np.uint8).reshape(shape)
    data = bytearray(valid_pgm(draw(st.sampled_from(["P2", "P5"])), pixels))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "insert", "drop", "token"]))
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 6)))
        if op == "replace":
            data[i:j] = draw(st.binary(max_size=6))
        elif op == "insert":
            data[i:i] = draw(st.binary(min_size=1, max_size=6) | st.sampled_from(ODD_PGM_TOKENS))
        elif op == "drop":
            del data[i:j]
        else:
            tokens = bytes(data).split(b" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(ODD_PGM_TOKENS))
            data = bytearray(b" ".join(tokens))
    return bytes(data)


class TestPgmFuzz:
    @given(data=st.binary(max_size=64) | st.binary(max_size=40).map(lambda tail: b"P5 2 2 255\n" + tail))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_read_or_raise_fingerprint_error(self, data):
        self.read_or_raise(data)

    @given(data=mutated_pgms())
    @settings(max_examples=300, deadline=None)
    def test_mutated_pgm_reads_or_raises_fingerprint_error(self, data):
        self.read_or_raise(data)

    @staticmethod
    def read_or_raise(data):
        try:
            img = read_pgm(data)
        except FingerprintError:
            return
        assert isinstance(img, GrayImage)
        assert img.pixels.shape == (img.height, img.width) and img.pixels.dtype == np.uint8
