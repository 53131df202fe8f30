import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpverify.core import (
    MAX_COORDINATE,
    CorePoint,
    Minutia,
    MinutiaKind,
    MinutiaeSet,
    RigidTransform,
    apply_transform,
    parse_minutiae,
    serialize_minutiae,
    to_core_relative,
    wrap_angle,
)
from fpverify.errors import DuplicatePoint, EmptySet, MalformedHeader, MalformedLine


def make_set(points, core=None):
    return MinutiaeSet(
        minutiae=tuple(Minutia(x, y, 0.25 * i) for i, (x, y) in enumerate(points)),
        core=core,
    )


class TestApplyTransform:
    def test_identity_is_bitwise_equal(self):
        s = make_set([(0.1, 2.3), (4.5, -6.7), (8.9, 10.1)], core=CorePoint(1.0, 2.0))
        assert apply_transform(s, RigidTransform()) == s

    def test_pure_translation(self):
        s = make_set([(0.0, 0.0)])
        out = apply_transform(s, RigidTransform(translation=(3.0, 4.0)))
        assert out.minutiae[0].x == 3.0
        assert out.minutiae[0].y == 4.0

    def test_quarter_turn_about_origin(self):
        s = make_set([(1.0, 0.0)])
        out = apply_transform(s, RigidTransform(rotation=math.pi / 2))
        assert out.minutiae[0].x == pytest.approx(0.0, abs=1e-12)
        assert out.minutiae[0].y == pytest.approx(1.0, abs=1e-12)

    def test_theta_advances_with_rotation(self):
        s = MinutiaeSet(minutiae=(Minutia(5.0, 5.0, 1.0),))
        out = apply_transform(s, RigidTransform(rotation=2.0, pivot=(5.0, 5.0)))
        assert out.minutiae[0].theta == pytest.approx(3.0)

    def test_core_moves_like_points(self):
        s = make_set([(2.0, 0.0)], core=CorePoint(2.0, 0.0))
        out = apply_transform(s, RigidTransform(rotation=1.2, translation=(5.0, -3.0)))
        assert out.core.x == pytest.approx(out.minutiae[0].x)
        assert out.core.y == pytest.approx(out.minutiae[0].y)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            apply_transform(MinutiaeSet(minutiae=()), RigidTransform())

    @given(
        rot=st.floats(0, 2 * math.pi - 1e-9),
        dx=st.floats(-300, 300),
        dy=st.floats(-300, 300),
        px=st.floats(-100, 100),
        py=st.floats(-100, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_inverse_returns_original(self, rot, dx, dy, px, py):
        s = make_set([(3.0, 1.0), (-4.0, 2.5), (10.0, -8.0)], core=CorePoint(0.5, 0.5))
        t = RigidTransform(rotation=rot, translation=(dx, dy), pivot=(px, py))
        back = apply_transform(apply_transform(s, t), t.inverse())
        for a, b in zip(back.minutiae, s.minutiae):
            assert a.x == pytest.approx(b.x, abs=1e-9)
            assert a.y == pytest.approx(b.y, abs=1e-9)
        assert back.core.x == pytest.approx(s.core.x, abs=1e-9)

    @given(rot=st.floats(0, 2 * math.pi - 1e-9), px=st.floats(-50, 50), py=st.floats(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_rigid_motion_preserves_pairwise_distances(self, rot, px, py):
        s = make_set([(0.0, 0.0), (7.0, 1.0), (-3.0, 12.0), (5.5, -2.25)])
        out = apply_transform(s, RigidTransform(rotation=rot, translation=(11.0, -4.0), pivot=(px, py)))
        a, b = s.coords(), out.coords()
        for i in range(len(a)):
            for j in range(i + 1, len(a)):
                d0 = math.dist(a[i], a[j])
                d1 = math.dist(b[i], b[j])
                assert d1 == pytest.approx(d0, abs=1e-9)


class TestMinutiaTypes:
    def test_theta_normalized(self):
        assert Minutia(0, 0, 2 * math.pi + 1.0).theta == pytest.approx(1.0)
        assert Minutia(0, 0, -0.5).theta == pytest.approx(2 * math.pi - 0.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Minutia(math.nan, 0, 0)
        with pytest.raises(ValueError):
            CorePoint(0, math.inf)

    def test_transform_rotation_normalized(self):
        assert RigidTransform(rotation=5 * math.pi).rotation == pytest.approx(math.pi)


class TestParse:
    def test_minimal_file(self):
        s = parse_minutiae(b"MIN1\nCORE 50 50\n10 20 0.5 E\n")
        assert len(s) == 1
        assert s.core == CorePoint(50.0, 50.0)
        m = s.minutiae[0]
        assert (m.x, m.y, m.theta, m.kind) == (10.0, 20.0, 0.5, MinutiaKind.ENDING)

    def test_wrong_header(self):
        with pytest.raises(MalformedHeader):
            parse_minutiae(b"MIN2\n10 20 0.5 E\n")

    def test_duplicate_point_carries_line_number(self):
        with pytest.raises(DuplicatePoint) as err:
            parse_minutiae(b"MIN1\n1 2 0 E\n1 2 1 B\n")
        assert err.value.line_no == 3

    def test_empty_file_rejected(self):
        with pytest.raises(EmptySet):
            parse_minutiae(b"MIN1\n# nothing here\n")

    def test_comments_and_blanks_ignored(self):
        s = parse_minutiae(b"MIN1\n# a comment\n\n1 2 0.1 B\n")
        assert len(s) == 1
        assert s.minutiae[0].kind == MinutiaKind.BIFURCATION

    @pytest.mark.parametrize(
        "body",
        [b"1 2 0.1\n", b"1 2 0.1 X\n", b"1 two 0.1 E\n", b"CORE 1\n", b"1 2 nan E\n"],
    )
    def test_malformed_lines(self, body):
        with pytest.raises(MalformedLine):
            parse_minutiae(b"MIN1\n" + body)

    def test_core_after_minutiae_rejected(self):
        with pytest.raises(MalformedLine):
            parse_minutiae(b"MIN1\n1 2 0 E\nCORE 5 5\n")

    def test_non_utf8_bytes_are_a_malformed_header(self):
        with pytest.raises(MalformedHeader):
            parse_minutiae(b"MIN1\n1 2 0.5 E\n\xff 4 0.5 E\n")

    @pytest.mark.parametrize(
        "body",
        [
            b"1e308 2 0.5 E\n",
            b"1 -1.5e100 0.5 E\n",
            b"1 inf 0.5 E\n",
            b"CORE 1e308 0\n1 2 0.5 E\n",
            b"CORE 1e100 0\n-1e90 2 0.5 E\n",
        ],
    )
    def test_coordinates_beyond_the_bound_are_malformed(self, body):
        with pytest.raises(MalformedLine):
            parse_minutiae(b"MIN1\n" + body)

    def test_coordinates_at_the_bound_are_accepted(self):
        bound = MAX_COORDINATE
        s = parse_minutiae(f"MIN1\nCORE {bound} {-bound}\n0 {-2 * bound} 0.5 E\n".encode())
        assert s.xy.tolist() == [[0.0, -2 * bound]] and s.core == CorePoint(bound, -bound)
        rel = to_core_relative(s)
        assert parse_minutiae(serialize_minutiae(rel, sig_digits=17)) == rel

    def test_order_preserved(self):
        s = parse_minutiae(b"MIN1\n5 5 0 E\n1 1 0 E\n3 3 0 E\n")
        assert [m.x for m in s.minutiae] == [5.0, 1.0, 3.0]


class TestSerialize:
    def test_round_trip_parsed_fixture(self):
        raw = b"MIN1\nCORE 150 150\n10.5 20.25 0.5 E\n-3 7 6.28 B\n1e2 0.125 3.14159265 E\n"
        s = parse_minutiae(raw)
        assert parse_minutiae(serialize_minutiae(s)) == s

    def test_no_core_no_core_line(self):
        s = parse_minutiae(b"MIN1\n1 2 0 E\n")
        assert b"CORE" not in serialize_minutiae(s)

    def test_line_count(self):
        s = parse_minutiae(b"MIN1\n1 2 0 E\n3 4 0 B\n5 6 0 E\n")
        assert len(serialize_minutiae(s).splitlines()) == 4

    @given(
        coords=st.lists(
            st.tuples(
                st.floats(-1000, 1000).map(lambda v: float(f"{v:.9g}")),
                st.floats(-1000, 1000).map(lambda v: float(f"{v:.9g}")),
            ),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_9_digit_coordinates(self, coords):
        s = MinutiaeSet(minutiae=tuple(Minutia(x, y, 0.5) for x, y in coords))
        assert parse_minutiae(serialize_minutiae(s)) == s


def test_to_core_relative_centers_core():
    s = make_set([(10.0, 20.0), (30.0, 40.0)], core=CorePoint(10.0, 20.0))
    rel = to_core_relative(s)
    assert rel.core == CorePoint(0.0, 0.0)
    assert rel.minutiae[0].x == 0.0 and rel.minutiae[1].y == 20.0


def test_coords_shape():
    s = make_set([(1, 2), (3, 4)])
    assert s.coords().shape == (2, 2)
    assert np.array_equal(s.coords(), [[1, 2], [3, 4]])


def oracle_wrap(theta):
    """The scalar wrap rule: math.fmod, then 2*pi added to a negative remainder."""
    t = math.fmod(theta, 2 * math.pi)
    if t < 0.0:
        t += 2 * math.pi
    return 0.0 if t >= 2 * math.pi else t


def oracle_transform(points, core, t):
    """apply_transform one minutia at a time, with the left-to-right formula."""
    r = t.rotation
    dx, dy = t.translation
    px, py = t.pivot
    c, s = math.cos(r), math.sin(r)

    def move(x, y):
        if r == 0.0:
            return x + dx, y + dy
        rx, ry = x - px, y - py
        return rx * c - ry * s + px + dx, rx * s + ry * c + py + dy

    moved = [(*move(x, y), theta if r == 0.0 else oracle_wrap(theta + r)) for x, y, theta in points]
    return moved, move(core.x, core.y)


EDGE_ANGLES = [0.0, -0.0, 2 * math.pi, -2 * math.pi, -1e-17, np.nextafter(2 * math.pi, 0.0), 1e300, -1e300]


def test_array_wrap_angle_is_the_scalar_rule_bit_for_bit():
    angles = np.concatenate((np.random.default_rng(3).normal(0.0, 20.0, 500), EDGE_ANGLES))
    expected = [oracle_wrap(float(a)) for a in angles]
    assert wrap_angle(angles).tobytes() == np.array(expected).tobytes()
    scalars = [wrap_angle(float(a)) for a in angles]
    assert all(type(v) is float for v in scalars)
    assert np.array(scalars).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize(
    "transform",
    [
        RigidTransform(rotation=1.234, translation=(5.5, -3.25), pivot=(10.0, -7.0)),
        RigidTransform(translation=(3.0, -0.0)),
    ],
    ids=["rotation", "translation"],
)
def test_apply_transform_is_the_per_minutia_formula_bit_for_bit(transform):
    rng = np.random.default_rng(4)
    xy = rng.uniform(-200.0, 200.0, size=(len(EDGE_ANGLES) + 20, 2))
    theta = np.concatenate((EDGE_ANGLES, rng.uniform(0.0, 2 * math.pi, 20)))
    minutiae = tuple(Minutia(x, y, t) for (x, y), t in zip(xy.tolist(), theta.tolist()))
    s = MinutiaeSet(minutiae=minutiae, core=CorePoint(-0.0, 12.5))
    out = apply_transform(s, transform)
    moved, core = oracle_transform([(m.x, m.y, m.theta) for m in minutiae], s.core, transform)
    assert out.xy.tobytes() == np.array([m[:2] for m in moved]).tobytes()
    assert out.theta.tobytes() == np.array([m[2] for m in moved]).tobytes()
    assert np.array([out.core.x, out.core.y]).tobytes() == np.array(core).tobytes()


class TestMinutiaeSetArrays:
    @pytest.fixture
    def s(self):
        return parse_minutiae(b"MIN1\nCORE 5 5\n1 2 0.5 E\n3 4 1.5 B\n6 7 7.0 E\n", source_id="f")

    def test_arrays_hold_the_minutiae(self, s):
        assert s.xy.shape == (3, 2) and s.theta[2] == 7.0 - 2 * math.pi
        assert s.kind.tolist() == ["E", "B", "E"]
        assert s.minutiae[1] == Minutia(3.0, 4.0, 1.5, MinutiaKind.BIFURCATION)

    def test_replace_minutiae_shortens_the_set(self, s):
        short = dataclasses.replace(s, minutiae=s.minutiae[:-1])
        assert len(short) == 2 and (short.core, short.source_id) == (s.core, "f")
        first_two = MinutiaeSet(minutiae=s.minutiae[:2], core=s.core, source_id="f")
        assert short == first_two and np.array_equal(short.xy, s.xy[:2])

    def test_replace_source_id_keeps_the_arrays(self, s):
        renamed = dataclasses.replace(s, source_id="g")
        assert renamed.source_id == "g" and renamed != s
        assert renamed == MinutiaeSet(xy=s.xy, theta=s.theta, kind=s.kind, core=s.core, source_id="g")

    def test_arrays_are_read_only(self, s):
        with pytest.raises(ValueError):
            s.xy[0, 0] = 9.0
        with pytest.raises(ValueError):
            s.theta[0] = 9.0

    @pytest.mark.parametrize(
        "xy, theta, kind",
        [
            ([[1.0, 2.0]], [0.5, 1.0], ["E"]),
            ([[1.0, math.inf]], [0.5], ["E"]),
            ([[1.0, 2.0]], [math.nan], ["E"]),
            ([[1.0, 2.0]], [0.5], ["X"]),
        ],
        ids=["rows-differ", "inf-position", "nan-direction", "unknown-kind"],
    )
    def test_arrays_are_checked(self, xy, theta, kind):
        with pytest.raises(ValueError):
            MinutiaeSet(xy=xy, theta=theta, kind=kind)

    def test_coords_is_the_stored_array(self, s):
        assert s.coords() is s.xy and s.coords() is s.coords()
