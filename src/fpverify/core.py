"""Geometric data model, rigid motions, and the MIN1 minutiae file format.

The MIN1 format is the canonical interchange format for minutiae in this
toolkit (UTF-8 text):

    MIN1
    CORE <x> <y>            # optional, at most one, before any minutia
    <x> <y> <theta> <E|B>   # one line per minutia
    ...

Lines starting with ``#`` and blank lines are ignored (except line 1, which
must be the header). Values must be finite. The core's coordinates, and each
minutia's offsets from the core (from the origin in a file without one), must
be at most MAX_COORDINATE (1e100) in magnitude: every squared distance the
matcher takes, and every sum of them, then stays finite, and a core-relative
set, as a template record holds it, parses again. Coordinates are written
with 9 significant digits, so any parsed file round-trips byte-identically
through ``parse_minutiae(serialize_minutiae(s))``.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from enum import Enum

import numpy as np

from .errors import DuplicatePoint, EmptySet, MalformedHeader, MalformedLine, MissingCore

TWO_PI = 2.0 * math.pi
MAX_COORDINATE = 1e100


def wrap_angle(theta):
    """Wrap an angle, or each angle of an array, into [0, 2*pi)."""
    t = np.fmod(theta, TWO_PI)
    if (t < 0.0).any():
        t = np.where(t < 0.0, t + TWO_PI, t)
        t[t >= TWO_PI] = 0.0  # a remainder just below 0 can round up to 2*pi
    return t if isinstance(theta, np.ndarray) else float(t)


def fmt_real(v: float, sig_digits: int = 9) -> str:
    """Format a real with the given significant digits (9 is the on-disk
    default; 17 round-trips float64 exactly)."""
    return format(float(v), f".{sig_digits}g")


class MinutiaKind(Enum):
    ENDING = "E"
    BIFURCATION = "B"


_KIND_CODES = {k.value for k in MinutiaKind}


@dataclass(frozen=True)
class Minutia:
    """A ridge ending or bifurcation: position in pixels, direction in radians."""

    x: float
    y: float
    theta: float
    kind: MinutiaKind = MinutiaKind.ENDING

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("minutia coordinates must be finite")
        if not math.isfinite(self.theta):
            raise ValueError("minutia direction must be finite")
        object.__setattr__(self, "theta", wrap_angle(self.theta))


@dataclass(frozen=True)
class CorePoint:
    """Reference singular point used to center all downstream features."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("core coordinates must be finite")


@dataclass(frozen=True)
class RigidTransform:
    """Rotation about a pivot followed by a translation. No scaling."""

    rotation: float = 0.0
    translation: tuple[float, float] = (0.0, 0.0)
    pivot: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        vals = (self.rotation, *self.translation, *self.pivot)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("transform parameters must be finite")
        object.__setattr__(self, "rotation", wrap_angle(self.rotation))

    def inverse(self) -> "RigidTransform":
        """Transform that undoes this one (rotate back about the moved pivot)."""
        dx, dy = self.translation
        px, py = self.pivot
        return RigidTransform(
            rotation=-self.rotation,
            translation=(-dx, -dy),
            pivot=(px + dx, py + dy),
        )


@dataclass(frozen=True, eq=False)
class MinutiaeSet:
    """Minutiae of one impression, in file order, plus an optional core point.

    The set is held as read-only arrays, built from Minutia objects or given
    directly; ``minutiae`` wins when both are given, as ``dataclasses.replace``
    gives both, so change the arrays by building a new set, not by ``replace``.
    Reading ``minutiae`` returns a tuple of Minutia views.
    """

    minutiae: InitVar[tuple[Minutia, ...] | None] = None
    core: CorePoint | None = None
    source_id: str = ""
    xy: np.ndarray | None = None  # (n, 2) float64 positions
    theta: np.ndarray | None = None  # (n,) directions, wrapped into [0, 2*pi)
    kind: np.ndarray | None = None  # (n,) MIN1 kind codes

    def __post_init__(self, minutiae):
        xy, theta, kind = self.xy, self.theta, self.kind
        if minutiae is not None or xy is None:
            ms = tuple(minutiae or ())
            xy, theta, kind = [(m.x, m.y) for m in ms], [m.theta for m in ms], [m.kind.value for m in ms]
        xy = np.array(xy, dtype=np.float64).reshape(-1, 2)
        theta = wrap_angle(np.asarray(theta, dtype=np.float64).reshape(-1))
        kind = np.array(kind, dtype=str).reshape(-1)
        rows_ok = len(xy) == len(theta) == len(kind) and set(kind.tolist()) <= _KIND_CODES
        if not (rows_ok and np.isfinite(xy).all() and np.isfinite(theta).all()):
            raise ValueError("each minutia needs a finite position and direction and a kind code E or B")
        for name, arr in (("xy", xy), ("theta", theta), ("kind", kind)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.xy)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        arrays = ("xy", "theta", "kind")
        same = all(np.array_equal(getattr(self, a), getattr(other, a)) for a in arrays)
        return same and (self.core, self.source_id) == (other.core, other.source_id)

    def coords(self) -> np.ndarray:
        """The (n, 2) float64 array of minutia positions, in file order (read-only)."""
        return self.xy


def _minutiae_view(mset: MinutiaeSet) -> tuple[Minutia, ...]:
    rows = zip(mset.xy.tolist(), mset.theta.tolist(), mset.kind.tolist())
    return tuple(Minutia(x, y, t, MinutiaKind(k)) for (x, y), t, k in rows)


# Set after the class is built, so that the constructor keeps None as the
# default of its ``minutiae`` argument.
MinutiaeSet.minutiae = property(_minutiae_view, doc="The minutiae as a tuple of Minutia.")


def apply_transform(mset: MinutiaeSet, t: RigidTransform) -> MinutiaeSet:
    """Rotate every point about the pivot, then translate.

    Minutia directions are incremented by the rotation (mod 2*pi); the core
    point moves like any other point; source_id is preserved. The identity
    transform returns an equal set bit for bit.
    """
    if len(mset) == 0:
        raise EmptySet("cannot transform an empty minutiae set")
    r = t.rotation
    dx, dy = t.translation
    px, py = t.pivot
    c, s = math.cos(r), math.sin(r)

    def move(x, y):
        if r == 0.0:  # pure translation: exact coordinates when dx = dy = 0
            return x + dx, y + dy
        rx, ry = x - px, y - py
        return rx * c - ry * s + px + dx, rx * s + ry * c + py + dy

    xy = np.stack(move(mset.xy[:, 0], mset.xy[:, 1]), axis=1)
    core = None if mset.core is None else CorePoint(*move(mset.core.x, mset.core.y))
    theta = mset.theta if r == 0.0 else mset.theta + r
    return MinutiaeSet(xy=xy, theta=theta, kind=mset.kind, core=core, source_id=mset.source_id)


def to_core_relative(mset: MinutiaeSet) -> MinutiaeSet:
    """Translate the set so its core sits at the origin (core becomes (0, 0))."""
    if mset.core is None:
        raise MissingCore("set has no core point")
    xy = mset.xy - (mset.core.x, mset.core.y)
    origin = CorePoint(0.0, 0.0)
    return MinutiaeSet(xy=xy, theta=mset.theta, kind=mset.kind, core=origin, source_id=mset.source_id)


def parse_minutiae(data: bytes | str, source_id: str = "") -> MinutiaeSet:
    """Parse a MIN1 byte stream into a validated MinutiaeSet.

    Raises MalformedHeader, MalformedLine, DuplicatePoint or EmptySet.
    Minutiae keep their file order.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"not UTF-8 text: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != "MIN1":
        raise MalformedHeader("expected 'MIN1' on line 1")

    core: CorePoint | None = None
    cx = cy = 0.0  # minutiae lie within MAX_COORDINATE of the core, or of the origin
    xy: list[tuple[float, float]] = []
    theta: list[float] = []
    kind: list[str] = []
    seen: set[tuple[float, float]] = set()

    for line_no, raw in enumerate(lines[1:], start=2):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == "CORE":
            if xy:
                raise MalformedLine(line_no, "CORE must precede all minutiae")
            if core is not None:
                raise MalformedLine(line_no, "duplicate CORE line")
            if len(fields) != 3:
                raise MalformedLine(line_no, "CORE takes exactly two coordinates")
            try:
                cx, cy = float(fields[1]), float(fields[2])
            except ValueError as exc:
                raise MalformedLine(line_no, str(exc)) from exc
            if not (abs(cx) <= MAX_COORDINATE and abs(cy) <= MAX_COORDINATE):  # also false for NaN
                raise MalformedLine(line_no, f"CORE must be finite and at most {MAX_COORDINATE:g} from 0")
            core = CorePoint(cx, cy)
            continue
        if len(fields) != 4:
            raise MalformedLine(line_no, "expected '<x> <y> <theta> <E|B>'")
        if fields[3] not in _KIND_CODES:
            raise MalformedLine(line_no, f"unknown minutia kind {fields[3]!r}")
        try:
            x, y, t = float(fields[0]), float(fields[1]), float(fields[2])
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from exc
        if not (abs(x - cx) <= MAX_COORDINATE and abs(y - cy) <= MAX_COORDINATE and math.isfinite(t)):
            raise MalformedLine(line_no, f"need finite values, offsets from the core <= {MAX_COORDINATE:g}")
        point = (x, y)
        if point in seen:
            raise DuplicatePoint(line_no)
        seen.add(point)
        xy.append(point)
        theta.append(t)
        kind.append(fields[3])

    if not xy:
        raise EmptySet("file contains no minutiae")
    return MinutiaeSet(xy=xy, theta=theta, kind=kind, core=core, source_id=source_id)


def serialize_minutiae(mset: MinutiaeSet, sig_digits: int = 9) -> bytes:
    """Serialize to MIN1 text. parse(serialize(s)) == s for 9-digit coordinates
    (pass sig_digits=17 for an exact float64 round trip).

    source_id is not part of the format; pass it back to parse_minutiae to
    round-trip it.
    """
    out = ["MIN1"]
    if mset.core is not None:
        out.append(f"CORE {fmt_real(mset.core.x, sig_digits)} {fmt_real(mset.core.y, sig_digits)}")
    for (x, y), theta, kind in zip(mset.xy.tolist(), mset.theta.tolist(), mset.kind.tolist()):
        out.append(" ".join(fmt_real(v, sig_digits) for v in (x, y, theta)) + f" {kind}")
    return ("\n".join(out) + "\n").encode("utf-8")


def load_minutiae(path) -> MinutiaeSet:
    """Read a MIN1 file; the file stem becomes the source_id."""
    from pathlib import Path

    p = Path(path)
    return parse_minutiae(p.read_bytes(), source_id=p.stem)


def save_minutiae(mset: MinutiaeSet, path) -> None:
    from pathlib import Path

    Path(path).write_bytes(serialize_minutiae(mset))
